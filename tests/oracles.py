"""Independent oracles and helpers that only the tests use.

`solve_ode_numeric` is a fixed-step RK4 integrator that shares no
numerics with the package, so it can check the closed-form inverse
Jacobian from outside; it raises `InstabilityError` when it blows up.
`certified_quad` is an integral that checks its own error estimate.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import mpmath
import numpy as np
from scipy.integrate import IntegrationWarning
from scipy.integrate import quad as scipy_quad

import qbridge as qb


class InstabilityError(qb.SolverError):
    """A fixed-step integration blew up."""


def certified_quad(f: Callable[[float], float], lo: float, hi: float,
                   epsrel: float = 1e-13, limit: int = 200, epsabs: float = 0.0) -> float:
    """The integral of f over [lo, hi] (either end may be infinite), with
    an error the oracle itself bounds.

    scipy's QUADPACK, asked for epsrel alone, answers where it converges
    with an error estimate within max(epsabs, epsrel |value|).  Otherwise
    mpmath's tanh-sinh quadrature at 30 digits, on f at double-precision
    nodes and split at 0, answers where its own error estimate is within
    epsabs or within epsrel of the larger of its value and the integral of
    |f|: a value that cancels to near 0, such as an odd moment of a nearly
    even density, has no better bound at double precision.  Raises
    AssertionError when neither certifies a value.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            value, err = scipy_quad(f, lo, hi, epsabs=0.0, epsrel=epsrel, limit=limit)
            if err <= max(epsabs, epsrel * abs(value)):
                return value
        except IntegrationWarning:
            pass
    points = [lo, 0.0, hi] if lo < 0.0 < hi else [lo, hi]
    with mpmath.workdps(30):
        value, err = mpmath.quad(lambda x: f(float(x)), points, error=True)
        mass = mpmath.quad(lambda x: abs(f(float(x))), points)
        if not err <= max(epsabs, epsrel * max(abs(value), mass)):
            raise AssertionError(f"no oracle certifies the integral on [{lo!r}, {hi!r}]: "
                                 f"mpmath gives {value} with error {err}")
        return float(value)


@dataclass(frozen=True)
class LinearODE:
    """g' + P(x) g = Q(x) with initial condition (x0, g0)."""

    P: Callable[[float], float]
    Q: Callable[[float], float]
    x0: float
    g0: float


def solve_ode_numeric(ode: LinearODE, x_end: float,
                      steps: int) -> list[tuple[float, float]]:
    """Fixed-step 4th-order integration of g' + P g = Q from (x0, g0).

    Raises InstabilityError if |g| exceeds 1e12.
    """
    if steps < 100:
        raise qb.ConfigurationError("use at least 100 steps for the oracle")
    h = (x_end - ode.x0) / steps
    x = float(ode.x0)
    g = float(ode.g0)
    out = [(x, g)]

    def rhs(xv: float, gv: float) -> float:
        return ode.Q(xv) - ode.P(xv) * gv

    for i in range(steps):
        k1 = rhs(x, g)
        k2 = rhs(x + 0.5 * h, g + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h, g + 0.5 * h * k2)
        k4 = rhs(x + h, g + h * k3)
        g += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        x = ode.x0 + (i + 1) * h
        if abs(g) > 1e12:
            raise InstabilityError(f"solution blew up at x = {x!r}: |g| > 1e12")
        out.append((x, g))
    return out


def check_square_integrable(h: qb.ConstraintFn, density: Callable[[float], float],
                            support: qb.SupportInterval,
                            quad: qb.QuadratureSpec) -> bool:
    """Numerical L2 check of an observable against a density."""
    try:
        value = qb.integrate(lambda x: density(x) * h.value(x) ** 2, support, quad)
    except qb.QuadratureError:
        return False
    return math.isfinite(value)


@dataclass(frozen=True)
class SupportedDensity:
    """Adapter pairing a bare evaluator with its support interval."""

    evaluator: Callable[[float], float]
    support: qb.SupportInterval

    def density(self, x):
        """The evaluator where x lies in the support, else 0; x is a float or
        a numpy array of nodes, as the averages pass them."""
        return np.where(self.support.contains(x), self.evaluator(x), 0.0)


def slope_matches_finite_difference(cs: qb.ConstraintSet, grid: Sequence[float],
                                    step: float = 1e-6,
                                    rel_tol: float = 1e-8) -> bool:
    """Central-difference consistency check of cs.potential_slope() on a grid."""
    for x in grid:
        fd = (cs.potential(x + step) - cs.potential(x - step)) / (2.0 * step)
        exact = cs.potential_slope(x)
        if abs(fd - exact) > rel_tol * max(1.0, abs(exact)):
            return False
    return True
