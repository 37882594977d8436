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


def climb_moments(constraints, domain, quad, lam, targets=None):
    """The first moment pass of `maxent._moment_functions`, taken level by
    level from DE_START_LEVEL: each level evaluated on its own nodes,
    accepted when it agrees with its even nodes.  Returns (E[h], log Z,
    Cov(h), the level accepted), or raises what the pass raises."""
    from qbridge import maxent, quadrature

    lam = np.asarray(lam, dtype=float)
    gate = None if targets is None else float(lam @ targets)
    for level in range(quadrature.DE_START_LEVEL, quadrature.DE_MAX_LEVEL + 1):
        w = quadrature.de_rule(domain, level)[1]
        R = maxent._moment_rows(constraints, domain, level)
        with np.errstate(over="ignore", invalid="ignore"):
            f = lam @ R[1:]
            shift = float(f.min())
            if not math.isfinite(shift):
                raise qb.QuadratureError(
                    f"exponent lam.h is not finite on the nodes for lam = {lam.tolist()}")
            if gate is not None and gate < shift:
                maxent._refute_targets(constraints, lam, targets, domain)
            gate = None
            f = np.exp(shift - f) * w
            rows = R * f
            sums, coarse = rows.sum(axis=1), 2.0 * rows[:, ::2].sum(axis=1)
            scale = np.abs(rows).sum(axis=1)
            ends = np.maximum(abs(rows[:, 0]), abs(rows[:, -1]))
            z, mean = sums[0], sums[1:] / sums[0]
        if not np.isfinite(mean).all():
            raise qb.QuadratureError(f"moments overflow on the nodes for lam = {lam.tolist()}")
        if (ends > quad.rel_tol * scale).any():
            raise qb.QuadratureError(
                f"weight exp(-lam.h) does not decay on the domain for lam = {lam.tolist()}")
        if (abs(z - coarse[0]) <= quad.rel_tol * z
                and (np.abs(mean - coarse[1:] / coarse[0])
                     <= np.maximum(quad.abs_tol, quad.rel_tol * scale[1:] / z)).all()):
            d = R[1:] - mean[:, None]
            return mean, math.log(z) - shift, (d * f) @ d.T / z, level
    raise qb.QuadratureError(
        f"double-exponential levels {quadrature.DE_MAX_LEVEL - 1} and "
        f"{quadrature.DE_MAX_LEVEL} disagree for lam = {lam.tolist()}")
