"""Independent oracles and helpers that only the tests use.

`solve_ode_numeric` is a fixed-step RK4 integrator that shares no
numerics with the package, so it can check the closed-form inverse
Jacobian from outside; it raises `InstabilityError` when it blows up.
"""

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

import qbridge as qb


class InstabilityError(qb.SolverError):
    """A fixed-step integration blew up."""


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
