"""Adaptive quadrature with a shared tolerance/truncation policy.

Improper integrals of one function go through `integrate`, which wraps
scipy's QUADPACK routines.  Infinite endpoints are handled by QUADPACK's
internal monotone substitution; if that fails to converge, the tail is
truncated where its remaining mass falls below `tail_mass_cut`.

`de_rule` gives the fixed nodes and weights of a nested double-exponential
rule (Takahasi & Mori, Publ. RIMS 9 (1974) 721), for batches of integrals
that share one weight, such as the moments of an exponential family.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .errors import ConfigurationError, QuadratureError
from .qkernel import SupportInterval

__all__ = ["QuadratureSpec", "integrate", "path_integral", "de_rule"]

DE_T_MAX = 4.0       # trapezoid range in t: |pi/2 sinh t| <= 42.9 at the outermost nodes
DE_START_LEVEL = 4   # step 1/16, 129 nodes: the first level a moment pass tries
DE_MAX_LEVEL = 11    # finest step 2^-11, 16385 nodes


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and truncation policy for all improper integrals."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 200
    tail_mass_cut: float = 1e-12

    def __post_init__(self):
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise ConfigurationError("quadrature tolerances must be positive")
        if self.max_subdivisions < 16:
            raise ConfigurationError("max_subdivisions must be at least 16")
        if not (0.0 < self.tail_mass_cut <= 1e-10):
            raise ConfigurationError("tail_mass_cut must be in (0, 1e-10]")

    def tightened(self, factor: float) -> "QuadratureSpec":
        """Same policy with tolerances divided by `factor` (for re-checks)."""
        return replace(self, rel_tol=self.rel_tol / factor,
                       abs_tol=self.abs_tol / factor)


def _quad(f: Callable[[float], float], a: float, b: float,
          spec: QuadratureSpec) -> tuple[float, float, bool]:
    """One scipy quad call; returns (value, error_estimate, converged)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            value, err = quad(f, a, b, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
                              limit=spec.max_subdivisions)
            return value, err, True
        except IntegrationWarning:
            pass
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        value, err = quad(f, a, b, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
                          limit=spec.max_subdivisions)
    return value, err, False


def truncated_bound(f: Callable[[float], float], start: float, sign: float,
                    spec: QuadratureSpec) -> float:
    """Finite cutoff T (in direction `sign`) beyond which the remaining
    mass of f is below tail_mass_cut, estimated by doubling windows."""
    t = max(1.0, abs(start) * 2.0)
    for _ in range(120):
        seg, _, _ = _quad(f, sign * t, sign * 2.0 * t, spec)
        if abs(seg) < spec.tail_mass_cut:
            return sign * 2.0 * t
        t *= 2.0
    raise QuadratureError(
        f"tail mass never fell below {spec.tail_mass_cut!r}; integral likely divergent")


def integrate(f: Callable[[float], float], interval: SupportInterval,
              spec: QuadratureSpec) -> float:
    """Adaptive estimate of the integral of f over `interval`.

    Raises QuadratureError (carrying the best estimate and its error
    bound) if the target accuracy max(abs_tol, rel_tol*|result|) cannot
    be certified within max_subdivisions.
    """
    a, b = interval.lower, interval.upper
    value, err, ok = _quad(f, a, b, spec)
    if not ok and (math.isinf(a) or math.isinf(b)):
        # retry with explicit tail truncation
        try:
            lo = truncated_bound(f, b if math.isinf(a) else a, -1.0, spec) \
                if math.isinf(a) else a
            hi = truncated_bound(f, a if math.isinf(b) else b, 1.0, spec) \
                if math.isinf(b) else b
            value, err, ok = _quad(f, lo, hi, spec)
        except QuadratureError:
            ok = False
    if not ok and err > max(spec.abs_tol, spec.rel_tol * abs(value)) * 10.0:
        raise QuadratureError(
            f"quadrature did not converge within {spec.max_subdivisions} "
            f"subdivisions (estimate {value!r}, error bound {err!r})",
            estimate=value, error_bound=err)
    return value


def path_integral(f: Callable[[float], float], a: float, b: float,
                  spec: QuadratureSpec) -> float:
    """Signed integral along the oriented path from a to b; either end may
    be infinite and a may exceed b (scipy's quad takes both)."""
    if a == b:
        return 0.0
    value, err, ok = _quad(f, a, b, spec)
    if not ok and err > max(spec.abs_tol, spec.rel_tol * abs(value)) * 10.0:
        raise QuadratureError(
            f"path integral on [{a!r}, {b!r}] did not converge "
            f"(estimate {value!r}, error bound {err!r})",
            estimate=value, error_bound=err)
    return value


def de_rule(interval: SupportInterval, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the double-exponential trapezoid rule with step
    2^-level on t in [-DE_T_MAX, DE_T_MAX].

    With s = (pi/2) sinh t, a finite interval uses tanh-sinh
    (x = a + (b-a)/(1+e^{-2s})), a half-line exp-sinh (x = a + e^s or
    x = b - e^s) and the real line sinh-sinh (x = sinh s).  The rules are
    nested: nodes[::2] are the nodes of level-1, with half the weights
    weights[::2], so one pass over a level also gives the coarser estimate.
    """
    h = 2.0 ** -level
    n = int(DE_T_MAX) << level
    t = h * np.arange(-n, n + 1)
    s = 0.5 * math.pi * np.sinh(t)
    ds = h * 0.5 * math.pi * np.cosh(t)
    a, b = interval.lower, interval.upper
    if math.isfinite(a) and math.isfinite(b):
        return (a + (b - a) / (1.0 + np.exp(-2.0 * s)),
                0.5 * (b - a) * ds / np.cosh(s) ** 2)
    if math.isfinite(a):
        return a + np.exp(s), ds * np.exp(s)
    if math.isfinite(b):
        return b - np.exp(s), ds * np.exp(s)
    return np.sinh(s), ds * np.cosh(s)
