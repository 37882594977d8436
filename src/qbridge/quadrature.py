"""Quadrature with a shared tolerance/truncation policy.

`integrate_de_rows` integrates the rows of one function that takes an
array of nodes on the nested double-exponential rule (Takahasi & Mori,
Publ. RIMS 9 (1974) 721), each row accepted at its own level by level
halving, and reports a row it cannot certify as None.  It serves the
Tsallis side: normalization, the Shannon partner and the averages, whose
phi^{1/(1-q)} edges and power-law tails the rule handles.
`integrate_de` is its one-row case, and hands a function the rule cannot
certify to `integrate`.

Improper integrals of one scalar function go through `integrate`, which
wraps scipy's QUADPACK routines.  Infinite endpoints are handled by
QUADPACK's internal monotone substitution; if that fails to converge, the
tail is truncated where its remaining mass falls below `tail_mass_cut`.

`integrate_rows` integrates several functions that share their nodes,
over several pieces at once, by an adaptive Gauss-Kronrod (G10K21) rule
in numpy, with QUADPACK's map of an infinite end scaled to the width on
which the integrand decays.  It serves integrands with smooth,
fast-decaying tails, such as an exponential family and its moments.

`de_rule` gives the fixed nodes and weights of the double-exponential
rule, for batches of integrals that share one weight, such as the
moments of an exponential family.  Each rule is built once per process
and kept read-only in a bounded cache.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .errors import ConfigurationError, QuadratureError, RangeError
from .qkernel import SupportInterval

__all__ = ["QuadratureSpec", "integrate", "integrate_de", "integrate_de_rows", "integrate_rows",
           "path_integral", "de_rule"]

DE_T_MAX = 4.0       # trapezoid range in t: |pi/2 sinh t| <= 42.9 at the outermost nodes
DE_START_LEVEL = 4   # step 1/16, 129 nodes: the first level a moment pass tries
DE_MAX_LEVEL = 11    # finest step 2^-11, 16385 nodes
RULE_CACHE_SIZE = 16  # DE rules (and moment matrices) kept per process, each one level

# The Gauss-Kronrod pair G10K21 on [-1, 1], as in scipy's quad_vec: the
# non-negative Kronrod nodes from the outermost in, and their weights; the
# rule is symmetric.  The 10 Gauss nodes are the odd-indexed Kronrod nodes.
_K21_HALF_NODES = (0.995657163025808080735527280689003,
                   0.973906528517171720077964012084452,
                   0.930157491355708226001207180059508,
                   0.865063366688984510732096688423493,
                   0.780817726586416897063717578345042,
                   0.679409568299024406234327365114874,
                   0.562757134668604683339000099272694,
                   0.433395394129247190799265943165784,
                   0.294392862701460198131126603103866,
                   0.148874338981631210884826001129720,
                   0.0)
_K21_HALF_WEIGHTS = (0.011694638867371874278064396062192,
                     0.032558162307964727478818972459390,
                     0.054755896574351996031381300244580,
                     0.075039674810919952767043140916190,
                     0.093125454583697605535065465083366,
                     0.109387158802297641899210590325805,
                     0.123491976262065851077958109831074,
                     0.134709217311473325928054001771707,
                     0.142775938577060080797094273138717,
                     0.147739104901338491374841515972068,
                     0.149445554002916905664936468389821)
_G10_HALF_WEIGHTS = (0.066671344308688137593568809893332,
                     0.149451349150580593145776339657697,
                     0.219086362515982043995534934228163,
                     0.269266719309996355091226921569469,
                     0.295524224714752870173892994651338)
_GK_NODES = np.array(_K21_HALF_NODES[:-1] + tuple(-v for v in _K21_HALF_NODES[::-1]))
_K21_WEIGHTS = np.array(_K21_HALF_WEIGHTS + _K21_HALF_WEIGHTS[-2::-1])
_G10_WEIGHTS = np.zeros(21)
_G10_WEIGHTS[1::2] = _G10_HALF_WEIGHTS + _G10_HALF_WEIGHTS[::-1]
_GK_START = 16       # equal sub-intervals per piece in the first round
_GK_EDGES = np.linspace(0.0, 1.0, _GK_START + 1)


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


def _gk21(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray,
          end: np.ndarray, origin: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K21 estimates, |K21 - G10| errors and K21 estimates of the absolute
    value, each (rows, sub-intervals), of f on the sub-intervals [lo, hi]
    in t.  Where `end` is nonzero the sub-interval lies in (0, 1] and
    x = origin + end (1-t)/t, end being the side's width with the sign of
    its direction; where it is 0, x = t."""
    half = 0.5 * (hi - lo)
    t = (0.5 * (hi + lo))[:, None] + half[:, None] * _GK_NODES
    mapped = (end != 0.0)[:, None]
    s = np.where(mapped, t, 1.0)          # no 1/t on the finite pieces
    x = np.where(mapped, origin[:, None] + end[:, None] * (1.0 - s) / s, t)
    w = np.where(mapped, np.abs(end)[:, None], 1.0) * half[:, None] / np.where(mapped, s * s, 1.0)
    with np.errstate(all="ignore"):
        values = np.asarray(f(x.ravel()), dtype=float).reshape(-1, *x.shape) * w
    if not np.isfinite(values).all():
        raise QuadratureError("integrand is not finite on the Gauss-Kronrod nodes")
    return (values @ _K21_WEIGHTS, np.abs(values @ (_K21_WEIGHTS - _G10_WEIGHTS)),
            np.abs(values) @ _K21_WEIGHTS)


def integrate_rows(f: Callable[[np.ndarray], np.ndarray],
                   pieces: Sequence[SupportInterval], spec: QuadratureSpec,
                   width: Callable[[float], float]) -> np.ndarray:
    """Integrals over the union of `pieces` of the rows of f, which maps a
    1-D array of n nodes to an (m, n) array: m integrands on shared nodes.

    One adaptive Gauss-Kronrod (G10K21) pass refines all pieces together.
    An infinite side from a finite end a uses QUADPACK's map scaled by the
    side's width s = width(a): x = a +- s (1-t)/t, dx = s dt/t^2 on
    t in (0, 1] (s = 1 is QUADPACK's own map); with the scale on which the
    rows decay, the first round's 16 sub-intervals fit a tail of any
    scale.  A piece infinite at both ends is split at 0
    first.  Each piece starts at 16 equal sub-intervals, and a
    sub-interval's share of the tolerance is its fraction of its piece
    over the number of pieces.  A round bisects every sub-interval whose
    error exceeds its share for some row.  The error is the raw
    |K21 - G10|, summed per row, and the pass ends when each row's error is
    at most max(abs_tol, rel_tol * integral of |row|).

    Raises QuadratureError when f is not finite at a node (it overflows),
    or when the sub-intervals would exceed max_subdivisions per piece (f
    does not decay toward an infinite end, or is not smooth enough).
    """
    def side(direction: float, origin: float) -> tuple[float, float, float, float]:
        return 0.0, 1.0, direction * width(origin), origin

    spans = []      # (t0, t1, end, origin) of each span, as _gk21 reads them
    for part in pieces:
        a, b = part.lower, part.upper
        if math.isinf(a) and math.isinf(b):
            spans += [side(-1.0, 0.0), side(1.0, 0.0)]
        elif math.isinf(b):
            spans.append(side(1.0, a))
        elif math.isinf(a):
            spans.append(side(-1.0, b))
        else:
            spans.append((a, b, 0.0, 0.0))
    t0, t1, end, origin = np.array(spans).T
    edges = t0[:, None] + (t1 - t0)[:, None] * _GK_EDGES     # (spans, 17)
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    end, origin = np.repeat(end, _GK_START), np.repeat(origin, _GK_START)
    share = np.full(lo.size, 1.0 / lo.size)
    budget = spec.max_subdivisions * len(spans)
    value, err, mass = _gk21(f, lo, hi, end, origin)
    while True:
        bound = err.sum(axis=1)
        tol = np.maximum(spec.abs_tol, spec.rel_tol * mass.sum(axis=1))
        if np.all(bound <= tol):
            return value.sum(axis=1)
        split = np.any(err > tol[:, None] * share, axis=0)
        if lo.size + np.count_nonzero(split) > budget:
            worst = int(np.argmax(bound / tol))
            raise QuadratureError(
                f"Gauss-Kronrod pass did not converge within {spec.max_subdivisions} "
                f"sub-intervals per piece (row {worst}: estimate "
                f"{float(value[worst].sum())!r}, error bound {float(bound[worst])!r})",
                estimate=float(value[worst].sum()), error_bound=float(bound[worst]))
        lo_s, hi_s, end_s, origin_s = lo[split], hi[split], end[split], origin[split]
        mid = 0.5 * (lo_s + hi_s)
        new = (np.concatenate((lo_s, mid)), np.concatenate((mid, hi_s)),
               np.concatenate((end_s, end_s)), np.concatenate((origin_s, origin_s)))
        keep = ~split
        parts = zip((value, err, mass), _gk21(f, *new))
        value, err, mass = (np.concatenate((old[:, keep], fresh), axis=1)
                            for old, fresh in parts)
        half_share = 0.5 * share[split]
        share = np.concatenate((share[keep], half_share, half_share))
        lo, hi, end, origin = (np.concatenate((old[keep], fresh))
                               for old, fresh in zip((lo, hi, end, origin), new))


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


@lru_cache(maxsize=RULE_CACHE_SIZE)
def de_rule(interval: SupportInterval, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the double-exponential trapezoid rule with step
    2^-level on t in [-DE_T_MAX, DE_T_MAX].

    With s = (pi/2) sinh t, a finite interval uses tanh-sinh
    (x = a + (b-a)/(1+e^{-2s})), a half-line exp-sinh (x = a + e^s or
    x = b - e^s) and the real line sinh-sinh (x = sinh s).  The rules are
    nested: nodes[::2] are the nodes of level-1, with half the weights
    weights[::2], so one pass over a level also gives the coarser estimate.
    Each rule is built once per process and kept, read-only, in a cache of
    at most RULE_CACHE_SIZE rules.
    """
    a, b = interval.lower, interval.upper
    h = 2.0 ** -level
    n = int(DE_T_MAX) << level
    t = h * np.arange(-n, n + 1)
    s = 0.5 * math.pi * np.sinh(t)
    ds = h * 0.5 * math.pi * np.cosh(t)
    if math.isfinite(a) and math.isfinite(b):
        x, w = a + (b - a) / (1.0 + np.exp(-2.0 * s)), 0.5 * (b - a) * ds / np.cosh(s) ** 2
    elif math.isfinite(a):
        x, w = a + np.exp(s), ds * np.exp(s)
    elif math.isfinite(b):
        x, w = b - np.exp(s), ds * np.exp(s)
    else:
        x, w = np.sinh(s), ds * np.cosh(s)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def integrate_de_rows(f: Callable, m: int, interval: SupportInterval,
                      spec: QuadratureSpec) -> list[float | None]:
    """Integrals over `interval` of the m rows of f on the nested
    double-exponential rule; None for a row the rule cannot certify.

    f maps a numpy array of n nodes to an (m, n) array: m integrands on
    shared nodes (with m = 1, an array of n values or a float).  Levels
    run from DE_START_LEVEL up; the first evaluates all nodes, each later
    one only the nodes it adds, and each row is accepted at its own level,
    once its estimate and that of the level below differ by at most
    max(abs_tol, rel_tol * integral of |row|).  A DE rule suits the
    phi^{1/(1-q)} edges and power-law tails of the Tsallis side.  A row is
    left uncertified when its tail is too heavy for t in [-4, 4] (the row
    in t at an outermost node, f(x) dx/dt, is not below rel_tol times the
    integral of |row|), when a value of it is not finite, or when its levels
    never agree; every row still open is left so when f raises RangeError
    (it overflows).  The pass ends once no row is open.
    """
    values: list[float | None] = [None] * m
    open_ = range(m)
    total = mass = None
    with np.errstate(all="ignore"):      # a value that is not finite closes its row
        for level in range(DE_START_LEVEL, DE_MAX_LEVEL + 1):
            x, w = de_rule(interval, level)
            if total is not None:
                x, w = x[1::2], w[1::2]      # the nodes this level adds
            try:
                terms = np.reshape(w * f(x), (m, w.size))
            except RangeError:
                break
            sums, scales = terms.sum(axis=1).tolist(), np.abs(terms).sum(axis=1).tolist()
            if total is None:
                coarse = (2.0 * terms[:, ::2].sum(axis=1)).tolist()
                total, mass = sums, scales
                # terms / h at t = -4 and t = 4 bound the mass past them
                ends = zip(terms[:, 0].tolist(), terms[:, -1].tolist())
                open_ = [i for i, (a, b) in zip(open_, ends)
                         if max(abs(a), abs(b)) * 2.0 ** level <= spec.rel_tol * mass[i]]
            else:
                coarse = total
                total = [0.5 * t + s for t, s in zip(total, sums)]
                mass = [0.5 * a + s for a, s in zip(mass, scales)]
            still = []
            for i in open_:
                if not math.isfinite(mass[i]):
                    continue
                if abs(total[i] - coarse[i]) <= max(spec.abs_tol, spec.rel_tol * mass[i]):
                    values[i] = total[i]
                else:
                    still.append(i)
            open_ = still
            if not open_:
                break
    return values


def integrate_de(f: Callable, interval: SupportInterval, spec: QuadratureSpec) -> float:
    """Integral of f over `interval` on the nested double-exponential rule,
    or by `integrate` where that rule cannot certify it.

    f maps a numpy array of nodes to an array of values: this is the
    m = 1 case of `integrate_de_rows`, whose tests decide when the rule
    certifies the integral.  Where it does not, the same f goes to
    QUADPACK's `integrate`, which calls it with one float at a time.
    """
    value, = integrate_de_rows(f, 1, interval, spec)
    return integrate(f, interval, spec) if value is None else value
