"""Shannon and Tsallis MaxEnt solutions and the transport check between them.

The Shannon solver fits multipliers to moment targets by damped Newton
with the exact covariance Jacobian, taking E[h], log Z and Cov(h) from one
batched double-exponential pass per step (a bracketed fallback for a single
constraint), from the closed-form fit where one exists (the exponential
on a half-line, the Gaussian on the line); x, x^2, x^4 on the line start
at the exp(-(b x^2 + c x^4)) that matches K2 and K4/K2^2, read from a
small table, tilted toward K1.
Its gap is relative to max(1, |K_i|), an exact start takes no pass (log Z
is in closed form), and a pass that fails at the starting multipliers is
reported as such.  A fit's first pass evaluates one level, and later
passes start where the last one ended.  One vectorized adaptive
Gauss-Kronrod pass then re-checks the normalization and every moment of
the solution, split at the density's modes, each tail mapped at the
density's own width; its first round is a table built once per process.
Targets
outside the moment set end at a dual certificate: multipliers lam with
lam.K below the infimum of lam.h over the domain, found inside the moment
pass and raised as FeasibilityError.
The Tsallis solution keeps the same multipliers and only renormalizes, on
the support bounded by the roots of its margin polynomial: the
transformation carries them over unchanged.  Every integral of the
q-exponential family, int p^s A, is taken in one place,
`TsallisSolution.integrals`: `ConstraintSet.divergence` screens it,
`ConstraintSet.linear_integral` gives it in closed form where lam.h is
linear and the support runs from one finite end to a root of phi or to
infinity, and otherwise one double-exponential pass takes all of its rows
on shared nodes, with QUADPACK for a row that pass cannot certify.
`normalize_tsallis` reads the normalization there, and `shannon_partner`
that of the family's q = 1 member on the image of the Tsallis support
under u: the Shannon solution with the same multipliers.
`verify_transport` compares both normalized densities pointwise through
the change of variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import quadrature
from .errors import (
    ConfigurationError,
    EdgeSingularityError,
    FeasibilityError,
    NonIntegrableError,
    NonNormalizableError,
    QBridgeError,
    QuadratureError,
    SolverError,
    UnsupportedRegimeError,
)
from .qkernel import QIndex, SupportInterval, as_qindex, q_exp
from .quadrature import (
    DE_MAX_LEVEL,
    DE_START_LEVEL,
    RULE_CACHE_SIZE,
    QuadratureSpec,
    de_rule,
    integrate,
    integrate_rows,
)
from .transform import (ConstraintFn, ConstraintSet, TransformMap, qexp_support,
                        safeguarded_newton, u_image)

__all__ = [
    "QuadratureSpec",
    "integrate",
    "ShannonSolution",
    "TsallisSolution",
    "TransportReport",
    "solve_shannon",
    "normalize_tsallis",
    "shannon_partner",
    "verify_transport",
    "sample_and_test",
]

_EXP_ARG_MAX = 700.0  # beyond this exp() overflows a double


def _exp_or_inf(arg):
    """exp(arg), or inf where arg is not below _EXP_ARG_MAX: elementwise for
    a numpy array, and a float for a float."""
    value = np.where(arg < _EXP_ARG_MAX, np.exp(np.minimum(arg, _EXP_ARG_MAX)), np.inf)
    return value if np.ndim(arg) else float(value)


@dataclass(frozen=True)
class ShannonSolution:
    """Exponential-family density exp(-mu - dot(lam, h(u))) on `domain`."""

    mu: float
    cs: ConstraintSet
    domain: SupportInterval

    @property
    def support(self) -> SupportInterval:
        return self.domain

    def density(self, u):
        """The density at u: elementwise for a numpy array, a float for a float."""
        inside = self.domain.contains(u)
        return _exp_or_inf(np.where(inside, -self.mu - self.cs.potential(u), -np.inf))


@dataclass(frozen=True)
class TsallisSolution:
    """q-exponential density C e_q(-dot(lam, h(x))) on `support`."""

    C: float
    q: QIndex
    cs: ConstraintSet
    support: SupportInterval

    def density(self, x):
        """The density at x: elementwise for a numpy array, a float for a float."""
        t = self.cs.potential(x)
        # phi = 1 - (1-q) t, as cs.margin forms it, is <= 0 inside the support
        # only in the root-finding shell of an edge
        inside = self.support.contains(x) & (1.0 - (1.0 - self.q.q) * t > 0.0)
        value = np.where(inside, self.C * q_exp(np.where(inside, -t, 0.0), self.q), 0.0)
        return value if np.ndim(x) else float(value)

    def integrals(self, rows: Sequence[tuple[float, ConstraintFn | None]],
                  quad: QuadratureSpec) -> list:
        """int p^s A over the support for each row (s, A), A a ConstraintFn
        or None for A = 1: per row a float, or the QBridgeError its reader
        raises.

        `cs.divergence` screens each row once; a divergent row's entry is a
        NonIntegrableError, "the integrand ...", carrying the tail exponent.
        The linear family is in closed form (`cs.linear_integral`, times
        C^s).  The other rows take one `quadrature.integrate_de_rows` pass
        on shared nodes, as p.density(x) ** s * A with each power taken
        once.  A row that pass cannot certify goes alone to
        `quadrature.integrate`, whose integrand takes one float at a time,
        and its entry is that value or the QBridgeError it raised.
        """
        q, cs, support = self.q, self.cs, self.support
        out: list = [None] * len(rows)
        for i, (s, a) in enumerate(rows):
            found = cs.divergence(q, support, s, 0 if a is None else a.degree)
            if found is not None:
                out[i] = NonIntegrableError(f"the integrand {found[1]}", tail_exponent=found[0])
                continue
            z = cs.linear_integral(q, support, s, (1.0,) if a is None else a.coefficients)
            if z is not None:
                out[i] = self.C ** s * z
        open_ = [rows[i] for i, entry in enumerate(out) if entry is None]
        if not open_:
            return out

        def values(x: np.ndarray) -> np.ndarray:
            d = self.density(x)
            powers = {s: d ** s for s, _ in open_}
            observed = {a: a.value(x) for _, a in open_ if a is not None}
            return np.array([powers[s] if a is None else powers[s] * observed[a]
                             for s, a in open_])

        found = iter(quadrature.integrate_de_rows(values, len(open_), support, quad))
        for i, (s, a) in enumerate(rows):
            if out[i] is not None:
                continue
            value = next(found)
            if value is None:
                def scalar(x: float, s: float = s, a: ConstraintFn | None = a) -> float:
                    return self.density(x) ** s * (1.0 if a is None else a.value(x))

                try:
                    value = quadrature.integrate(scalar, support, quad)
                except QBridgeError as exc:
                    value = exc
            out[i] = value
        return out


TRANSPORT_COLUMNS = ("x", "g", "J", "u", "p_tsallis", "p_shannon_pushforward",
                     "transport_residual")


@dataclass(frozen=True)
class TransportReport:
    """Pointwise comparison of the two densities through the map: one row
    of TRANSPORT_COLUMNS per grid point."""

    rows: tuple[tuple[float, ...], ...]
    max_abs_residual: float
    passed: bool
    factor_max_residual: float | None = None

    @property
    def profile(self) -> tuple[tuple[float, float], ...]:
        """(x, residual) per grid point."""
        return tuple((row[0], row[-1]) for row in self.rows)


# A certificate must beat the infimum by this much, relative to the terms of
# lam.h at the minimiser and to |lam| |K|: far above the rounding of either
# side, far below the 3.5e-7 by which K = (1, 1 - 1e-6) for x, x^2 misses.
_CERTIFICATE_RTOL = 1e-12


def _potential_minimum(cs: ConstraintSet, domain: SupportInterval) -> tuple[float, float]:
    """Infimum of lam.h over `domain` and a point where it is attained.

    lam.h is one polynomial, so the infimum is its value at a finite
    endpoint or at a critical point, and the candidates are those and
    the critical points inside (an extra candidate cannot lie below the
    minimum).  An infinite end toward which lam.h falls without bound
    gives (-inf, that end).
    """
    lo, hi = domain.lower, domain.upper
    for end, direction in ((hi, 1.0), (lo, -1.0)):
        if math.isinf(end) and cs.end_sign(direction) < 0:
            return -math.inf, end
    points = ([x for x in (lo, hi) if math.isfinite(x)]
              + [r for r in cs.critical_points if lo < r < hi])
    return min((cs.potential(x), x) for x in points or [0.0])


def _modes(cs: ConstraintSet, domain: SupportInterval) -> list[float]:
    """Interior local minimisers of lam.h, the modes of exp(-lam.h), ascending.

    (lam.h)' keeps one sign between consecutive critical points, so a
    critical point is a minimiser where that sign turns from - to +.
    """
    points = [r for r in cs.critical_points if domain.lower < r < domain.upper]
    if not points:
        return []

    def between(a: float, b: float) -> float:
        if math.isinf(a):
            return b - max(1.0, abs(b))
        if math.isinf(b):
            return a + max(1.0, abs(a))
        return 0.5 * (a + b)

    fences = [domain.lower, *points, domain.upper]
    slopes = [cs.potential_slope(between(a, b)) for a, b in zip(fences, fences[1:])]
    return [r for r, left, right in zip(points, slopes, slopes[1:]) if left < 0.0 < right]


def _refute_targets(constraints: tuple[ConstraintFn, ...], lam: np.ndarray,
                    targets: np.ndarray, domain: SupportInterval) -> None:
    """Raise FeasibilityError when lam.K lies below the infimum of lam.h.

    Every density on `domain` has E[lam.h] at or above that infimum, so no
    density meets E[h] = K: K lies outside the moment set, and the dual
    log Z + lam.K is unbounded below along lam.
    """
    cs = ConstraintSet(constraints, tuple(lam.tolist()))
    low, at = _potential_minimum(cs, domain)
    if low == -math.inf:
        return
    value = float(lam @ targets)
    terms = sum(abs(a * at ** k) for k, a in enumerate(cs.combined_coefficients()))
    margin = _CERTIFICATE_RTOL * (terms + float(np.linalg.norm(lam) * np.linalg.norm(targets)))
    if value < low - margin:
        raise FeasibilityError(
            f"targets {targets.tolist()} lie outside the moment set on the domain: "
            f"lam = {lam.tolist()} gives lam.K = {value!r}, below the infimum "
            f"{low!r} of lam.h (at x = {at!r})", certificate=tuple(lam.tolist()))


# The level a fit's first moment pass evaluates first.  A fit of x, x^2, x^4
# that climbed from level 4 evaluated levels 4-7 1.0, 1.0, 4.6 and 0.15 times
# (seed 9, 200 fits): its first pass mostly accepts level 6.
_PROBE_LEVEL = DE_START_LEVEL + 2


def _moment_functions(constraints: tuple[ConstraintFn, ...],
                      domain: SupportInterval, quad: QuadratureSpec,
                      targets: np.ndarray | None = None):
    """Return moments(lams) -> (E[h], log Z, Cov(h)) of exp(-lam.h) on `domain`.

    All three come from one vectorized pass of the nested double-exponential
    rule over nodes x_k and the matrix H[i, k] = h_i(x_k), both built once
    per process (`de_rule`, and `_moment_rows`, which holds [1; H]): one
    product of the weights with [1; H] gives Z and every Z E[h_i] with
    their coarse-level sums, scales and end terms.  The weights are
    shifted by min_k lam.h(x_k), so log Z is formed in log space.  A level
    is accepted when it and the level below it (its even nodes) agree to
    `quad`'s tolerances; a pass raises QuadratureError when no level up to
    DE_MAX_LEVEL is, or when the weight at the outermost nodes of the level
    it reaches is not negligible (no decay on `domain`).

    A pass starts at the finest level the last one reached.  The first
    evaluates level 6 alone and reads the tests of levels 4 and 5 from its
    nested nodes, every 4th and every 2nd with the weights times 4 and 2:
    the lowest level that passes (or raises) is evaluated on its own, so
    each pass returns the bits, or raises the error, of a climb level by
    level from level 4.

    With `targets` K, a pass whose lam.K falls below the shift of the
    first level it evaluates compares lam.K with the exact infimum of lam.h
    and raises FeasibilityError when lam proves K infeasible.  The shift is
    never below the infimum, and a finer level's shift is never above a
    coarser one's, so a pass with lam.K at or above it skips the comparison
    and loses nothing.
    """
    finest = [None]     # the finest level a pass has reached; None before the first

    def weighted(lam: np.ndarray, level: int, gate: float | None):
        """The rows [1; H] times the weight w exp(shift - lam.h) at `level`,
        that weight, the shift and H."""
        w = de_rule(domain, level)[1]
        R = _moment_rows(constraints, domain, level)
        # inf and nan from overflow at the outer nodes are checked in `_verdict`
        with np.errstate(over="ignore", invalid="ignore"):
            f = lam @ R[1:]
            shift = float(f.min())      # nan if any f is nan
            if not math.isfinite(shift):
                raise QuadratureError(
                    f"exponent lam.h is not finite on the nodes for lam = {lam.tolist()}")
            if gate is not None and gate < shift:
                _refute_targets(constraints, lam, targets, domain)
            np.subtract(shift, f, out=f)
            np.exp(f, out=f)
            f *= w
            return R * f, f, shift, R[1:]

    def settles(rows: np.ndarray, level: int, lam: np.ndarray) -> bool:
        """Whether `level`, read from the nodes it shares with `rows`, the
        probe level's, passes its test or raises: the climb starts there,
        and that level evaluated on its own returns or raises as a climb
        from level 4 would.  Its shift, and so its rounding, is its own."""
        step = 1 << (_PROBE_LEVEL - level)
        try:
            return _verdict(rows[:, ::step] * float(step), quad, lam)[2]
        except QuadratureError:
            return True

    def moments(lams: Sequence[float]) -> tuple[np.ndarray, float, np.ndarray]:
        lam = np.asarray(lams, dtype=float)
        gate = None if targets is None else float(lam @ targets)   # lam.K
        start, probe = finest[0], None
        if start is None:
            start = DE_START_LEVEL
            try:
                probe = weighted(lam, _PROBE_LEVEL, gate)
            except QuadratureError:     # lam.h may still be finite on a coarser level's nodes
                pass
            else:
                gate = None
                start = next((level for level in range(DE_START_LEVEL, _PROBE_LEVEL)
                              if settles(probe[0], level, lam)), _PROBE_LEVEL)
        for level in range(start, DE_MAX_LEVEL + 1):
            finest[0] = level
            if level == _PROBE_LEVEL and probe is not None:
                rows, f, shift, H = probe
            else:
                rows, f, shift, H = weighted(lam, level, gate)
            gate = None     # a finer level's shift is no higher: it would not refute
            z, mean, agree = _verdict(rows, quad, lam)
            if agree:
                d = np.subtract(H, mean[:, None], out=rows[1:])
                cov = (d * f) @ d.T / z
                return mean, math.log(z) - shift, cov
        raise QuadratureError(
            f"double-exponential levels {DE_MAX_LEVEL - 1} and {DE_MAX_LEVEL} "
            f"disagree for lam = {lam.tolist()}")

    return moments


def _verdict(rows: np.ndarray, quad: QuadratureSpec,
             lam: np.ndarray) -> tuple[float, np.ndarray, bool]:
    """Z, E[h] and whether they agree with the level below to `quad`'s
    tolerances, from `rows`, [1; H] times the weight on one level's nodes,
    whose even nodes are the level below; `rows` becomes |rows|.  Raises
    QuadratureError where the moments overflow, or where the weight at the
    outermost nodes is not negligible.  The tests run on Python floats,
    one per row, with the arithmetic numpy would do elementwise."""
    with np.errstate(over="ignore", invalid="ignore"):
        # row 0 gives Z, row i Z E[h_i]
        sums = rows.sum(axis=1)
        mean = sums[1:] / sums[0]
        coarse = (2.0 * rows[:, ::2].sum(axis=1)).tolist()
        scale = np.abs(rows, out=rows).sum(axis=1).tolist()
        ends = [max(a, b) for a, b in zip(rows[:, 0].tolist(), rows[:, -1].tolist())]
    z, means = float(sums[0]), mean.tolist()
    if not all(map(math.isfinite, means)):
        raise QuadratureError(f"moments overflow on the nodes for lam = {lam.tolist()}")
    if any(end > quad.rel_tol * s for end, s in zip(ends, scale)):
        raise QuadratureError(
            f"weight exp(-lam.h) does not decay on the domain for lam = {lam.tolist()}")
    agree = (abs(z - coarse[0]) <= quad.rel_tol * z
             and all(abs(m - c / coarse[0]) <= max(quad.abs_tol, quad.rel_tol * s / z)
                     for m, c, s in zip(means, coarse[1:], scale[1:])))
    return z, mean, agree


@lru_cache(maxsize=RULE_CACHE_SIZE)
def _moment_rows(constraints: tuple[ConstraintFn, ...], domain: SupportInterval,
                 level: int) -> np.ndarray:
    """[1; H], H[i, k] = h_i(x_k) on the nodes of `de_rule(domain, level)`,
    read-only: one product with the weights gives Z and every Z E[h_i].

    Built once per process and kept in a cache of at most RULE_CACHE_SIZE
    matrices, as the rule is.
    """
    x = de_rule(domain, level)[0]
    with np.errstate(over="ignore", invalid="ignore"):   # checked by the moment pass
        rows = np.array([np.ones_like(x)] + [c.value(x) for c in constraints])
    rows.flags.writeable = False
    return rows


def _bisection_fallback(constraint: ConstraintFn, target: float,
                        domain: SupportInterval, quad: QuadratureSpec,
                        trace: list) -> float:
    """Single-multiplier solve by automatic bracketing + safeguarded Newton.

    The normalized moment is strictly decreasing in the multiplier, so a
    sign change of moment - target brackets the root; `safeguarded_newton`
    finishes on that bracket with the slope -Var(h) of the same moment pass.
    """
    moments = _moment_functions((constraint,), domain, quad)

    def gap(lam: float) -> tuple[float, float]:
        mean, _, cov = moments([lam])
        return float(mean[0]) - target, -float(cov[0][0])

    lo = hi = 1.0
    for _ in range(60):
        try:
            gap_hi = gap(hi)[0]
        except (QuadratureError, OverflowError):
            gap_hi = None
        if gap_hi is not None and gap_hi < 0.0:
            break
        hi *= 2.0
    else:
        raise FeasibilityError(
            f"target {target!r} is below every attainable moment on the domain",
            trace=trace)
    for _ in range(60):
        try:
            gap_lo = gap(lo)[0]
        except (QuadratureError, OverflowError):
            gap_lo = None
        if gap_lo is not None and gap_lo > 0.0:
            break
        if gap_lo is None:
            # divergent trial: moment is effectively +inf, valid upper bracket
            lo *= 1.0 + 1e-3
            break
        lo /= 2.0
    else:
        raise FeasibilityError(
            f"target {target!r} is above every attainable moment on the domain",
            trace=trace)
    return safeguarded_newton(gap, lo, hi, xtol=1e-14)


def solve_shannon(cs: ConstraintSet, domain: SupportInterval,
                  quad: QuadratureSpec) -> ShannonSolution:
    """Fit multipliers so the exponential-family moments hit the targets.

    Damped Newton on E[h](lam) = K with the exact Jacobian -Cov(h), both
    taken from one batched double-exponential pass per trial point, and one
    more full Newton step once the gap test (max_i |E[h_i] - K_i| /
    max(1, |K_i|) < 1e-11) passes, unless the gap is already at rounding
    (at most 4 eps), where that step has nothing to remove;
    single-constraint problems fall back to a bracketed safeguarded Newton
    solve when Newton stalls.  With more constraints, a QuadratureError of
    the pass at the starting multipliers raises a SolverError that says so
    and chains it.  Where the closed-form fit exists (see `_newton_start`:
    the exponential on a half-line, the Gaussian on the line) it is the
    solution, with mu = log Z in closed form and no moment pass; x, x^2,
    x^4 on the line start Newton at exp(-(b x^2 + c x^4)) fitted to K2 and
    K4/K2^2, with the tilt -K1/K2.  Elsewhere mu = log Z comes from
    Newton's last pass.  One vectorized adaptive Gauss-Kronrod pass
    re-checks the normalization and every moment of every result,
    integrating between the modes of the density; a QuadratureError of
    that re-check on a closed-form fit raises a SolverError that chains
    it, as a failed first pass does.

    Raises FeasibilityError, carrying the Newton trace and the multipliers
    as `certificate`, as soon as a trial point's lam.K falls below the
    infimum of lam.h over the domain: no density then has E[h] = K.
    """
    if cs.targets is None:
        raise ConfigurationError("solve_shannon requires targets on the ConstraintSet")
    m = cs.size
    if m > 3:
        raise ConfigurationError("bundled solver handles at most 3 constraints")
    for c, k in zip(cs.constraints, cs.targets):
        # x^2 >= 0 with equality only at x = 0, so K <= 0 is out of reach; a
        # certificate needs lam.K strictly below inf lam.h and misses K = 0
        if c.coefficients == _X2 and k <= 0.0:
            raise FeasibilityError(
                f"square observable cannot average to non-positive target {k!r}")

    lams, log_z = _newton_start(cs.constraints, cs.targets, domain)
    exact = log_z is not None
    trace: list = []
    if not exact:
        targets = np.array(cs.targets)
        moments = _moment_functions(cs.constraints, domain, quad, targets=targets)
        try:
            lams, log_z, converged = _newton(moments, lams, targets, trace)
        except FeasibilityError as exc:   # a moment pass found a certificate
            exc.trace = trace
            raise
        except QuadratureError as exc:    # the pass at the starting multipliers failed
            if m > 1:
                raise SolverError(
                    f"the moment pass at the starting multipliers {lams.tolist()} "
                    f"failed: {exc}", trace=trace) from exc
            converged = False
        if not converged:
            if m == 1:
                lam = _bisection_fallback(cs.constraints[0], float(targets[0]),
                                          domain, quad, trace)
                lams = np.array([lam])
                _, log_z, _ = moments(lams)
            else:
                raise SolverError("Newton stagnated on the moment conditions",
                                  trace=trace)

    fitted = ConstraintSet(cs.constraints, tuple(float(v) for v in lams),
                           targets=cs.targets)
    solution = ShannonSolution(mu=float(log_z), cs=fitted, domain=domain)
    try:
        _check_shannon_invariants(solution, quad)
    except QuadratureError as exc:    # as a failed first pass would be
        if not exact:
            raise
        raise SolverError(f"the re-check of the closed-form fit {lams.tolist()} "
                          f"failed: {exc}", trace=trace) from exc
    return solution


_X, _X2, _X4 = (0.0, 1.0), (0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 0.0, 1.0)   # x, x^2, x^4
_QUARTIC_START = 1e-3   # the x^4 multiplier of the Gaussian start, times v^2
_ROUNDING_GAP = 4.0 * np.finfo(float).eps   # a gap the moment pass cannot resolve
_SHAPES = np.linspace(-24.0, 12.0, 97)   # r of the shapes exp(-(r y^2 + y^4)) in the table
_SHAPE_LEVEL = 7        # the DE level of the table: 1e-15 relative against level 10


@lru_cache(maxsize=1)
def _kurtosis_table() -> tuple[np.ndarray, np.ndarray]:
    """E[y^4]/E[y^2]^2 and E[y^2] of exp(-(r y^2 + y^4)) on the line, for r
    in _SHAPES: the kurtosis rises with r from 1 (two wells) toward 3 (a
    Gaussian).  Built from one `de_rule` on first use and kept, read-only."""
    x, w = de_rule(SupportInterval(-math.inf, math.inf), _SHAPE_LEVEL)
    y2 = x * x
    f = _SHAPES[:, None] * y2 + y2 * y2
    f = np.exp(f.min(axis=1, keepdims=True) - f) * w
    z = f.sum(axis=1)
    m2, m4 = (f @ y2) / z, (f @ (y2 * y2)) / z
    table = m4 / (m2 * m2), m2
    for a in table:
        a.flags.writeable = False
    return table


def _quartic_start(k1: float, k2: float, k4: float) -> np.ndarray | None:
    """(a, b, c) of exp(-(a x + b x^2 + c x^4)) from the fourth moment, or
    None when K4/K2^2 lies outside the table's kurtosis range.

    The symmetric exp(-(r y^2 + y^4)) with the kurtosis K4/K2^2 is scaled
    by x = s y, s^2 = K2/E[y^2], to E[x^2] = K2: b = r/s^2, c = 1/s^4.  The
    tilt a = -K1/K2 moves E[x] to K1 to first order, as d E[x]/d a is minus
    the symmetric fit's variance, K2.
    """
    kurtosis, m2 = _kurtosis_table()
    ratio = k4 / (k2 * k2)
    if not kurtosis[0] < ratio < kurtosis[-1]:
        return None
    r = float(np.interp(ratio, kurtosis, _SHAPES))
    s2 = k2 / float(np.interp(r, _SHAPES, m2))
    return np.array([(0.0 - k1) / k2, r / s2, 1.0 / (s2 * s2)])


def _newton_start(constraints: tuple[ConstraintFn, ...], targets: tuple[float, ...],
                  domain: SupportInterval) -> tuple[np.ndarray, float | None]:
    """Newton's first multipliers, and log Z where they are the exact,
    closed-form fit (None elsewhere): such a fit needs no moment pass.

    x on [a, inf) with K > a is fitted by the exponential, lam = 1/(K-a),
    log Z = -lam a - log lam.  x, x^2 on the real line with
    v = K2 - K1^2 > 0 is fitted by the Gaussian, (-K1/v, 1/(2v)),
    log Z = log(2 pi v)/2 + K1^2/(2v).  With v <= 0, (-2 K1, 1) is a dual
    certificate: lam.K = K2 - 2 K1^2 lies at or below inf lam.h = -K1^2,
    which the first moment pass's gate then tests.  x, x^2, x^4 on the real
    line with v > 0 start at the fourth-moment fit (`_quartic_start`): the
    symmetric exp(-(b x^2 + c x^4)) whose K4/K2^2 matches, read from a
    table of 97 shapes built on first use, tilted by -K1/K2.  Where K4/K2^2
    lies outside the table they start at the Gaussian fit with the x^4
    multiplier 1e-3/v^2, small against the x^2 term over the Gaussian's
    width yet enough for the weight to decay; with v <= 0, at the same
    certificate with 0 for x^4.  Any other set starts at 1/(1+|K_i|).
    """
    shape = tuple(c.coefficients for c in constraints)
    lo, hi = domain.lower, domain.upper
    if shape == (_X,) and math.isfinite(lo) and math.isinf(hi) and targets[0] > lo:
        lam = 1.0 / (targets[0] - lo)
        return np.array([lam]), -lam * lo - math.log(lam)
    if shape in ((_X, _X2), (_X, _X2, _X4)) and math.isinf(lo) and math.isinf(hi):
        k1, k2 = targets[:2]
        v = k2 - k1 * k1
        quartic = len(shape) - 2    # 1 with an x^4 multiplier, else 0
        if v > 0.0:                 # 0 - k1: never -0.0
            start = _quartic_start(k1, k2, targets[2]) if quartic else None
            if start is not None:
                return start, None
            start = np.array([(0.0 - k1) / v, 0.5 / v] + [_QUARTIC_START / (v * v)] * quartic)
            if quartic:
                return start, None
            return start, 0.5 * math.log(2.0 * math.pi * v) + k1 * k1 / (2.0 * v)
        return np.array([-2.0 * k1, 1.0] + [0.0] * quartic), None
    return np.array([1.0 / (1.0 + abs(k)) for k in targets]), None


def _newton(moments, lams: np.ndarray, targets: np.ndarray,
            trace: list) -> tuple[np.ndarray, float, bool]:
    """Damped Newton on E[h](lam) = K from `lams`, appending (lam, gap) to
    `trace`; returns the last accepted lam, its log Z and whether the gap
    test passed.  The gap is max_i |E[h_i] - K_i| / max(1, |K_i|), for the
    test and for accepting a step alike, so that targets too large for an
    absolute 1e-11 (one ulp of 1e6 is 1.2e-10) still converge.  Past the
    gap test one full step polishes lam, unless the gap is at most 4 eps:
    then the pass at `lams` returns alone, as at an exact start.  A
    QuadratureError of the pass at `lams` propagates."""
    scale = np.maximum(1.0, np.abs(targets))
    converged = False
    mean, log_z, cov = moments(lams)
    gap = mean - targets

    for _ in range(60):
        norm = float(np.max(np.abs(gap) / scale))
        trace.append((tuple(lams), norm))
        if converged:
            break
        # Past the gap test one full Newton step still polishes lam: with a
        # near-singular Cov(h) (a narrow Gaussian away from 0) a gap of 1e-11
        # leaves lam, and mu = log Z with it, off by ~2e-8 relative.
        converged = norm < 1e-11
        if norm <= _ROUNDING_GAP:
            break       # nothing left for a polishing step to remove
        try:
            step = np.linalg.solve(cov, gap)   # d E[h] / d lam = -Cov(h)
        except np.linalg.LinAlgError:
            break
        accepted = False
        damping = 1.0
        while damping >= (1.0 if converged else 1.0 / 1024.0):
            trial = lams + damping * step
            try:
                trial_mean, trial_log_z, trial_cov = moments(trial)
            except QuadratureError:
                damping /= 2.0
                continue
            trial_gap = trial_mean - targets
            if float(np.max(np.abs(trial_gap) / scale)) < norm:
                lams, gap, log_z, cov = trial, trial_gap, trial_log_z, trial_cov
                accepted = True
                break
            damping /= 2.0
        if not accepted:
            break
    return lams, log_z, converged


def _check_shannon_invariants(s: ShannonSolution, quad: QuadratureSpec) -> None:
    """Re-check the normalization and every moment of `s` to 10 rel_tol.

    One adaptive Gauss-Kronrod pass (`integrate_rows`) integrates the rows
    p, p h_1, ..., p h_m with p = exp(-mu - lam.h) on shared nodes.  The
    solver's moments come from `de_rule`'s tanh-sinh, exp-sinh and
    sinh-sinh nodes; these are Gauss-Kronrod nodes on QUADPACK's map of an
    infinite end, another family with other nodes, so the re-check does not
    test the rule against itself.  That map is scaled to `cs.width` at the
    side's finite end, the distance over which lam.h grows by about 1, so
    that the first round's 16 sub-intervals span the tail at any scale.
    A closed-form fit takes no moment pass, and this is its only check.
    """
    tol = 10.0 * quad.rel_tol
    # The re-check integrates 10x tighter than the tolerance it asserts, and
    # its error is the raw |K21 - G10|.  QUADPACK rescales that difference
    # ((200 err/resasc)^1.5) and so misjudges its error at isolated
    # multipliers: for lam = 1/K, K = 3.328611156682118 on the half-line its
    # mean is 4.6e-9 off while it claims 2.6e-11, and it refused a solution
    # exact to rounding.
    check = quad.tightened(10.0)
    # Split at the modes, the interior local minimisers of lam.h: the map of
    # an infinite range puts no node on a narrow peak far from its origin
    # (for K = (100, 10001) for x, x^2 QUADPACK returns 0.0 on the real
    # line), and a split at one of two deep wells would hide the other one
    # the same way.
    fences = [s.domain.lower, *_modes(s.cs, s.domain), s.domain.upper]
    parts = [SupportInterval(a, b) for a, b in zip(fences, fences[1:])]

    # [lam.h; h_1; ...; h_m] as coefficients of one power table of u
    polynomials = (s.cs.combined_coefficients(), *(c.coefficients for c in s.cs.constraints))
    coeffs = np.zeros((len(polynomials), max(map(len, polynomials))))
    for row, c in zip(coeffs, polynomials):
        row[:len(c)] = c

    def rows(u: np.ndarray) -> np.ndarray:
        powers = np.empty((coeffs.shape[1], u.size))     # u^0, u^1, ...
        powers[0] = 1.0
        for k in range(1, len(powers)):
            np.multiply(powers[k - 1], u, out=powers[k])
        table = coeffs @ powers
        p = np.exp(-s.mu - table[0])
        table[0] = 1.0
        table *= p
        return table

    total, *moments = integrate_rows(rows, parts, check, width=s.cs.width).tolist()
    if abs(total - 1.0) > tol:
        raise SolverError(f"normalization check failed: integral {total!r}")
    for moment, k in zip(moments, s.cs.targets):
        if abs(moment - k) > tol * max(1.0, abs(k)):
            raise SolverError(f"moment check failed: got {moment!r}, want {k!r}")


def normalize_tsallis(q: QIndex | float, cs: ConstraintSet,
                      quad: QuadratureSpec,
                      domain: SupportInterval | None = None,
                      anchor: float = 0.0) -> TsallisSolution:
    """Normalize C e_q(-dot(lam, h(x))) on the cutoff support around `anchor`.

    Multipliers are taken verbatim from `cs`; only the normalization
    constant is computed, by `TsallisSolution.integrals`, as the averages
    are.  `domain` optionally restricts the support (e.g. a half-line for
    mean constraints).  Raises NonNormalizableError before any quadrature
    where `cs.divergence` finds the integral divergent.
    """
    qi = as_qindex(q)
    support = qexp_support(qi, cs, anchor=anchor)
    if domain is not None:
        support = support.intersect(domain)
    shape = TsallisSolution(C=1.0, q=qi, cs=cs, support=support)
    return replace(shape, C=1.0 / _normalization(shape, quad))


def _normalization(shape: TsallisSolution, quad: QuadratureSpec) -> float:
    """The integral of `shape` over its support (`TsallisSolution.integrals`):
    NonNormalizableError where it diverges or is not finite and positive."""
    z, = shape.integrals([(1.0, None)], quad)
    if isinstance(z, NonIntegrableError):
        raise NonNormalizableError(f"the normalization integral diverges at q = "
                                   f"{shape.q.q!r}: {z}", tail_exponent=z.tail_exponent)
    if isinstance(z, QBridgeError):
        raise z
    if not (math.isfinite(z) and z > 0.0):
        raise NonNormalizableError(f"normalization integral evaluated to {z!r}")
    return z


def shannon_partner(tsallis: TsallisSolution, map_: TransformMap,
                    quad: QuadratureSpec) -> ShannonSolution:
    """The Shannon solution matched to `tsallis` through `map_`.

    Same multipliers: exp(-lam.h(u)) normalized on the image of the
    Tsallis support under u(x).  That is the q = 1 member of the
    q-exponential family, so `TsallisSolution.integrals` takes its
    normalization, in closed form for a linear lam.h on an image with one
    finite end.  A closed end of the Tsallis support, where its density is
    positive, closes the end of the image it maps to: the lower one where
    g > 0, the upper one where g < 0.  Raises
    EdgeSingularityError when g vanishes inside the Tsallis support: u(x)
    then carries only the part of it on the anchor's side of the zero,
    whose Tsallis mass is below 1, so no normalized density matches.
    """
    u_lo, u_hi = u_image(map_.spec, tsallis.support)
    support, (sign_lo, sign_hi) = tsallis.support, map_.spec._sign_interval
    if support.lower < sign_lo or sign_hi < support.upper:
        zero = sign_lo if support.lower < sign_lo else sign_hi
        raise EdgeSingularityError(
            f"inverse Jacobian vanishes at x = {zero!r}, inside the Tsallis support "
            f"{support!r}: u(x) carries only the part of it before x = {zero!r}, so "
            f"no normalized Shannon density matches", edge=zero)
    closed = (support.closed_lower, support.closed_upper)[::map_.orientation]
    domain = SupportInterval(u_lo, u_hi, closed_lower=closed[0], closed_upper=closed[1])
    z = _normalization(TsallisSolution(C=1.0, q=QIndex(1.0), cs=tsallis.cs, support=domain), quad)
    return ShannonSolution(mu=math.log(z), cs=tsallis.cs, domain=domain)


def _same_constraints(a: ConstraintSet, b: ConstraintSet) -> bool:
    return a.constraints == b.constraints and a.multipliers == b.multipliers


def verify_transport(s: ShannonSolution, t: TsallisSolution, map_: TransformMap,
                     grid: Sequence[float], tol: float) -> TransportReport:
    """Pointwise residual of C e_q(-lam.h(x)) = e^{-mu} e^{-lam.h(u(x))} |J(x)|.

    Each grid point is mapped once, to g, J and u; the densities t.density(x)
    and s.density(u) |J| are then evaluated on the whole grid.  For a pure
    mean constraint anchored at (0, 0) the closed identity e^{-lam u(x)} /
    g(x) = (2-q) e_q(-lam x) is checked as well, on the same u and g.
    """
    if not (_same_constraints(s.cs, t.cs)
            and _same_constraints(s.cs, map_.spec.cs)):
        raise ConfigurationError(
            "transport check requires identical constraint sets on the "
            "Shannon solution, Tsallis solution, and map")
    xs = np.array(grid, dtype=float)
    points = xs.tolist()
    g = [map_.g(x) for x in points]
    jac, u = np.array([map_.J(x) for x in points]), np.array([map_.u(x) for x in points])
    p_t, p_push = t.density(xs), s.density(u) * np.abs(jac)
    residual = np.abs(p_t - p_push)
    rows = tuple(map(tuple, np.column_stack((xs, g, jac, u, p_t, p_push, residual)).tolist()))
    max_residual = float(residual.max())

    factor_max = None
    lam = t.cs.linear_coefficient()
    if (lam is not None and map_.spec.anchor_x == 0.0
            and map_.spec.anchor_u == 0.0 and map_.spec.c == 0.0):
        rhs = (2.0 - t.q.q) * q_exp(-lam * xs, t.q)
        factor_max = max(abs(math.exp(-lam * uk) / gk - rk)
                         for uk, gk, rk in zip(u.tolist(), g, rhs.tolist()))

    return TransportReport(rows=rows, max_abs_residual=max_residual,
                           passed=max_residual < tol, factor_max_residual=factor_max)


def sample_and_test(t: TsallisSolution, map_: TransformMap, n: int,
                    seed: int) -> tuple[np.ndarray, float]:
    """Draw exponential variates, push them through x(u), and KS-test them.

    The generator is numpy's default PCG64 stream seeded with `seed`;
    draws use inverse-CDF sampling, and the statistic is the exact
    one-sample Kolmogorov-Smirnov distance against the closed-form CDF
    F(x) = 1 - e_q(-lam x)^{2-q}.
    """
    qi = t.q
    if not (0.0 < qi.q < 2.0):
        raise UnsupportedRegimeError(
            f"sampling confirmation supports 0 < q < 2, got {qi.q!r}")
    lam = t.cs.linear_coefficient()
    if lam is None:
        raise ConfigurationError("sampling requires a single mean constraint")
    if lam <= 0.0:
        raise ConfigurationError("sampling requires a positive multiplier")
    if n < 1000:
        raise ConfigurationError("use at least 1000 samples")
    spec = map_.spec
    if spec.anchor_x != 0.0 or spec.anchor_u != 0.0 or spec.c != 0.0:
        raise ConfigurationError(
            "sampling assumes the canonical map anchored at (0, 0)")

    rng = np.random.default_rng(seed)
    u = -np.log1p(-rng.random(n)) / lam
    if qi.is_classical():
        x = u
    else:
        one_minus_q = 1.0 - qi.q
        x = (1.0 - np.exp(-(one_minus_q * lam / (2.0 - qi.q)) * u)) \
            / (one_minus_q * lam)

    xs = np.sort(x)
    if qi.is_classical():
        cdf = -np.expm1(-lam * xs)
    else:
        margin = np.maximum(t.cs.margin(qi.q, xs), 0.0)
        cdf = 1.0 - margin ** ((2.0 - qi.q) / (1.0 - qi.q))
    ranks = np.arange(1, n + 1, dtype=float)
    ks = max(float(np.max(ranks / n - cdf)),
             float(np.max(cdf - (ranks - 1.0) / n)))
    return x, ks
