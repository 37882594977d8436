"""Shannon and Tsallis MaxEnt solutions and the transport check between them.

The Shannon solver fits multipliers to moment targets by damped Newton
with the exact covariance Jacobian, taking E[h], log Z and Cov(h) from one
batched double-exponential pass per step (a bracketed fallback for a single
constraint), from the closed-form fit where one exists (the exponential
on a half-line, the Gaussian on the line).  Its gap is relative to
max(1, |K_i|), and a pass that fails at the starting multipliers is
reported as such.  One vectorized adaptive Gauss-Kronrod pass then
re-checks the normalization and every moment of the solution, split at
the density's modes.  Targets outside the moment set end at a dual
certificate: multipliers lam with lam.K below the infimum of lam.h over
the domain, found inside the moment pass and raised as FeasibilityError.
The Tsallis solution keeps the same multipliers and only renormalizes, on
the support bounded by the roots of its margin polynomial: the
transformation carries them over unchanged.  `shannon_partner` builds the
Shannon solution with those multipliers on the image of that support
under u, and `verify_transport` compares both normalized densities
pointwise through the change of variables.  Both normalizations integrate
the densities, which take numpy arrays of nodes, on the double-exponential
rule (`integrate_de`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    FeasibilityError,
    NonNormalizableError,
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
    integrate_de,
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
        # phi <= 0 inside the support only in the root-finding shell of an edge
        inside = self.support.contains(x) & (1.0 - (1.0 - self.q.q) * t > 0.0)
        value = np.where(inside, self.C * q_exp(np.where(inside, -t, 0.0), self.q), 0.0)
        return value if np.ndim(x) else float(value)


@dataclass(frozen=True)
class TransportReport:
    """Pointwise comparison of the two densities through the map."""

    grid: tuple[float, ...]
    max_abs_residual: float
    profile: tuple[tuple[float, float], ...]
    passed: bool
    factor_max_residual: float | None = None


# A certificate must beat the infimum by this much, relative to the terms of
# lam.h at the minimiser and to |lam| |K|: far above the rounding of either
# side, far below the 3.5e-7 by which K = (1, 1 - 1e-6) for x, x^2 misses.
_CERTIFICATE_RTOL = 1e-12


def _critical_points(cs: ConstraintSet, domain: SupportInterval) -> list[float]:
    """Real parts of the roots of (lam.h)' strictly inside `domain`, ascending.

    Every real critical point of lam.h is among them; a complex pair adds
    its real part, a point where (lam.h)' does not change sign.
    """
    coeffs = cs.combined_coefficients()
    if len(coeffs) < 3:
        return []
    slope = [k * a for k, a in enumerate(coeffs)][:0:-1]   # descending
    lo, hi = domain.lower, domain.upper
    return sorted({r for r in np.roots(slope).real.tolist() if lo < r < hi})


def _potential_minimum(cs: ConstraintSet, domain: SupportInterval) -> tuple[float, float]:
    """Infimum of lam.h over `domain` and a point where it is attained.

    lam.h is one polynomial, so the infimum is its value at a finite
    endpoint or at a critical point, and the candidates are those and
    `_critical_points` (an extra candidate cannot lie below the minimum).
    An infinite end toward which lam.h falls without bound gives
    (-inf, that end).
    """
    coeffs = cs.combined_coefficients()
    degree = len(coeffs) - 1
    lo, hi = domain.lower, domain.upper
    if degree > 0:
        if math.isinf(hi) and coeffs[-1] < 0.0:
            return -math.inf, hi
        if math.isinf(lo) and coeffs[-1] * (-1.0) ** degree < 0.0:
            return -math.inf, lo
    points = [x for x in (lo, hi) if math.isfinite(x)] + _critical_points(cs, domain)
    return min((cs.potential(x), x) for x in points or [0.0])


def _modes(cs: ConstraintSet, domain: SupportInterval) -> list[float]:
    """Interior local minimisers of lam.h, the modes of exp(-lam.h), ascending.

    (lam.h)' keeps one sign between consecutive critical points, so a
    critical point is a minimiser where that sign turns from - to +.
    """
    points = _critical_points(cs, domain)
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


def _moment_functions(constraints: tuple[ConstraintFn, ...],
                      domain: SupportInterval, quad: QuadratureSpec,
                      targets: np.ndarray | None = None):
    """Return moments(lams) -> (E[h], log Z, Cov(h)) of exp(-lam.h) on `domain`.

    All three come from one vectorized pass of the nested double-exponential
    rule over nodes x_k and the matrix H[i, k] = h_i(x_k), both built once
    per process (`de_rule` and `_observable_matrix`).  The weights are
    shifted by min_k lam.h(x_k), so log Z is formed in log space.  A pass
    starts at that finest level and refines until it and the level below
    it (its even nodes) agree to `quad`'s tolerances; it raises
    QuadratureError when they never do, or when the weight at the
    outermost nodes is not negligible (no decay on `domain`).

    With `targets` K, a pass whose lam.K falls below that shift compares
    lam.K with the exact infimum of lam.h and raises FeasibilityError when
    lam proves K infeasible.  The shift is never below the infimum, so a
    pass with lam.K at or above it skips the comparison and loses nothing.
    """
    finest = [DE_START_LEVEL]     # the finest level a pass has reached

    def moments(lams: Sequence[float]) -> tuple[np.ndarray, float, np.ndarray]:
        lam = np.asarray(lams, dtype=float)
        gate = None if targets is None else float(lam @ targets)   # lam.K
        for level in range(finest[0], DE_MAX_LEVEL + 1):
            finest[0] = level
            w = de_rule(domain, level)[1]
            H = _observable_matrix(constraints, domain, level)
            # inf and nan from overflow at the outer nodes are checked below
            with np.errstate(over="ignore", invalid="ignore"):
                f = lam @ H
                shift = float(np.min(f))
                if not math.isfinite(shift) or np.isnan(f).any():
                    raise QuadratureError(
                        f"exponent lam.h is not finite on the nodes for lam = {lam.tolist()}")
                if gate is not None and gate < shift:
                    _refute_targets(constraints, lam, targets, domain)
                    gate = None     # the infimum does not change with the level
                np.subtract(shift, f, out=f)
                np.exp(f, out=f)
                f *= w
                hf = H * f
                z, z_coarse = f.sum(), 2.0 * f[::2].sum()
                mean = hf.sum(axis=1) / z
                mean_coarse = 2.0 * hf[:, ::2].sum(axis=1) / z_coarse
                ends = np.abs(hf[:, [0, -1]]).max(axis=1)
                scale = np.abs(hf, out=hf).sum(axis=1)
            if not np.all(np.isfinite(mean)):
                raise QuadratureError(f"moments overflow on the nodes for lam = {lam.tolist()}")
            if (max(f[0], f[-1]) > quad.rel_tol * z
                    or np.any(ends > quad.rel_tol * scale)):
                raise QuadratureError(
                    f"weight exp(-lam.h) does not decay on the domain for lam = {lam.tolist()}")
            if (abs(z - z_coarse) <= quad.rel_tol * z
                    and np.all(np.abs(mean - mean_coarse)
                               <= np.maximum(quad.abs_tol, quad.rel_tol * scale / z))):
                d = np.subtract(H, mean[:, None], out=hf)
                cov = (d * f) @ d.T / z
                return mean, math.log(z) - shift, cov
        raise QuadratureError(
            f"double-exponential levels {DE_MAX_LEVEL - 1} and {DE_MAX_LEVEL} "
            f"disagree for lam = {lam.tolist()}")

    return moments


@lru_cache(maxsize=RULE_CACHE_SIZE)
def _observable_matrix(constraints: tuple[ConstraintFn, ...], domain: SupportInterval,
                       level: int) -> np.ndarray:
    """H[i, k] = h_i(x_k) on the nodes of `de_rule(domain, level)`, read-only.

    Built once per process and kept in a cache of at most RULE_CACHE_SIZE
    matrices, as the rule is.
    """
    x = de_rule(domain, level)[0]
    with np.errstate(over="ignore", invalid="ignore"):   # checked by the moment pass
        H = np.array([c.value(x) for c in constraints])
    H.flags.writeable = False
    return H


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
    max(1, |K_i|) < 1e-11) passes; single-constraint problems fall back to
    a bracketed safeguarded Newton solve when Newton stalls.  With more
    constraints, a QuadratureError of the pass at the starting multipliers
    raises a SolverError that says so and chains it.  Newton starts at the
    closed-form fit where there is one (see `_newton_start`).  mu = log Z
    comes from the same pass, and one vectorized adaptive Gauss-Kronrod
    pass re-checks the normalization and every moment of the result,
    integrating between the modes of the density.

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
        if c.kind == "square" and k <= 0.0:
            raise FeasibilityError(
                f"square observable cannot average to non-positive target {k!r}")

    targets = np.array(cs.targets)
    moments = _moment_functions(cs.constraints, domain, quad, targets=targets)
    lams = _newton_start(cs.constraints, cs.targets, domain)
    trace: list = []
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
    _check_shannon_invariants(solution, quad)
    return solution


_X, _X2 = (0.0, 1.0), (0.0, 0.0, 1.0)   # coefficients of x and x^2


def _newton_start(constraints: tuple[ConstraintFn, ...], targets: tuple[float, ...],
                  domain: SupportInterval) -> np.ndarray:
    """Newton's first multipliers: the exact fit where one is closed-form.

    x on [a, inf) with K > a is fitted by the exponential, lam = 1/(K-a).
    x, x^2 on the real line with v = K2 - K1^2 > 0 is fitted by the
    Gaussian, (-K1/v, 1/(2v)).  With v <= 0, (-2 K1, 1) is a dual
    certificate: lam.K = K2 - 2 K1^2 lies at or below inf lam.h = -K1^2,
    which the first moment pass's gate then tests.  Any other set starts at
    1/(1+|K_i|).
    """
    shape = tuple(c.coefficients for c in constraints)
    lo, hi = domain.lower, domain.upper
    if shape == (_X,) and math.isfinite(lo) and math.isinf(hi) and targets[0] > lo:
        return np.array([1.0 / (targets[0] - lo)])
    if shape == (_X, _X2) and math.isinf(lo) and math.isinf(hi):
        k1, k2 = targets
        v = k2 - k1 * k1
        if v > 0.0:
            return np.array([(0.0 - k1) / v, 0.5 / v])   # 0 - k1: never -0.0
        return np.array([-2.0 * k1, 1.0])
    return np.array([1.0 / (1.0 + abs(k)) for k in targets])


def _newton(moments, lams: np.ndarray, targets: np.ndarray,
            trace: list) -> tuple[np.ndarray, float, bool]:
    """Damped Newton on E[h](lam) = K from `lams`, appending (lam, gap) to
    `trace`; returns the last accepted lam, its log Z and whether the gap
    test passed.  The gap is max_i |E[h_i] - K_i| / max(1, |K_i|), for the
    test and for accepting a step alike, so that targets too large for an
    absolute 1e-11 (one ulp of 1e6 is 1.2e-10) still converge.  A
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
    test the rule against itself.
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

    def rows(u: np.ndarray) -> np.ndarray:
        p = np.exp(-s.mu - s.cs.potential(u))
        return np.array([p, *(p * c.value(u) for c in s.cs.constraints)])

    total, *moments = integrate_rows(rows, parts, check).tolist()
    if abs(total - 1.0) > tol:
        raise SolverError(f"normalization check failed: integral {total!r}")
    for moment, k in zip(moments, s.cs.targets):
        if abs(moment - k) > tol * max(1.0, abs(k)):
            raise SolverError(f"moment check failed: got {moment!r}, want {k!r}")


def _tail_feasibility(qi: QIndex, cs: ConstraintSet,
                      support: SupportInterval) -> None:
    """Analytic divergence screen for unbounded support sides."""
    coeffs = cs.combined_coefficients()
    degree = len(coeffs) - 1
    lead = coeffs[-1]
    for side, unbounded in (("+inf", math.isinf(support.upper)),
                            ("-inf", math.isinf(support.lower))):
        if not unbounded:
            continue
        if degree == 0:
            raise NonNormalizableError(
                "constant observable gives a non-decaying density on an "
                "unbounded domain")
        # sign of dot(lam, h) at that side
        grows = lead > 0.0 if side == "+inf" else lead * (-1.0) ** degree > 0.0
        if qi.is_classical():
            if not grows:
                raise NonNormalizableError(
                    f"density grows toward {side}: observable tends to -inf there")
        elif qi.q < 1.0:
            raise NonNormalizableError(
                f"q = {qi.q!r} < 1 density cannot decay on an unbounded side "
                f"({side}); the cutoff never engages there")
        else:
            if not grows:
                raise NonNormalizableError(
                    f"q-exponential has a pole toward {side}")
            alpha = degree / (qi.q - 1.0)
            if alpha <= 1.0:
                raise NonNormalizableError(
                    f"power-law tail exponent {alpha!r} <= 1 toward {side}: "
                    f"normalization integral diverges", tail_exponent=alpha)


def normalize_tsallis(q: QIndex | float, cs: ConstraintSet,
                      quad: QuadratureSpec,
                      domain: SupportInterval | None = None,
                      anchor: float = 0.0, *,
                      support: SupportInterval | None = None) -> TsallisSolution:
    """Normalize C e_q(-dot(lam, h(x))) on the cutoff support.

    Multipliers are taken verbatim from `cs`; only the normalization
    constant is computed.  `domain` optionally restricts the support
    (e.g. a half-line for mean constraints).  `support` is the cutoff
    support around `anchor` when the caller already holds it (as
    `TransformMap.support` does); otherwise it is computed here.
    """
    qi = as_qindex(q)
    if support is None:
        support = qexp_support(qi, cs, anchor=anchor)
    if domain is not None:
        support = support.intersect(domain)
    _tail_feasibility(qi, cs, support)
    if qi.q > 1.0 and not qi.is_classical():
        for endpoint in (support.lower, support.upper):
            if math.isfinite(endpoint) and qi.q <= 2.0 and \
                    1.0 - (1.0 - qi.q) * cs.potential(endpoint) <= 1e-12:
                raise NonNormalizableError(
                    f"pole-side edge at x = {endpoint!r} with exponent "
                    f"{1.0 / (qi.q - 1.0)!r} >= 1: integral diverges",
                    tail_exponent=1.0 / (qi.q - 1.0))

    shape = TsallisSolution(C=1.0, q=qi, cs=cs, support=support)
    z = integrate_de(shape.density, support, quad)
    if not (math.isfinite(z) and z > 0.0):
        raise NonNormalizableError(f"normalization integral evaluated to {z!r}")
    return replace(shape, C=1.0 / z)


def shannon_partner(tsallis: TsallisSolution, map_: TransformMap,
                    quad: QuadratureSpec) -> ShannonSolution:
    """The Shannon solution matched to `tsallis` through `map_`.

    Same multipliers: exp(-lam.h(u)) normalized on the image of the
    Tsallis support under u(x), open at both ends.
    """
    u_lo, u_hi = u_image(map_.spec, tsallis.support)
    domain = SupportInterval(u_lo, u_hi, closed_lower=False, closed_upper=False)
    shape = ShannonSolution(mu=0.0, cs=tsallis.cs, domain=domain)
    return replace(shape, mu=math.log(integrate_de(shape.density, domain, quad)))


def _same_constraints(a: ConstraintSet, b: ConstraintSet) -> bool:
    return (len(a.constraints) == len(b.constraints)
            and all(ca.coefficients == cb.coefficients
                    for ca, cb in zip(a.constraints, b.constraints))
            and a.multipliers == b.multipliers)


def verify_transport(s: ShannonSolution, t: TsallisSolution, map_: TransformMap,
                     grid: Sequence[float], tol: float) -> TransportReport:
    """Pointwise residual of C e_q(-lam.h(x)) = e^{-mu} e^{-lam.h(u(x))} |J(x)|.

    For a pure mean constraint anchored at (0, 0) the closed identity
    e^{-lam u(x)} / g(x) = (2-q) e_q(-lam x) is checked as well.
    """
    if not (_same_constraints(s.cs, t.cs)
            and _same_constraints(s.cs, map_.spec.cs)):
        raise ConfigurationError(
            "transport check requires identical constraint sets on the "
            "Shannon solution, Tsallis solution, and map")
    profile = []
    for x in grid:
        lhs = t.C * q_exp(-t.cs.potential(x), t.q)
        u = map_.u(x)
        rhs = _exp_or_inf(-s.mu - s.cs.potential(u)) * abs(map_.J(x))
        profile.append((float(x), abs(lhs - rhs)))
    max_residual = max(res for _, res in profile)

    factor_max = None
    lam = t.cs.linear_coefficient()
    if (lam is not None and map_.spec.anchor_x == 0.0
            and map_.spec.anchor_u == 0.0 and map_.spec.c == 0.0):
        two_minus_q = 2.0 - t.q.q
        factor_max = max(
            abs(math.exp(-lam * map_.u(x)) / map_.g(x)
                - two_minus_q * q_exp(-lam * x, t.q))
            for x in grid)

    return TransportReport(grid=tuple(float(x) for x in grid),
                           max_abs_residual=max_residual,
                           profile=tuple(profile),
                           passed=max_residual < tol,
                           factor_max_residual=factor_max)


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
    if t.cs.size != 1 or t.cs.constraints[0].kind != "identity":
        raise ConfigurationError("sampling requires a single mean constraint")
    lam = t.cs.multipliers[0]
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
        margin = np.maximum(1.0 - (1.0 - qi.q) * lam * xs, 0.0)
        cdf = 1.0 - margin ** ((2.0 - qi.q) / (1.0 - qi.q))
    ranks = np.arange(1, n + 1, dtype=float)
    ks = max(float(np.max(ranks / n - cdf)),
             float(np.max(cdf - (ranks - 1.0) / n)))
    return x, ks
