"""Change of variables linking Shannon and Tsallis MaxEnt solutions.

Given multipliers lam and observables h, the map u(x) with dx/du = g(x)
carries the q-exponential density C e_q(-lam.h(x)) into the exponential
density e^{-mu} e^{-lam.h(u)}.  The inverse Jacobian has the closed form

    g(x) = e_q(-lam.h(x))^{-1} [ e_q(-lam.h(x))^{2-q} / (2-q) + c ],

which for the canonical choice c = 0 collapses to

    g(x) = (1 - (1-q) lam.h(x)) / (2-q),

positive for q < 2, negative for q > 2, and singular only at q = 2.
`g_general` takes this form whenever c = 0, so TransformMap.J = 1/g is the
transport factor.  TransformSpec refuses the q = 2 band, once.

For the polynomial observables accepted here lam.h is one polynomial,
whose coefficients ConstraintSet combines once, and so is the margin
phi(x) = 1 - (1-q) lam.h(x): the support is the interval around the
anchor between consecutive roots of phi where it stays positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq

from .errors import (
    ConfigurationError,
    DomainError,
    EdgeSingularityError,
    RangeError,
    SingularIndexError,
    UnsupportedRegimeError,
)
from .qkernel import EPS_Q2, QIndex, SupportInterval, as_qindex, q_exp
from .quadrature import QuadratureSpec, path_integral

__all__ = [
    "ConstraintFn",
    "ConstraintSet",
    "TransformSpec",
    "TransformMap",
    "qexp_support",
    "g_general",
    "g_canonical",
    "u_of_x",
    "x_of_u",
    "u_image",
    "ode_residual",
    "expand_g_near_q1",
    "g_near_q2",
]


def _horner(coeffs: Sequence[float], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class ConstraintFn:
    """Observable h(x) with its derivative; identity, square, or polynomial."""

    kind: str
    coefficients: tuple[float, ...]  # ascending powers

    @classmethod
    def identity(cls) -> "ConstraintFn":
        return cls("identity", (0.0, 1.0))

    @classmethod
    def square(cls) -> "ConstraintFn":
        return cls("square", (0.0, 0.0, 1.0))

    @classmethod
    def polynomial(cls, coefficients: Sequence[float]) -> "ConstraintFn":
        coeffs = tuple(float(c) for c in coefficients)
        if not coeffs or all(c == 0.0 for c in coeffs[1:]):
            raise ConfigurationError("polynomial observable must be non-constant")
        return cls("polynomial", coeffs)

    def value(self, x: float) -> float:
        return _horner(self.coefficients, x)

    def slope(self, x: float) -> float:
        return _horner([k * c for k, c in enumerate(self.coefficients)][1:], x)


@dataclass(frozen=True)
class ConstraintSet:
    """Observables h_i with multipliers lam_i and optional targets K_i."""

    constraints: tuple[ConstraintFn, ...]
    multipliers: tuple[float, ...]
    targets: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "multipliers",
                           tuple(float(m) for m in self.multipliers))
        if self.targets is not None:
            object.__setattr__(self, "targets",
                               tuple(float(t) for t in self.targets))
        m = len(self.constraints)
        if m < 1:
            raise ConfigurationError("at least one constraint is required")
        if len(self.multipliers) != m:
            raise ConfigurationError("constraints and multipliers length mismatch")
        if self.targets is not None and len(self.targets) != m:
            raise ConfigurationError("constraints and targets length mismatch")
        if not all(math.isfinite(v) for v in self.multipliers):
            raise ConfigurationError("multipliers must be finite")

    @property
    def size(self) -> int:
        return len(self.constraints)

    def potential(self, x: float) -> float:
        """dot(lam, h(x)), by one Horner pass over the combined polynomial."""
        acc = 0.0
        for c in self._descending:
            acc = acc * x + c
        return acc

    def potential_slope(self, x: float) -> float:
        """d/dx dot(lam, h(x))."""
        return sum(m * c.slope(x) for m, c in zip(self.multipliers, self.constraints))

    def combined_coefficients(self) -> tuple[float, ...]:
        """Coefficients of dot(lam, h) as a single polynomial, trailing zeros trimmed."""
        return self._ascending

    # Computed once per instance.  A cached_property lives in the instance
    # __dict__, not in a dataclass field, so ==, hash and repr ignore it.
    @cached_property
    def _ascending(self) -> tuple[float, ...]:
        n = max(len(c.coefficients) for c in self.constraints)
        out = [0.0] * n
        for m, c in zip(self.multipliers, self.constraints):
            for k, ck in enumerate(c.coefficients):
                out[k] += m * ck
        while len(out) > 1 and out[-1] == 0.0:
            out.pop()
        return tuple(out)

    @cached_property
    def _descending(self) -> tuple[float, ...]:
        return self._ascending[::-1]

    def linear_coefficient(self) -> float | None:
        """a when dot(lam, h(x)) == a*x exactly, else None."""
        coeffs = self.combined_coefficients()
        if len(coeffs) == 2 and coeffs[0] == 0.0 and coeffs[1] != 0.0:
            return coeffs[1]
        return None


def _cutoff_margin(q: QIndex, cs: ConstraintSet) -> Callable[[float], float]:
    """phi(x) = 1 - (1-q) dot(lam, h(x)); positive exactly on the support."""
    one_minus_q = 1.0 - q.q
    return lambda x: 1.0 - one_minus_q * cs.potential(x)


def qexp_support(q: QIndex | float, cs: ConstraintSet,
                 anchor: float = 0.0) -> SupportInterval:
    """Maximal interval around `anchor` where phi(x) = 1 - (1-q) dot(lam, h(x)) > 0.

    phi is a polynomial, so its edges are among its roots (numpy.roots).
    The real part of every root is a candidate.  Walking outward from the
    anchor, a candidate is an edge when phi is not positive between it
    and the next candidate (or past it, for the last one): a root where
    phi touches zero without crossing, or a complex pair, is passed over.
    Each edge is polished by Newton's method on phi, with phi' from the
    same coefficients, safeguarded by bisection (`_polish_edge`, xtol
    1e-14) on a tiny bracket around the root, or on the whole bracket
    between the two sign checks if the tiny one does not change sign.  A
    side with no edge is unbounded.
    Cutoff edges are open (the density vanishes there).
    """
    qi = as_qindex(q)
    if qi.is_classical():
        return SupportInterval(-math.inf, math.inf,
                               closed_lower=False, closed_upper=False)
    phi = _cutoff_margin(qi, cs)
    if not phi(anchor) > 0.0:
        raise ConfigurationError(
            f"anchor {anchor!r} lies outside the q-exponential support")
    coeffs = [-(1.0 - qi.q) * a for a in cs.combined_coefficients()]
    coeffs[0] += 1.0
    # ascending, with the equal real parts of a complex pair merged
    if len(coeffs) > 2:
        candidates = sorted(set(np.roots(coeffs[::-1]).real.tolist()))
    else:   # the root of a line, as numpy.roots gives it, without its LAPACK call
        candidates = [-coeffs[0] / coeffs[1]] if len(coeffs) == 2 else []
    slope_coeffs = [k * a for k, a in enumerate(coeffs)][1:]     # phi'

    def edge(outward: list[float], direction: float) -> float:
        inside = anchor             # phi > 0 here
        for k, r in enumerate(outward):
            probe = (0.5 * (r + outward[k + 1]) if k + 1 < len(outward)
                     else r + direction * max(1.0, abs(r)))
            if phi(probe) > 0.0:
                inside = probe
                continue
            width = 1e-9 * max(1.0, abs(r))
            tight_in = r - direction * width
            tight_out = r + direction * width
            if (direction * (tight_in - inside) > 0.0 and phi(tight_in) > 0.0
                    and direction * (probe - tight_out) > 0.0 and phi(tight_out) <= 0.0):
                inside, probe = tight_in, tight_out
            return _polish_edge(phi, lambda x: _horner(slope_coeffs, x), inside, probe)
        return direction * math.inf

    lo = edge([r for r in reversed(candidates) if r < anchor], -1.0)
    hi = edge([r for r in candidates if r > anchor], +1.0)
    return SupportInterval(lo, hi, closed_lower=False, closed_upper=False)


def _polish_edge(phi: Callable[[float], float], slope: Callable[[float], float],
                 inside: float, outside: float, xtol: float = 1e-14,
                 rtol: float = 8.9e-16) -> float:
    """The zero of phi between `inside` (phi > 0) and `outside` (phi <= 0).

    Newton's method on phi with its slope phi', from the bracket's
    midpoint, safeguarded as in Numerical Recipes' rtsafe: a step that
    leaves the bracket, or is more than half the step before last, is
    replaced by bisection, and every point shrinks the bracket.  It stops
    once a step is below xtol + rtol |x|, scipy bisect's stopping test.
    """
    x = 0.5 * (inside + outside)
    step = before = abs(outside - inside)
    for _ in range(200):
        value = phi(x)
        if value == 0.0:
            return x
        if value > 0.0:
            inside = x
        else:
            outside = x
        lo, hi = (inside, outside) if inside < outside else (outside, inside)
        d = slope(x)
        newton = x - value / d if d != 0.0 else math.nan
        if lo < newton < hi and abs(2.0 * value) <= abs(before * d):
            before, step = step, abs(newton - x)
            x = newton
        else:
            before, step = step, 0.5 * (hi - lo)
            x = lo + step
        if step < xtol + rtol * abs(x):
            return x
    return x


@dataclass(frozen=True)
class TransformSpec:
    """Immutable recipe for the change of variables.

    `c` is the integration constant of the general closed form (0 gives
    the canonical map); the anchor fixes u(anchor_x) = anchor_u.
    """

    q: QIndex
    cs: ConstraintSet
    c: float = 0.0
    anchor_x: float = 0.0
    anchor_u: float = 0.0
    quad: QuadratureSpec = field(default_factory=QuadratureSpec)

    def __post_init__(self):
        object.__setattr__(self, "q", as_qindex(self.q))
        if self.q.is_singular_for_transform():
            raise SingularIndexError(
                f"entropic index q = {self.q.q!r} is inside the singular band "
                f"|q - 2| < {EPS_Q2!r}; the transform diverges at q = 2")
        if not (math.isfinite(self.c) and math.isfinite(self.anchor_x)
                and math.isfinite(self.anchor_u)):
            raise ConfigurationError("c and anchors must be finite")
        if not self.q.is_classical():
            if not _cutoff_margin(self.q, self.cs)(self.anchor_x) > 0.0:
                raise ConfigurationError(
                    f"anchor_x = {self.anchor_x!r} is not strictly inside the "
                    f"q-exponential support")


def g_general(x: float, spec: TransformSpec) -> float:
    """General closed form of the inverse Jacobian, with integration constant c.

    At c = 0 it is phi/(2-q), phi = 1 - (1-q) lam.h, bitwise g_canonical and
    with no q_exp; it raises EdgeSingularityError where phi is exactly 0.
    Outside the support it raises DomainError.
    """
    qi = spec.q
    t = spec.cs.potential(x)
    if qi.is_classical() and spec.c != 0.0:
        return 1.0 + spec.c * math.exp(t)
    phi = 1.0 - (1.0 - qi.q) * t
    if spec.c == 0.0 and phi == 0.0:
        raise EdgeSingularityError(
            f"inverse Jacobian vanishes at the support edge x = {x!r}", edge=x)
    if not phi > 0.0:
        raise DomainError(
            f"x = {x!r} lies outside the q-exponential support for q = {qi.q!r}")
    if spec.c == 0.0:
        return phi / (2.0 - qi.q)
    # The paper's form: as phi/(2-q) + c/e_q, g rounds differently, and the
    # scan in _check_path_free_of_zeros misses its zero at x = 8 (q 1.5, c -0.4).
    e = q_exp(-t, qi)
    return (e ** (2.0 - qi.q) / (2.0 - qi.q) + spec.c) / e


def g_canonical(x: float, spec: TransformSpec) -> float:
    """Canonical inverse Jacobian (1 - (1-q) dot(lam, h(x))) / (2-q).

    Defined for every finite x (it is the c = 0 closed form continued
    through the support edge, where it vanishes).
    """
    qi = spec.q
    return (1.0 - (1.0 - qi.q) * spec.cs.potential(x)) / (2.0 - qi.q)


def _check_path_free_of_zeros(spec: TransformSpec, a: float, b: float) -> None:
    """Reject integration paths on which g changes sign or vanishes."""
    if spec.c == 0.0:
        return  # canonical g = margin/(2-q) keeps one sign inside the support
    n = 65
    lo, hi = (a, b) if a <= b else (b, a)
    ref = None
    for i in range(n + 1):
        x = lo + (hi - lo) * i / n
        g = g_general(x, spec)
        if g == 0.0 or (ref is not None and (g > 0.0) != ref):
            raise EdgeSingularityError(
                f"inverse Jacobian vanishes near x = {x!r} on the integration path",
                edge=x)
        ref = g > 0.0


def _require_classical_shift(spec: TransformSpec) -> None:
    """At q = 1 the map is the shift u = x - anchor_x + anchor_u only for
    c = 0; otherwise g = 1 + c e^{lam.h} and the shift would be wrong."""
    if spec.c != 0.0:
        raise UnsupportedRegimeError(
            f"the map at q = 1 is implemented only for c = 0, got c = {spec.c!r}")


def u_of_x(x: float, spec: TransformSpec) -> float:
    """Antiderivative of 1/g anchored at (anchor_x, anchor_u).

    Uses the logarithmic closed form when dot(lam, h) is purely linear and
    c = 0; otherwise integrates the Jacobian numerically along the path.
    """
    qi = spec.q
    if qi.is_classical():
        _require_classical_shift(spec)
        return x - spec.anchor_x + spec.anchor_u
    phi = _cutoff_margin(qi, spec.cs)
    if not phi(x) > 0.0:
        raise DomainError(
            f"x = {x!r} lies outside the q-exponential support for q = {qi.q!r}")
    a = spec.cs.linear_coefficient()
    if a is not None and spec.c == 0.0:
        scale = (2.0 - qi.q) / ((1.0 - qi.q) * a)
        return spec.anchor_u - scale * (math.log(phi(x)) - math.log(phi(spec.anchor_x)))
    _check_path_free_of_zeros(spec, spec.anchor_x, x)
    return spec.anchor_u + path_integral(lambda s: 1.0 / g_general(s, spec),
                                         spec.anchor_x, x, spec.quad)


def u_image(spec: TransformSpec,
            interval: SupportInterval | None = None) -> tuple[float, float]:
    """Ordered image of `interval` (default: the whole q-exponential
    support) under u(x).

    At a finite cutoff edge the Jacobian integral diverges
    logarithmically, so the image is unbounded there; on an unbounded
    side it is finite exactly when the combined observable grows faster
    than linearly.
    """
    qi = spec.q
    if qi.is_classical():
        _require_classical_shift(spec)
        if interval is None:
            return (-math.inf, math.inf)
        shift = spec.anchor_u - spec.anchor_x
        return (interval.lower + shift, interval.upper + shift)
    if interval is None:
        interval = qexp_support(qi, spec.cs, anchor=spec.anchor_x)
    phi = _cutoff_margin(qi, spec.cs)
    degree = len(spec.cs.combined_coefficients()) - 1
    increasing = g_general(spec.anchor_x, spec) > 0.0

    def side_limit(endpoint: float, direction: float) -> float:
        sign_u = direction * (1.0 if increasing else -1.0)
        if math.isfinite(endpoint):
            if phi(endpoint) > 1e-9:
                return u_of_x(endpoint, spec)
            if spec.c != 0.0:
                # g need not vanish at the edge for c != 0: probe just inside
                inset = 1e-9 * max(1.0, abs(endpoint))
                return u_of_x(endpoint - direction * inset, spec)
            return sign_u * math.inf  # simple zero of the margin: log divergence
        if spec.c == 0.0 and degree >= 2:
            return spec.anchor_u + path_integral(lambda s: 1.0 / g_general(s, spec),
                                                 spec.anchor_x, endpoint, spec.quad)
        if spec.c != 0.0:
            return u_of_x(math.copysign(1e9, endpoint), spec)
        return sign_u * math.inf  # linear tail: log divergence

    u_lo = side_limit(interval.lower, -1.0)
    u_hi = side_limit(interval.upper, +1.0)
    return (u_lo, u_hi) if u_lo <= u_hi else (u_hi, u_lo)


def x_of_u(u: float, spec: TransformSpec, *,
           support: SupportInterval | None = None,
           image: tuple[float, float] | None = None) -> float:
    """Inverse of u_of_x, closed-form when available, else bracketed solve.

    The bracketed solve needs the support and its image u_image(spec);
    a caller that already holds them (TransformMap) passes them in, and
    otherwise they are computed here.
    """
    qi = spec.q
    if qi.is_classical():
        _require_classical_shift(spec)
        return u - spec.anchor_u + spec.anchor_x
    a = spec.cs.linear_coefficient()
    if a is not None and spec.c == 0.0:
        one_minus_q = 1.0 - qi.q
        phi_anchor = 1.0 - one_minus_q * a * spec.anchor_x
        try:
            decay = math.exp(-(one_minus_q * a / (2.0 - qi.q)) * (u - spec.anchor_u))
        except OverflowError:
            raise RangeError(f"u = {u!r} is beyond the representable range "
                             f"of the inverse map") from None
        return (1.0 - phi_anchor * decay) / (one_minus_q * a)
    if support is None:
        support = qexp_support(qi, spec.cs, anchor=spec.anchor_x)
    lo, hi = image if image is not None else u_image(spec, support)
    if not (lo < u < hi):
        raise RangeError(
            f"u = {u!r} is outside the attained range ({lo!r}, {hi!r})")
    if u == spec.anchor_u:
        return spec.anchor_x

    def f(x: float) -> float:
        return u_of_x(x, spec) - u

    f_anchor = spec.anchor_u - u
    increasing = g_general(spec.anchor_x, spec) > 0.0
    go_up = (u > spec.anchor_u) == increasing
    endpoint = support.upper if go_up else support.lower
    x_prev = spec.anchor_x
    if math.isfinite(endpoint):
        gap = endpoint - spec.anchor_x
        for k in range(1, 200):
            x_try = endpoint - gap * 0.5 ** k
            if (val := f(x_try)) == 0.0:
                return x_try
            if (val > 0.0) != (f_anchor > 0.0):
                return brentq(f, min(x_prev, x_try), max(x_prev, x_try), xtol=1e-12)
            x_prev = x_try
    else:
        step = max(1.0, abs(spec.anchor_x))
        for _ in range(200):
            x_try = x_prev + math.copysign(step, endpoint)
            if (val := f(x_try)) == 0.0:
                return x_try
            if (val > 0.0) != (f_anchor > 0.0):
                return brentq(f, min(x_prev, x_try), max(x_prev, x_try), xtol=1e-12)
            x_prev = x_try
            step *= 2.0
    raise RangeError(f"failed to bracket x for u = {u!r}")


def ode_residual(x: float, spec: TransformSpec, g_value: float,
                 g_slope: float) -> float:
    """Residual of g' - dot(lam, h') e_q(-lam.h)^{q-1} g + dot(lam, h') = 0.

    Zero (to rounding) for the canonical closed form with its analytic
    slope -(1-q) dot(lam, h'(x)) / (2-q).
    """
    qi = spec.q
    t = spec.cs.potential(x)
    tp = spec.cs.potential_slope(x)
    w = q_exp(-t, qi)
    if w == 0.0:
        raise DomainError(
            f"x = {x!r} lies outside the q-exponential support for q = {qi.q!r}")
    return g_slope - tp * w ** (qi.q - 1.0) * g_value + tp


def expand_g_near_q1(x: float, lam: float, eps: float) -> float:
    """First-order behavior of g at q = 1 - eps for a mean constraint:
    1 - (1 + lam*x) eps, accurate to O(eps^2)."""
    if not abs(eps) < 0.5:
        raise DomainError(f"expansion parameter must satisfy |eps| < 0.5, got {eps!r}")
    return 1.0 - (1.0 + lam * x) * eps


def g_near_q2(x: float, lam: float, eps: float) -> float:
    """Behavior of g at q = 2 - eps for a mean constraint:
    (1 + (1-eps) lam x)/eps, diverging like 1/eps with a sign flip at eps = 0."""
    if eps == 0.0:
        raise SingularIndexError(
            "the transform is undefined in the isolated case q = 2")
    return (1.0 + (1.0 - eps) * lam * x) / eps


@dataclass(frozen=True)
class TransformMap:
    """Bundled evaluators g, J, u, x for one TransformSpec.

    `orientation` is +1 where g > 0 on the working domain (q < 2) and -1
    where g < 0 (q > 2); density transport uses |J|.
    """

    spec: TransformSpec
    orientation: int
    support: SupportInterval
    u_image: tuple[float, float]

    @classmethod
    def from_spec(cls, spec: TransformSpec) -> "TransformMap":
        support = qexp_support(spec.q, spec.cs, anchor=spec.anchor_x)
        g_anchor = g_general(spec.anchor_x, spec)
        if g_anchor == 0.0:
            raise ConfigurationError(
                "inverse Jacobian vanishes at the anchor; pick another anchor or c")
        orientation = 1 if g_anchor > 0.0 else -1
        return cls(spec=spec, orientation=orientation, support=support,
                   u_image=u_image(spec, support))

    def g(self, x: float) -> float:
        return g_general(x, self.spec)

    def J(self, x: float) -> float:
        g = self.g(x)
        if g == 0.0 or math.isinf(1.0 / g):
            raise EdgeSingularityError(
                f"inverse Jacobian vanishes at the support edge x = {x!r}", edge=x)
        return 1.0 / g

    def u(self, x: float) -> float:
        return u_of_x(x, self.spec)

    def x(self, u: float) -> float:
        return x_of_u(u, self.spec, support=self.support, image=self.u_image)
