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
which ConstraintSet owns, and so is its margin phi(x) = 1 - (1-q) lam.h(x),
`cs.margin(q, x)`: the support is the interval around the anchor between
consecutive roots of phi where it stays positive.  With
e_q = phi^{1/(1-q)}, g = phi/(2-q) + c phi^{1/(q-1)} vanishes where phi
is the constant phi*, so g's zeros are roots of phi - phi* too; they and
the support edges end u's image, and x(u) is bracketed between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

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


def _horner(coeffs: Sequence[float], x):
    """The polynomial with ascending `coeffs` at x, a float or a numpy array."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _real_roots(coeffs: Sequence[float]) -> list[float]:
    """Distinct real parts of the roots of the polynomial `coeffs`, ascending.
    A line's root is in closed form, exactly as numpy.roots gives it."""
    if len(coeffs) > 2:
        return sorted(set(np.roots(coeffs[::-1]).real.tolist()))
    if len(coeffs) == 2:
        return [-coeffs[0] / coeffs[1] if coeffs[0] else 0.0]
    return []


def _cubic_real_parts(coeffs: Sequence[float]) -> list[float]:
    """`_real_roots` of the cubic with ascending `coeffs`, in closed form.

    With x = t - b/(3a) the cubic is t^3 + p t + r.  Three real roots come
    from the trigonometric form; one real root from Cardano's, taken
    without cancellation, with -t/2 the real part of the complex pair.
    Each real root is polished by one Newton step on the cubic itself,
    kept where it lowers |cubic|: next to a near-double root the slope is
    near 0 and a step could leave it.  numpy.roots where an intermediate
    is not finite."""
    d, c, b, a = coeffs
    try:
        b, c, d = b / a, c / a, d / a
        shift = b / 3.0
        p = c - b * shift
        r = d - c * shift + 2.0 * shift ** 3
        if 4.0 * p ** 3 + 27.0 * r * r < 0.0:     # three real roots, p < 0
            m = 2.0 * math.sqrt(-p / 3.0)
            angle = math.acos(max(-1.0, min(1.0, 3.0 * r / (p * m)))) / 3.0
            real = [m * math.cos(angle - 2.0 * math.pi * k / 3.0) - shift for k in range(3)]
            pair = []
        else:
            root = abs(r) / 2.0 + math.sqrt(max(0.0, r * r / 4.0 + p ** 3 / 27.0))
            big = -math.copysign(float(np.cbrt(root)), r)
            t = big - p / (3.0 * big) if big != 0.0 else 0.0
            real, pair = [t - shift], [-0.5 * t - shift]
    except (OverflowError, ZeroDivisionError):
        real = pair = [math.nan]
    if not all(math.isfinite(x) for x in real + pair):
        return _real_roots(coeffs)
    slope = _derivative(coeffs)
    for i, x in enumerate(real):
        value, step = _horner(coeffs, x), _horner(slope, x)
        polished = x - value / step if step != 0.0 else x
        if abs(_horner(coeffs, polished)) < abs(value):
            real[i] = polished
    return sorted(set(real + pair))


def _taylor_shift(coeffs: Sequence[float], x: float) -> list[float]:
    """Ascending coefficients of p(x + y) in y, p the polynomial `coeffs`,
    by synthetic division."""
    c = list(coeffs)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += x * c[j + 1]
    return c


def _derivative(coeffs: Sequence[float]) -> list[float]:
    """Ascending coefficients of the derivative of the polynomial `coeffs`."""
    return [k * a for k, a in enumerate(coeffs)][1:] or [0.0]


@dataclass(frozen=True)
class ConstraintFn:
    """Observable h(x), the polynomial with ascending `coefficients`;
    trailing zeros are dropped, so (0, 1, 0) is the identity.  It serves
    as a constraint of ConstraintSet and as the observable A of the
    averages alike."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        coeffs = [float(c) for c in self.coefficients]
        if not all(math.isfinite(c) for c in coeffs):
            raise ConfigurationError(f"polynomial coefficients must be finite, got {coeffs!r}")
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @classmethod
    def identity(cls) -> "ConstraintFn":
        return cls((0.0, 1.0))

    @classmethod
    def square(cls) -> "ConstraintFn":
        return cls((0.0, 0.0, 1.0))

    @classmethod
    def polynomial(cls, coefficients: Sequence[float]) -> "ConstraintFn":
        fn = cls(coefficients)
        if fn.degree < 1:
            raise ConfigurationError("polynomial observable must be non-constant")
        return fn

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def value(self, x: float) -> float:
        return _horner(self.coefficients, x)


@dataclass(frozen=True)
class ConstraintSet:
    """Observables h_i with multipliers lam_i and optional targets K_i; the
    one owner of the polynomial lam.h, of its degree, end signs, slope,
    critical points and margin phi = 1 - (1-q) lam.h, and so of the rule
    that says where an integral of its q-exponential diverges, and of that
    integral's closed form for a linear lam.h."""

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
        if self.targets is not None and not all(math.isfinite(t) for t in self.targets):
            raise ConfigurationError(f"targets must be finite, got {list(self.targets)!r}")

    @property
    def size(self) -> int:
        return len(self.constraints)

    def potential(self, x):
        """dot(lam, h(x)) for a float or numpy array x, by one Horner pass."""
        return _horner(self._ascending, x)

    def potential_slope(self, x):
        """d/dx dot(lam, h(x)) for a float or numpy array x, by one Horner pass."""
        return _horner(self._slope, x)

    def margin(self, q: float, x):
        """phi(x) = 1 - (1-q) dot(lam, h(x)), positive exactly on the support."""
        return 1.0 - (1.0 - q) * self.potential(x)

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
    def _slope(self) -> tuple[float, ...]:
        return tuple(_derivative(self._ascending))

    @property
    def degree(self) -> int:
        """Degree of dot(lam, h); 0 when it is constant."""
        return len(self._ascending) - 1

    def end_sign(self, direction: float) -> int:
        """Sign of dot(lam, h) toward direction * inf; 0 when it is constant."""
        return int(np.sign(self._ascending[-1] * direction ** self.degree)) if self.degree else 0

    @cached_property
    def critical_points(self) -> tuple[float, ...]:
        """Distinct real parts of the roots of (lam.h)', ascending: every real
        critical point, and the real part of a complex pair, where (lam.h)'
        keeps its sign.  A cubic (lam.h)' is solved in closed form
        (`_cubic_real_parts`), without numpy.roots' eigen-solve."""
        slope = self._slope
        return tuple(_cubic_real_parts(slope) if len(slope) == 4 else _real_roots(slope))

    def width(self, x: float) -> float:
        """The distance from x at which the largest term of lam.h's Taylor
        expansion about x, c_k y^k with k >= 1, reaches 1: min_k |c_k|^(-1/k).
        1.0 where that is not finite (every c_k is 0, or so small, such as a
        subnormal, that 1/|c_k|^(1/k) overflows)."""
        c = _taylor_shift(self._ascending, x)      # c_k of lam.h(x + y)
        # max_k |c_k|^(1/k) cannot overflow where its reciprocal can
        root = max((abs(a) ** (1.0 / k) for k, a in enumerate(c) if k), default=0.0)
        width = 1.0 / root if root > 0.0 else math.inf
        return width if math.isfinite(width) else 1.0

    def linear_coefficient(self) -> float | None:
        """a when dot(lam, h(x)) == a*x exactly, else None."""
        coeffs = self.combined_coefficients()
        if len(coeffs) == 2 and coeffs[0] == 0.0 and coeffs[1] != 0.0:
            return coeffs[1]
        return None

    def divergence(self, q: QIndex, support: SupportInterval, power: float = 1.0,
                   degree: int = 0) -> tuple[float | None, str] | None:
        """Whether int p^power A over `support` diverges, for p = C e_q(-lam.h)
        and A a polynomial of degree `degree`: None where it converges, else
        the tail exponent and how the integrand behaves there.

        Toward an infinite end (q != 1) phi grows like |x|^d, d the degree
        of lam.h, so the integrand decays like |x|^-e with e = power d/(q-1)
        - degree, and diverges when e <= 1; that holds for q < 1 and for a
        constant lam.h too, where e <= 0.  At a finite root of phi (taken as
        simple, as a support edge is) it grows like dist^-f with
        f = power/(q-1), and diverges when f >= 1.  At q = 1 there is no
        root, and the integrand decays toward an infinite end exactly when
        power lam.h grows there; the exponent is then None.  A finite end is
        a root of phi where phi <= 1e-12 there.
        """
        classical = q.is_classical()
        for end, direction in ((support.lower, -1.0), (support.upper, 1.0)):
            side = "+inf" if direction > 0.0 else "-inf"
            if math.isinf(end) and classical:
                if not power * self.end_sign(direction) > 0.0:
                    return None, f"does not decay toward {side}"
            elif math.isinf(end):
                e = power * self.degree / (q.q - 1.0) - degree
                if e <= 1.0:
                    return e, f"decays like |x|^-e toward {side} with e = {e!r} <= 1"
            elif not classical:
                f = power / (q.q - 1.0)
                if f >= 1.0 and self._is_root(q, end):
                    return f, (f"grows like dist^-f toward the support edge x = {end!r}, "
                               f"a root of phi, with f = {f!r} >= 1")
        return None

    def _is_root(self, q: QIndex, end: float) -> bool:
        """Whether the finite support end `end` is a root of phi: phi <= 1e-12 there."""
        return not q.is_classical() and self.margin(q.q, end) <= 1e-12

    def linear_integral(self, q: QIndex, support: SupportInterval, power: float = 1.0,
                        observable: Sequence[float] = (1.0,)) -> float | None:
        """int e_q(-lam.h)^power A over `support` in closed form, A the
        polynomial with ascending coefficients `observable`, where lam.h is
        linear and the support runs from its one finite end a that is not a
        root of phi to a root of phi or to +-inf; None elsewhere.  The
        integral is taken to converge, as `divergence` decides.

        With d = +-1 toward the far end and kappa = d lam / phi(a), the
        density factors as e_q(-lam.h(a + d y)) = e_q(-lam.h(a)) e_q(-kappa y),
        and with a_k the coefficients of A(a + y)

            int p^s A = e_q(-lam.h(a))^s sum_k a_k d^k k!
                        / (kappa^(k+1) prod_{j=1..k+1} (s + j(1-q))),

        integration by parts whose boundary terms vanish wherever the
        integral converges: at a cutoff (q < 1), toward infinity (kappa > 0)
        and at a pole (q > 1, kappa < 0).  The products stay exact through
        q = 1, where they give int y^k e^{-s kappa y}; e_q is taken at q
        itself, also within EPS_Q1 of 1.
        """
        if self.degree != 1:
            return None
        free = [(end, d) for end, d in ((support.lower, 1.0), (support.upper, -1.0))
                if math.isfinite(end) and not self._is_root(q, end)]
        if len(free) != 1:
            return None
        (a, d), = free
        one_minus_q = 1.0 - q.q
        t = self.potential(a)
        kappa = d * self._ascending[1] / (1.0 - one_minus_q * t)
        log_base = -power * t if one_minus_q == 0.0 else \
            power * math.log1p(-one_minus_q * t) / one_minus_q
        try:
            base = math.exp(log_base)       # e_q(-lam.h(a))^power
        except OverflowError:
            return math.inf
        shifted = _taylor_shift(observable, a)      # a_k of A(a + y)
        term = 1.0 / (kappa * (power + one_minus_q))
        total = shifted[0] * term
        for k in range(1, len(shifted)):
            term *= k * d / (kappa * (power + (k + 1) * one_minus_q))
            total += shifted[k] * term
        return base * total


def _margin_coefficients(q: float, cs: ConstraintSet, level: float = 0.0,
                         side: float = 1.0) -> list[float]:
    """Ascending coefficients of side (phi - level), phi = 1 - (1-q) lam.h."""
    coeffs = [-(1.0 - q) * side * a for a in cs.combined_coefficients()]
    coeffs[0] += side * (1.0 - level)
    return coeffs


def qexp_support(q: QIndex | float, cs: ConstraintSet,
                 anchor: float = 0.0) -> SupportInterval:
    """Maximal interval around `anchor` where phi(x) = 1 - (1-q) dot(lam, h(x)) > 0,
    between roots of the polynomial phi (`_margin_interval`).

    A side with no edge is unbounded.  Cutoff edges are open (the density
    vanishes there).
    """
    qi = as_qindex(q)
    if qi.is_classical():
        return SupportInterval(-math.inf, math.inf,
                               closed_lower=False, closed_upper=False)
    lo, hi = _margin_interval(qi, cs, anchor)
    return SupportInterval(lo, hi, closed_lower=False, closed_upper=False)


def _margin_interval(q: QIndex, cs: ConstraintSet, anchor: float,
                     level: float = 0.0, side: float = 1.0) -> tuple[float, float]:
    """Largest open interval around `anchor` on which the polynomial
    p = side (phi - level) is positive, phi = 1 - (1-q) dot(lam, h).

    The real part of every root of p (`_real_roots`) is a candidate.
    Walking outward from the anchor, a candidate is an edge when p is not
    positive between it and the next candidate (or past it, for the last
    one): a root where p touches zero without crossing, or a complex pair,
    is passed over.  Each edge is polished by `safeguarded_newton` on p,
    with p' from the same coefficients (xtol 1e-14), on a tiny bracket
    around the root, or on the whole bracket between the two sign checks
    if the tiny one does not change sign.  A side with no edge is infinite.
    """
    def p(x: float) -> float:
        return side * (cs.margin(q.q, x) - level)

    if not p(anchor) > 0.0:
        where = "the q-exponential support" if level == 0.0 else "g's sign interval"
        raise ConfigurationError(f"anchor {anchor!r} lies outside {where}")
    coeffs = _margin_coefficients(q.q, cs, level, side)
    candidates = _real_roots(coeffs)
    slope_coeffs = _derivative(coeffs)     # p'

    def edge(outward: list[float], direction: float) -> float:
        inside = anchor             # p > 0 here
        for k, r in enumerate(outward):
            probe = (0.5 * (r + outward[k + 1]) if k + 1 < len(outward)
                     else r + direction * max(1.0, abs(r)))
            if p(probe) > 0.0:
                inside = probe
                continue
            width = 1e-9 * max(1.0, abs(r))
            tight_in = r - direction * width
            tight_out = r + direction * width
            if (direction * (tight_in - inside) > 0.0 and p(tight_in) > 0.0
                    and direction * (probe - tight_out) > 0.0 and p(tight_out) <= 0.0):
                inside, probe = tight_in, tight_out
            return safeguarded_newton(lambda x: (p(x), _horner(slope_coeffs, x)),
                                      inside, probe, xtol=1e-14)
        return direction * math.inf

    return (edge([r for r in reversed(candidates) if r < anchor], -1.0),
            edge([r for r in candidates if r > anchor], +1.0))


def safeguarded_newton(f: Callable[[float], tuple[float, float]],
                       inside: float, outside: float, xtol: float) -> float:
    """The zero of f between `inside` (f > 0) and `outside` (f <= 0).

    f(x) returns the value and the slope at x.  Newton's method from the
    bracket's midpoint, safeguarded as in Numerical Recipes' rtsafe: a step
    that leaves the bracket, or is more than half the step before last, is
    replaced by bisection, and every point shrinks the bracket.  It stops
    once a step is below xtol + 8.9e-16 |x|, the stopping test of scipy's
    bisect and brentq.  The ends themselves are never evaluated.
    """
    x = 0.5 * (inside + outside)
    step = before = abs(outside - inside)
    for _ in range(200):
        value, d = f(x)
        if value == 0.0:
            return x
        if value > 0.0:
            inside = x
        else:
            outside = x
        lo, hi = (inside, outside) if inside < outside else (outside, inside)
        newton = x - value / d if d != 0.0 else math.nan
        if lo < newton < hi and abs(2.0 * value) <= abs(before * d):
            before, step = step, abs(newton - x)
            x = newton
        else:
            before, step = step, 0.5 * (hi - lo)
            x = lo + step
        if step < xtol + 8.9e-16 * abs(x):
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
            if not self.cs.margin(self.q.q, self.anchor_x) > 0.0:
                raise ConfigurationError(
                    f"anchor_x = {self.anchor_x!r} is not strictly inside the "
                    f"q-exponential support")

    # Computed once per instance, as ConstraintSet's coefficients are.
    @cached_property
    def _support(self) -> SupportInterval:
        return qexp_support(self.q, self.cs, anchor=self.anchor_x)

    def canonical(self) -> "TransformSpec":
        """This spec with c = 0.  The support does not depend on c, so the
        canonical spec takes this one's instead of computing it again."""
        if self.c == 0.0:
            return self
        spec = replace(self, c=0.0)
        spec.__dict__["_support"] = self._support
        return spec

    @cached_property
    def _zeros(self) -> tuple[float, float]:
        """g's nearest zeros below and above anchor_x (-inf, inf where none).

        g = phi/(2-q) + c phi^{1/(q-1)} vanishes where phi = phi* =
        (-(2-q)c)^{(1-q)/(2-q)}, which exists when -(2-q)c > 0.  If phi > phi*
        at the anchor, both nearest roots of phi - phi* are zeros of g, also
        where one rounds onto or past a support edge; otherwise only a root
        inside the support is.
        """
        qi = self.q
        level = -(2.0 - qi.q) * self.c
        try:
            phi_star = level ** ((1.0 - qi.q) / (2.0 - qi.q)) if level > 0.0 else None
        except OverflowError:   # no float phi reaches phi*
            phi_star = None
        if phi_star is None:
            return (-math.inf, math.inf)
        side = 1.0 if self.cs.margin(qi.q, self.anchor_x) > phi_star else -1.0
        lo, hi = _margin_interval(qi, self.cs, self.anchor_x, phi_star, side)
        if side < 0.0:
            support = self._support
            lo, hi = (lo if lo > support.lower else -math.inf,
                      hi if hi < support.upper else math.inf)
        return (lo, hi)

    @cached_property
    def _sign_interval(self) -> tuple[float, float]:
        """The interval around anchor_x on which g keeps its sign: the
        support, or up to a zero of g."""
        (lo, hi), support = self._zeros, self._support
        return (lo if lo > -math.inf else support.lower, hi if hi < math.inf else support.upper)

    @cached_property
    def _orientation(self) -> int:
        """The sign of g at anchor_x, and on its sign interval."""
        g_anchor = g_general(self.anchor_x, self)
        if g_anchor == 0.0:
            raise ConfigurationError(
                "inverse Jacobian vanishes at the anchor; pick another anchor or c")
        return 1 if g_anchor > 0.0 else -1

    @cached_property
    def _image(self) -> tuple[float, float]:
        """The ordered image of the whole support under u (`u_image`)."""
        return u_image(self)


def g_general(x: float, spec: TransformSpec) -> float:
    """General closed form of the inverse Jacobian, with integration constant c.

    e_q^{-1} [e_q^{2-q}/(2-q) + c] with e_q = phi^{1/(1-q)}, phi = 1 - (1-q)
    lam.h, taken as phi/(2-q) + c phi^{1/(q-1)}: no q_exp, and no division
    by an e_q that underflowed.  At c = 0 it is bitwise g_canonical, and
    raises EdgeSingularityError where phi is exactly 0.  Outside the
    support it raises DomainError, and RangeError where g overflows.
    """
    qi = spec.q
    try:
        if qi.is_classical() and spec.c != 0.0:
            return 1.0 + spec.c * math.exp(spec.cs.potential(x))
        phi = spec.cs.margin(qi.q, x)
        if spec.c == 0.0 and phi == 0.0:
            raise EdgeSingularityError(
                f"inverse Jacobian vanishes at the support edge x = {x!r}", edge=x)
        if not phi > 0.0:
            raise DomainError(
                f"x = {x!r} lies outside the q-exponential support for q = {qi.q!r}")
        if spec.c == 0.0:
            return phi / (2.0 - qi.q)
        return phi / (2.0 - qi.q) + spec.c * phi ** (1.0 / (qi.q - 1.0))
    except OverflowError:
        raise RangeError(f"the inverse Jacobian at x = {x!r} is beyond the "
                         f"representable range") from None


def g_canonical(x: float, spec: TransformSpec) -> float:
    """Canonical inverse Jacobian (1 - (1-q) dot(lam, h(x))) / (2-q).

    Defined for every finite x (it is the c = 0 closed form continued
    through the support edge, where it vanishes).
    """
    return spec.cs.margin(spec.q.q, x) / (2.0 - spec.q.q)


def _require_classical_shift(spec: TransformSpec) -> None:
    """At q = 1 the map is the shift u = x - anchor_x + anchor_u only for
    c = 0; otherwise g = 1 + c e^{lam.h} and the shift would be wrong."""
    if spec.c != 0.0:
        raise UnsupportedRegimeError(
            f"the map at q = 1 is implemented only for c = 0, got c = {spec.c!r}")


def _path(spec: TransformSpec, x: float) -> float:
    """u(x) as the path integral of 1/g from the anchor; x may be infinite.
    Raises EdgeSingularityError where the integrand meets a point at which
    g rounds to 0, as TransformMap.J does."""
    def inverse_g(s: float) -> float:
        g = g_general(s, spec)
        if g == 0.0 or math.isinf(1.0 / g):
            raise EdgeSingularityError(f"inverse Jacobian vanishes at x = {s!r}", edge=s)
        return 1.0 / g

    return spec.anchor_u + path_integral(inverse_g, spec.anchor_x, x, spec.quad)


def _edge_path(spec: TransformSpec, edge: float, direction: float) -> float:
    """u at a support edge where 1/g is integrable (c != 0, q < 1 or q > 2).

    For q > 2, 1/g ~ phi^{-1/(q-1)} puts part of the integral within an ulp
    of the edge, where phi(x) is all rounding.  So the integral runs over
    the distance s to the edge, with phi expanded about its root: phi =
    s (b1 + b2 s + ...) keeps its relative precision as s -> 0.
    """
    qi, c = spec.q, spec.c
    shifted = _taylor_shift(_margin_coefficients(qi.q, spec.cs), edge)     # phi(edge + y)
    b = [0.0] + [a * (-direction) ** k for k, a in enumerate(shifted) if k]

    def inverse_g(s: float) -> float:
        phi = _horner(b, s)
        if not phi > 0.0:   # a root of phi that only touches 0, inside the support
            raise DomainError(f"phi vanishes at x = {edge - direction * s!r} inside the support")
        try:
            return 1.0 / (phi / (2.0 - qi.q) + c * phi ** (1.0 / (qi.q - 1.0)))
        except OverflowError:   # g is beyond floats: 1/g is 0 to double precision
            return 0.0

    return spec.anchor_u + direction * path_integral(
        inverse_g, 0.0, direction * (edge - spec.anchor_x), spec.quad)


def u_of_x(x: float, spec: TransformSpec) -> float:
    """Antiderivative of 1/g anchored at (anchor_x, anchor_u).

    Uses the logarithmic closed form when dot(lam, h) is purely linear and
    c = 0; otherwise integrates the Jacobian numerically along the path, and
    raises EdgeSingularityError for x at or past a zero of g.
    """
    qi = spec.q
    if qi.is_classical():
        _require_classical_shift(spec)
        return x - spec.anchor_x + spec.anchor_u
    phi = spec.cs.margin(qi.q, x)
    if not phi > 0.0:
        raise DomainError(
            f"x = {x!r} lies outside the q-exponential support for q = {qi.q!r}")
    a = spec.cs.linear_coefficient()
    if a is not None and spec.c == 0.0:
        scale = (2.0 - qi.q) / ((1.0 - qi.q) * a)
        phi_anchor = spec.cs.margin(qi.q, spec.anchor_x)
        return spec.anchor_u - scale * (math.log(phi) - math.log(phi_anchor))
    lo, hi = spec._sign_interval
    if not lo < x < hi:
        edge = hi if x >= hi else lo
        raise EdgeSingularityError(
            f"inverse Jacobian vanishes at x = {edge!r}, on the path to x = {x!r}", edge=edge)
    return _path(spec, x)


def u_image(spec: TransformSpec,
            interval: SupportInterval | None = None) -> tuple[float, float]:
    """Ordered image under u(x) of `interval` (default: the support).

    An end of `interval` inside g's sign interval maps to u there.  Past it
    the side ends where the sign interval ends, and is finite exactly when
    the dominant term of 1/g is integrable there: never at a zero of g (a
    simple zero); at a support edge for c != 0 with q < 1 or q > 2 (1/g is
    1/phi for c = 0 or 1 < q < 2); at an infinite end when 1/g decays faster
    than 1/|x|, like |x|^{-d/(q-1)} for c != 0 with 1 < q < 2 and like
    |x|^{-d} otherwise (d: the degree of lam.h).
    """
    qi, support = spec.q, spec._support
    if interval is None:
        interval = support
    if qi.is_classical():
        _require_classical_shift(spec)
        shift = spec.anchor_u - spec.anchor_x
        return (interval.lower + shift, interval.upper + shift)
    sign_lo, sign_hi = spec._sign_interval
    degree = spec.cs.degree
    middle_q = 1.0 < qi.q < 2.0
    decay = degree / (qi.q - 1.0) if spec.c != 0.0 and middle_q else degree

    def side_limit(end: float, sign_end: float, zero: float, direction: float) -> float:
        if direction * (sign_end - end) > 0.0:
            return u_of_x(end, spec)
        if math.isinf(sign_end):
            if decay > 1.0:
                return _path(spec, sign_end)
        elif sign_end != zero and spec.c != 0.0 and not middle_q:   # an edge, not a zero of g
            return _edge_path(spec, sign_end, direction)
        return direction * spec._orientation * math.inf

    zero_lo, zero_hi = spec._zeros
    u_lo = side_limit(interval.lower, sign_lo, zero_lo, -1.0)
    u_hi = side_limit(interval.upper, sign_hi, zero_hi, +1.0)
    return (u_lo, u_hi) if u_lo <= u_hi else (u_hi, u_lo)


def x_of_u(u: float, spec: TransformSpec) -> float:
    """Inverse of u_of_x, closed-form when available, else safeguarded Newton.

    The root is bracketed by steps that double out from the anchor, up to
    the end of g's sign interval, and found by `safeguarded_newton` with the
    exact slope 1/g.  u must lie inside the image u_image(spec), which the
    spec computes once.
    """
    qi = spec.q
    if qi.is_classical():
        _require_classical_shift(spec)
        return u - spec.anchor_u + spec.anchor_x
    a = spec.cs.linear_coefficient()
    if a is not None and spec.c == 0.0:
        one_minus_q = 1.0 - qi.q
        phi_anchor = spec.cs.margin(qi.q, spec.anchor_x)
        try:
            decay = math.exp(-(one_minus_q * a / (2.0 - qi.q)) * (u - spec.anchor_u))
        except OverflowError:
            raise RangeError(f"u = {u!r} is beyond the representable range "
                             f"of the inverse map") from None
        return (1.0 - phi_anchor * decay) / (one_minus_q * a)
    lo, hi = spec._image
    if not (lo < u < hi):
        raise RangeError(
            f"u = {u!r} is outside the attained range ({lo!r}, {hi!r})")
    if u == spec.anchor_u:
        return spec.anchor_x
    sign = 1.0 if u > spec.anchor_u else -1.0

    def gap(x: float) -> float:     # positive on the anchor's side of the root
        return sign * (u - u_of_x(x, spec))

    end = spec._sign_interval[1 if (u > spec.anchor_u) == (spec._orientation > 0) else 0]
    direction = math.copysign(1.0, end - spec.anchor_x)
    inside, step = spec.anchor_x, max(1.0, abs(spec.anchor_x))
    for _ in range(200):    # steps double out from the anchor, so no path is far longer than x's
        outside = inside + direction * step
        if direction * (end - outside) <= 0.0:
            outside = end
        elif gap(outside) > 0.0:
            inside, step = outside, 2.0 * step
            continue
        return safeguarded_newton(lambda x: (gap(x), -sign / g_general(x, spec)),
                                  inside, outside, xtol=1e-12)
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
        if spec.q.is_classical():
            _require_classical_shift(spec)
        return cls(spec=spec, orientation=spec._orientation, support=spec._support,
                   u_image=spec._image)

    def g(self, x: float) -> float:
        return g_general(x, self.spec)

    def J(self, x: float) -> float:
        g = self.g(x)
        if g == 0.0 or math.isinf(1.0 / g):
            raise EdgeSingularityError(f"inverse Jacobian vanishes at x = {x!r}", edge=x)
        return 1.0 / g

    def u(self, x: float) -> float:
        return u_of_x(x, self.spec)

    def x(self, u: float) -> float:
        return x_of_u(u, self.spec)
