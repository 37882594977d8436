"""Linear, Curado-Tsallis, and TMP expectation values with escort weight.

Three ways of averaging an observable A against a density p:

    linear   <A>   = int p A
    CT       <A>_q = int p^q A          (un-normalized for q != 1)
    TMP      <A>_q = int (p^q / X_q) A  with X_q = int p^q

The observable is a polynomial, a `ConstraintFn`: its coefficients are
its value and its degree, and equal observables are one cache key.
All of the averages come from one pass per (p, A, q, quad).  For a
q-exponential density whose lam.h is linear, on a support from one
finite end to a root of phi or to infinity, the pass is the closed form
`ConstraintSet.linear_integral` of each row, with no quadrature.  For
any other density `integrate_de_rows` integrates the rows
[p A, p^q A, p^q] on the nested double-exponential rule, evaluating
`p.density` and `A.value` once per node set, so they receive a numpy
array of nodes and return an array of values.  The pass is kept in a
bounded cache, and the four functions are
thin wrappers that read it: `mean_linear` reads the pass at p's own q (a
one-row pass for a density without one), `escort_norm` the p^q row of the
latest pass on the same (p, q, quad) (or a one-row pass of its own), and
`mean_tmp` is mean_ct / X_q, with no integral of its own, so TMP = CT /
X_q holds exactly.  p must be hashable.

A row the rule cannot certify (a tail too heavy for its range, as for the
mean at q = 1.49 with h = x) goes to QUADPACK's `integrate` alone, with
its own scalar integrand, only when its wrapper asks for it; there
`p.density` and `A.value` receive one float at a time and return a float.

Each wrapper first decides analytically whether its integral int p^s A
(s = 1 or q) converges, by the rule normalization uses too,
`ConstraintSet.divergence`: toward an infinite end of p's support
p^s A decays like |x|^-(s d/(q-1) - deg A), d the degree of lam.h, and at
a finite root of phi it grows like dist^-(s/(q-1)).  A divergent integral
raises NonIntegrableError carrying that exponent as `tail_exponent`,
where a quadrature would return a wrong finite value or fail to converge,
and its row is left out of the pass.  A density without `q` and `cs` is
not screened.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import quadrature
from .errors import NonIntegrableError, QuadratureError
from .qkernel import QIndex, as_qindex
from .quadrature import RULE_CACHE_SIZE, QuadratureSpec
from .transform import ConstraintFn

__all__ = [
    "EscortWeight",
    "mean_linear",
    "escort_norm",
    "mean_ct",
    "mean_tmp",
]

# The benchmark's worker (bench/worker.py) still calls Observable.identity().
Observable = ConstraintFn


@dataclass(frozen=True)
class EscortWeight:
    """Escort normalizer X_q = int p(x)^q dx."""

    x_q: float

    def __post_init__(self):
        if not (math.isfinite(self.x_q) and self.x_q > 0.0):
            raise NonIntegrableError(f"escort normalizer must be positive and "
                                     f"finite, got {self.x_q!r}")


def _diverges(p, power: float, degree: int) -> tuple[float | None, str] | None:
    """`ConstraintSet.divergence` of int p^power A, A of degree `degree`,
    for a q-exponential density (one with `q` and `cs`); None for any
    other density."""
    qi = getattr(p, "q", None)
    return None if qi is None else p.cs.divergence(qi, p.support, power, degree)


def _screen_tails(p, power: float, degree: int, what: str) -> None:
    """Raise NonIntegrableError when int p^power A diverges (`_diverges`)."""
    found = _diverges(p, power, degree)
    if found is not None:
        exponent, why = found
        raise NonIntegrableError(f"{what} diverges for p at q = {p.q.q!r} raised to "
                                 f"{power!r}: the integrand {why}", tail_exponent=exponent)


@lru_cache(maxsize=RULE_CACHE_SIZE)
def _pass(p, a: ConstraintFn | None, q: QIndex | None,
          quad: QuadratureSpec) -> tuple[float | None, float | None, float | None]:
    """(int p A, int p^q A, int p^q) in closed form (`_closed_forms`), or
    from one `integrate_de_rows` pass.

    Without `a` the pass has only the p^q row, without `q` only the p A
    row.  A row whose tail screen fails is left out, and an entry is None
    where its row is left out or the rule cannot certify it.  Each pass is
    kept in a cache of at most RULE_CACHE_SIZE passes, as the rules are.
    """
    linear = a is not None and _diverges(p, 1.0, a.degree) is None
    ct = a is not None and q is not None and _diverges(p, q.q, a.degree) is None
    escort = q is not None and _diverges(p, q.q, 0) is None
    wanted = (linear, ct, escort)
    exact = _closed_forms(p, a, q, wanted)
    if exact is not None:
        return exact

    def rows(x: np.ndarray) -> np.ndarray:
        d = p.density(x)
        A = a.value(x) if linear or ct else 1.0
        dq = d ** q.q if ct or escort else d
        return np.array([row for row, keep in zip((d * A, dq * A, dq), wanted) if keep])

    found = iter(quadrature.integrate_de_rows(rows, sum(wanted), p.support, quad))
    return tuple(next(found) if keep else None for keep in wanted)


def _closed_forms(p, a: ConstraintFn | None, q: QIndex | None,
                  wanted: tuple[bool, bool, bool]) -> tuple[float | None, ...] | None:
    """The entries of `_pass` from `ConstraintSet.linear_integral`, for a
    q-exponential density whose lam.h and support have its closed form;
    None for any other density."""
    if getattr(p, "q", None) is None:
        return None
    out = []
    for keep, power, fn in zip(wanted, (1.0, q.q, q.q), (a, a, None)):
        value = None
        if keep:
            value = p.cs.linear_integral(p.q, p.support, power,
                                         (1.0,) if fn is None else fn.coefficients)
            if value is None:
                return None
            value *= p.C ** power
        out.append(value)
    return tuple(out)


# (p, q, quad) of the latest pass read, and that pass.  A row's integral does
# not depend on the other rows of its pass, so whichever observable the
# latest pass had, its p^q row is the escort normalizer of (p, q, quad): the
# slot changes how many passes run, never a value.
_latest: list = [None, None]


def _read(p, a: ConstraintFn | None, q: QIndex | None, quad: QuadratureSpec):
    """The cached pass for (p, a, q, quad), noted as the latest one."""
    found = _pass(p, a, q, quad)
    _latest[:] = (p, q, quad), found
    return found


def _certified(value: float | None, f: Callable, p, quad: QuadratureSpec) -> float:
    """`value`, or QUADPACK's integral of the scalar f over p's support
    where the pass could not certify it."""
    return value if value is not None else quadrature.integrate(f, p.support, quad)


def mean_linear(p, a: ConstraintFn, quad: QuadratureSpec) -> float:
    """Ordinary expectation int p A over the density's support."""
    _screen_tails(p, 1.0, a.degree, f"the mean of A = {list(a.coefficients)!r}")
    linear = _read(p, a, getattr(p, "q", None), quad)[0]
    return _certified(linear, lambda x: p.density(x) * a.value(x), p, quad)


def escort_norm(p, q: QIndex | float, quad: QuadratureSpec) -> EscortWeight:
    """Escort normalizer X_q = int p^q; equals 1 at q = 1."""
    qi = as_qindex(q)
    _screen_tails(p, qi.q, 0, "the escort normalizer")
    key, found = _latest
    if key != (p, qi, quad):
        found = _read(p, None, qi, quad)
    try:
        x_q = _certified(found[2], lambda x: p.density(x) ** qi.q, p, quad)
    except QuadratureError as exc:
        raise NonIntegrableError(
            f"escort integral did not converge for q = {qi.q!r}: {exc}") from exc
    return EscortWeight(x_q)


def mean_ct(p, a: ConstraintFn, q: QIndex | float, quad: QuadratureSpec) -> float:
    """Curado-Tsallis weighted expectation int p^q A (un-normalized:
    its value at A = 1 is X_q, not 1)."""
    qi = as_qindex(q)
    _screen_tails(p, qi.q, a.degree, f"the Curado-Tsallis mean of A = {list(a.coefficients)!r}")
    ct = _read(p, a, qi, quad)[1]
    return _certified(ct, lambda x: p.density(x) ** qi.q * a.value(x), p, quad)


def mean_tmp(p, a: ConstraintFn, q: QIndex | float, quad: QuadratureSpec) -> float:
    """TMP (escort-normalized) expectation: mean_ct / X_q, both read from
    the same pass."""
    qi = as_qindex(q)
    numerator = mean_ct(p, a, qi, quad)
    weight = escort_norm(p, qi, quad)
    return numerator / weight.x_q
