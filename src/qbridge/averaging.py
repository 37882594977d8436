"""Linear, Curado-Tsallis, and TMP expectation values with escort weight.

Three ways of averaging an observable A against a density p:

    linear   <A>   = int p A
    CT       <A>_q = int p^q A          (un-normalized for q != 1)
    TMP      <A>_q = int (p^q / X_q) A  with X_q = int p^q

All of them come from one pass per (p, A, q, quad): `integrate_de_rows`
integrates the rows [p A, p^q A, p^q] on the nested double-exponential
rule, evaluating `p.density` and `A.value` once per node set, so they
receive a numpy array of nodes and return an array of values (a float,
such as a constant, broadcasts).  The pass is kept in a bounded cache,
and the four functions are thin wrappers that read it: `mean_linear`
reads the pass at p's own q (a one-row pass for a density without one),
`escort_norm` the p^q row of the latest pass on the same (p, q, quad) (or
a one-row pass of its own), and `mean_tmp` is mean_ct / X_q, with no
integral of its own, so TMP = CT / X_q holds exactly.  p and A are cache
keys: they must be hashable, and A's values must not change.

A row the rule cannot certify (a tail too heavy for its range, as for the
mean at q = 1.49 with h = x) goes to QUADPACK's `integrate` alone, with
its own scalar integrand, only when its wrapper asks for it; there
`p.density` and `A.value` receive one float at a time and return a float.

Each wrapper first screens its tails analytically, as normalization does:
a q-exponential density with q > 1 decays like |x|^{-d/(q-1)} toward an
infinite end, d the degree of lam.h, so p^s A with A of degree k decays
like |x|^{k - s d/(q-1)}, and its integral diverges when s d/(q-1) - k
<= 1.  That raises NonIntegrableError carrying s d/(q-1) - k as
`tail_exponent`, where a quadrature would return a wrong finite value or
fail to converge.  A row that fails its screen is left out of the pass.
An Observable of unknown degree is not screened.
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

__all__ = [
    "Observable",
    "EscortWeight",
    "mean_linear",
    "escort_norm",
    "mean_ct",
    "mean_tmp",
]


@dataclass(frozen=True)
class Observable:
    """A labelled measurable quantity A(x)."""

    evaluator: Callable[[float], float]
    label: str = "A"
    degree: int | None = None   # polynomial degree of A, for the tail screen

    @classmethod
    def identity(cls) -> "Observable":
        return cls(lambda x: x, "x", 1)

    @classmethod
    def square(cls) -> "Observable":
        return cls(lambda x: x * x, "x^2", 2)

    def value(self, x: float) -> float:
        return self.evaluator(x)


@dataclass(frozen=True)
class EscortWeight:
    """Escort normalizer X_q = int p(x)^q dx."""

    q: QIndex
    x_q: float

    def __post_init__(self):
        if not (math.isfinite(self.x_q) and self.x_q > 0.0):
            raise NonIntegrableError(f"escort normalizer must be positive and "
                                     f"finite, got {self.x_q!r}")


def _divergence(p, power: float, degree: int | None) -> float | None:
    """The tail exponent s d/(q-1) - k when int p^power A diverges toward
    an infinite end of p's support, A of polynomial degree `degree`; else
    None.

    Only a q-exponential density with q > 1 (one with `q` and `cs`) has a
    power-law tail; any other density, or an A of unknown degree, passes.
    """
    qi = getattr(p, "q", None)
    if degree is None or qi is None or qi.q <= 1.0 or qi.is_classical():
        return None
    if math.isfinite(p.support.lower) and math.isfinite(p.support.upper):
        return None
    exponent = power * p.cs.degree / (qi.q - 1.0) - degree
    return exponent if exponent <= 1.0 else None


def _screen_tails(p, power: float, degree: int | None, what: str) -> None:
    """Raise NonIntegrableError when int p^power A diverges (`_divergence`)."""
    exponent = _divergence(p, power, degree)
    if exponent is not None:
        raise NonIntegrableError(
            f"{what} diverges at q = {p.q.q!r}: the integrand decays like |x|^-{exponent!r} "
            f"toward an infinite end of the support, and {exponent!r} <= 1",
            tail_exponent=exponent)


@lru_cache(maxsize=RULE_CACHE_SIZE)
def _pass(p, a: Observable | None, q: QIndex | None,
          quad: QuadratureSpec) -> tuple[float | None, float | None, float | None]:
    """(int p A, int p^q A, int p^q) from one `integrate_de_rows` pass.

    Without `a` the pass has only the p^q row, without `q` only the p A
    row.  A row whose tail screen fails is left out, and an entry is None
    where its row is left out or the rule cannot certify it.  Each pass is
    kept in a cache of at most RULE_CACHE_SIZE passes, as the rules are.
    """
    linear = a is not None and _divergence(p, 1.0, a.degree) is None
    ct = a is not None and q is not None and _divergence(p, q.q, a.degree) is None
    escort = q is not None and _divergence(p, q.q, 0) is None
    wanted = (linear, ct, escort)

    def rows(x: np.ndarray) -> np.ndarray:
        d = p.density(x)
        A = a.value(x) if linear or ct else 1.0
        dq = d ** q.q if ct or escort else d
        return np.array([row for row, keep in zip((d * A, dq * A, dq), wanted) if keep])

    found = iter(quadrature.integrate_de_rows(rows, sum(wanted), p.support, quad))
    return tuple(next(found) if keep else None for keep in wanted)


# (p, q, quad) of the latest pass read, and that pass.  A row's integral does
# not depend on the other rows of its pass, so whichever observable the
# latest pass had, its p^q row is the escort normalizer of (p, q, quad): the
# slot changes how many passes run, never a value.
_latest: list = [None, None]


def _read(p, a: Observable | None, q: QIndex | None, quad: QuadratureSpec):
    """The cached pass for (p, a, q, quad), noted as the latest one."""
    found = _pass(p, a, q, quad)
    _latest[:] = (p, q, quad), found
    return found


def _certified(value: float | None, f: Callable, p, quad: QuadratureSpec) -> float:
    """`value`, or QUADPACK's integral of the scalar f over p's support
    where the pass could not certify it."""
    return value if value is not None else quadrature.integrate(f, p.support, quad)


def mean_linear(p, a: Observable, quad: QuadratureSpec) -> float:
    """Ordinary expectation int p A over the density's support."""
    _screen_tails(p, 1.0, a.degree, f"the mean of {a.label}")
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
    return EscortWeight(q=qi, x_q=x_q)


def mean_ct(p, a: Observable, q: QIndex | float, quad: QuadratureSpec) -> float:
    """Curado-Tsallis weighted expectation int p^q A (un-normalized:
    its value at A = 1 is X_q, not 1)."""
    qi = as_qindex(q)
    _screen_tails(p, qi.q, a.degree, f"the Curado-Tsallis mean of {a.label}")
    ct = _read(p, a, qi, quad)[1]
    return _certified(ct, lambda x: p.density(x) ** qi.q * a.value(x), p, quad)


def mean_tmp(p, a: Observable, q: QIndex | float, quad: QuadratureSpec) -> float:
    """TMP (escort-normalized) expectation: mean_ct / X_q, both read from
    the same pass."""
    qi = as_qindex(q)
    numerator = mean_ct(p, a, qi, quad)
    weight = escort_norm(p, qi, quad)
    return numerator / weight.x_q
