"""Linear, Curado-Tsallis, and TMP expectation values with escort weight.

Three ways of averaging an observable A against a density p:

    linear   <A>   = int p A
    CT       <A>_q = int p^q A          (un-normalized for q != 1)
    TMP      <A>_q = int (p^q / X_q) A  with X_q = int p^q

Each integral is one `integrate_de` call: the nested double-exponential
rule in numpy, or QUADPACK where that rule cannot certify the integral
(a tail too heavy for its range, as for the mean at q = 1.49 with h = x).
So `p.density` and `A.value` receive a numpy array of nodes and return an
array of values (a float, such as a constant, broadcasts); on the QUADPACK
fallback they receive one float at a time and return a float.

mean_tmp reuses the same quadrature configuration for numerator and
normalizer, so the ratio identity TMP = CT / X_q holds exactly at the
evaluation level.

Each average first screens the tails analytically, as normalization does:
a q-exponential density with q > 1 decays like |x|^{-d/(q-1)} toward an
infinite end, d the degree of lam.h, so p^s A with A of degree k decays
like |x|^{k - s d/(q-1)}, and its integral diverges when s d/(q-1) - k
<= 1.  That raises NonIntegrableError carrying s d/(q-1) - k as
`tail_exponent`, where a quadrature would return a wrong finite value or
fail to converge.  An Observable of unknown degree is not screened.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import NonIntegrableError, QuadratureError
from .qkernel import QIndex, as_qindex
from .quadrature import QuadratureSpec, integrate_de

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


def _screen_tails(p, power: float, degree: int | None, what: str) -> None:
    """Raise NonIntegrableError when int p^power A diverges toward an
    infinite end of p's support, A of polynomial degree `degree`.

    Only a q-exponential density with q > 1 (one with `q` and `cs`) has a
    power-law tail; any other density, or an A of unknown degree, passes.
    """
    qi = getattr(p, "q", None)
    if degree is None or qi is None or qi.q <= 1.0 or qi.is_classical():
        return
    if math.isfinite(p.support.lower) and math.isfinite(p.support.upper):
        return
    exponent = power * p.cs.degree / (qi.q - 1.0) - degree
    if exponent <= 1.0:
        raise NonIntegrableError(
            f"{what} diverges at q = {qi.q!r}: the integrand decays like |x|^-{exponent!r} "
            f"toward an infinite end of the support, and {exponent!r} <= 1",
            tail_exponent=exponent)


def mean_linear(p, a: Observable, quad: QuadratureSpec) -> float:
    """Ordinary expectation int p A over the density's support."""
    _screen_tails(p, 1.0, a.degree, f"the mean of {a.label}")
    return integrate_de(lambda x: p.density(x) * a.value(x), p.support, quad)


def escort_norm(p, q: QIndex | float, quad: QuadratureSpec) -> EscortWeight:
    """Escort normalizer X_q = int p^q; equals 1 at q = 1."""
    qi = as_qindex(q)
    _screen_tails(p, qi.q, 0, "the escort normalizer")
    try:
        x_q = integrate_de(lambda x: p.density(x) ** qi.q, p.support, quad)
    except QuadratureError as exc:
        raise NonIntegrableError(
            f"escort integral did not converge for q = {qi.q!r}: {exc}") from exc
    if not (math.isfinite(x_q) and x_q > 0.0):
        raise NonIntegrableError(f"escort integral evaluated to {x_q!r}")
    return EscortWeight(q=qi, x_q=x_q)


def mean_ct(p, a: Observable, q: QIndex | float, quad: QuadratureSpec) -> float:
    """Curado-Tsallis weighted expectation int p^q A (un-normalized:
    its value at A = 1 is X_q, not 1)."""
    qi = as_qindex(q)
    _screen_tails(p, qi.q, a.degree, f"the Curado-Tsallis mean of {a.label}")
    return integrate_de(lambda x: p.density(x) ** qi.q * a.value(x), p.support, quad)


def mean_tmp(p, a: Observable, q: QIndex | float, quad: QuadratureSpec) -> float:
    """TMP (escort-normalized) expectation: mean_ct / X_q on shared nodes."""
    qi = as_qindex(q)
    numerator = mean_ct(p, a, qi, quad)
    weight = escort_norm(p, qi, quad)
    return numerator / weight.x_q
