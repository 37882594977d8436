"""Linear, Curado-Tsallis, and TMP expectation values with escort weight.

Three ways of averaging an observable A against a q-exponential density
p = C e_q(-lam.h), a `maxent.TsallisSolution`:

    linear   <A>   = int p A
    CT       <A>_q = int p^q A          (un-normalized for q != 1)
    TMP      <A>_q = int (p^q / X_q) A  with X_q = int p^q

The observable is a polynomial, a `ConstraintFn`: its coefficients are
its value and its degree, and equal observables are one cache key.
All of the averages come from one pass per (p, A, q, quad): the rows
[p A, p^q A, p^q] of `TsallisSolution.integrals` (p A only at p's own q,
where `mean_linear` reads it), which screens each row
for divergence, takes the linear family in closed form and the other rows
on shared double-exponential nodes, with QUADPACK for a row that pass
cannot certify.  The pass is kept in a bounded cache, with each row's
value or error, and the four functions are thin readers of it:
`mean_linear` reads the pass at p's own q, `escort_norm` the p^q row of
the latest pass on the same (p, q, quad) (or a one-row pass of its own),
and `mean_tmp` is mean_ct / X_q, with no integral of its own, so
TMP = CT / X_q holds exactly.  p must be hashable.

A divergent integral raises NonIntegrableError carrying the tail exponent
of its integrand, where a quadrature would return a wrong finite value or
fail to converge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import NonIntegrableError, QBridgeError, QuadratureError
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


@lru_cache(maxsize=RULE_CACHE_SIZE)
def _pass(p, a: ConstraintFn | None, q: QIndex, quad: QuadratureSpec) -> tuple:
    """The entries of `p.integrals` for the rows (int p A, int p^q A,
    int p^q): the last is the escort row, the one before it the CT row
    (with `a`), and the first the linear row (with `a`, at p's own q, the
    only q `mean_linear` reads).  Each pass is kept in a cache of at most
    RULE_CACHE_SIZE passes, as the rules are."""
    rows = [(q.q, None)]
    if a is not None:
        rows[:0] = [(1.0, a), (q.q, a)] if q == p.q else [(q.q, a)]
    return tuple(p.integrals(rows, quad))


# (p, q, quad) of the latest pass read, and that pass.  A row's integral does
# not depend on the other rows of its pass, so whichever observable the
# latest pass had, its p^q row is the escort normalizer of (p, q, quad): the
# slot changes how many passes run, never a value.
_latest: list = [None, None]


def _read(p, a: ConstraintFn | None, q: QIndex, quad: QuadratureSpec) -> tuple:
    """The cached pass for (p, a, q, quad), noted as the latest one."""
    found = _pass(p, a, q, quad)
    _latest[:] = (p, q, quad), found
    return found


def _value(entry, p, power: float, what: str) -> float:
    """The value of a pass entry for int p^power A, or the error it holds:
    a divergence as NonIntegrableError naming `what`."""
    if isinstance(entry, NonIntegrableError):
        raise NonIntegrableError(f"{what} diverges for p at q = {p.q.q!r} raised to "
                                 f"{power!r}: {entry}", tail_exponent=entry.tail_exponent)
    if isinstance(entry, QBridgeError):
        raise entry.with_traceback(None)     # the cached error, raised afresh
    return entry


def mean_linear(p, a: ConstraintFn, quad: QuadratureSpec) -> float:
    """Ordinary expectation int p A over the density's support."""
    return _value(_read(p, a, p.q, quad)[0], p, 1.0,
                  f"the mean of A = {list(a.coefficients)!r}")


def escort_norm(p, q: QIndex | float, quad: QuadratureSpec) -> EscortWeight:
    """Escort normalizer X_q = int p^q; equals 1 at q = 1."""
    qi = as_qindex(q)
    key, found = _latest
    if key != (p, qi, quad):
        found = _read(p, None, qi, quad)
    try:
        x_q = _value(found[-1], p, qi.q, "the escort normalizer")
    except QuadratureError as exc:
        raise NonIntegrableError(
            f"escort integral did not converge for q = {qi.q!r}: {exc}") from exc
    return EscortWeight(x_q)


def mean_ct(p, a: ConstraintFn, q: QIndex | float, quad: QuadratureSpec) -> float:
    """Curado-Tsallis weighted expectation int p^q A (un-normalized:
    its value at A = 1 is X_q, not 1)."""
    qi = as_qindex(q)
    return _value(_read(p, a, qi, quad)[-2], p, qi.q,
                  f"the Curado-Tsallis mean of A = {list(a.coefficients)!r}")


def mean_tmp(p, a: ConstraintFn, q: QIndex | float, quad: QuadratureSpec) -> float:
    """TMP (escort-normalized) expectation: mean_ct / X_q, both read from
    the same pass."""
    qi = as_qindex(q)
    numerator = mean_ct(p, a, qi, quad)
    weight = escort_norm(p, qi, quad)
    return numerator / weight.x_q
