"""Cutoff-aware q-deformed exponential and logarithm.

The deformed exponential is e_q(z) = [1 + (1-q) z]^{1/(1-q)} with the
standard cutoff convention for q < 1 (zero wherever the bracket is not
positive) and a hard pole at z = 1/(q-1) for q > 1.  Everything else in
the package is built on these two evaluators and the derivative identity
d e_q(z)/dz = e_q(z)^q.  `q_exp` and `SupportInterval.contains` take a
float or a numpy array of nodes, as the quadrature rules pass them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, RangeError

__all__ = [
    "EPS_Q1",
    "EPS_Q2",
    "QIndex",
    "SupportInterval",
    "as_qindex",
    "q_exp",
    "q_log",
    "q_exp_deriv",
]


# Guard bands: inside |q - 1| < EPS_Q1 evaluation takes the classical
# exp/log branch (the power form loses all precision there); inside
# |q - 2| < EPS_Q2 the transform refuses to run rather than return ~1/eps.
EPS_Q1 = 1e-9
EPS_Q2 = 1e-6


@dataclass(frozen=True)
class QIndex:
    """Entropic index q, with the guard bands EPS_Q1 and EPS_Q2."""

    q: float

    def __post_init__(self):
        if not math.isfinite(self.q):
            raise ConfigurationError(f"entropic index must be finite, got {self.q!r}")

    def is_classical(self) -> bool:
        return abs(self.q - 1.0) < EPS_Q1

    def is_singular_for_transform(self) -> bool:
        return abs(self.q - 2.0) < EPS_Q2


def as_qindex(q: QIndex | float) -> QIndex:
    """Coerce a bare float into a QIndex with default guard thresholds."""
    if isinstance(q, QIndex):
        return q
    return QIndex(float(q))


@dataclass(frozen=True)
class SupportInterval:
    """Interval of the real line, with per-end closedness.

    Finite cutoff edges (where a density vanishes) are open; plain domain
    endpoints are closed.  Infinite ends are always open.
    """

    lower: float
    upper: float
    closed_lower: bool = True
    closed_upper: bool = True

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ConfigurationError(
                f"empty interval: lower={self.lower!r} upper={self.upper!r}")

    def contains(self, x):
        """Whether x lies in the interval: a bool for a float, and an
        elementwise boolean array for a numpy array."""
        inside = (x > self.lower) & (x < self.upper)
        if self.closed_lower and math.isfinite(self.lower):
            inside = inside | (x == self.lower)
        if self.closed_upper and math.isfinite(self.upper):
            inside = inside | (x == self.upper)
        return inside

    def intersect(self, other: "SupportInterval") -> "SupportInterval":
        if self.lower > other.lower:
            lo, clo = self.lower, self.closed_lower
        elif self.lower < other.lower:
            lo, clo = other.lower, other.closed_lower
        else:
            lo, clo = self.lower, self.closed_lower and other.closed_lower
        if self.upper < other.upper:
            hi, chi = self.upper, self.closed_upper
        elif self.upper > other.upper:
            hi, chi = other.upper, other.closed_upper
        else:
            hi, chi = self.upper, self.closed_upper and other.closed_upper
        return SupportInterval(lo, hi, closed_lower=clo, closed_upper=chi)


def q_exp(z, q: QIndex | float):
    """Deformed exponential e_q(z) = [1 + (1-q) z]^{1/(1-q)}.

    Returns exp(z) on the classical branch and 0 beyond the q < 1 cutoff;
    raises DomainError at or past the q > 1 pole z = 1/(q-1), and raises
    RangeError where the value overflows a double.
    Evaluated as exp(log1p((1-q) z)/(1-q)) for stability near the cutoff,
    by numpy: a numpy array z elementwise, returning an array, and any
    other z as a float, returning a float.  The errors name the first
    offending argument.
    """
    qi = as_qindex(q)
    nodes = isinstance(z, np.ndarray) and z.ndim > 0
    z = np.asarray(z, dtype=float)
    with np.errstate(all="ignore"):
        if qi.is_classical():
            value = np.exp(z)
        else:
            one_minus_q = 1.0 - qi.q
            value = np.exp(np.log1p(one_minus_q * z) / one_minus_q)
        # value + z is finite exactly where both are: every other element
        # is a non-finite z, a point past the cutoff or pole, or an overflow
        if not np.isfinite(value + z).all():
            value = _checked(z, qi, value)
    return value if nodes else float(value)


def _checked(z: np.ndarray, qi: QIndex, value: np.ndarray) -> np.ndarray:
    """`value`, q_exp's unchecked result, with 0 past the q < 1 cutoff; or
    the error q_exp raises."""
    finite = np.isfinite(z)
    if not finite.all():
        raise DomainError(f"q_exp argument must be finite, got {_first(z, ~finite)!r}")
    if not qi.is_classical():
        cut = 1.0 + (1.0 - qi.q) * z <= 0.0
        if cut.any() and qi.q > 1.0:
            raise DomainError(
                f"q_exp diverges at the pole z = {1.0 / (qi.q - 1.0)!r} for "
                f"q = {qi.q!r}; got z = {_first(z, cut)!r}")
        value = np.where(cut, 0.0, value)
    overflow = np.isinf(value)
    if overflow.any():
        raise RangeError(f"q_exp({_first(z, overflow)!r}) overflows a double for q = {qi.q!r}")
    return value


def _first(z: np.ndarray, mask: np.ndarray) -> float:
    """The first element of z where mask holds."""
    return float(z[mask][0]) if z.ndim else float(z)


def q_log(y: float, q: QIndex | float) -> float:
    """Deformed logarithm (y^{1-q} - 1)/(1-q), the functional inverse of q_exp."""
    qi = as_qindex(q)
    if not y > 0.0:
        raise DomainError(f"q_log requires a positive argument, got {y!r}")
    if qi.is_classical():
        return math.log(y)
    one_minus_q = 1.0 - qi.q
    return math.expm1(one_minus_q * math.log(y)) / one_minus_q


def q_exp_deriv(z: float, q: QIndex | float) -> float:
    """Derivative of the deformed exponential: e_q(z)^q."""
    qi = as_qindex(q)
    value = q_exp(z, qi)
    if value == 0.0:
        # beyond the q < 1 cutoff: 0^q = 0 for positive q
        if qi.q > 0.0:
            return 0.0
        raise DomainError(
            f"derivative undefined beyond the cutoff for q = {qi.q!r} <= 0")
    return value ** qi.q
