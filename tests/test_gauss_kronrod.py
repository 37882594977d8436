"""The vectorized adaptive Gauss-Kronrod rule and the Shannon re-check on it.

scipy's QUADPACK at epsrel = 1e-13 is the oracle for every row.  The
integrands are exp(-P) for a polynomial P that decays toward every
infinite end, times 1, x and x^2, on pieces split at the local minima of
P as the Shannon re-check splits them.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from scipy.integrate import quad as scipy_quad

import qbridge as qb
import qbridge.quadrature
from qbridge import ConstraintFn, ConstraintSet, QuadratureSpec, SupportInterval
from qbridge.quadrature import integrate_rows

from conftest import HALF_LINE, REAL_LINE

CHECK = QuadratureSpec().tightened(10.0)   # the Shannon re-check's tolerances


def _critical_points(coeffs, lo, hi):
    slope = npoly.polyder(coeffs)
    if len(slope) < 2:
        return []
    return sorted(r.real for r in npoly.polyroots(slope)
                  if abs(r.imag) < 1e-9 and lo < r.real < hi)


def _pieces(coeffs, lo, hi):
    """[lo, hi] split at the interior local minima of P."""
    curvature = npoly.polyder(coeffs, 2)
    minima = {r for r in _critical_points(coeffs, lo, hi) if npoly.polyval(r, curvature) > 0.0}
    fences = [lo, *sorted(minima), hi]
    return [SupportInterval(a, b) for a, b in zip(fences, fences[1:])]


def _shifted(coeffs, lo, hi):
    """P minus its minimum on [lo, hi], so that exp(-P) peaks at 1."""
    points = [x for x in (lo, hi) if math.isfinite(x)] + _critical_points(coeffs, lo, hi)
    low = min(npoly.polyval(x, coeffs) for x in points)
    return (coeffs[0] - low, *coeffs[1:])


def _check_rows(coeffs, lo, hi):
    coeffs = _shifted(coeffs, lo, hi)
    pieces = _pieces(coeffs, lo, hi)

    def rows(x):
        p = np.exp(-npoly.polyval(x, coeffs))
        return np.array([p, p * x, p * x * x])

    got = integrate_rows(rows, pieces, CHECK)
    for k in range(3):
        def row(u, k=k):
            return math.exp(-npoly.polyval(u, coeffs)) * u ** k

        def scipy(f):
            return sum(scipy_quad(f, part.lower, part.upper, epsabs=0.0, epsrel=1e-13,
                                  limit=200)[0] for part in pieces)

        scale = scipy(lambda u: abs(row(u)))
        assert abs(got[k] - scipy(row)) <= 1e-10 * scale + 1e-13, (k, got[k], scipy(row))


@st.composite
def _decaying(draw):
    """(ascending coefficients, lo, hi): P of degree 1-4 on [a, b], degree
    1-4 on a half-line (either end infinite), degree 2 or 4 on the line."""
    kind = draw(st.sampled_from(["interval", "half", "line"]))
    degree = draw(st.sampled_from([2, 4] if kind == "line" else [1, 2, 3, 4]))
    lower = draw(st.lists(st.floats(-3.0, 3.0), min_size=degree, max_size=degree))
    lead = draw(st.floats(0.1, 3.0)) * (draw(st.sampled_from([-1.0, 1.0]))
                                        if kind == "interval" else 1.0)
    coeffs = (*lower, lead)
    a = draw(st.floats(-3.0, 3.0))
    if kind == "interval":
        return coeffs, a, a + draw(st.floats(0.1, 6.0))
    if kind == "line":
        return coeffs, -math.inf, math.inf
    if draw(st.booleans()):
        return coeffs, a, math.inf
    # P(-x) on (-inf, -a]: the leading term decays toward -inf
    return tuple(c * (-1.0) ** k for k, c in enumerate(coeffs)), -math.inf, -a


@settings(max_examples=100, deadline=None)
@given(case=_decaying())
@example(case=((5000.0, -100.0, 0.5), -math.inf, math.inf))          # K = (100, 10001)
@example(case=((0.0, 0.0, -20.47862165133519, 0.0, 0.902357483388095),
               -math.inf, math.inf))                                    # deep double well
def test_rows_match_scipy_quad(case):
    _check_rows(*case)


# Far from unit scale QUADPACK is no oracle (at lam = 1e-4 its E[x^2] is
# 9e-6 off), so these use the closed form k!/lam^(k+1).
@pytest.mark.parametrize("lam", [1e-4, 1e3, 1.0 / 3.328611156682118])
def test_exponential_rows_match_the_closed_form(lam):
    got = integrate_rows(lambda x: np.exp(-lam * x) * np.array([np.ones_like(x), x, x * x]),
                         [HALF_LINE], CHECK)
    assert got.tolist() == pytest.approx([1.0 / lam, 1.0 / lam ** 2, 2.0 / lam ** 3], rel=1e-13)


@pytest.mark.parametrize("f", [
    lambda x: np.ones((1, x.size)),                   # no decay: the budget runs out
    lambda x: np.exp(x)[None],                        # overflows at the first nodes
    lambda x: np.array([np.exp(-x), np.full(x.size, np.nan)]),
])
def test_non_finite_or_non_decaying_rows_raise(f):
    with pytest.raises(qb.QuadratureError):
        integrate_rows(f, [HALF_LINE], CHECK)


def test_budget_is_max_subdivisions_per_piece():
    spec = QuadratureSpec(max_subdivisions=16)   # the first round only
    with pytest.raises(qb.QuadratureError, match="did not converge") as err:
        integrate_rows(lambda x: np.abs(x - 0.3)[None] ** 0.5, [SupportInterval(0.0, 1.0)],
                       spec)
    assert err.value.estimate == pytest.approx(0.3 ** 1.5 / 1.5 + 0.7 ** 1.5 / 1.5, rel=1e-3)


X, X2 = ConstraintFn.identity(), ConstraintFn.square()
X4 = ConstraintFn.polynomial((0.0, 0.0, 0.0, 0.0, 1.0))


def test_shannon_solves_make_no_quadpack_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy quad called")

    monkeypatch.setattr(qbridge.quadrature, "quad", refuse)
    with pytest.raises(AssertionError):     # the patch does reach QUADPACK's callers
        qb.integrate(math.exp, SupportInterval(0.0, 1.0), QuadratureSpec())
    for observables, targets, domain in [
        ((X,), (2.0,), HALF_LINE),
        ((X, X2), (0.5, 1.0), REAL_LINE),
        ((X, X2, X4), (0.1, 1.2, 3.0), REAL_LINE),
    ]:
        cs = ConstraintSet(observables, (1.0,) * len(observables), targets=targets)
        qb.solve_shannon(cs, domain, QuadratureSpec())
