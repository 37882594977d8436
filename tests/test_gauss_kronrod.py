"""The vectorized adaptive Gauss-Kronrod rule and the Shannon re-check on it.

scipy's QUADPACK at epsrel = 1e-13 is the oracle for every row, or mpmath
where QUADPACK cannot certify its value (`oracles.certified_quad`).  The
integrands are exp(-P) for a polynomial P that decays toward every
infinite end, times 1, x and x^2, on pieces split at the local minima of
P as the Shannon re-check splits them.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

import qbridge as qb
import qbridge.quadrature
from qbridge import ConstraintFn, ConstraintSet, QuadratureSpec, SupportInterval
from qbridge.quadrature import integrate_rows

from conftest import HALF_LINE, REAL_LINE
from oracles import certified_quad

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


def _width(coeffs):
    """The re-check's tail width for exp(-P): that of P as a lam.h."""
    return ConstraintSet((ConstraintFn(tuple(coeffs)),), (1.0,)).width


def _check_rows(coeffs, lo, hi):
    coeffs = _shifted(coeffs, lo, hi)
    pieces = _pieces(coeffs, lo, hi)

    def rows(x):
        p = np.exp(-npoly.polyval(x, coeffs))
        return np.array([p, p * x, p * x * x])

    got = integrate_rows(rows, pieces, CHECK, _width(coeffs))
    for k in range(3):
        def row(u, k=k):
            return math.exp(-npoly.polyval(u, coeffs)) * u ** k

        def scipy(f):
            # certified to 1e-15 at least, below the 1e-13 the assertion allows
            return sum(certified_quad(f, part.lower, part.upper, epsabs=1e-15)
                       for part in pieces)

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
                         [HALF_LINE], CHECK, _width((0.0, lam)))
    assert got.tolist() == pytest.approx([1.0 / lam, 1.0 / lam ** 2, 2.0 / lam ** 3], rel=1e-13)


@pytest.mark.parametrize("f", [
    lambda x: np.ones((1, x.size)),                   # no decay: the budget runs out
    lambda x: np.exp(x)[None],                        # overflows at the first nodes
    lambda x: np.array([np.exp(-x), np.full(x.size, np.nan)]),
])
def test_non_finite_or_non_decaying_rows_raise(f):
    with pytest.raises(qb.QuadratureError):
        integrate_rows(f, [HALF_LINE], CHECK, lambda a: 1.0)


def test_budget_is_max_subdivisions_per_piece():
    spec = QuadratureSpec(max_subdivisions=16)   # the first round only
    with pytest.raises(qb.QuadratureError, match="did not converge") as err:
        integrate_rows(lambda x: np.abs(x - 0.3)[None] ** 0.5, [SupportInterval(0.0, 1.0)],
                       spec, lambda a: 1.0)
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


# QUADPACK's unit-width map took 4, 1, 6, 11 and 18 rounds for these
@pytest.mark.parametrize("k", [1e-3, 1.0, 30.0, 1e3, 1e5])
def test_the_exponential_re_check_certifies_in_one_round(monkeypatch, k):
    from qbridge.maxent import _check_shannon_invariants
    rounds, gk21 = [], qbridge.quadrature._gk21
    monkeypatch.setattr(qbridge.quadrature, "_gk21",
                        lambda *args: rounds.append(1) or gk21(*args))
    s = qb.ShannonSolution(mu=math.log(k), cs=ConstraintSet((X,), (1.0 / k,), targets=(k,)),
                           domain=HALF_LINE)
    _check_shannon_invariants(s, QuadratureSpec())
    assert len(rounds) == 1


@pytest.mark.parametrize("coefficients,x,width", [
    ((0.0, 0.5), 3.0, 2.0),                     # lam x: 1/lam from any point
    ((1.0, -2.0, 1.0), 1.0, 1.0),               # (x - 1)^2 about its minimum
    ((0.0, 0.0, 0.0, 0.0, 1e-4), 0.0, 10.0),    # 1e-4 x^4
    # about x = 1: 1e-4 (1 + 4y + 6y^2 + 4y^3 + y^4); y^4's term is the first to reach 1
    ((0.0, 0.0, 0.0, 0.0, 1e-4), 1.0, 10.0),
    ((0.0, 5e-324), 0.0, 1.0),                  # subnormal: 1/lam is not finite
    ((7.0,), 0.0, 1.0),                         # constant: no term grows
])
def test_width_is_where_the_largest_taylor_term_reaches_one(coefficients, x, width):
    cs = ConstraintSet((ConstraintFn(coefficients),), (1.0,))
    assert cs.width(x) == pytest.approx(width, rel=1e-15)


POWERS = {1: X, 2: X2, 4: X4}


@st.composite
def _planted_fits(draw):
    """(domain, powers, multipliers): 1-3 of x, x^2, x^4 on the half-line,
    the line or [-1, 2], the highest power's multiplier at least 0.2 in
    size and positive toward every infinite end, so exp(-lam.h) decays."""
    domain = draw(st.sampled_from([HALF_LINE, REAL_LINE, SupportInterval(-1.0, 2.0)]))
    powers = draw(st.sampled_from([(1,), (2,), (4,), (1, 2), (1, 4), (2, 4), (1, 2, 4)]))
    assume(not (domain is REAL_LINE and powers == (1,)))    # x alone has no decay there
    lower = draw(st.lists(st.floats(-0.5, 0.5), min_size=len(powers) - 1,
                          max_size=len(powers) - 1))
    lead = draw(st.floats(0.2, 1.0))
    if math.isfinite(domain.upper):
        lead *= draw(st.sampled_from([-1.0, 1.0]))
    return domain, powers, (*lower, lead)


def _exact_fit(domain, powers, lams):
    """The ShannonSolution of exp(-lam.h) with mu = log Z and targets E[h]
    from mpmath's tanh-sinh quadrature at 30 digits, split at 0."""
    import mpmath
    with mpmath.workdps(30):
        def integral(k):
            def f(u):
                return u ** k * mpmath.exp(-sum(l * u ** p for l, p in zip(lams, powers)))
            value, err = mpmath.quad(f, [domain.lower, 0.0, domain.upper]
                                     if domain.lower < 0.0 < domain.upper
                                     else [domain.lower, domain.upper], error=True)
            assert err < 1e-20 * abs(value) + 1e-25
            return value

        z = integral(0)
        targets = tuple(float(integral(p) / z) for p in powers)
        mu = float(mpmath.log(z))
    cs = ConstraintSet(tuple(POWERS[p] for p in powers), lams, targets=targets)
    return qb.ShannonSolution(mu=mu, cs=cs, domain=domain)


@settings(max_examples=75, deadline=None)
@given(fit=_planted_fits())
@example(fit=(HALF_LINE, (1,), (0.2,)))
@example(fit=(REAL_LINE, (1, 2, 4), (-0.5, -0.5, 0.2)))     # a tilted double well
@example(fit=(SupportInterval(-1.0, 2.0), (1, 2, 4), (0.5, 0.5, -1.0)))
def test_the_re_check_accepts_exact_fits_and_refuses_their_mutants(fit):
    from qbridge.maxent import _check_shannon_invariants
    quad = QuadratureSpec()
    s = _exact_fit(*fit)
    _check_shannon_invariants(s, quad)
    *lower, lead = s.cs.multipliers
    mutants = [replace(s, mu=s.mu + 1e-8),
               replace(s, cs=replace(s.cs, multipliers=(*lower, lead * (1.0 + 1e-7))))]
    for mutant in mutants:
        with pytest.raises(qb.SolverError, match="check failed"):
            _check_shannon_invariants(mutant, quad)
