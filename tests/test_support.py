"""The support from the roots of phi, and lam.h as one polynomial.

The properties here check qexp_support by evaluating phi(x) = 1 - (1-q)
lam.h(x) directly, with no root finder, so they stay independent of the
numpy.roots call they check.  The facts ConstraintSet holds about lam.h
(degree, end signs, slope, critical points, margin) are checked against
numpy.polynomial's polyder, polyroots and polyval.
"""

import math
import sys

import numpy as np
import numpy.polynomial.polynomial as P
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qbridge as qb
import qbridge.transform as T
from qbridge import ConstraintFn, ConstraintSet, QIndex, TransformMap, TransformSpec

EPS = sys.float_info.epsilon


def _margin_cs(q, c, delta, lam, sign):
    """A constraint set whose margin at q < 1 is (x-c)^2 + sign*delta."""
    s = 1.0 / ((1.0 - q) * lam)    # 1 - (1-q) lam h = (x-c)^2 + sign*delta
    coeffs = (s * (1.0 - sign * delta - c * c), s * 2.0 * c, -s)
    return ConstraintSet((ConstraintFn.polynomial(coeffs),), (lam,))


# ----------------------------------------------------------- regression cases

@pytest.mark.parametrize("c,delta,lam", [
    (5.0, 1e-7, 0.5), (7.3, 3e-6, 1.7), (10.0, 1e-6, 1.0),
    (12.9, 1e-5, 0.8), (15.0, 1e-7, 2.0), (8.61, 4.2e-7, 1.23),
])
def test_near_repeated_root_edge(c, delta, lam):
    # phi = (x-c)^2 - delta: the support ends at c - sqrt(delta), inside a
    # window of width 2 sqrt(delta) where phi is negative
    support = qb.qexp_support(0.5, _margin_cs(0.5, c, delta, lam, -1.0))
    edge = c - math.sqrt(delta)
    assert support.upper == pytest.approx(edge, rel=1e-9)
    assert support.lower == -math.inf


@pytest.mark.parametrize("c,delta", [(10.0, 1e-9), (5.0, 1e-12), (-3.0, 1e-10)])
def test_touching_margin_has_no_edge(c, delta):
    # phi = (x-c)^2 + delta stays positive: its complex pair is no edge
    support = qb.qexp_support(0.5, _margin_cs(0.5, c, delta, 1.0, +1.0))
    assert (support.lower, support.upper) == (-math.inf, math.inf)


def test_edge_beyond_a_million_is_finite():
    support = qb.qexp_support(0.5, ConstraintSet((ConstraintFn.identity(),), (1e-7,)))
    assert support.lower == -math.inf
    assert support.upper == pytest.approx(2e7, rel=1e-14)


# ------------------------------------------------------------------ property

def _horner(coeffs, x):
    acc = 0.0
    for a in reversed(coeffs):
        acc = acc * x + a
    return acc


def _noise(coeffs, x):
    """A bound on the rounding error of evaluating the polynomial at x."""
    return 16.0 * len(coeffs) * EPS * sum(abs(a) * abs(x) ** k for k, a in enumerate(coeffs))


def _signed(lo, hi):
    """0, or a float of either sign with magnitude in [lo, hi] (no underflow)."""
    return st.one_of(st.just(0.0), st.builds(lambda m, s: m * s, st.floats(lo, hi),
                                             st.sampled_from((-1.0, 1.0))))


_coefficient = _signed(0.01, 3.0)


@settings(max_examples=150, deadline=None)
@given(q=st.floats(0.05, 2.95).filter(lambda v: abs(v - 1.0) > 1e-3),
       coeffs=st.lists(_coefficient, min_size=2, max_size=5),
       lam=st.floats(0.1, 2.0), anchor=st.floats(-2.0, 2.0))
@example(q=0.5, coeffs=[1.0, 2.0, -1.0], lam=1.0, anchor=0.0)    # phi = (x-1)^2 / 2 touches 0
@example(q=0.5, coeffs=[0.0, 0.0, 0.0, 0.0, 1.0], lam=1.0, anchor=0.0)
@example(q=1.5, coeffs=[0.0, 1.0], lam=1.0, anchor=0.0)
def test_support_edges_are_sign_changes_of_phi(q, coeffs, lam, anchor):
    assume(any(a != 0.0 for a in coeffs[1:]))
    cs = ConstraintSet((ConstraintFn.polynomial(coeffs),), (lam,))
    phi_coeffs = [-(1.0 - q) * a for a in cs.combined_coefficients()]
    phi_coeffs[0] += 1.0
    slope_coeffs = [k * a for k, a in enumerate(phi_coeffs)][1:]

    def phi(x):
        return _horner(phi_coeffs, x)

    assume(phi(anchor) > _noise(phi_coeffs, anchor))
    support = qb.qexp_support(q, cs, anchor=anchor)
    assert support.lower < anchor < support.upper
    for edge, direction in ((support.lower, -1.0), (support.upper, 1.0)):
        if math.isinf(edge):
            # no sign change out to 1e8 on a geometric grid
            far = anchor + direction * np.geomspace(1e-6, 1e8, 4000)
            assert all(phi(float(x)) > 0.0 for x in far)
            continue
        step = 1e-6 * max(1.0, abs(edge))
        inside, outside = edge - direction * step, edge + direction * step
        assert phi(inside) > 0.0
        # the edge is a root of phi to bisection's precision
        slope = abs(_horner(slope_coeffs, edge))
        assert abs(phi(edge)) <= _noise(phi_coeffs, edge) + slope * 2e-14 * max(1.0, abs(edge))
        if slope * step > 1e3 * _noise(phi_coeffs, outside):
            # a simple crossing; where phi only touches 0, or crosses back
            # within `step`, the edge is still the first zero of phi
            assert phi(outside) <= 0.0
        between = np.linspace(anchor, inside, 2001)
        assert all(phi(float(x)) > 0.0 for x in between)


XTOL, RTOL = 1e-14, 8.9e-16     # the edge polish's stopping test, as scipy bisect's


@settings(max_examples=200, deadline=None)
@given(q=st.floats(0.01, 1.99).filter(lambda v: abs(v - 1.0) > 1e-3),
       coeffs=st.lists(_coefficient, min_size=2, max_size=5),
       lam=st.floats(0.1, 2.0), anchor=st.floats(-2.0, 2.0))
@example(q=0.5, coeffs=[0.0, 0.0, 0.0, 0.0, 1.0], lam=1.0, anchor=0.0)
@example(q=1.5, coeffs=[0.0, -1.0, 0.0, 1.0], lam=1.0, anchor=0.0)
def test_edges_are_sign_changes_within_xtol(q, coeffs, lam, anchor):
    # the polished edge lies within a few xtol of a sign change of phi, and
    # phi stays positive from the anchor up to that distance of the edge
    assume(any(a != 0.0 for a in coeffs[1:]))
    cs = ConstraintSet((ConstraintFn.polynomial(coeffs),), (lam,))
    phi_coeffs = [-(1.0 - q) * a for a in cs.combined_coefficients()]
    phi_coeffs[0] += 1.0
    slope_coeffs = [k * a for k, a in enumerate(phi_coeffs)][1:]

    def phi(x):
        return _horner(phi_coeffs, x)

    assume(phi(anchor) > _noise(phi_coeffs, anchor))
    support = qb.qexp_support(q, cs, anchor=anchor)
    for edge, direction in ((support.lower, -1.0), (support.upper, 1.0)):
        if math.isinf(edge):
            continue
        delta = 4.0 * (XTOL + RTOL * abs(edge))
        inside, outside = edge - direction * delta, edge + direction * delta
        noise = max(_noise(phi_coeffs, inside), _noise(phi_coeffs, outside))
        assert phi(inside) > -noise
        assert phi(outside) < noise
        if abs(_horner(slope_coeffs, edge)) * delta > 4.0 * noise:   # resolvable
            assert phi(inside) > 0.0 >= phi(outside)
        between = np.linspace(anchor, edge - direction * 1e-3 * abs(edge - anchor), 501)
        assert all(phi(float(x)) > 0.0 for x in between)


def test_edges_are_polished_without_scipy(monkeypatch):
    import scipy.optimize

    def refuse(*args, **kwargs):
        raise AssertionError("scipy root finder called")

    for name in ("bisect", "brentq"):
        monkeypatch.setattr(scipy.optimize, name, refuse)
        if hasattr(T, name):
            monkeypatch.setattr(T, name, refuse)
    cs = ConstraintSet((ConstraintFn.polynomial((0.0, 0.0, 0.0, 0.0, 1.0)),), (1.0,))
    support = qb.qexp_support(0.5, cs)
    assert support.upper == pytest.approx(2.0 ** 0.25, rel=1e-15)
    assert support.lower == pytest.approx(-(2.0 ** 0.25), rel=1e-15)
    support = qb.qexp_support(0.5, _margin_cs(0.5, 10.0, 1e-6, 1.0, -1.0))
    assert support.upper == pytest.approx(10.0 - 1e-3, rel=1e-9)


# ------------------------------------------------------- one-Horner potential

@settings(max_examples=150, deadline=None)
@given(polys=st.lists(st.lists(_signed(1e-3, 10.0), min_size=2, max_size=6),
                      min_size=1, max_size=3),
       lams=st.lists(_signed(1e-3, 5.0), min_size=3, max_size=3),
       x=_signed(1e-6, 50.0))
def test_potential_is_the_sum_of_the_terms(polys, lams, x):
    assume(all(any(a != 0.0 for a in p[1:]) for p in polys))
    constraints = tuple(ConstraintFn.polynomial(p) for p in polys)
    cs = ConstraintSet(constraints, lams[:len(polys)])
    terms = [m * c.value(x) for m, c in zip(cs.multipliers, constraints)]
    # both sides round each power term: the bound is on their magnitudes
    scale = sum(abs(m * a) * abs(x) ** k
                for m, p in zip(cs.multipliers, polys) for k, a in enumerate(p))
    assert abs(cs.potential(x) - math.fsum(terms)) <= 16.0 * EPS * scale


def test_cached_coefficients_leave_equality_hash_and_repr_alone():
    fns = (ConstraintFn.identity(), ConstraintFn.polynomial((1.0, -2.0, 0.5)))
    used = ConstraintSet(fns, (0.3, -1.2), targets=(1.0, 2.0))
    fresh = ConstraintSet(fns, (0.3, -1.2), targets=(1.0, 2.0))
    used.potential(1.5)
    used.potential_slope(1.5)
    used.critical_points
    used.combined_coefficients()
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert "_slope" not in repr(used) and "_ascending" not in repr(used)
    assert "critical_points" not in repr(used)
    assert used.combined_coefficients() == (-1.2, 0.3 + 2.4, -0.6)


# ------------------------------------------------- TransformMap owns its support

def test_map_inversion_reuses_the_stored_support(monkeypatch):
    cs = ConstraintSet((ConstraintFn.polynomial((0.0, 0.0, 0.0, 0.0, 1.0)),), (1.0,))
    spec = TransformSpec(QIndex(0.5), cs)
    calls = []
    real = T.qexp_support
    monkeypatch.setattr(T, "qexp_support",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    map_ = TransformMap.from_spec(spec)
    assert len(calls) == 1
    u = map_.u(0.7)
    assert map_.x(u) == pytest.approx(0.7, rel=1e-9)
    assert len(calls) == 1
    assert map_.x(u) == qb.x_of_u(u, spec)


# ------------------------------------------------------ the facts about lam.h

# observables of degree 1-4, some padded with trailing zeros (poly:0,1,0)
_observables = st.integers(1, 4).flatmap(
    lambda d: st.tuples(st.lists(_signed(0.01, 3.0), min_size=d, max_size=d),
                        _signed(0.1, 3.0).filter(lambda a: a != 0.0),
                        st.integers(0, 2))
    .map(lambda p: (*p[0], p[1]) + (0.0,) * p[2]))
_sets = st.lists(st.tuples(_observables, _signed(0.1, 2.0)), min_size=1, max_size=3)


def _oracle(terms):
    """lam.h's ascending coefficients, trailing zeros trimmed, by numpy."""
    total = np.zeros(1)
    for coeffs, lam in terms:
        total = P.polyadd(total, lam * np.array(coeffs))
    return P.polytrim(total)


def _cs(terms):
    return ConstraintSet(tuple(ConstraintFn.polynomial(c) for c, _ in terms),
                         tuple(lam for _, lam in terms))


@settings(max_examples=200, deadline=None)
@given(terms=_sets, xs=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=5),
       q=st.floats(0.05, 2.95))
def test_constraint_set_holds_the_facts_about_lam_h(terms, xs, q):
    cs, coeffs = _cs(terms), _oracle(terms)
    degree = len(coeffs) - 1
    assert cs.degree == degree
    assert cs.combined_coefficients() == tuple(coeffs.tolist())

    # past twice the Cauchy bound lam.h has no root and its top term dominates
    for direction in (1.0, -1.0):
        if degree == 0:
            assert cs.end_sign(direction) == 0
        else:
            far = 2.0 * (1.0 + max(abs(a / coeffs[-1]) for a in coeffs))
            assert cs.end_sign(direction) == np.sign(P.polyval(direction * far, coeffs))

    slope = P.polyder(coeffs)
    grid = np.array(xs)
    along = cs.potential_slope(grid)
    assert isinstance(along, np.ndarray)
    for x, value in zip(xs, along):
        assert cs.potential_slope(x) == value
        scale = sum(abs(a) * abs(x) ** k for k, a in enumerate(slope))
        assert abs(value - P.polyval(x, slope)) <= 8.0 * EPS * scale
        terms_scale = 1.0 + abs(1.0 - q) * sum(abs(a) * abs(x) ** k for k, a in enumerate(coeffs))
        phi = 1.0 - (1.0 - q) * P.polyval(x, coeffs)
        assert abs(cs.margin(q, x) - phi) <= 8.0 * EPS * terms_scale
    assert np.array_equal(cs.margin(q, grid), [cs.margin(q, x) for x in xs])

    points = cs.critical_points
    assert list(points) == sorted(set(points))
    if degree < 2:
        assert points == ()
        return
    expected = P.polyroots(slope).real.tolist()
    # both sides are eigenvalues of a companion matrix, within a multiple
    # root's eps^(1/3) of each other
    tol = 1e-4 * (1.0 + max(abs(a / slope[-1]) for a in slope))
    assert all(min(abs(r - e) for e in expected) <= tol for r in points)
    assert all(min(abs(r - e) for r in points) <= tol for e in expected)


# ------------------------------------------------ a cubic slope in closed form

@settings(max_examples=200, deadline=None)
@given(lead=_signed(0.05, 5.0).filter(lambda a: a != 0.0), r=st.floats(-3.0, 3.0), s=st.floats(-3.0, 3.0),
       t=st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]) | st.floats(-2.0, 2.0),
       pair=st.booleans())
@example(lead=1.0, r=0.5, s=0.5, t=0.0, pair=False)         # a triple root
@example(lead=2.0, r=-1.0, s=1.0, t=1e-9, pair=False)       # a near-double root
@example(lead=2.0, r=-1.0, s=1.0, t=1e-9, pair=True)        # a near-real pair
@example(lead=0.4, r=0.3, s=-0.2, t=1.5, pair=True)
def test_cubic_critical_points_match_numpy_roots(lead, r, s, t, pair):
    # (lam.h)' = lead (x - r)(x - s - t)(x - s + t), or, with `pair`,
    # lead (x - r)((x - s)^2 + t^2): the real roots, and the real part s
    # of a complex pair, as numpy.roots gives them
    quadratic = (s * s + t * t, -2.0 * s, 1.0) if pair else (s * s - t * t, -2.0 * s, 1.0)
    slope = P.polymul((-r, 1.0), quadratic) * lead
    cs = ConstraintSet((ConstraintFn.polynomial(P.polyint(slope).tolist()),), (1.0,))
    points = cs.critical_points
    expected = sorted(set(np.roots(cs._slope[::-1]).real.tolist()))
    assert list(points) == sorted(set(points))
    # a double or triple root is found to ~eps^(1/2) or eps^(1/3) on either
    # side, and roots closer than 0.1 lose digits as their spread shrinks
    roots = (r, s - t, s + t)
    spread = min(abs(roots[i] - roots[j]) for i in range(3) for j in range(i))
    tol = (1e-12 if spread > 0.1 else 2e-5) * (1.0 + abs(r) + abs(s) + abs(t))
    assert all(min(abs(p - e) for e in expected) <= tol for p in points)
    assert all(min(abs(p - e) for p in points) <= tol for e in expected)


def test_a_cubic_slope_takes_no_eigen_solve(monkeypatch):
    monkeypatch.setattr(np, "roots", lambda p: pytest.fail("numpy.roots called"))
    cs = ConstraintSet((ConstraintFn.identity(), ConstraintFn.square(),
                        ConstraintFn.polynomial((0.0, 0.0, 0.0, 0.0, 1.0))), (-0.5, -0.5, 0.2))
    # (lam.h)' = 0.8 x^3 - x - 0.5: one real root and a complex pair
    assert cs.critical_points == pytest.approx((-0.6568412711779585, 1.313682542355915),
                                               rel=1e-15)
