"""Properties of the map over the whole (q, polynomial, anchor, c) space,
away from the guard bands around q = 1 and q = 2."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qbridge as qb
from qbridge.qkernel import EPS_Q2

EPS = 2.0 ** -52

qs = st.floats(0.05, 2.95).filter(lambda q: abs(q - 1.0) > 0.02 and abs(q - 2.0) > 0.02)
coefficient = st.floats(-2.0, 2.0)
leading = st.one_of(st.floats(-2.0, -0.1), st.floats(0.1, 2.0))
polynomials = st.integers(1, 4).flatmap(
    lambda d: st.tuples(st.lists(coefficient, min_size=d, max_size=d), leading)
    .map(lambda parts: (*parts[0], parts[1])))
fractions = st.lists(st.floats(0.05, 0.95), min_size=3, max_size=3)


@settings(max_examples=100, deadline=None)
@given(q=qs, coeffs=polynomials, anchor=st.floats(-2.0, 2.0), fractions=fractions)
def test_folded_map_is_consistent(q, coeffs, anchor, fractions):
    cs = qb.ConstraintSet((qb.ConstraintFn.polynomial(coeffs),), (1.0,))
    assume(1.0 - (1.0 - q) * cs.potential(anchor) > 1e-3)
    spec = qb.TransformSpec(qb.QIndex(q), cs, anchor_x=anchor)
    map_ = qb.TransformMap.from_spec(spec)
    lo = max(map_.support.lower, anchor - 5.0)
    hi = min(map_.support.upper, anchor + 5.0)
    for f in fractions:
        x = lo + f * (hi - lo)
        g = map_.g(x)
        assert g == qb.g_canonical(x, spec)
        assert abs(g * map_.J(x) - 1.0) <= 4.0 * EPS
        assert abs(map_.x(map_.u(x)) - x) < 1e-9 * max(1.0, abs(x))


qs_with_constant = st.floats(0.2, 3.0).filter(
    lambda q: abs(q - 1.0) >= 1e-3 and abs(q - 2.0) >= EPS_Q2)


@settings(max_examples=100, deadline=None)
@given(q=qs_with_constant, coeffs=polynomials, c=st.floats(-0.5, 0.5), fractions=fractions)
def test_map_with_constant_round_trips(q, coeffs, c, fractions):
    # x(u(x)) = x inside the interval where g keeps its sign, or a typed error
    cs = qb.ConstraintSet((qb.ConstraintFn.polynomial(coeffs),), (1.0,))
    assume(1.0 - (1.0 - q) * cs.potential(0.0) > 1e-3)
    spec = qb.TransformSpec(qb.QIndex(q), cs, c=c)
    try:
        map_ = qb.TransformMap.from_spec(spec)
        lo, hi = spec._sign_interval
        lo, hi = max(lo, -5.0), min(hi, 5.0)
        for f in fractions:
            x = lo + f * (hi - lo)
            u = map_.u(x)
            # u fixes x only to one ulp of u times |g|: where g is that large
            # no inverse can meet the tolerance, so there is nothing to check
            if abs(map_.g(x)) * EPS * max(1.0, abs(u)) > 1e-10 * max(1.0, abs(x)):
                continue
            assert abs(map_.x(u) - x) < 1e-9 * max(1.0, abs(x))
    except qb.QBridgeError:
        pass
