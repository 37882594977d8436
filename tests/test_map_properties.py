"""Properties of the canonical (c = 0) map over the whole (q, polynomial,
anchor) space, away from the guard bands around q = 1 and q = 2."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qbridge as qb

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
