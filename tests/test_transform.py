import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

import qbridge as qb
from qbridge import ConstraintFn, ConstraintSet, QIndex, TransformMap, TransformSpec

from conftest import identity_cs, interior_grid, square_cs
from oracles import slope_matches_finite_difference


def make_spec(q, cs=None, **kw):
    return TransformSpec(QIndex(q), cs if cs is not None else identity_cs(), **kw)


# ---------------------------------------------------------------- constraints

def test_constraint_slopes_match_finite_differences():
    grid = np.linspace(-3.0, 3.0, 25)
    for fn in (ConstraintFn.identity(), ConstraintFn.square(),
               ConstraintFn.polynomial([1.0, -2.0, 0.5, 3.0])):
        assert slope_matches_finite_difference(fn, grid)


def test_constraint_values():
    poly = ConstraintFn.polynomial([1.0, 0.0, 2.0])
    assert poly.value(2.0) == 9.0
    assert poly.slope(2.0) == 8.0
    assert ConstraintFn.square().value(-3.0) == 9.0
    assert ConstraintFn.identity().slope(17.0) == 1.0


def test_constraint_set_validation():
    with pytest.raises(qb.ConfigurationError):
        ConstraintSet((), ())
    with pytest.raises(qb.ConfigurationError):
        ConstraintSet((ConstraintFn.identity(),), (1.0, 2.0))
    with pytest.raises(qb.ConfigurationError):
        ConstraintSet((ConstraintFn.identity(),), (1.0,), targets=(1.0, 2.0))
    with pytest.raises(qb.ConfigurationError):
        ConstraintFn.polynomial([4.0])  # constant observable


def test_combined_coefficients_and_linear_detection():
    cs = ConstraintSet((ConstraintFn.identity(), ConstraintFn.square()),
                       (0.5, 0.3))
    assert cs.combined_coefficients() == (0.0, 0.5, 0.3)
    assert cs.linear_coefficient() is None
    two_identities = ConstraintSet(
        (ConstraintFn.identity(), ConstraintFn.identity()), (0.25, 0.75))
    assert two_identities.linear_coefficient() == 1.0
    assert identity_cs(2.0).potential_slope(11.0) == 2.0


# -------------------------------------------------------------------- support

def test_support_mean_constraint_below_one():
    support = qb.qexp_support(0.5, identity_cs())
    assert support.lower == -math.inf
    assert support.upper == pytest.approx(2.0, abs=1e-12)
    assert not support.contains(support.upper)


def test_support_classical_is_everything():
    support = qb.qexp_support(1.0, identity_cs(123.0))
    assert (support.lower, support.upper) == (-math.inf, math.inf)


def test_support_mean_constraint_above_one():
    support = qb.qexp_support(1.5, identity_cs())
    assert support.lower == pytest.approx(-2.0, abs=1e-12)
    assert support.upper == math.inf


def test_support_square_constraint():
    support = qb.qexp_support(0.5, square_cs())
    assert support.lower == pytest.approx(-math.sqrt(2.0), abs=1e-12)
    assert support.upper == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_support_anchor_outside_raises():
    cs = ConstraintSet((ConstraintFn.polynomial([5.0, 1.0]),), (1.0,))
    with pytest.raises(qb.ConfigurationError):
        qb.qexp_support(0.5, cs)  # margin at 0 is 1 - 0.5*5 < 0


# ---------------------------------------------------------------- closed form

def test_general_form_collapses_at_c_zero():
    rng = np.random.default_rng(7)
    for q in (0.4, 0.9, 1.2, 1.7, 2.4):
        spec = make_spec(q)
        support = qb.qexp_support(q, spec.cs)
        lo = max(support.lower, -4.0)
        hi = min(support.upper, 4.0)
        for _ in range(100):
            x = float(rng.uniform(lo + 0.01, hi - 0.01))
            assert abs(qb.g_general(x, spec) - qb.g_canonical(x, spec)) < 1e-13


def test_general_form_at_c_zero_needs_no_q_exp():
    # e_q(-3 x^4) underflows to 0 at x = 5 for q = 1 + 1e-8; g = phi/(2-q) does not
    quartic = ConstraintSet((ConstraintFn.polynomial([0.0, 0.0, 0.0, 0.0, 3.0]),), (1.0,))
    spec = make_spec(1.00000001, quartic)
    assert qb.q_exp(-quartic.potential(5.0), spec.q) == 0.0
    assert qb.g_general(5.0, spec) == qb.g_canonical(5.0, spec)
    assert TransformMap.from_spec(make_spec(1.0)).g(1e3) == 1.0


def test_general_form_classical_limit_with_constant():
    spec = make_spec(1.0, c=0.2)
    for x in (-1.0, 0.0, 0.5, 2.0):
        assert qb.g_general(x, spec) == pytest.approx(1.0 + 0.2 * math.exp(x),
                                                      rel=1e-15)


def test_classical_map_with_constant_is_unsupported():
    spec = make_spec(1.0, c=0.5)
    for call in (lambda: qb.u_of_x(1.0, spec), lambda: qb.x_of_u(1.0, spec),
                 lambda: qb.u_image(spec), lambda: TransformMap.from_spec(spec)):
        with pytest.raises(qb.UnsupportedRegimeError):
            call()
    assert qb.u_of_x(1.0, make_spec(1.0)) == 1.0


def test_general_form_value():
    # e_q(-1) = 0.25 at q = 0.5; 4*(0.25^1.5/1.5 + 0.2)
    spec = make_spec(0.5, c=0.2)
    expected = 4.0 * (0.25 ** 1.5 / 1.5 + 0.2)
    assert qb.g_general(1.0, spec) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(1.13333, abs=5e-6)


def test_general_form_outside_support_raises():
    spec = make_spec(0.5)
    with pytest.raises(qb.DomainError):
        qb.g_general(3.0, spec)


def test_singular_band_rejected_at_spec_construction():
    with pytest.raises(qb.SingularIndexError):
        make_spec(2.0)
    with pytest.raises(qb.SingularIndexError):
        make_spec(2.0 + 1e-8)


def test_canonical_values():
    assert qb.g_canonical(3.7, make_spec(1.0)) == 1.0
    assert qb.g_canonical(0.5, make_spec(1.5)) == pytest.approx(2.5, rel=1e-15)
    # h(x) = 0 gives 1/(2-q)
    assert qb.g_canonical(0.0, make_spec(0.25)) == pytest.approx(1.0 / 1.75,
                                                                 rel=1e-15)
    pair = ConstraintSet((ConstraintFn.identity(), ConstraintFn.square()),
                         (1.0, 1.0))
    expected = (1.0 - 0.5 * 0.75) / 1.5
    assert qb.g_canonical(0.5, make_spec(0.5, pair)) == pytest.approx(
        expected, rel=1e-15)
    assert expected == pytest.approx(0.416667, abs=5e-7)
    assert qb.g_canonical(0.5, make_spec(2.5)) == pytest.approx(-3.5, rel=1e-15)


def test_canonical_defined_at_edge():
    spec = make_spec(0.5)
    assert qb.g_canonical(2.0, spec) == 0.0


# ------------------------------------------------------------------- jacobian

def test_jacobian_classical_is_one():
    assert TransformMap.from_spec(make_spec(1.0)).J(11.0) == 1.0


def test_jacobian_reciprocal_identity():
    for q in (0.5, 1.3, 2.5):
        map_ = TransformMap.from_spec(make_spec(q))
        for x in interior_grid(q, map_.spec.cs, n=25):
            assert abs(map_.J(x) * qb.g_canonical(x, map_.spec) - 1.0) < 1e-14


def test_jacobian_edge_error_carries_location():
    map_ = TransformMap.from_spec(make_spec(0.5))
    with pytest.raises(qb.EdgeSingularityError) as err:
        map_.J(2.0)
    assert err.value.edge == 2.0


# ----------------------------------------------------------------------- maps

def test_u_classical_is_identity():
    spec = make_spec(1.0)
    for x in (-2.0, 0.0, 3.5):
        assert qb.u_of_x(x, spec) == x
        assert qb.x_of_u(x, spec) == x


def test_u_closed_form_value():
    spec = make_spec(0.5)
    assert qb.u_of_x(1.0, spec) == pytest.approx(3.0 * math.log(2.0), rel=1e-14)


def test_u_closed_form_matches_numeric_quadrature():
    # independent oracle: direct quadrature of J along the path
    spec = make_spec(1.5)
    map_ = TransformMap.from_spec(spec)
    for x in np.linspace(0.5, 10.0, 12):
        numeric, _ = scipy_quad(map_.J, 0.0, x, epsabs=1e-13, epsrel=1e-13)
        assert abs(qb.u_of_x(float(x), spec) - numeric) < 1e-9


def test_u_respects_anchor():
    spec = make_spec(0.5, anchor_x=0.5, anchor_u=3.0)
    assert qb.u_of_x(0.5, spec) == 3.0
    assert qb.x_of_u(3.0, spec) == pytest.approx(0.5, abs=1e-12)


def test_u_outside_support_raises():
    with pytest.raises(qb.DomainError):
        qb.u_of_x(2.5, make_spec(0.5))


def test_x_of_u_round_trip_value():
    spec = make_spec(0.5)
    assert qb.x_of_u(3.0 * math.log(2.0), spec) == pytest.approx(1.0, abs=1e-10)


def test_x_of_u_random_round_trips():
    rng = np.random.default_rng(5)
    spec = make_spec(1.5)
    for u in rng.uniform(-5.0, 5.0, size=100):
        assert abs(qb.u_of_x(qb.x_of_u(float(u), spec), spec) - u) < 1e-9


def test_general_constraint_map_round_trip_and_range():
    spec = make_spec(1.5, square_cs())
    lo, hi = qb.u_image(spec)
    assert hi == pytest.approx(math.pi / (2.0 * math.sqrt(2.0)), rel=1e-10)
    assert lo == pytest.approx(-hi, rel=1e-10)
    for u in (-1.0, -0.25, 0.6, 1.05):
        x = qb.x_of_u(u, spec)
        assert abs(qb.u_of_x(x, spec) - u) < 1e-9
    with pytest.raises(qb.RangeError):
        qb.x_of_u(1.2, spec)


def test_u_image_tail_checks_quadrature_convergence(monkeypatch):
    # the improper tail of u's image must not pass off an unconverged estimate
    import warnings

    import qbridge.quadrature
    from scipy.integrate import IntegrationWarning

    def unconverged(f, a, b, **kwargs):
        warnings.warn("maximum number of subdivisions reached", IntegrationWarning)
        return 1.0, 1.0

    spec = make_spec(1.5, square_cs())
    monkeypatch.setattr(qbridge.quadrature, "quad", unconverged)
    with pytest.raises(qb.QuadratureError):
        qb.u_image(spec)


def test_path_crossing_zero_raises_for_nonzero_constant():
    # with c = -0.4 the general form changes sign inside the support
    spec = make_spec(1.5, c=-0.4)
    with pytest.raises(qb.EdgeSingularityError) as err:
        qb.u_of_x(8.0, spec)
    assert err.value.edge == 8.0


X, X2 = (0.0, 1.0), (0.0, 0.0, 1.0)
INF = math.inf
# (q, lam.h, c, ends of u's image): an end is +-inf, or the x at which the
# oracle's integral of 1/g from the anchor 0 ends.
NONZERO_C_IMAGES = [
    (1.5, X, 0.3, (-INF, ("x", INF))),
    (1.2, X, 0.5, (-INF, ("x", INF))),
    (1.5, X2, 0.2, (("x", -INF), ("x", INF))),
    (2.5, X, -0.3, (-INF, ("x", -2.0 / 3.0))),
    (0.5, X, 0.3, (-INF, ("x", 2.0))),
    (2.5, X, 0.3, (-INF, INF)),
    (3.0, X, 0.2, (-INF, INF)),
    (0.5, X, -0.3, (-INF, INF)),
    (1.5, X, -0.4, (-INF, INF)),
    (0.5, X2, 0.2, (("x", -math.sqrt(2.0)), ("x", math.sqrt(2.0)))),
]


# QUADPACK warns of roundoff at the algebraic singularity of 1/g at the
# q = 2.5 support edge; its own error estimate is checked instead.
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("q,coeffs,c,ends", NONZERO_C_IMAGES)
def test_u_image_with_constant_matches_quadrature(q, coeffs, c, ends):
    def g(x):   # the paper's form, e_q^{-1} [e_q^{2-q}/(2-q) + c]
        e = (1.0 - (1.0 - q) * sum(a * x ** k for k, a in enumerate(coeffs))) ** (1.0 / (1.0 - q))
        return (e ** (2.0 - q) / (2.0 - q) + c) / e

    spec = make_spec(q, ConstraintSet((ConstraintFn.polynomial(coeffs),), (1.0,)), c=c)
    image = qb.u_image(spec)
    assert TransformMap.from_spec(spec).u_image == image
    for got, end in zip(image, ends):
        if isinstance(end, float):
            assert got == end
        else:
            want, err = scipy_quad(lambda x: 1.0 / g(x), 0.0, end[1], epsabs=0.0,
                                   epsrel=1e-12, limit=200)
            assert err < 1e-9 * abs(want)
            assert got == pytest.approx(want, rel=1e-8)


def test_u_image_integrates_the_edge_singularity_above_two():
    # q = 2.5, h = -x^2, c = -0.3: 1/g ~ phi^{-2/3} at the edges +-(q-1)^{-1/2}.
    # Oracle: x = cos(t)/sqrt(q-1) makes phi = sin(t)^2 exact near the edge.
    q, c = 2.5, -0.3
    spec = make_spec(q, ConstraintSet((ConstraintFn.square(),), (-1.0,)), c=c)

    def integrand(t):
        phi = math.sin(t) ** 2
        return math.sin(t) / math.sqrt(q - 1.0) / (phi / (2.0 - q) + c * phi ** (1.0 / (q - 1.0)))

    want, err = scipy_quad(integrand, 0.0, math.pi / 2.0, epsabs=0.0, epsrel=1e-13)
    assert err < 1e-12 * abs(want)
    lo, hi = qb.u_image(spec)
    assert lo == pytest.approx(want, rel=1e-10) and hi == -lo

# --------------------------------------------------------------- ode residual

def test_residual_of_unit_function():
    spec = make_spec(0.5)
    assert qb.ode_residual(1.0, spec, 1.0, 0.0) == pytest.approx(-1.0, rel=1e-14)


def test_residual_zero_for_canonical_solution():
    for q in (0.5, 1.3, 1.8, 2.5):
        for cs in (identity_cs(), square_cs()):
            spec = make_spec(q, cs)
            slope_scale = -(1.0 - q) / (2.0 - q)
            for x in interior_grid(q, cs, n=100):
                res = qb.ode_residual(x, spec, qb.g_canonical(x, spec),
                                      slope_scale * cs.potential_slope(x))
                assert abs(res) < 1e-10


def test_residual_small_for_general_family_with_fd_slope():
    spec = make_spec(0.5, c=0.2)
    step = 1e-6
    for x in np.linspace(-1.0, 1.5, 9):
        slope = (qb.g_general(x + step, spec) - qb.g_general(x - step, spec)) \
            / (2.0 * step)
        res = qb.ode_residual(x, spec, qb.g_general(x, spec), slope)
        assert abs(res) < 1e-6


# ----------------------------------------------------------------- asymptotics

def test_expansion_near_classical_values():
    assert qb.expand_g_near_q1(0.3, 2.0, 0.0) == 1.0
    assert qb.expand_g_near_q1(1.0, 1.0, 0.01) == pytest.approx(0.98, rel=1e-15)
    with pytest.raises(qb.DomainError):
        qb.expand_g_near_q1(1.0, 1.0, 0.6)


def test_expansion_error_is_second_order():
    lam = 1.0
    for x in (0.5, 1.0, 2.0):
        def gap(eps):
            exact = qb.g_canonical(x, make_spec(1.0 - eps, identity_cs(lam)))
            return abs(exact - qb.expand_g_near_q1(x, lam, eps))
        assert gap(1e-2) / gap(5e-3) >= 3.5


def test_near_two_values_and_sign_flip():
    assert qb.g_near_q2(1.0, 1.0, 0.1) == pytest.approx(19.0, rel=1e-13)
    assert qb.g_near_q2(1.0, 1.0, -0.1) == pytest.approx(-21.0, rel=1e-13)
    with pytest.raises(qb.SingularIndexError):
        qb.g_near_q2(1.0, 1.0, 0.0)


def test_near_two_is_reparameterized_closed_form():
    spec = make_spec(1.9)
    for x in (-0.5, 0.2, 1.0, 4.0):
        assert qb.g_near_q2(x, 1.0, 0.1) == pytest.approx(
            qb.g_canonical(x, spec), rel=1e-13)


# ------------------------------------------------------------------ invariants

def test_sign_law_on_support_probes():
    for q in (0.5, 1.3, 1.8, 2.2, 2.5):
        spec = make_spec(q)
        expected = 1.0 if q < 2.0 else -1.0
        for x in interior_grid(q, spec.cs, n=50, clip=10.0):
            if spec.cs.potential(x) <= -1.0:
                continue
            assert math.copysign(1.0, qb.g_canonical(x, spec)) == expected


def test_u_strictly_increasing_below_two():
    for q in (0.5, 1.5):
        spec = make_spec(q)
        xs = interior_grid(q, spec.cs, n=80)
        us = [qb.u_of_x(float(x), spec) for x in xs]
        assert all(b > a for a, b in zip(us, us[1:]))
        map_ = TransformMap.from_spec(spec)
        assert all(map_.J(float(x)) > 0.0 for x in xs)


def test_classical_collapse_bound():
    for q in (1.0 - 1e-3, 1.0 + 1e-4, 1.0 - 1e-5):
        spec = make_spec(q)
        worst = max(abs(qb.g_canonical(x, spec) - 1.0)
                    for x in np.linspace(-3.0, 3.0, 61))
        assert worst <= 5.0 * abs(q - 1.0) * (1.0 + 3.0)


def test_map_bundles_orientation_and_reciprocal():
    for q in (0.5, 1.5, 2.5):
        map_ = TransformMap.from_spec(make_spec(q))
        assert map_.orientation == (1 if q < 2.0 else -1)
        for x in interior_grid(q, map_.spec.cs, n=20):
            assert map_.g(float(x)) * map_.J(float(x)) == pytest.approx(1.0,
                                                                        abs=1e-14)


def test_map_round_trip_through_bundle():
    map_ = TransformMap.from_spec(make_spec(0.5))
    for x in interior_grid(0.5, map_.spec.cs, n=30):
        assert map_.x(map_.u(float(x))) == pytest.approx(float(x), abs=1e-9)


def test_anchor_must_be_inside_support():
    with pytest.raises(qb.ConfigurationError):
        make_spec(0.5, anchor_x=2.5)
