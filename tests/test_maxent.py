import json
import math

import numpy as np
import pytest

import qbridge as qb
from qbridge import (
    ConstraintFn,
    ConstraintSet,
    QIndex,
    QuadratureSpec,
    SupportInterval,
    TransformMap,
    TransformSpec,
    integrate,
)

from conftest import HALF_LINE, REAL_LINE, identity_cs, matched_solutions, square_cs
from oracles import InstabilityError, LinearODE, check_square_integrable, solve_ode_numeric


# ---------------------------------------------------------------- quadrature

def test_integrate_polynomial(quad):
    assert integrate(lambda x: x, SupportInterval(0.0, 1.0), quad) == \
        pytest.approx(0.5, rel=1e-12)


def test_integrate_exponential_tail(quad):
    assert integrate(math.exp, SupportInterval(-math.inf, 0.0), quad) == \
        pytest.approx(1.0, rel=1e-12)
    assert integrate(lambda u: math.exp(-u), HALF_LINE, quad) == \
        pytest.approx(1.0, rel=1e-12)


def test_integrate_cutoff_density(quad):
    value = integrate(lambda x: qb.q_exp(-x, 0.5), SupportInterval(0.0, 2.0), quad)
    assert value == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_integrate_divergent_raises(quad):
    with pytest.raises(qb.QuadratureError) as err:
        integrate(lambda x: 1.0 / (1.0 + x), HALF_LINE, quad)
    assert err.value.estimate is not None


def test_truncated_bound_finds_negligible_tail(quad):
    from qbridge.quadrature import truncated_bound
    cut = truncated_bound(lambda u: math.exp(-u), 0.0, 1.0, quad)
    assert cut > 25.0  # exp(-25) ~ 1e-11, below the 1e-12 mass cut


def test_quadrature_spec_validation():
    with pytest.raises(qb.ConfigurationError):
        QuadratureSpec(rel_tol=0.0)
    tight = QuadratureSpec().tightened(10.0)
    assert tight.rel_tol == pytest.approx(1e-11)


# ------------------------------------------------------------- shannon solver

def test_shannon_unit_mean(quad):
    s = qb.solve_shannon(identity_cs(target=1.0), HALF_LINE, quad)
    assert s.cs.multipliers[0] == pytest.approx(1.0, abs=1e-8)
    assert s.mu == pytest.approx(0.0, abs=1e-8)


def test_shannon_mean_two(quad):
    s = qb.solve_shannon(identity_cs(target=2.0), HALF_LINE, quad)
    assert s.cs.multipliers[0] == pytest.approx(0.5, abs=1e-8)
    assert s.mu == pytest.approx(math.log(2.0), abs=1e-8)


def test_shannon_unit_variance(quad):
    s = qb.solve_shannon(square_cs(target=1.0), REAL_LINE, quad)
    assert s.cs.multipliers[0] == pytest.approx(0.5, abs=1e-8)
    assert s.mu == pytest.approx(math.log(math.sqrt(2.0 * math.pi)), abs=1e-8)


def test_shannon_two_constraints(quad):
    cs = ConstraintSet((ConstraintFn.identity(), ConstraintFn.square()),
                       (1.0, 1.0), targets=(1.0, 2.0))
    s = qb.solve_shannon(cs, REAL_LINE, quad)
    # Gaussian with mean 1 and variance 1: multipliers (-1, 0.5)
    assert s.cs.multipliers[0] == pytest.approx(-1.0, abs=1e-7)
    assert s.cs.multipliers[1] == pytest.approx(0.5, abs=1e-7)
    assert s.mu == pytest.approx(math.log(math.sqrt(2.0 * math.pi)) + 0.5,
                                 abs=1e-7)


def test_shannon_bisection_fallback_path(quad):
    from qbridge.maxent import _bisection_fallback
    from qbridge import ConstraintFn
    lam = _bisection_fallback(ConstraintFn.identity(), 2.0, HALF_LINE, quad, [])
    assert lam == pytest.approx(0.5, abs=1e-10)


def test_shannon_infeasible_targets(quad):
    with pytest.raises(qb.FeasibilityError):
        qb.solve_shannon(square_cs(target=-1.0), REAL_LINE, quad)
    with pytest.raises(qb.FeasibilityError):
        qb.solve_shannon(identity_cs(target=-2.0), HALF_LINE, quad)


def test_shannon_infeasible_two_constraint_target(quad):
    # E[x^2] < E[x]^2 is no variance at all: no density on the line has it
    cs = ConstraintSet((ConstraintFn.identity(), ConstraintFn.square()),
                       (1.0, 1.0), targets=(1.0, 0.5))
    with pytest.raises(qb.SolverError):
        qb.solve_shannon(cs, REAL_LINE, quad)


def test_shannon_solution_holds_plain_floats(quad):
    cs = ConstraintSet((ConstraintFn.identity(), ConstraintFn.square()),
                       (1.0, 1.0), targets=(0.5, 1.0))
    s = qb.solve_shannon(cs, REAL_LINE, quad)
    values = [s.mu, *s.cs.multipliers]
    assert all(type(v) is float for v in values)
    assert json.loads(json.dumps({"mu": s.mu, "lams": list(s.cs.multipliers)})) == \
        {"mu": s.mu, "lams": list(s.cs.multipliers)}


def test_shannon_requires_targets(quad):
    with pytest.raises(qb.ConfigurationError):
        qb.solve_shannon(identity_cs(), HALF_LINE, quad)


def test_shannon_invariants_under_tighter_quadrature(quad):
    s = qb.solve_shannon(identity_cs(target=2.0), HALF_LINE, quad)
    tight = quad.tightened(10.0)
    total = integrate(s.density, s.domain, tight)
    moment = integrate(lambda u: s.density(u) * u, s.domain, tight)
    assert abs(total - 1.0) < 10.0 * quad.rel_tol
    assert abs(moment - 2.0) < 10.0 * quad.rel_tol


# --------------------------------------------------------- tsallis normalizer

def test_tsallis_cutoff_normalization(quad):
    t = qb.normalize_tsallis(0.5, identity_cs(), quad, domain=HALF_LINE)
    assert t.C == pytest.approx(1.5, rel=1e-10)
    assert t.support.lower == 0.0
    assert t.support.upper == pytest.approx(2.0, abs=1e-12)
    assert t.density(t.support.upper) == 0.0  # cutoff edge excluded
    assert t.density(1.0) == pytest.approx(1.5 * 0.25, rel=1e-10)


def test_tsallis_power_tail_normalization(quad):
    t = qb.normalize_tsallis(1.5, identity_cs(), quad, domain=HALF_LINE)
    assert t.C == pytest.approx(0.5, rel=1e-10)
    assert t.support.upper == math.inf


def test_tsallis_classical_matches_shannon(quad):
    s = qb.solve_shannon(identity_cs(target=2.0), HALF_LINE, quad)
    t = qb.normalize_tsallis(1.0, s.cs, quad, domain=HALF_LINE)
    assert t.C == pytest.approx(math.exp(-s.mu), rel=1e-9)
    assert t.cs.multipliers == s.cs.multipliers  # carried over exactly


def test_tsallis_non_normalizable_regimes(quad):
    for q in (2.0, 2.5):
        with pytest.raises(qb.NonNormalizableError) as err:
            qb.normalize_tsallis(q, identity_cs(), quad, domain=HALF_LINE)
        assert err.value.tail_exponent == pytest.approx(1.0 / (q - 1.0))
    with pytest.raises(qb.NonNormalizableError):
        qb.normalize_tsallis(0.5, identity_cs(), quad)  # unbounded left side
    with pytest.raises(qb.NonNormalizableError):
        qb.normalize_tsallis(1.0, identity_cs(-1.0), quad, domain=HALF_LINE)


def test_tsallis_normalization_under_tighter_quadrature(quad):
    tight = quad.tightened(10.0)
    for q in (0.5, 1.5):
        t = qb.normalize_tsallis(q, identity_cs(), quad, domain=HALF_LINE)
        total = integrate(t.density, t.support, tight)
        assert abs(total - 1.0) < 10.0 * quad.rel_tol


def test_tsallis_pole_side_edge_rejected(quad):
    with pytest.raises(qb.NonNormalizableError):
        qb.normalize_tsallis(1.5, identity_cs(), quad,
                             domain=SupportInterval(-2.0, math.inf))


# ------------------------------------------------------------------ transport

def test_transport_classical_identity_map(quad):
    t, s, map_ = matched_solutions(1.0, identity_cs(), HALF_LINE, quad)
    grid = np.linspace(0.05, 8.0, 50)
    report = qb.verify_transport(s, t, map_, grid, tol=1e-14)
    assert report.passed
    assert report.max_abs_residual < 1e-14


def test_transport_cutoff_case(quad):
    t, s, map_ = matched_solutions(0.5, identity_cs(), HALF_LINE, quad)
    grid = np.linspace(0.01, 1.98, 200)
    report = qb.verify_transport(s, t, map_, grid, tol=1e-8)
    assert report.passed
    assert len(report.profile) == 200
    assert report.factor_max_residual < 1e-10


def test_transport_rows_map_each_point_once(quad, monkeypatch):
    # one u(x) per point serves the row and the closed factor check, and the
    # densities evaluated on the whole grid equal their values point by point
    import qbridge.transform
    t, s, map_ = matched_solutions(0.5, identity_cs(), HALF_LINE, quad)
    grid = np.linspace(0.0, 1.9, 20)
    calls = []
    u_of_x = qbridge.transform.u_of_x
    monkeypatch.setattr(qbridge.transform, "u_of_x",
                        lambda x, spec: calls.append(x) or u_of_x(x, spec))
    report = qb.verify_transport(s, t, map_, grid, tol=1e-8)
    assert len(calls) == len(grid) and report.factor_max_residual < 1e-10
    for x, row in zip(grid.tolist(), report.rows):
        g, jac, u = map_.g(x), map_.J(x), map_.u(x)
        p_t, p_push = t.density(x), s.density(u) * abs(jac)
        assert row == (x, g, jac, u, p_t, p_push, abs(p_t - p_push))
    assert report.profile == tuple((row[0], row[-1]) for row in report.rows)
    assert report.max_abs_residual == max(row[-1] for row in report.rows)


@pytest.mark.parametrize("q, domain", [
    (0.5, HALF_LINE),                       # support [0, 2), g > 0
    (2.5, SupportInterval(-1.0, 0.0)),      # support (-2/3, 0], g < 0
])
def test_the_partner_keeps_a_closed_end_of_the_support(quad, q, domain):
    # the Tsallis density is positive at its closed end x = 0; u(0) = 0 is
    # the lower end of u's image for either orientation of the map, and the
    # partner's density there is the pushforward, not 0
    map_ = TransformMap.from_spec(TransformSpec(QIndex(q), identity_cs()))
    t = qb.normalize_tsallis(q, identity_cs(), quad, domain=domain)
    s = qb.shannon_partner(t, map_, quad)
    assert (s.domain.lower, s.domain.upper) == (0.0, math.inf)
    assert s.domain.closed_lower and not s.domain.closed_upper
    assert map_.u(0.0) == 0.0
    assert s.density(0.0) * abs(map_.J(0.0)) == pytest.approx(t.density(0.0), rel=1e-12)


def test_transport_factor_identity_points(quad):
    t, s, map_ = matched_solutions(1.5, identity_cs(), HALF_LINE, quad)
    for x in (0.5, 1.0, 5.0):
        lhs = math.exp(-map_.u(x)) / map_.g(x)
        rhs = 0.5 * qb.q_exp(-x, 1.5)
        assert abs(lhs - rhs) < 1e-10


def test_transport_requires_shared_constraints(quad):
    t, s, map_ = matched_solutions(0.5, identity_cs(), HALF_LINE, quad)
    other = qb.ShannonSolution(mu=s.mu, cs=identity_cs(2.0), domain=s.domain)
    with pytest.raises(qb.ConfigurationError):
        qb.verify_transport(other, t, map_, [0.5, 1.0], tol=1e-6)


# ----------------------------------------------------------------- ode oracle

def test_ode_textbook_solution():
    path = solve_ode_numeric(LinearODE(lambda x: 1.0, lambda x: 1.0, 0.0, 0.0),
                             1.0, 1000)
    x_end, g_end = path[-1]
    assert x_end == pytest.approx(1.0)
    assert g_end == pytest.approx(1.0 - math.exp(-1.0), abs=1e-9)
    assert g_end == pytest.approx(0.632121, abs=1e-6)


def test_ode_classical_fixed_point():
    lam = 1.0
    ode = LinearODE(lambda x: -lam, lambda x: -lam, 0.0, 1.0)
    path = solve_ode_numeric(ode, 5.0, 500)
    assert all(g == 1.0 for _, g in path)


def test_ode_matches_closed_form():
    for q in (0.5, 1.3, 1.8):
        cs = identity_cs()
        spec = TransformSpec(QIndex(q), cs)
        support = qb.qexp_support(q, cs)
        edge = support.upper if math.isfinite(support.upper) else support.lower
        ode = LinearODE(lambda x, q=q: -qb.q_exp(-x, q) ** (q - 1.0),
                        lambda x: -1.0, 0.0, qb.g_canonical(0.0, spec))
        path = solve_ode_numeric(ode, 0.9 * edge, 2000)
        worst = max(abs(g - qb.g_canonical(x, spec)) for x, g in path)
        assert worst < 1e-8


def test_ode_guards():
    ode = LinearODE(lambda x: 1.0, lambda x: 1.0, 0.0, 0.0)
    with pytest.raises(qb.ConfigurationError):
        solve_ode_numeric(ode, 1.0, 50)
    growing = LinearODE(lambda x: -1.0, lambda x: 0.0, 0.0, 1.0)
    with pytest.raises(InstabilityError):
        solve_ode_numeric(growing, 40.0, 1000)


# ------------------------------------------------------------------- sampling

def test_sampling_deterministic(quad):
    t = qb.normalize_tsallis(0.5, identity_cs(), quad, domain=HALF_LINE)
    map_ = TransformMap.from_spec(TransformSpec(QIndex(0.5), identity_cs()))
    a, ks_a = qb.sample_and_test(t, map_, 2000, seed=42)
    b, ks_b = qb.sample_and_test(t, map_, 2000, seed=42)
    assert ks_a == ks_b
    assert a.tolist() == b.tolist()


def test_sampling_ks_small(quad):
    for q in (0.5, 1.5):
        t = qb.normalize_tsallis(q, identity_cs(), quad, domain=HALF_LINE)
        map_ = TransformMap.from_spec(TransformSpec(QIndex(q), identity_cs()))
        samples, ks = qb.sample_and_test(t, map_, 100000, seed=0)
        assert ks < 0.01
        assert len(samples) == 100000
        assert all(t.support.contains(float(v)) for v in samples[:100])


def test_sampling_classical_within_ks_band(quad):
    n = 20000
    t = qb.normalize_tsallis(1.0, identity_cs(), quad, domain=HALF_LINE)
    map_ = TransformMap.from_spec(TransformSpec(QIndex(1.0), identity_cs()))
    _, ks = qb.sample_and_test(t, map_, n, seed=3)
    assert ks < 1.63 / math.sqrt(n)  # 99% critical value


def test_sampling_ks_scales_like_root_n(quad):
    t = qb.normalize_tsallis(0.5, identity_cs(), quad, domain=HALF_LINE)
    map_ = TransformMap.from_spec(TransformSpec(QIndex(0.5), identity_cs()))
    ratios = []
    for seed in range(10):
        _, small = qb.sample_and_test(t, map_, 10000, seed=seed)
        _, large = qb.sample_and_test(t, map_, 100000, seed=seed)
        ratios.append(small / large)
    assert 2.0 <= sum(ratios) / len(ratios) <= 5.0


def test_sampling_regime_guards(quad):
    cs = identity_cs()
    t = qb.TsallisSolution(C=1.0, q=QIndex(2.5), cs=cs,
                           support=SupportInterval(0.0, 1.0))
    map_ = TransformMap.from_spec(TransformSpec(QIndex(2.5), cs))
    with pytest.raises(qb.UnsupportedRegimeError):
        qb.sample_and_test(t, map_, 2000, seed=0)
    good = qb.normalize_tsallis(0.5, cs, quad, domain=HALF_LINE)
    good_map = TransformMap.from_spec(TransformSpec(QIndex(0.5), cs))
    with pytest.raises(qb.ConfigurationError):
        qb.sample_and_test(good, good_map, 10, seed=0)
    square = qb.normalize_tsallis(0.5, square_cs(), quad, domain=REAL_LINE)
    square_map = TransformMap.from_spec(TransformSpec(QIndex(0.5), square_cs()))
    with pytest.raises(qb.ConfigurationError):
        qb.sample_and_test(square, square_map, 2000, seed=0)


# --------------------------------------------------------------- misc checks

def test_square_integrability_check(quad):
    t = qb.normalize_tsallis(0.5, identity_cs(), quad, domain=HALF_LINE)
    assert check_square_integrable(ConstraintFn.identity(), t.density,
                                   t.support, quad)
    heavy = qb.normalize_tsallis(1.5, identity_cs(), quad, domain=HALF_LINE)
    assert not check_square_integrable(ConstraintFn.square(), heavy.density,
                                       heavy.support, quad)
