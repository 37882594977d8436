import math

import numpy as np
import pytest

import qbridge as qb
from qbridge import Observable, SupportInterval

from conftest import HALF_LINE, identity_cs
from oracles import SupportedDensity

ONE = Observable(lambda x: 1.0, "1")
X = Observable.identity()


@pytest.fixture
def cutoff_density(quad):
    # 1.5 (1 - x/2)^2 on [0, 2)
    return qb.normalize_tsallis(0.5, identity_cs(), quad, domain=HALF_LINE)


@pytest.fixture
def exp_density(quad):
    return qb.normalize_tsallis(1.0, identity_cs(), quad, domain=HALF_LINE)


def test_linear_mean_of_one_is_one(cutoff_density, exp_density, quad):
    assert qb.mean_linear(cutoff_density, ONE, quad) == pytest.approx(1.0,
                                                                      rel=1e-10)
    assert qb.mean_linear(exp_density, ONE, quad) == pytest.approx(1.0, rel=1e-10)


def test_linear_mean_values(cutoff_density, exp_density, quad):
    assert qb.mean_linear(cutoff_density, X, quad) == pytest.approx(0.5, rel=1e-10)
    assert qb.mean_linear(exp_density, X, quad) == pytest.approx(1.0, rel=1e-10)


def test_escort_norm_is_one_at_classical(exp_density, quad):
    assert qb.escort_norm(exp_density, 1.0, quad).x_q == pytest.approx(1.0,
                                                                       rel=1e-10)


def test_escort_norm_triangle_density(quad):
    triangle = SupportedDensity(lambda x: 2.0 * (1.0 - x), SupportInterval(0.0, 1.0))
    assert qb.escort_norm(triangle, 2.0, quad).x_q == pytest.approx(4.0 / 3.0,
                                                                    rel=1e-10)


def test_escort_norm_cutoff_fixture(cutoff_density, quad):
    weight = qb.escort_norm(cutoff_density, 0.5, quad)
    assert weight.x_q == pytest.approx(math.sqrt(1.5), rel=1e-10)
    assert abs(weight.x_q - 1.0) > 1e-6


def test_ct_mean_reduces_to_linear(cutoff_density, quad):
    a = Observable(lambda x: x * x - 0.3 * x, "mix")
    assert qb.mean_ct(cutoff_density, a, 1.0, quad) == pytest.approx(
        qb.mean_linear(cutoff_density, a, quad), rel=1e-12)


def test_ct_mean_of_one_is_escort_norm(cutoff_density, quad):
    assert qb.mean_ct(cutoff_density, ONE, 0.5, quad) == pytest.approx(
        qb.escort_norm(cutoff_density, 0.5, quad).x_q, rel=1e-14)


def test_ct_mean_fixture_value(cutoff_density, quad):
    expected = math.sqrt(1.5) * (2.0 / 3.0)
    value = qb.mean_ct(cutoff_density, X, 0.5, quad)
    assert value == pytest.approx(expected, rel=1e-9)
    assert value == pytest.approx(0.816497, abs=1e-6)


def test_tmp_mean_of_one_is_exactly_one(cutoff_density, quad):
    for q in (0.4, 0.5, 1.0, 1.3):
        assert qb.mean_tmp(cutoff_density, ONE, q, quad) == 1.0


def test_tmp_mean_fixture_value(cutoff_density, quad):
    assert qb.mean_tmp(cutoff_density, X, 0.5, quad) == pytest.approx(
        2.0 / 3.0, rel=1e-9)


def test_tmp_equals_ct_over_escort_on_shared_nodes(quad):
    rng = np.random.default_rng(31)
    for _ in range(50):
        q_density = float(rng.uniform(0.3, 0.9))
        lam = float(rng.uniform(0.5, 2.0))
        p = qb.normalize_tsallis(q_density, identity_cs(lam), quad,
                                 domain=HALF_LINE)
        coeffs = rng.uniform(-1.0, 1.0, size=3)
        a = Observable(lambda x, c=coeffs: c[0] + c[1] * x + c[2] * x * x, "poly")
        q_avg = float(rng.uniform(0.3, 1.9))
        tmp = qb.mean_tmp(p, a, q_avg, quad)
        ct = qb.mean_ct(p, a, q_avg, quad)
        x_q = qb.escort_norm(p, q_avg, quad).x_q
        assert abs(tmp - ct / x_q) < 1e-12


def test_all_means_collapse_at_classical(exp_density, quad):
    a = Observable(lambda x: np.sin(x) + x, "mixed")
    linear = qb.mean_linear(exp_density, a, quad)
    ct = qb.mean_ct(exp_density, a, 1.0, quad)
    tmp = qb.mean_tmp(exp_density, a, 1.0, quad)
    tol = 10.0 * quad.rel_tol
    assert abs(ct - linear) < tol
    assert abs(tmp - linear) < tol


def test_escort_divergence_raises(quad):
    heavy = qb.normalize_tsallis(1.5, identity_cs(), quad, domain=HALF_LINE)
    # p ~ x^{-2}: p^0.4 ~ x^{-0.8} is not integrable on the half line
    with pytest.raises(qb.NonIntegrableError):
        qb.escort_norm(heavy, 0.4, quad)


# p ~ x^{-1/(q-1)} on the half-line, so int x p diverges from q = 1.5 on.
# Before the screen QUADPACK returned -5.0 at (1.6, 1) and -1.85 at (1.77, 1)
# and failed to converge at (1.75, 2.7); q = 1.5 is the boundary, |x|^-1.
@pytest.mark.parametrize("q,lam", [(1.6, 1.0), (1.77, 1.0), (1.75, 2.7), (1.5, 1.0)])
def test_divergent_mean_is_a_typed_error(quad, q, lam):
    p = qb.normalize_tsallis(q, identity_cs(lam), quad, domain=HALF_LINE)
    with pytest.raises(qb.NonIntegrableError) as err:
        qb.mean_linear(p, X, quad)
    assert err.value.tail_exponent == pytest.approx(1.0 / (q - 1.0) - 1.0, rel=1e-15)
    assert err.value.tail_exponent <= 1.0
    # p^q ~ x^{-q/(q-1)} keeps the Curado-Tsallis mean of x finite below q = 2
    ct = qb.mean_ct(p, X, q, quad)
    assert math.isfinite(ct) and ct > 0.0


def test_mean_just_inside_the_screen_is_finite(quad):
    p = qb.normalize_tsallis(1.49, identity_cs(), quad, domain=HALF_LINE)
    # p proportional to e_q(-x) on the half-line has E[x] = 1/(3 - 2q)
    assert qb.mean_linear(p, X, quad) == pytest.approx(1.0 / (3.0 - 2.0 * 1.49), rel=1e-8)


def test_curado_tsallis_mean_diverges_with_the_escort_power(quad):
    p = qb.normalize_tsallis(1.5, identity_cs(), quad, domain=HALF_LINE)
    # p^0.9 ~ x^{-1.8}: times x it falls like x^{-0.8}
    with pytest.raises(qb.NonIntegrableError) as err:
        qb.mean_ct(p, X, 0.9, quad)
    assert err.value.tail_exponent == pytest.approx(0.8, rel=1e-15)
