import math

import numpy as np
import pytest

import qbridge as qb
from qbridge import QIndex, SupportInterval, q_exp, q_exp_deriv, q_log


def test_classical_limit_matches_exp():
    for z in (-3.0, -0.5, 0.0, 1.0, 4.0):
        assert q_exp(z, 1.0) == math.exp(z)


def test_qexp_at_zero_is_one():
    for q in (0.2, 0.5, 1.0, 1.3, 1.9, 2.5):
        assert q_exp(0.0, q) == pytest.approx(1.0, abs=1e-15)


def test_qexp_quarter():
    # (1 + 0.5*(-1))^2 = 0.25
    assert q_exp(-1.0, 0.5) == pytest.approx(0.25, abs=1e-15)


def test_qexp_cutoff_returns_zero():
    # 1 + 0.5*(-3) = -0.5 <= 0 for q = 0.5
    assert q_exp(-3.0, 0.5) == 0.0
    assert q_exp(-2.0, 0.5) == 0.0  # bracket exactly zero


def test_qexp_pole_raises_with_location():
    with pytest.raises(qb.DomainError) as err:
        q_exp(3.0, 1.5)
    assert "2.0" in str(err.value)  # pole at z = 1/(q-1) = 2
    with pytest.raises(qb.DomainError):
        q_exp(2.0, 1.5)


def test_qexp_rejects_non_finite():
    with pytest.raises(qb.DomainError):
        q_exp(math.inf, 0.5)


def test_qlog_basics():
    for q in (0.3, 1.0, 1.7):
        assert q_log(1.0, q) == pytest.approx(0.0, abs=1e-15)
    assert q_log(0.25, 0.5) == pytest.approx(-1.0, abs=1e-14)
    assert q_log(q_exp(0.7, 1.3), 1.3) == pytest.approx(0.7, abs=1e-12)


def test_qlog_domain_error():
    for bad in (0.0, -1.0):
        with pytest.raises(qb.DomainError):
            q_log(bad, 0.5)


def test_round_trip_random_pairs():
    rng = np.random.default_rng(2024)
    count = 0
    while count < 200:
        q = float(rng.uniform(0.2, 1.9))
        if abs(q - 1.0) < 1e-9:
            continue
        if q < 1.0:
            z_lo, z_hi = -1.0 / (1.0 - q) * (1.0 - 1e-9), 5.0
        else:
            z_lo, z_hi = -5.0, 1.0 / (q - 1.0) * (1.0 - 1e-9)
        z = float(rng.uniform(z_lo, z_hi))
        assert abs(q_log(q_exp(z, q), q) - z) < 1e-11
        count += 1


def test_derivative_identity_against_central_difference():
    step = 1e-6
    for q in (0.3, 0.7, 1.0, 1.3, 1.9):
        for z in np.linspace(-2.0, 2.0, 21):
            if q > 1.0 and z + step >= 1.0 / (q - 1.0):
                continue
            if q < 1.0 and z - step <= -1.0 / (1.0 - q):
                continue
            fd = (q_exp(z + step, q) - q_exp(z - step, q)) / (2.0 * step)
            exact = q_exp_deriv(z, q)
            assert abs(fd - exact) < 1e-6 * max(1.0, abs(exact))


def test_derivative_classical_and_cutoff():
    assert q_exp_deriv(1.3, 1.0) == pytest.approx(math.exp(1.3), rel=1e-15)
    assert q_exp_deriv(-3.0, 0.5) == 0.0


def test_derivative_point_check():
    step = 1e-6
    fd = (q_exp(-0.3 + step, 1.5) - q_exp(-0.3 - step, 1.5)) / (2.0 * step)
    exact = q_exp_deriv(-0.3, 1.5)
    assert abs(fd - exact) / abs(exact) < 1e-6


def test_classical_continuity_band():
    # the power form one guard-width outside the classical branch
    for q in (1.0 - 1e-8, 1.0 + 1e-8):
        for z in np.linspace(-5.0, 5.0, 41):
            assert abs(q_exp(z, q) - math.exp(z)) < 1e-6 * math.exp(z)


def test_nonnegative_and_strictly_increasing():
    for q in (0.3, 0.8, 1.0, 1.4, 1.9):
        if q < 1.0:
            zs = np.linspace(-1.0 / (1.0 - q) + 1e-6, 4.0, 200)
        elif q > 1.0:
            zs = np.linspace(-4.0, 1.0 / (q - 1.0) - 1e-6, 200)
        else:
            zs = np.linspace(-4.0, 4.0, 200)
        values = [q_exp(z, q) for z in zs]
        assert all(v >= 0.0 for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))
    # and zero beyond the cutoff stays nonnegative
    assert q_exp(-50.0, 0.5) == 0.0


def test_qindex_guards():
    qi = QIndex(1.0 + 5e-10)
    assert qi.is_classical()
    assert not QIndex(1.1).is_classical()
    assert QIndex(2.0 + 1e-7).is_singular_for_transform()
    assert not QIndex(1.9).is_singular_for_transform()
    with pytest.raises(qb.ConfigurationError):
        QIndex(math.nan)


def test_support_interval_membership():
    half_open = SupportInterval(0.0, 2.0, closed_lower=True, closed_upper=False)
    assert half_open.contains(0.0)
    assert half_open.contains(1.999999)
    assert not half_open.contains(2.0)
    assert not half_open.contains(-0.1)
    unbounded = SupportInterval(-math.inf, math.inf)
    assert unbounded.contains(1e12)
    with pytest.raises(qb.ConfigurationError):
        SupportInterval(1.0, 1.0)


def test_support_interval_intersection_keeps_closedness():
    cutoff = SupportInterval(-math.inf, 2.0, closed_lower=False, closed_upper=False)
    base = SupportInterval(0.0, math.inf)
    both = base.intersect(cutoff)
    assert (both.lower, both.upper) == (0.0, 2.0)
    assert both.contains(0.0) and not both.contains(2.0)


def test_q_exp_overflow_is_a_range_error():
    for z, q in ((800.0, 1.0), (3e4, 1.00000001)):
        with pytest.raises(qb.RangeError, match="overflows"):
            q_exp(z, q)
