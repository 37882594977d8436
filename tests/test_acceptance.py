"""Acceptance battery: one check per release criterion, one printed line each.

Run `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.  The
two quadratic-constraint transport cases are expected failures: the
closed-form map preserves total mass for nonlinear observables but not
pointwise density equality (see the verify command's honest report).
"""

import math
import time

import numpy as np
import pytest

import qbridge as qb
from qbridge import (
    ConstraintFn,
    ConstraintSet,
    QIndex,
    TransformSpec,
)

from conftest import (
    HALF_LINE,
    REAL_LINE,
    identity_cs,
    interior_grid,
    matched_solutions,
    square_cs,
)
from oracles import LinearODE, solve_ode_numeric

QUAD = qb.QuadratureSpec()


def report(criterion, label, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion:>2} [{label}]: {status}  {detail}")


def test_criterion_1_ode_exactness():
    start = time.perf_counter()
    worst_analytic = 0.0
    worst_fd = 0.0
    step = 1e-6
    for q in (0.5, 1.3, 1.8, 2.5):
        for cs in (identity_cs(), square_cs()):
            spec = TransformSpec(QIndex(q), cs)
            slope_scale = -(1.0 - q) / (2.0 - q)
            for x in interior_grid(q, cs, n=100, clip=3.0):
                x = float(x)
                g = qb.g_canonical(x, spec)
                res = qb.ode_residual(x, spec, g,
                                      slope_scale * cs.potential_slope(x))
                worst_analytic = max(worst_analytic, abs(res))
                fd_slope = (qb.g_canonical(x + step, spec)
                            - qb.g_canonical(x - step, spec)) / (2.0 * step)
                worst_fd = max(worst_fd, abs(qb.ode_residual(x, spec, g, fd_slope)))
    elapsed = time.perf_counter() - start
    ok = worst_analytic < 1e-10 and worst_fd < 1e-5 and elapsed < 1.0
    report(1, "ode exactness", ok,
           f"analytic {worst_analytic:.2e} (tol 1e-10), "
           f"finite-difference {worst_fd:.2e} (tol 1e-5), {elapsed:.2f}s")
    assert worst_analytic < 1e-10
    assert worst_fd < 1e-5
    assert elapsed < 1.0


def test_criterion_2_closed_form_vs_numeric_ode():
    start = time.perf_counter()
    worst = 0.0
    for q in (0.5, 1.3, 1.8):
        cs = identity_cs()
        spec = TransformSpec(QIndex(q), cs)
        support = qb.qexp_support(q, cs)
        edge = support.upper if math.isfinite(support.upper) else support.lower
        ode = LinearODE(lambda x, q=q: -qb.q_exp(-x, q) ** (q - 1.0),
                        lambda x: -1.0, 0.0, qb.g_canonical(0.0, spec))
        path = solve_ode_numeric(ode, 0.9 * edge, 2000)
        worst = max(worst, max(abs(g - qb.g_canonical(x, spec))
                               for x, g in path))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-7 and elapsed < 1.0
    report(2, "closed form vs numeric ode", ok,
           f"max deviation {worst:.2e} (tol 1e-7), {elapsed:.2f}s")
    assert worst < 1e-7
    assert elapsed < 1.0


TRANSPORT_CASES = [
    pytest.param(0.5, "identity", id="q0.5-mean"),
    pytest.param(1.5, "identity", id="q1.5-mean"),
    pytest.param(
        0.5, "square", id="q0.5-square",
        marks=pytest.mark.xfail(
            strict=True,
            reason="the closed-form map preserves mass but not pointwise "
                   "density for nonlinear observables; residual ~0.18")),
    pytest.param(
        1.5, "square", id="q1.5-square",
        marks=pytest.mark.xfail(
            strict=True,
            reason="the closed-form map preserves mass but not pointwise "
                   "density for nonlinear observables; residual ~0.13")),
]


@pytest.mark.parametrize("q,kind", TRANSPORT_CASES)
def test_criterion_3_transport_identity(q, kind):
    start = time.perf_counter()
    if kind == "identity":
        cs = identity_cs()
        domain = HALF_LINE
    else:
        cs = square_cs()
        domain = REAL_LINE
    tsallis, shannon, map_ = matched_solutions(q, cs, domain, QUAD)
    lo = max(tsallis.support.lower, -8.0)
    hi = min(tsallis.support.upper, 20.0)
    span = hi - lo
    grid = np.linspace(lo + 0.005 * span, hi - 0.005 * span, 200)
    result = qb.verify_transport(shannon, tsallis, map_, grid, tol=1e-6)
    elapsed = time.perf_counter() - start
    ok = result.max_abs_residual < 1e-6 and elapsed < 5.0
    report(3, f"transport identity q={q} h={kind}", ok,
           f"max residual {result.max_abs_residual:.2e} (tol 1e-6), "
           f"{elapsed:.2f}s")
    assert result.max_abs_residual < 1e-6
    assert elapsed < 5.0


def test_criterion_4_pushforward_factor():
    worst = 0.0
    for q in (0.5, 1.5):
        for lam in (0.5, 1.0, 2.0):
            cs = identity_cs(lam)
            spec = TransformSpec(QIndex(q), cs)
            if q < 1.0:
                hi = 0.95 / ((1.0 - q) * lam)
            else:
                hi = 10.0
            for x in np.linspace(0.0, hi, 50):
                x = float(x)
                lhs = math.exp(-lam * qb.u_of_x(x, spec)) / qb.g_canonical(x, spec)
                rhs = (2.0 - q) * qb.q_exp(-lam * x, q)
                worst = max(worst, abs(lhs - rhs))
    ok = worst < 1e-10
    report(4, "(2-q) pushforward factor", ok,
           f"max residual {worst:.2e} (tol 1e-10)")
    assert worst < 1e-10


def test_criterion_5_expansion_order():
    lam = 1.0
    ratios = []
    for x in (0.5, 1.0, 2.0):
        def gap(eps):
            exact = qb.g_canonical(x, TransformSpec(QIndex(1.0 - eps),
                                                    identity_cs(lam)))
            return abs(exact - qb.expand_g_near_q1(x, lam, eps))
        ratios.append(gap(1e-2) / gap(5e-3))
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    report(5, "expansion order near q=1", ok,
           "ratios " + ", ".join(f"{r:.3f}" for r in ratios) + " (want [3.5, 4.5])")
    assert all(3.5 <= r <= 4.5 for r in ratios)


def test_criterion_6_q_two_behavior():
    with pytest.raises(qb.SingularIndexError):
        TransformSpec(QIndex(2.0), identity_cs())
    with pytest.raises(qb.SingularIndexError):
        qb.g_near_q2(1.0, 1.0, 0.0)
    sign_ok = True
    for q, expected in ((1.9, 1.0), (2.1, -1.0)):
        spec = TransformSpec(QIndex(q), identity_cs())
        support = qb.qexp_support(q, spec.cs)
        lo = max(-1.0, support.lower) + 0.01
        for x in np.linspace(lo, 10.0, 60):
            sign_ok &= math.copysign(1.0, qb.g_canonical(float(x), spec)) == expected
    # closed-form value; "exact" up to double rounding of the arithmetic
    value = qb.g_near_q2(1.0, 1.0, 0.1)
    value_ok = math.isclose(value, 19.0, rel_tol=1e-13)
    ok = sign_ok and value_ok
    report(6, "q=2 singularity and sign change", ok,
           f"g(1; q=1.9) = {value!r} (want 19.0 to float rounding); "
           f"signs {'ok' if sign_ok else 'WRONG'}")
    assert sign_ok
    assert value_ok


def test_criterion_7_shannon_solver():
    start = time.perf_counter()
    s1 = qb.solve_shannon(identity_cs(target=2.0), HALF_LINE, QUAD)
    err1 = max(abs(s1.cs.multipliers[0] - 0.5), abs(s1.mu - math.log(2.0)))
    s2 = qb.solve_shannon(square_cs(target=1.0), REAL_LINE, QUAD)
    err2 = max(abs(s2.cs.multipliers[0] - 0.5),
               abs(s2.mu - math.log(math.sqrt(2.0 * math.pi))))
    elapsed = time.perf_counter() - start
    ok = err1 < 1e-8 and err2 < 1e-8 and elapsed < 1.0
    report(7, "shannon solver", ok,
           f"mean-case error {err1:.2e}, variance-case error {err2:.2e} "
           f"(tol 1e-8), {elapsed:.2f}s")
    assert err1 < 1e-8
    assert err2 < 1e-8
    assert elapsed < 1.0


def test_criterion_8_monte_carlo_confirmation():
    start = time.perf_counter()
    stats = {}
    for q in (0.5, 1.5):
        cs = identity_cs()
        tsallis = qb.normalize_tsallis(q, cs, QUAD, domain=HALF_LINE)
        map_ = qb.TransformMap.from_spec(TransformSpec(QIndex(q), cs))
        _, ks = qb.sample_and_test(tsallis, map_, 100000, seed=0)
        stats[q] = ks
    elapsed = time.perf_counter() - start
    ok = all(ks < 0.01 for ks in stats.values()) and elapsed < 5.0
    report(8, "monte carlo confirmation", ok,
           ", ".join(f"KS(q={q}) = {ks:.5f}" for q, ks in stats.items())
           + f" (tol 0.01), {elapsed:.2f}s")
    assert all(ks < 0.01 for ks in stats.values())
    assert elapsed < 5.0


def test_criterion_9_averaging_identities():
    one = ConstraintFn((1.0,))
    x_obs = ConstraintFn.identity()
    p = qb.normalize_tsallis(0.5, identity_cs(), QUAD, domain=HALF_LINE)
    tmp_one = qb.mean_tmp(p, one, 0.5, QUAD)
    tmp = qb.mean_tmp(p, x_obs, 0.5, QUAD)
    ct = qb.mean_ct(p, x_obs, 0.5, QUAD)
    x_q = qb.escort_norm(p, 0.5, QUAD).x_q
    ratio_gap = abs(tmp - ct / x_q)
    fixture_err = max(abs(x_q - math.sqrt(1.5)),
                      abs(ct - math.sqrt(1.5) * 2.0 / 3.0),
                      abs(tmp - 2.0 / 3.0))
    ok = abs(tmp_one - 1.0) < 1e-10 and ratio_gap < 1e-12 and fixture_err < 1e-8
    report(9, "averaging identities", ok,
           f"tmp(1) - 1 = {tmp_one - 1.0:.2e} (tol 1e-10), ratio gap "
           f"{ratio_gap:.2e} (tol 1e-12), fixture error {fixture_err:.2e} "
           f"(tol 1e-8)")
    assert abs(tmp_one - 1.0) < 1e-10
    assert ratio_gap < 1e-12
    assert fixture_err < 1e-8


def test_criterion_10_vector_constraints():
    cs = ConstraintSet((ConstraintFn.identity(), ConstraintFn.square()),
                       (0.5, 0.3))
    worst_value = 0.0
    worst_residual = 0.0
    for q in (0.5, 1.5):
        spec = TransformSpec(QIndex(q), cs)
        slope_scale = -(1.0 - q) / (2.0 - q)
        for x in interior_grid(q, cs, n=100, clip=5.0):
            x = float(x)
            g = qb.g_canonical(x, spec)
            direct = (1.0 - (1.0 - q) * (0.5 * x + 0.3 * x * x)) / (2.0 - q)
            worst_value = max(worst_value, abs(g - direct))
            res = qb.ode_residual(x, spec, g,
                                  slope_scale * cs.potential_slope(x))
            worst_residual = max(worst_residual, abs(res))
    ok = worst_value < 1e-13 and worst_residual < 1e-10
    report(10, "vector constraint closed form", ok,
           f"formula gap {worst_value:.2e} (tol 1e-13), ode residual "
           f"{worst_residual:.2e} (tol 1e-10)")
    assert worst_value < 1e-13
    assert worst_residual < 1e-10
