"""The oracle's closed forms agree with scipy quad, and its checks bite."""

import math
import subprocess
import sys

import numpy as np
import pytest

import oracle
import workloads
from conftest import BENCH

INF = math.inf


@pytest.mark.parametrize("q", [0.3, 0.5, 1.4, 1.7])
@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_identity_map_closed_form_matches_quad(q, lam):
    edge = 1.0 / ((1.0 - q) * lam) if q < 1.0 else 10.0
    for x in np.linspace(0.0, 0.9 * edge, 7):
        ref = oracle.integral(lambda s: (2.0 - q) / (1.0 - (1.0 - q) * lam * s), 0.0, x)
        assert oracle.u_identity(x, q, lam) == pytest.approx(ref, rel=1e-11, abs=1e-13)
        assert oracle.x_identity(oracle.u_identity(x, q, lam), q, lam) == pytest.approx(
            x, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("q", [0.5, 1.2, 1.5])
def test_tsallis_normalization_and_mean_match_quad(q):
    lam = 1.3
    edge = 1.0 / ((1.0 - q) * lam) if q < 1.0 else INF
    z = oracle.integral(lambda x: oracle.e_q(-lam * x, q), 0.0, edge)
    assert oracle.tsallis_c_identity(q, lam) == pytest.approx(1.0 / z, rel=1e-10)
    c = oracle.tsallis_c_identity(q, lam)
    if q < 1.5:
        mean = oracle.integral(lambda x: c * oracle.e_q(-lam * x, q) * x, 0.0, edge)
        assert oracle.tsallis_mean_identity(q, lam) == pytest.approx(mean, rel=1e-9)


@pytest.mark.parametrize("k", [0.5, 2.0, 4.0])
def test_exponential_fit_matches_quad(k):
    lam, mu = oracle.exponential_fit(k)
    w = lambda u: math.exp(-mu - lam * u)
    assert oracle.integral(w, 0.0, INF) == pytest.approx(1.0, rel=1e-11)
    assert oracle.integral(lambda u: w(u) * u, 0.0, INF) == pytest.approx(k, rel=1e-11)


@pytest.mark.parametrize("k1,k2", [(0.5, 1.0), (-0.8, 1.5), (0.0, 0.5)])
def test_gaussian_fit_matches_quad(k1, k2):
    a, b, mu = oracle.gaussian_fit(k1, k2)
    w = lambda u: math.exp(-mu - a * u - b * u * u)
    assert oracle.integral(w, -INF, INF) == pytest.approx(1.0, rel=1e-11)
    assert oracle.integral(lambda u: w(u) * u, -INF, INF) == pytest.approx(k1, abs=1e-11)
    assert oracle.integral(lambda u: w(u) * u * u, -INF, INF) == pytest.approx(k2, rel=1e-11)


def test_planted_moments_match_quad():
    coeffs = (-0.3, 0.2, 0.1)
    w = lambda x: math.exp(-(coeffs[0] * x + coeffs[1] * x * x + coeffs[2] * x ** 4))
    z = oracle.integral(w, -INF, INF)
    for k, got in zip((1, 2, 4), workloads.planted_moments(coeffs, (1, 2, 4))):
        assert got == pytest.approx(oracle.integral(lambda x: w(x) * x ** k, -INF, INF) / z,
                                    rel=1e-10)


def test_ks_bound_separates_right_and_wrong_distributions():
    q, lam, n = 1.5, 1.0, 100_000
    u = -np.log1p(-np.random.default_rng(7).random(n)) / lam
    x = np.array([oracle.x_identity(v, q, lam) for v in u[:n]])
    cdf = lambda xs: oracle.qexp_cdf_identity(xs, q, lam)
    assert oracle.ks_statistic(x, cdf) < oracle.ks_bound(n)
    assert oracle.ks_statistic(x * 1.02, cdf) > oracle.ks_bound(n)


@pytest.mark.parametrize("q,coeffs", [(0.5, (0, 0, 1)), (0.5, (0, 1, 1, 0, 0.5)),
                                      (1.5, (0, 0, 1)), (2.5, (0, 1, 1, 0, 0.5))])
def test_support_edges_are_roots_of_the_margin(q, coeffs):
    m = oracle.Margin(q, 1.3, coeffs)
    for edge in m.support:
        if math.isfinite(edge):
            assert abs(m.phi(edge)) < 1e-12
    assert m.phi(0.0) > 0.0
    if q > 1.0:
        assert m.support == (-INF, INF)


def test_near_root_support_is_found():
    p = workloads.near_root_probe(3)
    m = oracle.Margin(p["q"], p["lam"], p["coeffs"])
    assert m.support[0] == -INF
    assert m.support[1] == pytest.approx(p["c"] - math.sqrt(p["delta"]), rel=1e-12)


def test_oracle_imports_no_qbridge():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import oracle, workloads; "
            "sys.exit(any(m == 'qbridge' or m.startswith('qbridge.') for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code, str(BENCH)]).returncode == 0


def _solve_2c():
    s = {"name": "2c", "powers": [1, 2], "targets": [0.5, 1.0], "domain": "real"}
    a, b, mu = oracle.gaussian_fit(0.5, 1.0)
    return s, {"lams": [a, b], "mu": mu}


def test_checks_reject_perturbed_outputs():
    s, out = _solve_2c()
    assert oracle.check_solve(s, out) == []
    assert oracle.check_solve(s, {"lams": [out["lams"][0] * (1 + 1e-4), out["lams"][1]],
                                  "mu": out["mu"]})
    assert oracle.check_solve({"name": "infeasible", "targets": [1, 0.5]},
                              {"lams": [0, 0], "mu": 0})
    assert oracle.check_solve({"name": "infeasible", "targets": [1, 0.5]},
                              {"error": "x", "error_mro": ["FeasibilityError", "SolverError"]}) == []


def test_transform_check_rejects_a_wrong_u():
    op = workloads.cli_op(5, 1)
    assert op["kind"] == "transform"
    q, lam = float(op["argv"][2]), float(op["argv"][4])
    lo, hi, n = op["argv"][-1].split(":")
    rows = ["x,g,J,u,p_tsallis,p_shannon_pushforward,transport_residual"]
    for x in np.linspace(float(lo), float(hi), int(n)):
        g = (1 - (1 - q) * lam * x) / (2 - q)
        u = oracle.u_identity(x, q, lam)
        p = (2 - q) * lam * oracle.e_q(-lam * x, q)
        rows.append(",".join(repr(float(v)) for v in (x, g, 1 / g, u, p, p, 0.0)))
    text = "\n".join(rows) + "\n"
    assert oracle.check_cli(op, 0, text) == []
    bad = text.replace(rows[5].split(",")[3], repr(float(rows[5].split(",")[3]) * (1 + 1e-9)))
    assert oracle.check_cli(op, 0, bad)
