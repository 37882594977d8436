import hashlib
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qbridge as qb


def run_cli(*args: str, env=None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "qbridge", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def test_help():
    cp = run_cli("--help")
    assert cp.returncode == 0, cp.stderr
    assert "transform" in cp.stdout and "verify" in cp.stdout


def test_transform_classical_identity():
    cp = run_cli("transform", "--q", "1.0", "--lambda", "1", "--h", "identity",
                 "--grid", "0:5:6")
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.strip().splitlines()
    assert lines[0] == "x,g,J,u,p_tsallis,p_shannon_pushforward,transport_residual"
    rows = [list(map(float, line.split(","))) for line in lines[1:]]
    assert len(rows) == 6
    for row in rows:
        x, g, j, u = row[:4]
        assert g == 1.0 and j == 1.0 and u == x


def test_transform_rows_sorted_and_clipped():
    cp = run_cli("transform", "--q", "0.5", "--lambda", "1", "--h", "identity",
                 "--grid", "0:5:6")
    assert cp.returncode == 0, cp.stderr
    assert "clipped" in cp.stderr
    rows = [list(map(float, line.split(",")))
            for line in cp.stdout.strip().splitlines()[1:]]
    xs = [row[0] for row in rows]
    assert xs == sorted(xs)
    assert all(x < 2.0 for x in xs)
    assert all(math.isfinite(v) for row in rows for v in row)


def test_transform_exact_q_two_is_domain_error():
    cp = run_cli("transform", "--q", "2.0", "--lambda", "1", "--h", "identity",
                 "--grid", "0:5:6")
    assert cp.returncode == 3
    assert "q = 2" in cp.stderr


def test_transform_deterministic_artifacts(tmp_path: Path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ("transform", "--q", "1.4", "--lambda", "1", "--h", "identity",
            "--grid", "0:3:50")
    assert run_cli(*args, "--out", str(out_a)).returncode == 0
    assert run_cli(*args, "--out", str(out_b)).returncode == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_transform_json_format(tmp_path: Path):
    out = tmp_path / "t.json"
    cp = run_cli("transform", "--q", "1.5", "--lambda", "1", "--h", "identity",
                 "--grid", "0:4:5", "--format", "json", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == "1"
    assert doc["columns"][0] == "x"
    assert len(doc["rows"]) == 5


def test_no_partial_artifact_on_error(tmp_path: Path):
    out = tmp_path / "never.csv"
    cp = run_cli("transform", "--q", "2.0", "--lambda", "1", "--h", "identity",
                 "--grid", "0:5:6", "--out", str(out))
    assert cp.returncode == 3
    assert not out.exists()
    assert not list(tmp_path.iterdir())


def test_solve_shannon_json():
    cp = run_cli("solve-shannon", "--q", "1.0", "--lambda", "1", "--h",
                 "identity", "--K", "2", "--domain", "0:inf")
    assert cp.returncode == 0, cp.stderr
    doc = json.loads(cp.stdout)
    assert doc["schema_version"] == "1"
    assert abs(doc["lambdas"][0] - 0.5) < 1e-8
    assert abs(doc["mu"] - math.log(2.0)) < 1e-8


def test_verify_identity_passes():
    cp = run_cli("verify", "--q", "0.5", "--lambda", "1", "--h", "identity")
    assert cp.returncode == 0, cp.stderr
    doc = json.loads(cp.stdout)
    assert doc["passed"] is True
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["ode_residual_analytic_slope"]["max_residual"] < 1e-10
    assert by_name["transport_identity"]["passed"]


def test_verify_square_reports_transport_failure():
    # mass is preserved but pointwise density equality fails for nonlinear
    # observables; verify must say so and exit 4
    cp = run_cli("verify", "--q", "0.5", "--lambda", "1", "--h", "square",
                 "--domain=-inf:inf", "--grid=-1.3:1.3:41")
    assert cp.returncode == 4
    doc = json.loads(cp.stdout)
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["ode_residual_analytic_slope"]["passed"]
    assert by_name["round_trip"]["passed"]
    assert not by_name["transport_identity"]["passed"]
    assert by_name["transport_identity"]["max_residual"] > 1e-3


@pytest.mark.parametrize("extra", [(), ("--c", "0.2")])
def test_verify_computes_the_support_at_most_twice(monkeypatch, capsys, extra):
    import qbridge.maxent
    import qbridge.transform
    from qbridge import cli
    calls = []
    original = qbridge.transform.qexp_support

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (qbridge.transform, qbridge.maxent):
        monkeypatch.setattr(module, "qexp_support", counted)
    cli.main(["verify", "--q", "0.5", "--lambda", "1", "--h", "square",
              "--domain=-inf:inf", *extra])
    doc = json.loads(capsys.readouterr().out)
    assert {c["name"]: c["passed"] for c in doc["checks"]}["round_trip"]
    assert 1 <= len(calls) <= 2


def test_sample_deterministic(tmp_path: Path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    args = ("sample", "--q", "0.5", "--lambda", "1", "--h", "identity",
            "--n-samples", "2000", "--seed", "7")
    assert run_cli(*args, "--out", str(out_a)).returncode == 0
    assert run_cli(*args, "--out", str(out_b)).returncode == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    doc = json.loads(out_a.read_text())
    assert doc["seed"] == 7 and doc["n"] == 2000
    assert len(doc["samples"]) == 2000
    assert doc["ks_statistic"] < 0.05


def test_sample_samples_render_as_the_list_would(tmp_path: Path):
    # the samples array is rendered in one join, byte for byte as the
    # recursive rendering of the same values as a list of floats
    from qbridge import cli
    out = tmp_path / "s.json"
    assert cli.main(["sample", "--q", "1.5", "--lambda", "1", "--h", "identity",
                     "--n-samples", "2000", "--seed", "3", "--out", str(out)]) == 0
    text = out.read_text()
    doc = json.loads(text)
    assert len(doc["samples"]) == 2000
    samples = np.array(doc["samples"])
    assert cli.emit_json({**doc, "samples": samples}) + "\n" == text
    assert cli.emit_json({**doc, "samples": [float(v) for v in samples]}) + "\n" == text
    assert cli.emit_json({"s": np.array([])}) == cli.emit_json({"s": []})
    with pytest.raises(qb.ConfigurationError, match="non-finite"):
        cli.emit_json({"s": np.array([1.0, np.inf])})


def test_averages_json():
    cp = run_cli("averages", "--q", "0.5", "--lambda", "1", "--h", "identity",
                 "--A", "identity")
    assert cp.returncode == 0, cp.stderr
    doc = json.loads(cp.stdout)
    assert abs(doc["linear"] - 0.5) < 1e-6
    assert abs(doc["x_q"] - math.sqrt(1.5)) < 1e-6
    assert abs(doc["tmp"] - 2.0 / 3.0) < 1e-6
    assert abs(doc["ct"] - doc["tmp"] * doc["x_q"]) < 1e-12


def test_config_file_with_flag_override(tmp_path: Path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "q": 0.5, "lambdas": [1.0], "kinds": ["identity"], "grid": "0:1:3",
        "format": "json",
    }))
    cp = run_cli("transform", "--config", str(config), "--q", "1.5")
    assert cp.returncode == 0, cp.stderr
    doc = json.loads(cp.stdout)
    assert doc["q"] == 1.5  # flag wins over file


def test_config_errors_exit_two():
    assert run_cli("transform", "--lambda", "1", "--h", "identity",
                   "--grid", "0:1:3").returncode == 2  # missing q
    assert run_cli("transform", "--q", "1.0", "--lambda", "1", "--h",
                   "identity", "--grid", "bad").returncode == 2
    assert run_cli("transform", "--q", "1.0", "--lambda", "1", "--lambda", "2",
                   "--h", "identity", "--grid", "0:1:3").returncode == 2
    assert run_cli("transform", "--q", "1.0", "--lambda", "1", "--h",
                   "unknown-kind", "--grid", "0:1:3").returncode == 2


def test_solver_errors_exit_five():
    cp = run_cli("solve-shannon", "--q", "1.0", "--lambda", "1", "--h",
                 "identity", "--K=-2", "--domain", "0:inf")
    assert cp.returncode == 5


def test_domain_errors_exit_three():
    # q >= 2 density on a half line is not normalizable
    cp = run_cli("transform", "--q", "2.5", "--lambda", "1", "--h", "identity",
                 "--grid", "0:3:4")
    assert cp.returncode == 3
    assert "tail" in cp.stderr or "diverges" in cp.stderr


def test_classical_map_with_constant_is_unsupported():
    # g = 1 + c e^x at q = 1, so u(1) would be 0.5472, not the shift's 1
    cp = run_cli("transform", "--q", "1", "--c", "0.5", "--lambda", "1", "--h",
                 "identity", "--grid", "0:2:3")
    assert cp.returncode == 3
    assert cp.stdout == ""
    assert "c = 0.5" in cp.stderr


def test_env_var_sets_default_tolerance(tmp_path: Path):
    import os
    env = dict(os.environ, QBRIDGE_QUAD_RTOL="1e-8")
    cp = run_cli("averages", "--q", "0.5", "--lambda", "1", "--h", "identity",
                 env=env)
    assert cp.returncode == 0, cp.stderr
    env_bad = dict(os.environ, QBRIDGE_QUAD_RTOL="not-a-number")
    cp = run_cli("averages", "--q", "0.5", "--lambda", "1", "--h", "identity",
                 env=env_bad)
    assert cp.returncode == 2


def run_main(capsys, *args: str) -> tuple[int, str, str]:
    from qbridge import cli
    code = cli.main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def test_verify_round_trip_tolerance_scales_with_x(capsys):
    # the grid sits at x ~ 1e5: a round trip off by 1.1e-9 is 1e-14 relative
    code, out, _ = run_main(capsys, "verify", "--q", "0.5", "--lambda", "1e-7",
                            "--h", "identity", "--anchor", "1e5,0")
    assert code == 0
    by_name = {c["name"]: c for c in json.loads(out)["checks"]}
    assert by_name["round_trip"]["passed"]
    assert by_name["round_trip"]["tol"] >= 1e-9 * 1e5


def test_verify_closed_form_tolerances_scale_with_g(capsys):
    # |g| and lam.h' reach ~4e5 here; only the transport identity fails
    code, out, err = run_main(capsys, "verify", "--q", "1.5", "--lambda", "1e4",
                              "--h", "square", "--domain=-inf:inf")
    assert code == 4
    failed = [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]
    assert failed == ["transport_identity"]
    assert "transport_identity" in err


def test_transform_just_outside_the_classical_band(capsys):
    # e_q(-lam.h) underflows to 0 at x = +-5; g at c = 0 does not divide by it
    code, out, _ = run_main(capsys, "transform", "--q", "1.00000001", "--lambda", "1",
                            "--h", "poly:0,0,0,0,3", "--domain=-inf:inf", "--grid=-5:5:3")
    assert code == 0
    rows = [list(map(float, line.split(","))) for line in out.strip().splitlines()[1:]]
    assert len(rows) == 3 and all(math.isfinite(v) for row in rows for v in row)


def test_q_exp_overflow_exits_three(capsys):
    code, out, err = run_main(capsys, "averages", "--q", "1.00000001", "--lambda", "-1",
                              "--h", "poly:0,0,0,0,3", "--domain=-10:10")
    assert code == 3
    assert out == ""
    assert "overflows" in err and "q = 1.00000001" in err


@pytest.mark.parametrize("args", [
    # e_q(-3 x^4) underflows to 0 at x = +-5, and the c term of g overflows
    ("--q", "1.00000001", "--h", "poly:0,0,0,0,3", "--domain=-inf:inf", "--grid=-5:5:3"),
    # inside the classical band g = 1 + c e^{lam.h}, and e^800 overflows
    ("--q", "1.0000000001", "--h", "identity", "--anchor", "800,0", "--grid=800:801:3"),
])
def test_constant_near_the_classical_band_exits_typed(capsys, args):
    code, _, _ = run_main(capsys, "transform", "--lambda", "1", "--c", "0.5", *args)
    assert code in (0, 2, 3, 4, 5)


def test_nonzero_constant_transports_a_linear_observable(capsys):
    # for linear h the map carries C e_q(-lam x) onto its Shannon partner
    # pointwise at any c; here u's image is (-inf, 2.0368819273...)
    code, out, _ = run_main(capsys, "transform", "--q", "1.5", "--lambda", "1",
                            "--h", "identity", "--c", "0.3", "--grid", "0:4:5")
    assert code == 0
    rows = [list(map(float, line.split(","))) for line in out.strip().splitlines()[1:]]
    assert len(rows) == 5 and all(row[-1] <= 1e-8 for row in rows)
    code, _, _ = run_main(capsys, "verify", "--q", "1.5", "--lambda", "1",
                          "--h", "identity", "--c", "0.3")
    assert code == 0


@pytest.mark.parametrize("command, extra", [
    ("transform", ("--grid", "0:10:11")),
    ("transform", ("--grid", "0:7:8")),     # every point before the zero
    ("verify", ()),
])
def test_a_zero_of_g_inside_the_support_exits_typed(capsys, command, extra):
    # phi* = (-(2-q) c)^{(1-q)/(2-q)} = 5 is reached at x = 8: u(x) carries
    # only [0, 8), whose Tsallis mass is 0.8, so no normalized Shannon
    # density is its pushforward
    code, out, err = run_main(capsys, command, "--q", "1.5", "--lambda", "1",
                              "--h", "identity", "--c", "-0.4", *extra)
    assert code == 3
    assert out == ""
    assert "inverse Jacobian vanishes at x = 8.0, inside the Tsallis support" in err


def test_averages_of_a_divergent_mean_exit_typed(capsys):
    code, out, err = run_main(capsys, "averages", "--q", "1.75", "--lambda", "2.7",
                              "--h", "identity", "--A", "identity")
    assert code == 5
    assert out == ""
    assert "diverges" in err and "q = 1.75" in err


def test_averages_read_the_degree_of_a_padded_observable(capsys):
    # poly:0,1,0 is x: p falls like x^-2.5 at q = 1.4, so the mean
    # 1/(3 - 2q) = 5 is finite and the screen must read degree 1, not 2
    code, out, err = run_main(capsys, "averages", "--q", "1.4", "--lambda", "1",
                              "--h", "identity", "--A", "poly:0,1,0")
    assert code == 0, err
    assert json.loads(out)["linear"] == pytest.approx(5.0, rel=1e-10)


def test_a_polynomial_mean_observable_samples_as_identity(capsys):
    # an observable is its coefficients: poly:0,1 is x
    args = ("sample", "--q", "1.5", "--lambda", "1", "--n-samples", "2000")
    poly = run_main(capsys, *args, "--h", "poly:0,1")
    assert poly == run_main(capsys, *args, "--h", "identity")
    assert poly[0] == 0


def test_a_polynomial_square_with_a_zero_target_is_refused_as_square(capsys):
    args = ("solve-shannon", "--q", "1", "--lambda", "1", "--K", "0", "--domain=-inf:inf")
    poly = run_main(capsys, *args, "--h", "poly:0,0,1")
    assert poly == run_main(capsys, *args, "--h", "square")
    code, out, err = poly
    assert code == 5 and out == ""
    assert "square observable cannot average to non-positive target 0.0" in err


_ID = ("--lambda", "1", "--h", "identity")
# (argv, exit code, sha256 of stdout).  A change that moves any of these
# outputs, even in a last digit, updates this table and says so in CHANGES.md.
README_ARTIFACTS = [
    (("transform", "--q", "0.5", *_ID, "--grid", "0:1.9:20"), 0,
     "7e7768a1e06d555a624056c4371964dd10c4b39900582e524be59fe9138c103f"),
    (("solve-shannon", "--q", "1", *_ID, "--K", "2", "--domain", "0:inf"), 0,
     "57ec37335358069f7315ab0396ed5ffacf6adf04a6cb33e199612db02806024b"),
    (("verify", "--q", "0.5", *_ID), 0,
     "6af874b619a3da547339025001f1776b0147bee19e67da81d2a34c245bd36fc7"),
    (("sample", "--q", "1.5", *_ID, "--n-samples", "100000", "--seed", "0"), 0,
     "83df1b98a4b83bca430b0aec8d0a00b2072e2f40a9d672fe1f8f7a11c89dc84e"),
    (("averages", "--q", "0.5", *_ID, "--A", "identity"), 0,
     "51d1c69d5ac79f51ec3d78940fada1e74bb2eadc5521677746c8a2850d55f8e9"),
    (("transform", "--c", "0.3", "--q", "2.5", "--lambda", "1", "--h", "square",
      "--domain=-inf:inf", "--grid=-2:2:9"), 0,
     "39f37f3cc9a700863237694a1bde33d9583815adb77d0a9d58435b58f261c791"),
    (("transform", "--c", "0.3", "--q", "0.5", *_ID, "--grid", "0:1.9:5"), 0,
     "89b027f170ffff2868a0c8cd910983187d171b2ef227bd12437730bf682ed5d7"),
    (("averages", "--q", "1.4", *_ID, "--A", "poly:0,1,0"), 0,
     "d3c73d234dee7016b9e2614412149179cf40eec8ee518e7a4b79faa3a2958190"),
]


@pytest.mark.parametrize("argv, code, digest", README_ARTIFACTS,
                         ids=[" ".join(a) for a, _, _ in README_ARTIFACTS])
def test_readme_artifacts_are_pinned(capsys, argv, code, digest):
    got, out, err = run_main(capsys, *argv)
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest), err


def _json_value(text: str):
    """A flag's text as the JSON value a config file would hold."""
    if text.lstrip("+-") == "inf":
        return float(text)
    try:
        return json.loads(text)
    except ValueError:
        return text


def _config_of(argv) -> tuple[str, dict]:
    """The subcommand of argv and a config file holding all its options:
    numbers as JSON numbers, and grid, anchor and domain as lists."""
    from qbridge import cli
    args = cli.build_parser().parse_args(list(argv))
    doc = {}
    for opt in cli.OPTIONS:
        text = getattr(args, opt.dest)
        if text is None:
            continue
        if opt.repeated:
            doc[opt.dest] = [_json_value(t) for t in text]
        elif opt.joiner:
            doc[opt.dest] = [_json_value(t) for t in text.split(opt.joiner)]
        else:
            doc[opt.dest] = _json_value(text)
    return args.command, doc


@pytest.mark.parametrize("argv, code, digest", README_ARTIFACTS,
                         ids=[" ".join(a) for a, _, _ in README_ARTIFACTS])
def test_a_config_file_prints_what_its_flags_print(capsys, tmp_path, argv, code, digest):
    command, doc = _config_of(argv)
    assert any(isinstance(v, list) for v in doc.values())
    config = tmp_path / "run.json"
    config.write_text(json.dumps(doc))
    got, out, err = run_main(capsys, command, "--config", str(config))
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest), err


@pytest.mark.parametrize("bad", [
    {"q": "abc"}, {"lambdas": 5}, {"grid": [0, 1]}, {"seed": "x"}, {"anchor": 3},
    {"lambda": [1.0]},      # not an option's name
])
def test_a_bad_config_value_exits_two(capsys, tmp_path, bad):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"q": 0.5, "lambdas": [1], "kinds": ["identity"],
                                  "grid": [0, 1, 3], **bad}))
    code, out, err = run_main(capsys, "transform", "--config", str(config))
    assert (code, out) == (2, "")
    assert err.startswith("qbridge: ") and err.count("\n") == 1


def test_a_flag_wins_over_a_bad_config_value(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"q": "abc", "lambdas": [1], "kinds": ["identity"]}))
    code, _, err = run_main(capsys, "averages", "--config", str(config), "--q", "0.5")
    assert code == 0, err


def test_every_option_sets_a_run_config_field():
    import argparse
    from dataclasses import fields

    from qbridge import cli
    dests = [opt.dest for opt in cli.OPTIONS]
    assert len(set(dests)) == len(dests)
    assert set(dests) == {f.name for f in fields(cli.RunConfig)} - {"command"}
    sub, = (a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    for parser in sub.choices.values():
        flags = {a.option_strings[0]: a.dest for a in parser._actions
                 if a.option_strings and a.dest != "help"}
        assert flags == {"--config": "config", **{o.flag: o.dest for o in cli.OPTIONS}}
        assert len(flags) == 16


@pytest.mark.parametrize("h, domain, grid", [
    ((0.0, 1.0), "0:inf", "0:3:13"),
    ((0.0, 0.0, 0.0, 0.0, 1.0), "-inf:inf", "-1.5:1.5:11"),
])
def test_transform_prints_the_rows_verify_transport_computes(capsys, h, domain, grid):
    # q = 1.5, lam = 1; both grids lie inside the support, so none is clipped
    code, out, err = run_main(capsys, "transform", "--q", "1.5", "--lambda", "1",
                              "--h", "poly:" + ",".join(map(str, h)),
                              f"--domain={domain}", f"--grid={grid}")
    assert code == 0, err
    lines = out.splitlines()
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    cs = qb.ConstraintSet((qb.ConstraintFn.polynomial(h),), (1.0,))
    map_ = qb.TransformMap.from_spec(qb.TransformSpec(qb.QIndex(1.5), cs))
    t = qb.normalize_tsallis(1.5, cs, qb.QuadratureSpec(),
                             domain=qb.SupportInterval(*map(float, domain.split(":"))))
    s = qb.shannon_partner(t, map_, qb.QuadratureSpec())
    report = qb.verify_transport(s, t, map_, [row[0] for row in rows], tol=1e-6)
    assert lines[0].split(",")[-1] == "transport_residual"
    assert [row[-1] for row in rows] == [r for _, r in report.profile]
    assert rows == list(report.rows)


def test_sample_builds_no_shannon_partner(capsys, monkeypatch):
    from qbridge import cli

    def refuse(*args):
        raise AssertionError("sample built a Shannon partner")

    monkeypatch.setattr(cli, "shannon_partner", refuse)
    args = ("sample", "--q", "1.5", *_ID, "--n-samples", "1000")
    assert run_main(capsys, *args)[0] == 0
    # g vanishes inside the support at c = -0.4, which only the partner
    # would find: sampling refuses the non-canonical map first
    code, out, err = run_main(capsys, *args, "--c", "-0.4")
    assert (code, out) == (2, "")
    assert "sampling assumes the canonical map" in err


@pytest.mark.parametrize("q, domain", [(0.5, "0:inf"), (1.2, "-inf:inf")])
def test_transform_without_a_grid_exits_two_before_normalizing(capsys, monkeypatch, q, domain):
    # at q = 1.2 on the line the normalization fails (p grows like dist^-5
    # toward the root of phi at x = -5, exit 3); the missing flag is found first
    from qbridge import cli

    def refuse(*args, **kwargs):
        raise AssertionError("transform normalized before checking --grid")

    monkeypatch.setattr(cli, "normalize_tsallis", refuse)
    code, out, err = run_main(capsys, "transform", "--q", str(q), *_ID, f"--domain={domain}")
    assert (code, out) == (2, "")
    assert "transform requires --grid" in err


_SOLVE_ID = ("solve-shannon", "--q", "1", "--lambda", "1", "--domain", "0:inf")


@pytest.mark.parametrize("args, message", [
    # these exited 5 claiming "target nan is below every attainable moment",
    # ended in a ValueError traceback, exited 5 with a false infeasibility
    # claim, and exited 2 only at serialization after computing everything
    ((*_SOLVE_ID, "--h", "identity", "--K", "nan"), "targets must be finite"),
    ((*_SOLVE_ID, "--h", "identity", "--K", "inf"), "targets must be finite"),
    ((*_SOLVE_ID, "--h", "poly:0,nan", "--K", "1"), "coefficients must be finite"),
    (("averages", "--q", "0.5", *_ID, "--A", "poly:0,nan"), "coefficients must be finite"),
    (("sample", "--q", "0.5", *_ID, "--seed", "-1"), "seed must be non-negative"),
    # these exited 0 with fits whose every estimate was accepted
    ((*_SOLVE_ID, "--h", "identity", "--K", "2", "--rel-tol", "inf"),
     "tolerances must be positive and finite"),
    ((*_SOLVE_ID, "--h", "identity", "--K", "2", "--abs-tol", "inf"),
     "tolerances must be positive and finite"),
])
def test_non_finite_inputs_and_a_negative_seed_exit_two(capsys, monkeypatch, args, message):
    from qbridge import cli

    def refuse(*args, **kwargs):
        raise AssertionError("computed before refusing the input")

    for name in ("solve_shannon", "normalize_tsallis"):
        monkeypatch.setattr(cli, name, refuse)
    code, out, err = run_main(capsys, *args)
    assert (code, out) == (2, "")
    assert message in err


def test_an_overflowing_gauss_kronrod_map_warns_nothing(capsys):
    # lam = 1e-308 maps the re-check's tail at a width of 1e308, whose nodes
    # and weights overflow: the re-check fails typed, and no numpy warning
    # reaches stderr before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_main(capsys, *_SOLVE_ID, "--h", "identity", "--K", "1e308")
    assert (code, out) == (5, "")
    assert err.startswith("qbridge: the re-check of the closed-form fit") and err.count("\n") == 1
