"""The benchmark harness under bench/ names library functions and calls the
library directly.  These tests fail when a change to the package would
break a benchmark run: a traced name that no longer resolves (the run
would print "missing" as a metric), or a worker operation that raises or
that the harness's oracle rejects.  They only read bench/.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

TARGETS = ([(name, mod, attr) for name, mod, attr, _ in spans.SPAN_TARGETS]
           + list(spans.COUNT_TARGETS) + [spans.MOMENTS_TARGET])


@pytest.mark.parametrize("name,modname,attr", TARGETS, ids=[t[0] for t in TARGETS])
def test_every_traced_name_resolves(name, modname, attr):
    _, _, value = spans.Tracer()._lookup(modname, attr)
    assert value is not None, f"{name}: {modname}.{attr} is gone"


CHECKS = {"fit-moments": oracle.check_fit_op, "map-nonlinear": oracle.check_map_op}


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(CHECKS))
def test_worker_operation_passes_the_oracle(workload, traced):
    inp = workloads.in_process_op(workload, 1, "w0", 0)
    tracer = spans.Tracer().install() if traced else None
    try:
        out = worker.run_op(workload, inp)
    finally:
        if tracer is not None:
            tracer.uninstall()
    assert "error" not in out
    assert CHECKS[workload](inp, out) == []
    if tracer is not None:
        assert tracer.missing == []


@pytest.mark.parametrize("index", range(len(workloads.CLI_KINDS)),
                         ids=list(workloads.CLI_KINDS))
def test_cli_rotation_passes_the_oracle(capsys, index):
    # one whole cli-cold rotation, run in process: a change to a command's
    # output fails here rather than as an incorrect benchmark operation
    from qbridge import cli
    op = workloads.cli_op(1, index)
    code = 0 if op["argv"] is None else cli.main(op["argv"])
    out, err = capsys.readouterr()
    assert oracle.check_cli(op, code, out) == [], err


def test_a_fit_op_calls_numpy_roots_only_for_the_quartic(monkeypatch):
    # (lam.h)' is a constant for x and a line for x, x^2, whose root needs
    # no LAPACK call; only x, x^2, x^4 has a cubic (lam.h)'
    import numpy as np
    real, calls = np.roots, []
    monkeypatch.setattr(np, "roots", lambda p: calls.append(p) or real(p))
    for index in range(3):
        for solve in workloads.fit_op(7, "w0", index)["solves"]:
            calls.clear()
            worker.solve(solve)
            assert len(calls) <= (1 if solve["name"] == "3c" else 0), solve["name"]


def test_quartic_fits_of_a_run_average_at_most_five_moment_passes(monkeypatch):
    # x, x^2, x^4 start at the fourth-moment fit: a mean of 8.0 passes per
    # solve from the Gaussian start over these 100 operations
    import qbridge.maxent as maxent
    build, passes = maxent._moment_functions, []

    def counting(*args, **kwargs):
        moments = build(*args, **kwargs)
        return lambda *a, **kw: passes.append(1) or moments(*a, **kw)

    monkeypatch.setattr(maxent, "_moment_functions", counting)
    for index in range(100):
        solve = workloads.fit_op(7, "w0", index)["solves"][2]
        assert solve["name"] == "3c"
        assert "error" not in worker.solve(solve)
    assert len(passes) <= 5 * 100


def test_fit_ops_average_at_most_5_7_moment_passes_and_3_3_re_check_rounds(monkeypatch):
    # the exponential and Gaussian fits take no moment pass, and the re-check
    # maps each tail at the density's own width: 7.62 passes and 4.38 rounds
    # per operation with a pass for every fit and QUADPACK's unit-width map
    import qbridge.maxent as maxent
    import qbridge.quadrature as quadrature
    build, kronrod, passes, rounds = maxent._moment_functions, quadrature._kronrod, [], []

    def counting(*args, **kwargs):
        moments = build(*args, **kwargs)
        return lambda *a, **kw: passes.append(1) or moments(*a, **kw)

    monkeypatch.setattr(maxent, "_moment_functions", counting)
    monkeypatch.setattr(quadrature, "_kronrod", lambda *a: rounds.append(1) or kronrod(*a))
    for index in range(100):
        for solve in workloads.fit_op(7, "w0", index)["solves"]:
            worker.solve(solve)
    assert len(passes) <= 5.7 * 100
    assert len(rounds) <= 3.3 * 100


def test_one_fit_op_makes_the_counted_passes(monkeypatch):
    # counts stay put where timings on a shared machine do not: one fixed
    # fit-moments op, its work per solve and per averages call
    import numpy as np
    import qbridge.maxent as maxent
    import qbridge.quadrature as quadrature
    counts = {name: 0 for name in ("levels", "rounds", "passes", "roots", "quad")}

    def counting(name, f):
        def counted(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return counted

    # one _moment_rows lookup per level a moment pass evaluates
    monkeypatch.setattr(maxent, "_moment_rows", counting("levels", maxent._moment_rows))
    monkeypatch.setattr(quadrature, "_kronrod", counting("rounds", quadrature._kronrod))
    monkeypatch.setattr(quadrature, "integrate_de_rows",
                        counting("passes", quadrature.integrate_de_rows))
    monkeypatch.setattr(np, "roots", counting("roots", np.roots))
    monkeypatch.setattr(quadrature, "quad", counting("quad", quadrature.quad))
    op = workloads.in_process_op("fit-moments", 1, "w0", 0)
    per_solve = {}
    for solve in op["solves"]:
        counts["levels"] = counts["rounds"] = 0
        worker.solve(solve)
        per_solve[solve["name"]] = (counts["levels"], counts["rounds"])
    # (DE level evaluations, Gauss-Kronrod rounds); the infeasible targets
    # end at a certificate in the first pass, before any re-check
    assert per_solve == {"1c": (0, 1), "2c": (0, 1), "3c": (5, 2), "infeasible": (1, 0)}
    for averages in op["averages"]:     # q = 0.5 and 1.2 on the half-line: closed forms
        worker.averages(averages)
    assert (counts["passes"], counts["roots"], counts["quad"]) == (0, 0, 0)


def test_the_tsallis_integrals_make_the_counted_screens_and_passes(monkeypatch, capsys):
    # every normalization and average of the q-exponential family goes through
    # TsallisSolution.integrals, which screens each row once
    import qbridge.averaging as averaging
    import qbridge.cli as cli
    import qbridge.quadrature as quadrature
    from qbridge.transform import ConstraintSet
    counts = {name: 0 for name in ("divergence", "passes", "quadpack")}

    def counting(name, f):
        def counted(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return counted

    monkeypatch.setattr(ConstraintSet, "divergence",
                        counting("divergence", ConstraintSet.divergence))
    monkeypatch.setattr(quadrature, "integrate_de_rows",
                        counting("passes", quadrature.integrate_de_rows))
    monkeypatch.setattr(quadrature, "integrate", counting("quadpack", quadrature.integrate))
    averaging._pass.cache_clear()
    for averages in workloads.in_process_op("fit-moments", 1, "w0", 0)["averages"]:
        worker.averages(averages)
    # per call: the normalization's row, then one pass of three rows, all in
    # closed form
    assert counts == {"divergence": 8, "passes": 0, "quadpack": 0}
    # the Shannon partner of h = x on the half-line is in closed form too
    counts.update(divergence=0)
    assert cli.main(workloads.cli_setup_op(1, 0)["argv"]) == 0
    capsys.readouterr()
    assert counts["passes"] == 0 and counts["quadpack"] == 0
