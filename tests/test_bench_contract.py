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
    build, gk21, passes, rounds = maxent._moment_functions, quadrature._gk21, [], []

    def counting(*args, **kwargs):
        moments = build(*args, **kwargs)
        return lambda *a, **kw: passes.append(1) or moments(*a, **kw)

    monkeypatch.setattr(maxent, "_moment_functions", counting)
    monkeypatch.setattr(quadrature, "_gk21", lambda *a: rounds.append(1) or gk21(*a))
    for index in range(100):
        for solve in workloads.fit_op(7, "w0", index)["solves"]:
            worker.solve(solve)
    assert len(passes) <= 5.7 * 100
    assert len(rounds) <= 3.3 * 100
