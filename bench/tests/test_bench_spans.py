"""The tracer's counts: the hand-taken figures, exact repeats, missing names."""

import math

import pytest

import qbridge as qb
import qbridge.maxent
import spans
import worker
import workloads

HALF = qb.SupportInterval(0.0, math.inf)
REAL = qb.SupportInterval(-math.inf, math.inf)


def _traced(fn):
    tracer = spans.Tracer().install()
    try:
        tracer.begin_op(0)
        fn()
        tracer.end_op()
    finally:
        tracer.uninstall()
    return tracer.dump()


def _solve(constraints, targets, domain):
    cs = qb.ConstraintSet(constraints, (1.0,) * len(constraints), targets=targets)
    return lambda: qbridge.maxent.solve_shannon(cs, domain, qb.QuadratureSpec())


@pytest.mark.parametrize("constraints,targets,domain,size,calls,evals", [
    ((qb.ConstraintFn.identity(),), (2.0,), HALF, "1c", 36, 6660),
    ((qb.ConstraintFn.identity(), qb.ConstraintFn.square()), (0.5, 1.0), REAL, "2c", 118, 48960),
])
def test_solve_counts_match_the_hand_taken_figures(constraints, targets, domain, size,
                                                   calls, evals):
    m = spans.aggregate([_traced(_solve(constraints, targets, domain))], 1, 0)["metrics"]
    assert m[f"maxent.solve_shannon_integrals_{size}"] == calls
    assert m[f"maxent.solve_shannon_evals_{size}"] == evals
    assert m["quadrature.scipy_quad_calls"] == calls
    assert m["quadrature.integrand_evals"] == evals


def _counts(metrics):
    return {k: v for k, v in metrics.items()
            if not (k.endswith("ms") or "_ms_" in k or k.endswith("_us_per_call"))}


@pytest.mark.parametrize("workload", ["map-nonlinear", "fit-moments"])
def test_counts_repeat_exactly(workload):
    inp = workloads.in_process_op(workload, 11, "w0", 0)
    if workload == "map-nonlinear":
        inp = {"cases": inp["cases"][::3]}      # keep the test short
    runs = [spans.aggregate([_traced(lambda: worker.run_op(workload, inp))], 1, 0)["metrics"]
            for _ in range(2)]
    assert _counts(runs[0]) == _counts(runs[1])
    assert runs[0]["qkernel.q_exp_calls"] > 0
    assert runs[0]["quadrature.integrand_evals"] > 0


def test_missing_name_reads_missing(monkeypatch):
    monkeypatch.delattr(qbridge.maxent, "_bisection_fallback")
    result = spans.aggregate([_traced(lambda: None)], 1, 0)
    assert "maxent._bisection_fallback" in result["missing"]
    assert result["metrics"]["maxent.bisection_fallbacks"] == "missing"
    assert result["metrics"]["quadrature.scipy_quad_calls"] == 0.0


def test_uninstall_restores_every_name():
    before = {k: v for k, v in vars(qbridge.maxent).items()}
    commands = dict(qbridge.cli.COMMANDS)
    _traced(lambda: None)
    assert all(vars(qbridge.maxent)[k] is v for k, v in before.items())
    assert qbridge.cli.COMMANDS == commands


def test_self_time_subtracts_children():
    s = [["a", -1, 0, 0, 100, 0, 0, 0, 0, None, None],
         ["b", 0, 0, 10, 40, 0, 0, 0, 0, None, None],
         ["c", 0, 0, 50, 60, 0, 0, 0, 0, None, None]]
    assert spans.SpanIndex(s).self_time(0) == 60


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       300 |        400 |   numpy",
        "import time:       200 |        200 |     scipy._lib",
        "import time:       500 |        700 |   scipy",
        "import time:        50 |       1150 | qbridge",
    ])
    got = spans.parse_importtime(text)
    assert got == {"import.qbridge_ms": 1.15, "import.scipy_ms": 0.7,
                   "import.numpy_ms": 0.4, "import.modules": 5.0}
