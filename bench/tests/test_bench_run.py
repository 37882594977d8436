"""The harness itself: seeded inputs, the tail rule, refusing to run blind."""

import json
import shutil
import subprocess
import sys

import run
import spans
import workloads
from conftest import BENCH, ROOT


def test_same_seed_same_inputs():
    for w in ("map-nonlinear", "fit-moments"):
        assert workloads.in_process_op(w, 4, "w1", 3) == workloads.in_process_op(w, 4, "w1", 3)
        assert workloads.in_process_op(w, 4, "w1", 3) != workloads.in_process_op(w, 5, "w1", 3)
    assert [workloads.cli_op(4, i) for i in range(12)] == [workloads.cli_op(4, i)
                                                           for i in range(12)]


def test_rotation_interleaves_every_kind():
    kinds = [workloads.cli_op(0, i)["kind"] for i in range(12)]
    assert kinds == list(workloads.CLI_KINDS) * 2


def test_tail_has_ten_samples_beyond_it():
    lat = [float(i) for i in range(1, 101)]
    value, pct = run.tail(lat)
    assert value == 90.0 and pct == 90.0
    assert sum(1 for v in lat if v > value) == 10
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    cp = subprocess.run([sys.executable, "bench/run.py", "--workload", "fit-moments",
                         "--seed", "1", "--seconds", "1", "--trace", "0"],
                        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert cp.returncode != 0
    assert '"correct"' not in cp.stdout


def test_benchmark_json_names_every_metric_the_run_emits():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = json.loads((BENCH / "metadata.json").read_text())
    layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert set(layer) == set(meta["per_layer"])
    emitted = set(spans.aggregate([], 0, 0)["metrics"]) | {
        "import.qbridge_ms", "import.scipy_ms", "import.numpy_ms", "import.modules",
        "trace.overhead_ratio"} | {f"cli.cold_{k.replace('-', '_')}_ms"
                                   for k in workloads.CLI_KINDS}
    assert emitted == set(layer)
    assert all(run.layer_unit(k) == u for k, u in layer.items())
    assert {w["name"] for w in doc["workloads"]} < set(run.WORKLOADS) == set(meta["workloads"])
    assert [m["name"] for m in doc["end_to_end"]] == list(meta["end_to_end"])[:-1]
    fake = {"setup": [1.0], "records": [{"latency": 0.5, "traced": False, "rss_kb": 1024}]}
    assert ({k: m["unit"] for k, m in run.end_to_end(fake).items()}
            == {m["name"]: m["unit"] for m in doc["end_to_end"]})
