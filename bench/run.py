"""qbridge benchmark: one command, one oracle, workloads chosen by name.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; qbridge is imported from ./src.  Workloads
(see bench/metadata.json for why each was chosen and what it should move):

  cli-cold       fresh `python -m qbridge ...` processes, kinds in a fixed
                 rotation; one closed-loop client
  fit-moments    Shannon moment fitting and averaging, warm, in process;
                 one closed-loop client
  map-nonlinear  u(x), x(u), normalization and transport for nonlinear h,
                 warm, in process; one closed-loop client.  Not listed in
                 BENCHMARK.json: on a shared 2-vCPU host its latency swings
                 with the neighbours' load by more than any allowed bound.
                 Its traced counts are exact and remain useful.

Every operation's output is checked by bench/oracle.py, which does not
import qbridge.  Two known defects are run as named probes in every
cli-cold run, outside the timed phase, and reported on their own lines;
they do not enter the operation counts.  With --trace 0 the last line
carries the end-to-end metrics, with --trace 1 the per-layer metrics
from spans recorded around qbridge's functions (bench/spans.py).  The human-readable
lines before it also give fail_ratio, per-kind cold times and a
pure-Python calibration reading for telling machine drift from a change.

The benchmark's own tests: PYTHONPATH=src python3 -m pytest bench/tests
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("cli-cold", "map-nonlinear", "fit-moments")
SETUPS = 3              # set-up is measured this many times per run; the median is reported
TRACED_OPS = 16         # a traced run traces a fixed list of operations (cli-cold:
TRACED_ROTATIONS = 2    # whole rotations), so its counts repeat exactly for a seed
CHILD_TIMEOUT_S = 120.0


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it, by nearest rank; never below the median, which is
    what it falls back to in runs of fewer than twenty operations."""
    xs = sorted(latencies)
    n = len(xs)
    rank = n - 10                      # 1-based rank with exactly ten samples above
    if rank < (n + 1) / 2:
        return statistics.median(xs), 50.0
    return xs[rank - 1], 100.0 * rank / n


def calibrate(rounds: int = 7) -> float:
    """Median ms of a fixed pure-Python loop: a machine-speed reading."""
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


class Env:
    def __init__(self, root: Path):
        self.root = root
        self.out = root / ".bench_out"
        self.out.mkdir(exist_ok=True)
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")


def run_child(env: Env, cmd: list[str], extra_env: dict | None = None):
    """Run one child to completion; returns (seconds, exit code, stdout,
    stderr, peak RSS in KiB of that child alone)."""
    out_path, err_path = env.out / "child.out", env.out / "child.err"
    child_env = dict(env.env, **(extra_env or {}))
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=child_env, cwd=env.root)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    text = out_path.read_text(encoding="utf-8")
    err = err_path.read_text(encoding="utf-8")
    out_path.unlink()
    err_path.unlink()
    return elapsed, proc.returncode, text, err, usage.ru_maxrss


def cli_command(op: dict, traced: bool) -> list[str]:
    if traced:
        return [sys.executable, str(BENCH / "cli_child.py"), *(op["argv"] or [])]
    if op["argv"] is None:
        return [sys.executable, "-c", "import qbridge"]
    return [sys.executable, "-m", "qbridge", *op["argv"]]


def import_probe(env: Env) -> dict:
    """Median import-layer figures of fresh `-X importtime` processes."""
    rows = []
    for _ in range(SETUPS):
        _, code, _, err, _ = run_child(env, [sys.executable, "-X", "importtime", "-c",
                                             "import qbridge"])
        if code != 0:
            raise RuntimeError(f"import qbridge failed:\n{err}")
        rows.append(spans.parse_importtime(err))
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


# ----------------------------------------------------------------------
# cli-cold

def run_cli_cold(env: Env, seed: int, seconds: float, trace: bool) -> dict:
    setup = []
    for i in range(SETUPS):
        elapsed, code, _, err, _ = run_child(env, cli_command(workloads.cli_setup_op(seed, i), False))
        if code != 0:
            raise RuntimeError(f"set-up invocation failed:\n{err}")
        setup.append(elapsed)

    rotation = len(workloads.CLI_KINDS)
    # (seconds, traced): a traced phase runs a fixed number of whole rotations
    phases = [(seconds, False)] if not trace else [(seconds / 2, False), (0.0, True)]
    records, index = [], 0
    for phase_seconds, traced in phases:
        deadline = time.perf_counter() + phase_seconds
        stop = index + TRACED_ROTATIONS * rotation
        # whole rotations only, so every kind has the same weight in the median
        while (index < stop) if traced else (time.perf_counter() < deadline or index % rotation):
            op = workloads.cli_op(seed, index)
            trace_path = env.out / f"cli-span-{index}.json"
            extra = {"BENCH_TRACE_OUT": str(trace_path)} if traced else None
            elapsed, code, text, err, rss = run_child(env, cli_command(op, traced), extra)
            rec = {"op": op, "latency": elapsed, "code": code, "text": text,
                   "stderr": err, "rss_kb": rss, "traced": traced}
            if traced:
                rec["trace"] = json.loads(trace_path.read_text(encoding="utf-8"))
                trace_path.unlink()
            records.append(rec)
            index += 1

    # The two known defects, run once per run outside the timed phase.
    probe = workloads.CLI_DEFECT_PROBE
    _, code, text, _, _ = run_child(env, cli_command(probe, False))
    near_root = run_worker(env, {"probe_only": True, "seed": seed, "seconds": 0})
    p = near_root["input"]
    probes = {
        "general_form_collapses_at_c_zero (verify --q 1.5 --lambda 1 --h square "
        "--domain=-inf:inf)": oracle.check_cli(probe, code, text),
        f"near_repeated_root_support (qexp_support on phi = (x-c)^2 - delta, c={p['c']:.6g}, "
        f"delta={p['delta']:.3g})": oracle.check_near_root(p, near_root["output"]),
    }

    failures = []
    for rec in records:
        try:
            bad = oracle.check_cli(rec["op"], rec["code"], rec["text"])
        except (ValueError, KeyError, IndexError) as exc:
            bad = [f"unreadable output ({exc!r}): {rec['stderr'][-300:]}"]
        rec["failures"] = bad
        failures += bad
        rec.pop("text")
    return {"setup": setup, "records": records, "probes": probes}


# ----------------------------------------------------------------------
# in-process workloads

def run_worker(env: Env, req: dict) -> dict:
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py")], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env.env,
                            cwd=env.root)
    try:
        out, err = proc.communicate(json.dumps(req).encode(),
                                    timeout=req["seconds"] + CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{err.decode()[-2000:]}")
    *ops, summary = [json.loads(line) for line in out.splitlines()]
    return dict(summary, ops=ops)


def run_in_process(env: Env, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    check = oracle.check_map_op if workload == "map-nonlinear" else oracle.check_fit_op
    # A traced run has one untraced worker, the baseline of
    # trace.overhead_ratio, and one traced worker with a fixed operation count.
    plan = ([{"seconds": seconds / SETUPS, "trace": False}] * SETUPS if not trace else
            [{"seconds": seconds / 2, "trace": False}, {"seconds": 0, "trace": True,
                                                       "ops": TRACED_OPS}])
    results = [run_worker(env, dict(step, workload=workload, seed=seed, stream=f"w{k}"))
               for k, step in enumerate(plan)]
    records = []
    for res in results:
        for op in res["ops"]:
            out = op["output"]
            bad = [f"raised {out['error']}"] if "error" in out else check(op["input"], out)
            records.append({"latency": op["latency"], "failures": bad,
                            "traced": res["trace"] is not None, "rss_kb": res["maxrss_kb"]})
    reference = [ref for r in results for ref in (r["reference"] or [])]
    return {"setup": [r["setup_s"] for r in results], "records": records, "probes": {},
            "traces": [r["trace"] for r in results if r["trace"] is not None],
            "reference": reference}


# ----------------------------------------------------------------------
# metrics

def end_to_end(result: dict) -> dict:
    lat = [r["latency"] for r in result["records"] if not r["traced"]]
    tail_s, _ = tail(lat)
    return {
        "setup_s": {"value": statistics.median(result["setup"]), "unit": "s"},
        "op_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
        "op_tail_ms": {"value": tail_s * 1e3, "unit": "ms"},
        "ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "peak_rss_mb": {"value": max(r["rss_kb"] for r in result["records"]) / 1024.0,
                        "unit": "MB"},
    }


def cold_by_kind(records: list[dict]) -> dict:
    out = {}
    for kind in workloads.CLI_KINDS:
        lat = [r["latency"] for r in records
               if not r["traced"] and r.get("op", {}).get("kind") == kind]
        out[kind] = (statistics.median(lat) * 1e3, len(lat)) if lat else (0.0, 0)
    return out


def layer_unit(name: str) -> str:
    if name.endswith("ms") or "_ms_" in name:
        return "ms"
    if name.endswith("_us_per_call"):
        return "us"
    if name.endswith("bytes") or name.endswith("bytes_computed"):
        return "B"
    if name.endswith("_share") or name.endswith("_ratio"):
        return "1"
    return "count"


def per_layer(env: Env, workload: str, result: dict) -> tuple[dict, list[str]]:
    records = result["records"]
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    if workload == "cli-cold":
        traces = [r["trace"] for r in traced]
        invocations = sum(1 for r in traced if r["op"]["argv"] is not None)
    else:
        traces = result["traces"]
        invocations = 0
    agg = spans.aggregate(traces, n_ops=len(traced), cli_invocations=invocations)
    m = dict(agg["metrics"])
    m.update(import_probe(env))
    for kind, (ms, _) in cold_by_kind(records).items():
        m[f"cli.cold_{kind.replace('-', '_')}_ms"] = ms
    m["trace.overhead_ratio"] = (statistics.median(r["latency"] for r in traced)
                                 / statistics.median(r["latency"] for r in untraced))
    path = env.out / f"trace-{workload}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(traces, fh)
    return ({k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(m.items())},
            agg["missing"])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qbridge" / "__init__.py").is_file():
        print(f"bench: no qbridge sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    env = Env(root)
    drift_before = calibrate()
    if args.workload == "cli-cold":
        result = run_cli_cold(env, args.seed, args.seconds, bool(args.trace))
    else:
        result = run_in_process(env, args.workload, args.seed, args.seconds, bool(args.trace))
    drift_after = calibrate()

    records = result["records"]
    failures = [f for r in records for f in r["failures"]]
    failed = sum(1 for r in records if r["failures"])
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  operations {len(records)}")
    if args.trace:
        metrics, missing = per_layer(env, args.workload, result)
        if missing:
            print("missing names (their metrics read 'missing'): " + ", ".join(missing))
        for ref in result.get("reference", []):
            m = spans.aggregate([ref["trace"]], 1, 0)["metrics"]
            got = [m["quadrature.scipy_quad_calls"], m["quadrature.integrand_evals"]]
            state = "match" if got == ref["expected"] else "DIFFER"
            print(f"reference counts, {ref['label']}: {got[0]:g} quad calls, {got[1]:g} "
                  f"integrand evaluations; hand-taken {ref['expected'][0]}, "
                  f"{ref['expected'][1]}: {state}")
    else:
        metrics = end_to_end(result)
        untraced = [r["latency"] for r in records if not r["traced"]]
        _, pct = tail(untraced)
        print(f"op_tail_ms is p{pct:.1f} of n={len(untraced)}; op_p50_ms n={len(untraced)}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']!s:>24} {m['unit']}")
    print(f"  {'fail_ratio':40s} {failed / len(records):>24} 1  ({failed}/{len(records)})")
    if args.workload == "cli-cold":
        for kind, (ms, n) in cold_by_kind(records).items():
            print(f"  cold_{kind.replace('-', '_') + '_ms':35s} {ms:>24.3f} ms  (n={n})")
    for msg in failures[:20]:
        print(f"  FAILED {msg}")
    for name, bad in result["probes"].items():
        state = "reproduces" if bad else "does not reproduce on this input"
        print(f"known defect {name}: {state}")
        for msg in bad[:5]:
            print(f"    {msg}")
    print(f"calibration_ms {drift_before:.3f} before, {drift_after:.3f} after "
          "(fixed pure-Python loop; metadata, not a metric)")
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
