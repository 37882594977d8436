"""One measured process of an in-process workload (map-nonlinear, fit-moments).

Reads a request as JSON on stdin, times `import qbridge` plus one
discarded warm-up operation (the set-up time), then runs operations one
after another until its share of the run's seconds is used up.  Writes
one JSON line per operation (input, output, latency) on stdout, then a
summary line with the set-up time, its peak RSS and, if traced, the spans.
Inputs are generated between operations, outside the timed region.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import sys
import time

t_start = time.perf_counter()
import qbridge  # noqa: E402  (the import is part of the measured set-up)
import qbridge.averaging as A  # noqa: E402
import qbridge.errors as E  # noqa: E402
import qbridge.maxent as M  # noqa: E402
import qbridge.qkernel as K  # noqa: E402
import qbridge.quadrature as Q  # noqa: E402
import qbridge.transform as T  # noqa: E402
import_s = time.perf_counter() - t_start

import workloads  # noqa: E402

# Every call below goes through a module attribute, so wrappers the
# tracer installs after this point are the ones called.
QUAD = Q.QuadratureSpec()
HALF = K.SupportInterval(0.0, math.inf)
REAL = K.SupportInterval(-math.inf, math.inf)


def _observable(coeffs):
    if list(coeffs) == [0.0, 0.0, 1.0]:
        return T.ConstraintFn.square()
    return T.ConstraintFn.polynomial(coeffs)


def map_case(c: dict) -> dict:
    q, lam, grid = c["q"], c["lam"], c["grid"]
    cs = T.ConstraintSet((_observable(c["coeffs"]),), (lam,))
    spec = T.TransformSpec(K.QIndex(q), cs)
    m = T.TransformMap.from_spec(spec)
    g = [m.g(x) for x in grid]
    jac = [m.J(x) for x in grid]
    u = [m.u(x) for x in grid]
    xs = [m.x(u[i]) for i in range(0, len(grid), c["inverse_stride"])]
    tsallis = M.normalize_tsallis(q, cs, QUAD, domain=REAL)
    u_lo, u_hi = T.u_image(spec, tsallis.support)
    image = K.SupportInterval(u_lo, u_hi, closed_lower=False, closed_upper=False)
    z = Q.integrate(lambda v: math.exp(-cs.potential(v)), image, QUAD)
    shannon = M.ShannonSolution(mu=math.log(z), cs=cs, domain=image)
    report = M.verify_transport(shannon, tsallis, m, grid, tol=1e-6)
    return {"support": [m.support.lower, m.support.upper], "u_image": list(m.u_image),
            "g": g, "J": jac, "u": u, "x": xs, "C": tsallis.C, "mu": shannon.mu,
            "transport_residual": report.max_abs_residual}


BASIS = {1: T.ConstraintFn.identity, 2: T.ConstraintFn.square,
         4: lambda: T.ConstraintFn.polynomial((0.0, 0.0, 0.0, 0.0, 1.0))}


def solve(s: dict) -> dict:
    cs = T.ConstraintSet(tuple(BASIS[p]() for p in s["powers"]),
                         (1.0,) * len(s["powers"]), targets=tuple(s["targets"]))
    try:
        sol = M.solve_shannon(cs, HALF if s["domain"] == "half" else REAL, QUAD)
    except E.QBridgeError as exc:
        return {"error": repr(exc), "error_mro": [k.__name__ for k in type(exc).__mro__]}
    return {"lams": list(sol.cs.multipliers), "mu": sol.mu}


def averages(a: dict) -> dict:
    q = a["q"]
    tsallis = M.normalize_tsallis(q, T.ConstraintSet((T.ConstraintFn.identity(),), (a["lam"],)),
                                  QUAD, domain=HALF)
    obs = A.Observable.identity()
    return {"C": tsallis.C, "linear": A.mean_linear(tsallis, obs, QUAD),
            "ct": A.mean_ct(tsallis, obs, q, QUAD), "tmp": A.mean_tmp(tsallis, obs, q, QUAD),
            "x_q": A.escort_norm(tsallis, q, QUAD).x_q}


def run_op(workload: str, inp: dict) -> dict:
    if workload == "map-nonlinear":
        return {"cases": [map_case(c) for c in inp["cases"]]}
    return {"solves": [solve(s) for s in inp["solves"]],
            "averages": [averages(a) for a in inp["averages"]]}


def near_root(p: dict) -> dict:
    cs = T.ConstraintSet((T.ConstraintFn.polynomial(p["coeffs"]),), (p["lam"],))
    out: dict = {}
    try:
        support = T.qexp_support(p["q"], cs, anchor=0.0)
        out["support"] = [support.lower, support.upper]
        spec = T.TransformSpec(K.QIndex(p["q"]), cs)
        out["u"] = [T.u_of_x(x, spec) for x in p["points"]]
    except E.QBridgeError as exc:
        out["error"] = repr(exc)
    return out


# The hand-taken counts the tracer must reproduce at scipy's quad boundary:
# (label, powers, targets, domain, quad calls, integrand evaluations).
REFERENCE_SOLVES = (
    ("x on the half-line, K = 2", [1], [2.0], "half", 36, 6660),
    ("x and x^2 on the real line, K = (0.5, 1)", [1, 2], [0.5, 1.0], "real", 118, 48960),
)


def reference_counts(label, powers, targets, domain, calls, evals) -> dict:
    from spans import Tracer
    tracer = Tracer().install()
    try:
        tracer.begin_op(0)
        solve({"powers": powers, "targets": targets, "domain": domain})
        tracer.end_op()
    finally:
        tracer.uninstall()
    return {"label": label, "trace": tracer.dump(), "expected": [calls, evals]}


def main() -> None:
    req = json.loads(sys.stdin.read())
    if req.get("probe_only"):
        p = workloads.near_root_probe(req["seed"])
        sys.stdout.write(json.dumps({"input": p, "output": near_root(p)}) + "\n")
        return
    workload, seed, stream = req["workload"], req["seed"], req["stream"]
    tracer = None
    if req["trace"]:
        from spans import Tracer
        tracer = Tracer().install()
    warm = workloads.in_process_op(workload, seed, stream + "-warmup", 0)
    t0 = time.perf_counter()
    run_op(workload, warm)
    setup_s = import_s + time.perf_counter() - t0
    if tracer is not None:
        tracer.spans.clear()
        tracer.counts.clear()

    # A traced worker runs a fixed number of operations, so that its counts
    # repeat exactly for a given seed; an untraced one runs for its seconds.
    # Each operation goes out as one JSON line at once, so the process does
    # not grow with the number of operations it has run.
    deadline = time.perf_counter() + req["seconds"]
    limit = req.get("ops")
    i = 0
    while (i < limit) if limit is not None else (time.perf_counter() < deadline):
        inp = workloads.in_process_op(workload, seed, stream, i)
        gc.collect()    # start every operation from the same heap state
        if tracer is not None:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            out = run_op(workload, inp)
        except Exception as exc:  # a failed operation is recorded, not fatal
            out = {"error": repr(exc)}
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        sys.stdout.write(json.dumps({"input": inp, "output": out, "latency": latency}) + "\n")
        i += 1

    reference = None
    if tracer is not None and workload == "fit-moments":
        tracer.uninstall()
        reference = [reference_counts(*case) for case in REFERENCE_SOLVES]

    summary = {"setup_s": setup_s, "import_s": import_s, "reference": reference,
               "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               "trace": tracer.dump() if tracer is not None else None}
    sys.stdout.write(json.dumps(summary) + "\n")


if __name__ == "__main__":
    main()
