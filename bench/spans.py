"""Spans and counters recorded from outside qbridge.

`Tracer.install()` replaces module-global names with wrappers, in every
qbridge module that holds them, so each importing module's own lookup
(for example `qbridge.transform.u_of_x` or `qbridge.maxent.integrate`)
goes through a wrapper.  A wrapper records one span per call: name,
start, end, parent span, the operation it belongs to, and the integrand
and count totals at entry and exit.  The callable passed into
`integrate`, `path_integral`, `_quad` or scipy's `quad` is itself wrapped
once, so each integrand evaluation is counted exactly once however many
of those layers it passes through.  Spans stay in memory until the
process writes them out at the end.

Importing this module does not import qbridge; `aggregate` works on
plain span lists and is used by the parent process.
"""

from __future__ import annotations

import functools
import importlib
import re
import statistics
import sys
import time
from collections import Counter, defaultdict

# (span name, defining module, attribute, options).  A name missing from
# the code under test is reported, and metrics built on it read "missing".
SPAN_TARGETS = (
    ("transform.from_spec", "qbridge.transform", "TransformMap.from_spec", {}),
    ("transform.qexp_support", "qbridge.transform", "qexp_support", {}),
    ("transform.u_image", "qbridge.transform", "u_image", {}),
    ("transform.u_of_x", "qbridge.transform", "u_of_x", {}),
    ("transform.x_of_u", "qbridge.transform", "x_of_u", {}),
    ("quadrature.integrate", "qbridge.quadrature", "integrate", {"integrand": True}),
    ("quadrature.path_integral", "qbridge.quadrature", "path_integral", {"integrand": True}),
    ("quadrature._quad", "qbridge.quadrature", "_quad", {"integrand": True}),
    ("quadrature.truncated_bound", "qbridge.quadrature", "truncated_bound", {}),
    ("quadrature.scipy_quad", "qbridge.quadrature", "quad", {"integrand": True}),
    ("maxent.solve_shannon", "qbridge.maxent", "solve_shannon", {"tag": "size"}),
    ("maxent._bisection_fallback", "qbridge.maxent", "_bisection_fallback", {}),
    ("maxent.normalize_tsallis", "qbridge.maxent", "normalize_tsallis", {}),
    ("maxent.verify_transport", "qbridge.maxent", "verify_transport", {}),
    ("maxent.sample_and_test", "qbridge.maxent", "sample_and_test", {"tag": "nbytes"}),
    ("averaging.mean_linear", "qbridge.averaging", "mean_linear", {}),
    ("averaging.mean_ct", "qbridge.averaging", "mean_ct", {}),
    ("averaging.mean_tmp", "qbridge.averaging", "mean_tmp", {}),
    ("averaging.escort_norm", "qbridge.averaging", "escort_norm", {}),
    ("cli.main", "qbridge.cli", "main", {}),
    ("cli.build_parser", "qbridge.cli", "build_parser", {}),
    ("cli.load_config", "qbridge.cli", "load_config", {}),
    ("cli.emit_json", "qbridge.cli", "emit_json", {"outermost": True}),
    ("cli.write_artifact", "qbridge.cli", "write_artifact", {"tag": "text_len"}),
    ("cli.cmd_transform", "qbridge.cli", "cmd_transform", {}),
    ("cli.cmd_solve_shannon", "qbridge.cli", "cmd_solve_shannon", {}),
    ("cli.cmd_verify", "qbridge.cli", "cmd_verify", {}),
    ("cli.cmd_sample", "qbridge.cli", "cmd_sample", {}),
    ("cli.cmd_averages", "qbridge.cli", "cmd_averages", {}),
)
# Count-only targets: called once per integrand evaluation, too often for spans.
COUNT_TARGETS = (
    ("qkernel.q_exp", "qbridge.qkernel", "q_exp"),
)
# The closure `_moment_functions` returns: each call is one evaluation of
# all moments at trial multipliers.
MOMENTS_TARGET = ("maxent.moments", "qbridge.maxent", "_moment_functions")

# Span record fields: integrand evaluations and moments() calls are running
# totals read at entry and exit, so any span's share is a difference.
NAME, PARENT, OP, START, END, EVALS0, EVALS1, MOM0, MOM1, ERROR, TAG = range(11)


def _tag(kind, args, kwargs, result):
    if kind == "size":
        cs = args[0] if args else kwargs.get("cs")
        return getattr(cs, "size", None)
    if kind == "nbytes" and result is not None:
        return int(result[0].nbytes)
    if kind == "text_len":
        text = args[1] if len(args) > 1 else kwargs.get("text", "")
        return len(text.encode("utf-8"))
    return None


class Tracer:
    """Installs wrappers into the loaded qbridge modules; holds the spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.evals = 0
        self.moments = 0
        self.counts: dict = defaultdict(Counter)   # op -> name -> count
        self.missing: list[str] = []
        self._undo: list = []
        self._outermost: set[str] = set()

    # -- wrappers -------------------------------------------------------

    def _counted(self, f):
        if getattr(f, "_bench_counted", False):
            return f
        tracer = self

        def integrand(*args):
            tracer.evals += 1
            return f(*args)

        integrand._bench_counted = True
        return integrand

    def _span(self, name: str, fn, opts: dict):
        tracer = self
        integrand = opts.get("integrand", False)
        tag_kind = opts.get("tag")
        outermost = opts.get("outermost", False)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost:
                if name in tracer._outermost:
                    return fn(*args, **kwargs)
                tracer._outermost.add(name)
            if integrand and args:
                args = (tracer._counted(args[0]),) + args[1:]
            stack = tracer.stack
            rec = [name, stack[-1] if stack else -1, tracer.op,
                   time.perf_counter_ns(), 0, tracer.evals, 0, tracer.moments, 0,
                   None, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = time.perf_counter_ns()
                rec[EVALS1] = tracer.evals
                rec[MOM1] = tracer.moments
                stack.pop()
                if outermost:
                    tracer._outermost.discard(name)
                if tag_kind is not None:
                    rec[TAG] = _tag(tag_kind, args, kwargs, result)

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[tracer.op][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _moments_factory(self, fn):
        tracer = self

        @functools.wraps(fn)
        def factory(*args, **kwargs):
            moments = fn(*args, **kwargs)

            def counted(*a, **kw):
                tracer.moments += 1
                return moments(*a, **kw)

            return counted

        return factory

    # -- installation ---------------------------------------------------

    def _replace(self, original, replacement) -> None:
        """Rebind `original` wherever a qbridge module's globals hold it."""
        for modname, module in list(sys.modules.items()):
            if not (modname == "qbridge" or modname.startswith("qbridge.")) or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, key, value))
                    setattr(module, key, replacement)
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if v is original:
                            self._undo.append((value, k, v))
                            value[k] = replacement

    def _lookup(self, modname: str, attr: str):
        module = importlib.import_module(modname)
        owner = module
        *path, last = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None, None
        if last not in vars(owner):
            return None, None, None
        return owner, last, vars(owner)[last]

    def install(self) -> "Tracer":
        for name, modname, attr, opts in SPAN_TARGETS:
            owner, key, value = self._lookup(modname, attr)
            if value is None:
                self.missing.append(name)
            elif isinstance(value, classmethod):
                self._undo.append((owner, key, value))
                setattr(owner, key, classmethod(self._span(name, value.__func__, opts)))
            else:
                self._replace(value, self._span(name, value, opts))
        for name, modname, attr in COUNT_TARGETS:
            _, _, value = self._lookup(modname, attr)
            if value is None:
                self.missing.append(name)
            else:
                self._replace(value, self._count(name, value))
        name, modname, attr = MOMENTS_TARGET
        _, _, value = self._lookup(modname, attr)
        if value is None:
            self.missing.append(name)
        else:
            self._replace(value, self._moments_factory(value))
        return self

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._undo.clear()

    # -- operations -----------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op

    def end_op(self) -> None:
        self.op = None

    def dump(self) -> dict:
        return {"spans": self.spans, "missing": self.missing,
                "counts": {str(op): dict(c) for op, c in self.counts.items()
                           if op is not None}}


# ----------------------------------------------------------------------
# aggregation (plain data; no qbridge needed)

QUAD_ENTRY = ("quadrature.integrate", "quadrature.path_integral", "quadrature._quad")
AVERAGING = ("averaging.mean_linear", "averaging.mean_ct", "averaging.mean_tmp",
             "averaging.escort_norm")
CLI_CMDS = ("cli.cmd_transform", "cli.cmd_solve_shannon", "cli.cmd_verify",
            "cli.cmd_sample", "cli.cmd_averages")
CLI_SERIALIZE = ("cli.emit_json", "cli.write_artifact")

# Metric name -> the span or count names it is built from.
REQUIRES = {
    "cli.parse_ms": ("cli.build_parser", "cli.load_config"),
    "cli.compute_ms": CLI_CMDS + CLI_SERIALIZE,
    "cli.serialize_ms": CLI_SERIALIZE,
    "cli.output_bytes": ("cli.write_artifact",),
    "cli.self_ms": ("cli.main",),
    "transform.from_spec_ms": ("transform.from_spec",),
    "transform.qexp_support_calls": ("transform.qexp_support",),
    "transform.qexp_support_ms": ("transform.qexp_support",),
    "transform.u_image_ms": ("transform.u_image",),
    "transform.u_of_x_calls": ("transform.u_of_x",),
    "transform.u_of_x_us_per_call": ("transform.u_of_x",),
    "transform.u_of_x_quad_share": ("transform.u_of_x",) + QUAD_ENTRY,
    "transform.x_of_u_calls": ("transform.x_of_u",),
    "transform.x_of_u_ms_per_call": ("transform.x_of_u",),
    "transform.x_of_u_u_evals_per_call": ("transform.x_of_u", "transform.u_of_x"),
    "quadrature.calls": QUAD_ENTRY,
    "quadrature.scipy_quad_calls": ("quadrature.scipy_quad",),
    "quadrature.integrand_evals": QUAD_ENTRY,
    "quadrature.evals_per_call": ("quadrature.scipy_quad",),
    "quadrature.tail_truncations": ("quadrature.truncated_bound",),
    "quadrature.errors": QUAD_ENTRY,
    "maxent.bisection_fallbacks": ("maxent._bisection_fallback",),
    "maxent.infeasible_to_error_ms": ("maxent.solve_shannon",),
    "maxent.normalize_tsallis_ms": ("maxent.normalize_tsallis",),
    "maxent.verify_transport_ms": ("maxent.verify_transport",),
    "maxent.sample_and_test_ms": ("maxent.sample_and_test",),
    "maxent.sample_bytes_computed": ("maxent.sample_and_test",),
    "averaging.ms": AVERAGING,
    "averaging.integrate_calls": AVERAGING + ("quadrature.integrate",),
    "averaging.integrand_evals": AVERAGING,
    "qkernel.q_exp_calls": ("qkernel.q_exp",),
}
for _k in ("1c", "2c", "3c"):
    REQUIRES[f"maxent.solve_shannon_ms_{_k}"] = ("maxent.solve_shannon",)
    REQUIRES[f"maxent.solve_shannon_integrals_{_k}"] = ("maxent.solve_shannon",
                                                       "quadrature.scipy_quad")
    REQUIRES[f"maxent.solve_shannon_evals_{_k}"] = ("maxent.solve_shannon",)
    REQUIRES[f"maxent.moment_evals_{_k}"] = ("maxent.solve_shannon", "maxent.moments")


class SpanIndex:
    """Children, ancestry and self time over one process's span list."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.children: dict[int, list[int]] = defaultdict(list)
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                self.children[s[PARENT]].append(i)

    def duration(self, i: int) -> int:
        s = self.spans[i]
        return s[END] - s[START]

    def self_time(self, i: int) -> int:
        """Duration minus the part covered by child spans (children of one
        span never overlap: the program is single-threaded)."""
        return self.duration(i) - sum(self.duration(c) for c in self.children[i])

    def has_ancestor(self, i: int, names) -> bool:
        p = self.spans[i][PARENT]
        while p >= 0:
            if self.spans[p][NAME] in names:
                return True
            p = self.spans[p][PARENT]
        return False

    def descendants(self, i: int):
        todo = list(self.children[i])
        while todo:
            j = todo.pop()
            yield j
            todo.extend(self.children[j])


def _count_quad(idx: SpanIndex, i: int) -> int:
    return sum(1 for j in idx.descendants(i)
               if idx.spans[j][NAME] == "quadrature.scipy_quad")


def aggregate(traces: list[dict], n_ops: int, cli_invocations: int) -> dict:
    """Per-operation layer figures from the spans of one or more processes.

    `n_ops` is the number of traced operations; cli.* figures are per cli
    invocation that ran a subcommand.
    """
    tot: Counter = Counter()
    solves: dict = defaultdict(list)
    infeasible: list[int] = []
    missing = sorted({m for t in traces for m in t["missing"]})
    for t in traces:
        spans = t["spans"]
        idx = SpanIndex(spans)
        for op_counts in t["counts"].values():
            tot.update({"count." + k: v for k, v in op_counts.items()})
        for i, s in enumerate(spans):
            name, dur = s[NAME], s[END] - s[START]
            if s[OP] is None:
                continue
            tot["n." + name] += 1
            tot["ns." + name] += dur
            if name in QUAD_ENTRY and not idx.has_ancestor(i, QUAD_ENTRY):
                tot["quad.entries"] += 1
                tot["quad.evals"] += s[EVALS1] - s[EVALS0]
                if s[ERROR] == "QuadratureError":
                    tot["quad.errors"] += 1
            if name.startswith("cli."):
                tot["cli.self_ns"] += idx.self_time(i)
            if name in CLI_SERIALIZE and not idx.has_ancestor(i, CLI_SERIALIZE):
                tot["cli.serialize_ns"] += dur
            if name in ("cli.build_parser", "cli.load_config"):
                tot["cli.parse_ns"] += dur
            if name in CLI_CMDS:
                tot["cli.cmd_ns"] += dur
            if name == "cli.write_artifact" and s[TAG] is not None:
                tot["cli.output_bytes"] += s[TAG]
            if name == "transform.u_of_x":
                if any(idx.spans[c][NAME] in QUAD_ENTRY for c in idx.children[i]):
                    tot["u.quad"] += 1
                if idx.has_ancestor(i, ("transform.x_of_u",)):
                    tot["u.in_inverse"] += 1
            if name in AVERAGING and not idx.has_ancestor(i, AVERAGING):
                tot["avg.ns"] += dur
                tot["avg.evals"] += s[EVALS1] - s[EVALS0]
                tot["avg.integrate"] += sum(
                    1 for j in idx.descendants(i)
                    if spans[j][NAME] == "quadrature.integrate")
            if name == "maxent.sample_and_test" and s[TAG] is not None:
                tot["sample.bytes"] += s[TAG]
            if name == "maxent.solve_shannon":
                if s[ERROR] is not None:
                    infeasible.append(dur)
                elif s[TAG] in (1, 2, 3):
                    solves[s[TAG]].append((dur, _count_quad(idx, i),
                                           s[EVALS1] - s[EVALS0], s[MOM1] - s[MOM0]))

    def per_op(x):
        return x / n_ops if n_ops else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "cli.parse_ms": ratio(tot["cli.parse_ns"], cli_invocations) / 1e6,
        "cli.compute_ms": ratio(tot["cli.cmd_ns"] - tot["cli.serialize_ns"], cli_invocations) / 1e6,
        "cli.serialize_ms": ratio(tot["cli.serialize_ns"], cli_invocations) / 1e6,
        "cli.output_bytes": ratio(tot["cli.output_bytes"], cli_invocations),
        "cli.self_ms": ratio(tot["cli.self_ns"], cli_invocations) / 1e6,
        "transform.from_spec_ms": per_op(tot["ns.transform.from_spec"]) / 1e6,
        "transform.qexp_support_calls": per_op(tot["n.transform.qexp_support"]),
        "transform.qexp_support_ms": per_op(tot["ns.transform.qexp_support"]) / 1e6,
        "transform.u_image_ms": per_op(tot["ns.transform.u_image"]) / 1e6,
        "transform.u_of_x_calls": per_op(tot["n.transform.u_of_x"]),
        "transform.u_of_x_us_per_call": ratio(tot["ns.transform.u_of_x"], tot["n.transform.u_of_x"]) / 1e3,
        "transform.u_of_x_quad_share": ratio(tot["u.quad"], tot["n.transform.u_of_x"]),
        "transform.x_of_u_calls": per_op(tot["n.transform.x_of_u"]),
        "transform.x_of_u_ms_per_call": ratio(tot["ns.transform.x_of_u"], tot["n.transform.x_of_u"]) / 1e6,
        "transform.x_of_u_u_evals_per_call": ratio(tot["u.in_inverse"], tot["n.transform.x_of_u"]),
        "quadrature.calls": per_op(tot["quad.entries"]),
        "quadrature.scipy_quad_calls": per_op(tot["n.quadrature.scipy_quad"]),
        "quadrature.integrand_evals": per_op(tot["quad.evals"]),
        "quadrature.evals_per_call": ratio(tot["quad.evals"], tot["n.quadrature.scipy_quad"]),
        "quadrature.tail_truncations": per_op(tot["n.quadrature.truncated_bound"]),
        "quadrature.errors": per_op(tot["quad.errors"]),
        "maxent.bisection_fallbacks": per_op(tot["n.maxent._bisection_fallback"]),
        "maxent.infeasible_to_error_ms": (statistics.median(infeasible) / 1e6
                                          if infeasible else 0.0),
        "maxent.normalize_tsallis_ms": per_op(tot["ns.maxent.normalize_tsallis"]) / 1e6,
        "maxent.verify_transport_ms": per_op(tot["ns.maxent.verify_transport"]) / 1e6,
        "maxent.sample_and_test_ms": per_op(tot["ns.maxent.sample_and_test"]) / 1e6,
        "maxent.sample_bytes_computed": per_op(tot["sample.bytes"]),
        "averaging.ms": per_op(tot["avg.ns"]) / 1e6,
        "averaging.integrate_calls": per_op(tot["avg.integrate"]),
        "averaging.integrand_evals": per_op(tot["avg.evals"]),
        "qkernel.q_exp_calls": per_op(tot["count.qkernel.q_exp"]),
    }
    for k in (1, 2, 3):
        rows = solves.get(k, [])
        key = f"{k}c"
        m[f"maxent.solve_shannon_ms_{key}"] = (statistics.median(r[0] for r in rows) / 1e6
                                               if rows else 0.0)
        m[f"maxent.solve_shannon_integrals_{key}"] = (statistics.mean(r[1] for r in rows)
                                                      if rows else 0.0)
        m[f"maxent.solve_shannon_evals_{key}"] = (statistics.mean(r[2] for r in rows)
                                                  if rows else 0.0)
        m[f"maxent.moment_evals_{key}"] = (statistics.mean(r[3] for r in rows)
                                           if rows else 0.0)
    for metric, needs in REQUIRES.items():
        if any(n in missing for n in needs):
            m[metric] = "missing"
    return {"metrics": m, "missing": missing}


# ----------------------------------------------------------------------
# import layer

_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def parse_importtime(stderr: str) -> dict:
    """Cumulative ms of the outermost qbridge, scipy and numpy entries in
    `python -X importtime` output, and the number of modules imported."""
    rows = []
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            rows.append((int(m.group(2)), len(m.group(3)), m.group(4)))
    out = {"import.qbridge_ms": 0.0, "import.scipy_ms": 0.0,
           "import.numpy_ms": 0.0, "import.modules": float(len(rows))}
    # importtime prints children before their parent, one indent level deeper
    for pos, (cum, depth, name) in enumerate(rows):
        top = name.split(".")[0]
        if top not in ("qbridge", "scipy", "numpy"):
            continue
        key = f"import.{top}_ms"
        parent = next((r for r in rows[pos + 1:] if r[1] < depth), None)
        if parent is None or parent[2].split(".")[0] != top:
            out[key] += cum / 1e3
    return out
