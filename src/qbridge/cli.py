"""Command-line surface: solve, transform, verify, sample, averages.

Machine-readable artifacts (CSV/JSON) go to --out (or stdout), diagnostics
to stderr.  Exit codes: 0 ok, 2 configuration error, 3 domain error
(singular q band, support violations), 4 verification failure, 5
solver/quadrature failure.  Numbers are serialized with 17 significant
digits; files are written whole then renamed, so partial artifacts never
appear.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass, fields
from itertools import repeat
from typing import Callable

import numpy as np

from .averaging import Observable, escort_norm, mean_ct, mean_linear, mean_tmp
from .errors import (
    ConfigurationError,
    DomainError,
    NonIntegrableError,
    QBridgeError,
    QuadratureError,
    SolverError,
)
from .maxent import (
    TRANSPORT_COLUMNS,
    normalize_tsallis,
    sample_and_test,
    shannon_partner,
    solve_shannon,
    verify_transport,
)
from .qkernel import QIndex, SupportInterval
from .quadrature import QuadratureSpec
from .transform import (
    ConstraintFn,
    ConstraintSet,
    TransformMap,
    TransformSpec,
    g_canonical,
    g_general,
    ode_residual,
)

SCHEMA_VERSION = "1"
ENV_RTOL = "QBRIDGE_QUAD_RTOL"
TRANSPORT_TOL = 1e-6        # pointwise transport residual that verify accepts

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4
EXIT_SOLVER = 5


# ----------------------------------------------------------------------
# serialization helpers

def fmt(value: float) -> str:
    """17-significant-digit, round-trippable rendering of a double."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigurationError(f"non-finite value in output: {value!r}")
    return format(float(value), ".17g")


def emit_json(obj, indent: int = 0) -> str:
    """JSON with two-space indents and every float in `fmt`'s rendering.

    A 1-D numpy float array renders as the list of its floats would, in
    one join rather than one recursive call per element.
    """
    pad = "  " * indent
    if isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind == "f":
        bad = ~np.isfinite(obj)
        if bad.any():
            fmt(float(obj[bad][0]))     # raises ConfigurationError
        if not obj.size:
            return "[]"
        values = obj.tolist()
        body = f",\n{pad}  ".join(map(format, values, repeat(".17g", len(values))))
        return f"[\n{pad}  {body}\n{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(k)}: {emit_json(v, indent + 1)}'
            for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {emit_json(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise ConfigurationError(f"cannot serialize {type(obj).__name__}")


def write_artifact(path: str | None, text: str) -> None:
    """Write the fully rendered artifact atomically (or to stdout)."""
    if path is None:
        sys.stdout.write(text)
        return
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def diag(message: str) -> None:
    print(f"qbridge: {message}", file=sys.stderr)


# ----------------------------------------------------------------------
# configuration

@dataclass
class RunConfig:
    command: str
    q: float
    lambdas: list[float]
    kinds: list[str]
    targets: list[float] | None = None
    grid: tuple[float, float, int] | None = None
    c: float = 0.0
    anchor: tuple[float, float] = (0.0, 0.0)
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    seed: int = 0
    n_samples: int = 10000
    domain: tuple[float, float] | None = None
    observable: str = "identity"
    out: str | None = None
    format: str = "csv"

    def __post_init__(self):
        # ConstraintSet checks the counts of --lambda, --h and --K
        if self.grid is not None:
            lo, hi, count = self.grid
            if not (count >= 2 and lo < hi):
                raise ConfigurationError(
                    "grid needs min < max and at least 2 points")
        if self.format not in ("csv", "json"):
            raise ConfigurationError(f"unknown format {self.format!r}")
        if self.n_samples < 1:
            raise ConfigurationError("n_samples must be positive")

    def quad(self) -> QuadratureSpec:
        return QuadratureSpec(rel_tol=self.rel_tol, abs_tol=self.abs_tol)

    def constraint_set(self) -> ConstraintSet:
        fns = tuple(parse_kind(k) for k in self.kinds)
        targets = tuple(self.targets) if self.targets is not None else None
        return ConstraintSet(fns, tuple(self.lambdas), targets=targets)

    def domain_interval(self) -> SupportInterval:
        if self.domain is None:
            lo, hi = self.anchor[0], math.inf
        else:
            lo, hi = self.domain
        return SupportInterval(lo, hi)


def parse_kind(text: str) -> ConstraintFn:
    if text == "identity":
        return ConstraintFn.identity()
    if text == "square":
        return ConstraintFn.square()
    if text.startswith("poly:"):
        try:
            coeffs = [float(v) for v in text[len("poly:"):].split(",")]
        except ValueError:
            raise ConfigurationError(f"bad polynomial coefficients in {text!r}") from None
        return ConstraintFn.polynomial(coeffs)
    raise ConfigurationError(
        f"unknown constraint kind {text!r} (want identity, square, or poly:c0,c1,...)")


# Converters of an option's text; a ValueError is a bad value (`_convert`).
def parse_grid(text: str) -> tuple[float, float, int]:
    lo, hi, count = text.split(":")
    return float(lo), float(hi), int(count)


def parse_pair(sep: str) -> Callable[[str], tuple[float, float]]:
    def parse(text: str) -> tuple[float, float]:
        a, b = text.split(sep)
        return float(a), float(b)
    return parse


@dataclass(frozen=True)
class Option:
    """An option of every subcommand: its flag, the RunConfig field (and
    config file key) it sets, and the converter of its text.  A repeated
    option collects a list; `joiner` makes a file's list the flag's text."""

    flag: str
    dest: str
    convert: Callable[[str], object]
    help: str
    repeated: bool = False
    joiner: str = ""


OPTIONS = (
    Option("--q", "q", float, "entropic index"),
    Option("--lambda", "lambdas", float, "multiplier (repeat per constraint)",
           repeated=True),
    Option("--h", "kinds", str, "constraint kind: identity, square, poly:c0,c1,... "
                                "(repeat per constraint)", repeated=True),
    Option("--K", "targets", float, "moment target (repeat per constraint)",
           repeated=True),
    Option("--grid", "grid", parse_grid, "evaluation grid min:max:count", joiner=":"),
    Option("--c", "c", float, "integration constant"),
    Option("--anchor", "anchor", parse_pair(","), "map anchor x0,u0", joiner=","),
    Option("--domain", "domain", parse_pair(":"),
           "base domain lo:hi (inf allowed; default anchor_x:inf)", joiner=":"),
    Option("--rel-tol", "rel_tol", float, f"quadrature relative tolerance (or {ENV_RTOL})"),
    Option("--abs-tol", "abs_tol", float, "quadrature absolute tolerance"),
    Option("--seed", "seed", int, "sampling seed"),
    Option("--n-samples", "n_samples", int, "sample count"),
    Option("--A", "observable", str, "observable for averages (identity, square, poly:...)"),
    Option("--out", "out", str, "output path (default stdout)"),
    Option("--format", "format", str, "table format: csv or json"),
)
DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbridge",
        description="Link Shannon and Tsallis maximum-entropy densities "
                    "through an explicit change of variables.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary in (
            ("transform", "tabulate g, J, u and both densities on a grid"),
            ("solve-shannon", "fit multipliers to moment targets"),
            ("verify", "run the invariant battery and report residuals"),
            ("sample", "seeded sampling confirmation with a KS statistic"),
            ("averages", "linear, CT, and TMP means plus the escort weight")):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON file of option values, keyed by "
                                        + ", ".join(opt.dest for opt in OPTIONS))
        for opt in OPTIONS:
            default = DEFAULTS[opt.dest]
            if isinstance(default, tuple):
                default = opt.joiner.join(map(str, default))
            p.add_argument(opt.flag, dest=opt.dest, action="append" if opt.repeated else "store",
                           help=opt.help if default in (None, MISSING)
                           else f"{opt.help} (default {default})")
    return parser


def _convert(opt: Option, where: str, text):
    """The value of `opt` from its flag's text (a list of texts if repeated)."""
    try:
        return [opt.convert(t) for t in text] if opt.repeated else opt.convert(text)
    except ValueError:
        raise ConfigurationError(f"bad value for {where}: {text!r}, want {opt.help}") from None


def _file_texts(path: str) -> dict:
    """The options a --config file sets: dest -> (where, its flag's text)."""
    try:
        with open(path, encoding="utf-8") as fh:
            values = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read config file: {exc}") from exc
    if not isinstance(values, dict):
        raise ConfigurationError("config file must hold a JSON object")
    texts = {}
    for key, value in values.items():
        opt = next((opt for opt in OPTIONS if opt.dest == key), None)
        if opt is None:
            raise ConfigurationError(f"unknown config key {key!r}")
        if value is None:
            continue
        if isinstance(value, list) and opt.joiner:
            value = opt.joiner.join(map(str, value))
        if opt.repeated != isinstance(value, list):
            raise ConfigurationError(f"config key {key!r} takes "
                                     f"{'a list' if opt.repeated else 'one value'}")
        texts[key] = (f"config key {key!r}", [str(v) for v in value] if opt.repeated
                      else str(value))
    return texts


def load_config(args: argparse.Namespace) -> RunConfig:
    """The run's configuration: each option's flag wins over its key in the
    --config file, the file over QBRIDGE_QUAD_RTOL, and that over
    RunConfig's default.  Whatever its source, the winning value is its
    flag's text and goes through that option's converter."""
    texts = {}      # dest -> (where the text came from, text)
    if ENV_RTOL in os.environ:
        texts["rel_tol"] = (ENV_RTOL, os.environ[ENV_RTOL])
    if args.config:
        texts.update(_file_texts(args.config))
    texts.update((opt.dest, (opt.flag, getattr(args, opt.dest)))
                 for opt in OPTIONS if getattr(args, opt.dest) is not None)
    missing = [opt.flag for opt in OPTIONS
               if DEFAULTS[opt.dest] is MISSING and opt.dest not in texts]
    if missing:
        raise ConfigurationError(f"missing {', '.join(missing)}")
    return RunConfig(command=args.command, **{
        opt.dest: _convert(opt, *texts[opt.dest]) for opt in OPTIONS if opt.dest in texts})


# ----------------------------------------------------------------------
# shared construction

def _build_problem(cfg: RunConfig):
    """TransformSpec, map and Tsallis solution."""
    quad = cfg.quad()
    cs = cfg.constraint_set()
    spec = TransformSpec(QIndex(cfg.q), cs, c=cfg.c, anchor_x=cfg.anchor[0],
                         anchor_u=cfg.anchor[1], quad=quad)
    map_ = TransformMap.from_spec(spec)
    tsallis = normalize_tsallis(spec.q, cs, quad,
                                domain=cfg.domain_interval(),
                                anchor=cfg.anchor[0], support=map_.support)
    return spec, map_, tsallis


def _interior_grid(cfg: RunConfig, tsallis, spec) -> list[float]:
    """Grid points clipped to the open interior of the Tsallis support."""
    if cfg.grid is None:
        lo = max(tsallis.support.lower, spec.anchor_x - 20.0)
        hi = min(tsallis.support.upper, spec.anchor_x + 20.0)
        span = hi - lo
        pts = np.linspace(lo + 0.005 * span, hi - 0.005 * span, 101)
    else:
        gmin, gmax, count = cfg.grid
        pts = np.linspace(gmin, gmax, count)
    margin = spec.cs.margin(spec.q.q, pts)
    keep = [float(x) for x, m in zip(pts, margin)
            if tsallis.support.contains(float(x)) and m > 1e-12]
    dropped = len(pts) - len(keep)
    if dropped:
        diag(f"clipped {dropped} grid point(s) outside the support interior")
    if not keep:
        raise ConfigurationError("no grid points remain inside the support")
    return keep


# ----------------------------------------------------------------------
# commands

def cmd_transform(cfg: RunConfig) -> int:
    if cfg.grid is None:
        raise ConfigurationError("transform requires --grid min:max:count")
    spec, map_, tsallis = _build_problem(cfg)
    shannon = shannon_partner(tsallis, map_, spec.quad)
    grid = sorted(_interior_grid(cfg, tsallis, spec))
    rows = verify_transport(shannon, tsallis, map_, grid, TRANSPORT_TOL).rows
    if cfg.format == "csv":
        lines = [",".join(TRANSPORT_COLUMNS)]
        lines += [",".join(fmt(v) for v in row) for row in rows]
        write_artifact(cfg.out, "\n".join(lines) + "\n")
    else:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "transform",
            "q": cfg.q,
            "columns": list(TRANSPORT_COLUMNS),
            "rows": rows,
        }
        write_artifact(cfg.out, emit_json(doc) + "\n")
    return EXIT_OK


def cmd_solve_shannon(cfg: RunConfig) -> int:
    if cfg.targets is None:
        raise ConfigurationError("solve-shannon requires --K targets")
    quad = cfg.quad()
    cs = cfg.constraint_set()
    domain = cfg.domain_interval()
    solution = solve_shannon(cs, domain, quad)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "solve-shannon",
        "kinds": list(cfg.kinds),
        "targets": list(cfg.targets),
        "lambdas": list(solution.cs.multipliers),
        "mu": solution.mu,
    }
    write_artifact(cfg.out, emit_json(doc) + "\n")
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    spec, map_, tsallis = _build_problem(cfg)
    shannon = shannon_partner(tsallis, map_, spec.quad)
    grid = _interior_grid(cfg, tsallis, spec)
    qi = spec.q
    checks = []

    def record(name: str, value: float, tol: float, scale: float = 1.0):
        tol *= max(1.0, scale)  # rounding grows with the largest magnitude compared
        checks.append({"name": name, "max_residual": value, "tol": tol,
                       "passed": bool(value < tol)})

    canonical_spec = spec if spec.c == 0.0 else TransformSpec(
        qi, spec.cs, c=0.0, anchor_x=spec.anchor_x, anchor_u=spec.anchor_u,
        quad=spec.quad)
    # one map holds the support and u-image, so x(u) does not recompute them
    canonical_map = map_ if spec.c == 0.0 else TransformMap.from_spec(canonical_spec)
    slope_scale = -(1.0 - qi.q) / (2.0 - qi.q)
    # e_q^{q-1} g = 1/(2-q): the residual's terms are lam.h' times these
    term_scale = max(1.0, abs(slope_scale), 1.0 / abs(2.0 - qi.q))
    record("ode_residual_analytic_slope",
           max(abs(ode_residual(x, spec, g_canonical(x, spec),
                                slope_scale * spec.cs.potential_slope(x)))
               for x in grid),
           1e-10, term_scale * max(abs(spec.cs.potential_slope(x)) for x in grid))
    record("general_form_collapses_at_c_zero",
           max(abs(g_general(x, canonical_spec) - g_canonical(x, spec))
               for x in grid),
           1e-13, max(abs(g_canonical(x, spec)) for x in grid))
    record("jacobian_reciprocal",
           max(abs(g_canonical(x, spec) * canonical_map.J(x) - 1.0)
               for x in grid),
           1e-14)
    sign_target = 1.0 if qi.q < 2.0 else -1.0
    violations = sum(
        1 for x in grid
        if spec.cs.potential(x) > -1.0
        and math.copysign(1.0, g_canonical(x, spec)) != sign_target)
    record("sign_law", float(violations), 1.0)
    record("round_trip",
           max(abs(canonical_map.x(canonical_map.u(x)) - x) for x in grid),
           1e-9, max(abs(x) for x in grid))
    report = verify_transport(shannon, tsallis, map_, grid, TRANSPORT_TOL)
    record("transport_identity", report.max_abs_residual, TRANSPORT_TOL)
    if report.factor_max_residual is not None:
        record("pushforward_factor_2_minus_q", report.factor_max_residual, 1e-10)

    passed = all(c["passed"] for c in checks)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "q": cfg.q,
        "grid_points": len(grid),
        "checks": checks,
        "passed": passed,
    }
    write_artifact(cfg.out, emit_json(doc) + "\n")
    if not passed:
        failed = ", ".join(c["name"] for c in checks if not c["passed"])
        diag(f"verification failed: {failed}")
        return EXIT_VERIFY
    return EXIT_OK


def cmd_sample(cfg: RunConfig) -> int:
    _, map_, tsallis = _build_problem(cfg)
    samples, ks = sample_and_test(tsallis, map_, cfg.n_samples, cfg.seed)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "sample",
        "q": cfg.q,
        "seed": cfg.seed,
        "n": cfg.n_samples,
        "ks_statistic": ks,
        "samples": samples,
    }
    write_artifact(cfg.out, emit_json(doc) + "\n")
    return EXIT_OK


def cmd_averages(cfg: RunConfig) -> int:
    quad = cfg.quad()
    cs = cfg.constraint_set()
    qi = QIndex(cfg.q)
    tsallis = normalize_tsallis(qi, cs, quad, domain=cfg.domain_interval(),
                                anchor=cfg.anchor[0])
    kind = parse_kind(cfg.observable)
    observable = Observable(kind.value, cfg.observable, kind.degree)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "averages",
        "q": cfg.q,
        "observable": cfg.observable,
        "linear": mean_linear(tsallis, observable, quad),
        "ct": mean_ct(tsallis, observable, qi, quad),
        "tmp": mean_tmp(tsallis, observable, qi, quad),
        "x_q": escort_norm(tsallis, qi, quad).x_q,
    }
    write_artifact(cfg.out, emit_json(doc) + "\n")
    return EXIT_OK


COMMANDS = {
    "transform": cmd_transform,
    "solve-shannon": cmd_solve_shannon,
    "verify": cmd_verify,
    "sample": cmd_sample,
    "averages": cmd_averages,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        return COMMANDS[cfg.command](cfg)
    except ConfigurationError as exc:
        diag(str(exc))
        return EXIT_CONFIG
    except (SolverError, QuadratureError, NonIntegrableError) as exc:
        diag(str(exc))
        return EXIT_SOLVER
    except DomainError as exc:
        diag(str(exc))
        return EXIT_DOMAIN
    except QBridgeError as exc:  # pragma: no cover - defensive
        diag(str(exc))
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
