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
from dataclasses import dataclass
from itertools import repeat

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
CSV_HEADER = "x,g,J,u,p_tsallis,p_shannon_pushforward,transport_residual"
ENV_RTOL = "QBRIDGE_QUAD_RTOL"

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
        if not self.lambdas:
            raise ConfigurationError("at least one --lambda is required")
        if not self.kinds:
            raise ConfigurationError("at least one --h is required")
        if len(self.lambdas) != len(self.kinds):
            raise ConfigurationError("--lambda and --h counts must match")
        if self.targets is not None and len(self.targets) != len(self.kinds):
            raise ConfigurationError("--K and --h counts must match")
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


def _float(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigurationError(f"bad {what}: {text!r}") from None
    return value


def parse_kind(text: str) -> ConstraintFn:
    if text == "identity":
        return ConstraintFn.identity()
    if text == "square":
        return ConstraintFn.square()
    if text.startswith("poly:"):
        coeffs = [_float(v, "polynomial coefficient")
                  for v in text[len("poly:"):].split(",")]
        return ConstraintFn.polynomial(coeffs)
    raise ConfigurationError(
        f"unknown constraint kind {text!r} (want identity, square, or poly:c0,c1,...)")


def parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigurationError(f"grid must be min:max:count, got {text!r}")
    lo, hi = _float(parts[0], "grid min"), _float(parts[1], "grid max")
    try:
        count = int(parts[2])
    except ValueError:
        raise ConfigurationError(f"bad grid count: {parts[2]!r}") from None
    return lo, hi, count


def parse_domain(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigurationError(f"domain must be lo:hi, got {text!r}")
    return _float(parts[0], "domain bound"), _float(parts[1], "domain bound")


def parse_anchor(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigurationError(f"anchor must be x0,u0, got {text!r}")
    return _float(parts[0], "anchor"), _float(parts[1], "anchor")


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
        p.add_argument("--config", help="JSON file with option defaults")
        p.add_argument("--q", type=float, help="entropic index")
        p.add_argument("--lambda", dest="lambdas", action="append", type=float,
                       help="multiplier (repeat per constraint)")
        p.add_argument("--h", dest="kinds", action="append",
                       help="constraint kind: identity, square, poly:c0,c1,...")
        p.add_argument("--K", dest="targets", action="append", type=float,
                       help="moment target (repeat per constraint)")
        p.add_argument("--grid", help="evaluation grid min:max:count")
        p.add_argument("--c", type=float, help="integration constant (default 0)")
        p.add_argument("--anchor", help="map anchor x0,u0 (default 0,0)")
        p.add_argument("--domain", help="base domain lo:hi (inf allowed; "
                                        "default anchor_x:inf)")
        p.add_argument("--rel-tol", type=float, help="quadrature relative tolerance")
        p.add_argument("--abs-tol", type=float, help="quadrature absolute tolerance")
        p.add_argument("--seed", type=int, help="sampling seed (default 0)")
        p.add_argument("--n-samples", type=int, help="sample count (default 10000)")
        p.add_argument("--A", dest="observable",
                       help="observable for averages (identity, square, poly:...)")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), help="table format")
    return parser


def load_config(args: argparse.Namespace) -> RunConfig:
    file_values: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read config file: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigurationError("config file must hold a JSON object")

    def pick(name: str, default):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        if name in file_values:
            return file_values[name]
        return default

    env_rtol = os.environ.get(ENV_RTOL)
    default_rtol = 1e-10
    if env_rtol is not None:
        default_rtol = _float(env_rtol, f"{ENV_RTOL} value")

    q = pick("q", None)
    if q is None:
        raise ConfigurationError("--q is required")
    lambdas = pick("lambdas", None)
    kinds = pick("kinds", None)
    if lambdas is None or kinds is None:
        raise ConfigurationError("--lambda and --h are required")
    targets = pick("targets", None)
    grid = pick("grid", None)
    if isinstance(grid, str):
        grid = parse_grid(grid)
    elif isinstance(grid, (list, tuple)):
        grid = (float(grid[0]), float(grid[1]), int(grid[2]))
    anchor = pick("anchor", (0.0, 0.0))
    if isinstance(anchor, str):
        anchor = parse_anchor(anchor)
    else:
        anchor = (float(anchor[0]), float(anchor[1]))
    domain = pick("domain", None)
    if isinstance(domain, str):
        domain = parse_domain(domain)
    elif isinstance(domain, (list, tuple)):
        domain = (float(domain[0]), float(domain[1]))

    return RunConfig(
        command=args.command,
        q=float(q),
        lambdas=[float(v) for v in lambdas],
        kinds=[str(k) for k in kinds],
        targets=None if targets is None else [float(t) for t in targets],
        grid=grid,
        c=float(pick("c", 0.0)),
        anchor=anchor,
        rel_tol=float(pick("rel_tol", default_rtol)),
        abs_tol=float(pick("abs_tol", 1e-12)),
        seed=int(pick("seed", 0)),
        n_samples=int(pick("n_samples", 10000)),
        domain=domain,
        observable=str(pick("observable", "identity")),
        out=pick("out", None),
        format=str(pick("format", "csv")),
    )


# ----------------------------------------------------------------------
# shared construction

def _build_problem(cfg: RunConfig):
    """TransformSpec, map, Tsallis solution, and matched Shannon solution."""
    quad = cfg.quad()
    cs = cfg.constraint_set()
    spec = TransformSpec(QIndex(cfg.q), cs, c=cfg.c, anchor_x=cfg.anchor[0],
                         anchor_u=cfg.anchor[1], quad=quad)
    map_ = TransformMap.from_spec(spec)
    tsallis = normalize_tsallis(spec.q, cs, quad,
                                domain=cfg.domain_interval(),
                                anchor=cfg.anchor[0], support=map_.support)
    return spec, map_, tsallis, shannon_partner(tsallis, map_, quad)


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
    spec, map_, tsallis, shannon = _build_problem(cfg)
    if cfg.grid is None:
        raise ConfigurationError("transform requires --grid min:max:count")
    rows = []
    for x in sorted(_interior_grid(cfg, tsallis, spec)):
        g = map_.g(x)
        jac = map_.J(x)
        u = map_.u(x)
        p_t = tsallis.density(x)
        p_push = math.exp(-shannon.mu - spec.cs.potential(u)) * abs(jac)
        rows.append((x, g, jac, u, p_t, p_push, abs(p_t - p_push)))
    if cfg.format == "csv":
        lines = [CSV_HEADER]
        lines += [",".join(fmt(v) for v in row) for row in rows]
        write_artifact(cfg.out, "\n".join(lines) + "\n")
    else:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "transform",
            "q": cfg.q,
            "columns": CSV_HEADER.split(","),
            "rows": [list(row) for row in rows],
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
    spec, map_, tsallis, shannon = _build_problem(cfg)
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
    report = verify_transport(shannon, tsallis, map_, grid, tol=1e-6)
    record("transport_identity", report.max_abs_residual, 1e-6)
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
    spec, map_, tsallis, _ = _build_problem(cfg)
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
