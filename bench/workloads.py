"""Seeded input generation for the three benchmark workloads.

Nothing here imports qbridge: the program under test only ever receives
the values generated below.  Every operation index gets its own
`random.Random`, seeded from (workload, seed, stream, index), so the
same seed always yields the same inputs in the same order, however many
operations a run gets through.
"""

from __future__ import annotations

import math
import random

import numpy as np

CLI_KINDS = ("import", "transform", "solve-shannon", "verify", "sample", "averages")

# map-nonlinear case classes: q in {0.5, 1.5, 2.5} x h in {x^2, x + x^2 + 0.5 x^4}.
SQUARE = (0.0, 0.0, 1.0)
QUARTIC = (0.0, 1.0, 1.0, 0.0, 0.5)
MAP_CLASSES = tuple((q, h) for q in (0.5, 1.5, 2.5) for h in (SQUARE, QUARTIC))
MAP_GRID = 100
MAP_INVERSE_STRIDE = 5          # x(u) on every 5th grid point: 20 inversions
MAP_CLIP = 3.0                  # grid stays inside [-3, 3] on unbounded supports
AVERAGE_QS = (0.5, 1.2)
SAMPLE_N = 100_000
TRANSFORM_GRID = 50


def _rng(workload: str, seed: int, stream: str, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{stream}/{index}")


def margin_roots(q: float, lam: float, coeffs) -> tuple[float, float]:
    """Support (lo, hi) around 0 where phi(x) = 1 - (1-q) lam h(x) > 0,
    from numpy.roots of phi; an end with no real root is infinite."""
    phi = [-(1.0 - q) * lam * c for c in coeffs]
    phi[0] += 1.0
    while len(phi) > 1 and phi[-1] == 0.0:
        phi.pop()
    lo, hi = -math.inf, math.inf
    if len(phi) > 1:
        for r in np.roots(phi[::-1]):
            if abs(r.imag) <= 1e-9 * max(1.0, abs(r.real)):
                x = float(r.real)
                if x > 0.0:
                    hi = min(hi, x)
                elif x < 0.0:
                    lo = max(lo, x)
    return lo, hi


# ----------------------------------------------------------------------
# cli-cold

def _cli_argv(kind: str, rng: random.Random) -> list[str] | None:
    if kind == "import":
        return None
    lam = rng.uniform(0.5, 2.0)
    if kind == "transform":
        q = rng.uniform(0.3, 1.7)
        if abs(q - 1.0) < 0.05:
            q += 0.1
        xmax = 0.9 / ((1.0 - q) * lam) if q < 1.0 else 5.0 / lam
        return ["transform", "--q", repr(q), "--lambda", repr(lam), "--h", "identity",
                "--grid", f"0:{xmax!r}:{TRANSFORM_GRID}"]
    if kind == "solve-shannon":
        k1 = rng.uniform(-1.0, 1.0)
        k2 = rng.uniform(0.5, 2.0) + k1 * k1
        return ["solve-shannon", "--q", "1", "--lambda", "1", "--lambda", "1",
                "--h", "identity", "--h", "square", "--K", repr(k1), "--K", repr(k2),
                "--domain=-inf:inf"]
    if kind == "verify":
        return verify_argv(0.5, lam)
    if kind == "sample":
        return ["sample", "--q", "1.5", "--lambda", repr(lam), "--h", "identity",
                "--n-samples", str(SAMPLE_N), "--seed", str(rng.randrange(2 ** 31))]
    if kind == "averages":
        return ["averages", "--q", "0.5", "--lambda", repr(lam), "--h", "identity",
                "--A", "identity"]
    raise ValueError(f"unknown cli kind {kind!r}")


def verify_argv(q: float, lam: float) -> list[str]:
    return ["verify", "--q", repr(q), "--lambda", repr(lam), "--h", "square",
            "--domain=-inf:inf"]


def cli_op(seed: int, index: int) -> dict:
    """The index-th invocation of the fixed, interleaved kind rotation."""
    kind = CLI_KINDS[index % len(CLI_KINDS)]
    return {"kind": kind, "argv": _cli_argv(kind, _rng("cli-cold", seed, "op", index))}


def cli_setup_op(seed: int, index: int) -> dict:
    return {"kind": "transform",
            "argv": _cli_argv("transform", _rng("cli-cold", seed, "setup", index))}


# The known false failure of verify's absolute 1e-13 tolerance, at the
# fixed inputs where it was first reported.
CLI_DEFECT_PROBE = {"kind": "verify", "argv": verify_argv(1.5, 1.0)}


# ----------------------------------------------------------------------
# map-nonlinear

def map_case(q: float, coeffs, lam: float) -> dict:
    lo, hi = margin_roots(q, lam, coeffs)
    lo, hi = max(lo, -MAP_CLIP), min(hi, MAP_CLIP)
    span = hi - lo
    grid = np.linspace(lo + 0.02 * span, hi - 0.02 * span, MAP_GRID)
    return {"q": q, "coeffs": list(coeffs), "lam": lam, "grid": grid.tolist(),
            "inverse_stride": MAP_INVERSE_STRIDE}


def map_op(seed: int, stream: str, index: int) -> dict:
    rng = _rng("map-nonlinear", seed, stream, index)
    return {"cases": [map_case(q, h, rng.uniform(0.5, 2.0)) for q, h in MAP_CLASSES]}


def near_root_probe(seed: int) -> dict:
    """phi = (x-c)^2 - delta with q = 0.5: the support ends at c - sqrt(delta),
    a window far narrower than a geometric scan's step near x = c."""
    rng = _rng("cli-cold", seed, "near-root-probe", 0)
    c, delta, lam = rng.uniform(5.0, 15.0), rng.uniform(1e-7, 1e-5), rng.uniform(0.5, 2.0)
    s = 2.0 / lam    # 1 - 0.5 lam h = (x-c)^2 - delta
    coeffs = [s * (1.0 + delta - c * c), s * 2.0 * c, -s]
    edge = c - math.sqrt(delta)
    points = np.linspace(-0.9 * edge, 0.9 * edge, 11).tolist()
    return {"q": 0.5, "coeffs": coeffs, "lam": lam, "c": c, "delta": delta,
            "points": points}


# ----------------------------------------------------------------------
# fit-moments

def planted_moments(coeffs, powers) -> list[float]:
    """Moments E[x^k] of exp(-sum coeffs_i x^powers_i) on the real line by
    the trapezoid rule, which converges geometrically for such integrands."""
    x = np.linspace(-12.0, 12.0, 24001)
    w = np.exp(-sum(c * x ** p for c, p in zip(coeffs, powers)))
    z = np.trapezoid(w, x)
    return [float(np.trapezoid(w * x ** k, x) / z) for k in powers]


def fit_op(seed: int, stream: str, index: int) -> dict:
    rng = _rng("fit-moments", seed, stream, index)
    k_half = rng.uniform(0.5, 4.0)
    k1 = rng.uniform(-1.0, 1.0)
    k2 = rng.uniform(0.5, 2.0) + k1 * k1
    planted = [rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(0.05, 0.5)]
    bad1 = rng.uniform(0.8, 1.5)
    bad2 = bad1 * bad1 * rng.uniform(0.3, 0.8)
    return {
        "solves": [
            {"name": "1c", "powers": [1], "targets": [k_half], "domain": "half"},
            {"name": "2c", "powers": [1, 2], "targets": [k1, k2], "domain": "real"},
            {"name": "3c", "powers": [1, 2, 4], "domain": "real",
             "targets": planted_moments(planted, (1, 2, 4)), "planted": planted},
            {"name": "infeasible", "powers": [1, 2], "targets": [bad1, bad2],
             "domain": "real"},
        ],
        "averages": [{"q": q, "lam": rng.uniform(0.5, 2.0)} for q in AVERAGE_QS],
    }


def in_process_op(workload: str, seed: int, stream: str, index: int) -> dict:
    if workload == "map-nonlinear":
        return map_op(seed, stream, index)
    if workload == "fit-moments":
        return fit_op(seed, stream, index)
    raise ValueError(f"{workload!r} is not an in-process workload")
