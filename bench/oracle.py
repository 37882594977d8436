"""Independent oracle for every benchmark operation.

Nothing here imports qbridge.  References are closed forms where the
mathematics gives one, scipy `quad` at tolerances 100x tighter than
qbridge's defaults (rel 1e-10, abs 1e-12) otherwise, and `numpy.roots`
of the margin polynomial phi(x) = 1 - (1-q) lam h(x) for support edges.
Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.integrate import quad

from workloads import margin_roots

RTOL, ATOL = 1e-12, 1e-14          # 100x tighter than qbridge's defaults
EPS = np.finfo(float).eps
KS_CRITICAL = 1.95                 # Kolmogorov 0.999 quantile: D < 1.95/sqrt(n)


def integral(f, a, b) -> float:
    value, _ = quad(f, a, b, epsrel=RTOL, epsabs=ATOL, limit=500)
    return value


def close(got, want, rtol, atol=0.0) -> bool:
    if isinstance(got, str) or got is None:
        return False
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= atol + rtol * abs(want)


def _mismatch(label, got, want):
    return f"{label}: got {got!r}, oracle {want!r}"


def horner(coeffs, x):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# ----------------------------------------------------------------------
# closed forms

def e_q(z: float, q: float) -> float:
    base = 1.0 + (1.0 - q) * z
    if base <= 0.0:
        return 0.0
    return base ** (1.0 / (1.0 - q))


def u_identity(x: float, q: float, lam: float) -> float:
    """u(x) = -(2-q)/((1-q) lam) ln(1 - (1-q) lam x), anchored at u(0) = 0."""
    return -(2.0 - q) / ((1.0 - q) * lam) * math.log1p(-(1.0 - q) * lam * x)


def x_identity(u: float, q: float, lam: float) -> float:
    """Inverse of u_identity."""
    return -math.expm1(-(1.0 - q) * lam * u / (2.0 - q)) / ((1.0 - q) * lam)


def tsallis_c_identity(q: float, lam: float) -> float:
    """Normalization of C e_q(-lam x) on the half-line: C = (2-q) lam."""
    return (2.0 - q) * lam


def tsallis_mean_identity(q: float, lam: float) -> float:
    """<x> = 1/((3-2q) lam) for the half-line q-exponential (q < 3/2)."""
    return 1.0 / ((3.0 - 2.0 * q) * lam)


def exponential_fit(k: float) -> tuple[float, float]:
    """lam = 1/K and mu = ln K for <x> = K on the half-line."""
    return 1.0 / k, math.log(k)


def gaussian_fit(k1: float, k2: float) -> tuple[float, float, float]:
    """(a, b, mu) of exp(-mu - a x - b x^2) with <x> = K1, <x^2> = K2."""
    b = 1.0 / (2.0 * (k2 - k1 * k1))
    a = -2.0 * b * k1
    mu = 0.5 * math.log(math.pi / b) + a * a / (4.0 * b)
    return a, b, mu


def qexp_cdf_identity(x: np.ndarray, q: float, lam: float) -> np.ndarray:
    """F(x) = 1 - e_q(-lam x)^{2-q} on the half-line."""
    base = np.maximum(1.0 - (1.0 - q) * lam * x, 0.0)
    return 1.0 - base ** ((2.0 - q) / (1.0 - q))


def ks_statistic(samples: np.ndarray, cdf) -> float:
    xs = np.sort(samples)
    f = cdf(xs)
    n = len(xs)
    ranks = np.arange(1, n + 1, dtype=float)
    return max(float(np.max(ranks / n - f)), float(np.max(f - (ranks - 1.0) / n)))


def ks_bound(n: int) -> float:
    return KS_CRITICAL / math.sqrt(n)


# ----------------------------------------------------------------------
# the map for a polynomial observable

class Margin:
    """phi(x) = 1 - (1-q) lam h(x) and the map quantities built from it."""

    def __init__(self, q: float, lam: float, coeffs):
        self.q, self.lam, self.coeffs = q, lam, list(coeffs)
        self.support = margin_roots(q, lam, coeffs)

    def phi(self, x):
        return 1.0 - (1.0 - self.q) * self.lam * horner(self.coeffs, x)

    def g(self, x):
        return self.phi(x) / (2.0 - self.q)

    def density_shape(self, x):
        return e_q(-self.lam * horner(self.coeffs, x), self.q)

    def u_path(self, xs) -> list[float]:
        """u at each x (anchor 0), by chaining quad between sorted points."""
        order = sorted(range(len(xs)), key=lambda i: xs[i])
        out = [0.0] * len(xs)
        inv_g = lambda s: 1.0 / self.g(s)
        for side in (+1, -1):
            prev, acc = 0.0, 0.0
            for i in (order if side > 0 else reversed(order)):
                x = xs[i]
                if (x >= 0.0) != (side > 0):
                    continue
                acc += integral(inv_g, prev, x)
                prev = x
                out[i] = acc
        return out

    def u_image(self) -> tuple[float, float]:
        """Image of the support: log-divergent at a finite (simple-root)
        edge, finite on an unbounded side when the observable grows faster
        than linearly."""
        inv_g = lambda s: 1.0 / self.g(s)
        degree = len(self.coeffs) - 1
        ends = []
        for edge in self.support:
            if math.isfinite(edge) or degree < 2:
                direction = 1.0 if edge > 0 else -1.0
                increasing = self.q < 2.0
                ends.append(direction * (1.0 if increasing else -1.0) * math.inf)
            else:
                ends.append(integral(inv_g, 0.0, edge))
        return (min(ends), max(ends))

    def tsallis_c(self) -> float:
        lo, hi = self.support
        return 1.0 / integral(self.density_shape, lo, hi)

    def shannon_mu(self, image) -> float:
        lam, coeffs = self.lam, self.coeffs
        return math.log(integral(lambda u: math.exp(-lam * horner(coeffs, u)), *image))

    def transport_residual(self, xs, us, c, mu) -> float:
        lam, coeffs = self.lam, self.coeffs
        worst = 0.0
        for x, u in zip(xs, us):
            lhs = c * self.density_shape(x)
            rhs = math.exp(-mu - lam * horner(coeffs, u)) * abs(1.0 / self.g(x))
            worst = max(worst, abs(lhs - rhs))
        return worst


def check_map_case(inp: dict, out: dict) -> list[str]:
    q, lam, coeffs, grid = inp["q"], inp["lam"], inp["coeffs"], inp["grid"]
    tag = f"map q={q} h={coeffs} lam={lam:.6g}"
    m = Margin(q, lam, coeffs)
    bad = []
    for label, got, want in zip(("support.lo", "support.hi"), out["support"], m.support):
        if not close(got, want, 1e-9, 1e-12):
            bad.append(_mismatch(f"{tag} {label}", got, want))
    image = m.u_image()
    for label, got, want in zip(("u_image.lo", "u_image.hi"), out["u_image"], image):
        if not close(got, want, 1e-8, 1e-10):
            bad.append(_mismatch(f"{tag} {label}", got, want))
    us = m.u_path(grid)
    for i, x in enumerate(grid):
        g = m.g(x)
        if not close(out["g"][i], g, 1e-12):
            bad.append(_mismatch(f"{tag} g({x})", out["g"][i], g))
        if not close(out["J"][i], 1.0 / g, 1e-12):
            bad.append(_mismatch(f"{tag} J({x})", out["J"][i], 1.0 / g))
        if not close(out["u"][i], us[i], 1e-8, 1e-10):
            bad.append(_mismatch(f"{tag} u({x})", out["u"][i], us[i]))
    for k, i in enumerate(range(0, len(grid), inp["inverse_stride"])):
        if not close(out["x"][k], grid[i], 1e-9, 1e-9):
            bad.append(_mismatch(f"{tag} x(u({grid[i]}))", out["x"][k], grid[i]))
    c = m.tsallis_c()
    if not close(out["C"], c, 1e-8):
        bad.append(_mismatch(f"{tag} C", out["C"], c))
    mu = m.shannon_mu(image)
    if not close(out["mu"], mu, 1e-8, 1e-9):
        bad.append(_mismatch(f"{tag} mu", out["mu"], mu))
    # For nonlinear h the two densities differ pointwise (residual ~0.1):
    # the program must report the residual the oracle gets, not zero.
    residual = m.transport_residual(grid, us, c, mu)
    if not close(out["transport_residual"], residual, 1e-6, 1e-9):
        bad.append(_mismatch(f"{tag} transport residual", out["transport_residual"], residual))
    return bad


def check_map_op(inp: dict, out: dict) -> list[str]:
    return [msg for case_in, case_out in zip(inp["cases"], out["cases"])
            for msg in check_map_case(case_in, case_out)]


def check_near_root(inp: dict, out: dict) -> list[str]:
    """Support edges of phi = (x-c)^2 - delta and u on the anchor's side."""
    m = Margin(inp["q"], inp["lam"], inp["coeffs"])
    bad = []
    if "error" in out:
        bad.append(f"raised {out['error']}")
    for label, got, want in zip(("support.lo", "support.hi"), out.get("support", ()), m.support):
        if not close(got, want, 1e-9, 1e-12):
            bad.append(_mismatch(f"near-root c={inp['c']:.6g} delta={inp['delta']:.3g} {label}",
                                 got, want))
    us = m.u_path(inp["points"])
    for x, got, want in zip(inp["points"], out.get("u", ()), us):
        if not close(got, want, 1e-8, 1e-10):
            bad.append(_mismatch(f"near-root u({x})", got, want))
    return bad


# ----------------------------------------------------------------------
# fit-moments

def _moment_residuals(powers, lams, mu, targets, lo, hi):
    def w(u):
        return math.exp(-mu - sum(l * u ** p for l, p in zip(lams, powers)))
    bad = []
    total = integral(w, lo, hi)
    if not close(total, 1.0, 1e-8):
        bad.append(_mismatch("normalization", total, 1.0))
    for p, k in zip(powers, targets):
        got = integral(lambda u: w(u) * u ** p, lo, hi)
        if not close(got, k, 1e-8, 1e-8):
            bad.append(_mismatch(f"<x^{p}>", got, k))
    return bad


def check_solve(inp: dict, out: dict) -> list[str]:
    name, targets = inp["name"], inp["targets"]
    tag = f"solve {name} K={targets}"
    if name == "infeasible":
        if "SolverError" not in out.get("error_mro", ()):
            return [f"{tag}: want a SolverError, got {out}"]
        return []
    if "error" in out:
        return [f"{tag}: raised {out['error']}"]
    lams, mu = out["lams"], out["mu"]
    bad = []
    if name == "1c":
        lam, mu_ref = exponential_fit(targets[0])
        want = ([lam], mu_ref)
    elif name == "2c":
        a, b, mu_ref = gaussian_fit(*targets)
        want = ([a, b], mu_ref)
    else:
        want = (inp["planted"], None)
        lo, hi = (0.0, math.inf) if inp["domain"] == "half" else (-math.inf, math.inf)
        bad += [f"{tag} {m}" for m in _moment_residuals(inp["powers"], lams, mu, targets, lo, hi)]
    for i, (got, ref) in enumerate(zip(lams, want[0])):
        if not close(got, ref, 1e-6, 1e-7):
            bad.append(_mismatch(f"{tag} lam[{i}]", got, ref))
    if want[1] is not None and not close(mu, want[1], 1e-8, 1e-8):
        bad.append(_mismatch(f"{tag} mu", mu, want[1]))
    return bad


def averages_reference(q: float, lam: float) -> dict:
    c = tsallis_c_identity(q, lam)
    edge = 1.0 / ((1.0 - q) * lam) if q < 1.0 else math.inf
    p = lambda x: c * e_q(-lam * x, q)
    ct = integral(lambda x: p(x) ** q * x, 0.0, edge)
    x_q = integral(lambda x: p(x) ** q, 0.0, edge)
    return {"C": c, "linear": tsallis_mean_identity(q, lam), "ct": ct,
            "tmp": ct / x_q, "x_q": x_q}


def check_averages(q: float, lam: float, out: dict, tag: str) -> list[str]:
    ref = averages_reference(q, lam)
    return [_mismatch(f"{tag} q={q} lam={lam:.6g} {k}", out.get(k), v)
            for k, v in ref.items() if k in out and not close(out[k], v, 1e-8, 1e-12)]


def check_fit_op(inp: dict, out: dict) -> list[str]:
    bad = []
    for s_in, s_out in zip(inp["solves"], out["solves"]):
        bad += check_solve(s_in, s_out)
    for a_in, a_out in zip(inp["averages"], out["averages"]):
        bad += check_averages(a_in["q"], a_in["lam"], a_out, "averages")
    return bad


# ----------------------------------------------------------------------
# cli-cold

def _argv_value(argv, flag):
    return argv[argv.index(flag) + 1]


def verify_reference(q: float, lam: float) -> dict:
    """Expected verdicts and transport residual of `verify --h square
    --domain=-inf:inf`: every closed-form check passes, and the transport
    identity holds only if its residual is below 1e-6."""
    m = Margin(q, lam, (0.0, 0.0, 1.0))
    lo, hi = max(m.support[0], -20.0), min(m.support[1], 20.0)
    span = hi - lo
    pts = np.linspace(lo + 0.005 * span, hi - 0.005 * span, 101)
    grid = [float(x) for x in pts if m.phi(float(x)) > 1e-12]
    us = m.u_path(grid)
    image = m.u_image()
    residual = m.transport_residual(grid, us, m.tsallis_c(), m.shannon_mu(image))
    return {"grid_points": len(grid), "g_max": max(abs(m.g(x)) for x in grid),
            "transport_identity": residual}


def check_verify(argv, code: int, text: str) -> list[str]:
    q, lam = float(_argv_value(argv, "--q")), float(_argv_value(argv, "--lambda"))
    ref = verify_reference(q, lam)
    doc = json.loads(text)
    bad = []
    if doc["grid_points"] != ref["grid_points"]:
        bad.append(_mismatch("verify grid_points", doc["grid_points"], ref["grid_points"]))
    want_pass = True
    for check in doc["checks"]:
        name, value = check["name"], check["max_residual"]
        if name == "transport_identity":
            expected = ref["transport_identity"] < 1e-6
            if not close(value, ref["transport_identity"], 1e-6, 1e-9):
                bad.append(_mismatch("verify transport_identity residual", value,
                                     ref["transport_identity"]))
        elif name == "general_form_collapses_at_c_zero":
            # two algebraically identical forms of g: any difference within
            # a few rounding errors of the largest |g| compared is a pass
            expected = True
            if value > 64 * EPS * ref["g_max"]:
                bad.append(f"verify {name}: residual {value!r} exceeds rounding "
                           f"({64 * EPS * ref['g_max']!r})")
        else:
            expected = True
        want_pass &= expected
        if check["passed"] != expected:
            bad.append(f"verify {name}: program says passed={check['passed']} "
                       f"(residual {value!r}, tol {check['tol']!r}); oracle says "
                       f"passed={expected}")
    want_code = 0 if want_pass else 4
    if code != want_code:
        bad.append(_mismatch("verify exit code", code, want_code))
    return bad


def check_cli(op: dict, code: int, text: str) -> list[str]:
    kind, argv = op["kind"], op["argv"]
    if kind == "verify":
        return check_verify(argv, code, text)
    if code != 0:
        return [f"{kind}: exit code {code}"]
    if kind == "import":
        return [] if text == "" else [f"import printed {text[:80]!r}"]
    if kind == "transform":
        q, lam = float(_argv_value(argv, "--q")), float(_argv_value(argv, "--lambda"))
        lo, hi, n = _argv_value(argv, "--grid").split(":")
        lines = text.strip().splitlines()
        rows = [list(map(float, line.split(","))) for line in lines[1:]]
        xs = np.linspace(float(lo), float(hi), int(n))
        if len(rows) != len(xs):
            return [_mismatch("transform rows", len(rows), len(xs))]
        c = tsallis_c_identity(q, lam)
        bad = []
        for row, x in zip(rows, xs):
            g = (1.0 - (1.0 - q) * lam * x) / (2.0 - q)
            u = u_identity(x, q, lam)
            p = c * e_q(-lam * x, q)
            want = (x, g, 1.0 / g, u, p, lam * math.exp(-lam * u) / abs(g), 0.0)
            tols = ((0, 0), (1e-13, 0), (1e-13, 0), (1e-12, 1e-15), (1e-8, 0),
                    (1e-8, 0), (0, 1e-8 * p))
            for label, got, ref, (rt, at) in zip(lines[0].split(","), row, want, tols):
                if not close(got, ref, rt, at):
                    bad.append(_mismatch(f"transform q={q} lam={lam} {label}({x})", got, ref))
            if not close(x_identity(u, q, lam), x, 1e-12, 1e-14):
                bad.append(f"transform: closed-form inverse misses x={x}")
        return bad
    doc = json.loads(text)
    if kind == "solve-shannon":
        k1, k2 = doc["targets"]
        a, b, mu = gaussian_fit(k1, k2)
        bad = [_mismatch(f"solve-shannon K={doc['targets']} {label}", got, ref)
               for label, got, ref in (("a", doc["lambdas"][0], a), ("b", doc["lambdas"][1], b),
                                       ("mu", doc["mu"], mu))
               if not close(got, ref, 1e-7, 1e-8)]
        return bad
    if kind == "sample":
        q, lam = float(_argv_value(argv, "--q")), float(_argv_value(argv, "--lambda"))
        samples = np.asarray(doc["samples"], dtype=float)
        n = int(_argv_value(argv, "--n-samples"))
        if len(samples) != n or doc["n"] != n:
            return [_mismatch("sample count", len(samples), n)]
        ks = ks_statistic(samples, lambda x: qexp_cdf_identity(x, q, lam))
        bad = []
        if not close(doc["ks_statistic"], ks, 1e-9, 1e-12):
            bad.append(_mismatch("sample ks_statistic", doc["ks_statistic"], ks))
        if not ks < ks_bound(n):
            bad.append(f"sample: KS {ks!r} above bound {ks_bound(n)!r}")
        return bad
    if kind == "averages":
        q, lam = float(_argv_value(argv, "--q")), float(_argv_value(argv, "--lambda"))
        return check_averages(q, lam, doc, "averages")
    return [f"unknown kind {kind!r}"]
