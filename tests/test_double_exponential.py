"""The Tsallis-side integrals on the nested double-exponential rule.

`normalize_tsallis`, `shannon_partner` and the four averages integrate on
`quadrature.integrate_de_rows`, through `TsallisSolution.integrals`, with
QUADPACK's `integrate` as the fallback for a row the rule cannot certify
(a linear lam.h whose support ends at a root of phi or at infinity is in
closed form instead).  scipy's
`quad` at epsrel = 1e-12, on scalar integrands written out here, is the
oracle; the fallback examples pin QUADPACK's values.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning
from scipy.integrate import quad as scipy_quad

import qbridge as qb
import qbridge.maxent as M
import qbridge.quadrature as Q
from qbridge import ConstraintFn, ConstraintSet, QuadratureSpec, SupportInterval

from conftest import HALF_LINE, REAL_LINE

QUAD = QuadratureSpec()
X = ConstraintFn.identity()


def _oracle(f, support):
    """scipy quad of a scalar f over `support`, split at 0 on the line;
    None when QUADPACK does not claim convergence."""
    pieces = ([(support.lower, 0.0), (0.0, support.upper)]
              if math.isinf(support.lower) and math.isinf(support.upper)
              else [(support.lower, support.upper)])
    total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            for a, b in pieces:
                total += scipy_quad(f, a, b, epsabs=0.0, epsrel=1e-12, limit=1000)[0]
        except IntegrationWarning:
            return None
    return total


def _tail_exponent(q, degree):
    """p ~ |x|^-alpha toward an infinite end for q > 1 (inf for q < 1, where
    the support is bounded)."""
    return degree / (q - 1.0) if q > 1.0 else math.inf


@settings(max_examples=60, deadline=None)
@given(q=st.floats(0.1, 1.95).filter(lambda v: abs(v - 1.0) > 1e-3),
       shape=st.sampled_from(["x half-line", "x^2 line", "polynomial"]),
       coeffs=st.lists(st.floats(0.0, 2.0), min_size=4, max_size=4),
       degree=st.integers(1, 4),
       lam=st.floats(0.3, 3.0))
@example(q=0.5, shape="x half-line", coeffs=[0.0] * 4, degree=1, lam=1.0)
@example(q=1.2, shape="x half-line", coeffs=[0.0] * 4, degree=1, lam=0.5)
@example(q=1.95, shape="x half-line", coeffs=[0.0] * 4, degree=1, lam=3.0)
@example(q=1.9, shape="x^2 line", coeffs=[0.0] * 4, degree=2, lam=0.3)
@example(q=0.1, shape="polynomial", coeffs=[0.0, 0.0, 0.0, 2.0], degree=4, lam=3.0)
def test_normalization_and_averages_match_scipy_quad(q, shape, coeffs, degree, lam):
    # x on [0, inf), x^2 on the line, or a polynomial of degree <= 4 with
    # non-negative coefficients and h(0) = 0 on [0, inf): every one has the
    # anchor 0 inside its support and no pole on it
    if shape == "x half-line":
        h, domain = ConstraintFn.identity(), HALF_LINE
    elif shape == "x^2 line":
        h, domain = ConstraintFn.square(), REAL_LINE
    else:
        h = ConstraintFn.polynomial([0.0, *coeffs[:degree - 1], 1.0 + coeffs[degree - 1]])
        domain = HALF_LINE
    degree = len(h.coefficients) - 1
    alpha = _tail_exponent(q, degree)
    assume(alpha > 1.05)                 # normalizable, with a tail QUADPACK resolves
    cs = ConstraintSet((h,), (lam,))
    t = qb.normalize_tsallis(q, cs, QUAD, domain=domain)

    def shape_at(x):
        return qb.q_exp(-lam * h.value(x), q)

    z = _oracle(shape_at, t.support)
    assume(z is not None)
    assert t.C == pytest.approx(1.0 / z, rel=1e-9)

    def p(x):
        return t.C * shape_at(x)

    # each average where its integral converges with room: x p ~ x^(1-alpha),
    # p^q ~ x^(-q alpha)
    cases = [(alpha > 2.05, "linear", lambda: qb.mean_linear(t, X, QUAD),
              lambda x: x * p(x), lambda x: abs(x) * p(x)),
             (q * alpha > 1.05, "x_q", lambda: qb.escort_norm(t, q, QUAD).x_q,
              lambda x: p(x) ** q, lambda x: p(x) ** q),
             (q * alpha > 2.05, "ct", lambda: qb.mean_ct(t, X, q, QUAD),
              lambda x: x * p(x) ** q, lambda x: abs(x) * p(x) ** q)]
    for converges, name, value, f, mass in cases:
        if not converges:
            continue
        expected, scale = _oracle(f, t.support), _oracle(mass, t.support)
        if expected is None or scale is None:
            continue
        assert abs(value() - expected) <= 1e-9 * scale, name
        if name == "ct":
            x_q = _oracle(lambda x: p(x) ** q, t.support)
            assert abs(qb.mean_tmp(t, X, q, QUAD) - expected / x_q) <= 1e-9 * scale / x_q


# ------------------------------------------------------- fallback to QUADPACK

# The q-Gaussian, x^2 on the line with lam = 1: its tails, |x|^(-2/(q-1)),
# are too heavy for t in [-4, 4], so these integrals go to `integrate`.
@pytest.mark.parametrize("q,C", [(2.96, 0.014087430390146313), (2.99, 0.0035321183419680345)])
def test_heavy_tails_fall_back_to_the_same_normalization(monkeypatch, q, C):
    calls = []
    real = Q.integrate
    monkeypatch.setattr(Q, "integrate", lambda *a: calls.append(a) or real(*a))
    cs = ConstraintSet((ConstraintFn.square(),), (1.0,))
    # the Beta closed form gives C within 4e-13 and 1.1e-11 of these values
    assert qb.normalize_tsallis(q, cs, QUAD, domain=REAL_LINE).C == pytest.approx(C, rel=1e-13)
    assert len(calls) == 1


def test_heavy_mean_falls_back_to_quadpack(monkeypatch):
    # x^2 on the half-line at q = 1.98: the mean's integrand decays as
    # x^-1.04; QUADPACK gives 16.19687273649347, and the exact mean is
    # 1/(2 (2-q) Z) = 16.196872736529574 with Z = 1/C
    cs = ConstraintSet((ConstraintFn.square(),), (1.0,))
    t = qb.normalize_tsallis(1.98, cs, QUAD, domain=HALF_LINE)
    calls = []
    real = Q.integrate
    monkeypatch.setattr(Q, "integrate", lambda *a: calls.append(a) or real(*a))
    mean = qb.mean_linear(t, X, QUAD)
    assert mean == pytest.approx(16.19687273649347, rel=1e-9)
    assert mean == pytest.approx(t.C / (2.0 * (2.0 - 1.98)), rel=1e-11)
    assert len(calls) == 1


@pytest.mark.parametrize("f", [
    lambda x: 1.0 / (1.0 + x) ** 1.04,                          # levels never agree
    # levels 5 and 6 agree to 7e-11, yet 4e-10 of the mass lies past the
    # last node (x = 4e18): the outermost terms are not negligible
    lambda x: 1.0 / (1.0 + x) ** 1.5,
    lambda x: np.where(x > 3.0, np.inf, np.exp(-x)) if np.ndim(x) else math.exp(-x),
], ids=["heavy tail", "tail past the last node", "not finite on the nodes"])
def test_uncertified_integrals_go_to_quadpack(f):
    # the rule leaves the row uncertified; TsallisSolution.integrals then
    # sends it alone to `integrate` (test_heavy_mean_falls_back_to_quadpack)
    assert Q.integrate_de_rows(f, 1, HALF_LINE, QUAD) == [None]


def test_an_overflowing_integrand_goes_to_quadpack():
    def f(x):
        if np.ndim(x):
            raise qb.RangeError("overflows")
        return math.exp(-x)

    assert Q.integrate_de_rows(f, 1, HALF_LINE, QUAD) == [None]
    assert Q.integrate(f, HALF_LINE, QUAD) == pytest.approx(1.0, rel=1e-12)


def test_an_uncertified_row_goes_alone_to_quadpack_and_is_kept(monkeypatch):
    # TsallisSolution.integrals hands a row the pass leaves uncertified to
    # `integrate` alone, with a scalar integrand, and keeps its value or error
    p = qb.normalize_tsallis(0.5, ConstraintSet((ConstraintFn.square(),), (1.0,)), QUAD,
                             domain=REAL_LINE)
    rows = [(1.0, X), (0.5, None)]
    certified = p.integrals(rows, QUAD)
    real = Q.integrate_de_rows
    monkeypatch.setattr(Q, "integrate_de_rows", lambda f, m, *a: [None, *real(f, m, *a)[1:]])
    calls = []
    monkeypatch.setattr(Q, "integrate", lambda f, *a: calls.append(f) or 1.25)
    assert p.integrals(rows, QUAD) == [1.25, certified[1]]
    assert len(calls) == 1 and calls[0](0.3) == p.density(0.3) * 0.3

    def fails(*args):
        raise qb.QuadratureError("did not converge")

    monkeypatch.setattr(Q, "integrate", fails)
    found = p.integrals(rows, QUAD)
    assert isinstance(found[0], qb.QuadratureError) and found[1] == certified[1]


def test_each_row_is_accepted_at_its_own_level():
    # rows that converge at different levels, one the rule cannot certify
    # (heavy tail) and one that is not finite on the nodes: each row is the
    # one-row pass of its own integrand, bit for bit, or None
    rows = [lambda x: np.exp(-x), lambda x: np.sqrt(x) / (1.0 + x) ** 3,
            lambda x: 1.0 / (1.0 + x) ** 1.04, lambda x: np.where(x > 3.0, np.inf, 1.0),
            lambda x: x ** 0.25 * np.exp(-x * x)]
    got = Q.integrate_de_rows(lambda x: np.array([f(x) for f in rows]), len(rows),
                              HALF_LINE, QUAD)
    assert got == [Q.integrate_de_rows(f, 1, HALF_LINE, QUAD)[0] for f in rows]
    assert got[2] is None and got[3] is None
    assert got[0] == pytest.approx(1.0, rel=1e-14)
    assert got[1] == pytest.approx(math.pi / 8.0, rel=1e-12)     # B(3/2, 3/2)


def test_the_rule_integrates_an_edge_singularity_and_a_power_tail():
    edge = SupportInterval(0.0, 2.0)
    assert Q.integrate_de_rows(lambda x: np.sqrt(2.0 - x), 1, edge, QUAD)[0] == \
        pytest.approx(2.0 * 2.0 ** 1.5 / 3.0, rel=1e-13)
    assert Q.integrate_de_rows(lambda x: (1.0 + x) ** -3.0, 1, HALF_LINE, QUAD)[0] == \
        pytest.approx(0.5, rel=1e-13)
    assert Q.integrate_de_rows(lambda x: np.exp(-x * x), 1, REAL_LINE, QUAD)[0] == \
        pytest.approx(math.sqrt(math.pi), rel=1e-14)


# ------------------------------------------------------- the Shannon partner

# For h = x the partner e^{-mu} e^{-lam u} on u's image is the q = 1 member
# of the linear family, so its normalization is in closed form where the
# image runs to infinity (a support end at a root of phi, or at infinity),
# and a one-row pass on a finite image.
@settings(max_examples=60, deadline=None)
@given(q=st.floats(0.05, 1.95), lam=st.floats(0.2, 5.0),
       end=st.just(math.inf) | st.floats(0.1, 5.0))
@example(q=0.5, lam=1.0, end=math.inf)
@example(q=1.5, lam=2.0, end=math.inf)
@example(q=1.0, lam=1.0, end=math.inf)
@example(q=1.3, lam=0.7, end=2.0)
def test_the_linear_shannon_partner_matches_its_one_row_pass(q, lam, end):
    cs = ConstraintSet((X,), (lam,))
    t = qb.normalize_tsallis(q, cs, QUAD, domain=SupportInterval(0.0, end))
    s = qb.shannon_partner(t, qb.TransformMap.from_spec(qb.TransformSpec(qb.QIndex(q), cs)),
                           QUAD)
    z, = Q.integrate_de_rows(M.ShannonSolution(0.0, cs, s.domain).density, 1, s.domain, QUAD)
    assume(z is not None)
    assert abs(s.mu - math.log(z)) <= 1e-14 * max(1.0, abs(s.mu))


# ------------------------------------------------------------ no QUADPACK call

@pytest.mark.parametrize("q", [0.5, 1.2])
@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_normalization_and_averages_make_no_quadpack_call(monkeypatch, q, lam):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy quad called")

    monkeypatch.setattr(Q, "quad", refuse)
    with pytest.raises(AssertionError):     # the patch does reach QUADPACK's callers
        qb.integrate(math.exp, SupportInterval(0.0, 1.0), QUAD)
    t = qb.normalize_tsallis(q, ConstraintSet((ConstraintFn.identity(),), (lam,)), QUAD,
                             domain=HALF_LINE)
    assert t.C == pytest.approx((2.0 - q) * lam, rel=1e-12)
    assert qb.mean_linear(t, X, QUAD) == pytest.approx(1.0 / ((3.0 - 2.0 * q) * lam),
                                                       rel=1e-10)
    qb.mean_ct(t, X, q, QUAD)
    qb.mean_tmp(t, X, q, QUAD)
    qb.escort_norm(t, q, QUAD)


# ------------------------------------------------------- array and scalar calls

def _ulps(a, b):
    return np.abs(a - b) / np.spacing(np.maximum(np.abs(a), np.abs(b)))


@settings(max_examples=60, deadline=None)
@given(q=st.floats(0.05, 2.95).filter(lambda v: abs(v - 2.0) > 1e-3),
       zs=st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=40))
@example(q=1.0, zs=[-3.0, 0.0, 4.0])
@example(q=0.5, zs=[-2.0, -3.0, 1.0])         # at and past the cutoff
def test_q_exp_on_an_array_matches_scalar_calls(q, zs):
    if q > 1.0:      # below the pole
        zs = [min(z, 0.999 / (q - 1.0)) for z in zs]
    array = qb.q_exp(np.array(zs), q)
    scalar = np.array([qb.q_exp(z, q) for z in zs])
    assert all(type(qb.q_exp(z, q)) is float for z in zs)
    assert np.all((array == scalar) | (_ulps(array, scalar) <= 1.0))


def test_q_exp_on_an_array_raises_the_scalar_errors():
    with pytest.raises(qb.DomainError, match="pole z = 2.0 .* got z = 3.0"):
        qb.q_exp(np.array([0.0, 3.0, 4.0]), 1.5)
    with pytest.raises(qb.DomainError, match="finite, got nan"):
        qb.q_exp(np.array([0.0, math.nan]), 0.5)
    with pytest.raises(qb.RangeError, match=r"q_exp\(800.0\) overflows"):
        qb.q_exp(np.array([1.0, 800.0]), 1.0)
    with pytest.raises(qb.RangeError, match="overflows"):
        qb.q_exp(np.array([30000.0]), 1.00000001)


@pytest.mark.parametrize("q,h,domain", [
    (0.5, ConstraintFn.identity(), HALF_LINE),
    (1.5, ConstraintFn.identity(), HALF_LINE),
    (0.3, ConstraintFn.square(), REAL_LINE),
    (1.7, ConstraintFn.square(), REAL_LINE),
    (1.0, ConstraintFn.square(), REAL_LINE),
])
def test_densities_on_an_array_match_scalar_calls(q, h, domain):
    cs = ConstraintSet((h,), (1.3,))
    t = qb.normalize_tsallis(q, cs, QUAD, domain=domain)
    s = M.ShannonSolution(mu=0.7, cs=cs, domain=domain)
    # nodes inside and outside both supports, with the support's edges
    x = np.concatenate([np.linspace(-5.0, 5.0, 201),
                        [v for v in (t.support.lower, t.support.upper) if math.isfinite(v)]])
    for density in (t.density, s.density):
        array = density(x)
        scalar = np.array([density(float(v)) for v in x])
        assert all(type(density(float(v))) is float for v in x[:5])
        assert np.all((array == scalar) | (_ulps(array, scalar) <= 1.0))


# ------------------------------------------------------------- rules built once

def test_rules_and_observable_matrices_are_built_once_and_read_only():
    x, w = qb.quadrature.de_rule(HALF_LINE, 5)
    again = qb.quadrature.de_rule(SupportInterval(0.0, math.inf), 5)
    assert again[0] is x and again[1] is w
    assert not x.flags.writeable and not w.flags.writeable
    constraints = (ConstraintFn.identity(), ConstraintFn.square())
    R = M._moment_rows(constraints, REAL_LINE, 6)
    assert M._moment_rows(constraints, REAL_LINE, 6) is R
    assert not R.flags.writeable
    np.testing.assert_array_equal(R[2], qb.quadrature.de_rule(REAL_LINE, 6)[0] ** 2)
    for cache in (Q.de_rule, M._moment_rows):
        assert cache.cache_info().maxsize == Q.RULE_CACHE_SIZE
