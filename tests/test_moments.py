"""The batched double-exponential moment pass and the solver built on it.

scipy's QUADPACK is the independent oracle for Z and E[h], or mpmath
where QUADPACK cannot certify its value (`oracles.certified_quad`); a central
difference of E[h] in lam checks the covariance Jacobian; closed forms
(the Gaussian fit, lam = 1/K on the half-line) check solve_shannon.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qbridge as qb
from qbridge import ConstraintFn, ConstraintSet, QuadratureSpec, SupportInterval
from qbridge.maxent import _moment_functions

from conftest import HALF_LINE, REAL_LINE
from oracles import certified_quad

X, X2 = ConstraintFn.identity(), ConstraintFn.square()
X3 = ConstraintFn.polynomial((0.0, 0.0, 0.0, 1.0))
X4 = ConstraintFn.polynomial((0.0, 0.0, 0.0, 0.0, 1.0))

# (domain, observables, multipliers): every domain kind, 1 to 3 constraints
FIXTURES = [
    (HALF_LINE, (X,), (0.7,)),
    (HALF_LINE, (X, X2), (-0.3, 0.5)),
    (REAL_LINE, (X2,), (2.0,)),
    (REAL_LINE, (X, X2), (-0.4, 0.8)),
    (REAL_LINE, (X, X2, X4), (0.2, -0.3, 0.25)),
    (SupportInterval(-1.0, 2.0), (X,), (1.3,)),
    (SupportInterval(-1.0, 2.0), (X, X2, X3), (-0.5, 0.7, 0.4)),
    (SupportInterval(-math.inf, 1.0), (X,), (-0.9,)),
    (SupportInterval(-math.inf, 1.0), (X, X2), (0.5, 0.4)),
]


def _scipy(f, domain):
    return certified_quad(f, domain.lower, domain.upper)


@pytest.mark.parametrize("domain,observables,lams", FIXTURES)
def test_moments_match_scipy_quad(domain, observables, lams):
    mean, log_z, _ = _moment_functions(observables, domain, QuadratureSpec())(lams)

    def weight(u):
        return math.exp(-sum(l * c.value(u) for l, c in zip(lams, observables)))

    z = _scipy(weight, domain)
    assert math.exp(log_z) == pytest.approx(z, rel=1e-12)
    for c, got in zip(observables, mean):
        assert got == pytest.approx(_scipy(lambda u: weight(u) * c.value(u), domain) / z,
                                    rel=1e-12)


@pytest.mark.parametrize("domain,observables,lams", FIXTURES)
def test_covariance_is_minus_the_moment_jacobian(domain, observables, lams):
    moments = _moment_functions(observables, domain, QuadratureSpec())
    _, _, cov = moments(lams)
    step = 1e-5
    for j in range(len(lams)):
        up, down = np.array(lams), np.array(lams)
        up[j] += step
        down[j] -= step
        slope = (moments(up)[0] - moments(down)[0]) / (2.0 * step)
        np.testing.assert_allclose(-slope, cov[:, j], rtol=1e-6,
                                   atol=1e-8 * np.max(np.abs(cov)))
    assert np.allclose(cov, cov.T)


@pytest.mark.parametrize("lam", [0.0, -0.5, 1e-18])
def test_weight_without_decay_on_the_nodes_raises(lam):
    # 1e-18: the weight decays, but past the outermost node at x ~ 4e18,
    # so the nested levels agree on a truncated integral; only the
    # outermost-node test can tell
    moments = _moment_functions((X,), HALF_LINE, QuadratureSpec())
    with pytest.raises(qb.QuadratureError, match="does not decay"):
        moments([lam])


# ------------------------------------------------------------ typed outcomes

def _solve(observables, targets, domain):
    cs = ConstraintSet(observables, (1.0,) * len(observables), targets=targets)
    return qb.solve_shannon(cs, domain, QuadratureSpec())


def _check_gaussian_fit(s, k1, k2):
    var = k2 - k1 * k1
    a, b = -k1 / var, 0.5 / var
    mu = 0.5 * math.log(2.0 * math.pi * var) + 0.5 * k1 * k1 / var
    assert s.cs.multipliers == pytest.approx((a, b), rel=1e-6, abs=1e-7)
    assert s.mu == pytest.approx(mu, rel=1e-8, abs=1e-8)


@settings(max_examples=40, deadline=None)
@given(k1=st.floats(-5.0, 5.0), log_var=st.floats(-3.0, 2.0))
@example(k1=5.0, log_var=0.0)       # K = (5, 26)
@example(k1=0.0, log_var=-3.0)      # K = (0, 1e-3)
@example(k1=-2.0, log_var=-3.0)     # near-singular Cov(h): needs the Newton polish
def test_two_constraint_real_line_fit_or_solver_error(k1, log_var):
    k2 = k1 * k1 + 10.0 ** log_var
    try:
        s = _solve((X, X2), (k1, k2), REAL_LINE)
    except qb.SolverError:
        return
    _check_gaussian_fit(s, k1, k2)


@settings(max_examples=40, deadline=None)
@given(log_k=st.floats(-2.0, 4.0))
@example(log_k=-2.0)
@example(log_k=2.0)
@example(log_k=4.0)
def test_half_line_mean_fit_or_solver_error(log_k):
    k = 10.0 ** log_k
    try:
        s = _solve((X,), (k,), HALF_LINE)
    except qb.SolverError:
        return
    assert s.cs.multipliers[0] == pytest.approx(1.0 / k, rel=1e-6)
    assert s.mu == pytest.approx(math.log(k), rel=1e-8, abs=1e-8)


@pytest.mark.parametrize("k1,k2", [(5.0, 26.0), (0.0, 1e-3)])
def test_gaussian_targets_solved(k1, k2):
    _check_gaussian_fit(_solve((X, X2), (k1, k2), REAL_LINE), k1, k2)


# 2.741594340298416: QUADPACK at the default tolerances is 7.3e-9 off on
# this solution's normalization, and the re-check must not refuse it
@pytest.mark.parametrize("k", [0.01, 100.0, 1e4, 2.741594340298416])
def test_half_line_targets_solved(k):
    s = _solve((X,), (k,), HALF_LINE)
    assert s.cs.multipliers[0] == pytest.approx(1.0 / k, rel=1e-6)
    assert s.mu == pytest.approx(math.log(k), rel=1e-8, abs=1e-8)


# The Newton fit succeeds on these; QUADPACK's map of the whole line missed
# the unit-width peak far from 0 (integral 0.0 and 3.3e-99) until the
# re-check split the line at the mode.
@pytest.mark.parametrize("k1,k2", [(100.0, 10001.0), (50.0, 2501.0)])
def test_far_narrow_gaussian_passes_the_recheck(k1, k2):
    s = _solve((X, X2), (k1, k2), REAL_LINE)
    assert s.cs.multipliers == pytest.approx((-k1, 0.5), rel=1e-10)
    assert s.mu == pytest.approx(0.5 * math.log(2.0 * math.pi) + 0.5 * k1 * k1, rel=1e-11)


def test_deep_double_well_passes_the_recheck():
    # exp(20.48 x^2 - 0.902 x^4): two wells at x = +-3.37 behind a barrier of
    # height 116; a split at one mode alone leaves QUADPACK half the mass
    planted = (-20.47862165133519, 0.902357483388095)
    s = _solve((X2, X4), (11.322712548031843, 128.75913959591335), REAL_LINE)
    assert s.cs.multipliers == pytest.approx(planted, rel=1e-8)


@pytest.mark.parametrize("observables,lams,domain,modes", [
    ((X, X2), (-2.0, 1.0), REAL_LINE, [1.0]),
    ((X2, X4), (-2.0, 1.0), REAL_LINE, [-1.0, 1.0]),
    ((X, X2, X4), (1.0, 1.0, 1.0), REAL_LINE, [-0.3854]),     # one real critical point
    ((X, X2), (-2.0, 1.0), SupportInterval(1.0, 5.0), []),   # the minimiser is an end
    ((X,), (0.7,), HALF_LINE, []),
])
def test_modes_are_the_interior_local_minimisers(observables, lams, domain, modes):
    from qbridge.maxent import _modes
    got = _modes(ConstraintSet(observables, lams), domain)
    assert got == pytest.approx(modes, abs=1e-4)


# ------------------------------------------- closed-form fits, exact refusals

def _exact(observables, targets, lams, mu, domain):
    fitted = ConstraintSet(observables, lams, targets=targets)
    return qb.ShannonSolution(mu=mu, cs=fitted, domain=domain)


def _exponential(k):
    return (X,), (k,), (1.0 / k,), math.log(k)


def _gaussian(k1, k2):
    var = k2 - k1 * k1
    return ((X, X2), (k1, k2), ((0.0 - k1) / var, 0.5 / var),
            0.5 * math.log(2.0 * math.pi * var) + 0.5 * k1 * k1 / var)


# Each was refused by the QUADPACK re-check (the first two: "moment check
# failed" and "normalization check failed" on solutions exact to rounding)
# or stalled Newton from 1/(1+|K|) ((0, 1e4): "Newton stagnated").
@pytest.mark.parametrize("case,domain", [
    (_exponential(3.328611156682118), HALF_LINE),
    (_gaussian(-0.20960011559844904, 1.3650832219283844), REAL_LINE),
    (_gaussian(0.0, 1e4), REAL_LINE),
])
def test_false_refusals_solve_to_the_closed_form(case, domain):
    from qbridge.maxent import _check_shannon_invariants
    observables, targets, lams, mu = case
    quad = QuadratureSpec()
    _check_shannon_invariants(_exact(observables, targets, lams, mu, domain), quad)
    s = _solve(observables, targets, domain)
    assert s.cs.multipliers == pytest.approx(lams, rel=1e-12, abs=1e-12 * max(map(abs, lams)))
    assert s.mu == pytest.approx(mu, rel=1e-12)


def _count_passes(monkeypatch):
    import qbridge.maxent as maxent
    passes = []
    build = maxent._moment_functions

    def counting(*args, **kwargs):
        moments = build(*args, **kwargs)

        def counted(*a, **kw):
            passes.append(a[0])
            return moments(*a, **kw)

        return counted

    monkeypatch.setattr(maxent, "_moment_functions", counting)
    return passes


@pytest.mark.parametrize("observables,targets,domain,start", [
    ((X,), (2.0,), HALF_LINE, [0.5]),
    ((X,), (2.0,), SupportInterval(-1.0, math.inf), [1.0 / 3.0]),
    ((X, X2), (0.5, 1.0), REAL_LINE, [-2.0 / 3.0, 2.0 / 3.0]),
    ((X, X2), (0.0, 4.0), REAL_LINE, [0.0, 0.125]),
    ((ConstraintFn.polynomial((0.0, 1.0, 0.0)),), (2.0,), HALF_LINE, [0.5]),   # x + 0 x^2 is x
])
def test_newton_starts_at_the_closed_form_fit(monkeypatch, observables, targets, domain, start):
    passes = _count_passes(monkeypatch)
    s = _solve(observables, targets, domain)
    assert list(s.cs.multipliers) == pytest.approx(start, rel=1e-15)
    if start[0] == 0.0:
        assert math.copysign(1.0, s.cs.multipliers[0]) == 1.0   # +0.0, never -0.0
    assert len(passes) == 0    # the exact start is the fit: no moment pass
    if len(start) == 1:        # log Z of exp(-lam x) on [a, inf), and of the Gaussian
        mu = -start[0] * domain.lower - math.log(start[0])
    else:
        a, b = start
        mu = 0.5 * math.log(math.pi / b) + a * a / (4.0 * b)
    assert s.mu == pytest.approx(mu, rel=1e-14)


@pytest.mark.parametrize("targets", [(1.0, 0.5), (-3.0, 8.0), (1.0, 1.0 - 1e-6),
                                     (1.0, 0.5, 1.0), (-3.0, 8.0, 2.0)])
def test_negative_variance_ends_at_the_first_moment_pass(monkeypatch, targets):
    observables = (X, X2, X4)[:len(targets)]
    passes = _count_passes(monkeypatch)
    with pytest.raises(qb.FeasibilityError) as err:
        _solve(observables, targets, REAL_LINE)
    assert len(passes) == 1
    assert err.value.certificate == (-2.0 * targets[0], 1.0, 0.0)[:len(targets)]


def _planted(observables, p, domain):
    """Targets E[h] of exp(-p.h) on `domain`, from scipy's QUADPACK."""
    def weight(u):
        return math.exp(-sum(c * o.value(u) for c, o in zip(p, observables)))

    z = _scipy(weight, domain)
    return tuple(_scipy(lambda u, o=o: weight(u) * o.value(u), domain) / z
                 for o in observables)


DOUBLE_WELLS = [(-0.5, -0.5, 0.05), (0.5, -0.5, 0.05)]   # the deepest wells of the range


# planted (p1, p2, p4): a tilted double well, a flat quartic, a steep one, a
# shifted one, and the two deepest double wells of the planted range
@pytest.mark.parametrize("planted", [(0.2, -0.3, 0.25), (0.0, 0.0, 0.05),
                                     (0.5, 0.5, 0.5), (-0.5, 0.5, 0.05), *DOUBLE_WELLS])
def test_quartic_set_starts_at_the_fourth_moment_fit(monkeypatch, planted):
    targets = _planted((X, X2, X4), planted, REAL_LINE)
    passes = _count_passes(monkeypatch)
    s = _solve((X, X2, X4), targets, REAL_LINE)
    k1, k2, k4 = targets
    a, b, c = passes[0]
    assert a == pytest.approx(-k1 / k2, rel=1e-15)
    # the symmetric start exp(-(b x^2 + c x^4)) has E[x^2] = K2 and the
    # kurtosis K4/K2^2, up to the table's linear interpolation (~0.3%)
    z, m2, m4 = (_scipy(lambda u, k=k: u ** k * math.exp(-(b * u * u + c * u ** 4)),
                        REAL_LINE) for k in (0, 2, 4))
    assert m2 / z == pytest.approx(k2, rel=1e-2)
    assert m4 * z / (m2 * m2) == pytest.approx(k4 / (k2 * k2), rel=1e-2)
    assert len(passes) <= 6
    assert s.cs.multipliers == pytest.approx(planted, rel=1e-10, abs=1e-10)


# Nearly Gaussian targets, K4/K2^2 above the table's largest kurtosis: they
# keep the Gaussian fit of (K1, K2) with the small x^4 multiplier 1e-3/v^2.
@pytest.mark.parametrize("planted", [(0.0, 1.0, 0.001), (0.3, 2.0, 0.01),
                                     (-0.2, 0.5, 0.001), (0.2, 1.0, 0.002)])
def test_quartic_set_starts_at_the_gaussian_fit(monkeypatch, planted):
    targets = _planted((X, X2, X4), planted, REAL_LINE)
    passes = _count_passes(monkeypatch)
    s = _solve((X, X2, X4), targets, REAL_LINE)
    k1, k2, _ = targets
    v = k2 - k1 * k1
    assert list(passes[0]) == pytest.approx([-k1 / v, 0.5 / v, 1e-3 / (v * v)], rel=1e-15)
    assert len(passes) <= 9
    assert s.cs.multipliers == pytest.approx(planted, rel=1e-10, abs=1e-10)


def test_the_kurtosis_table_is_built_on_first_use():
    import subprocess
    import sys
    code = ("import qbridge.maxent as M; a = M._kurtosis_table.cache_info().currsize; "
            "M._kurtosis_table(); print(a, M._kurtosis_table.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout.split()
    assert out == ["0", "1"]
    kurtosis, m2 = qb.maxent._kurtosis_table()
    assert not kurtosis.flags.writeable and not m2.flags.writeable
    assert np.all(np.diff(kurtosis) > 0.0)      # the ratio picks one shape
    # exp(-y^4): E[y^2] = Gamma(3/4)/Gamma(1/4) and E[y^4] = 1/4, at r = 0
    zero = int(np.flatnonzero(qb.maxent._SHAPES == 0.0)[0])
    m2_0 = math.gamma(0.75) / math.gamma(0.25)
    assert m2[zero] == pytest.approx(m2_0, rel=1e-14)
    assert kurtosis[zero] == pytest.approx(0.25 / m2_0 ** 2, rel=1e-14)


@settings(max_examples=20, deadline=None)
@given(p1=st.floats(-0.5, 0.5), p2=st.floats(-0.5, 0.5), p4=st.floats(0.05, 0.5))
@example(p1=-0.5, p2=-0.5, p4=0.05)
@example(p1=0.5, p2=-0.5, p4=0.05)
def test_the_fourth_moment_start_reaches_the_gaussian_start_solution(p1, p2, p4):
    # the start changes how many passes a solve takes, not where it ends
    from unittest import mock
    targets = _planted((X, X2, X4), (p1, p2, p4), REAL_LINE)
    new = _solve((X, X2, X4), targets, REAL_LINE)
    with mock.patch("qbridge.maxent._quartic_start", lambda *args: None):
        old = _solve((X, X2, X4), targets, REAL_LINE)
    assert new.cs.multipliers == pytest.approx(old.cs.multipliers, rel=1e-10)
    assert new.mu == pytest.approx(old.mu, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("planted", DOUBLE_WELLS)
def test_double_wells_take_at_most_nine_passes(monkeypatch, planted):
    targets = _planted((X, X2, X4), planted, REAL_LINE)
    passes = _count_passes(monkeypatch)
    _solve((X, X2, X4), targets, REAL_LINE)
    assert len(passes) <= 9     # 11 each from the Gaussian start


@settings(max_examples=25, deadline=None)
@given(p1=st.floats(-0.5, 0.5), p2=st.floats(-0.5, 0.5), p4=st.floats(0.05, 0.5))
@example(p1=-0.5, p2=-0.5, p4=0.05)     # the deepest double well of the range
@example(p1=0.5, p2=0.5, p4=0.5)
def test_planted_quartic_targets_solve_to_their_multipliers(p1, p2, p4):
    targets = _planted((X, X2, X4), (p1, p2, p4), REAL_LINE)
    s = _solve((X, X2, X4), targets, REAL_LINE)
    assert s.cs.multipliers == pytest.approx((p1, p2, p4), rel=1e-10, abs=1e-10)


def test_other_sets_keep_the_reciprocal_start(monkeypatch):
    passes = _count_passes(monkeypatch)
    _solve((X2, X4), (1.0, 1.5), REAL_LINE)
    assert list(passes[0]) == [0.5, 0.4]


def test_relative_gap_solves_a_wide_gaussian():
    # one ulp of 1e6 is 1.2e-10, above an absolute 1e-11 gap test; the gap is
    # relative to max(1, |K_i|), and the exact start converges
    observables, targets, lams, mu = _gaussian(0.0, 1e6)
    s = _solve(observables, targets, REAL_LINE)
    assert s.cs.multipliers == pytest.approx(lams, rel=1e-12, abs=1e-12 * max(map(abs, lams)))
    assert s.mu == pytest.approx(mu, rel=1e-12)


# the moments of the Gaussians of width 1e-3 at 0 and at 1, with E[x^4]
@pytest.mark.parametrize("targets", [(0.0, 1e-6, 3e-12), (1.0, 1.0 + 1e-6, 1.0 + 6e-6)])
def test_a_failed_first_moment_pass_is_reported_as_such(targets):
    # DE levels 10 and 11 disagree on a peak of width 1e-3 at the start
    with pytest.raises(qb.SolverError, match="moment pass at the starting multipliers") as err:
        _solve((X, X2, X4), targets, REAL_LINE)
    assert type(err.value) is qb.SolverError
    assert isinstance(err.value.__cause__, qb.QuadratureError)
    assert "levels 10 and 11 disagree" in str(err.value)


# A moment pass refused these three at their exact start (DE levels 10 and
# 11 disagree on the narrow peak); the closed form needs none, and the
# re-check certifies it.
@pytest.mark.parametrize("k1,k2", [(0.0, 1e-6), (1.0, 1.0 + 1e-6), (0.0, 1e-10)])
def test_narrow_gaussians_are_fitted_in_closed_form(k1, k2):
    _check_gaussian_fit(_solve((X, X2), (k1, k2), REAL_LINE), k1, k2)


# ------------------------------------------------- the one-level first pass

def _first_pass(observables, domain, lams, targets):
    """What the first pass of `_moment_functions` returns or raises, and
    the level it returns: the last `de_rule` level it evaluates."""
    import qbridge.maxent as maxent
    levels, real = [], maxent.de_rule
    maxent.de_rule = lambda interval, level: levels.append(level) or real(interval, level)
    try:
        mean, log_z, cov = _moment_functions(observables, domain, QuadratureSpec(),
                                             targets=targets)(lams)
        return ("value", mean.tolist(), log_z, cov.tolist(), levels[-1])
    except qb.QBridgeError as exc:
        return (type(exc).__name__, str(exc))
    finally:
        maxent.de_rule = real


def _climb(observables, domain, lams, targets):
    from oracles import climb_moments
    try:
        mean, log_z, cov, level = climb_moments(observables, domain, QuadratureSpec(), lams,
                                                targets)
        return ("value", mean.tolist(), log_z, cov.tolist(), level)
    except qb.QBridgeError as exc:
        return (type(exc).__name__, str(exc))


@settings(max_examples=80, deadline=None)
@given(domain=st.sampled_from([HALF_LINE, REAL_LINE, SupportInterval(-1.0, 2.0)]),
       powers=st.sampled_from([(1,), (2,), (1, 2), (2, 4), (1, 2, 4)]),
       lams=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
       lead=st.sampled_from([1e-2, 1.0, 1e2]),
       targets=st.none() | st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
@example(domain=SupportInterval(-1.0, 2.0), powers=(2, 4), lams=[-0.92, 1.84, 0.0], lead=1e-2,
         targets=None)          # accepted at level 4
@example(domain=HALF_LINE, powers=(1,), lams=[1.26, 0.0, 0.0], lead=1.0,
         targets=None)          # accepted at level 5
@example(domain=REAL_LINE, powers=(1, 2, 4), lams=[-0.96, -1.03, 1.55], lead=1e-2,
         targets=None)          # accepted at level 8
@example(domain=HALF_LINE, powers=(2,), lams=[-0.28, 0.0, 0.0], lead=1.0,
         targets=None)          # raises at level 4: no decay
@example(domain=REAL_LINE, powers=(1, 2), lams=[-4.0, 1.0, 0.0], lead=1.0,
         targets=[2.0, 1.0, 0.0])   # a certificate of E[x^2] < E[x]^2
def test_the_first_pass_returns_the_level_and_bits_of_a_climb(domain, powers, lams, lead,
                                                             targets):
    # the pass evaluates level 6 first and reads levels 4 and 5 from its
    # nested nodes; a climb evaluates 4, 5, 6, ... in turn
    observables = tuple({1: X, 2: X2, 4: X4}[p] for p in powers)
    lams = np.array(lams[:len(powers)])
    lams[-1] = lead * lams[-1]
    targets = None if targets is None else np.array(targets[:len(powers)])
    assert _first_pass(observables, domain, lams, targets) == _climb(observables, domain, lams,
                                                                     targets)
