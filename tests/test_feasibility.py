"""Infeasible moment targets end at a dual certificate.

A multiplier vector lam with lam.K below the infimum of lam.h over the
domain proves that no density has E[h] = K.  The moment pass looks for
one whenever lam.K falls below the minimum of lam.h on its nodes.  Here
the certificate the solver returns is re-checked on a dense grid (no
numpy.roots), and targets planted from a real density, with moments
from scipy's QUADPACK (or mpmath where QUADPACK cannot certify its value),
must never be refused as infeasible.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qbridge as qb
import qbridge.maxent as maxent
from qbridge import ConstraintFn, ConstraintSet, QuadratureSpec, SupportInterval
from qbridge.maxent import _potential_minimum

from conftest import HALF_LINE, REAL_LINE
from oracles import certified_quad

X, X2 = ConstraintFn.identity(), ConstraintFn.square()
X4 = ConstraintFn.polynomial((0.0, 0.0, 0.0, 0.0, 1.0))
FINITE = SupportInterval(-1.0, 2.0)


def _solve(observables, targets, domain):
    cs = ConstraintSet(observables, (1.0,) * len(observables), targets=targets)
    return qb.solve_shannon(cs, domain, QuadratureSpec())


def _potential(observables, lam, x):
    """lam.h(x) on an array, term by term from each observable's coefficients."""
    return sum(l * sum(a * x ** k for k, a in enumerate(c.coefficients))
               for l, c in zip(lam, observables))


def _assert_certificate(observables, targets, domain, lam):
    """lam.h > lam.K on a dense grid, and lam.h grows toward each infinite end."""
    lo = max(domain.lower, -1e3)
    hi = min(domain.upper, 1e3)
    grid = np.concatenate([np.linspace(lo, hi, 400_001),
                           np.linspace(max(lo, -10.0), min(hi, 10.0), 400_001)])
    bound = float(np.dot(lam, targets))
    assert float(np.min(_potential(observables, lam, grid))) > bound
    lead = {}
    for l, c in zip(lam, observables):
        d = len(c.coefficients) - 1
        lead[d] = lead.get(d, 0.0) + l * c.coefficients[-1]
    degree = max(d for d, a in lead.items() if a != 0.0)
    if math.isinf(domain.upper):
        assert lead[degree] > 0.0
    if math.isinf(domain.lower):
        assert lead[degree] * (-1.0) ** degree > 0.0


INFEASIBLE = [
    ((X, X2), (1.0, 0.5), REAL_LINE),             # E[x^2] < E[x]^2
    ((X, X2), (1.0, 1.0 - 1e-6), REAL_LINE),      # variance -1e-6
    ((X,), (-2.0,), HALF_LINE),                   # negative mean on x >= 0
    ((X,), (3.0,), FINITE),                       # mean beyond the right end
    ((X2, X4), (1.0, 0.5), REAL_LINE),            # E[x^4] < E[x^2]^2
]


@pytest.mark.parametrize("observables,targets,domain", INFEASIBLE)
def test_infeasible_targets_raise_a_checked_certificate(observables, targets, domain):
    with pytest.raises(qb.FeasibilityError) as err:
        _solve(observables, targets, domain)
    exc = err.value
    assert isinstance(exc, qb.SolverError)
    assert exc.certificate is not None and len(exc.certificate) == len(targets)
    assert isinstance(exc.trace, list)
    assert "lam.K" in str(exc) and "infimum" in str(exc)
    _assert_certificate(observables, targets, domain, exc.certificate)


def test_infeasible_fit_ends_within_a_few_moment_passes(monkeypatch):
    passes = []
    build = maxent._moment_functions

    def counting(*args, **kwargs):
        moments = build(*args, **kwargs)

        def counted(*a, **kw):
            passes.append(1)
            return moments(*a, **kw)

        return counted

    monkeypatch.setattr(maxent, "_moment_functions", counting)
    with pytest.raises(qb.FeasibilityError):
        _solve((X, X2), (1.0, 0.5), REAL_LINE)
    assert 1 <= len(passes) <= 8


@pytest.mark.parametrize("observables,lam,domain,low,at", [
    ((X,), (1.0,), HALF_LINE, 0.0, 0.0),
    ((X,), (-2.0,), FINITE, -4.0, 2.0),
    ((X, X2), (-2.0, 1.0), REAL_LINE, -1.0, 1.0),
    ((X, X2), (-2.0, 1.0), SupportInterval(2.0, 5.0), 0.0, 2.0),
    ((X2, X4), (-2.0, 1.0), REAL_LINE, -1.0, None),      # two minimisers, x = +-1
    ((X,), (-1.0,), HALF_LINE, -math.inf, math.inf),
    ((X, X2), (0.0, -1.0), REAL_LINE, -math.inf, None),
])
def test_potential_minimum(observables, lam, domain, low, at):
    got_low, got_at = _potential_minimum(ConstraintSet(observables, lam), domain)
    assert got_low == pytest.approx(low, abs=1e-12)
    if at is not None:
        assert got_at == pytest.approx(at, abs=1e-9)
    elif math.isfinite(low):
        assert abs(got_at) == pytest.approx(1.0, abs=1e-9)
    else:
        assert math.isinf(got_at)


# ----------------------------------------------------------- planted targets

def _planted_targets(observables, p, domain):
    def weight(u):
        return math.exp(-sum(c * o.value(u) for c, o in zip(p, observables)))

    def integral(f):
        return certified_quad(f, domain.lower, domain.upper)

    z = integral(weight)
    return tuple(integral(lambda u, o=o: weight(u) * o.value(u)) / z for o in observables)


@settings(max_examples=60, deadline=None)
@given(domain=st.sampled_from([HALF_LINE, REAL_LINE, FINITE]),
       powers=st.sampled_from([(1,), (2,), (4,), (1, 2), (1, 4), (2, 4), (1, 2, 4)]),
       lower=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
       lead=st.floats(0.2, 1.5))
def test_planted_targets_are_never_refuted(domain, powers, lower, lead):
    observables = tuple({1: X, 2: X2, 4: X4}[k] for k in powers)
    # the highest power carries a positive coefficient, so exp(-p.h) decays
    # toward every infinite end it has; x alone does not decay on the line
    assume(not (domain is REAL_LINE and powers[-1] == 1))
    p = (*lower[:len(powers) - 1], lead)
    targets = _planted_targets(observables, p, domain)
    try:
        _solve(observables, targets, domain)
    except qb.FeasibilityError as exc:
        pytest.fail(f"planted targets {targets} from p = {p} refuted: {exc}")
    except qb.QBridgeError:
        pass
