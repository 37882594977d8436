import math

import numpy as np
import pytest

import qbridge as qb

HALF_LINE = qb.SupportInterval(0.0, math.inf)
REAL_LINE = qb.SupportInterval(-math.inf, math.inf)


@pytest.fixture
def quad():
    return qb.QuadratureSpec()


def identity_cs(lam=1.0, target=None):
    targets = None if target is None else (target,)
    return qb.ConstraintSet((qb.ConstraintFn.identity(),), (lam,), targets=targets)


def square_cs(lam=1.0, target=None):
    targets = None if target is None else (target,)
    return qb.ConstraintSet((qb.ConstraintFn.square(),), (lam,), targets=targets)


def interior_grid(q, cs, n=100, clip=5.0, margin=0.02):
    """n points strictly inside the q-exponential support, within +-clip."""
    support = qb.qexp_support(q, cs)
    lo = max(support.lower, -clip)
    hi = min(support.upper, clip)
    span = hi - lo
    return np.linspace(lo + margin * span, hi - margin * span, n)


def matched_solutions(q, cs, domain, quadspec):
    """Tsallis solution plus the Shannon solution on the image domain."""
    map_ = qb.TransformMap.from_spec(qb.TransformSpec(qb.QIndex(q), cs))
    tsallis = qb.normalize_tsallis(q, cs, quadspec, domain=domain)
    return tsallis, qb.shannon_partner(tsallis, map_, quadspec), map_
