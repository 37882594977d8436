"""qbridge: Shannon and Tsallis MaxEnt solutions and the map between them."""

from .averaging import (
    EscortWeight,
    escort_norm,
    mean_ct,
    mean_linear,
    mean_tmp,
)
from .errors import (
    ConfigurationError,
    DomainError,
    EdgeSingularityError,
    FeasibilityError,
    NonIntegrableError,
    NonNormalizableError,
    QBridgeError,
    QuadratureError,
    RangeError,
    SingularIndexError,
    SolverError,
    UnsupportedRegimeError,
)
from .maxent import (
    ShannonSolution,
    TransportReport,
    TsallisSolution,
    normalize_tsallis,
    sample_and_test,
    shannon_partner,
    solve_shannon,
    verify_transport,
)
from .qkernel import QIndex, SupportInterval, as_qindex, q_exp, q_exp_deriv, q_log
from .quadrature import QuadratureSpec, integrate
from .transform import (
    ConstraintFn,
    ConstraintSet,
    TransformMap,
    TransformSpec,
    expand_g_near_q1,
    g_canonical,
    g_general,
    g_near_q2,
    ode_residual,
    qexp_support,
    u_image,
    u_of_x,
    x_of_u,
)

__version__ = "0.1.0"
