"""Exception hierarchy shared by all qbridge modules."""


class QBridgeError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(QBridgeError):
    """Inconsistent or invalid inputs detected before any computation."""


class DomainError(QBridgeError):
    """Evaluation requested outside the mathematical domain of an operation."""


class SingularIndexError(DomainError):
    """Entropic index inside the singular band around q = 2."""


class EdgeSingularityError(DomainError):
    """The inverse-Jacobian vanishes (support edge); carries the location."""

    def __init__(self, message: str, edge: float):
        super().__init__(message)
        self.edge = edge


class RangeError(DomainError):
    """Requested value lies outside the attained range of a map."""


class UnsupportedRegimeError(DomainError):
    """Operation is only defined for a restricted parameter regime."""


class NonNormalizableError(DomainError):
    """A density integral diverges; carries the offending tail exponent."""

    def __init__(self, message: str, tail_exponent: float | None = None):
        super().__init__(message)
        self.tail_exponent = tail_exponent


class NonIntegrableError(QBridgeError):
    """A requested moment or escort integral diverges; carries the tail
    exponent of its integrand when an analytic screen found it."""

    def __init__(self, message: str, tail_exponent: float | None = None):
        super().__init__(message)
        self.tail_exponent = tail_exponent


class QuadratureError(QBridgeError):
    """Adaptive quadrature failed to converge; carries the best estimate."""

    def __init__(self, message: str, estimate: float | None = None,
                 error_bound: float | None = None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class SolverError(QBridgeError):
    """Iterative solver failed; carries the iteration trace when available."""

    def __init__(self, message: str, trace: list | None = None):
        super().__init__(message)
        self.trace = trace or []


class FeasibilityError(SolverError):
    """The requested moment targets cannot be met on the given domain.

    `certificate` holds multipliers lam with lam.K below the infimum of
    lam.h over the domain, when the solver found such a proof.
    """

    def __init__(self, message: str, trace: list | None = None,
                 certificate: tuple[float, ...] | None = None):
        super().__init__(message, trace=trace)
        self.certificate = certificate
