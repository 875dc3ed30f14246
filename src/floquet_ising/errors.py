"""Exception types shared across the toolkit."""


class ValidationError(ValueError):
    """Bad user input: parameters, lattice, subsystem or config."""


class UnsupportedPlaneError(ValidationError):
    """Parameter-based phase labels require alpha_J = alpha_h."""


class UnsupportedStateError(ValidationError):
    """Initial state outside the Gaussian product-state family."""


class CapacityError(ValidationError):
    """Dense state-vector simulation requested beyond the size bound."""


class NumericalBreakdown(RuntimeError):
    """Eigensolver or factorization failure; carries a condition estimate."""

    def __init__(self, msg, condition=None):
        super().__init__(msg)
        self.condition = condition


class DegenerateEvolution(NumericalBreakdown):
    """Frame rank collapsed: the state was annihilated to numerical zero."""


class PurityViolation(NumericalBreakdown):
    """Correlation eigenvalue left [-1, 1]: upstream evolution is broken."""


class WorkerError(RuntimeError):
    """A forked pool worker died (``exitcode`` is its exit code), or the
    exception of one of its points could not be sent back (``exitcode`` is
    None; the message keeps the original's)."""

    def __init__(self, msg, exitcode=None):
        super().__init__(msg)
        self.exitcode = exitcode


class MetricPoleError(ValidationError):
    """The closed-form similarity metric is singular at this momentum."""


class CollapseError(ValidationError):
    """Finite-size collapse impossible: rescaled curves do not overlap."""
