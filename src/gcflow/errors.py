"""Exception hierarchy for gcflow."""


class GcflowError(Exception):
    """Base class for all gcflow errors."""


class GridMismatch(GcflowError):
    """Operands live on different grids."""


class NoConvergence(GcflowError):
    """Iterative solve failed to reach tolerance within the cap."""


class PositivityLoss(GcflowError):
    """A density, given or made by a time step (h too large), is not positive."""


class StabilityViolation(GcflowError):
    """Explicit step size exceeds the stability bound."""


class InnerDivergence(NoConvergence):
    """Inner fixed-point iteration is diverging or stalled (h too large)."""


class ResidualTooLarge(GcflowError):
    """Converged step fails the weak-residual acceptance bound."""


class InsufficientData(GcflowError):
    """Not enough usable records for a fit."""


class ConfigError(GcflowError):
    """An input that cannot be used: a config value, a field file or a
    builder argument.  `field` names it (`section.key`, a path or an
    option), `reason` says why."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")
