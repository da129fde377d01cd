"""Exception hierarchy for gcflow."""


class GcflowError(Exception):
    """Base class for all gcflow errors."""


class NonHermitianInput(GcflowError):
    """Spectrum passed to inverse() is not Hermitian-symmetric."""


class GridMismatch(GcflowError):
    """Operands live on different grids."""


class NonpositiveH(GcflowError):
    """Helmholtz inverse requires h > 0."""


class RangeTooLarge(GcflowError):
    """Kernel support does not fit in a quarter period."""


class BadMollifier(GcflowError):
    """Mollifier width outside (0, radius)."""


class WidthTooLarge(GcflowError):
    """Gaussian kernel width too large relative to the box."""


class NoConvergence(GcflowError):
    """Iterative solve failed to reach tolerance within the cap."""


class NonpositiveDensity(GcflowError):
    """Density must be strictly positive pointwise."""


class PositivityLoss(GcflowError):
    """A time step produced a nonpositive density (h too large)."""


class StabilityViolation(GcflowError):
    """Explicit step size exceeds the stability bound."""


class InnerDivergence(NoConvergence):
    """Inner fixed-point iteration is diverging or stalled (h too large)."""


class ResidualTooLarge(GcflowError):
    """Converged step fails the weak-residual acceptance bound."""


class InsufficientData(GcflowError):
    """Not enough usable records for a fit."""


class ConfigError(GcflowError):
    """Configuration file failed to parse or validate."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")
