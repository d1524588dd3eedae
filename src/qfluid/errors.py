"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit with 2,
numerical failures (singularities, CFL violations, vacuum breakdown) with 3,
and I/O errors with 4.
"""


class ConfigError(ValueError):
    """Invalid or inconsistent user-supplied configuration."""


class NumericalError(RuntimeError):
    """Base class for runtime numerical failures."""


class SonicSingularityError(NumericalError):
    """The wave-frame derivative system became singular (sonic point)."""


class CFLViolationError(NumericalError):
    """Requested time step exceeds the advective or oscillatory limit.

    ``suggested_dt`` is a step that would pass, or None when no step would
    help (a wave that steepens or grows outgrows any fixed step).
    """

    def __init__(self, message: str, suggested_dt: float | None):
        super().__init__(message)
        self.suggested_dt = suggested_dt


class VacuumError(NumericalError):
    """Density reached zero or negative values on the grid."""


class NoOscillationError(NumericalError):
    """A probe signal showed no measurable oscillation."""


class MomentError(NumericalError):
    """Moment computation failed (nonpositive density within tolerance)."""
