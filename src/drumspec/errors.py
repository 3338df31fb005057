"""Exception hierarchy shared across the package."""


class DrumspecError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDomainError(DrumspecError):
    """The domain description violates a geometric invariant."""


class DomainFileError(InvalidDomainError):
    """A domain file could not be parsed or failed schema validation."""


class EmptySpectrumError(DrumspecError):
    """The requested cutoff lies below the first eigenvalue."""


class NumericError(DrumspecError):
    """A numeric routine failed (root finder, quadrature self-test, ...)."""


class MeshError(DrumspecError):
    """Mesh generation failed or produced an invalid triangulation."""


class AssemblyError(DrumspecError):
    """Finite element assembly encountered a degenerate element."""


class EigensolveError(NumericError):
    """The sparse eigensolver did not converge or failed to factorize."""


class InsufficientSpectrumError(DrumspecError):
    """The spectrum is too short for the requested fit window.

    Carries ``required_cutoff``, the smallest eigenvalue cutoff that would
    make the window non-empty.
    """

    def __init__(self, message, required_cutoff=None):
        super().__init__(message)
        self.required_cutoff = required_cutoff


class FitError(DrumspecError):
    """The least-squares fit is unusable (e.g. ill-conditioned)."""


class ConsistencyError(DrumspecError):
    """A geometric identity fails beyond rounding; signals an internal bug."""
