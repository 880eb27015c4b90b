"""Exception types raised across the package.

Plain ``ValueError`` is used for ordinary argument validation; the classes
here mark failure modes a caller may want to handle specifically. A
message echoes a value read from outside (a file, a flag) whole, as its
``repr``; the command line makes each message one short line.
"""


class NoonspecError(ValueError):
    """Base class for domain-specific failures."""


class CoverageError(NoonspecError):
    """An output grid misses a non-negligible fraction of the spectral mass."""


class GridMismatchError(NoonspecError):
    """Two quantities that must share a grid do not."""


class NonUniformGridError(NoonspecError):
    """A delay axis read from disk is not uniformly spaced."""


class AliasingError(NoonspecError):
    """The time step is too coarse for the spectral band (Nyquist violated)."""


class WindowTooShortError(NoonspecError):
    """The delay window does not contain the interference envelope."""


class NoSignalError(NoonspecError):
    """The trace carries no oscillation to analyze."""


class AsymmetryError(NoonspecError):
    """A recovered spectrum breaks Hermitian symmetry beyond tolerance."""
