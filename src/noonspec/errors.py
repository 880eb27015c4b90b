"""Exception types raised across the package.

Plain ``ValueError`` is used for ordinary argument validation; the classes
here mark failure modes a caller may want to handle specifically. A
message that echoes a value read from outside (a file, a flag) echoes it
through :func:`quoted`, so the message stays one short line.
"""
import reprlib

_ECHO = reprlib.Repr()  # limits as attributes: Repr takes keywords only from Python 3.12
_ECHO.maxlevel, _ECHO.maxstring, _ECHO.maxlong, _ECHO.maxother = 2, 60, 60, 60


def quoted(value) -> str:
    """``repr(value)``, elided by ``reprlib`` past 60 characters of a string
    or number, 6 members of a list (4 of an object) or 2 levels of nesting."""
    return _ECHO.repr(value)


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
