"""Exact-phase and block helpers shared by the synthesis, the recovery
and the CSV writer.

The chirp-z synthesis of the interferogram and the inverse transform
that recovers the spectrum take the same steps: a product reduced mod 1
through error-free (Veltkamp/Dekker) split products, a phasor built in
place from its phase, and a delay or frequency axis walked in blocks of
``_BLOCK`` points, or of a size the caller gives. Each helper returns
arrays of its inputs' size and updates in place only the arrays it made
itself, or the ``out`` array that :func:`_phasors` is handed, so a walk
holds a few block-sized arrays at a time and frees them with the block.
The CSV writer takes the split and the block walk, and the count sampler
the walk. The module imports numpy alone, so any stage can use it
without loading another.
"""
from __future__ import annotations

import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for float64

# points per block of the delay- and frequency-axis stages; a block holds a
# few arrays of this length, and every result has the same bits for any value
_BLOCK = 2048


def _blocks(count: int, size: int | None = None):
    """(lo, hi) for the blocks of at most ``size`` points (``_BLOCK`` when
    None) that cover range(count), in order."""
    size = size or _BLOCK
    for lo in range(0, count, size):
        yield lo, min(lo + size, count)


def _split(x):
    """x = hi + lo exactly, each half with at most 26 significant bits."""
    hi = x * _SPLIT
    hi -= hi - x
    return hi, x - hi


def _frac(x):
    """x minus its nearest integer, exact for float64 input."""
    whole = np.rint(x)
    return np.subtract(x, whole, out=whole)


def _two_product(a, b):
    """(p, e) with p = fl(a*b) and p + e = a*b exactly (Dekker), for scalars,
    an array and a scalar, or two arrays of one shape."""
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    e = a_hi * b_hi
    e -= p
    e += a_hi * b_lo
    e += a_lo * b_hi
    e += a_lo * b_lo
    return p, e


def _cycles(a, b):
    """a*b mod 1 in [-0.5, 0.5], for one array and one scalar in either
    order. The four split products are exact and each is reduced before
    the only rounding sum."""
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    out = _frac(a_hi * b_hi)
    for x, y in ((a_hi, b_lo), (a_lo, b_hi), (a_lo, b_lo)):
        out += _frac(x * y)
    return _frac(out)


def _phasors(cycles, sign: int, out=None, scale=1.0, head=None) -> np.ndarray:
    """exp(sign 2 pi i cycles scale), built in ``out`` (a new array if None).

    The bits are those of ``np.exp(complex(0.0, sign * 2 * np.pi) * cycles)``
    without its complex temporaries: that product's imaginary part is
    +0 + sign 2 pi cycles, so a -0 turns +0, and its real part is a zero,
    whose sign ``exp`` ignores. A ``scale`` multiplies the phase after the
    sign 2 pi product, and the +0 then goes to the first ``head`` points
    alone (all of them when None), as the caller's own expression decides.
    """
    if out is None:
        out = np.empty(cycles.shape, dtype=complex)
    out.real = 0.0
    phase = out.imag
    np.multiply(cycles, sign * 2 * np.pi, out=phase)
    phase *= scale
    phase[:head] += 0.0
    return np.exp(out, out=out)
