"""Exact-phase and block helpers shared by the synthesis, the recovery
and the CSV writer.

The chirp-z synthesis of the interferogram and the inverse transform
that recovers the spectrum take the same steps: a product reduced mod 1
through error-free (Veltkamp/Dekker) split products, a phasor built in
place from its phase, and a delay or frequency axis walked in blocks of
``_BLOCK`` points with a few block-sized scratch rows. The CSV writer
takes the exact product alone. The module imports numpy alone, so any
stage can use it without loading another.
"""
from __future__ import annotations

import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for float64

# points per block of the delay- and frequency-axis stages; a block holds a
# few arrays of this length, and every result has the same bits for any value
_BLOCK = 2048


def _blocks(count: int, rows: int, blocks: int = 1, dtype=float):
    """(lo, hi, work) for the blocks of at most ``blocks * _BLOCK`` points
    that cover range(count), in order. ``work`` is the block's views of one
    scratch array of ``rows`` rows, made once for the whole walk; a caller
    that starts a second walk drops its views of the first, or both
    scratch arrays are held at once."""
    length = blocks * _BLOCK
    work = np.empty((rows, min(length, count)), dtype=dtype)
    for lo in range(0, count, length):
        hi = min(lo + length, count)
        yield lo, hi, work[:, : hi - lo]


def _split(x, hi=None, lo=None):
    """x = hi + lo exactly, each half with at most 26 significant bits; an
    array's halves go to the buffers ``hi`` and ``lo`` when given."""
    c = np.multiply(x, _SPLIT, out=hi)
    hi = np.subtract(c, np.subtract(c, x, out=lo), out=hi)
    return hi, np.subtract(x, hi, out=lo)


def _frac(x, whole):
    """x minus its nearest integer, exact for float64 input; in place, with
    the integer in the scratch buffer ``whole``."""
    x -= np.rint(x, out=whole)
    return x


def _two_product(a, b, out=(None, None), halves=(None, None)):
    """(p, e) with p = fl(a*b) and p + e = a*b exactly (Dekker), for scalars
    or arrays. For an array ``a`` and a scalar ``b``, p and e go to the
    buffers ``out`` and a's split halves to ``halves``, and e may take a's
    own buffer; when no buffers are given, ``b`` may be an array of a's
    shape."""
    p = np.multiply(a, b, out=out[0])
    a_hi, a_lo = _split(a, *halves)
    b_hi, b_lo = _split(b)
    e = np.multiply(a_hi, b_hi, out=out[1])
    e -= p
    e += np.multiply(a_hi, b_lo, out=halves[0])
    e += np.multiply(a_lo, b_hi, out=halves[0])
    e += np.multiply(a_lo, b_lo, out=halves[1])
    return p, e


def _cycles(a, b, out, work):
    """a*b mod 1 in [-0.5, 0.5] into ``out``, for one array and one scalar in
    either order, with four scratch arrays of out's shape in ``work``. The
    four split products are exact and each is reduced before the only
    rounding sum."""
    hi, lo, product, whole = work
    a_hi, a_lo = _split(a, hi, lo) if np.ndim(a) else _split(a)
    b_hi, b_lo = _split(b, hi, lo) if np.ndim(b) else _split(b)
    _frac(np.multiply(a_hi, b_hi, out=out), whole)
    for x, y in ((a_hi, b_lo), (a_lo, b_hi), (a_lo, b_lo)):
        out += _frac(np.multiply(x, y, out=product), whole)
    return _frac(out, whole)


def _phasors(cycles, sign: int, out=None, scale=1.0, head=None) -> np.ndarray:
    """exp(sign 2 pi i cycles scale), built in ``out`` (a new array if None),
    whose imaginary part ``cycles`` may be.

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
