"""N00N-state interference patterns and second-order correlation traces.

The coincidence probability versus interferometer delay for a pair source
with normalized sum-frequency density F is

    P(t) = (1 + sum_k F(nu_k) cos(2 pi nu_k t) * step) / 2

so the oscillation period tracks the sum frequency and the envelope is
the Fourier pair of the spectral lineshape. The affine rescale
G = 2P - 1 is then the discrete cosine transform of F, which is what the
recovery stage inverts. P and G are both one finite value per point of a
delay grid and share one check; they differ only in the lower bound of
their range, 0 for P and -1 for G. G has one maker, ``_correlation``:
:func:`correlation_trace`, the noise estimate and the ``trace.csv``
writer, which makes G from P a block of rows at a time, all call it.

The forward synthesis is a Bluestein chirp-z transform (Rabiner, Schafer
& Rader 1969; Bluestein 1970): both axes are uniform, so with
nu_k = nu0 + k dnu and t_j = t0 + j dt the phase splits as

    nu_k t_j = nu0 t_j + k dnu t0 + jk dnu dt,  jk = (j^2 + k^2 - (j-k)^2)/2

so the sum over k is a convolution with a chirp kernel of j - k alone.
It runs sectioned (overlap-save; Oppenheim & Schafer, *Discrete-Time
Signal Processing*): the output block of delays [lo, lo + B) needs the
kernel on (lo - n, lo + B) only, and one FFT convolution of length
Lb >= B + n - 1 yields it. Lb is the smallest fast FFT length >= 4n, so
B is about 3n and each delay costs O(log n). Each phase is reduced mod 1
through error-free (Veltkamp/Dekker) split products before it reaches
``exp``, and the rounding of the float64 grid values off the ideal
lines, computed exactly, enters to first order (the neglected
second-order term is about 1e-23 on the default grid), so the result is
the transform of the very frequencies and delays written to CSV,
accurate to a few ulp.

The first-order sums S1 and S2 and the zeroth-order sum S0 share each
block's kernel. With several blocks, the three weighted lines are
transformed once and held, and a block takes four transforms: its
kernel's and one inverse per sum. A grid of at most two blocks' delays
(the noise-gauss preset's 4096 against 1001 bins) is one block of all m
delays, Lb >= n + m - 1, whose three sums go through one transform row
in turn; three held rows would raise its peak. t S1 is written into the
output, and t_off S2 is added ``_numerics._BLOCK`` delays at a time, each
block's offsets recomputed from the grid, so no delay or offset array is
kept; each block's chirps are built in one pass. Beside the output, a
block holds under seven complex buffers of Lb points (6,048 for the
tpa3 preset's 1501 bins) whatever the number of delays. With that
preset the ``tracemalloc`` peak is 1.18 MB at 2^16 delays, 2.76 MB at
2^18 and 9.44 MB at 2^20; from 2^18 up it is the output, 8 bytes a
delay, which :class:`Interferogram` keeps without a copy, and the range
check's mask of one byte a delay.

Every transform here is ``numpy.fft``, so the module loads no scipy;
``numpy.fft`` and ``scipy.fft`` give the same bits on these complex
transforms and on the real one behind :func:`envelope`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ._numerics import _blocks, _cycles, _frac, _phasors, _two_product
from .errors import AliasingError, NoSignalError, WindowTooShortError
from .grids import TimeGrid, _column, _off_grid
from .spectral import SumFrequencySpectrum

DEFAULT_TIME_STEP = 5e-4  # ps; Nyquist-safe for the 740 THz band
DEFAULT_TIME_COUNT = 2**16

RANGE_TOL = 1e-9


def default_time_grid(
    step: float = DEFAULT_TIME_STEP, count: int = DEFAULT_TIME_COUNT
) -> TimeGrid:
    """Delay grid centered on zero; the default window is 32.768 ps."""
    return TimeGrid(start=-(count // 2) * step, step=step, count=count)


def check_nyquist(step: float, max_thz: float) -> None:
    """Raise :class:`AliasingError` unless a delay ``step`` (ps) samples
    content up to ``max_thz`` (THz): ``step < 1/(2 max_thz)``. A
    non-positive ``max_thz`` bounds nothing and is a ValueError."""
    if not max_thz > 0:
        raise ValueError(f"Nyquist bound needs a positive frequency, got {max_thz} THz")
    if step >= 1.0 / (2.0 * max_thz):
        raise AliasingError(
            f"time step {step} ps aliases content at {max_thz} THz "
            f"(needs step < {1.0 / (2.0 * max_thz):.3e} ps)"
        )


@dataclass(frozen=True)
class _DelaySeries:
    """Finite values on a uniform delay grid, one per delay, in [low, 1]."""

    grid: TimeGrid
    values: np.ndarray
    low: ClassVar[float] = 0.0

    def __post_init__(self):
        shape = (self.grid.count,)
        _column(self, "values", shape, low=self.low - RANGE_TOL, high=1 + RANGE_TOL)


@dataclass(frozen=True)
class Interferogram(_DelaySeries):
    """Coincidence probability P(t) on a uniform delay grid, 0 <= P <= 1."""


@dataclass(frozen=True)
class CorrelationTrace(_DelaySeries):
    """Second-order correlation G(t) on a uniform delay grid, |G| <= 1."""

    low: ClassVar[float] = -1.0


# an output block's transforms are _next_fast_len(_SEGMENT n) long for n
# bins, and a grid of at most _ONE_BLOCK such blocks of delays is one block;
# longer segments were a few percent faster on tpa3 but larger, and one
# block was faster at 4096 delays and 1001 bins but larger from 6n delays
_SEGMENT = 4
_ONE_BLOCK = 2


def _next_fast_len(n: int) -> int:
    """The smallest 11-smooth integer >= n (n >= 1), a fast FFT length:
    the first m >= n with nothing left after dividing out 2, 3, 5, 7 and 11."""
    m = n
    while True:
        rest = m
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def _span(n: int, m: int) -> int:
    """The delays per output block for n bins and m delays: those that one
    transform of _next_fast_len(_SEGMENT n) points holds beside the n - 1
    points of overlap, or all m when that leaves at most _ONE_BLOCK blocks."""
    span = _next_fast_len(_SEGMENT * n) - n + 1
    return m if m <= _ONE_BLOCK * span else span


def _chirp(lo: int, hi: int, rate, rate_err) -> np.ndarray:
    """The chirp phase (q^2/2) dnu dt mod 1 for q in [lo, hi), with
    rate + rate_err = dnu dt; q and -q give the same bits."""
    q = np.arange(lo, hi, dtype=float)
    q *= q * 0.5  # q^2/2
    return _cycles(q, rate) + q * rate_err


def _factors(fgrid):
    """The factors of S1, S2 and S0 in turn, each made at its turn.

    S1 weights each line by the offset of its float64 value from the ideal
    line nu0 + k dnu, S2 by k dnu, the factor of each delay's offset in the
    phase, and S0 sums over the ideal lines.
    """
    yield _off_grid(fgrid, 0, fgrid.count)
    yield np.arange(fgrid.count) * fgrid.step
    yield 1.0


def _pre(fgrid, grid) -> np.ndarray:
    """The input chirp: the chirp of k plus k dnu t0, mod 1, for the n bins."""
    rate, rate_err = _two_product(fgrid.step, grid.step)
    twist, twist_err = _two_product(fgrid.step, grid.start)
    phase = _chirp(0, fgrid.count, rate, rate_err)
    k = np.arange(fgrid.count, dtype=float)
    phase += _cycles(k, twist)
    phase += k * twist_err
    return _phasors(_frac(phase), 1)


def _transforms(spectrum, grid, rows):
    """The transforms of the lines of S1, S2 and S0 in turn, each zero padded
    into the next of ``rows`` and transformed in its buffer; a line is its
    weight times the input chirp times the sum's factor."""
    fgrid = spectrum.grid
    n = fgrid.count
    pre = _pre(fgrid, grid)
    weights = spectrum.weights * fgrid.step
    factors = _factors(fgrid)
    for row in rows:
        # no name holds the factor, which goes with its line
        np.multiply(pre, next(factors), out=row[:n])
        row[:n] *= weights
        row[n:] = 0.0
        # out=: a fresh complex array per transform would add a buffer to the peak
        yield np.fft.fft(row, out=row)


def _segment(fgrid, grid, lo: int, hi: int, size: int, delays) -> tuple:
    """The kernel's transform and the output chirp ``post`` of the output
    block [lo, hi), with the block's points ``grid.points(lo, hi)``
    written into ``delays``.

    The kernel is the conjugate chirp of q = j - k over the block's
    q in (lo - n, hi), laid out for a circular convolution of length
    ``size``: q = lo + r at r, and q = lo - s at size - s for 0 < s < n,
    zeros between. post starts from the chirp of j and adds nu0 t_j mod 1.
    """
    n = fgrid.count
    rate, rate_err = _two_product(fgrid.step, grid.step)
    kernel = np.zeros(size, dtype=complex)
    phase = _chirp(lo, hi, rate, rate_err)
    _phasors(phase, -1, kernel[: hi - lo])
    delays[:] = grid.points(lo, hi)
    phase += _cycles(fgrid.start, delays)
    post = _phasors(_frac(phase), 1)
    # the n - 1 wrap points, q = lo - s at size - s
    _phasors(_chirp(lo - n + 1, lo, rate, rate_err), -1, kernel[size - n + 1 :])
    return np.fft.fft(kernel, out=kernel), post


def _sums(transforms, kernel, post, row):
    """The block's sums for each of the lines' ``transforms`` in turn: the
    transform times the kernel's, transformed back, cut to the block and
    times ``post``, in ``row``'s buffer."""
    for line in transforms:
        np.multiply(line, kernel, out=row)
        sums = np.fft.ifft(row, out=row)[: post.size]
        sums *= post
        yield sums


def _block(spectrum, grid, lo: int, delays, size: int, held) -> None:
    """Re(S0 + 2 pi i (t S1 + t_off S2)) for the output block of ``delays``,
    the view of the output from delay ``lo`` on, with transforms of length
    ``size``. ``held`` holds the lines' three transforms, or is None for a
    single block, which makes each in its row in turn."""
    fgrid = spectrum.grid
    hi = lo + delays.size
    kernel, post = _segment(fgrid, grid, lo, hi, size, delays)
    row = np.empty(size, dtype=complex)
    transforms = _transforms(spectrum, grid, (row,) * 3) if held is None else held
    sums = _sums(transforms, kernel, post, row)
    # t S1 + t_off S2, the delays' offsets in the phase to first order;
    # t_off comes _BLOCK delays at a time
    delays *= next(sums).imag
    s2 = next(sums).imag
    for a, b in _blocks(hi - lo):
        delays[a:b] += _off_grid(grid, lo + a, lo + b) * s2[a:b]
    delays *= 2 * np.pi
    np.subtract(next(sums).real, delays, out=delays)


def simulate_interferogram(spectrum: SumFrequencySpectrum, grid: TimeGrid) -> Interferogram:
    """Synthesize P(t) from a normalized sum-frequency spectrum by chirp-z."""
    if not spectrum.normalized:
        raise ValueError("spectrum must be normalized before simulation")
    n, m = spectrum.grid.count, grid.count
    span = _span(n, m)
    size = _next_fast_len(span + n - 1)
    held = None
    if span < m:  # several blocks: the lines are transformed once
        # a list, not a loop: a loop variable would keep the last row, and
        # with it all three, alive past the del below
        held = list(_transforms(spectrum, grid, np.empty((3, size), dtype=complex)))
    total = np.empty(m)
    for lo in range(0, m, span):
        _block(spectrum, grid, lo, total[lo : lo + span], size, held)
    del held  # before Interferogram's range checks
    # P = (1 + Re(S0 + 2 pi i (t S1 + t_off S2))) / 2, in place
    total += 1.0
    total *= 0.5
    # guard the [0, 1] invariant against accumulated rounding
    np.clip(total, 0.0, 1.0, out=total)
    total.setflags(write=False)  # so Interferogram keeps it without a copy
    return Interferogram(grid, total)


def _correlation(p, out=None) -> np.ndarray:
    """G = 2P - 1 elementwise, in ``out`` (a new array if None, or ``p``
    itself): the one rule for G, whose bits are those of ``2.0 * p - 1.0``."""
    g = np.multiply(p, 2.0, out=out)
    g -= 1.0
    return g


def correlation_trace(interferogram: Interferogram) -> CorrelationTrace:
    """G(t) = 2P(t) - 1, the cosine transform of the source spectrum; G(0) = +1
    for a normalized spectrum."""
    g = _correlation(interferogram.values)
    g.setflags(write=False)  # so CorrelationTrace keeps it without a copy
    return CorrelationTrace(interferogram.grid, g)


def envelope(trace: CorrelationTrace) -> np.ndarray:
    """Magnitude of the analytic (positive-frequency) reconstruction of G.

    The analytic signal is built in the frequency domain (Marple 1999): the
    DC and, for even n, Nyquist bins kept, the other positive bins doubled,
    the negative ones zeroed. The half spectrum comes from the real
    transform, as in ``scipy.signal.hilbert``, so the bits are the same.
    """
    g = np.asarray(trace.values)
    n = g.size
    half = np.fft.rfft(g)
    spec = np.zeros(n, dtype=complex)
    spec[: half.size] = half
    spec[1 : (n + 1) // 2] *= 2
    return np.abs(np.fft.ifft(spec))


def envelope_coherence_time(trace: CorrelationTrace) -> float:
    """FWHM of the interference envelope, in ps.

    Raises :class:`WindowTooShortError` when the envelope has not decayed
    below half maximum inside the scanned window (including the
    monochromatic limit, where the envelope is flat).
    """
    env = envelope(trace)
    peak = env.max()
    if peak <= 0:
        raise NoSignalError("trace is identically zero")
    half = 0.5 * peak
    if env[0] >= half or env[-1] >= half:
        raise WindowTooShortError("envelope is not contained in the delay window")
    # the nearest samples below half maximum on either side of the peak
    below = np.flatnonzero(env < half)
    j = np.searchsorted(below, np.argmax(env))
    lo, hi = below[j - 1], below[j]
    # linear interpolation between each of them and its neighbour toward the peak
    left = (lo + 1) - (env[lo + 1] - half) / (env[lo + 1] - env[lo])
    right = (hi - 1) + (env[hi - 1] - half) / (env[hi - 1] - env[hi])
    return float((right - left) * trace.grid.step)


def dominant_oscillation_frequency(
    trace: CorrelationTrace, max_expected_thz: float | None = None
) -> float:
    """Frequency (THz) of the strongest line in the one-sided power spectrum.

    The DC bin is excluded. Ties resolve to the lower frequency (first
    maximum). If ``max_expected_thz`` is given, the delay step is checked
    against it by :func:`check_nyquist`.
    """
    if max_expected_thz is not None:
        check_nyquist(trace.grid.step, max_expected_thz)
    g = np.asarray(trace.values)
    if not np.any(g != 0.0):
        raise NoSignalError("trace is identically zero")
    power = np.abs(np.fft.rfft(g)) ** 2
    freqs = np.fft.rfftfreq(trace.grid.count, d=trace.grid.step)
    k = 1 + int(np.argmax(power[1:]))
    return float(freqs[k])
