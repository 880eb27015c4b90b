"""N00N-state interference patterns and second-order correlation traces.

The coincidence probability versus interferometer delay for a pair source
with normalized sum-frequency density F is

    P(t) = (1 + sum_k F(nu_k) cos(2 pi nu_k t) * step) / 2

so the oscillation period tracks the sum frequency and the envelope is
the Fourier pair of the spectral lineshape. The affine rescale
G = 2P - 1 is then the discrete cosine transform of F, which is what the
recovery stage inverts. P and G are both one finite value per point of a
delay grid and share one check; they differ only in the lower bound of
their range, 0 for P and -1 for G.

The forward synthesis is a Bluestein chirp-z transform (Rabiner, Schafer
& Rader 1969; Bluestein 1970): both axes are uniform, so with
nu_k = nu0 + k dnu and t_j = t0 + j dt the phase splits as

    nu_k t_j = nu0 t_j + k dnu t0 + jk dnu dt,  jk = (j^2 + k^2 - (j-k)^2)/2

and one FFT convolution of length >= n + m - 1 yields every delay in
O((n + m) log(n + m)). Each phase is reduced mod 1 through error-free
(Veltkamp/Dekker) split products before it reaches ``exp``, and the
rounding of the float64 grid values off the ideal lines, computed
exactly, enters to first order (the neglected second-order term is
about 1e-23 on the default grid), so the result is the transform of the
very frequencies and delays written to CSV, accurate to a few ulp.

Beside its output (half a complex buffer of the transform length L) the
synthesis holds three such buffers: the kernel's transform, one
transform row and the output chirp. The two first-order sums S1 and S2
and then the zeroth-order sum S0 go through the row in turn. t S1 is
written into the output, and t_off S2 is added one block of delays at a
time, each block's offsets recomputed from the grid, so no delay or
offset array is kept. The offsets are built on blocks of
``_numerics._BLOCK`` points, and the chirps, which come before the row
and the output exist, on blocks ``_CHIRP_BLOCKS`` times longer; each
block's helpers make a few arrays of its length, freed with the block.
With the tpa3 preset's 1501 bins the ``tracemalloc`` peak is 3.9 MB
(3.60 buffers) at 2^16 delays (L = 67,200) and 59 MB (3.50 buffers) at
2^20.

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
from .grids import TimeGrid, _column
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


# the chirp stage runs before the transform row and the output exist, so
# its blocks are _CHIRP_BLOCKS times longer than the other stages', for a
# quarter of the numpy calls; from 2^16 delays up its arrays stay below
# the later stages' peak
_CHIRP_BLOCKS = 4


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


def _off_grid(grid, lo: int, hi: int) -> np.ndarray:
    """The float64 points ``start + step*i`` of a uniform grid (the bits of
    ``grid.values[i]``) minus their exact values start + i step, for i in
    [lo, hi), up to one rounding."""
    off, ideal_err = _two_product(np.arange(lo, hi, dtype=float), grid.step)
    v = off + grid.start
    d = v - grid.start
    z = d - v
    # v - start = d + d_err exactly, d_err = (v - (d - z)) - (start + z)
    np.subtract(d, off, out=off)
    d -= z
    v -= d
    z += grid.start
    v -= z
    off += v
    off -= ideal_err
    return off


def _chirp(lo: int, hi: int, rate, rate_err) -> np.ndarray:
    """The chirp phase (q^2/2) dnu dt mod 1 for q in [lo, hi), with
    rate + rate_err = dnu dt."""
    q = np.arange(lo, hi, dtype=float)
    q *= q * 0.5  # q^2/2
    return _cycles(q, rate) + q * rate_err


def _chirps(fgrid, grid, kernel: np.ndarray) -> tuple:
    """The input chirp ``pre`` (n points) and the output chirp ``post`` (m
    points), with the kernel's conjugate chirp written into ``kernel`` at
    q < m and at len(kernel) - q for 0 < q < n. Every phase starts from the
    chirp of its q; pre adds k dnu t0 and post nu0 t_j, each mod 1."""
    n, m, size = fgrid.count, grid.count, kernel.size
    rate, rate_err = _two_product(fgrid.step, grid.step)
    twist, twist_err = _two_product(fgrid.step, grid.start)
    pre = np.empty(n, dtype=complex)
    post = np.empty(m, dtype=complex)
    for lo, hi in _blocks(m, _CHIRP_BLOCKS):
        phase = _chirp(lo, hi, rate, rate_err)
        _phasors(phase, -1, kernel[lo:hi])
        t = np.arange(lo, hi) * grid.step + grid.start  # grid.values[lo:hi]
        phase += _cycles(fgrid.start, t)
        _phasors(_frac(phase), 1, post[lo:hi])
    for lo, hi in _blocks(n, _CHIRP_BLOCKS):
        phase = _chirp(lo, hi, rate, rate_err)
        wrap = max(lo, 1)  # kernel[size - q] for q in [wrap, hi)
        _phasors(phase[wrap - lo :], -1, kernel[size - hi + 1 : size - wrap + 1][::-1])
        k = np.arange(lo, hi, dtype=float)
        phase += _cycles(k, twist)
        phase += k * twist_err
        _phasors(_frac(phase), 1, pre[lo:hi])
    return pre, post


def _convolved(row, pre, factor, weights, kernel_ft, post) -> np.ndarray:
    """The first ``len(post)`` points of the lines ``pre * factor * weights``,
    zero padded to the row, circularly convolved with the kernel whose
    transform is ``kernel_ft``, times ``post``; in ``row``'s buffer."""
    n = pre.size
    np.multiply(pre, factor, out=row[:n])
    row[:n] *= weights
    row[n:] = 0.0
    # out=: a fresh complex array per transform would add a buffer to the peak
    np.fft.fft(row, out=row)
    row *= kernel_ft
    sums = np.fft.ifft(row, out=row)[: post.size]
    sums *= post
    return sums


def simulate_interferogram(spectrum: SumFrequencySpectrum, grid: TimeGrid) -> Interferogram:
    """Synthesize P(t) from a normalized sum-frequency spectrum by chirp-z."""
    if not spectrum.normalized:
        raise ValueError("spectrum must be normalized before simulation")
    fgrid = spectrum.grid
    n, m = fgrid.count, grid.count
    kernel = np.zeros(_next_fast_len(n + m - 1), dtype=complex)
    pre, post = _chirps(fgrid, grid, kernel)
    np.fft.fft(kernel, out=kernel)

    # S1 weights each line by the offset of its float64 value from the
    # ideal line nu0 + k dnu, S2 by k dnu, the factor of each delay's
    # offset in the phase, and S0 sums over the ideal lines; the three
    # go through one transform row in turn
    weights = spectrum.weights * fgrid.step
    offsets = np.empty(n)
    for lo, hi in _blocks(n):
        offsets[lo:hi] = _off_grid(fgrid, lo, hi)
    row = np.empty_like(kernel)
    s1 = _convolved(row, pre, offsets, weights, kernel, post)
    # t S1 + t_off S2, the delays' offsets in the phase to first order,
    # accumulates in the output; t_off comes block by block
    total = np.arange(m, dtype=float)
    total *= grid.step
    total += grid.start  # grid.values
    total *= s1.imag
    np.multiply(np.arange(n, dtype=float), fgrid.step, out=offsets)
    s2 = _convolved(row, pre, offsets, weights, kernel, post).imag
    for lo, hi in _blocks(m):
        total[lo:hi] += _off_grid(grid, lo, hi) * s2[lo:hi]
    offsets[:] = 1.0
    s0 = _convolved(row, pre, offsets, weights, kernel, post)
    # Re(S0 + 2 pi i (t S1 + t_off S2)), then P = (1 + that) / 2, in place
    total *= 2 * np.pi
    np.subtract(s0.real, total, out=total)
    del row, s1, s2, s0, kernel, post
    total += 1.0
    total *= 0.5
    # guard the [0, 1] invariant against accumulated rounding
    np.clip(total, 0.0, 1.0, out=total)
    return Interferogram(grid, total)


def correlation_trace(interferogram: Interferogram) -> CorrelationTrace:
    """G(t) = 2P(t) - 1, the cosine transform of the source spectrum; G(0) = +1
    for a normalized spectrum."""
    return CorrelationTrace(interferogram.grid, 2.0 * interferogram.values - 1.0)


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
