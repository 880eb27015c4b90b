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

Beside its output the synthesis holds about five complex buffers of the
transform length L at its peak: the kernel's transform, two transform
rows, the output chirp, and the delays with their offsets (half a
buffer each). The two first-order sums go through the transforms as one
batch of two rows, then the zeroth-order sum through the first of them,
and every phase, product and sum is formed in place. With the tpa3
preset's 1501 bins the ``tracemalloc`` peak is 5.6 MB at 2^16 delays
(L = 67,200) and 84 MB at 2^20.

Every transform here is ``numpy.fft``, so the module loads no scipy;
``numpy.fft`` and ``scipy.fft`` give the same bits on these complex
transforms and on the real one behind :func:`envelope`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

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


_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for float64


def _split(x):
    """x = hi + lo exactly, each half with at most 26 significant bits."""
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


def _frac(x):
    """x minus its nearest integer, exact for float64 input."""
    return x - np.rint(x)


def _two_product(a, b):
    """(p, e) with p = fl(a*b) and p + e = a*b exactly (Dekker)."""
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _cycles(a, b):
    """a*b mod 1 in [-0.5, 0.5]; the four split products are exact and
    each is reduced before the only rounding sum."""
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    return _frac(
        _frac(a_hi * b_hi) + _frac(a_hi * b_lo) + _frac(a_lo * b_hi) + _frac(a_lo * b_lo)
    )


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


def _off_grid(grid, v: np.ndarray) -> np.ndarray:
    """v[i] - (start + i*step) for the values ``v`` of a uniform grid, exact
    up to one rounding."""
    d = v - grid.start
    z = d - v
    d_err = (v - (d - z)) - (grid.start + z)  # v - start = d + d_err exactly
    ideal, ideal_err = _two_product(np.arange(grid.count, dtype=float), grid.step)
    return (d - ideal) + d_err - ideal_err


def _phasors(cycles: np.ndarray, sign: int, out: np.ndarray | None = None) -> np.ndarray:
    """exp(sign 2 pi i cycles), built in ``out`` (a new array if None).

    The bits are those of ``np.exp(complex(0.0, sign * 2 * np.pi) * cycles)``
    without its complex temporaries: that product's imaginary part is
    +0 + sign 2 pi cycles, so a -0 turns +0, and its real part is a zero,
    whose sign ``exp`` ignores.
    """
    if out is None:
        out = np.empty(cycles.shape, dtype=complex)
    out.real = 0.0
    phase = out.imag
    np.multiply(cycles, sign * 2 * np.pi, out=phase)
    phase += 0.0
    return np.exp(out, out=out)


def _convolved(rows: np.ndarray, kernel_ft: np.ndarray, post: np.ndarray) -> np.ndarray:
    """The first ``len(post)`` points of each row circularly convolved with
    the kernel whose transform is ``kernel_ft``, times ``post``; in place."""
    # out=: a fresh complex array per transform would add a buffer to the peak
    np.fft.fft(rows, axis=-1, out=rows)
    rows *= kernel_ft
    sums = np.fft.ifft(rows, axis=-1, out=rows)[..., : post.size]
    sums *= post
    return sums


def simulate_interferogram(spectrum: SumFrequencySpectrum, grid: TimeGrid) -> Interferogram:
    """Synthesize P(t) from a normalized sum-frequency spectrum by chirp-z."""
    if not spectrum.normalized:
        raise ValueError("spectrum must be normalized before simulation")
    fgrid = spectrum.grid
    n, m = fgrid.count, grid.count
    size = _next_fast_len(n + m - 1)
    t = grid.values
    # first: its temporaries, about nine delay-sized arrays, add to t alone
    t_off = _off_grid(grid, t)

    # chirp phase (q^2/2) dnu dt mod 1, shared by input, kernel and output
    rate, rate_err = _two_product(fgrid.step, grid.step)
    half_sq = np.arange(max(n, m), dtype=float)
    half_sq *= 0.5 * half_sq  # q^2/2 in q's buffer
    chirp = _cycles(half_sq, rate) + half_sq * rate_err
    del half_sq
    k = np.arange(n, dtype=float)
    twist, twist_err = _two_product(fgrid.step, grid.start)
    pre = _phasors(_frac(chirp[:n] + _cycles(k, twist) + k * twist_err), 1)
    # S0 sums over the ideal lines nu0 + k dnu, S1 weights each line by the
    # offset of its float64 value, S2 by k dnu, the factor of each delay's
    # offset in the phase
    weights = spectrum.weights * fgrid.step
    lines = pre * np.stack([np.ones(n), _off_grid(fgrid, fgrid.values), k * fgrid.step]) * weights
    post = _phasors(_frac(chirp[:m] + _cycles(fgrid.start, t)), 1)
    kernel = np.zeros(size, dtype=complex)
    _phasors(chirp[:m], -1, kernel[:m])
    _phasors(chirp[n - 1 : 0 : -1], -1, kernel[size - n + 1 :])
    del chirp
    np.fft.fft(kernel, out=kernel)

    # S1 and S2 as one batch: t S1 + t_off S2, the offsets' phases to first
    # order, accumulates in t's buffer
    rows = np.zeros((2, size), dtype=complex)
    rows[:, :n] = lines[1:]
    s1, s2 = _convolved(rows, kernel, post)
    t *= s1.imag
    t_off *= s2.imag
    t += t_off
    del t_off
    # then S0 in the first row of the same buffer
    rows[0, :n] = lines[0]
    rows[0, n:] = 0.0
    s0 = _convolved(rows[0], kernel, post)
    # Re(S0 + 2 pi i (t S1 + t_off S2)), then P = (1 + that) / 2, in place
    total = t
    total *= 2 * np.pi
    np.subtract(s0.real, total, out=total)
    del rows, s1, s2, s0, kernel, post
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
