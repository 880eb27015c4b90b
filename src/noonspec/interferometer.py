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
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.fft import fft, ifft, next_fast_len
from scipy.signal import hilbert

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


def _off_grid(grid) -> np.ndarray:
    """values[i] - (start + i*step) of a uniform grid, exact up to one rounding."""
    v = grid.values
    d = v - grid.start
    z = d - v
    d_err = (v - (d - z)) - (grid.start + z)  # v - start = d + d_err exactly
    ideal, ideal_err = _two_product(np.arange(grid.count, dtype=float), grid.step)
    return (d - ideal) + d_err - ideal_err


def simulate_interferogram(spectrum: SumFrequencySpectrum, grid: TimeGrid) -> Interferogram:
    """Synthesize P(t) from a normalized sum-frequency spectrum by chirp-z."""
    if not spectrum.normalized:
        raise ValueError("spectrum must be normalized before simulation")
    fgrid = spectrum.grid
    n, m = fgrid.count, grid.count
    weights = spectrum.weights * fgrid.step
    t = grid.values
    t_off = _off_grid(grid)

    # chirp phase (q^2/2) dnu dt mod 1, shared by input, kernel and output
    rate, rate_err = _two_product(fgrid.step, grid.step)
    q = np.arange(max(n, m), dtype=float)
    half_sq = 0.5 * q * q
    chirp = _cycles(half_sq, rate) + half_sq * rate_err
    k = q[:n]
    twist, twist_err = _two_product(fgrid.step, grid.start)
    pre = np.exp(2j * np.pi * _frac(chirp[:n] + _cycles(k, twist) + k * twist_err))
    post = np.exp(2j * np.pi * _frac(chirp[:m] + _cycles(fgrid.start, t)))

    size = next_fast_len(n + m - 1)
    kernel = np.zeros(size, dtype=complex)
    kernel[:m] = np.exp(-2j * np.pi * chirp[:m])
    kernel[size - n + 1 :] = np.exp(-2j * np.pi * chirp[n - 1 : 0 : -1])
    # S0 sums over the ideal lines nu0 + k dnu, S1 weights each line by the
    # offset of its float64 value, S2 by k dnu, the factor of each delay's
    # offset in the phase
    rows = np.zeros((3, size), dtype=complex)
    rows[:, :n] = pre * np.stack([np.ones(n), _off_grid(fgrid), k * fgrid.step]) * weights
    rows = fft(rows, axis=1, overwrite_x=True)
    rows *= fft(kernel, overwrite_x=True)
    sums = ifft(rows, axis=1, overwrite_x=True)[:, :m]
    sums *= post
    # Re(S0 + 2 pi i (t S1 + t_off S2)): the offsets' phases to first order
    total = sums[0].real - 2 * np.pi * (t * sums[1].imag + t_off * sums[2].imag)
    values = 0.5 * (1.0 + total)
    # guard the [0, 1] invariant against accumulated rounding
    np.clip(values, 0.0, 1.0, out=values)
    return Interferogram(grid, values)


def correlation_trace(interferogram: Interferogram) -> CorrelationTrace:
    """G(t) = 2P(t) - 1, the cosine transform of the source spectrum; G(0) = +1
    for a normalized spectrum."""
    return CorrelationTrace(interferogram.grid, 2.0 * interferogram.values - 1.0)


def envelope(trace: CorrelationTrace) -> np.ndarray:
    """Magnitude of the analytic (positive-frequency) reconstruction of G."""
    return np.abs(hilbert(np.asarray(trace.values)))


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
    ipk = int(np.argmax(env))
    if env[0] >= half or env[-1] >= half:
        raise WindowTooShortError("envelope is not contained in the delay window")

    def _cross(start: int, direction: int) -> float:
        i = start
        while env[i] >= half:
            i += direction
        # linear interpolation between the bracketing samples
        f = (env[i - direction] - half) / (env[i - direction] - env[i])
        return (i - direction) + direction * f

    left = _cross(ipk, -1)
    right = _cross(ipk, +1)
    return float((right - left) * trace.grid.step)


def dominant_oscillation_frequency(
    trace: CorrelationTrace, max_expected_thz: float | None = None
) -> float:
    """Frequency (THz) of the strongest line in the one-sided power spectrum.

    The DC bin is excluded. Ties resolve to the lower frequency (first
    maximum). If ``max_expected_thz`` is given, the delay step is checked
    against it and :class:`AliasingError` raised when Nyquist is violated.
    """
    if max_expected_thz is not None and trace.grid.step >= 1.0 / (2.0 * max_expected_thz):
        raise AliasingError(
            f"time step {trace.grid.step} ps aliases content at {max_expected_thz} THz"
        )
    g = np.asarray(trace.values)
    if not np.any(g != 0.0):
        raise NoSignalError("trace is identically zero")
    power = np.abs(np.fft.rfft(g)) ** 2
    freqs = np.fft.rfftfreq(trace.grid.count, d=trace.grid.step)
    k = 1 + int(np.argmax(power[1:]))
    return float(freqs[k])
