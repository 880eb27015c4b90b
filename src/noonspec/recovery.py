"""Inversion of correlation traces back to sum-frequency spectra.

The trace is the cosine transform of the source spectrum, so a discrete
Fourier transform with kernel exp(+i 2 pi nu t) recovers a two-sided
spectrum with mirrored peaks at +-nu; folding the positive half restores
the physical one-sided spectrum. Under the ordinary-frequency convention
the forward/inverse kernels carry no extra 1/2pi factor, which is what
makes the round trip self-consistent.

A real trace's transform is Hermitian, so its n // 2 + 1 bins at f >= 0
hold all of it: ``_transformed`` makes them with the real-input FFT
(``np.fft.rfft``; Sorensen, Jones, Heideman & Burrus, IEEE Trans. ASSP
35(6), 1987), and the fold takes them alone. :func:`fourier_recover`
writes that half into its two-sided array and mirrors the rest, so its
spectrum is Hermitian by construction; ``recover`` and the noise study
never make the two-sided array.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _numerics
from ._numerics import _blocks, _cycles, _phasors
from .errors import AsymmetryError, GridMismatchError
from .grids import FrequencyGrid, TimeGrid, _column
from .interferometer import CorrelationTrace
from .spectral import SumFrequencySpectrum

HERMITIAN_TOL = 1e-6


@dataclass(frozen=True)
class RecoveredSpectrum:
    """Two-sided complex spectrum on a grid that holds zero frequency.

    The grid carries the transform geometry: its step is the resolution
    1/window of the delay scan, so no window or delay step is stored apart.
    :func:`fourier_recover` centers zero on the grid.
    """

    grid: FrequencyGrid
    amplitudes: np.ndarray

    def __post_init__(self):
        _column(self, "amplitudes", (self.grid.count,), dtype=complex)

    @property
    def zero_index(self) -> int:
        """The index of the DC bin: the grid point nearest zero, within 1e-9 steps of it."""
        idx = self.grid.index_of(0.0)
        if abs(self.grid.points(idx, idx + 1)[0]) > 1e-9 * self.grid.step:
            raise ValueError("recovered grid does not contain zero frequency")
        return idx


@dataclass(frozen=True)
class SpectralFeature:
    """One detected peak or dip after parabolic center refinement."""

    center: float
    height: float
    fwhm: float
    kind: str  # "peak" or "dip"


def fourier_recover(trace: CorrelationTrace, window: str = "rect") -> RecoveredSpectrum:
    """Discrete transform F(nu_k) = step_t * sum_n G(t_n) exp(+i 2 pi nu_k t_n).

    The output grid spans +-1/(2*step_t) at resolution 1/(count*step_t).
    ``window="hann"`` tapers the trace before the transform for
    leakage-sensitive comb work (default is rectangular, i.e. none).
    """
    n = trace.grid.count
    i0, odd = n // 2, n % 2
    amp = np.empty(n, dtype=complex)
    # the half goes where it needs no move: for odd n onto the bins f >= 0;
    # for even n, whose half also holds the Nyquist bin, to the front
    grid, _ = _transformed(trace.values, trace.grid, window, amp[odd * i0 : odd * i0 + i0 + 1])
    if not odd:
        nyquist = amp[i0]
        amp[i0 + 1 :] = amp[1:i0]
        amp[i0] = amp[0]
        amp[0] = nyquist.conjugate()
    np.conjugate(amp[:i0:-1], out=amp[1 - odd : i0])  # the mirror below DC
    amp.setflags(write=False)  # given up, so RecoveredSpectrum keeps it without a copy
    return RecoveredSpectrum(grid, amp)


def _transformed(g: np.ndarray, grid: TimeGrid, window: str = "rect", out=None) -> tuple:
    """The two-sided grid of :func:`fourier_recover` and its amplitudes at
    f >= 0 along g's last axis, g under ``window``: the n // 2 + 1 bins of
    ``np.fft.rfft``, written into ``out`` (a new array when None), with
    the bits of ``conj(rfft(g)) * dt * exp(2 pi i (f start mod 1))``.

    A real trace's transform is Hermitian, so these bins hold all of it.
    ``rfft`` carries the -i kernel; its conjugate is the +i one. The
    t-origin phase f start is reduced mod 1 exactly (``_cycles``, as the
    synthesis reduces its phases), so a phasor is off by an ulp however
    many cycles the phase spans. The scale and the t-origin phasors are
    applied half a block of frequencies at a time, each product with
    ``out=`` into an array of its own: numpy's in-place product takes
    another loop with other bits, and a strided block of rows is
    multiplied at half the speed, so it goes row by row.
    """
    if window == "hann":
        g = g * np.hanning(g.shape[-1])
    elif window != "rect":
        raise ValueError(f"unknown window {window!r} (expected 'rect' or 'hann')")
    n, dt = grid.count, grid.step
    # the kernel phase 2 pi nu t must stay finite up to the band edge 1/(2 dt)
    if not math.isfinite(2 * math.pi / dt):
        raise ValueError(f"delay step {dt!r} ps is too fine for a finite frequency band")
    # and the resolution 1/(n dt) must be positive: n dt may overflow to inf
    df = 1.0 / (n * dt)
    if not df > 0:
        raise ValueError(f"delay window {n} x {dt!r} ps is too long for a positive frequency step")
    half = np.fft.rfft(g, out=out)
    rows = list(np.ndindex(half.shape[:-1]))
    # half a block at a time: the phase's reduction mod 1 holds six float
    # arrays of its block at once, which at a whole block raised the peak
    block = _numerics._BLOCK // 2
    buf = np.empty(min(block, half.shape[-1]), dtype=complex)
    for lo, hi in _blocks(half.shape[-1], block):
        z = _phasors(_cycles(np.arange(lo, hi) * df, grid.start), 1)
        t = buf[: hi - lo]
        for row in rows:
            x = half[row][lo:hi]
            np.conjugate(x, out=x)
            np.multiply(x, dt, out=t)
            np.multiply(t, z, out=x)
    return FrequencyGrid(start=-(n // 2) * df, step=df, count=n), half


def _folded(half: np.ndarray, n: int) -> np.ndarray:
    """The weights of :func:`fold_one_sided` from the half of an n-point
    transform, along its last axis: |DC|, 2|A| on each bin with a mirror,
    and for even n the unpaired Nyquist bin once. ``np.hypot`` gives a row
    of a 2-D block one row's bits; ``np.abs`` does not."""
    weights = np.hypot(half.real, half.imag)
    weights[..., 1 : (n + 1) // 2] *= 2
    return weights


def _mirrored(half: np.ndarray, grid: FrequencyGrid):
    """The two-sided amplitudes on ``grid`` of an n-point transform's half,
    as a function of a row range: below DC each row is the conjugate of
    its mirror, so the spectrum is Hermitian by construction."""
    i0 = grid.count // 2

    def rows(lo: int, hi: int) -> np.ndarray:
        k = np.arange(lo - i0, hi - i0)
        block = half[np.abs(k)]
        return np.conjugate(block, out=block, where=k < 0)

    return rows


def fold_one_sided(recovered: RecoveredSpectrum) -> SumFrequencySpectrum:
    """Fold the two-sided spectrum onto nu >= 0, conserving total mass.

    Mirror-bin magnitudes add (so interior bins double), the DC bin is
    counted once, and a bin without a mirror keeps its own magnitude: for
    even-length transforms the unpaired -Nyquist bin lands on +Nyquist.
    The folded grid reaches the farther end of the two-sided one.
    Requires Hermitian symmetry within 1e-6 of the peak magnitude, which
    holds for transforms of real traces.
    """
    amp, i0 = recovered.amplitudes, recovered.zero_index
    # DC and up, and below DC nearest first: neg[j] mirrors pos[j + 1]
    neg, pos = amp[:i0][::-1], amp[i0:]
    k = min(neg.size, pos.size - 1)
    weights = np.zeros(max(i0 + 1, pos.size))
    # the Hermitian residual max |neg - conj(pos)|, its real part in the weights' room
    d = np.subtract(neg.real[:k], pos.real[1 : k + 1], out=weights[:k])
    s = np.add(neg.imag[:k], pos.imag[1 : k + 1])
    err = np.hypot(d, s, out=s).max(initial=abs(amp[i0].imag))
    del s
    np.hypot(pos.real, pos.imag, out=weights[: pos.size])
    abs_neg = np.hypot(neg.real, neg.imag)
    scale = max(weights.max(), abs_neg.max(initial=0.0))
    if err > HERMITIAN_TOL * scale:
        raise AsymmetryError(f"Hermitian symmetry broken by {err / scale:.3e} (relative)")
    weights[1 : neg.size + 1] += abs_neg
    return _one_sided(weights, recovered.grid.step)


def _one_sided(weights: np.ndarray, step: float) -> SumFrequencySpectrum:
    """The folded spectrum of ``weights``, from DC up in bins of ``step``,
    which keeps them without a copy: they are given up, made read-only."""
    weights.setflags(write=False)
    return SumFrequencySpectrum(FrequencyGrid(0.0, step, weights.size), weights)


def _peak_at(signal: np.ndarray, grid: FrequencyGrid, i: int) -> tuple:
    """Center on ``grid`` and height of the 3-point parabola through the
    maximum ``signal[i]``, the one rule for a refined peak: the center
    moves by at most half a bin; an edge or non-concave sample is kept."""
    delta, height = 0.0, signal[i]
    if 0 < i < signal.size - 1:
        y_left, y_right = signal[i - 1], signal[i + 1]
        denom = y_left + y_right - 2.0 * height
        if denom < 0:  # concave
            delta = float(np.clip(0.5 * (y_left - y_right) / denom, -0.5, 0.5))
            height = height - 0.25 * (y_left - y_right) * delta
    return grid.points(i, i + 1)[0] + delta * grid.step, height


def _local_maxima(x: np.ndarray) -> np.ndarray:
    """Midpoints of the runs of equal samples that rise from the left and
    fall to the right; a run touching either edge is never a maximum."""
    rise = x[1:] > x[:-1]
    # a pair that neither rises nor holds falls, as a pair with a NaN does
    fall = x[1:] >= x[:-1]
    np.logical_not(fall, out=fall)
    # a run of equal pairs first..last holds the samples first..last + 1;
    # the equal pairs alone locate the runs, without an index per sample
    equal = np.flatnonzero(x[1:] == x[:-1])
    first = equal[np.diff(equal, prepend=-2) > 1]
    last = equal[np.diff(equal, append=x.size) > 1]
    inner = (first > 0) & (last < x.size - 2)
    first, last = first[inner], last[inner]
    runs = (first + last + 1)[rise[first - 1] & fall[last + 1]] // 2
    # sample i is a maximum where pair i - 1 rises and pair i falls, or
    # where a run that rises into it and falls out of it has its midpoint
    top = np.logical_and(rise[:-1], fall[1:], out=rise[:-1])
    top[runs - 1] = True
    peaks = np.flatnonzero(top)
    peaks += 1
    return peaks


def _prominences(x: np.ndarray, peaks: np.ndarray) -> np.ndarray:
    """Height of each peak above the higher of its two side minima.

    A side minimum is the lowest sample between the peak and the nearest
    strictly higher sample on that side, or the edge when there is none.
    Only the peaks and the two edges need be visited: a strictly higher
    sample has a strictly higher peak (or the edge) behind it, with no
    lower sample between them. Each walk follows pointers to the next
    candidate on its left. The pointers jump synchronously: a candidate no
    higher than the walker hands over its own pointer and the lowest
    valley it has passed so far (pointer jumping for all nearest larger
    values; Berkman, Schieber & Vishkin, J. Algorithms 14(3), 1993). The
    right walks are left walks over the mirrored candidates.
    """
    cand = np.concatenate(([0], peaks, [x.size - 1]))
    # valley[i]: the minimum of x from candidate i to candidate i + 1, both included
    valley = np.minimum(np.minimum.reduceat(x, cand)[:-1], x[cand[1:]])
    k = cand.size
    h = np.concatenate((x[cand], x[cand[::-1]]))
    h[[0, k]] = np.nan  # every walk ends at an edge: a comparison with NaN is false
    low = np.concatenate(([np.inf], valley, [np.inf], valley[::-1]))
    ptr = np.arange(-1, 2 * k - 1)
    todo = np.r_[1 : k - 1, k + 1 : 2 * k - 1]
    while todo.size:
        at = ptr[todo]
        going = h[at] <= h[todo]
        todo, at = todo[going], at[going]
        low[todo] = np.minimum(low[todo], low[at])
        ptr[todo] = ptr[at]
    return x[peaks] - np.maximum(low[1 : k - 1], low[k + 1 : 2 * k - 1][::-1])


# samples the width walks read per round, across all walks still going; it
# bounds the round's index and value arrays at a few hundred kB
_WALK_CELLS = 1 << 15


def _first_at_or_below(x: np.ndarray, start: np.ndarray, step: np.ndarray, height: np.ndarray):
    """The first index ``start + j * step``, j >= 0, with ``x <= height``.

    Each walk reads windows of doubling length, so its cost follows its own
    length. A sample at or below ``height`` must lie on every walk's way.
    """
    found = start.copy()
    todo = np.flatnonzero(x[start] > height)
    offset = width = 1
    while todo.size:
        idx = start[todo, None] + step[todo, None] * np.arange(offset, offset + width)
        np.minimum(np.maximum(idx, 0, out=idx), x.size - 1, out=idx)
        hit = np.flatnonzero(x[idx] <= height[todo, None])
        walk = hit // width
        first = np.flatnonzero(np.diff(walk, prepend=-1))
        found[todo[walk[first]]] = idx.ravel()[hit[first]]
        going = np.ones(todo.size, dtype=bool)
        going[walk] = False
        todo = todo[going]
        offset += width
        width = min(2 * width, max(1, _WALK_CELLS // max(todo.size, 1)))
    return found


def _find_peaks(x: np.ndarray, min_prominence: float) -> tuple:
    """Indices, prominences and half-prominence widths (in samples) of the
    local maxima of ``x`` with a prominence of at least ``min_prominence``.

    The rules, and the bits, are those of ``scipy.signal.find_peaks`` and
    ``peak_widths(rel_height=0.5)``: a run of equal samples peaks at its
    midpoint, and the width is measured at half the prominence, linearly
    interpolated between samples.
    """
    peaks = _local_maxima(x)
    if peaks.size == 0:
        return peaks, np.empty(0), np.empty(0)
    # float subtraction is monotone and a prominence is at most x[p] - x.min()
    peaks = peaks[x[peaks] - x.min() >= min_prominence]
    prominences = _prominences(x, peaks)
    keep = prominences >= min_prominence
    peaks, prominences = peaks[keep], prominences[keep]

    # The half height lies at or above both side minima, so each walk stops
    # at or before the side minimum nearest the peak, where scipy's stops.
    # Left walks come first, then right walks; i - step * q is scipy's
    # i + q on the left and i - q on the right, to the bit.
    n = peaks.size
    step = np.repeat([-1, 1], n)
    height = np.tile(x[peaks] - prominences * 0.5, 2)
    ends = _first_at_or_below(x, np.tile(peaks, 2), step, height)
    ips = ends.astype(float)
    below = x[ends] < height
    i = ends[below]
    ips[below] -= step[below] * ((height[below] - x[i]) / (x[i - step[below]] - x[i]))
    return peaks, prominences, ips[n:] - ips[:n]


def detect_features(
    spectrum: SumFrequencySpectrum,
    baseline: SumFrequencySpectrum | None = None,
    min_prominence: float | None = None,
) -> list[SpectralFeature]:
    """Locate peaks (or, against a baseline, absorption dips).

    With a baseline the maxima of ``baseline - spectrum`` are reported as
    dips. A feature needs a prominence of at least ``min_prominence``,
    by default 5% of the maximum of the searched signal; a signal whose
    maximum is not positive then has no features. The rule is that of
    ``scipy.signal.find_peaks``: a run of equal samples peaks at its
    midpoint, and the prominence is measured down to the nearest strictly
    higher sample on each side. Centers are refined by 3-point parabolic
    interpolation; widths are half-prominence widths in THz, as
    ``scipy.signal.peak_widths`` defines them. Features come back sorted
    by center; two lines closer than one grid bin merge into a single
    feature. An empty report is a valid result.
    """
    if not (min_prominence is None or min_prominence > 0):
        raise ValueError("min_prominence must be positive")
    if baseline is not None:
        if baseline.grid != spectrum.grid:
            raise GridMismatchError("baseline grid differs from spectrum grid")
        signal = baseline.weights - spectrum.weights
        kind = "dip"
    else:
        signal = np.asarray(spectrum.weights)
        kind = "peak"
    if min_prominence is None:
        min_prominence = 0.05 * float(signal.max())
        if not min_prominence > 0:
            return []

    idx, _, widths = _find_peaks(signal, min_prominence)
    widths = widths * spectrum.grid.step

    features = []
    for i, w in zip(idx, widths):
        center, height = _peak_at(signal, spectrum.grid, i)
        features.append(
            SpectralFeature(center=float(center), height=float(height), fwhm=float(w), kind=kind)
        )
    return features


def spectrum_distance(a: SumFrequencySpectrum, b: SumFrequencySpectrum) -> tuple:
    """Relative (L2, Linf) distances between two spectra, scale-invariant.

    Both inputs are renormalized first, so any overall scale difference
    vanishes; distances are relative to the first argument.
    """
    if a.grid != b.grid:
        raise GridMismatchError("spectra use different grids")
    wa = a.renormalized().weights
    wb = b.renormalized().weights
    diff = wa - wb
    l2 = float(np.linalg.norm(diff) / np.linalg.norm(wa))
    linf = float(np.abs(diff).max() / np.abs(wa).max())
    return l2, linf
