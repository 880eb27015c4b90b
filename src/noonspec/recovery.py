"""Inversion of correlation traces back to sum-frequency spectra.

The trace is the cosine transform of the source spectrum, so a discrete
Fourier transform with kernel exp(+i 2 pi nu t) recovers a two-sided
spectrum with mirrored peaks at +-nu; folding the positive half restores
the physical one-sided spectrum. Under the ordinary-frequency convention
the forward/inverse kernels carry no extra 1/2pi factor, which is what
makes the round trip self-consistent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AsymmetryError, GridMismatchError
from .grids import FrequencyGrid, _column
from .interferometer import CorrelationTrace
from .spectral import SumFrequencySpectrum

HERMITIAN_TOL = 1e-6


@dataclass(frozen=True)
class RecoveredSpectrum:
    """Two-sided complex spectrum on a grid symmetric about zero.

    The grid carries the transform geometry: its step is the resolution
    1/window of the delay scan, so no window or delay step is stored apart.
    """

    grid: FrequencyGrid
    amplitudes: np.ndarray

    def __post_init__(self):
        _column(self, "amplitudes", (self.grid.count,), dtype=complex)

    @property
    def zero_index(self) -> int:
        idx = round(-self.grid.start / self.grid.step)
        if not (0 <= idx < self.grid.count) or abs(
            self.grid.start + idx * self.grid.step
        ) > 1e-9 * self.grid.step:
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
    dt = trace.grid.step
    # the kernel phase 2 pi nu t must stay finite up to the band edge 1/(2 dt)
    if not math.isfinite(2 * math.pi / dt):
        raise ValueError(f"delay step {dt!r} ps is too fine for a finite frequency band")
    df = 1.0 / (n * dt)

    g = np.asarray(trace.values, dtype=float)
    if window == "hann":
        g = g * np.hanning(n)
    elif window != "rect":
        raise ValueError(f"unknown window {window!r} (expected 'rect' or 'hann')")

    # ifft carries the +i kernel; undo its 1/n and add the t-origin phase
    raw = n * dt * np.fft.ifft(g)
    raw *= np.exp(2j * np.pi * np.fft.fftfreq(n, d=dt) * trace.grid.start)

    grid = FrequencyGrid(start=-(n // 2) * df, step=df, count=n)
    return RecoveredSpectrum(grid, np.fft.fftshift(raw))


def fold_one_sided(recovered: RecoveredSpectrum) -> SumFrequencySpectrum:
    """Fold the two-sided spectrum onto nu >= 0, conserving total mass.

    Mirror-bin magnitudes add (so interior bins double), the DC bin is
    counted once, and for even-length transforms the unpaired -Nyquist
    bin lands on +Nyquist. Requires Hermitian symmetry within 1e-6 of the
    peak magnitude, which holds for transforms of real traces.
    """
    amp = recovered.amplitudes
    i0 = recovered.zero_index
    scale = np.abs(amp).max()
    if scale > 0:
        k = min(recovered.grid.count - 1 - i0, i0)
        mirror_err = 0.0
        if k > 0:
            neg = amp[i0 - k : i0][::-1]
            pos = amp[i0 + 1 : i0 + 1 + k]
            mirror_err = np.abs(neg - np.conj(pos)).max()
        mirror_err = max(mirror_err, abs(amp[i0].imag))
        if mirror_err > HERMITIAN_TOL * scale:
            raise AsymmetryError(
                f"Hermitian symmetry broken by {mirror_err / scale:.3e} (relative)"
            )

    pos_mag = np.abs(amp[i0:])
    neg_mag = np.abs(amp[:i0][::-1])
    weights = np.zeros(i0 + 1)
    weights[: pos_mag.size] = pos_mag
    weights[1 : neg_mag.size + 1] += neg_mag
    return SumFrequencySpectrum(FrequencyGrid(0.0, recovered.grid.step, i0 + 1), weights)


def _refined(signal: np.ndarray, i: int) -> tuple:
    """Sub-bin offset in [-0.5, 0.5] and height of the 3-point parabola through
    the maximum ``signal[i]``; an edge or non-concave sample is kept as is."""
    if not 0 < i < signal.size - 1:
        return 0.0, float(signal[i])
    y_left, y_mid, y_right = signal[i - 1], signal[i], signal[i + 1]
    denom = y_left + y_right - 2.0 * y_mid
    if denom >= 0:  # flat or non-concave
        return 0.0, y_mid
    delta = float(np.clip(0.5 * (y_left - y_right) / denom, -0.5, 0.5))
    return delta, y_mid - 0.25 * (y_left - y_right) * delta


def _local_maxima(x: np.ndarray) -> np.ndarray:
    """Midpoints of the runs of equal samples that rise from the left and
    fall to the right; a run touching either edge is never a maximum."""
    changes = np.flatnonzero(x[1:] != x[:-1])
    rising = (x[1:] > x[:-1])[changes]
    top = np.flatnonzero(rising[:-1] & ~rising[1:])
    return (changes[top] + 1 + changes[top + 1]) // 2


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
    nu = spectrum.grid.values
    for i, w in zip(idx, widths):
        delta, height = _refined(signal, i)
        features.append(
            SpectralFeature(
                center=float(nu[i] + delta * spectrum.grid.step),
                height=float(height),
                fwhm=float(w),
                kind=kind,
            )
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
