"""Inversion of correlation traces back to sum-frequency spectra.

The trace is the cosine transform of the source spectrum, so a discrete
Fourier transform with kernel exp(+i 2 pi nu t) recovers a two-sided
spectrum with mirrored peaks at +-nu; folding the positive half restores
the physical one-sided spectrum. Under the ordinary-frequency convention
the forward/inverse kernels carry no extra 1/2pi factor, which is what
makes the round trip self-consistent.

The transform works in one complex array: ``_transformed`` makes it and
transforms it in place, and ``_twist`` adds the t-origin phase and puts
zero frequency in the middle, as ``np.fft.fftshift`` does, in one walk.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _numerics
from ._numerics import _blocks, _phasors
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
    g = np.asarray(trace.values, dtype=float)
    if window == "hann":
        g = g * np.hanning(g.size)
    elif window != "rect":
        raise ValueError(f"unknown window {window!r} (expected 'rect' or 'hann')")
    grid, amp = _transformed(g, trace.grid)
    amp.setflags(write=False)  # given up, so RecoveredSpectrum keeps it without a copy
    return RecoveredSpectrum(grid, amp)


def _transformed(g: np.ndarray, grid: TimeGrid) -> tuple:
    """The grid and two-sided amplitudes of :func:`fourier_recover` along g's last axis.

    The amplitudes are one new, writeable complex array of g's shape, the
    only one held: the transform and its scale work in it, then the phase
    and the shift in one walk.
    """
    n, dt = grid.count, grid.step
    # the kernel phase 2 pi nu t must stay finite up to the band edge 1/(2 dt)
    if not math.isfinite(2 * math.pi / dt):
        raise ValueError(f"delay step {dt!r} ps is too fine for a finite frequency band")
    # and the resolution 1/(n dt) must be positive: n dt may overflow to inf
    df = 1.0 / (n * dt)
    if not df > 0:
        raise ValueError(f"delay window {n} x {dt!r} ps is too long for a positive frequency step")
    # ifft casts a real input to a complex copy before it transforms; made
    # here, that copy takes the transform in place, with the same bits
    raw = g.astype(complex)
    # ifft carries the +i kernel; undo its 1/n and add the t-origin phase
    np.fft.ifft(raw, out=raw)
    raw *= n * dt
    _twist(raw, n, dt, grid.start)
    return FrequencyGrid(start=-(n // 2) * df, step=df, count=n), raw


def _twist(raw: np.ndarray, n: int, dt: float, start: float) -> None:
    """raw = np.fft.fftshift(raw * exp(2 pi i f start), axes=-1) on the
    frequencies f of ``np.fft.fftfreq(n, d=dt)``, in place along the last
    axis, in one walk over pairs of blocks.

    The bits are those of that expression without its trace-sized complex
    temporaries; :func:`_phasors` builds the phasors. fftshift moves the
    last ``h = n // 2`` points, the negative frequencies, to the front:
    for odd n, [A, m, B] with A and B of h points becomes [B, A, m]. The
    middle point m is taken first, then each block of A and its partner
    in B trade places, each multiplied by its phasors on the way, and m
    goes last to the end. Each half's frequencies are contiguous, fftfreq's
    integers times 1/(n dt). The rule of its own is where the +0 goes: the
    real part of 2j pi f is a zero with f's sign, which the product with
    ``start`` adds to the phase. So the non-negative frequencies take +0,
    which turns a -0 to +0, and the negative ones -0, which changes nothing.
    """
    scale = 1.0 / (n * dt)
    h, odd = n // 2, n % 2
    rows = list(np.ndindex(raw.shape[:-1]))
    size = max(_numerics._BLOCK // 2, 1)  # a pair of blocks spans one _BLOCK
    # every product is written with out= into an array of its own, not in
    # place: numpy's in-place product of one element takes another loop with
    # other bits, and so does a Python scalar's; and it is taken row by row,
    # as numpy multiplies a strided block of rows at half the speed
    if odd:
        z = _phasors(np.arange(h, h + 1) * scale, 1, scale=start)
        middle = np.empty(raw.shape[:-1] + (1,), dtype=complex)
        for row in rows:
            np.multiply(raw[row][h : h + 1], z, out=middle[row])
    buf = np.empty(min(size, h), dtype=complex)
    for lo, hi in _blocks(h, size):
        z_a = _phasors(np.arange(lo, hi) * scale, 1, scale=start)
        z_b = _phasors(np.arange(lo - h, hi - h) * scale, 1, scale=start, head=0)
        t = buf[: hi - lo]
        for row in rows:
            x = raw[row]
            a = x[lo:hi]
            np.multiply(a, z_a, out=t)
            np.multiply(x[h + odd + lo : h + odd + hi], z_b, out=a)
            x[h + lo : h + hi] = t
    if odd:
        raw[..., -1:] = middle


def fold_one_sided(recovered: RecoveredSpectrum) -> SumFrequencySpectrum:
    """Fold the two-sided spectrum onto nu >= 0, conserving total mass.

    Mirror-bin magnitudes add (so interior bins double), the DC bin is
    counted once, and a bin without a mirror keeps its own magnitude: for
    even-length transforms the unpaired -Nyquist bin lands on +Nyquist.
    The folded grid reaches the farther end of the two-sided one.
    Requires Hermitian symmetry within 1e-6 of the peak magnitude, which
    holds for transforms of real traces.
    """
    weights = _folded(recovered.amplitudes, recovered.zero_index)
    return SumFrequencySpectrum(FrequencyGrid(0.0, recovered.grid.step, weights.size), weights)


def _folded(amp: np.ndarray, i0: int) -> np.ndarray:
    """The weights of :func:`fold_one_sided` along the last axis of ``amp``, zero at ``i0``:
    one per bin from DC to the farther end, ``max(i0 + 1, n - i0)`` for n bins.
    ``np.hypot`` gives a reversed half one row's bits in any layout; ``np.abs`` does not."""
    # DC and up, and below DC nearest first: neg[j] mirrors pos[j + 1]
    neg, pos = amp[..., :i0][..., ::-1], amp[..., i0:]
    k = min(neg.shape[-1], pos.shape[-1] - 1)
    # the Hermitian residual max |neg - conj(pos)|, a block of mirrored pairs
    # at a time so no half-length difference is held; a max of maxima is exact
    err = abs(amp[..., i0].imag)
    for lo, hi in _blocks(k):
        d = np.conj(pos[..., lo + 1 : hi + 1])
        np.subtract(neg[..., lo:hi], d, out=d)
        err = np.maximum(err, np.hypot(d.real, d.imag).max(-1))
        del d  # not held beside the weights
    weights = np.zeros(amp.shape[:-1] + (max(i0 + 1, pos.shape[-1]),))
    np.abs(pos, out=weights[..., : pos.shape[-1]])
    abs_neg = np.hypot(neg.real, neg.imag)
    scale = np.maximum(weights.max(-1), abs_neg.max(-1, initial=0.0))
    broken = err > HERMITIAN_TOL * scale
    if np.any(broken):  # the first row that breaks it
        rel = err[broken][0] / scale[broken][0]
        raise AsymmetryError(f"Hermitian symmetry broken by {rel:.3e} (relative)")
    weights[..., 1 : neg.shape[-1] + 1] += abs_neg
    return weights


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
    grid = spectrum.grid
    for i, w in zip(idx, widths):
        delta, height = _refined(signal, i)
        features.append(
            SpectralFeature(
                center=float(grid.points(i, i + 1)[0] + delta * grid.step),
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
