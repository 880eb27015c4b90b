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


def detect_features(
    spectrum: SumFrequencySpectrum,
    baseline: SumFrequencySpectrum | None = None,
    min_prominence: float | None = None,
) -> list[SpectralFeature]:
    """Locate peaks (or, against a baseline, absorption dips).

    With a baseline the maxima of ``baseline - spectrum`` are reported as
    dips. A feature needs a prominence of at least ``min_prominence``,
    by default 5% of the maximum of the searched signal; a signal whose
    maximum is not positive then has no features. Centers are refined by
    3-point parabolic interpolation; widths are half-prominence widths in
    THz. Features come back sorted by center; two lines closer than one
    grid bin merge into a single feature. An empty report is a valid
    result.
    """
    # of the verbs only `recover` detects features, so only it loads scipy.signal
    from scipy.signal import find_peaks, peak_widths

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

    idx, _ = find_peaks(signal, prominence=min_prominence)
    if idx.size == 0:
        return []
    widths = peak_widths(signal, idx, rel_height=0.5)[0] * spectrum.grid.step

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
