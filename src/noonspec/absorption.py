"""Two-photon absorption as a transmission filter on the sum-frequency axis.

A sample is a set of two-photon-allowed levels; pair components whose sum
frequency matches a level are absorbed with the line's strength, the rest
are transmitted. Because the interferogram depends on the pair only
through nu_s + nu_i, applying the filter to the sum-frequency marginal is
exact for every observable in scope.

Each line is a unit-peak Gaussian profile; the delta-like resonance of
the underlying transition is given this finite width, and the absorption
strength is a free parameter in [0, 1].
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError
from .grids import FrequencyGrid, _column
from .spectral import SumFrequencySpectrum, gaussian_profile


@dataclass(frozen=True)
class AbsorptionLine:
    """One two-photon-allowed level: transition frequency, width, strength."""

    center: float
    fwhm: float
    strength: float

    def __post_init__(self):
        if not (self.fwhm > 0):
            raise ValueError(f"line fwhm must be positive, got {self.fwhm}")
        if not (0.0 <= self.strength <= 1.0):
            raise ValueError(f"strength must lie in [0, 1], got {self.strength}")


@dataclass(frozen=True)
class Sample:
    """A named set of absorption lines, kept sorted by center frequency."""

    lines: tuple
    name: str = ""

    def __post_init__(self):
        lines = tuple(sorted(self.lines, key=lambda ln: ln.center))
        for ln in lines:
            if not isinstance(ln, AbsorptionLine):
                raise TypeError(f"expected AbsorptionLine, got {type(ln).__name__}")
        object.__setattr__(self, "lines", lines)


@dataclass(frozen=True)
class TransmissionProfile:
    """Per-grid-point transmission in [0, 1]; ``clamped`` marks saturation."""

    grid: FrequencyGrid
    values: np.ndarray
    clamped: bool

    def __post_init__(self):
        _column(self, "values", (self.grid.count,), low=0, high=1)


@dataclass(frozen=True)
class TransmissionResult:
    """Filtered spectrum (not renormalized); ``clamped`` marks a saturated
    transmission. The surviving fraction is the filtered spectrum's mass."""

    spectrum: SumFrequencySpectrum
    clamped: bool

    @property
    def surviving_fraction(self) -> float:
        return self.spectrum.total_mass


def _line_matrix(sample: Sample, nu: np.ndarray) -> np.ndarray:
    """``strength * profile`` of each line on ``nu``: one row per line, one column per bin."""
    return np.array(
        [ln.strength * gaussian_profile(nu, ln.center, ln.fwhm) for ln in sample.lines]
    ).reshape(len(sample.lines), nu.size)


def transmission_profile(sample: Sample, grid: FrequencyGrid) -> TransmissionProfile:
    """T(nu) = clamp(1 - sum of strength-weighted line profiles, 0, 1).

    Over-complete line sets drive the raw sum above 1; the result is
    clamped into [0, 1] and the event reported via ``clamped``.
    """
    raw = 1.0 - _line_matrix(sample, grid.values).sum(axis=0)
    clamped = bool(np.any(raw < 0) or np.any(raw > 1))
    return TransmissionProfile(grid, np.clip(raw, 0.0, 1.0), clamped)


def transmitted_spectrum(
    incident: SumFrequencySpectrum, sample: Sample
) -> TransmissionResult:
    """Filter a normalized (unit-mass) incident spectrum through the sample.

    The output is the pointwise product incident * T and is deliberately
    not renormalized: the absolute dip depth is the measurand. Its mass is
    the surviving fraction, the share of the incident mass transmitted.
    """
    if not incident.normalized:
        raise ValueError("incident spectrum must be normalized")
    profile = transmission_profile(sample, incident.grid)
    weights = incident.weights * profile.values
    return TransmissionResult(SumFrequencySpectrum(incident.grid, weights), profile.clamped)


def excitation_probabilities(
    incident: SumFrequencySpectrum, sample: Sample
) -> np.ndarray:
    """Absorbed mass per line of a normalized incident spectrum, in the order
    of ``sample.lines``.

    For each line this is ``step * sum(incident * strength * profile)``.
    Absent clamping the probabilities and the surviving fraction add up
    to 1.
    """
    if not incident.normalized:
        raise ValueError("incident spectrum must be normalized")
    absorbed = incident.weights * _line_matrix(sample, incident.grid.values)
    return incident.grid.step * absorbed.sum(axis=1)


def recover_absorption_spectrum(
    reference: SumFrequencySpectrum, measured: SumFrequencySpectrum
) -> SumFrequencySpectrum:
    """Pointwise reference - measured, clamped at zero.

    Both spectra must live on the same grid; the reference's absolute
    scale is retained so dip depths read directly as absorbed density.
    """
    if reference.grid != measured.grid:
        raise GridMismatchError("reference and measured spectra use different grids")
    diff = np.clip(reference.weights - measured.weights, 0.0, None)
    return SumFrequencySpectrum(reference.grid, diff)
