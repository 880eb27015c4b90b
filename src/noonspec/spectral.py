"""Pump spectra, joint spectral intensities, and sum-frequency marginals.

The photon-pair source is described by the joint spectral intensity over
(signal, idler) frequencies; everything downstream of the interferometer
depends on it only through the sum-frequency marginal F(nu_p), which is
what the constructors here build directly when a pump model suffices.

All spectral densities are non-negative, and every constructor output is
normalized so that ``step * sum(weights) == 1`` (a unit-mass density per
THz). Values are immutable after construction and safe to share across
threads.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import CoverageError
from .grids import FrequencyGrid, _column

FOUR_LN2 = 4.0 * np.log(2.0)

NORMALIZATION_TOL = 1e-9

# A truncated Gaussian is a legitimate experiment, so short coverage only
# flags the output instead of raising.
COVERAGE_SIGMAS = 3.0


def gaussian_profile(nu: np.ndarray, center: float, fwhm: float) -> np.ndarray:
    """Unit-peak Gaussian ``exp(-4 ln2 (nu-center)^2 / fwhm^2)``.

    Far from a very narrow line the scaled offset overflows to inf, which
    gives the correct exp(-inf) = 0, so the overflow is not reported.
    """
    with np.errstate(over="ignore"):
        return np.exp(-FOUR_LN2 * ((nu - center) / fwhm) ** 2)


@dataclass(frozen=True)
class SumFrequencySpectrum:
    """Discretized sum-frequency intensity F(nu_p) on a uniform grid.

    ``weights`` is a density per THz; when ``normalized`` is set the total
    mass ``grid.step * weights.sum()`` equals 1 within 1e-9.
    """

    grid: FrequencyGrid
    weights: np.ndarray
    normalized: bool = False
    coverage_warning: bool = False

    def __post_init__(self):
        _column(self, "weights", (self.grid.count,), low=0)
        if self.normalized and abs(self.total_mass - 1.0) > NORMALIZATION_TOL:
            raise ValueError(
                f"spectrum flagged normalized but step*sum(weights) = {self.total_mass!r}"
            )

    @property
    def total_mass(self) -> float:
        return float(self.grid.step * self.weights.sum())

    def renormalized(self) -> "SumFrequencySpectrum":
        """Copy rescaled to unit mass."""
        mass = self.total_mass
        if mass <= 0:
            raise ValueError("cannot normalize a zero spectrum")
        return replace(self, weights=self.weights / mass, normalized=True)


@dataclass(frozen=True)
class JointSpectralIntensity:
    """|f(nu_s, nu_i)|^2 on a 2-D grid; rows index signal, columns idler."""

    signal_grid: FrequencyGrid
    idler_grid: FrequencyGrid
    density: np.ndarray

    def __post_init__(self):
        shape = (self.signal_grid.count, self.idler_grid.count)
        _column(self, "density", shape, low=0)

    @property
    def total_mass(self) -> float:
        return float(self.signal_grid.step * self.idler_grid.step * self.density.sum())


@dataclass(frozen=True)
class CombLine:
    """One pump frequency line: Gaussian of given center/fwhm, relative weight."""

    center: float
    fwhm: float
    weight: float

    def __post_init__(self):
        if not (self.fwhm > 0):
            raise ValueError(f"line fwhm must be positive, got {self.fwhm}")
        if self.weight < 0:
            raise ValueError(f"line weight must be non-negative, got {self.weight}")


def make_frequency_grid(start: float, step: float, count: int) -> FrequencyGrid:
    """Uniform grid covering ``[start, start + (count-1)*step]``."""
    return FrequencyGrid(start, step, count)


def _covers(grid: FrequencyGrid, center: float, fwhm: float) -> bool:
    half = COVERAGE_SIGMAS * fwhm
    return grid.start <= center - half and grid.stop >= center + half


def gaussian_pump_spectrum(
    grid: FrequencyGrid, center: float, fwhm: float
) -> SumFrequencySpectrum:
    """Normalized Gaussian sum-frequency spectrum.

    Weights follow ``exp(-4 ln2 (nu-center)^2/fwhm^2)`` rescaled to unit
    mass on the grid. If the grid does not span center +- 3*fwhm the
    returned spectrum carries ``coverage_warning``.
    """
    if not (fwhm > 0):
        raise ValueError(f"fwhm must be positive, got {fwhm}")
    shape = gaussian_profile(grid.values, center, fwhm)
    mass = grid.step * shape.sum()
    if mass <= 0:
        raise CoverageError("grid carries no mass of the requested Gaussian")
    return SumFrequencySpectrum(
        grid,
        shape / mass,
        normalized=True,
        coverage_warning=not _covers(grid, center, fwhm),
    )


def comb_pump_spectrum(
    grid: FrequencyGrid, lines: Sequence[CombLine]
) -> SumFrequencySpectrum:
    """Weighted sum of per-line Gaussians, globally renormalized.

    Each line enters with unit grid-area before weighting, so integrated
    line areas stay proportional to the line weights even when lines are
    partially truncated by the grid.
    """
    if not lines:
        raise ValueError("comb needs at least one line")
    if not any(line.weight > 0 for line in lines):
        raise ValueError("comb needs at least one line with positive weight")
    weights = np.zeros(grid.count)
    warn = False
    for line in lines:
        if line.weight == 0:
            continue
        unit = gaussian_pump_spectrum(grid, line.center, line.fwhm)
        weights = weights + line.weight * unit.weights
        warn = warn or unit.coverage_warning
    weights /= grid.step * weights.sum()
    return SumFrequencySpectrum(grid, weights, normalized=True, coverage_warning=warn)


def gaussian_jsi(
    signal_grid: FrequencyGrid,
    idler_grid: FrequencyGrid,
    pump_center: float,
    pump_fwhm: float,
    phasematch_fwhm: float,
) -> JointSpectralIntensity:
    """Double-Gaussian joint spectral intensity.

    Pump envelope constrains nu_s + nu_i around ``pump_center``; the
    phase-matching factor constrains nu_s - nu_i around zero. Normalized
    so ``step_s * step_i * density.sum() == 1``.
    """
    if not (pump_fwhm > 0):
        raise ValueError(f"pump fwhm must be positive, got {pump_fwhm}")
    if not (phasematch_fwhm > 0):
        raise ValueError(f"phase-matching fwhm must be positive, got {phasematch_fwhm}")
    nu_s = signal_grid.values[:, None]
    nu_i = idler_grid.values[None, :]
    density = gaussian_profile(nu_s + nu_i, pump_center, pump_fwhm) * gaussian_profile(
        nu_s - nu_i, 0.0, phasematch_fwhm
    )
    mass = signal_grid.step * idler_grid.step * density.sum()
    if mass <= 0:
        raise CoverageError("grids carry no mass of the requested joint intensity")
    return JointSpectralIntensity(signal_grid, idler_grid, density / mass)


def sum_frequency_marginal(
    jsi: JointSpectralIntensity, output_grid: FrequencyGrid
) -> SumFrequencySpectrum:
    """Marginalize the joint intensity along nu_s + nu_i.

    Each 2-D cell's mass is assigned to the output bin nearest its sum
    frequency (mass-conserving nearest-bin binning; no sub-bin
    interpolation). Raises :class:`CoverageError` when more than 1e-6 of
    the total mass falls outside the output grid. The result is
    renormalized to unit mass.
    """
    sums = jsi.signal_grid.values[:, None] + jsi.idler_grid.values[None, :]
    with np.errstate(over="ignore"):  # a bin index beyond the float range is outside
        idx = np.rint((sums - output_grid.start) / output_grid.step)
    cell_mass = jsi.density * (jsi.signal_grid.step * jsi.idler_grid.step)
    inside = (idx >= 0) & (idx < output_grid.count)
    total = cell_mass.sum()
    if total <= 0:
        raise ValueError("joint intensity has zero mass")
    lost = cell_mass[~inside].sum()
    if lost > 1e-6 * total:
        raise CoverageError(
            f"output grid misses {lost / total:.3e} of the sum-frequency mass"
        )
    binned = np.bincount(
        idx[inside].astype(np.int64), weights=cell_mass[inside], minlength=output_grid.count
    )
    weights = binned / output_grid.step
    weights /= output_grid.step * weights.sum()
    return SumFrequencySpectrum(output_grid, weights, normalized=True)
