"""noonspec: two-photon excitation spectroscopy by N00N-state interferometry.

Forward pipeline: build a sum-frequency spectrum (Gaussian pump, comb, or
joint-spectral-intensity marginal), filter it through a two-photon
absorber, and synthesize the coincidence interferogram P(t). Inverse
pipeline: Fourier-transform the correlation trace G = 2P - 1 back to the
spectrum, fold it one-sided, and locate peaks or absorption dips. A
Monte-Carlo layer adds binomial counting noise and measures how the
reconstruction spread scales with the number of detected pairs.
"""

from .absorption import (
    AbsorptionLine,
    Sample,
    TransmissionProfile,
    TransmissionResult,
    excitation_probabilities,
    recover_absorption_spectrum,
    transmission_profile,
    transmitted_spectrum,
)
from .errors import (
    AliasingError,
    AsymmetryError,
    CoverageError,
    GridMismatchError,
    NonUniformGridError,
    NoonspecError,
    NoSignalError,
    WindowTooShortError,
)
from .grids import FrequencyGrid, TimeGrid, UniformGrid
from .interferometer import (
    CorrelationTrace,
    Interferogram,
    correlation_trace,
    default_time_grid,
    dominant_oscillation_frequency,
    envelope_coherence_time,
    simulate_interferogram,
)
from .noise import (
    CountData,
    NoiseConfig,
    ScalingStudy,
    error_scaling_study,
    estimate_trace,
    sample_counts,
)
from .recovery import (
    RecoveredSpectrum,
    SpectralFeature,
    detect_features,
    fold_one_sided,
    fourier_recover,
    resolution_limit,
    spectrum_distance,
)
from .spectral import (
    CombLine,
    JointSpectralIntensity,
    SumFrequencySpectrum,
    comb_pump_spectrum,
    gaussian_jsi,
    gaussian_pump_spectrum,
    make_frequency_grid,
    sum_frequency_marginal,
)

__version__ = "0.1.0"

__all__ = [
    "AbsorptionLine",
    "AliasingError",
    "AsymmetryError",
    "CombLine",
    "CorrelationTrace",
    "CountData",
    "CoverageError",
    "FrequencyGrid",
    "GridMismatchError",
    "Interferogram",
    "JointSpectralIntensity",
    "NoiseConfig",
    "NonUniformGridError",
    "NoonspecError",
    "NoSignalError",
    "RecoveredSpectrum",
    "Sample",
    "ScalingStudy",
    "SpectralFeature",
    "SumFrequencySpectrum",
    "TimeGrid",
    "TransmissionProfile",
    "TransmissionResult",
    "UniformGrid",
    "WindowTooShortError",
    "comb_pump_spectrum",
    "correlation_trace",
    "default_time_grid",
    "detect_features",
    "dominant_oscillation_frequency",
    "envelope_coherence_time",
    "error_scaling_study",
    "estimate_trace",
    "excitation_probabilities",
    "fold_one_sided",
    "fourier_recover",
    "gaussian_jsi",
    "gaussian_pump_spectrum",
    "make_frequency_grid",
    "recover_absorption_spectrum",
    "resolution_limit",
    "sample_counts",
    "simulate_interferogram",
    "spectrum_distance",
    "sum_frequency_marginal",
    "transmission_profile",
    "transmitted_spectrum",
]
