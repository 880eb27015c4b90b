"""noonspec: two-photon excitation spectroscopy by N00N-state interferometry.

Forward pipeline: build a sum-frequency spectrum (Gaussian pump, comb, or
joint-spectral-intensity marginal), filter it through a two-photon
absorber, and synthesize the coincidence interferogram P(t). Inverse
pipeline: Fourier-transform the correlation trace G = 2P - 1 back to the
spectrum, fold it one-sided, and locate peaks or absorption dips. A
Monte-Carlo layer adds binomial counting noise and measures how the
reconstruction spread scales with the number of detected pairs.

The public names below live in the package's modules. ``import noonspec``
loads none of those modules, nor numpy: the first use of a name, by
attribute access, ``from noonspec import ...`` or ``import *``, imports
the module that defines it (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# each public name and the module that defines it
_EXPORTS = {
    "AbsorptionLine": "absorption",
    "Sample": "absorption",
    "TransmissionProfile": "absorption",
    "TransmissionResult": "absorption",
    "excitation_probabilities": "absorption",
    "recover_absorption_spectrum": "absorption",
    "transmission_profile": "absorption",
    "transmitted_spectrum": "absorption",
    "AliasingError": "errors",
    "AsymmetryError": "errors",
    "CoverageError": "errors",
    "GridMismatchError": "errors",
    "NonUniformGridError": "errors",
    "NoonspecError": "errors",
    "NoSignalError": "errors",
    "WindowTooShortError": "errors",
    "FrequencyGrid": "grids",
    "TimeGrid": "grids",
    "UniformGrid": "grids",
    "CorrelationTrace": "interferometer",
    "Interferogram": "interferometer",
    "correlation_trace": "interferometer",
    "default_time_grid": "interferometer",
    "dominant_oscillation_frequency": "interferometer",
    "envelope_coherence_time": "interferometer",
    "simulate_interferogram": "interferometer",
    "CountData": "noise",
    "NoiseConfig": "noise",
    "ScalingStudy": "noise",
    "error_scaling_study": "noise",
    "estimate_trace": "noise",
    "sample_counts": "noise",
    "RecoveredSpectrum": "recovery",
    "SpectralFeature": "recovery",
    "detect_features": "recovery",
    "fold_one_sided": "recovery",
    "fourier_recover": "recovery",
    "spectrum_distance": "recovery",
    "CombLine": "spectral",
    "JointSpectralIntensity": "spectral",
    "SumFrequencySpectrum": "spectral",
    "comb_pump_spectrum": "spectral",
    "gaussian_jsi": "spectral",
    "gaussian_pump_spectrum": "spectral",
    "make_frequency_grid": "spectral",
    "sum_frequency_marginal": "spectral",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(globals().keys() | _EXPORTS.keys())
