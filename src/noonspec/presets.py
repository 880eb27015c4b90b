"""Bundled scenario presets.

Each preset is a plain scenario document (the same schema `--config`
accepts), so `--preset NAME` and a saved JSON file go through identical
validation. The single-line and comb presets use the 740 THz band the
default delay grid is sized for; the absorption preset pairs a broad
pump with a three-level sample.
"""
from __future__ import annotations

import copy


def _single_line(center: float) -> dict:
    return {
        "version": 1,
        "pump": {
            "kind": "gaussian",
            "center_thz": center,
            "fwhm_thz": 0.08,
            "grid": {
                "start_thz": center - 0.5,
                "step_thz": 0.002,
                "count": 501,
            },
        },
    }


PRESETS = {
    "line-215": _single_line(740.215),
    "line-250": _single_line(740.250),
    "line-300": _single_line(740.300),
    "comb5": {
        "version": 1,
        "pump": {
            "kind": "comb",
            "grid": {"start_thz": 738.5, "step_thz": 0.002, "count": 1751},
            "lines": [
                {"center_thz": 739.25, "fwhm_thz": 0.12, "weight": 1.0},
                {"center_thz": 739.75, "fwhm_thz": 0.12, "weight": 0.7},
                {"center_thz": 740.25, "fwhm_thz": 0.12, "weight": 0.45},
                {"center_thz": 740.75, "fwhm_thz": 0.12, "weight": 0.85},
                {"center_thz": 741.25, "fwhm_thz": 0.12, "weight": 0.6},
            ],
        },
    },
    "tpa3": {
        "version": 1,
        "pump": {
            "kind": "gaussian",
            "center_thz": 740.25,
            "fwhm_thz": 2.0,
            "grid": {"start_thz": 737.25, "step_thz": 0.004, "count": 1501},
        },
        "sample": {
            "name": "three-level demo",
            "lines": [
                {"center_thz": 739.7, "fwhm_thz": 0.16, "strength": 0.8},
                {"center_thz": 740.25, "fwhm_thz": 0.2, "strength": 0.5},
                {"center_thz": 740.8, "fwhm_thz": 0.25, "strength": 0.3},
            ],
        },
    },
    "noise-gauss": {
        "version": 1,
        "pump": {
            "kind": "gaussian",
            "center_thz": 740.25,
            "fwhm_thz": 1.0,
            "grid": {"start_thz": 738.25, "step_thz": 0.004, "count": 1001},
        },
        "time_grid": {"start_ps": -1.024, "step_ps": 5e-4, "count": 4096},
        "noise": {
            "pairs_per_bin": 1000,
            "seed": 20250808,
            "dark_rate": 0.0,
            "efficiency": 0.9,
        },
    },
}

DESCRIPTIONS = {
    "line-215": "single pump line at 740.215 THz",
    "line-250": "single pump line at 740.250 THz",
    "line-300": "single pump line at 740.300 THz",
    "comb5": "five-line comb with unequal weights",
    "tpa3": "broad pump through a three-level absorber",
    "noise-gauss": "Gaussian pump with counting noise, short delay grid",
}


def preset_scenario(name: str) -> dict:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return copy.deepcopy(PRESETS[name])
