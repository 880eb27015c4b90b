import os
import tracemalloc

import numpy as np
import pytest

from noonspec import FrequencyGrid, SumFrequencySpectrum, TimeGrid

# the noise study's worker pool needs os.fork
fork_only = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


def single_bin_spectrum(nu0: float, step: float = 0.015625, count: int = 9):
    """All mass in one bin: an ideal monochromatic line at nu0.

    The step is a binary-exact float so step * (1/step) == 1 exactly and
    the resulting trace is a pure cosine to machine precision.
    """
    at = count // 2
    grid = FrequencyGrid(nu0 - at * step, step, count)
    weights = np.zeros(count)
    weights[at] = 1.0 / step
    return SumFrequencySpectrum(grid, weights)


def direct_sum_reference(spectrum: SumFrequencySpectrum, delays: np.ndarray) -> np.ndarray:
    """P at ``delays`` by the direct sum in np.longdouble, every phase reduced mod 1.

    Each float64 factor of nu*t is split into halves of at most 26 bits;
    the four partial products are exact in the 64-bit longdouble mantissa
    and each is reduced mod 1 before they are summed.
    """

    def split(x):
        c = 134217729.0 * x  # 2**27 + 1, Veltkamp's splitter
        hi = c - (c - x)
        return np.longdouble(hi), np.longdouble(x - hi)

    def frac(x):
        return x - np.rint(x)

    nus = split(spectrum.grid.values)
    ts = split(np.asarray(delays, dtype=float))
    cycles = frac(sum(frac(t[:, None] * nu[None, :]) for nu in nus for t in ts))
    w = np.longdouble(spectrum.weights) * np.longdouble(spectrum.grid.step)
    two_pi = 2 * np.arccos(np.longdouble(-1))
    return (0.5 * (1 + (np.cos(two_pi * cycles) * w).sum(axis=1))).astype(float)


def peak_above_inputs(call) -> int:
    """The bytes ``call()`` holds at its peak above those held before it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def centered_time_grid(step: float, count: int) -> TimeGrid:
    return TimeGrid(-(count // 2) * step, step, count)


@pytest.fixture
def rng():
    return np.random.default_rng(20250808)
