"""Finite counting statistics on the interferogram.

Coincidence detection is modeled per delay bin as Binomial(pairs_per_bin,
efficiency^2 * P(t) + dark_rate): a fixed number of pairs is sent at each
delay and each survives detection independently. Dark counts enter as an
additive probability floor.

Randomness is drawn from counter-based Philox streams keyed by
(seed, stream), with the bin index selecting the position inside the
stream. Each bin's count is therefore a pure function of
(seed, stream, bin): results are bit-identical however the bins are
partitioned across workers, which is what makes chunked or parallel
execution reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.random import Generator, Philox
from scipy.stats import binom

from .errors import NonUniformGridError
from .grids import TimeGrid
from .interferometer import CorrelationTrace, Interferogram, simulate_interferogram
from .recovery import _parabolic_vertex, fold_one_sided, fourier_recover
from .spectral import SumFrequencySpectrum


@dataclass(frozen=True)
class CountRecord:
    """Coincidences observed out of ``pairs_sent`` at one delay."""

    delay: float
    coincidences: int
    pairs_sent: int

    def __post_init__(self):
        if self.pairs_sent < 1:
            raise ValueError("pairs_sent must be positive")
        if not (0 <= self.coincidences <= self.pairs_sent):
            raise ValueError("coincidences must lie in [0, pairs_sent]")


MAX_PAIRS_PER_BIN = 2**31


@dataclass(frozen=True)
class NoiseConfig:
    pairs_per_bin: int
    seed: int
    dark_rate: float = 0.0
    efficiency: float = 1.0

    def __post_init__(self):
        if not (1 <= self.pairs_per_bin <= MAX_PAIRS_PER_BIN):
            # binom.ppf returns NaN at 2**53 pairs and does not return at 2**62
            raise ValueError(f"pairs_per_bin must lie in [1, {MAX_PAIRS_PER_BIN}]")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 bits")
        if self.dark_rate < 0:
            raise ValueError("dark_rate must be non-negative")
        if not (0 < self.efficiency <= 1):
            raise ValueError("efficiency must lie in (0, 1]")


@dataclass(frozen=True)
class CountData:
    """Sampled records plus a flag marking probability clamping at 1."""

    records: tuple
    clamped: bool


def _keyed_uniforms(seed: int, stream: int, n: int, offset: int = 0) -> np.ndarray:
    """Uniforms [offset, offset+n) of the Philox stream keyed by (seed, stream).

    Philox advances in blocks of four 64-bit draws, so the jump lands on
    the enclosing block and discards the remainder; any partition of the
    index range reproduces the same values.
    """
    bg = Philox(key=np.array([seed, stream], dtype=np.uint64))
    if offset:
        bg.advance(offset // 4)
    gen = Generator(bg)
    if offset % 4:
        gen.random(offset % 4)
    return gen.random(n)


def sample_counts(
    interferogram: Interferogram,
    config: NoiseConfig,
    stream: int = 0,
    chunk_size: int | None = None,
) -> CountData:
    """Draw coincidence counts for every delay bin.

    The per-bin success probability ``efficiency^2 * P + dark_rate`` is
    clamped into [0, 1]; a clamp event is reported on the result. Counts
    are the binomial inverse CDF of one keyed uniform per bin, so the
    draw is deterministic and partition-independent: ``chunk_size`` bins
    are drawn per block (all at once when None) without changing a bit.
    ``stream`` distinguishes repeated experiments under the same seed.
    """
    p_raw = config.efficiency**2 * np.asarray(interferogram.values) + config.dark_rate
    clamped = bool(np.any(p_raw > 1.0))
    p = np.clip(p_raw, 0.0, 1.0)

    nbins = interferogram.grid.count
    if chunk_size is None:
        chunk_size = nbins
    elif chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    counts = np.empty(nbins, dtype=np.int64)
    for lo in range(0, nbins, chunk_size):
        hi = min(lo + chunk_size, nbins)
        u = _keyed_uniforms(config.seed, stream, hi - lo, offset=lo)
        drawn = binom.ppf(u, config.pairs_per_bin, p[lo:hi])
        # ppf(0, ...) is -1 by convention and random() can return exactly 0
        counts[lo:hi] = np.clip(drawn, 0, config.pairs_per_bin).astype(np.int64)

    delays = interferogram.grid.values
    records = tuple(
        CountRecord(float(delays[i]), int(counts[i]), config.pairs_per_bin)
        for i in range(nbins)
    )
    return CountData(records, clamped)


def _grid_from_delays(delays: np.ndarray) -> TimeGrid:
    if delays.size < 2:
        raise ValueError("need at least two records")
    step = float((delays[-1] - delays[0]) / (delays.size - 1))
    steps = np.diff(delays)
    if step <= 0 or np.any(np.abs(steps - step) > 1e-9 * max(abs(step), 1.0)):
        raise NonUniformGridError("records are not on a uniform delay grid")
    return TimeGrid(float(delays[0]), step, delays.size)


def estimate_trace(
    records: Sequence[CountRecord], efficiency: float, dark_rate: float = 0.0
) -> CorrelationTrace:
    """Efficiency- and dark-corrected correlation estimate from counts.

    P_hat = (coincidences/pairs_sent - dark_rate)/efficiency^2 clamped to
    [0, 1], then G_hat = 2 P_hat - 1. The output feeds
    :func:`noonspec.recovery.fourier_recover` unchanged.
    """
    if not (0 < efficiency <= 1):
        raise ValueError("efficiency must lie in (0, 1]")
    delays = np.array([r.delay for r in records], dtype=float)
    grid = _grid_from_delays(delays)
    rates = np.array([r.coincidences / r.pairs_sent for r in records])
    p_hat = np.clip((rates - dark_rate) / efficiency**2, 0.0, 1.0)
    return CorrelationTrace(grid, 2.0 * p_hat - 1.0)


@dataclass(frozen=True)
class ScalingRow:
    n_trials: int
    std_height: float
    std_center: float


@dataclass(frozen=True)
class ScalingStudy:
    """Empirical spread of the recovered peak versus pairs per bin.

    ``exponent`` is the fitted slope of log(std_height) against
    log(n_trials); NaN when fewer than two usable points exist (a single
    trial count, or noise-free runs with zero spread).
    """

    rows: tuple
    exponent: float


def _dominant_peak(folded: SumFrequencySpectrum) -> tuple:
    """(center, height) of the strongest non-DC bin, parabolically refined."""
    w = folded.weights
    i = 1 + int(np.argmax(w[1:]))
    if 0 < i < w.size - 1:
        delta, height = _parabolic_vertex(w[i - 1], w[i], w[i + 1])
    else:
        delta, height = 0.0, float(w[i])
    return folded.grid.start + (i + delta) * folded.grid.step, height


def error_scaling_study(
    spectrum: SumFrequencySpectrum,
    trial_counts: Sequence[int],
    repeats: int,
    config: NoiseConfig,
    grid: TimeGrid | None = None,
    chunk_size: int | None = None,
) -> ScalingStudy:
    """Monte-Carlo spread of the recovered peak as counting statistics vary.

    For each entry of ``trial_counts`` the full pipeline (sample counts,
    estimate the trace, transform, fold, locate the dominant peak) runs
    ``repeats`` times on independent keyed streams; the rows report the
    sample standard deviations of the refined peak height and center.
    Counting statistics put the height spread on a 1/sqrt(N) law, so the
    fitted exponent sits near -0.5. At least 20 repeats are recommended
    for a stable estimate.
    """
    if repeats < 2:
        raise ValueError("repeats must be at least 2")
    if not trial_counts:
        raise ValueError("trial_counts must not be empty")
    if grid is None:
        from .interferometer import default_time_grid

        grid = default_time_grid()

    pattern = simulate_interferogram(spectrum, grid)
    rows = []
    for i_n, n_trials in enumerate(trial_counts):
        heights = np.empty(repeats)
        centers = np.empty(repeats)
        cfg = NoiseConfig(
            pairs_per_bin=int(n_trials),
            seed=config.seed,
            dark_rate=config.dark_rate,
            efficiency=config.efficiency,
        )
        for r in range(repeats):
            counts = sample_counts(
                pattern, cfg, stream=i_n * repeats + r, chunk_size=chunk_size
            )
            trace = estimate_trace(counts.records, cfg.efficiency, cfg.dark_rate)
            folded = fold_one_sided(fourier_recover(trace))
            centers[r], heights[r] = _dominant_peak(folded)
        rows.append(
            ScalingRow(
                int(n_trials),
                float(np.std(heights, ddof=1)),
                float(np.std(centers, ddof=1)),
            )
        )

    usable = [(row.n_trials, row.std_height) for row in rows if row.std_height > 0]
    if len(usable) >= 2:
        ns, stds = zip(*usable)
        exponent = float(np.polyfit(np.log(ns), np.log(stds), 1)[0])
    else:
        exponent = math.nan
    return ScalingStudy(tuple(rows), exponent)
