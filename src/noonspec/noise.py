"""Finite counting statistics on the interferogram.

Coincidence detection is modeled per delay bin as Binomial(pairs_per_bin,
efficiency^2 * P(t) + dark_rate): a fixed number of pairs is sent at each
delay and each survives detection independently. Dark counts enter as an
additive probability floor. A :class:`CountData` holds the delay grid
and two integer columns, coincidences and pairs sent.

Randomness is drawn from counter-based Philox streams keyed by
(seed, stream): one draw per stream gives every bin its uniform, the bin
index selecting the position inside the stream. Each bin's count is the
binomial quantile of its uniform, found by a guided search on
``scipy.stats.binom.cdf`` that returns what ``binom.ppf`` returns. Each
count is therefore a pure function of (seed, stream, bin): however the
search is split into blocks of bins (``chunk_size``), the counts are
bit-identical. A :class:`ScalingStudy` is columnar too, one entry per
trial count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri
from scipy.stats import binom

from .grids import TimeGrid, _column
from .interferometer import (
    CorrelationTrace,
    Interferogram,
    default_time_grid,
    simulate_interferogram,
)
from .recovery import _refined, fold_one_sided, fourier_recover
from .spectral import SumFrequencySpectrum


MAX_PAIRS_PER_BIN = 2**31


def _check_efficiency(efficiency: float) -> None:
    # below about 1e-162 efficiency**2 is 0, and the trace estimate 0/0
    if not (0 < efficiency <= 1) or efficiency**2 == 0:
        raise ValueError("efficiency must lie in (0, 1] and square to a positive float")


@dataclass(frozen=True)
class NoiseConfig:
    pairs_per_bin: int
    seed: int
    dark_rate: float = 0.0
    efficiency: float = 1.0

    def __post_init__(self):
        if not (1 <= self.pairs_per_bin <= MAX_PAIRS_PER_BIN):
            # the sampler is checked against binom.ppf up to here; binom.ppf
            # returns NaN at 2**53 pairs and does not return at 2**62
            raise ValueError(f"pairs_per_bin must lie in [1, {MAX_PAIRS_PER_BIN}]")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 bits")
        if self.dark_rate < 0:
            raise ValueError("dark_rate must be non-negative")
        _check_efficiency(self.efficiency)


@dataclass(frozen=True, eq=False)
class CountData:
    """Coincidences observed out of ``pairs_sent`` at each delay of ``grid``.

    ``coincidences`` and ``pairs_sent`` are int64 columns with one entry
    per grid point; ``clamped`` marks a success probability clamped at 1
    while sampling. ``len()`` is the number of delay bins.
    """

    grid: TimeGrid
    coincidences: np.ndarray
    pairs_sent: np.ndarray
    clamped: bool = False

    def __post_init__(self):
        shape = (self.grid.count,)
        _column(self, "pairs_sent", shape, dtype=np.int64, low=1)
        _column(self, "coincidences", shape, dtype=np.int64, low=0, high=self.pairs_sent)

    def __len__(self) -> int:
        return self.grid.count


def _keyed_uniforms(seed: int, stream: int, n: int) -> np.ndarray:
    """The first ``n`` uniforms of the Philox stream keyed by (seed, stream)."""
    return Generator(Philox(key=np.array([seed, stream], dtype=np.uint64))).random(n)


def _binomial_quantile(u: np.ndarray, n: int, p: np.ndarray) -> np.ndarray:
    """``np.clip(binom.ppf(u, n, p), 0, n)`` as int64, by a guided search.

    Each bin starts from the continuity-corrected Cornish-Fisher guess
    ``ceil(n p + sigma z + (z^2 - 1)(1 - 2p)/6 - 1/2)``, ``z = ndtri(u)``,
    and steps until ``binom.cdf(k-1) < u <= binom.cdf(k)``: about two CDF
    evaluations per bin, against the root finder inside ``binom.ppf``.
    Three rules of ``binom.ppf`` are kept: ``u <= (1-p)**n`` (by libm
    ``pow``) and ``u <= binom.pmf(0)`` give 0, and a run of k whose CDF
    equals u exactly resolves to its last member. Where the root finder of
    ``binom.ppf`` stops short (for u very close to 0 or 1, mostly with an
    "Unable to bracket root" warning) this still returns the quantile.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        z = ndtri(u)
        sigma = np.sqrt(n * p * (1 - p))
        guess = np.ceil(n * p + sigma * z + (z * z - 1) * (1 - 2 * p) / 6 - 0.5)
    k = np.clip(np.nan_to_num(guess), 0, n)

    # numpy's vectorised power may differ from libm pow in the last bits,
    # so it only preselects the bins to test with math.pow
    near = np.flatnonzero(u <= (1.0 - p) ** n * (1 + 2**-40))
    zero = np.zeros(u.size, dtype=bool)
    zero[near] = [
        ui <= math.pow(1.0 - pi, n) for ui, pi in zip(u[near].tolist(), p[near].tolist())
    ]
    k[zero] = 0

    c = np.ones_like(u)  # binom.cdf(k) of every searched bin
    todo = np.flatnonzero(~zero)
    c[todo] = binom.cdf(k[todo], n, p[todo])
    i = todo[c[todo] < u[todo]]
    down = todo[(c[todo] >= u[todo]) & (k[todo] > 0)]
    while i.size:
        k[i] += 1
        c[i] = binom.cdf(k[i], n, p[i])
        i = i[c[i] < u[i]]
    i = down
    while i.size:
        below = binom.cdf(k[i] - 1, n, p[i])
        moved = below >= u[i]
        i = i[moved]
        k[i] -= 1
        c[i] = below[moved]
        i = i[k[i] > 0]
    i = np.flatnonzero((c == u) & (k < n))
    while i.size:
        i = i[binom.cdf(k[i] + 1, n, p[i]) == u[i]]
        k[i] += 1
        i = i[k[i] < n]
    i = np.flatnonzero(k == 1)
    k[i[u[i] <= binom.pmf(0, n, p[i])]] = 0
    return k.astype(np.int64)


def sample_counts(
    interferogram: Interferogram,
    config: NoiseConfig,
    stream: int = 0,
    chunk_size: int | None = None,
) -> CountData:
    """Draw coincidence counts for every delay bin.

    The per-bin success probability ``efficiency^2 * P + dark_rate`` is
    clamped into [0, 1]; a clamp event is reported on the result. Each
    count is the binomial quantile of one keyed uniform, found by a guided
    search on ``binom.cdf`` that gives what ``binom.ppf`` gives, so the
    draw is deterministic and partition-independent: the search runs on
    blocks of ``chunk_size`` bins (all at once when None) without changing
    a bit.
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
    u = _keyed_uniforms(config.seed, stream, nbins)
    counts = np.empty(nbins, dtype=np.int64)
    for lo in range(0, nbins, chunk_size):
        block = slice(lo, lo + chunk_size)
        counts[block] = _binomial_quantile(u[block], config.pairs_per_bin, p[block])
    pairs = np.full(nbins, config.pairs_per_bin, dtype=np.int64)
    return CountData(interferogram.grid, counts, pairs, clamped)


def estimate_trace(
    counts: CountData, efficiency: float, dark_rate: float = 0.0
) -> CorrelationTrace:
    """Efficiency- and dark-corrected correlation estimate from counts.

    P_hat = (coincidences/pairs_sent - dark_rate)/efficiency^2 clamped to
    [0, 1], then G_hat = 2 P_hat - 1, on the counts' own delay grid.
    The output feeds :func:`noonspec.recovery.fourier_recover` unchanged.
    """
    _check_efficiency(efficiency)
    rates = counts.coincidences / counts.pairs_sent
    with np.errstate(over="ignore"):  # an overflow to +-inf clips to the bound it passed
        p_hat = np.clip((rates - dark_rate) / efficiency**2, 0.0, 1.0)
    return CorrelationTrace(counts.grid, 2.0 * p_hat - 1.0)


@dataclass(frozen=True, eq=False)
class ScalingStudy:
    """Empirical spread of the recovered peak versus pairs per bin.

    Three columns with one entry per trial count (the points of the
    study's axis): ``n_trials`` (int64, positive) and the sample standard
    deviations ``std_height`` and ``std_center`` (float, non-negative).
    ``exponent`` is the fitted slope of log(std_height) against
    log(n_trials); NaN when fewer than two usable points exist (a single
    trial count, or noise-free runs with zero spread). ``len()`` is the
    number of trial counts.
    """

    n_trials: np.ndarray
    std_height: np.ndarray
    std_center: np.ndarray
    exponent: float

    def __post_init__(self):
        _column(self, "n_trials", (np.size(self.n_trials),), dtype=np.int64, low=1)
        shape = self.n_trials.shape
        _column(self, "std_height", shape, low=0)
        _column(self, "std_center", shape, low=0)

    def __len__(self) -> int:
        return self.n_trials.size


def _dominant_peak(folded: SumFrequencySpectrum) -> tuple:
    """(center, height) of the strongest non-DC bin, parabolically refined."""
    w = folded.weights
    i = 1 + int(np.argmax(w[1:]))
    delta, height = _refined(w, i)
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
    ``repeats`` times on independent keyed streams; the study's columns
    hold the sample standard deviations of the refined peak height and center.
    Counting statistics put the height spread on a 1/sqrt(N) law, so the
    fitted exponent sits near -0.5. At least 20 repeats are recommended
    for a stable estimate.
    """
    if repeats < 2:
        raise ValueError("repeats must be at least 2")
    if not trial_counts:
        raise ValueError("trial_counts must not be empty")
    if grid is None:
        grid = default_time_grid()

    pattern = simulate_interferogram(spectrum, grid)
    n_trials = np.array([int(n) for n in trial_counts])
    std_height = np.empty(n_trials.size)
    std_center = np.empty(n_trials.size)
    for i_n, pairs in enumerate(n_trials.tolist()):
        heights = np.empty(repeats)
        centers = np.empty(repeats)
        cfg = replace(config, pairs_per_bin=pairs)
        for r in range(repeats):
            counts = sample_counts(
                pattern, cfg, stream=i_n * repeats + r, chunk_size=chunk_size
            )
            trace = estimate_trace(counts, cfg.efficiency, cfg.dark_rate)
            folded = fold_one_sided(fourier_recover(trace))
            centers[r], heights[r] = _dominant_peak(folded)
        std_height[i_n] = np.std(heights, ddof=1)
        std_center[i_n] = np.std(centers, ddof=1)

    usable = std_height > 0
    if np.count_nonzero(usable) >= 2:
        slope = np.polyfit(np.log(n_trials[usable]), np.log(std_height[usable]), 1)[0]
        exponent = float(slope)
    else:
        exponent = math.nan
    return ScalingStudy(n_trials, std_height, std_center, exponent)
