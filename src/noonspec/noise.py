"""Finite counting statistics on the interferogram.

Coincidence detection is modeled per delay bin as Binomial(pairs_per_bin,
efficiency^2 * P(t) + dark_rate): a fixed number of pairs is sent at each
delay and each survives detection independently. Dark counts enter as an
additive probability floor. A :class:`CountData` holds the delay grid
and two integer columns, coincidences and pairs sent.

Randomness is drawn from counter-based Philox streams keyed by
(seed, stream): one draw per stream gives every bin its uniform, the bin
index selecting the position inside the stream. Each bin's count is the
binomial quantile of its uniform, the value ``scipy.stats.binom.ppf``
returns. It is bracketed from one CDF and one PMF evaluation at a
Cornish-Fisher guess (the PMF step of BINV inversion); a bin whose
uniform lies within the ufuncs' error margin of the bracket's edge takes
an exact stepping search on the CDF instead. Each count is therefore a
pure function of (seed, stream, bin): however the bins are split into
blocks (``chunk_size``), the counts are bit-identical. A
:class:`ScalingStudy` is columnar too, one entry per trial count.

The CDF and PMF are the ``scipy.special`` ufuncs behind ``binom.cdf``
and ``binom.pmf``, loaded on the first draw, so importing this module
loads no scipy and drawing loads no ``scipy.stats`` (a scipy without
those ufuncs falls back to ``binom.cdf`` and ``binom.pmf`` themselves).

The scaling study runs its keyed (trial count, repeat) streams on every
CPU this process may run on, one forked worker per CPU, and puts the
results back in stream order, so its output does not depend on the
number of workers. ``multiprocessing`` loads only when a study forks.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

import numpy as np
from numpy.random import Generator, Philox

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


def _clipped(binom_ufunc, k: np.ndarray, n: int, p: np.ndarray) -> np.ndarray:
    """``binom.cdf`` or ``binom.pmf`` at integral k in [0, n], from the ufunc
    behind ``binom._cdf`` or ``binom._pmf``: there ``rv_discrete`` only clips
    it into [0, 1] (the CDF ufunc itself gives 1 at k = n)."""
    return np.clip(binom_ufunc(k, n, p), 0, 1)


def _margin(n: int) -> float:
    """How far ``cdf(k-1)`` may lie from ``cdf(k) - pmf(k)`` in float64.

    The ufuncs' gap grows to about 0.25 n eps for p in the tails and
    n >= 1e5; below n = 20 the rounding of the three values, a few eps,
    dominates. The margin is 16 times (n + 8) eps / 2, a bound above
    both, and at least ``8 spacing(c) + 8 n eps`` for any c <= 1.
    """
    return 8.0 * (n + 8) * np.finfo(float).eps


def _binomial_ufuncs() -> tuple:
    """``(ndtri, cdf, pmf)``: the normal quantile, ``binom.cdf`` and ``binom.pmf``.

    Only the noise layer draws counts, so only it loads ``scipy.special``;
    the binomial ufuncs give binom.cdf/pmf's bits without loading
    ``scipy.stats``. It is not memoised: once loaded, each import is a
    lookup in ``sys.modules``.
    """
    from scipy.special import ndtri

    try:
        from scipy.special._ufuncs import _binom_cdf, _binom_pmf
    except ImportError:  # a scipy whose binom does not expose them
        from scipy.stats import binom

        return ndtri, binom.cdf, binom.pmf
    return ndtri, partial(_clipped, _binom_cdf), partial(_clipped, _binom_pmf)


def _binomial_quantile(u: np.ndarray, n: int, p: np.ndarray) -> np.ndarray:
    """``np.clip(binom.ppf(u, n, p), 0, n)`` as int64, by a bracket on the CDF.

    Each bin starts from the continuity-corrected Cornish-Fisher guess
    ``ceil(n p + sigma z + (z^2 - 1)(1 - 2p)/6 - 1/2)``, ``z = ndtri(u)``,
    and takes c = ``binom.cdf(k)``. As ``cdf(k-1) = c - pmf(k)`` and
    ``cdf(k+1) = c + pmf(k+1)`` up to the ufuncs' error, one PMF settles
    the bin: k when ``c - pmf(k) + tol < u < c``, k + 1 when
    ``c < u`` and ``u + tol < c + pmf(k+1)``, with ``tol = _margin(n)``. That
    is one CDF and one PMF per bin, against the root finder inside
    ``binom.ppf``. Every other bin (a tie c == u, a u within tol of an
    edge, a guess off by two or more) steps on the CDF until
    ``binom.cdf(k-1) < u <= binom.cdf(k)``. Three rules of ``binom.ppf``
    are kept: ``u <= (1-p)**n`` (by libm ``pow``) and
    ``u <= binom.pmf(0)`` give 0, and a run of k whose CDF equals u
    exactly resolves to its last member. Where the root finder of
    ``binom.ppf`` stops short (for u very close to 0 or 1, mostly with an
    "Unable to bracket root" warning) this still returns the quantile.
    """
    ndtri, cdf, pmf = _binomial_ufuncs()
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
    kt, ut = k[todo], u[todo]
    c[todo] = ct = cdf(kt, n, p[todo])
    # the bracket: pmf(k) where cdf(k) > u, pmf(k + 1) where cdf(k) < u
    up = ct < ut
    pm = pmf(kt + up, n, p[todo])
    tol = _margin(n)
    sure = np.where(up, ut + tol < ct + pm, (ct > ut) & (ct - pm + tol < ut))
    k[todo[sure & up]] += 1
    # the exact search for the rest; a bracketed bin has c != u, so no tie
    todo = todo[~sure]
    i = todo[c[todo] < u[todo]]
    down = todo[(c[todo] >= u[todo]) & (k[todo] > 0)]
    while i.size:
        k[i] += 1
        c[i] = cdf(k[i], n, p[i])
        i = i[c[i] < u[i]]
    i = down
    while i.size:
        below = cdf(k[i] - 1, n, p[i])
        moved = below >= u[i]
        i = i[moved]
        k[i] -= 1
        c[i] = below[moved]
        i = i[k[i] > 0]
    i = np.flatnonzero((c == u) & (k < n))
    while i.size:
        i = i[cdf(k[i] + 1, n, p[i]) == u[i]]
        k[i] += 1
        i = i[k[i] < n]
    i = np.flatnonzero(k == 1)
    k[i[u[i] <= pmf(0, n, p[i])]] = 0
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
    count is the binomial quantile of one keyed uniform, bracketed on
    ``binom.cdf`` and ``binom.pmf`` to give what ``binom.ppf`` gives, so the
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
    ``exponent`` is the slope of log(std_height) against log(n_trials),
    fitted to the columns; NaN when fewer than two usable points exist (a
    single trial count, or noise-free runs with zero spread). The trial
    counts must be distinct, one row per point of the axis. ``len()`` is
    the number of trial counts.
    """

    n_trials: np.ndarray
    std_height: np.ndarray
    std_center: np.ndarray

    def __post_init__(self):
        _column(self, "n_trials", (np.size(self.n_trials),), dtype=np.int64, low=1)
        shape = self.n_trials.shape
        if np.unique(self.n_trials).size < self.n_trials.size:
            # a repeated count would fit the exponent through a single abscissa
            raise ValueError("trial_counts must be distinct")
        _column(self, "std_height", shape, low=0)
        _column(self, "std_center", shape, low=0)

    def __len__(self) -> int:
        return self.n_trials.size

    @property
    def exponent(self) -> float:
        usable = self.std_height > 0
        if np.count_nonzero(usable) < 2:
            return math.nan
        x, y = np.log(self.n_trials[usable]), np.log(self.std_height[usable])
        return float(np.polyfit(x, y, 1)[0])


def _dominant_peak(folded: SumFrequencySpectrum) -> tuple:
    """(center, height) of the strongest non-DC bin, parabolically refined."""
    w = folded.weights
    i = 1 + int(np.argmax(w[1:]))
    delta, height = _refined(w, i)
    return folded.grid.start + (i + delta) * folded.grid.step, height


def _workers() -> int:
    """The number of CPUs this process may run on, one study worker each."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _peaks(pattern: Interferogram, config: NoiseConfig, jobs, chunk_size) -> np.ndarray:
    """(center, height) of the dominant recovered peak, one row per
    ``(pairs_per_bin, stream)`` job: sample, estimate, transform, fold."""
    rows = np.empty((len(jobs), 2))
    for row, (pairs, stream) in zip(rows, jobs):
        cfg = replace(config, pairs_per_bin=pairs)
        counts = sample_counts(pattern, cfg, stream=stream, chunk_size=chunk_size)
        trace = estimate_trace(counts, cfg.efficiency, cfg.dark_rate)
        row[:] = _dominant_peak(fold_one_sided(fourier_recover(trace)))
    return rows


def _all_peaks(pattern, config, jobs, chunk_size) -> np.ndarray:
    """``_peaks`` of ``jobs``, split into one interleaved share per usable CPU.

    Each share is one task of a forked worker while this process waits;
    the rows come back in job order, so they do not depend on the split.
    With one CPU, one job or no ``fork`` start method the jobs run here.
    A worker's exception is raised here; a worker that dies raises
    ``ChildProcessError``.
    """
    workers = min(_workers(), len(jobs))
    if workers > 1:
        # imported here: at module level they would add ~30 ms to every import
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            _binomial_ufuncs()  # loaded once here, not in every worker on every call
            rows = np.empty((len(jobs), 2))
            context = multiprocessing.get_context("fork")
            try:
                with ProcessPoolExecutor(workers, mp_context=context) as pool:
                    shares = [
                        pool.submit(_peaks, pattern, config, jobs[w::workers], chunk_size)
                        for w in range(workers)
                    ]
                    for w, share in enumerate(shares):
                        rows[w::workers] = share.result()
            except BrokenProcessPool as exc:
                raise ChildProcessError(f"a noise-study worker process died: {exc}") from exc
            return rows
    return _peaks(pattern, config, jobs, chunk_size)


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

    The streams run in forked workers, one per CPU this process may run
    on (serially where there is one CPU or no ``fork``); each stream's
    result is a pure function of its key, so the study is bit-identical
    for any number of workers.
    """
    if repeats < 2:
        raise ValueError("repeats must be at least 2")
    if not trial_counts:
        raise ValueError("trial_counts must not be empty")
    n_trials = np.array([int(n) for n in trial_counts])
    # the study's own rules, and the config's on the largest count, before
    # any sampling
    zeros = np.zeros(n_trials.size)
    ScalingStudy(n_trials, zeros, zeros)
    replace(config, pairs_per_bin=int(n_trials.max()))
    if grid is None:
        grid = default_time_grid()

    pattern = simulate_interferogram(spectrum, grid)
    jobs = [
        (pairs, i_n * repeats + r)
        for i_n, pairs in enumerate(n_trials.tolist())
        for r in range(repeats)
    ]
    rows = _all_peaks(pattern, config, jobs, chunk_size)
    # np.std of one contiguous array per trial count, the layout it always summed
    centers, heights = np.ascontiguousarray(rows.T).reshape(2, -1, repeats)
    std_height = np.array([np.std(h, ddof=1) for h in heights])
    std_center = np.array([np.std(c, ddof=1) for c in centers])
    return ScalingStudy(n_trials, std_height, std_center)
