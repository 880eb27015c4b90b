"""Finite counting statistics on the interferogram.

Coincidence detection is modeled per delay bin as Binomial(pairs_per_bin,
efficiency^2 * P(t) + dark_rate): a fixed number of pairs is sent at each
delay and each survives detection independently. Dark counts enter as an
additive probability floor. A :class:`CountData` holds the delay grid,
one integer column of coincidences and the one number of pairs sent per
bin, an int checked by :func:`_check_pairs`, as every pairs count is.

Randomness is drawn from counter-based Philox streams keyed by
(seed, stream): one draw per stream gives every bin its uniform, the bin
index selecting the position inside the stream. Each bin's count is the
binomial quantile of its uniform, the value ``scipy.stats.binom.ppf``
returns. The streams drawn together (one for :func:`sample_counts`, all
of a trial count's repeats in a study) share each bin's n and p, so one
table of the CDF per bin, anchored by one CDF and one PMF evaluation and
run on by the PMF's ratio recurrence, settles most of their draws. The
tables return one mask of settled draws; an exact stepping search on the
CDF runs on the open ones alone, and binom.ppf's ``u <= pmf(0)`` rule on
every draw at k = 1 (pmf(0) may exceed cdf(0) by an ulp). Each count is
therefore a pure function of (seed, stream, bin): however the bins are
split into blocks and whichever streams share a table, the counts are
bit-identical. The sampler walks the bins in blocks of at most
``_DRAW_BINS``, each drawing its own uniforms from its start bin, so its
memory beyond the counts does not grow with the grid; ``chunk_size`` only
splits a block more finely. A :class:`ScalingStudy` is columnar too, one
per trial count.

The CDF and PMF are the ``scipy.special`` ufuncs behind ``binom.cdf``
and ``binom.pmf``, loaded on the first draw as ``numpy.random`` is, so
importing this module loads neither scipy nor ``numpy.random``, and
drawing loads no ``scipy.stats`` (a scipy without those ufuncs falls
back to ``binom.cdf`` and ``binom.pmf`` themselves).

The scaling study runs its keyed (trial count, repeat) streams on every
CPU this process may run on, one forked worker per CPU (in this process
where there is one CPU or no ``os.fork``), in two rounds of one pool. In
the draw round each worker draws a contiguous range of delay bins of
every stream, so each bin's CDF table is built once per trial count. The
counts go into one anonymous mapping that the workers share, as uint32,
4 B a draw (2.46 MB for 3 trial counts x 50 repeats x 4096 bins); like
the workers' own arrays, it lies outside ``tracemalloc``. In the peak
round each worker takes every W-th repeat (W workers) and carries each
trial count's share as one block of arrays from the estimate to the
folded spectra, with no object per stream. The results go back in stream
order, so the output does not depend on the number of workers.
``multiprocessing`` loads only when a study forks.
"""
from __future__ import annotations

import math
import mmap
import os
from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

import numpy as np

from ._numerics import _blocks
from .grids import FrequencyGrid, TimeGrid, _column, _integer
from .interferometer import CorrelationTrace, Interferogram, _correlation, simulate_interferogram
from .recovery import _folded, _peak_at, _transformed
from .spectral import SumFrequencySpectrum


MAX_PAIRS_PER_BIN = 2**31


def _check_efficiency(efficiency: float) -> None:
    # below about 1e-162 efficiency**2 is 0, and the trace estimate 0/0
    if not (0 < efficiency <= 1) or efficiency**2 == 0:
        raise ValueError("efficiency must lie in (0, 1] and square to a positive float")


def _check_dark_rate(dark_rate: float) -> None:
    # a NaN floor would draw all-zero counts and an infinite one all-n counts
    if not dark_rate < math.inf:
        raise ValueError(f"dark_rate must be finite, got {dark_rate}")
    if dark_rate < 0:
        raise ValueError("dark_rate must be non-negative")


def _check_pairs(value, name: str) -> int:
    """``value`` as an int of pairs per bin, the one rule for a pairs count:
    the integer rule, whose message names ``name``, then the range
    [1, MAX_PAIRS_PER_BIN], whose message names ``pairs_per_bin``."""
    pairs = _integer(value, name)
    if not (1 <= pairs <= MAX_PAIRS_PER_BIN):
        # the sampler is checked against binom.ppf up to here; binom.ppf
        # returns NaN at 2**53 pairs and does not return at 2**62
        raise ValueError(f"pairs_per_bin must lie in [1, {MAX_PAIRS_PER_BIN}]")
    return pairs


@dataclass(frozen=True)
class NoiseConfig:
    pairs_per_bin: int
    seed: int
    dark_rate: float = 0.0
    efficiency: float = 1.0

    def __post_init__(self):
        # stored as the int the rule returns: 1000.0 as 1000, while True (one
        # pair, or seed 0 for False), 1000.5 pairs (drawn at n = 1000.5 and
        # recorded as 1000 sent) and seed 1.5 (the streams of seed 1) fail
        object.__setattr__(self, "pairs_per_bin", _check_pairs(self.pairs_per_bin, "pairs_per_bin"))
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 bits")
        _check_dark_rate(self.dark_rate)
        _check_efficiency(self.efficiency)


@dataclass(frozen=True, eq=False)
class CountData:
    """Coincidences observed out of ``pairs`` sent at each delay of ``grid``.

    ``coincidences`` is an int64 column with one entry per grid point, each
    in [0, pairs]; ``pairs`` is the one number of pairs sent in every bin,
    an int. ``clamped`` marks a success probability clamped at 1 while
    sampling. ``len()`` is the number of delay bins.
    """

    grid: TimeGrid
    coincidences: np.ndarray
    pairs: int
    clamped: bool = False

    def __post_init__(self):
        object.__setattr__(self, "pairs", _check_pairs(self.pairs, "CountData pairs"))
        _column(self, "coincidences", (self.grid.count,), dtype=np.int64, low=0, high=self.pairs)

    def __len__(self) -> int:
        return self.grid.count


def _keyed_uniforms(seed: int, stream: int, n: int, start: int = 0) -> np.ndarray:
    """Uniforms ``start`` to ``n - 1`` of the Philox stream keyed by (seed, stream)."""
    # here, not at module level: simulate without noise and recover never draw
    from numpy.random import Generator, Philox

    bitgen = Philox(key=np.array([seed, stream], dtype=np.uint64))
    # one Philox4x64 step is four doubles: skip whole steps, then drop the rest
    bitgen.advance(start // 4)
    return Generator(bitgen).random(n - start // 4 * 4)[start % 4 :]


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


# cells of one block of CDF tables: it bounds a block's table and index
# arrays at a few MB whatever the number of pairs per bin, and 2**16 cells
# (512 kB a column array) ran faster than 2**14 or 2**18 on the preset
_TABLE_CELLS = 1 << 16
# a bin whose table would span more cells than this per draw gives each
# draw a three-cell table of its own (at 2**31 pairs a span is ~1e5 cells)
_CELLS_PER_DRAW = 128
# bins per block of the count sampler's walk: a block's uniforms,
# probabilities and quantile arrays span this many bins of each stream, and
# a study worker's share of the preset's 4096 bins is one block
_DRAW_BINS = 4096
# the table's rounding, per cell, in units of eps: 16 times eps/2, against
# at most 0.29 eps per cell measured against long double
_TABLE_ROUNDING = 8


def _accumulate(ufunc, a: np.ndarray) -> None:
    """``ufunc.accumulate(a, axis=0)`` in place, the same bits either way.

    numpy's accumulate costs about 5 ns per element whatever the shape, so
    an array with no more rows than columns runs one vector operation per
    row instead.
    """
    if a.shape[0] > a.shape[1]:
        ufunc.accumulate(a, axis=0, out=a)
        return
    for j in range(1, a.shape[0]):
        ufunc(a[j - 1], a[j], out=a[j])


def _cdf_table(kmin: np.ndarray, width: int, n: int, p: np.ndarray, cdf, pmf) -> np.ndarray:
    """C~(kmin - 1 + j) in row j < ``width``, one column per anchor.

    Each column takes one ``cdf(kmin)`` and one ``pmf`` at its most
    probable cell, the mode clipped into the column (the ufunc's PMF loses
    relative precision far in a tail, and the column would scale that
    error up to its whole mass). The PMF of every other cell follows from
    the ratios ``pmf(k+1)/pmf(k) = (n-k)/(k+1) p/(1-p)`` by a running
    product, and the CDF is ``cdf(kmin)`` plus the running sum of the PMF,
    and ``cdf(kmin) - pmf(kmin)`` one cell below. Cells past a column's own
    span carry on the recurrence, and a column whose ratios overflow
    (p = 1) is NaN, which settles no draw.
    """
    table = np.empty((width, kmin.size))
    k = np.arange(1.0, width - 1)[:, None] + kmin
    mode = np.minimum(np.maximum(np.floor((n + 1) * p), kmin), kmin + width - 2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(n + 1 - k, k, out=k)
        np.multiply(k, p / (1 - p), out=table[2:])
        table[1] = 1.0
        _accumulate(np.multiply, table[1:])
        # the ratios rise up to the mode, so a column overflows there first
        at = (mode - kmin + 1).astype(np.intp) * kmin.size + np.arange(kmin.size)
        top = table.ravel()[at]
        table[1:] *= np.where(np.isfinite(top), pmf(mode, n, p) / top, np.nan)
        c = cdf(kmin, n, p)
        table[0] = c - table[1]
        table[1] = c
        _accumulate(np.add, table[1:])
    return table


def _table_tol(n: int, width) -> float:
    """How far a cell of a ``width``-cell table may lie from ``binom.cdf``:
    the ufuncs' margin plus the rounding of the recurrence and the sum."""
    return _margin(n) + _TABLE_ROUNDING * width * np.finfo(float).eps


def _settle_on_tables(k, u, p, live, n: int, cdf, pmf) -> np.ndarray:
    """The mask of the draws that their bin's CDF table settles.

    ``k``, ``u`` and ``live`` hold one row per stream and one column per
    bin of ``p``; a bin with no ``live`` draw gets no table. A draw settled
    as k + 1 is moved there in ``k``. A settled draw has
    ``C~(k-1) + tol < u < C~(k) - tol`` (no tolerance at the anchor cell,
    ``cdf(kmin)`` itself), and every cell lies within tol/16 of
    ``binom.cdf``, so ``cdf(k-1) < u < cdf(k)``: the exact search would
    leave it as it is.
    """
    streams = k.shape[0]
    kmin = k.min(axis=0)
    width = k.max(axis=0) - kmin + 3
    drawn = np.count_nonzero(live, axis=0)
    shared = (drawn > 0) & (width <= _CELLS_PER_DRAW * drawn)
    settled = np.zeros(k.shape, dtype=bool)
    wide = np.flatnonzero((drawn > 0) & ~shared)
    if wide.size:
        # one bin per draw: each draw gets a three-cell table of its own
        flat = (1, wide.size * streams)
        kw = k[:, wide].reshape(flat)
        settled[:, wide] = _settle_on_tables(
            kw, u[:, wide].reshape(flat), np.tile(p[wide], streams),
            live[:, wide].reshape(flat), n, cdf, pmf,
        ).reshape(streams, -1)
        k[:, wide] = kw.reshape(streams, -1)

    # the widest tables first, so each block pads its columns to about their width
    tables = np.flatnonzero(shared)
    tables = tables[np.argsort(-width[tables], kind="stable")]
    first = 0
    while first < tables.size:
        cells = int(width[tables[first]])
        block = tables[first : first + max(1, _TABLE_CELLS // cells)]
        low = kmin[block]
        table = _cdf_table(low, cells, n, p[block], cdf, pmf).ravel()
        # each draw's guess, as an index into the flat table
        kb, ub = k[:, block], u[:, block]
        at = (kb - low + 1).astype(np.intp) * block.size + np.arange(block.size)
        below, c, above = table[at - block.size], table[at], table[at + block.size]
        tol = _table_tol(n, cells)
        # the anchor cell is cdf(kmin) itself: no tolerance at that edge
        tol_c = np.where(kb == low, 0.0, tol)
        here = (below + tol < ub) & (ub < c - tol_c)
        up = (c + tol_c < ub) & (ub < above - tol)
        k[:, block] = kb + up
        settled[:, block] = here | up
        first += block.size
    return settled


def _binomial_quantile(u: np.ndarray, n: int, p: np.ndarray) -> np.ndarray:
    """``np.clip(binom.ppf(u, n, p), 0, n)`` as int64, from CDF tables.

    ``u`` holds one row of uniforms per stream (or a single row) and ``p``
    one success probability per bin, the last axis of ``u``. Each draw
    starts from the continuity-corrected Cornish-Fisher guess
    ``ceil(n p + sigma z + (z^2 - 1)(1 - 2p)/6 - 1/2)``, ``z = ndtri(u)``.
    The draws of one bin share n and p, so one :func:`_cdf_table` column
    per bin, from the bin's lowest guess kmin to one past its highest,
    serves them all: that is one CDF and one PMF per bin, against the root
    finder inside ``binom.ppf``. A draw is settled as k when
    ``C~(k-1) + tol < u < C~(k) - tol``, and as k + 1 when
    ``C~(k) + tol < u < C~(k+1) - tol``, with ``tol = _table_tol``, and no
    tolerance at the anchor ``C~(kmin) = cdf(kmin)``. A bin
    whose column would span more than ``_CELLS_PER_DRAW`` cells per draw
    gives each draw a three-cell column of its own (the PMF step of BINV
    inversion), and columns are built in blocks of about ``_TABLE_CELLS``
    cells, so memory does not grow with n.

    The tables return the mask of settled draws; the open ones (a u
    within tol of an edge, a guess off by two or more) are gathered and
    step on the CDF until ``binom.cdf(k-1) < u <= binom.cdf(k)``. Four
    rules of ``binom.ppf`` are kept: ``u >= 1`` gives n, a smaller
    ``u <= (1-p)**n`` (by libm ``pow``) gives 0, a run of k whose CDF
    equals u exactly resolves to its last member, and
    ``u <= binom.pmf(0)`` gives 0 on every draw at k = 1, settled or not:
    pmf(0) may exceed cdf(0) by an ulp, and the anchor cell settles a u
    between them at 1. A settled draw has the search's answer, so each
    count is a pure function of its u and p, whichever other draws share
    its table. Where the root finder of
    ``binom.ppf`` stops short (for u very close to 0 or 1, mostly with an
    "Unable to bracket root" warning) this still returns the quantile.
    """
    ndtri, cdf, pmf = _binomial_ufuncs()
    shape = u.shape
    u = u.reshape(-1, p.size)
    # the top of the support: u >= 1 gives n for every p, even where
    # (1-p)**n rounds to 1 and the zero rule would claim it
    top = u >= 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        z = ndtri(u)
        sigma = np.sqrt(n * p * (1 - p))
        guess = np.ceil(n * p + sigma * z + (z * z - 1) * (1 - 2 * p) / 6 - 0.5)
        # exp(n log(1-p)) lies within 2.5e-13 of libm pow(1-p, n) wherever
        # that is a normal float (the log's rounding, 1.5 eps, times the log,
        # at most 745), so it only preselects the draws to test with
        # math.pow; it costs a third of numpy's power
        near = np.flatnonzero((u <= np.exp(n * np.log(1.0 - p)) * (1 + 2**-36)) & ~top)
    k = np.fmin(np.fmax(guess, 0), n)  # a NaN guess (p = 0 or 1 at u = 0) is 0
    zero = np.zeros(u.shape, dtype=bool)
    zero.flat[near] = [
        ui <= math.pow(1.0 - pi, n)
        for ui, pi in zip(u.flat[near].tolist(), p[near % p.size].tolist())
    ]
    # the exact search on the draws that neither a rule nor a table settled
    ruled = zero | top
    todo = np.flatnonzero(~(ruled | _settle_on_tables(k, u, p, ~ruled, n, cdf, pmf)))
    k[zero] = 0
    kt, ut, pt = k.flat[todo], u.flat[todo], p[todo % p.size]
    c = cdf(kt, n, pt)
    i = np.flatnonzero(c < ut)
    down = np.flatnonzero((c >= ut) & (kt > 0))
    while i.size:
        kt[i] += 1
        c[i] = cdf(kt[i], n, pt[i])
        i = i[c[i] < ut[i]]
    i = down
    while i.size:
        below = cdf(kt[i] - 1, n, pt[i])
        moved = below >= ut[i]
        i = i[moved]
        kt[i] -= 1
        c[i] = below[moved]
        i = i[kt[i] > 0]
    i = np.flatnonzero((c == ut) & (kt < n))
    while i.size:
        i = i[cdf(kt[i] + 1, n, pt[i]) == ut[i]]
        kt[i] += 1
        i = i[kt[i] < n]
    k.flat[todo] = kt
    # on every draw at 1, settled or not: pmf(0) may exceed cdf(0) by an ulp
    i = np.flatnonzero(k == 1)
    k.flat[i[u.flat[i] <= pmf(0, n, p[i % p.size])]] = 0
    k[top] = n
    return k.astype(np.int64).reshape(shape)


def _sample_streams(
    interferogram: Interferogram,
    config: NoiseConfig,
    streams: Sequence[int],
    out: np.ndarray,
    chunk_size: int | None = None,
    lo: int = 0,
) -> bool:
    """Draw the counts of ``streams`` into ``out``; return the clamp flag.

    ``out`` holds one row per stream and one column per delay bin, from bin
    ``lo`` on. The bins are walked in blocks of at most ``_DRAW_BINS``;
    each block draws its streams' uniforms and its probabilities, and
    ``chunk_size`` (all of a block when None) splits its quantiles
    further. The streams share every bin's n and p, so they share its CDF
    table (see :func:`_binomial_quantile`); each count is still a pure
    function of (seed, stream, bin).
    """
    clamped = False
    for a, b in _blocks(out.shape[1], _DRAW_BINS):
        u = np.array([_keyed_uniforms(config.seed, s, lo + b, lo + a) for s in streams])
        p = config.efficiency**2 * interferogram.values[lo + a : lo + b] + config.dark_rate
        clamped |= bool(np.any(p > 1.0))
        np.clip(p, 0.0, 1.0, out=p)
        for c, d in _blocks(b - a, chunk_size or _DRAW_BINS):
            out[:, a + c : a + d] = _binomial_quantile(u[:, c:d], config.pairs_per_bin, p[c:d])
    return clamped


def _chunk_size(chunk_size) -> int | None:
    """``chunk_size`` as a positive int, or None for whole blocks."""
    if chunk_size is not None:
        chunk_size = _integer(chunk_size, "chunk_size")
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
    return chunk_size


def sample_counts(
    interferogram: Interferogram,
    config: NoiseConfig,
    stream: int = 0,
    chunk_size: int | None = None,
) -> CountData:
    """Draw coincidence counts for every delay bin.

    The per-bin success probability ``efficiency^2 * P + dark_rate`` is
    clamped into [0, 1]; a clamp event is reported on the result. Each
    count is the binomial quantile of one keyed uniform, settled on a
    table of ``binom.cdf`` built from one CDF and one PMF per bin (see
    :func:`_binomial_quantile`), to give what ``binom.ppf`` gives. This is
    the one-stream draw of the block that a study draws for each trial
    count. It is deterministic and partition-independent: it walks the
    bins in blocks of at most ``_DRAW_BINS``, which bounds its memory
    beyond the counts' column, and ``chunk_size`` only splits those blocks
    further, without changing a bit. ``stream``, an integer in
    [0, 2**64), distinguishes repeated experiments under the same seed.
    """
    stream, chunk_size = _integer(stream, "stream"), _chunk_size(chunk_size)
    if not 0 <= stream < 2**64:
        raise ValueError("stream must fit in 64 bits")
    row = np.empty(interferogram.grid.count, dtype=np.int64)
    clamped = _sample_streams(interferogram, config, [stream], row[None], chunk_size)
    row.setflags(write=False)  # given up, so CountData keeps it without a copy
    return CountData(interferogram.grid, row, config.pairs_per_bin, clamped)


def estimate_trace(
    counts: CountData, efficiency: float, dark_rate: float = 0.0
) -> CorrelationTrace:
    """Efficiency- and dark-corrected correlation estimate from counts.

    P_hat = (coincidences/pairs - dark_rate)/efficiency^2 clamped to
    [0, 1], then G_hat = 2 P_hat - 1, on the counts' own delay grid.
    The output feeds :func:`noonspec.recovery.fourier_recover` unchanged.
    ``efficiency`` and ``dark_rate`` follow :class:`NoiseConfig`'s rules.
    """
    g = _estimated(counts.coincidences, counts.pairs, efficiency, dark_rate)
    g.setflags(write=False)  # so CorrelationTrace keeps it without a copy
    return CorrelationTrace(counts.grid, g)


def _estimated(coincidences, pairs: int, efficiency: float, dark_rate: float) -> np.ndarray:
    """G_hat of :func:`estimate_trace`, elementwise. Each count and ``pairs``
    are exact in float64, so dividing by the int has the bits of dividing
    by a column of it."""
    _check_dark_rate(dark_rate)
    _check_efficiency(efficiency)
    # the steps of (coincidences / pairs - dark_rate) / efficiency**2, in place
    p_hat = np.divide(coincidences, pairs)
    p_hat -= dark_rate
    with np.errstate(over="ignore"):  # an overflow to +-inf clips to the bound it passed
        p_hat /= efficiency**2
    return _correlation(np.clip(p_hat, 0.0, 1.0, out=p_hat), out=p_hat)


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


def _workers() -> int:
    """The number of CPUs this process may run on, one study worker each."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _draw_bins(study: tuple, lo: int, hi: int) -> None:
    """The draw round over the delay bins [lo, hi): every stream of every
    trial count, into the study's uint32 counts, so each bin's CDF table
    is built once per trial count."""
    pattern, config, n_trials, streams, chunk_size, counts = study
    for pairs, keys, out in zip(n_trials, streams, counts):
        cfg = replace(config, pairs_per_bin=pairs)
        _sample_streams(pattern, cfg, keys, out[:, lo:hi], chunk_size, lo)


def _peak_rows(study: tuple, share: slice) -> np.ndarray:
    """The peak round on the columns ``share`` of the study's streams:
    (center, height) of the strongest non-DC bin of each stream's folded
    spectrum, parabolically refined. A trial count's streams are estimated
    from their drawn counts, transformed and folded as one block."""
    pattern, config, n_trials, _, _, counts = study
    rows = np.empty(counts[:, share].shape[:2] + (2,))
    for pairs, drawn, out in zip(n_trials, counts[:, share], rows):
        g = _estimated(drawn, pairs, config.efficiency, config.dark_rate)
        grid, half = _transformed(g, pattern.grid)
        folded = FrequencyGrid(0.0, grid.step, half.shape[-1])
        for row, w in zip(out, _folded(half, grid.count)):
            row[:] = _peak_at(w, folded, 1 + int(np.argmax(w[1:])))
        del g, half  # not held through the next estimate: 26 MB on a 2**16 grid
    return rows


def _end_with(parent: int) -> None:
    """Make this forked worker exit once ``parent`` is no longer its parent.

    A parent killed by a signal never shuts its pool down, and the workers
    would wait for tasks forever. A daemon thread watches ``os.getppid()``,
    which changes when the parent dies, on every platform with ``os.fork``.
    """
    import threading
    import time

    def watch():
        while os.getppid() == parent:
            time.sleep(0.1)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


# a forked study worker's study: its inputs, then its view of the shared counts
_study = None


def _start_worker(parent: int, inputs: tuple, buf, shape: tuple) -> None:
    """The initializer of a study worker, whose arguments reach it by fork."""
    global _study
    _end_with(parent)
    _study = inputs + (np.ndarray(shape, np.uint32, buf),)


def _in_worker(task, *indices):
    """``task`` on this worker's study and the task's ``indices``."""
    return task(_study, *indices)


def _all_peaks(pattern, config, n_trials, streams, chunk_size) -> np.ndarray:
    """The refined (center, height) of each stream, on one forked worker per
    CPU. Row i of ``streams`` is drawn at ``n_trials[i]`` pairs per bin.

    The study runs in two rounds of one pool, each split along the axis its
    work shares. The draw round gives each worker a contiguous range of
    delay bins of every stream, so each bin's CDF table is built once per
    trial count, and the workers write their counts into one shared
    anonymous mapping. The peak round gives each worker every W-th repeat
    (W workers) of each trial count, whole rows, to estimate, transform
    and fold; the rows come back in stream order, so they do not depend on
    the split. Tasks carry indices alone: the inputs and the mapping reach
    the workers by fork. With one CPU, one repeat or no ``os.fork`` both
    rounds run here. A worker's exception is raised here; a worker that
    dies raises ``ChildProcessError``, and the workers exit when this
    process dies (``_end_with``).
    """
    inputs = (pattern, config, n_trials, streams, chunk_size)
    nbins = pattern.grid.count
    shape = streams.shape + (nbins,)
    workers = min(_workers(), streams.shape[1])
    if workers == 1 or not hasattr(os, "fork"):
        # the counts lie in an anonymous mapping here too, outside the heap;
        # this one is unmapped with its last view
        study = inputs + (np.ndarray(shape, np.uint32, mmap.mmap(-1, 4 * math.prod(shape))),)
        _draw_bins(study, 0, nbins)
        return _peak_rows(study, slice(None))
    # imported here: at module level they would add ~30 ms to every import
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing import get_context

    _binomial_ufuncs()  # loaded once here, not in every worker on every call
    edges = [nbins * w // workers for w in range(workers + 1)]
    shares = [slice(w, None, workers) for w in range(workers)]
    rows = np.empty(streams.shape + (2,))
    try:
        # this process makes no view of the mapping, so it always closes
        with mmap.mmap(-1, 4 * math.prod(shape)) as buf, ProcessPoolExecutor(
            workers,
            mp_context=get_context("fork"),
            initializer=_start_worker,
            initargs=(os.getpid(), inputs, buf, shape),
        ) as pool:
            # each round ends when its last task does, and raises a worker's exception
            list(pool.map(partial(_in_worker, _draw_bins), edges[:-1], edges[1:]))
            for share, share_rows in zip(shares, pool.map(partial(_in_worker, _peak_rows), shares)):
                rows[:, share] = share_rows
    except BrokenProcessPool as exc:
        raise ChildProcessError(f"a noise-study worker process died: {exc}") from exc
    return rows


def error_scaling_study(
    spectrum: SumFrequencySpectrum,
    trial_counts: Sequence[int],
    repeats: int,
    config: NoiseConfig,
    grid: TimeGrid,
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
    on (serially where there is one CPU or no ``os.fork``), in two rounds.
    The draw round splits the delay bins, so every bin's CDF table serves
    all the repeats of a trial count once; the workers write the counts
    into one shared anonymous mapping, 4 B a draw, which ``tracemalloc``
    does not see. The peak round splits the repeats, each worker
    estimating, transforming and folding every W-th one. Each stream's
    result is a pure function of its key, so the study is bit-identical
    for any number of workers.
    """
    # every input is checked before any work, each count by the pairs rule
    repeats, chunk_size = _integer(repeats, "repeats"), _chunk_size(chunk_size)
    if repeats < 2:
        raise ValueError("repeats must be at least 2")
    counts = [_check_pairs(n, "trial count") for n in trial_counts]
    if not counts:
        raise ValueError("trial_counts must not be empty")
    n_trials = np.array(counts)
    zeros = np.zeros(n_trials.size)
    ScalingStudy(n_trials, zeros, zeros)  # so the counts are distinct

    pattern = simulate_interferogram(spectrum, grid)
    streams = np.arange(n_trials.size * repeats).reshape(-1, repeats)
    rows = _all_peaks(pattern, config, n_trials.tolist(), streams, chunk_size)
    centers, heights = np.moveaxis(rows, -1, 0)
    return ScalingStudy(
        n_trials, np.std(heights, axis=1, ddof=1), np.std(centers, axis=1, ddof=1)
    )
