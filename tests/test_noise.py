import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import _ufuncs
from scipy.stats import binom

from noonspec import (
    AsymmetryError,
    CountData,
    FrequencyGrid,
    Interferogram,
    NoiseConfig,
    ScalingStudy,
    SumFrequencySpectrum,
    TimeGrid,
    error_scaling_study,
    estimate_trace,
    fold_one_sided,
    fourier_recover,
    gaussian_pump_spectrum,
    make_frequency_grid,
    sample_counts,
    simulate_interferogram,
)
from noonspec import noise
from noonspec.cli import main, parse_scenario
from noonspec.noise import _binomial_quantile, _clipped, _keyed_uniforms, _margin
from noonspec.presets import preset_scenario
from noonspec.recovery import RecoveredSpectrum, _folded, _refined, _transformed
from conftest import centered_time_grid, fork_only, peak_above_inputs


def small_interferogram(count=32):
    tg = centered_time_grid(5e-4, count)
    values = 0.5 * (1 + np.cos(2 * np.pi * 700.0 * tg.values))
    return Interferogram(tg, values)


class TestSampleCounts:
    def test_law_of_large_numbers(self):
        # binomial concentration oracle: at 1e6 pairs the rate sits within
        # 3 sigma of efficiency^2 * P for this fixed seed
        pattern = small_interferogram()
        cfg = NoiseConfig(pairs_per_bin=10**6, seed=11, efficiency=0.8)
        data = sample_counts(pattern, cfg)
        p = 0.8**2 * pattern.values
        for c, sent, p_bin in zip(data.coincidences, data.pairs_sent, p):
            sigma = math.sqrt(max(p_bin * (1 - p_bin), 1e-12) / cfg.pairs_per_bin)
            assert abs(c / sent - p_bin) <= 3 * sigma + 1e-9

    def test_dark_free_zero_pattern_gives_zero_counts(self):
        tg = centered_time_grid(5e-4, 16)
        pattern = Interferogram(tg, np.zeros(16))
        data = sample_counts(pattern, NoiseConfig(pairs_per_bin=1000, seed=3))
        assert np.all(data.coincidences == 0)

    def test_same_seed_same_counts_any_partition(self):
        pattern = small_interferogram(64)
        cfg = NoiseConfig(pairs_per_bin=500, seed=42, efficiency=0.9)
        full = sample_counts(pattern, cfg)
        for chunk in (1, 5, 17, 64):
            again = sample_counts(pattern, cfg, chunk_size=chunk)
            assert again.grid == full.grid
            for column in ("coincidences", "pairs_sent"):
                np.testing.assert_array_equal(
                    getattr(again, column), getattr(full, column)
                )
        other_stream = sample_counts(pattern, cfg, stream=1)
        assert not np.array_equal(other_stream.coincidences, full.coincidences)

    @pytest.mark.parametrize("start", [0, 1, 3, 4, 2047])
    def test_uniforms_of_a_bin_range_are_the_slice_of_the_stream(self, start):
        # one Philox4x64 step is four doubles: a range skips whole steps
        full = _keyed_uniforms(5, 3, 4099)
        for n in (start, start + 1, start + 5, 4099):
            np.testing.assert_array_equal(_keyed_uniforms(5, 3, n, start), full[start:n])

    # the walk's blocks of at most _DRAW_BINS bins: the default, and small
    # bounds whose blocks start off a Philox step of four uniforms
    @pytest.mark.parametrize("bound", [None, 1, 7, 40])
    def test_a_bin_range_draws_the_slice_of_the_whole_draw(self, monkeypatch, bound):
        pattern = small_interferogram(64)
        cfg = NoiseConfig(pairs_per_bin=500, seed=42, efficiency=0.9)
        whole = np.empty((3, 64), dtype=np.int64)
        noise._sample_streams(pattern, cfg, [0, 5, 9], whole)
        if bound is not None:
            monkeypatch.setattr(noise, "_DRAW_BINS", bound)
        for lo, hi in [(0, 64), (1, 4), (3, 64), (6, 59), (63, 64), (10, 10)]:
            for chunk in (None, 7):
                part = np.empty((3, hi - lo), dtype=np.int64)
                noise._sample_streams(pattern, cfg, [0, 5, 9], part, chunk, lo)
                np.testing.assert_array_equal(part, whole[:, lo:hi])
        # into a view of a larger array, as a study draws into its uint32 counts
        out = np.zeros((3, 70), dtype=np.uint32)
        noise._sample_streams(pattern, cfg, [0, 5, 9], out[:, 5:66], 7, 3)
        np.testing.assert_array_equal(out[:, 5:66], whole[:, 3:])
        assert not out[:, :5].any() and not out[:, 66:].any()

    def test_sampling_holds_its_columns_and_one_block(self):
        # 4,461,193 bytes at 2**18 bins, 17.02 a bin: the two int64 columns
        # and CountData's one-byte checks; each block of the walk draws its
        # own uniforms and probabilities. Drawing every bin's uniforms before
        # the walk took 24.0 bytes a bin, and every bin's probabilities as
        # well 34.7; the whole grid as one block took 117.3 (33.0 in chunks
        # of 1000 bins)
        pattern = small_interferogram(2**18)
        cfg = NoiseConfig(pairs_per_bin=1000, seed=3, efficiency=0.9)
        sample_counts(small_interferogram(), cfg)  # scipy's first-call set-up
        for chunk in (None, 1000):
            peak = peak_above_inputs(lambda: sample_counts(pattern, cfg, chunk_size=chunk))
            assert peak < 18 * 2**18

    def test_non_positive_chunk_size_rejected(self, monkeypatch):
        pattern = small_interferogram()
        cfg = NoiseConfig(pairs_per_bin=100, seed=1)
        monkeypatch.setattr(noise, "_sample_streams", None)  # checked before any draw
        for chunk in (0, -5):
            with pytest.raises(ValueError, match="chunk_size must be positive"):
                sample_counts(pattern, cfg, chunk_size=chunk)

    def test_stream_is_a_64_bit_key(self):
        # -1 used to raise an OverflowError from Philox's key
        pattern = small_interferogram()
        cfg = NoiseConfig(pairs_per_bin=100, seed=1)
        for stream in (-1, 2**64):
            with pytest.raises(ValueError, match="stream must fit in 64 bits"):
                sample_counts(pattern, cfg, stream=stream)
        top = sample_counts(pattern, cfg, stream=2**64 - 1)
        again = sample_counts(pattern, cfg, stream=np.uint64(2**64 - 1))
        np.testing.assert_array_equal(again.coincidences, top.coincidences)

    def test_probability_clamp_flag(self):
        pattern = small_interferogram()
        clean = sample_counts(pattern, NoiseConfig(pairs_per_bin=100, seed=1))
        assert not clean.clamped
        noisy = sample_counts(
            pattern, NoiseConfig(pairs_per_bin=100, seed=1, dark_rate=0.5)
        )
        assert noisy.clamped
        assert np.all(noisy.coincidences <= noisy.pairs_sent)


class TestBinomialQuantile:
    """The guided search against ``binom.ppf``, on the uniforms the sampler draws.

    ``Generator.random`` returns multiples of 2**-53 in [0, 1), so u is
    drawn as such a multiple (0 included).
    """

    cases = dict(
        n=st.integers(1, 2**31),
        p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        u=st.integers(0, 2**53 - 1).map(lambda m: m * 2.0**-53),
    )

    @staticmethod
    def quantile(u, n, p):
        return int(_binomial_quantile(np.array([u]), n, np.array([p]))[0])

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(**cases)
    # draws where binom.ppf returns 0 by its u <= pmf(0) rule and by its
    # u <= (1-p)**n rule with libm pow (numpy's power is an ulp lower there)
    @example(n=25, p=2.5751329311206176e-16, u=0.9999999999999973)
    @example(n=423796804, p=5.885845183849274e-10, u=0.7792368496041203)
    def test_equals_binom_ppf(self, n, p, u):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = int(np.clip(binom.ppf(u, n, p), 0, n))
        # binom.ppf's root finder sometimes stops short of the quantile, and
        # its answer then contradicts binom.cdf: a few draws in 10**4 with u
        # within 1e-7 of 0 or 1 or p within an ulp of 1, most of them with an
        # "Unable to bracket root" warning. There it is no oracle.
        if expected > 0 and not (
            binom.cdf(expected - 1, n, p) <= u <= binom.cdf(expected, n, p)
        ):
            return
        assert self.quantile(u, n, p) == expected

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(**cases)
    @example(n=25, p=2.5751329311206176e-16, u=0.9999999999999973)
    @example(n=423796804, p=5.885845183849274e-10, u=0.7792368496041203)
    def test_is_the_cdf_quantile(self, n, p, u):
        k = self.quantile(u, n, p)
        assert 0 <= k <= n
        zero_rule = u <= math.pow(1.0 - p, n) or u <= binom.pmf(0, n, p)
        if k == 0:
            assert zero_rule or binom.cdf(0, n, p) >= u
            return
        assert not zero_rule
        below, at = binom.cdf(k - 1, n, p), binom.cdf(k, n, p)
        # a run of k with cdf == u exactly ends at its last member
        assert below < u <= at or below == u == at
        if at == u and k < n:
            assert binom.cdf(k + 1, n, p) != u

    def test_sample_counts_match_binom_ppf_on_noise_gauss(self):
        scenario = parse_scenario(preset_scenario("noise-gauss"), Path.cwd())
        pattern = simulate_interferogram(scenario.spectrum, scenario.time_grid)
        eff = scenario.noise.efficiency
        p = np.clip(eff**2 * pattern.values + scenario.noise.dark_rate, 0.0, 1.0)
        for pairs in (1000, 10**4, 10**5):
            cfg = NoiseConfig(pairs_per_bin=pairs, seed=scenario.noise.seed, efficiency=eff)
            for stream in (0, 7):
                u = _keyed_uniforms(cfg.seed, stream, pattern.grid.count)
                expected = np.clip(binom.ppf(u, pairs, p), 0, pairs).astype(np.int64)
                drawn = sample_counts(pattern, cfg, stream=stream)
                np.testing.assert_array_equal(drawn.coincidences, expected)


@pytest.fixture
def cdf_calls(monkeypatch):
    """The CDF evaluations of the sampler, one entry per call of the ufunc
    (or of ``binom.cdf`` on a scipy without it)."""
    calls = []
    owner, name = (_ufuncs, "_binom_cdf") if hasattr(_ufuncs, "_binom_cdf") else (binom, "cdf")
    inner = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def ppf(u, n, p):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return int(np.clip(binom.ppf(u, n, p), 0, n))


class TestBracket:
    """The CDF tables, one CDF and one PMF per bin, and the exact search behind them.

    A bin's draws are settled on a table of the CDF built from one CDF and
    one PMF; every draw the table leaves open takes more CDF evaluations.
    """

    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 10**5, 10**7, 2**31])
    def test_margin_covers_the_ufuncs_and_bracket_equals_exact_search(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        p = np.concatenate([
            rng.uniform(0.0, 1.0, 1000),
            10 ** rng.uniform(-16, -1, 500),  # the lower tail
            1 - 10 ** rng.uniform(-16, -1, 500),  # the upper tail
            np.repeat([0.0, 1.0, 0.5], 10),
        ])
        u = _keyed_uniforms(7, n, p.size)
        k = _binomial_quantile(u, n, p)
        # cdf(j-1) = cdf(j) - pmf(j) near every answer, where the guesses
        # fall, and at random j; j = 0 needs no margin, as cdf(-1) = 0 < u
        j = np.concatenate([k - 1, k, k + 1, np.floor(rng.uniform(1, n + 1, p.size))])
        pj = np.tile(p, 4)
        keep = (1 <= j) & (j <= n)
        j, pj = j[keep], pj[keep]
        gap = np.abs(binom.cdf(j - 1, n, pj) - (binom.cdf(j, n, pj) - binom.pmf(j, n, pj)))
        assert gap.max() <= _margin(n) / 16
        # an infinite margin leaves every bin to the exact search
        monkeypatch.setattr(noise, "_margin", lambda n: math.inf)
        np.testing.assert_array_equal(_binomial_quantile(u, n, p), k)

    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 10**5, 10**7, 2**31])
    def test_table_tracks_the_cdf_and_blocks_equal_single_streams(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        p = np.concatenate([
            rng.uniform(0.0, 1.0, 200),
            10 ** rng.uniform(-16, -1, 100),  # the lower tail
            1 - 10 ** rng.uniform(-16, -1, 100),  # the upper tail
            np.repeat([0.0, 1.0, 0.5], 3),
        ])
        u = np.array([_keyed_uniforms(11, stream, p.size) for stream in range(25)])
        tables = []
        build = noise._cdf_table

        def recorded(kmin, width, n_, p_, cdf, pmf):
            table = build(kmin, width, n_, p_, cdf, pmf)
            tables.append((kmin, p_, table))
            return table

        monkeypatch.setattr(noise, "_cdf_table", recorded)
        k = _binomial_quantile(u, n, p)
        assert tables
        for kmin, pt, table in tables:
            # a column is NaN only where its ratios overflow, at p = 1
            finite = np.isfinite(table).all(axis=0)
            assert np.all(finite | (pt == 1.0))
            j = kmin + np.arange(-1, table.shape[0] - 1)[:, None]
            # every cell over the column's whole span; j = -1 needs no
            # margin, as cdf(-1) = 0 < u
            cells = (j >= 0) & finite
            exact = binom.cdf(j[cells], n, np.broadcast_to(pt, j.shape)[cells])
            tol = noise._table_tol(n, table.shape[0])
            assert np.abs(exact - table[cells]).max(initial=0) <= tol / 16
        for stream, row in enumerate(u):
            np.testing.assert_array_equal(_binomial_quantile(row, n, p), k[stream])
        # an infinite margin leaves every draw to the exact search
        monkeypatch.setattr(noise, "_margin", lambda n: math.inf)
        np.testing.assert_array_equal(_binomial_quantile(u, n, p), k)

    @pytest.mark.parametrize(
        "n, p, u, least_calls",
        [
            # a tie at the guess: c == u exactly
            (10, 0.5, binom.cdf(5, 10, 0.5), 2),
            # a run cdf(628) == cdf(629) == u ends at its last member
            (1000, 0.5, 1 - 2.0**-53, 2),
            # u within the margin above c - pmf(k), where the guess k is the answer
            (10, 0.28, binom.cdf(1, 10, 0.28) + _margin(10) / 4, 2),
            (10**5, 0.523, binom.cdf(52183, 10**5, 0.523) + _margin(10**5) / 4, 2),
            # u an ulp below c + pmf(k+1), the answer k + 1
            (30, 0.6712566611989306, np.nextafter(binom.cdf(3, 30, 0.6712566611989306), 0), 2),
            # guesses off by two or more: small n, extreme p
            (8, 0.996, 5.32e-07, 3),
            (5, 0.998, 2.79e-09, 3),
            (100, 0.9999986692234629, 0.9997586995372916, 3),
            # answers k <= 1: by the search, and by binom.ppf's u <= pmf(0) rule
            (3, 0.2943637575238798, 0.35135216666912783, 2),
            (5, 0.9766364932921875, np.nextafter(binom.cdf(1, 5, 0.9766364932921875), 0), 2),
            (25, 2.5751329311206176e-16, 0.9999999999999973, 2),
        ],
    )
    def test_open_bins_take_the_exact_search(self, cdf_calls, n, p, u, least_calls):
        k = _binomial_quantile(np.array([u]), n, np.array([p]))
        assert len(cdf_calls) >= least_calls
        assert k.tolist() == [ppf(u, n, p)]

    def test_a_tie_away_from_the_anchor_takes_the_exact_search(self):
        # the two draws share a table anchored at the first one's guess,
        # 475; the second lies exactly on cdf(480), where the table reads
        # 3e-16 low, so only the CDF itself resolves it to 480
        n, p = 1000, 0.5
        u = np.array([[0.999999 * binom.cdf(475, n, p)], [binom.cdf(480, n, p)]])
        k = _binomial_quantile(u, n, np.array([p]))
        assert k.ravel().tolist() == [ppf(u[0, 0], n, p), ppf(u[1, 0], n, p)] == [475, 480]

    def test_one_cdf_per_bin_on_noise_gauss(self, cdf_calls):
        # the bracket leaves about 0.1% of the preset's bins to the exact search
        scenario = parse_scenario(preset_scenario("noise-gauss"), Path.cwd())
        pattern = simulate_interferogram(scenario.spectrum, scenario.time_grid)
        for pairs in (1000, 10**4, 10**5):
            sample_counts(pattern, replace(scenario.noise, pairs_per_bin=pairs))
            evaluated = sum(np.size(args[0]) for args in cdf_calls)
            assert evaluated <= 1.005 * pattern.grid.count
            cdf_calls.clear()

    def test_memory_stays_bounded_at_the_largest_n(self):
        # at 2**31 pairs the guesses of 25 streams span ~1e5 cells per bin:
        # 3.3 GB as one table for 4096 bins, against the 0.8 MB of uniforms
        rng = np.random.default_rng(5)
        p = rng.uniform(0.2, 0.8, 4096)
        u = np.array([_keyed_uniforms(5, stream, p.size) for stream in range(25)])
        _binomial_quantile(u[:, :8], 2**31, p[:8])  # scipy's first-call set-up
        tracemalloc.start()
        try:
            _binomial_quantile(u, 2**31, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    def test_a_block_draw_holds_about_eight_uniform_arrays(self):
        # the exact search runs on the open draws alone, about 0.1%, and
        # builds no float array the size of the block: about 8.07 times the
        # uniforms' bytes, where a search over every draw holds 9.10
        p = np.random.default_rng(1).uniform(0.0, 0.81, 4096)
        u = np.array([_keyed_uniforms(1, stream, p.size) for stream in range(25)])
        _binomial_quantile(u[:, :8], 1000, p[:8])  # scipy's first-call set-up
        assert peak_above_inputs(lambda: _binomial_quantile(u, 1000, p)) < 8.5 * u.nbytes

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 30, 100])
    def test_the_pmf0_rule_holds_on_settled_draws(self, n):
        # pmf(0) exceeds cdf(0) by an ulp for about a third of random p; a
        # u between them is settled at 1 on the anchor cell, and only
        # binom.ppf's u <= pmf(0) rule returns 0
        p = np.random.default_rng(n).uniform(0.0, 1.0, 20000)
        u = binom.pmf(0, n, p)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = np.clip(binom.ppf(u, n, p), 0, n)
        np.testing.assert_array_equal(_binomial_quantile(u, n, p), expected)

    @pytest.mark.parametrize("n", [1, 10, 2**31])
    def test_u_of_one_gives_n(self, n):
        # where (1-p)**n rounds to 1 the zero rule would answer 0
        p = np.array([0.0, 1e-300, 1e-17, 0.3, 1.0])
        expected = binom.ppf(np.ones(p.size), n, p)
        assert expected.tolist() == [n] * p.size
        k = _binomial_quantile(np.ones((2, p.size)), n, p)
        np.testing.assert_array_equal(k, [expected] * 2)

    def test_one_cdf_per_bin_per_trial_count_in_the_study(self, cdf_calls, monkeypatch):
        # a trial count's repeats share each bin's table, so a study takes
        # about one CDF per bin and trial count, not one per draw
        monkeypatch.setattr(noise, "_workers", lambda: 1)
        scenario = parse_scenario(preset_scenario("noise-gauss"), Path.cwd())
        trials, repeats = [1000, 10**4, 10**5], 10
        error_scaling_study(
            scenario.spectrum, trials, repeats, scenario.noise, scenario.time_grid
        )
        evaluated = sum(np.size(args[0]) for args in cdf_calls)
        drawn = len(trials) * repeats * scenario.time_grid.count
        assert evaluated <= (1 / repeats + 0.01) * drawn


class TestBinomialUfuncs:
    """The binomial ufuncs, clipped as ``rv_discrete`` clips them, against
    ``binom.cdf`` and ``binom.pmf``."""

    @pytest.mark.skipif(
        not hasattr(_ufuncs, "_binom_cdf"), reason="this scipy has no binomial ufuncs"
    )
    @pytest.mark.parametrize("n", [1, 7, 1000, 10**5, 2**31])
    def test_equal_binom_at_edges_and_random_draws(self, n):
        rng = np.random.default_rng(n)
        k = np.floor(rng.uniform(0, n + 1, 20000))
        p = rng.uniform(0.0, 1.0, k.size)
        k[:30] = 0
        k[30:60] = n
        p[::7] = 0.0
        p[3::7] = 1.0
        cdf = _clipped(_ufuncs._binom_cdf, k, n, p)
        pmf = _clipped(_ufuncs._binom_pmf, k, n, p)
        np.testing.assert_array_equal(cdf, binom.cdf(k, n, p))
        np.testing.assert_array_equal(pmf, binom.pmf(k, n, p))

    @pytest.mark.parametrize("n", [1000, 10**5])
    def test_scipy_stats_fallback_draws_the_same_counts(self, monkeypatch, n):
        u = _keyed_uniforms(3, 0, 5000)
        p = np.random.default_rng(3).uniform(0.0, 1.0, u.size)
        p[:10] = (0.0, 1.0) * 5
        expected = _binomial_quantile(u, n, p)
        # a scipy without the private ufuncs: their import fails, and both
        # the bracket's PMF and the exact search run on binom.pmf/binom.cdf
        monkeypatch.setitem(sys.modules, "scipy.special._ufuncs", None)
        np.testing.assert_array_equal(_binomial_quantile(u, n, p), expected)


class TestEstimateTrace:
    def test_noiseless_records_invert_exactly(self):
        pairs = 10000
        p_values = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        counts = CountData(
            TimeGrid(0.0, 0.1, p_values.size),
            [int(p * pairs) for p in p_values],
            np.full(p_values.size, pairs),
        )
        trace = estimate_trace(counts, efficiency=1.0)
        np.testing.assert_allclose(trace.values, 2 * p_values - 1)

    def test_efficiency_and_dark_corrected(self):
        pairs = 10**6
        p_true = 0.6
        eff, dark = 0.9, 0.01
        observed = eff**2 * p_true + dark
        counts = CountData(
            TimeGrid(0.0, 0.5, 2), [round(observed * pairs)] * 2, [pairs] * 2
        )
        trace = estimate_trace(counts, efficiency=eff, dark_rate=dark)
        assert trace.values[0] == pytest.approx(2 * p_true - 1, abs=1e-5)

    def test_noise_scales_with_inverse_sqrt_pairs(self):
        # binomial variance propagation: std(G_hat) = 2 sqrt(p(1-p)/n) / eff^2
        tg = centered_time_grid(5e-4, 2)
        p_bin = 0.3
        pattern = Interferogram(tg, np.full(2, p_bin))
        stds = {}
        for n in (100, 10000):
            cfg = NoiseConfig(pairs_per_bin=n, seed=5)
            samples = [
                estimate_trace(
                    sample_counts(pattern, cfg, stream=s), 1.0
                ).values[0]
                for s in range(2000)
            ]
            stds[n] = np.std(samples, ddof=1)
            expected = 2 * math.sqrt(p_bin * (1 - p_bin) / n)
            assert stds[n] == pytest.approx(expected, rel=0.1)
        assert stds[100] / stds[10000] == pytest.approx(10.0, rel=0.15)

    def test_estimated_trace_feeds_recovery(self):
        pattern = small_interferogram(128)
        cfg = NoiseConfig(pairs_per_bin=5000, seed=9)
        trace = estimate_trace(sample_counts(pattern, cfg), 1.0)
        assert trace.grid == pattern.grid
        rec = fourier_recover(trace)
        assert rec.grid.count == 128

    def test_unbiasedness(self):
        tg = centered_time_grid(5e-4, 2)
        p_bin = 0.42
        pattern = Interferogram(tg, np.full(2, p_bin))
        n, streams = 2000, 500
        cfg = NoiseConfig(pairs_per_bin=n, seed=77, efficiency=0.85)
        est = [
            0.5
            * (
                1
                + estimate_trace(
                    sample_counts(pattern, cfg, stream=s), 0.85
                ).values[0]
            )
            for s in range(streams)
        ]
        se = math.sqrt(p_bin * (1 - p_bin) / n) / 0.85**2 / math.sqrt(streams)
        assert abs(np.mean(est) - p_bin) <= 3 * se


TWO_BINS = TimeGrid(0.0, 0.5, 2)


class TestCountDataValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            CountData(TWO_BINS, [-1, 0], [10, 10])
        with pytest.raises(ValueError):
            CountData(TWO_BINS, [11, 0], [10, 10])
        with pytest.raises(ValueError):
            NoiseConfig(pairs_per_bin=0, seed=1)
        with pytest.raises(ValueError):
            NoiseConfig(pairs_per_bin=10, seed=1, efficiency=1.5)

    def test_columns_rejected(self):
        with pytest.raises(ValueError, match="one entry per grid point"):
            CountData(TWO_BINS, [1], [10, 10])
        with pytest.raises(ValueError, match="one entry per grid point"):
            CountData(TWO_BINS, [[1, 1]], [[10, 10]])
        with pytest.raises(ValueError, match="one entry per grid point"):
            CountData(TWO_BINS, [1, 1, 1], [10, 10, 10])
        with pytest.raises(ValueError, match="pairs_sent"):
            CountData(TWO_BINS, [0, 0], [10, 0])
        with pytest.raises(ValueError, match="coincidences"):
            CountData(TWO_BINS, [2.5, 1.0], [10, 10])
        with pytest.raises(ValueError, match="coincidences"):
            CountData(TWO_BINS, [3, 12], [10, 10])

    def test_columns_and_length(self):
        grid = TimeGrid(0.0, 0.5, 3)
        counts = CountData(grid, [1.0, 2.0, 3.0], [10, 10, 10], clamped=True)
        assert counts.grid is grid
        assert len(counts) == 3
        assert counts.coincidences.dtype == np.int64
        assert counts.pairs_sent.dtype == np.int64
        np.testing.assert_array_equal(counts.coincidences, [1, 2, 3])
        assert counts.clamped

    @pytest.mark.parametrize("dark", [-1e-9, -math.inf, math.nan, math.inf])
    def test_dark_rate_rule(self, dark):
        # NaN used to draw all-zero counts and inf all-n counts, a trace of -1
        match = "non-negative" if dark < 0 else "finite"
        with pytest.raises(ValueError, match=f"dark_rate must be {match}"):
            NoiseConfig(pairs_per_bin=10, seed=1, dark_rate=dark)
        # estimate_trace takes the same rule
        with pytest.raises(ValueError, match=f"dark_rate must be {match}"):
            estimate_trace(CountData(TWO_BINS, [1, 2], [10, 10]), 1.0, dark)

    def test_edge_values_accepted(self):
        # a floor of 1 or more clamps every bin, which the counts report
        for dark in (0.0, 1e-300, 1.0, 2.0):
            NoiseConfig(pairs_per_bin=10, seed=1, dark_rate=dark)
            estimate_trace(CountData(TWO_BINS, [1, 2], [10, 10]), 1.0, dark)
        # a numpy integer, the top 64-bit key, and floats of integral value,
        # each stored as the int it stands for
        for pairs, seed in ((np.int64(1000), 2**64 - 1), (1000.0, 0.0)):
            config = NoiseConfig(pairs_per_bin=pairs, seed=seed)
            assert (config.pairs_per_bin, config.seed) == (pairs, seed)
            assert type(config.pairs_per_bin) is int and type(config.seed) is int

    @pytest.mark.parametrize("field", ["pairs_per_bin", "seed"])
    @pytest.mark.parametrize("value", [True, False, np.True_])
    def test_boolean_counts_rejected(self, field, value):
        # True passed as one pair, and False as seed 0
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
            NoiseConfig(**{"pairs_per_bin": 10, "seed": 1, field: value})

    @pytest.mark.parametrize("field, value", [
        # drew at n = 1000.5 and recorded 1000 pairs sent
        ("pairs_per_bin", 1000.5),
        # keyed the streams of seed 1
        ("seed", 1.5),
        # out of range too: the rule speaks first
        ("pairs_per_bin", 0.5),
        ("seed", -1.5),
    ])
    def test_non_integral_counts_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
            NoiseConfig(**{"pairs_per_bin": 10, "seed": 1, field: value})

    def test_pairs_per_bin_capped_at_2_pow_31(self):
        NoiseConfig(pairs_per_bin=2**31, seed=1)
        for huge in (2**31 + 1, 2**53, int(1e30)):
            with pytest.raises(ValueError, match="pairs_per_bin"):
                NoiseConfig(pairs_per_bin=huge, seed=1)


class TestScalingStudyExponent:
    def test_known_slope(self):
        n = np.array([100, 1000, 10000, 100000])
        study = ScalingStudy(n, 3.0 * n**-0.5, np.zeros(4))
        assert study.exponent == pytest.approx(-0.5, abs=1e-12)

    def test_repeated_trial_counts_rejected(self):
        # a repeated count used to fit a line through one abscissa: numpy's
        # RankWarning and a meaningless exponent of -0.212
        with pytest.raises(ValueError, match="trial_counts must be distinct"):
            ScalingStudy(np.array([100, 100]), [0.1, 0.2], [0.0, 0.0])

    def test_one_usable_point_gives_nan(self):
        assert math.isnan(ScalingStudy([100, 1000], [0.1, 0.0], [0.0, 0.0]).exponent)
        assert math.isnan(ScalingStudy([100], [0.1], [0.0]).exponent)


class TestErrorScalingStudy:
    def test_zero_noise_config_gives_zero_spread(self):
        # all mass at zero frequency: P(t) = 1 everywhere, so counts are
        # deterministic and every repeat recovers the same spectrum
        grid = FrequencyGrid(0.0, 0.5, 2)
        spec = SumFrequencySpectrum(grid, np.array([2.0, 0.0]))
        cfg = NoiseConfig(pairs_per_bin=100, seed=13)
        study = error_scaling_study(
            spec, [100, 1000], repeats=20, config=cfg, grid=centered_time_grid(5e-4, 64)
        )
        assert np.all(study.std_height == 0.0)
        assert math.isnan(study.exponent)

    def test_quadrupling_trials_halves_spread(self):
        grid = make_frequency_grid(738.25, 0.004, 501)
        spec = gaussian_pump_spectrum(grid, 739.25, 0.8)
        cfg = NoiseConfig(pairs_per_bin=1000, seed=21)
        study = error_scaling_study(
            spec,
            [2500, 10000],
            repeats=80,
            config=cfg,
            grid=centered_time_grid(5e-4, 512),
        )
        ratio = study.std_height[0] / study.std_height[1]
        assert 1.5 < ratio < 2.6

    def test_rows_match_trial_counts(self):
        grid = make_frequency_grid(738.25, 0.004, 201)
        spec = gaussian_pump_spectrum(grid, 738.65, 0.2)
        study = error_scaling_study(
            spec,
            [500, 2000],
            repeats=5,
            config=NoiseConfig(pairs_per_bin=1, seed=2),
            grid=centered_time_grid(5e-4, 256),
        )
        assert study.n_trials.tolist() == [500, 2000]
        assert np.all(study.std_center >= 0)

    def test_repeats_validated(self):
        grid = make_frequency_grid(738.25, 0.004, 101)
        spec = gaussian_pump_spectrum(grid, 738.45, 0.1)
        config, tg = NoiseConfig(pairs_per_bin=1, seed=0), centered_time_grid(5e-4, 64)
        with pytest.raises(ValueError):
            error_scaling_study(spec, [100], repeats=1, config=config, grid=tg)
        with pytest.raises(ValueError):
            error_scaling_study(spec, [], repeats=5, config=config, grid=tg)

    @pytest.fixture
    def study_args(self, monkeypatch):
        # a bad input fails before the pattern is synthesized or any count drawn
        def untouched(*args, **kwargs):
            raise AssertionError("the study ran on a bad input")

        monkeypatch.setattr(noise, "simulate_interferogram", untouched)
        monkeypatch.setattr(noise, "_sample_streams", untouched)
        spec = gaussian_pump_spectrum(make_frequency_grid(738.25, 0.004, 101), 738.45, 0.1)
        config = NoiseConfig(pairs_per_bin=1, seed=0)
        return dict(spectrum=spec, repeats=3, config=config, grid=centered_time_grid(5e-4, 64))

    def test_repeated_trial_count_rejected(self, study_args):
        # a study has one row per trial count; a repeated one used to give two
        # rows and a line fitted through a single abscissa
        with pytest.raises(ValueError, match="trial_counts must be distinct"):
            error_scaling_study(trial_counts=[100, 300, 100], **study_args)

    def test_oversized_trial_count_rejected(self, study_args):
        # it used to fail only after the counts before it were sampled
        with pytest.raises(ValueError, match="pairs_per_bin must lie in"):
            error_scaling_study(trial_counts=[100, 2**31 + 1], **study_args)

    @pytest.mark.parametrize("count", [2**40, 2**63, 2**70])
    def test_trial_count_past_int64_names_its_range(self, study_args, count):
        # a count past int64 was named by the int64 column, "ScalingStudy
        # n_trials must hold integers", not by the range it breaks
        with pytest.raises(ValueError, match=r"^pairs_per_bin must lie in \[1, 2147483648\]$"):
            error_scaling_study(trial_counts=[100, count], **study_args)

    @pytest.mark.parametrize("chunk", [0, -5])
    def test_non_positive_chunk_size_rejected_before_any_work(self, study_args, chunk):
        # it used to fail only inside the pool's workers, after the synthesis
        with pytest.raises(ValueError, match="chunk_size must be positive"):
            error_scaling_study(trial_counts=[100, 300], chunk_size=chunk, **study_args)

    def test_study_is_deterministic_across_partitioning(self):
        grid = make_frequency_grid(738.25, 0.004, 201)
        spec = gaussian_pump_spectrum(grid, 738.65, 0.3)
        cfg = NoiseConfig(pairs_per_bin=200, seed=31)
        kwargs = dict(repeats=6, config=cfg, grid=centered_time_grid(5e-4, 256))
        a = error_scaling_study(spec, [300, 900], chunk_size=None, **kwargs)
        b = error_scaling_study(spec, [300, 900], chunk_size=37, **kwargs)
        for field in ("n_trials", "std_height", "std_center"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
        assert a.exponent == b.exponent


class TestStudyBlocks:
    """The study carries a trial count's streams as one block, with the
    arithmetic of the one-row public functions."""

    @pytest.mark.parametrize("count", [1001, 4096])
    def test_peaks_equal_the_one_row_chain_bit_for_bit(self, monkeypatch, count):
        # np.abs rounds a complex array by its memory layout: a block fold
        # that took it of a reversed 2-D view moved heights by an ulp
        monkeypatch.setattr(noise, "_workers", lambda: 1)  # both rounds in this process
        spec = gaussian_pump_spectrum(make_frequency_grid(738.25, 0.004, 201), 738.65, 0.3)
        pattern = simulate_interferogram(spec, centered_time_grid(5e-4, count))
        config = NoiseConfig(pairs_per_bin=1, seed=17, dark_rate=0.01, efficiency=0.8)
        n_trials = [300, 2000]
        streams = np.arange(60).reshape(2, 30)
        rows = noise._all_peaks(pattern, config, n_trials, streams, None)
        assert rows.shape == (2, 30, 2)
        for pairs, keys, got in zip(n_trials, streams, rows):
            cfg = replace(config, pairs_per_bin=pairs)
            for key, (center, height) in zip(keys.tolist(), got):
                counts = sample_counts(pattern, cfg, stream=key)
                trace = estimate_trace(counts, cfg.efficiency, cfg.dark_rate)
                folded = fold_one_sided(fourier_recover(trace))
                w = folded.weights
                i = 1 + int(np.argmax(w[1:]))
                delta, want = _refined(w, i)
                assert center == folded.grid.start + (i + delta) * folded.grid.step
                assert height == want

        # a block with one broken row reports that row's relative error
        g = 2.0 * pattern.values - 1.0
        grid, amp = _transformed(np.tile(g, (5, 1)), pattern.grid)
        amp[3, grid.index_of(0.0) + 7] += 1e-3j * np.abs(amp[3]).max()
        with pytest.raises(AsymmetryError) as one_row:
            fold_one_sided(RecoveredSpectrum(grid, amp[3]))
        with pytest.raises(AsymmetryError) as block:
            _folded(amp, grid.index_of(0.0))
        assert str(block.value) == str(one_row.value)
        assert "broken by 1.000e-03" in str(block.value)


# 3 trial counts x 5 repeats on 256 bins
STUDY = dict(
    spectrum=gaussian_pump_spectrum(make_frequency_grid(738.25, 0.004, 201), 738.65, 0.3),
    trial_counts=[300, 900, 2700],
    repeats=5,
    config=NoiseConfig(pairs_per_bin=200, seed=31),
    grid=centered_time_grid(5e-4, 256),
)


class TestWorkers:
    """The study's two rounds split over forked workers, one per usable CPU:
    the draw by delay bins, the estimate, transform and fold by repeats."""

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    def test_workers_are_the_cpus_this_process_may_run_on(self):
        usable = os.sched_getaffinity(0)
        assert noise._workers() == len(usable)
        os.sched_setaffinity(0, {min(usable)})
        try:
            assert noise._workers() == 1
        finally:
            os.sched_setaffinity(0, usable)

    @fork_only
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_any_worker_count_gives_the_same_study(self, tmp_path, monkeypatch, workers):
        # 3 trial counts x 5 repeats: 15 streams, unequal shares for 2 workers
        monkeypatch.setattr(noise, "_workers", lambda: 1)
        serial = error_scaling_study(**STUDY)
        # each drawn (trial count, stream, bin range) notes the process that
        # drew it, in a file a worker can append to
        log = tmp_path / "draws"
        draw = noise._sample_streams

        def noted(pattern, config, streams, out, chunk_size=None, lo=0):
            hi = lo + out.shape[1]
            with open(log, "a") as fh:
                fh.writelines(f"{os.getpid()} {config.pairs_per_bin} {s} {lo} {hi}\n" for s in streams)
            return draw(pattern, config, streams, out, chunk_size, lo)

        monkeypatch.setattr(noise, "_sample_streams", noted)
        monkeypatch.setattr(noise, "_workers", lambda: workers)
        study = error_scaling_study(**STUDY)
        for field in ("n_trials", "std_height", "std_center"):
            np.testing.assert_array_equal(getattr(study, field), getattr(serial, field))
        lines = [line.split() for line in log.read_text().splitlines()]
        pids = {pid for pid, *_ in lines}
        # every (trial count, stream, bin) is drawn exactly once
        drawn = [(pairs, s, b) for _, pairs, s, lo, hi in lines for b in range(int(lo), int(hi))]
        bins = STUDY["grid"].count
        assert len(drawn) == len(set(drawn)) == 3 * 5 * bins
        assert {(pairs, s) for pairs, s, _ in drawn} == {
            (str(pairs), str(s)) for pairs, s in zip(np.repeat([300, 900, 2700], 5), range(15))
        }
        if workers == 1:
            assert pids == {str(os.getpid())}
        else:
            # the pool promises each worker no task: a late one may get none
            assert 1 <= len(pids) <= workers and str(os.getpid()) not in pids

    @fork_only
    @pytest.mark.parametrize("workers", [2, 3])
    def test_a_pooled_study_builds_the_serial_tables(self, tmp_path, monkeypatch, workers):
        # the draw round splits the bins, not the repeats, so the workers
        # together build each bin's CDF table once per trial count, as the
        # serial study does; a split of the repeats built it once per worker
        log = tmp_path / "columns"
        build = noise._cdf_table

        def noted(kmin, *args):
            with open(log, "a") as fh:
                fh.write(f"{kmin.size}\n")
            return build(kmin, *args)

        monkeypatch.setattr(noise, "_cdf_table", noted)
        columns = []
        for count in (1, workers):
            monkeypatch.setattr(noise, "_workers", lambda: count)
            error_scaling_study(**STUDY)
            columns.append(sum(map(int, log.read_text().split())))
            log.unlink()
        assert columns[1] == columns[0] > 0

    @fork_only
    @pytest.mark.skipif(
        not Path("/proc/self/stat").exists() or noise._workers() < 2,
        reason="needs /proc and two usable CPUs",
    )
    def test_workers_end_with_a_killed_parent(self, tmp_path):
        # a parent killed by SIGTERM never shuts its pool down; its workers
        # must not wait for tasks forever
        study = subprocess.Popen(
            [sys.executable, "-m", "noonspec", "noise-study", "--preset", "noise-gauss",
             "--trials", "1000,10000,100000,1000000", "--repeats", "2000",
             "--out", str(tmp_path / "study")],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 60
        workers = []
        while len(workers) < 2 and study.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
            workers = children(study.pid)
        study.send_signal(signal.SIGTERM)
        assert study.wait(10) == -signal.SIGTERM and len(workers) >= 2
        deadline = time.monotonic() + 5
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in workers if running(pid)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert not survivors

    @fork_only
    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
    def test_a_finished_study_leaves_no_child(self, tmp_path, monkeypatch):
        # a worker left running, or exited but not reaped, outlives the verb
        log = tmp_path / "draws"
        draw = noise._sample_streams

        def noted(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return draw(*args, **kwargs)

        monkeypatch.setattr(noise, "_sample_streams", noted)
        monkeypatch.setattr(noise, "_workers", lambda: 2)
        argv = ["noise-study", "--preset", "noise-gauss", "--repeats", "4",
                "--out", str(tmp_path / "study")]
        assert main(argv) == 0
        # the pool promises no worker a task, so one may have drawn all
        workers = set(map(int, log.read_text().split()))
        assert 1 <= len(workers) <= 2 and os.getpid() not in workers
        assert not any(map(running, workers))
        assert children(os.getpid()) == []

    def test_without_os_fork_the_study_runs_here(self, tmp_path, monkeypatch):
        # a platform without os.fork (Windows) takes the serial path, whatever the CPUs
        kwargs = dict(STUDY, trial_counts=[300, 900], repeats=3)
        monkeypatch.setattr(noise, "_workers", lambda: 1)
        serial = error_scaling_study(**kwargs)
        pids = []
        draw = noise._sample_streams

        def noted(pattern, config, streams, *args, **kw):
            # a forked worker's append would not reach this list
            pids.extend(os.getpid() for _ in streams)
            return draw(pattern, config, streams, *args, **kw)

        monkeypatch.setattr(noise, "_sample_streams", noted)
        monkeypatch.setattr(noise, "_workers", lambda: 2)
        monkeypatch.delattr(os, "fork")
        study = error_scaling_study(**kwargs)
        for field in ("n_trials", "std_height", "std_center"):
            np.testing.assert_array_equal(getattr(study, field), getattr(serial, field))
        assert pids == [os.getpid()] * 6


def _stat(pid: int) -> list:
    """The fields of /proc/<pid>/stat after the command name (state first)."""
    return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()


def children(pid: int) -> list:
    """The pids of the processes whose parent is ``pid``."""
    found = []
    for entry in os.listdir("/proc"):
        try:
            if entry.isdigit() and int(_stat(int(entry))[1]) == pid:
                found.append(int(entry))
        except OSError:  # the process ended while the table was read
            pass
    return found


def running(pid: int) -> bool:
    """False once ``pid`` has exited, reaped (gone) or not (a zombie)."""
    try:
        return _stat(pid)[0] != "Z"
    except OSError:
        return False
