import math
import os
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import _ufuncs
from scipy.stats import binom

from noonspec import (
    CountData,
    FrequencyGrid,
    Interferogram,
    NoiseConfig,
    ScalingStudy,
    SumFrequencySpectrum,
    TimeGrid,
    error_scaling_study,
    estimate_trace,
    fourier_recover,
    gaussian_pump_spectrum,
    make_frequency_grid,
    sample_counts,
    simulate_interferogram,
)
from noonspec import noise
from noonspec.cli import parse_scenario
from noonspec.noise import _binomial_quantile, _clipped, _keyed_uniforms, _margin
from noonspec.presets import preset_scenario
from conftest import centered_time_grid, fork_only


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

    def test_non_positive_chunk_size_rejected(self):
        pattern = small_interferogram()
        cfg = NoiseConfig(pairs_per_bin=100, seed=1)
        for chunk in (0, -5):
            with pytest.raises(ValueError, match="chunk_size"):
                sample_counts(pattern, cfg, chunk_size=chunk)

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
    """The one-CDF-one-PMF bracket and the exact search behind it.

    A bin is bracketed from c = cdf(k) at its Cornish-Fisher guess k and
    one PMF; every bin the bracket leaves open takes more CDF evaluations.
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

    def test_one_cdf_per_bin_on_noise_gauss(self, cdf_calls):
        # the bracket leaves about 0.1% of the preset's bins to the exact search
        scenario = parse_scenario(preset_scenario("noise-gauss"), Path.cwd())
        pattern = simulate_interferogram(scenario.spectrum, scenario.time_grid)
        for pairs in (1000, 10**4, 10**5):
            sample_counts(pattern, replace(scenario.noise, pairs_per_bin=pairs))
            evaluated = sum(np.size(args[0]) for args in cdf_calls)
            assert evaluated <= 1.005 * pattern.grid.count
            cdf_calls.clear()


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
        with pytest.raises(ValueError):
            error_scaling_study(
                spec, [100], repeats=1, config=NoiseConfig(pairs_per_bin=1, seed=0)
            )
        with pytest.raises(ValueError):
            error_scaling_study(
                spec, [], repeats=5, config=NoiseConfig(pairs_per_bin=1, seed=0)
            )

    @pytest.fixture
    def study_args(self, monkeypatch):
        # a bad trial count fails before any count is drawn
        monkeypatch.setattr(noise, "sample_counts", None)
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


class TestWorkers:
    """The study's streams split over forked workers, one per usable CPU."""

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
        # 3 trial counts x 5 repeats: 15 jobs, unequal shares for 2 workers
        grid = make_frequency_grid(738.25, 0.004, 201)
        spec = gaussian_pump_spectrum(grid, 738.65, 0.3)
        kwargs = dict(
            spectrum=spec,
            trial_counts=[300, 900, 2700],
            repeats=5,
            config=NoiseConfig(pairs_per_bin=200, seed=31),
            grid=centered_time_grid(5e-4, 256),
        )
        monkeypatch.setattr(noise, "_workers", lambda: 1)
        serial = error_scaling_study(**kwargs)
        # each draw notes the process that made it, in a file a worker can append to
        log = tmp_path / "pids"
        draw = noise.sample_counts

        def noted(*args, **kw):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return draw(*args, **kw)

        monkeypatch.setattr(noise, "sample_counts", noted)
        monkeypatch.setattr(noise, "_workers", lambda: workers)
        study = error_scaling_study(**kwargs)
        for field in ("n_trials", "std_height", "std_center"):
            np.testing.assert_array_equal(getattr(study, field), getattr(serial, field))
        pids = log.read_text().split()
        assert len(pids) == 15
        if workers == 1:
            assert set(pids) == {str(os.getpid())}
        else:
            assert len(set(pids)) == workers and str(os.getpid()) not in pids
