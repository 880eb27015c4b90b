import math

import numpy as np
import pytest

from noonspec import (
    CountRecord,
    FrequencyGrid,
    Interferogram,
    NoiseConfig,
    NonUniformGridError,
    SumFrequencySpectrum,
    error_scaling_study,
    estimate_trace,
    fourier_recover,
    gaussian_pump_spectrum,
    make_frequency_grid,
    sample_counts,
    simulate_interferogram,
)
from conftest import centered_time_grid


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
        for rec, p_bin in zip(data.records, p):
            sigma = math.sqrt(max(p_bin * (1 - p_bin), 1e-12) / cfg.pairs_per_bin)
            assert abs(rec.coincidences / rec.pairs_sent - p_bin) <= 3 * sigma + 1e-9

    def test_dark_free_zero_pattern_gives_zero_counts(self):
        tg = centered_time_grid(5e-4, 16)
        pattern = Interferogram(tg, np.zeros(16))
        data = sample_counts(pattern, NoiseConfig(pairs_per_bin=1000, seed=3))
        assert all(r.coincidences == 0 for r in data.records)

    def test_same_seed_same_counts_any_partition(self):
        pattern = small_interferogram(64)
        cfg = NoiseConfig(pairs_per_bin=500, seed=42, efficiency=0.9)
        full = sample_counts(pattern, cfg)
        for chunk in (1, 5, 17, 64):
            again = sample_counts(pattern, cfg, chunk_size=chunk)
            assert again.records == full.records
        other_stream = sample_counts(pattern, cfg, stream=1)
        assert other_stream.records != full.records

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
        assert all(r.coincidences <= r.pairs_sent for r in noisy.records)


class TestEstimateTrace:
    def test_noiseless_records_invert_exactly(self):
        pairs = 10000
        p_values = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        records = [
            CountRecord(0.1 * i, int(p * pairs), pairs)
            for i, p in enumerate(p_values)
        ]
        trace = estimate_trace(records, efficiency=1.0)
        np.testing.assert_allclose(trace.values, 2 * p_values - 1)

    def test_efficiency_and_dark_corrected(self):
        pairs = 10**6
        p_true = 0.6
        eff, dark = 0.9, 0.01
        observed = eff**2 * p_true + dark
        records = [
            CountRecord(0.0, round(observed * pairs), pairs),
            CountRecord(0.5, round(observed * pairs), pairs),
        ]
        trace = estimate_trace(records, efficiency=eff, dark_rate=dark)
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
                    sample_counts(pattern, cfg, stream=s).records, 1.0
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
        trace = estimate_trace(sample_counts(pattern, cfg).records, 1.0)
        rec = fourier_recover(trace)
        assert rec.grid.count == 128

    def test_non_uniform_records_rejected(self):
        records = [
            CountRecord(0.0, 1, 10),
            CountRecord(0.1, 1, 10),
            CountRecord(0.3, 1, 10),
        ]
        with pytest.raises(NonUniformGridError):
            estimate_trace(records, 1.0)

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
                    sample_counts(pattern, cfg, stream=s).records, 0.85
                ).values[0]
            )
            for s in range(streams)
        ]
        se = math.sqrt(p_bin * (1 - p_bin) / n) / 0.85**2 / math.sqrt(streams)
        assert abs(np.mean(est) - p_bin) <= 3 * se


class TestCountRecordValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            CountRecord(0.0, -1, 10)
        with pytest.raises(ValueError):
            CountRecord(0.0, 11, 10)
        with pytest.raises(ValueError):
            NoiseConfig(pairs_per_bin=0, seed=1)
        with pytest.raises(ValueError):
            NoiseConfig(pairs_per_bin=10, seed=1, efficiency=1.5)

    def test_pairs_per_bin_capped_at_2_pow_31(self):
        NoiseConfig(pairs_per_bin=2**31, seed=1)
        for huge in (2**31 + 1, 2**53, int(1e30)):
            with pytest.raises(ValueError, match="pairs_per_bin"):
                NoiseConfig(pairs_per_bin=huge, seed=1)


class TestErrorScalingStudy:
    def test_zero_noise_config_gives_zero_spread(self):
        # all mass at zero frequency: P(t) = 1 everywhere, so counts are
        # deterministic and every repeat recovers the same spectrum
        grid = FrequencyGrid(0.0, 0.5, 2)
        spec = SumFrequencySpectrum(grid, np.array([2.0, 0.0]), normalized=True)
        cfg = NoiseConfig(pairs_per_bin=100, seed=13)
        study = error_scaling_study(
            spec, [100, 1000], repeats=20, config=cfg, grid=centered_time_grid(5e-4, 64)
        )
        assert all(row.std_height == 0.0 for row in study.rows)
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
        ratio = study.rows[0].std_height / study.rows[1].std_height
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
        assert [r.n_trials for r in study.rows] == [500, 2000]
        assert all(r.std_center >= 0 for r in study.rows)

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

    def test_study_is_deterministic_across_partitioning(self):
        grid = make_frequency_grid(738.25, 0.004, 201)
        spec = gaussian_pump_spectrum(grid, 738.65, 0.3)
        cfg = NoiseConfig(pairs_per_bin=200, seed=31)
        kwargs = dict(repeats=6, config=cfg, grid=centered_time_grid(5e-4, 256))
        a = error_scaling_study(spec, [300, 900], chunk_size=None, **kwargs)
        b = error_scaling_study(spec, [300, 900], chunk_size=37, **kwargs)
        assert a == b
