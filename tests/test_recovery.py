import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from noonspec import (
    AsymmetryError,
    CombLine,
    CorrelationTrace,
    FrequencyGrid,
    GridMismatchError,
    RecoveredSpectrum,
    SumFrequencySpectrum,
    comb_pump_spectrum,
    correlation_trace,
    default_time_grid,
    detect_features,
    fold_one_sided,
    fourier_recover,
    gaussian_pump_spectrum,
    make_frequency_grid,
    simulate_interferogram,
    spectrum_distance,
    transmitted_spectrum,
)
from noonspec import _numerics
from noonspec.cli import main, parse_scenario
from noonspec.io import read_trace_csv
from noonspec.presets import PRESETS, preset_scenario
from noonspec.recovery import (
    _find_peaks,
    _first_at_or_below,
    _local_maxima,
    _refined,
    _transformed,
    _twist,
)
from conftest import centered_time_grid, peak_above_inputs


def bin_aligned_line(tg, bin_index):
    """Trace of a single line sitting exactly on a transform bin."""
    df = 1.0 / tg.window
    nu0 = bin_index * df
    trace = CorrelationTrace(tg, np.cos(2 * np.pi * nu0 * tg.values))
    return nu0, trace


class TestFourierRecover:
    def test_cosine_gives_two_symmetric_peaks(self):
        tg = centered_time_grid(5e-4, 4096)
        nu0, trace = bin_aligned_line(tg, 1500)
        rec = fourier_recover(trace)
        mag = np.abs(rec.amplitudes)
        top = np.argsort(mag)[-2:]
        found = sorted(rec.grid.values[i] for i in top)
        assert found[0] == pytest.approx(-nu0, abs=1e-9)
        assert found[1] == pytest.approx(+nu0, abs=1e-9)

    def test_peak_separation_is_twice_the_line(self):
        tg = centered_time_grid(5e-4, 4096)
        nu0, trace = bin_aligned_line(tg, 900)
        rec = fourier_recover(trace)
        mag = np.abs(rec.amplitudes)
        top = np.argsort(mag)[-2:]
        separation = abs(rec.grid.values[top[0]] - rec.grid.values[top[1]])
        assert abs(separation - 2 * nu0) <= rec.grid.step

    def test_zero_trace_recovers_zero(self):
        tg = centered_time_grid(5e-4, 256)
        rec = fourier_recover(CorrelationTrace(tg, np.zeros(256)))
        assert np.all(rec.amplitudes == 0)

    def test_round_trip_on_band_limited_spectrum(self):
        # oracle: compare against the input of the forward pipeline
        tg = default_time_grid(count=2**15)
        df = 1.0 / tg.window
        k0 = int(round(739.5 / df))
        grid = FrequencyGrid(k0 * df, df, 40)
        w = np.exp(-4 * np.log(2) * ((grid.values - grid.values[20]) / 0.25) ** 2)
        spec = SumFrequencySpectrum(grid, w / (df * w.sum()))
        trace = correlation_trace(simulate_interferogram(spec, tg))
        folded = fold_one_sided(fourier_recover(trace))
        band = SumFrequencySpectrum(
            FrequencyGrid(k0 * df, df, 40), folded.weights[k0 : k0 + 40]
        )
        l2, _ = spectrum_distance(spec, band)
        assert l2 < 1e-3

    def test_hann_window_keeps_peak_location(self):
        tg = centered_time_grid(5e-4, 4096)
        nu0, trace = bin_aligned_line(tg, 1200)
        rec = fourier_recover(trace, window="hann")
        mag = np.abs(rec.amplitudes)
        i0 = rec.zero_index
        peak = i0 + 1 + int(np.argmax(mag[i0 + 1 :]))
        assert abs(rec.grid.values[peak] - nu0) <= rec.grid.step
        with pytest.raises(ValueError):
            fourier_recover(trace, window="boxcar")

    def test_hermitian_symmetry_for_random_traces(self, rng):
        tg = centered_time_grid(5e-4, 512)
        for _ in range(10):
            g = rng.uniform(-1, 1, 512)
            rec = fourier_recover(CorrelationTrace(tg, g))
            amp = rec.amplitudes
            i0 = rec.zero_index
            k = min(rec.grid.count - 1 - i0, i0)
            neg = amp[i0 - k : i0][::-1]
            pos = amp[i0 + 1 : i0 + 1 + k]
            err = np.abs(neg - np.conj(pos)).max() / np.abs(amp).max()
            assert err < 1e-9

    def test_parseval(self, rng):
        tg = centered_time_grid(5e-4, 1024)
        for _ in range(10):
            g = rng.uniform(-1, 1, 1024)
            trace = CorrelationTrace(tg, g)
            rec = fourier_recover(trace)
            lhs = tg.step * np.sum(g**2)
            rhs = rec.grid.step * np.sum(np.abs(rec.amplitudes) ** 2)
            assert abs(lhs - rhs) / lhs < 1e-6

    def test_odd_count_transform(self, rng):
        # odd transforms pair every bin (no lone Nyquist slot)
        tg = centered_time_grid(1e-3, 2047)
        g = rng.uniform(-1, 1, 2047)
        rec = fourier_recover(CorrelationTrace(tg, g))
        assert rec.zero_index == 1023
        folded = fold_one_sided(rec)
        assert folded.grid.count == 1024
        two_sided = rec.grid.step * np.abs(rec.amplitudes).sum()
        assert abs(folded.total_mass - two_sided) <= 1e-9 * two_sided
        lhs = tg.step * np.sum(g**2)
        rhs = rec.grid.step * np.sum(np.abs(rec.amplitudes) ** 2)
        assert abs(lhs - rhs) / lhs < 1e-6

    @staticmethod
    def twisted(g, grid):
        """The transform with its t-origin phase as one complex expression."""
        n, dt = grid.count, grid.step
        raw = np.fft.ifft(g) * (n * dt)
        raw *= np.exp(2j * np.pi * np.fft.fftfreq(n, d=dt) * grid.start)
        return np.fft.fftshift(raw, axes=-1)

    def test_block_twist_equals_the_complex_expression_on_comb5(self):
        scenario = parse_scenario(preset_scenario("comb5"), None)
        trace = correlation_trace(simulate_interferogram(scenario.spectrum, scenario.time_grid))
        got = _transformed(trace.values, trace.grid)[1]
        want = self.twisted(trace.values, trace.grid)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("block", [7, 2048])
    def test_block_twist_equals_the_complex_expression(self, monkeypatch, block):
        # a start of +0 gives the negative frequencies a -0 phase, whose
        # phasor is 1 - 0i; only amplitudes with a signed zero part show
        # it, so some are set to one. Half the trials are 2-D batches, and
        # with blocks of 7 about one in seven ends on a one-point block.
        monkeypatch.setattr(_numerics, "_BLOCK", block)
        rng = np.random.default_rng(block)
        for trial in range(50):
            n = int(rng.integers(2, 3000))
            start = [0.0, -0.0][trial] if trial < 2 else float(rng.uniform(-40.0, 40.0))
            dt = float(rng.uniform(1e-4, 1e-2))
            g = rng.uniform(-1.0, 1.0, (2, n) if trial % 2 else n)
            grid = FrequencyGrid(start, dt, n)
            got, want = _transformed(g, grid)[1], self.twisted(g, grid)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
            raw = np.fft.ifft(g)
            raw[..., ::3] = complex(1.0, -0.0)
            raw[..., 1::3] = complex(-0.0, 0.0)
            want = raw * np.exp(2j * np.pi * np.fft.fftfreq(n, d=dt) * start)
            want = np.fft.fftshift(want, axes=-1)  # the walk also reorders
            _twist(raw, n, dt, start)
            np.testing.assert_array_equal(raw.view(np.uint64), want.view(np.uint64))

    def test_transform_holds_one_complex_array(self):
        # ifft's complex cast of the trace and the fftshift copy held two
        # more complex arrays: 2,164,807 bytes above a 2**16-point trace
        tg = centered_time_grid(5e-4, 2**16)
        trace = bin_aligned_line(tg, 1000)[1]
        fourier_recover(trace)  # warm
        peak = peak_above_inputs(lambda: fourier_recover(trace))
        assert peak <= 16 * tg.count + 128 * 1024

    def test_spectrum_keeps_the_transform_and_the_helper_returns_it_writeable(self):
        # the noise study writes into the helper's output
        tg = centered_time_grid(5e-4, 64)
        trace = bin_aligned_line(tg, 5)[1]
        amp = _transformed(np.asarray(trace.values), tg)[1]
        assert amp.flags.writeable and amp.flags.owndata
        rec = fourier_recover(trace)
        assert rec.amplitudes.flags.owndata and not rec.amplitudes.flags.writeable
        np.testing.assert_array_equal(rec.amplitudes, amp)

    @pytest.mark.parametrize("step", [1e-310, 5e-324])
    def test_step_without_a_finite_resolution_rejected(self, step):
        # the transform used to warn on its way to a non-finite grid
        trace = CorrelationTrace(FrequencyGrid(0.0, step, 64), np.ones(64))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"delay step {step!r} ps is too fine"):
                fourier_recover(trace)


class TestFoldOneSided:
    def test_fold_peak_on_2_16_bins(self):
        # 559,324 bytes above the spectrum, pinned plus 8 KiB: the weights and
        # the mirrored modulus (262 kB each) and one block of the Hermitian
        # residual. The whole half-length difference and its modulus held
        # beside the amplitudes took 787,992
        tg = centered_time_grid(5e-4, 2**16)
        rec = fourier_recover(bin_aligned_line(tg, 1000)[1])
        fold_one_sided(rec)  # warm
        assert peak_above_inputs(lambda: fold_one_sided(rec)) <= 559_324 + 8192

    def test_two_peaks_fold_to_one(self):
        tg = centered_time_grid(5e-4, 4096)
        nu0, trace = bin_aligned_line(tg, 1000)
        folded = fold_one_sided(fourier_recover(trace))
        assert folded.grid.values[np.argmax(folded.weights)] == pytest.approx(
            nu0, abs=1e-9
        )

    def test_mass_conservation(self):
        tg = centered_time_grid(5e-4, 4096)
        grid = make_frequency_grid(739.8, 0.002, 301)
        spec = gaussian_pump_spectrum(grid, 740.1, 0.15)
        rec = fourier_recover(correlation_trace(simulate_interferogram(spec, tg)))
        folded = fold_one_sided(rec)
        two_sided = rec.grid.step * np.abs(rec.amplitudes).sum()
        assert abs(folded.total_mass - two_sided) <= 1e-9 * two_sided

    def test_dc_counted_once_and_nyquist_slot(self):
        grid = FrequencyGrid(-2.0, 1.0, 4)  # bins -2, -1, 0, 1
        amp = np.array([0.5 + 0j, 0.25 + 0.1j, 0.8 + 0j, 0.25 - 0.1j])
        rec = RecoveredSpectrum(grid, amp)
        folded = fold_one_sided(rec)
        assert folded.grid.values.tolist() == [0.0, 1.0, 2.0]
        assert folded.weights[0] == pytest.approx(0.8)
        assert folded.weights[1] == pytest.approx(2 * abs(0.25 + 0.1j))
        assert folded.weights[2] == pytest.approx(0.5)

    @pytest.mark.parametrize("n, i0", [(10, 0), (10, 1), (10, 4), (10, 5), (10, 9), (9, 4)])
    def test_fold_reaches_the_farther_end(self, rng, n, i0):
        # zero at either edge, on either side of the middle, or centered
        amp = rng.normal(size=n) + 1j * rng.normal(size=n)
        for j in range(1, min(i0, n - 1 - i0) + 1):
            amp[i0 - j] = np.conj(amp[i0 + j])
        amp[i0] = amp[i0].real
        folded = fold_one_sided(RecoveredSpectrum(FrequencyGrid(-0.5 * i0, 0.5, n), amp))
        assert folded.grid == FrequencyGrid(0.0, 0.5, max(i0 + 1, n - i0))
        # bin k holds |a(0)| at k = 0, else |a(nu)| + |a(-nu)| over the bins that exist
        expected = [abs(amp[i0])] + [
            sum(abs(amp[i]) for i in (i0 - k, i0 + k) if 0 <= i < n)
            for k in range(1, folded.grid.count)
        ]
        np.testing.assert_allclose(folded.weights, expected, rtol=1e-14)

    @pytest.mark.parametrize(
        "start",
        [-4.5, -3.0 + 3e-9, 1.0, -20.0],
        ids=["half-bin", "off-by-3e-9-steps", "all-positive", "all-negative"],
    )
    def test_grid_without_zero_has_no_dc_bin(self, start):
        rec = RecoveredSpectrum(FrequencyGrid(start, 1.0, 10), np.ones(10, dtype=complex))
        with pytest.raises(ValueError, match="recovered grid does not contain zero frequency"):
            rec.zero_index
        with pytest.raises(ValueError, match="recovered grid does not contain zero frequency"):
            fold_one_sided(rec)

    def test_dc_bin_within_1e_9_steps_of_zero(self):
        grid = FrequencyGrid(-3.0 + 3e-10, 1.0, 10)
        assert RecoveredSpectrum(grid, np.ones(10, dtype=complex)).zero_index == 3

    def test_broken_symmetry_rejected(self):
        grid = FrequencyGrid(-2.0, 1.0, 5)
        amp = np.array([0.1, 0.3, 1.0, 0.5, 0.1], dtype=complex)
        rec = RecoveredSpectrum(grid, amp)
        with pytest.raises(AsymmetryError):
            fold_one_sided(rec)

    @pytest.mark.parametrize("pair", [0, 2047, 2048, 4094])
    def test_broken_symmetry_found_in_any_block(self, rng, pair):
        # the residual is taken 2,048 mirrored pairs at a time: a break in the
        # first, at either edge of a block or in the last pair is reported
        # with its relative error, and the symmetric spectrum folds
        n, i0 = 2**13, 2**12
        amp = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.5, 0.5, n)
        amp[i0 + 1] = 10.0  # sets the scale
        j = np.arange(1, n - i0)
        amp[i0 - j] = np.conj(amp[i0 + j])
        amp[i0] = amp[i0].real
        grid = FrequencyGrid(-i0 * 0.5, 0.5, n)
        fold_one_sided(RecoveredSpectrum(grid, amp))
        amp[i0 - 1 - pair] += 1e-2j
        with pytest.raises(AsymmetryError, match="broken by 1.000e-03"):
            fold_one_sided(RecoveredSpectrum(grid, amp))

    def test_renormalize_flag(self):
        tg = centered_time_grid(5e-4, 2048)
        _, trace = bin_aligned_line(tg, 700)
        folded = fold_one_sided(fourier_recover(trace)).renormalized()
        assert folded.normalized
        assert abs(folded.total_mass - 1.0) <= 1e-9


class TestDetectFeatures:
    def test_flat_spectrum_has_no_features(self):
        grid = make_frequency_grid(739.0, 0.01, 201)
        flat = SumFrequencySpectrum(grid, np.ones(201))
        assert detect_features(flat, min_prominence=1e-6) == []

    @pytest.mark.parametrize(
        "signal, i",
        [
            # the noise study's strongest non-DC bin can be the last one
            ([1.0, 2.0, 3.0], 2),
            ([3.0, 2.0, 1.0], 0),
            # a flat top of three equal samples has no curvature to fit
            ([1.0, 2.0, 2.0, 2.0, 1.0], 2),
        ],
        ids=["last", "first", "flat-top"],
    )
    def test_refinement_keeps_an_edge_or_flat_sample(self, signal, i):
        assert _refined(np.array(signal), i) == (0.0, signal[i])

    def test_synthetic_dips_against_baseline(self):
        grid = make_frequency_grid(739.0, 0.002, 1001)
        base = gaussian_pump_spectrum(grid, 740.0, 1.0)
        dip = np.exp(-4 * np.log(2) * ((grid.values - 739.8) / 0.05) ** 2)
        eaten = SumFrequencySpectrum(grid, base.weights * (1 - 0.5 * dip))
        feats = detect_features(eaten, baseline=base, min_prominence=0.01)
        assert len(feats) == 1
        assert feats[0].kind == "dip"
        assert abs(feats[0].center - 739.8) <= grid.step

    def test_merge_at_resolution_limit(self):
        # brute-force scan: lines one bin apart merge, three bins apart split
        tg = centered_time_grid(5e-4, 2**13)
        df = 1.0 / tg.window
        base_bin = int(round(740.25 / df))
        for sep_bins, expected in ((1, 1), (3, 2)):
            c1 = base_bin * df
            c2 = c1 + sep_bins * df
            grid = make_frequency_grid(c1 - 0.8, 0.0005, 3201)
            comb = comb_pump_spectrum(
                grid, [CombLine(c1, 0.004, 1.0), CombLine(c2, 0.004, 1.0)]
            )
            folded = fold_one_sided(
                fourier_recover(correlation_trace(simulate_interferogram(comb, tg)))
            )
            feats = [
                f
                for f in detect_features(
                    folded, min_prominence=0.2 * folded.weights.max()
                )
                if c1 - 0.5 < f.center < c2 + 0.5
            ]
            assert len(feats) == expected

    @pytest.mark.parametrize("preset", ["comb5", "tpa3"])
    def test_default_prominence_is_5_percent_of_the_maximum(self, preset, tmp_path):
        scenario = parse_scenario(preset_scenario(preset), tmp_path)
        spectrum = scenario.spectrum
        if scenario.sample is not None:
            spectrum = transmitted_spectrum(spectrum, scenario.sample).spectrum.renormalized()
        trace = correlation_trace(simulate_interferogram(spectrum, scenario.time_grid))
        folded = fold_one_sided(fourier_recover(trace))
        features = detect_features(folded)
        assert features
        assert features == detect_features(folded, min_prominence=0.05 * folded.weights.max())

    def test_default_prominence_keeps_features_above_5_percent(self):
        grid = make_frequency_grid(739.0, 0.01, 101)

        def bump(center):
            return np.exp(-(((grid.values - center) / 0.03) ** 2))

        weights = bump(739.3) + 0.07 * bump(739.6) + 0.03 * bump(739.8)
        features = detect_features(SumFrequencySpectrum(grid, weights))
        assert [round(f.center, 6) for f in features] == [739.3, 739.6]

    def test_default_prominence_without_a_positive_maximum(self):
        grid = make_frequency_grid(739.0, 0.01, 101)
        zero = SumFrequencySpectrum(grid, np.zeros(101))
        assert detect_features(zero) == []
        # a dip, but the spectrum lies above the baseline everywhere: the
        # searched signal, baseline - spectrum, has a local maximum below 0
        dipped = 1.0 - 0.2 * np.exp(-(((grid.values - 739.5) / 0.05) ** 2))
        spectrum = SumFrequencySpectrum(grid, dipped)
        below = SumFrequencySpectrum(grid, np.full(101, 0.5))
        assert detect_features(spectrum, baseline=below) == []
        # a baseline lying above the spectrum by a constant eats no dip
        line = gaussian_pump_spectrum(grid, 739.5, 0.1)
        above = SumFrequencySpectrum(grid, line.weights + 1.0)
        assert detect_features(line, baseline=above) == []

    def test_min_prominence_validated(self):
        grid = make_frequency_grid(739.0, 0.01, 101)
        flat = SumFrequencySpectrum(grid, np.ones(101))
        with pytest.raises(ValueError):
            detect_features(flat, min_prominence=0.0)

    def test_baseline_grid_mismatch(self):
        a = gaussian_pump_spectrum(make_frequency_grid(739.0, 0.002, 501), 739.5, 0.2)
        b = gaussian_pump_spectrum(make_frequency_grid(739.0, 0.004, 501), 739.5, 0.2)
        with pytest.raises(GridMismatchError):
            detect_features(a, baseline=b, min_prominence=0.1)


def scipy_peaks(x, min_prominence):
    """Indices, prominences and half-prominence widths from ``scipy.signal``."""
    from scipy.signal import find_peaks, peak_widths

    with warnings.catch_warnings():
        # a half height that rounds to the peak's own value gives a width of 0
        warnings.filterwarnings("ignore", "some peaks have a width of 0")
        idx, props = find_peaks(x, prominence=min_prominence)
        widths = peak_widths(x, idx, rel_height=0.5)[0]
    return idx, props["prominences"], widths


def assert_same_peaks(x, min_prominence):
    for got, want in zip(_find_peaks(x, min_prominence), scipy_peaks(x, min_prominence)):
        np.testing.assert_array_equal(got, want)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _floats(values):
    return np.array(values, dtype=float)


signals = st.one_of(
    # integer plateaus, edge plateaus, constant runs and maxima of equal height
    st.lists(st.integers(0, 4), max_size=40).map(_floats),
    st.lists(st.tuples(st.integers(0, 3), st.integers(1, 5)), max_size=12).map(
        lambda runs: np.repeat(_floats([v for v, _ in runs]), [n for _, n in runs])
    ),
    # near 1e16 a half height can round onto the peak itself
    st.lists(st.integers(0, 3), max_size=20).map(lambda v: 1e16 + _floats(v)),
    # white noise, and random walks, whose peaks nest
    st.builds(
        lambda n, seed, walk: (np.cumsum if walk else np.asarray)(
            np.random.default_rng(seed).normal(size=n)
        ),
        st.integers(0, 80), st.integers(0, 2**32 - 1), st.booleans(),
    ),
)
# NaN and infinite samples among plateaus, and signed zeros that compare equal
special_signals = st.lists(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, math.inf, -math.inf, math.nan]), max_size=40
).map(_floats)


def changes_local_maxima(x):
    """The local maxima from the index of every change between neighbours:
    the midpoint of each run that a rising change starts and a falling
    one (or one with a NaN) ends."""
    changes = np.flatnonzero(x[1:] != x[:-1])
    rising = (x[1:] > x[:-1])[changes]
    top = np.flatnonzero(rising[:-1] & ~rising[1:])
    return (changes[top] + 1 + changes[top + 1]) // 2


# whole numbers meet the prominences of integer signals exactly
prominences = st.one_of(
    st.sampled_from([5e-324, 1e-300, 1e-12, 1.0, 2.0]), st.floats(1e-3, 5.0)
)


def preset_traces():
    return [(name, "trace.csv") for name in PRESETS] + [("noise-gauss", "trace_estimated.csv")]


def folded_weights(trace_csv):
    return fold_one_sided(fourier_recover(read_trace_csv(trace_csv))).weights


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """Directory holding ``simulate --preset`` output of every preset."""
    root = tmp_path_factory.mktemp("presets")
    for name in PRESETS:
        assert main(["simulate", "--preset", name, "--out", str(root / name)]) == 0
    return root


class TestPeakFinder:
    """The numpy peak finder against ``scipy.signal``, bit for bit."""

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(x=signals, min_prominence=prominences)
    @example(x=_floats([]), min_prominence=1e-12)
    @example(x=_floats([1]), min_prominence=1e-12)
    @example(x=_floats([1, 2]), min_prominence=1e-12)
    @example(x=_floats([0, 1, 0]), min_prominence=1e-12)
    @example(x=_floats([1, 1, 1]), min_prominence=1e-12)
    @example(x=_floats([0, 2, 1, 2, 0]), min_prominence=1e-12)
    @example(x=_floats([2, 0, 2, 2, 0, 1]), min_prominence=1e-12)
    @example(x=_floats([0, 1, 0, 3, 2, 3, 0]), min_prominence=1.0)
    def test_matches_scipy(self, x, min_prominence):
        assert_same_peaks(x, min_prominence)

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(x=st.one_of(signals, special_signals))
    @example(x=_floats([0, 1, 1, 0, 2, 2, 2, 1]))
    @example(x=_floats([1, math.nan, 0, 2, math.nan]))
    def test_local_maxima_equal_the_change_rule(self, x):
        got, want = _local_maxima(x), changes_local_maxima(x)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_local_maxima_hold_no_index_per_sample(self, simulated):
        # the comb5 folded spectrum: 32,769 bins, no plateau and about
        # 10,000 maxima; an int64 index per change read 18.8 B a sample
        x = folded_weights(simulated / "comb5" / "trace.csv")
        assert np.all(x[1:] != x[:-1])
        assert peak_above_inputs(lambda: _local_maxima(x)) < 10 * x.size

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(x=signals)
    @example(x=_floats([0, 2, 1, 3, 0]))  # both walks end on a base
    def test_width_walks_stop_within_the_bases(self, x):
        # scipy bounds each half-height walk by the side minimum nearest the
        # peak; walks that never pass that bound need none
        from scipy.signal import peak_prominences

        peaks = _local_maxima(x)
        prom, left_base, right_base = peak_prominences(x, peaks)
        height = np.tile(x[peaks] - prom * 0.5, 2)
        ends = _first_at_or_below(
            x, np.tile(peaks, 2), np.repeat([-1, 1], peaks.size), height
        )
        assert np.all(left_base <= ends[: peaks.size])
        assert np.all(ends[peaks.size :] <= right_base)

    # the comb5 spectrum holds 10,030 local maxima, ripple on its floor
    @pytest.mark.parametrize("name, trace", preset_traces())
    def test_matches_scipy_on_preset_spectra(self, simulated, name, trace):
        x = folded_weights(simulated / name / trace)
        for share in (0.05, 1e-12):
            assert_same_peaks(x, share * x.max())

    def test_matches_scipy_on_dips(self):
        scenario = parse_scenario(preset_scenario("tpa3"), None)
        tg = scenario.time_grid
        pump = scenario.spectrum
        eaten = transmitted_spectrum(pump, scenario.sample).spectrum.renormalized()
        base, dipped = (
            fold_one_sided(fourier_recover(correlation_trace(simulate_interferogram(s, tg))))
            for s in (pump, eaten)
        )
        signal = base.weights - dipped.weights
        features = detect_features(dipped, baseline=base)
        idx, _, widths = scipy_peaks(signal, 0.05 * signal.max())
        assert len(features) == idx.size == 3
        assert [f.kind for f in features] == ["dip"] * 3
        assert [f.fwhm for f in features] == list(widths * base.grid.step)
        for share in (0.05, 1e-12):
            assert_same_peaks(signal, share * signal.max())


def recovered_step(grid) -> float:
    return fourier_recover(CorrelationTrace(grid, np.ones(grid.count))).grid.step


class TestResolutionLimit:
    def test_default_window(self):
        grid = default_time_grid()
        assert recovered_step(grid) == 1 / grid.window
        assert recovered_step(grid) == pytest.approx(0.030517578125)

    def test_reciprocal_law(self):
        short, long = centered_time_grid(0.01, 2000), centered_time_grid(0.01, 4000)
        assert recovered_step(short) == 1 / short.window
        assert recovered_step(long) == 1 / long.window
        assert recovered_step(short) == 2 * recovered_step(long)

    def test_two_line_resolvability_scan(self):
        # Lines 0.035 THz apart (the close pump-line pair). Magnitude-spectrum
        # peak detection needs about two bins of separation, so the window
        # threshold sits near 2/0.035 ps: merged at 16.4 ps, split at 65.5 ps.
        grid = make_frequency_grid(740.0, 0.0005, 1001)
        comb = comb_pump_spectrum(
            grid, [CombLine(740.215, 0.004, 1.0), CombLine(740.250, 0.004, 1.0)]
        )
        outcomes = {}
        for count in (2**15, 2**17):
            tg = centered_time_grid(5e-4, count)
            folded = fold_one_sided(
                fourier_recover(correlation_trace(simulate_interferogram(comb, tg)))
            )
            feats = [
                f
                for f in detect_features(
                    folded, min_prominence=0.25 * folded.weights.max()
                )
                if 740.1 < f.center < 740.4
            ]
            outcomes[tg.window] = len(feats)
        assert outcomes[16.384] == 1
        assert outcomes[65.536] == 2


class TestSpectrumDistance:
    def test_identical_spectra(self):
        grid = make_frequency_grid(739.0, 0.002, 501)
        spec = gaussian_pump_spectrum(grid, 739.5, 0.2)
        assert spectrum_distance(spec, spec) == (0.0, 0.0)

    def test_scale_invariance(self):
        grid = make_frequency_grid(739.0, 0.002, 501)
        spec = gaussian_pump_spectrum(grid, 739.5, 0.2)
        doubled = SumFrequencySpectrum(grid, 2 * spec.weights)
        l2, linf = spectrum_distance(spec, doubled)
        assert l2 < 1e-12 and linf < 1e-12

    def test_grid_mismatch(self):
        a = gaussian_pump_spectrum(make_frequency_grid(739.0, 0.002, 501), 739.5, 0.2)
        b = gaussian_pump_spectrum(make_frequency_grid(738.0, 0.002, 501), 738.5, 0.2)
        with pytest.raises(GridMismatchError):
            spectrum_distance(a, b)


class TestAmplitudeFidelity:
    def test_comb_line_areas_reproduce_weights(self):
        # fwhm 0.2 so the envelope decays inside the 16.4 ps window and
        # truncation leakage stays well under the 1% area tolerance
        grid = make_frequency_grid(738.9, 0.002, 1401)
        lines = [
            CombLine(739.3, 0.2, 1.0),
            CombLine(740.1, 0.2, 0.55),
            CombLine(741.0, 0.2, 0.8),
        ]
        comb = comb_pump_spectrum(grid, lines)
        tg = default_time_grid(count=2**15)
        folded = fold_one_sided(
            fourier_recover(correlation_trace(simulate_interferogram(comb, tg)))
        )
        nu = folded.grid.values
        total = sum(ln.weight for ln in lines)
        for ln in lines:
            sel = (nu > ln.center - 0.4) & (nu < ln.center + 0.4)
            area = folded.grid.step * folded.weights[sel].sum()
            assert abs(area - ln.weight / total) / (ln.weight / total) < 0.01
