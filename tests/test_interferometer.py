from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.fft
import scipy.signal

from noonspec import (
    AliasingError,
    CombLine,
    CorrelationTrace,
    Interferogram,
    NoSignalError,
    SumFrequencySpectrum,
    TimeGrid,
    WindowTooShortError,
    comb_pump_spectrum,
    correlation_trace,
    default_time_grid,
    dominant_oscillation_frequency,
    envelope_coherence_time,
    gaussian_jsi,
    gaussian_pump_spectrum,
    make_frequency_grid,
    simulate_interferogram,
    sum_frequency_marginal,
)
from noonspec import _numerics
from noonspec.cli import parse_scenario
from noonspec._numerics import _blocks, _phasors
from noonspec.interferometer import RANGE_TOL, _correlation, _next_fast_len, _span, envelope
from noonspec.presets import PRESETS, preset_scenario
from conftest import (
    centered_time_grid,
    direct_sum_reference,
    peak_above_inputs,
    single_bin_spectrum,
)


class TestSimulateInterferogram:
    def test_zero_delay_bunching(self):
        grid = make_frequency_grid(739.8, 0.002, 301)
        spec = gaussian_pump_spectrum(grid, 740.1, 0.1)
        tg = centered_time_grid(5e-4, 1024)
        p = simulate_interferogram(spec, tg)
        assert p.values[tg.count // 2] == pytest.approx(1.0, abs=1e-9)

    def test_single_line_oscillation_period(self):
        # reciprocal oracle: a line at 740.215 THz oscillates with period
        # 1/740.215 ps ~= 1.35096e-3 ps
        nu0 = 740.215
        period = 1.0 / nu0
        spec = single_bin_spectrum(nu0)
        tg = centered_time_grid(1e-4, 4096)
        p = simulate_interferogram(spec, tg).values
        maxima = np.where((p[1:-1] > p[:-2]) & (p[1:-1] > p[2:]))[0] + 1
        spacings = np.diff(maxima) * tg.step
        assert np.all(np.abs(spacings - period) <= tg.step)
        assert np.mean(spacings) == pytest.approx(period, rel=1e-3)

    def test_envelope_narrows_with_linewidth(self):
        grid = make_frequency_grid(738.0, 0.002, 2001)
        tg = default_time_grid(count=2**14)
        widths = []
        for fwhm in (0.2, 0.4):
            spec = gaussian_pump_spectrum(grid, 740.0, fwhm)
            trace = correlation_trace(simulate_interferogram(spec, tg))
            widths.append(envelope_coherence_time(trace))
        assert widths[0] / widths[1] == pytest.approx(2.0, rel=0.05)

    def test_float_count_delay_grid_gives_the_int_grids_bits(self):
        spec = gaussian_pump_spectrum(make_frequency_grid(739.8, 0.002, 301), 740.1, 0.1)
        p = simulate_interferogram(spec, TimeGrid(-0.5, 5e-4, 2048.0))
        assert p.grid == TimeGrid(-0.5, 5e-4, 2048)
        assert np.array_equal(p.values, simulate_interferogram(spec, TimeGrid(-0.5, 5e-4, 2048)).values)

    def test_rejects_unnormalized_spectrum(self):
        grid = make_frequency_grid(739.8, 0.002, 101)
        raw = SumFrequencySpectrum(grid, np.ones(101))
        with pytest.raises(ValueError):
            simulate_interferogram(raw, centered_time_grid(5e-4, 64))


class TestChirpZAgainstDirectSum:
    """The chirp-z synthesis against an extended-precision direct sum."""

    TOL = 1e-14

    def assert_matches_direct_sum(self, spec, tg, idx=slice(None)):
        got = simulate_interferogram(spec, tg).values[idx]
        ref = direct_sum_reference(spec, tg.values[idx])
        assert np.max(np.abs(got - ref)) <= self.TOL

    def test_matches_longdouble_direct_sum(self):
        grid = make_frequency_grid(739.8, 0.002, 301)
        spec = gaussian_pump_spectrum(grid, 740.1, 0.1)
        self.assert_matches_direct_sum(spec, centered_time_grid(5e-4, 2048))  # m > n
        self.assert_matches_direct_sum(spec, centered_time_grid(5e-4, 97))  # n > m

    def test_two_point_axes(self):
        two_bins = SumFrequencySpectrum(
            make_frequency_grid(740.1, 0.004, 2), np.array([100.0, 150.0])
        )
        grid = make_frequency_grid(739.8, 0.002, 301)
        spec = gaussian_pump_spectrum(grid, 740.1, 0.1)
        self.assert_matches_direct_sum(two_bins, centered_time_grid(5e-4, 300))
        self.assert_matches_direct_sum(spec, TimeGrid(-0.0123, 7e-4, 2))
        self.assert_matches_direct_sum(two_bins, TimeGrid(3.1, 5e-4, 2))

    def test_window_far_from_zero(self):
        grid = make_frequency_grid(739.8, 0.002, 301)
        spec = gaussian_pump_spectrum(grid, 740.1, 0.1)
        self.assert_matches_direct_sum(spec, TimeGrid(16.0123, 5e-4, 400))
        self.assert_matches_direct_sum(spec, TimeGrid(-16.3837, 5e-4, 400))
        self.assert_matches_direct_sum(single_bin_spectrum(740.215), TimeGrid(16.0009, 3e-4, 300))

    @pytest.mark.parametrize("count, blocks", [
        (2 * 910, 1),  # the most delays that stay one block
        (2 * 910 + 1, 3),  # the fewest that take several: a one-delay last block
        (3 * 910, 3),  # three full blocks
        (3 * 910 + 1, 4),  # a one-delay fourth block
    ])
    def test_across_output_blocks(self, count, blocks):
        # 301 bins give blocks of 910 delays (transforms of 1210 points); each
        # boundary is checked at lo - 1, lo and lo + 1, with both window edges
        grid = make_frequency_grid(739.8, 0.002, 301)
        spec = gaussian_pump_spectrum(grid, 740.1, 0.1)
        span = _span(grid.count, count)
        assert -(-count // span) == blocks
        idx = np.array([0, 1, *(lo + d for lo in range(910, count, 910) for d in (-1, 0, 1))])
        idx = np.unique(np.r_[idx[idx < count], count - 2, count - 1])
        self.assert_matches_direct_sum(spec, centered_time_grid(5e-4, count), idx)

    def test_default_grid_broad_spectrum(self):
        # the chirp phase reaches ~4e3 cycles here; spot-check the centre
        # and both window edges
        grid = make_frequency_grid(737.25, 0.004, 1501)
        spec = gaussian_pump_spectrum(grid, 740.25, 2.0)
        tg = default_time_grid()
        idx = np.r_[0:40, 32748:32788, tg.count - 40 : tg.count]
        self.assert_matches_direct_sum(spec, tg, idx)


class TestChirpZBuffers:
    """The synthesis holds little beside its output and a block's transform buffers."""

    @pytest.mark.parametrize("count", [2**16, 2**18])
    def test_peak_memory_is_bounded_by_the_transform_buffers(self, count):
        # the output, which Interferogram keeps without a copy (8 bytes a
        # delay), and its range check's one-byte mask, plus eight complex
        # buffers of the block's transform length, the fast length from 4n:
        # the three held lines, the kernel, the row, the output chirp and
        # the chirp stage's arrays (6.80 buffers beside the output at 2^16).
        # One convolution of length >= n + m - 1 held 3.5 buffers of that
        # length and fails: 14.9 MB at 2^18 against a bound of 3.1 MB, and
        # so does a copy of the output: 4.46 MB
        spec = parse_scenario(preset_scenario("tpa3"), Path.cwd()).spectrum
        tg = default_time_grid(count=count)
        n = spec.grid.count
        buffer = 16 * _next_fast_len(4 * n)
        peak = peak_above_inputs(lambda: simulate_interferogram(spec, tg))
        assert peak <= 9 * count + 8 * buffer

    @pytest.mark.parametrize("preset, count, bound", [
        # 4096 delays, one block, where one transform buffer is 82 kB and the
        # block arrays weigh most: 387,216 bytes, in the S2 offsets, against
        # 458,616 for the two-row layout that kept every delay offset
        ("noise-gauss", 4096, 458_616),
        # 1501 bins in 15 sections, pinned at 1,182,344 bytes plus 8 KiB: a
        # block's kernel and output chirp kept alive into the next block's,
        # or the held lines kept alive into Interferogram's copy, exceed it
        ("tpa3", 2**16, 1_182_344 + 8192),
        # 1751 bins in 13 sections, pinned the same way at 1,273,576 bytes
        ("comb5", 2**16, 1_273_576 + 8192),
    ])
    def test_peak_memory_on_a_short_grid(self, preset, count, bound):
        scenario = parse_scenario(preset_scenario(preset), Path.cwd())
        assert scenario.time_grid.count == count
        spec, tg = scenario.spectrum, scenario.time_grid
        # a first call may load numpy.fft, whose import the peak would count
        simulate_interferogram(spec, tg)
        peak = peak_above_inputs(lambda: simulate_interferogram(spec, tg))
        assert peak <= bound

    @pytest.mark.parametrize("block", [7, 1000, 4097])
    def test_bits_do_not_depend_on_the_block_length(self, monkeypatch, block):
        # the value sets the blocks of the t_off S2 offsets alone, not the
        # output blocks: 7 leaves a one-delay last block of 4096 and of 3032
        # delays, 1000 a partial one, 4097 one block for all 4096. The
        # preset's 4096 delays are one output block, and 6065 are three of
        # 3032, 3032 and 1 delays
        scenario = parse_scenario(preset_scenario("noise-gauss"), Path.cwd())
        spec = scenario.spectrum
        grids = [default_time_grid(scenario.time_grid.step, m) for m in (4096, 6065)]
        spans = [_span(spec.grid.count, tg.count) for tg in grids]
        assert spans == [4096, 3032]
        want = [simulate_interferogram(spec, tg).values for tg in grids]
        monkeypatch.setattr(_numerics, "_BLOCK", block)
        assert [_span(spec.grid.count, tg.count) for tg in grids] == spans
        for tg, values in zip(grids, want):
            got = simulate_interferogram(spec, tg).values
            np.testing.assert_array_equal(got.view(np.uint64), values.view(np.uint64))

    @pytest.mark.parametrize("sign, start", [
        (1, None),
        (-1, None),
        # the recovery's t-origin phasors exp(2j pi f start), with a scale
        (1, 0.0),
        (1, -0.0),
        (1, "random"),
    ])
    def test_phasors_equal_the_complex_exponential_bit_for_bit(self, sign, start):
        # the synthesis and the recovery build each phase in place; their
        # bytes rest on this
        rng = np.random.default_rng(7)
        cycles = np.concatenate([
            rng.uniform(-0.5, 0.5, 100_000),  # chirp fractions
            [0.0, -0.0, 0.5, -0.5, 5e-324, -5e-324, 1e-300, -1e-300],
            rng.uniform(-1e6, 1e6, 10_000),
            [1e6, -1e6, 999_999.75, -999_999.5],
        ])
        if start is None:
            got = _phasors(cycles, sign)
            # the product inside np.exp(±2j * np.pi * cycles): on Python 3.10
            # to 3.13 the scalar ±2j * np.pi is complex(0.0, ±2 pi)
            want = np.exp(complex(0.0, sign * 2 * np.pi) * cycles)
        else:
            if start == "random":
                start = float(rng.uniform(-40.0, 40.0))
            # fftfreq's order, 0 and the positive f before the negative ones,
            # and like fftfreq no -0; the +0 goes to the non-negative head
            f = np.concatenate([[0.0], cycles[cycles > 0], cycles[cycles < 0]])
            head = 1 + np.count_nonzero(cycles > 0)
            got = _phasors(f, sign, scale=start, head=head)
            want = np.exp(2j * np.pi * f * start)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestScipyOracles:
    """The numpy transforms against the scipy functions they replace."""

    def test_next_fast_len_equals_scipy(self):
        sizes = list(range(1, 20001))
        for name in PRESETS:  # the chirp-z lengths n + m - 1 of every preset
            scenario = parse_scenario(preset_scenario(name), Path.cwd())
            sizes.append(scenario.spectrum.grid.count + scenario.time_grid.count - 1)
        assert [_next_fast_len(n) for n in sizes] == list(map(scipy.fft.next_fast_len, sizes))

    @pytest.mark.parametrize("n", [*range(1, 40), 1000, 1001, 4096, 65536, 65537])
    def test_envelope_equals_scipy_hilbert(self, n):
        g = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        if n > 1:
            trace = CorrelationTrace(TimeGrid(0.0, 5e-4, n), g)
        else:  # a delay grid has at least two points; envelope reads only the values
            trace = SimpleNamespace(values=g)
        np.testing.assert_array_equal(envelope(trace), np.abs(scipy.signal.hilbert(g)))


class TestCorrelationTrace:
    def test_flat_interferogram_gives_zero(self):
        tg = centered_time_grid(5e-4, 64)
        p = Interferogram(tg, np.full(64, 0.5))
        g = correlation_trace(p)
        assert np.all(g.values == 0.0)

    def test_zero_delay_unit_correlation(self):
        spec = single_bin_spectrum(740.25)
        tg = centered_time_grid(5e-4, 1024)
        g = correlation_trace(simulate_interferogram(spec, tg))
        assert g.values[tg.count // 2] == pytest.approx(1.0, abs=1e-9)

    def test_single_line_is_pure_cosine(self):
        nu0 = 740.25
        spec = single_bin_spectrum(nu0)
        tg = centered_time_grid(2e-4, 2048)
        g = correlation_trace(simulate_interferogram(spec, tg))
        expected = np.cos(2 * np.pi * nu0 * tg.values)
        assert np.max(np.abs(g.values - expected)) < 1e-9

    def test_one_rule_has_the_bits_of_the_expression(self):
        # every binade of [0, 1], subnormals included, and both ends
        rng = np.random.default_rng(2)
        p = np.ldexp(rng.uniform(0.5, 1.0, 5000), -rng.integers(0, 1080, 5000))
        p[:6] = [0.0, 1.0, 5e-324, 1e-310, 2.2250738585072009e-308, 0.5]
        want = (2.0 * p - 1.0).view(np.uint64)
        np.testing.assert_array_equal(_correlation(p).view(np.uint64), want)
        out = p.copy()
        assert _correlation(out, out=out) is out
        np.testing.assert_array_equal(out.view(np.uint64), want)


@pytest.mark.parametrize("count", [1, 12, 2048, 4097])
def test_blocks_cover_the_range_in_order(count, monkeypatch):
    for size in (1, 7, count, count + 5):
        blocks = list(_blocks(count, size))
        assert [i for lo, hi in blocks for i in range(lo, hi)] == list(range(count))
        assert all(0 < hi - lo <= size for lo, hi in blocks)
    # no size: _BLOCK, as it is when called
    monkeypatch.setattr(_numerics, "_BLOCK", 5)
    assert list(_blocks(count)) == list(_blocks(count, 5))


@pytest.mark.parametrize("series, low", [(Interferogram, 0.0), (CorrelationTrace, -1.0)])
class TestDelaySeriesValidation:
    def test_bounds_accepted_within_tolerance(self, series, low):
        values = [low - RANGE_TOL, low, low + RANGE_TOL, 1 - RANGE_TOL, 1.0, 1 + RANGE_TOL]
        got = series(centered_time_grid(1e-3, len(values)), values)
        assert got.values.tolist() == values
        assert not got.values.flags.writeable

    @pytest.mark.parametrize("bad", ["below", "above", "nan", "inf", "short", "long"])
    def test_rejected_values_name_the_type(self, series, low, bad):
        tg = centered_time_grid(1e-3, 4)
        values = {
            "below": [low - 2 * RANGE_TOL, 0.5, 0.5, 0.5],
            "above": [0.5, 0.5, 0.5, 1 + 2 * RANGE_TOL],
            "nan": [0.5, np.nan, 0.5, 0.5],
            "inf": [0.5, 0.5, -np.inf, 0.5],
            "short": [0.5, 0.5, 0.5],
            "long": [0.5] * 5,
        }[bad]
        with pytest.raises(ValueError, match=f"^{series.__name__} values"):
            series(tg, values)


class TestEnvelopeCoherenceTime:
    def test_gaussian_fourier_pair(self):
        # closed-form oracle (checked against dense quadrature of the
        # transform): envelope fwhm = 4 ln2 / (pi * spectral fwhm)
        grid = make_frequency_grid(738.0, 0.002, 2001)
        for fwhm in (0.2, 0.4):  # envelopes of 4.4 and 2.2 ps fit the 8.2 ps window
            spec = gaussian_pump_spectrum(grid, 740.0, fwhm)
            trace = correlation_trace(
                simulate_interferogram(spec, default_time_grid(count=2**14))
            )
            expected = 4 * np.log(2) / (np.pi * fwhm)
            assert envelope_coherence_time(trace) == pytest.approx(expected, rel=1e-3)

    def test_monochromatic_line_reports_window_too_short(self):
        spec = single_bin_spectrum(740.25)
        trace = correlation_trace(
            simulate_interferogram(spec, centered_time_grid(5e-4, 2048))
        )
        with pytest.raises(WindowTooShortError):
            envelope_coherence_time(trace)

    def test_zero_trace_reports_no_signal(self):
        tg = centered_time_grid(5e-4, 64)
        trace = correlation_trace(Interferogram(tg, np.full(64, 0.5)))
        with pytest.raises(NoSignalError):
            envelope_coherence_time(trace)


class TestDominantOscillationFrequency:
    def test_single_line_recovered_within_bin(self):
        nu0 = 740.300
        spec = single_bin_spectrum(nu0)
        tg = default_time_grid()
        trace = correlation_trace(simulate_interferogram(spec, tg))
        found = dominant_oscillation_frequency(trace, max_expected_thz=741.0)
        assert abs(found - nu0) <= 1.0 / tg.window

    def test_zero_trace_raises(self):
        tg = centered_time_grid(5e-4, 64)
        trace = correlation_trace(Interferogram(tg, np.full(64, 0.5)))
        with pytest.raises(NoSignalError):
            dominant_oscillation_frequency(trace)

    def test_two_equal_lines_returns_one_of_them(self):
        tg = default_time_grid(count=2**14)
        df = 1.0 / tg.window
        nu1, nu2 = 6000 * df, 6002 * df  # both inside Nyquist, two bins apart
        grid = make_frequency_grid(nu1 - 0.3, 0.001, 851)
        comb = comb_pump_spectrum(
            grid, [CombLine(nu1, 0.004, 1.0), CombLine(nu2, 0.004, 1.0)]
        )
        trace = correlation_trace(simulate_interferogram(comb, tg))
        found = dominant_oscillation_frequency(trace)
        assert min(abs(found - nu1), abs(found - nu2)) <= df

    def test_nyquist_guard(self):
        tg = centered_time_grid(1e-2, 256)  # Nyquist at 50 THz
        trace = correlation_trace(Interferogram(tg, np.ones(256)))
        with pytest.raises(AliasingError):
            dominant_oscillation_frequency(trace, max_expected_thz=740.0)

    @pytest.mark.parametrize("max_thz", [0.0, -740.0, float("nan")])
    def test_nyquist_guard_needs_a_positive_bound(self, max_thz):
        # -740 used to raise AliasingError, 0 a ZeroDivisionError
        tg = centered_time_grid(1e-2, 256)
        trace = correlation_trace(Interferogram(tg, np.ones(256)))
        with pytest.raises(ValueError, match="needs a positive frequency") as exc:
            dominant_oscillation_frequency(trace, max_expected_thz=max_thz)
        assert not isinstance(exc.value, AliasingError)


class TestInvariants:
    def test_oscillation_period_law(self):
        tg = centered_time_grid(1e-4, 2048)
        for nu0 in (739.9, 740.215, 740.5):
            p = simulate_interferogram(single_bin_spectrum(nu0), tg).values
            maxima = np.where((p[1:-1] > p[:-2]) & (p[1:-1] > p[2:]))[0] + 1
            spacings = np.diff(maxima) * tg.step
            assert np.all(np.abs(spacings - 1.0 / nu0) <= tg.step)

    def test_superposition_of_comb_lines(self):
        grid = make_frequency_grid(739.5, 0.001, 1501)
        lines = [CombLine(739.8, 0.03, 1.0), CombLine(740.4, 0.05, 0.6)]
        tg = centered_time_grid(5e-4, 512)
        comb_p = simulate_interferogram(comb_pump_spectrum(grid, lines), tg).values
        parts = [
            simulate_interferogram(
                gaussian_pump_spectrum(grid, ln.center, ln.fwhm), tg
            ).values
            for ln in lines
        ]
        weights = np.array([ln.weight for ln in lines])
        blended = (weights[0] * parts[0] + weights[1] * parts[1]) / weights.sum()
        np.testing.assert_allclose(comb_p, blended, rtol=0, atol=1e-12)

    def test_interferogram_depends_only_on_marginal(self):
        # two different joint intensities with identical anti-diagonal mass:
        # an asymmetric factor along nu_s - nu_i, and its transpose
        h = 0.004
        grid = make_frequency_grid(369.85, h, 201)
        base = gaussian_jsi(grid, grid, 740.5, 0.1, 0.6)
        nu_s = grid.values[:, None]
        nu_i = grid.values[None, :]
        skew = 1.0 + 0.4 * np.tanh((nu_s - nu_i) / 0.2)
        from noonspec import JointSpectralIntensity

        d1 = base.density * skew
        jsi1 = JointSpectralIntensity(grid, grid, d1 / (h * h * d1.sum()))
        jsi2 = JointSpectralIntensity(grid, grid, jsi1.density.T)
        out = make_frequency_grid(2 * 369.85 + 100 * h, h, 201)
        m1 = sum_frequency_marginal(jsi1, out)
        m2 = sum_frequency_marginal(jsi2, out)
        tg = centered_time_grid(5e-4, 1024)
        p1 = simulate_interferogram(m1, tg).values
        p2 = simulate_interferogram(m2, tg).values
        assert np.max(np.abs(p1 - p2)) < 1e-9

    def test_range_bounds(self, rng):
        tg = centered_time_grid(5e-4, 512)
        for _ in range(20):
            count = int(rng.integers(16, 96))
            grid = make_frequency_grid(float(rng.uniform(1, 600)), 0.01, count)
            w = rng.uniform(0, 1, count)
            w[rng.integers(0, count)] += 1.0
            spec = SumFrequencySpectrum(grid, w / (0.01 * w.sum()))
            p = simulate_interferogram(spec, tg)
            g = correlation_trace(p)
            assert np.all(p.values >= 0) and np.all(p.values <= 1)
            assert np.all(np.abs(g.values) <= 1)
            ref = direct_sum_reference(spec, tg.values)
            assert np.max(np.abs(p.values - ref)) <= TestChirpZAgainstDirectSum.TOL
