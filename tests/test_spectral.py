import math
import warnings

import numpy as np
import pytest

from noonspec import (
    CombLine,
    CoverageError,
    FrequencyGrid,
    JointSpectralIntensity,
    SumFrequencySpectrum,
    comb_pump_spectrum,
    gaussian_jsi,
    gaussian_pump_spectrum,
    make_frequency_grid,
    sum_frequency_marginal,
)
from noonspec.presets import PRESETS, preset_scenario
from noonspec.spectral import gaussian_profile

FOUR_LN2 = 4.0 * np.log(2.0)


class TestMakeFrequencyGrid:
    def test_band_containing_pump_lines(self):
        grid = make_frequency_grid(739.8, 0.001, 1001)
        assert grid.values[0] == pytest.approx(739.8)
        assert grid.stop == pytest.approx(740.8)
        for line in (740.215, 740.250, 740.300):
            assert abs(grid.values[grid.index_of(line)] - line) <= 0.0005

    def test_minimal_grid(self):
        grid = make_frequency_grid(0, 1, 2)
        assert grid.values.tolist() == [0.0, 1.0]

    def test_arithmetic_progression(self):
        grid = make_frequency_grid(100, 0.5, 5)
        assert grid.values.tolist() == [100.0, 100.5, 101.0, 101.5, 102.0]

    @pytest.mark.parametrize("args", [(0, 0, 5), (0, -1, 5), (0, 1, 1), (0, 1, 0)])
    def test_invalid_arguments(self, args):
        with pytest.raises(ValueError):
            make_frequency_grid(*args)


class TestGaussianPumpSpectrum:
    def test_peak_at_center_bin(self):
        grid = make_frequency_grid(739.8, 0.001, 1001)
        spec = gaussian_pump_spectrum(grid, 740.250, 0.05)
        assert np.argmax(spec.weights) == grid.index_of(740.250)

    def test_unit_mass_by_construction(self):
        grid = make_frequency_grid(739.8, 0.001, 1001)
        spec = gaussian_pump_spectrum(grid, 740.3, 0.07)
        assert abs(spec.total_mass - 1.0) <= 1e-9
        assert spec.normalized

    def test_half_width_point(self):
        # analytic oracle: at center - fwhm/2 the Gaussian is exactly half peak
        grid = make_frequency_grid(740.0, 0.0005, 1001)
        spec = gaussian_pump_spectrum(grid, 740.25, 0.05)
        ratio = spec.weights[grid.index_of(740.225)] / spec.weights[grid.index_of(740.25)]
        assert abs(ratio - 0.5) / 0.5 < 1e-6

    def test_invalid_fwhm(self):
        grid = make_frequency_grid(739.8, 0.001, 101)
        with pytest.raises(ValueError):
            gaussian_pump_spectrum(grid, 739.85, 0.0)

    def test_coverage_warning_for_truncated_gaussian(self):
        grid = make_frequency_grid(740.0, 0.001, 101)  # spans 0.1 THz
        assert gaussian_pump_spectrum(grid, 740.05, 0.05).coverage_warning
        wide = make_frequency_grid(739.0, 0.002, 1001)
        assert not gaussian_pump_spectrum(wide, 740.0, 0.05).coverage_warning


class TestCombPumpSpectrum:
    def test_three_lines_make_three_maxima(self):
        grid = make_frequency_grid(740.1, 0.001, 301)
        lines = [CombLine(c, 0.01, 1.0) for c in (740.215, 740.250, 740.300)]
        comb = comb_pump_spectrum(grid, lines)
        w = comb.weights
        maxima = [
            i for i in range(1, len(w) - 1) if w[i] > w[i - 1] and w[i] > w[i + 1]
        ]
        assert len(maxima) == 3
        for i, line in zip(maxima, lines):
            assert abs(grid.values[i] - line.center) <= grid.step

    def test_single_line_degenerates_to_gaussian(self):
        grid = make_frequency_grid(739.8, 0.001, 1001)
        comb = comb_pump_spectrum(grid, [CombLine(740.25, 0.05, 3.0)])
        direct = gaussian_pump_spectrum(grid, 740.25, 0.05)
        np.testing.assert_allclose(comb.weights, direct.weights, rtol=1e-12)

    def test_weighted_line_areas(self):
        # quadrature oracle: integrate each resolved line half separately
        grid = make_frequency_grid(739.5, 0.0005, 3001)
        comb = comb_pump_spectrum(
            grid, [CombLine(740.0, 0.02, 2.0), CombLine(740.7, 0.02, 1.0)]
        )
        split = grid.values < 740.35
        a1 = grid.step * comb.weights[split].sum()
        a2 = grid.step * comb.weights[~split].sum()
        assert abs(a1 / a2 - 2.0) < 1e-6

    @pytest.mark.parametrize("weight, count", [(1e308, 2), (5e-324, 1)])
    def test_weights_are_relative(self, weight, count):
        # an overflowing sum used to warn, a subnormal one to lose its unit mass
        grid = make_frequency_grid(739.8, 0.004, 301)
        centers = (740.2, 740.6)[:count]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = comb_pump_spectrum(grid, [CombLine(c, 0.05, weight) for c in centers])
        unit = comb_pump_spectrum(grid, [CombLine(c, 0.05, 1.0) for c in centers])
        np.testing.assert_array_equal(scaled.weights, unit.weights)

    @pytest.mark.parametrize("weight", [-1.0, math.nan, math.inf])
    def test_weight_must_be_finite_and_non_negative(self, weight):
        with pytest.raises(ValueError, match="line weight must be finite and non-negative"):
            CombLine(740.0, 0.05, weight)

    def test_zero_weight_line_is_skipped(self):
        # a zero-weight line adds nothing, not even a Gaussian off the grid
        # (which alone would raise CoverageError) or a coverage warning
        grid = make_frequency_grid(739.8, 0.001, 1001)
        lines = [CombLine(740.1, 0.05, 2.0), CombLine(740.3, 0.04, 1.0)]
        want = comb_pump_spectrum(grid, lines)
        got = comb_pump_spectrum(grid, [lines[0], CombLine(700.0, 0.05, 0.0), lines[1]])
        np.testing.assert_array_equal(got.weights.view(np.uint64), want.weights.view(np.uint64))
        assert got.coverage_warning == want.coverage_warning

    def test_empty_comb_rejected(self):
        grid = make_frequency_grid(739.8, 0.001, 101)
        with pytest.raises(ValueError):
            comb_pump_spectrum(grid, [])
        with pytest.raises(ValueError):
            comb_pump_spectrum(grid, [CombLine(739.85, 0.01, 0.0)])


class TestGaussianJsi:
    def test_narrow_pump_concentrates_on_antidiagonal(self):
        grid = make_frequency_grid(369.75, 0.002, 501)
        jsi = gaussian_jsi(grid, grid, 740.5, 0.004, 0.5)
        sums = grid.values[:, None] + grid.values[None, :]
        cell = jsi.density * grid.step**2
        near = np.abs(sums - 740.5) <= 3 * 0.004
        assert cell[near].sum() / cell.sum() > 0.995

    def test_signal_idler_symmetry(self):
        grid = make_frequency_grid(369.75, 0.002, 301)
        jsi = gaussian_jsi(grid, grid, 740.5, 0.1, 0.3)
        assert np.array_equal(jsi.density, jsi.density.T)

    def test_marginal_fwhm_matches_pump_bruteforce(self):
        # oracle: plain-python histogram of nu_s + nu_i, independent of the
        # library's vectorized binning
        h = 0.004
        grid = make_frequency_grid(369.85, h, 201)
        jsi = gaussian_jsi(grid, grid, 740.5, 0.1, 0.6)
        out_start = 2 * 369.85 + 100 * h  # sums span 739.7..741.3, center 740.5
        nbins = 201
        hist = [0.0] * nbins
        vals = grid.values
        for i in range(len(grid)):
            for j in range(len(grid)):
                k = round((vals[i] + vals[j] - out_start) / h)
                if 0 <= k < nbins:
                    hist[k] += jsi.density[i, j] * h * h / h
        hist = np.asarray(hist)
        half = hist.max() / 2
        ipk = int(np.argmax(hist))

        def cross(direction):
            i = ipk
            while hist[i] >= half:
                i += direction
            frac = (hist[i - direction] - half) / (hist[i - direction] - hist[i])
            return (i - direction) + direction * frac

        fwhm = (cross(+1) - cross(-1)) * h
        assert abs(fwhm - 0.1) <= h

    def test_invalid_widths(self):
        grid = make_frequency_grid(369.75, 0.002, 101)
        with pytest.raises(ValueError):
            gaussian_jsi(grid, grid, 740.5, -1.0, 0.5)
        with pytest.raises(ValueError):
            gaussian_jsi(grid, grid, 740.5, 0.1, 0.0)


class TestSumFrequencyMarginal:
    def test_single_cell_maps_to_sum_bin(self):
        sg = make_frequency_grid(100.0, 0.5, 5)
        ig = make_frequency_grid(200.0, 0.5, 5)
        density = np.zeros((5, 5))
        density[2, 3] = 4.0  # nu_s = 101.0, nu_i = 201.5
        jsi = JointSpectralIntensity(sg, ig, density)
        out = make_frequency_grid(300.0, 0.5, 11)
        marginal = sum_frequency_marginal(jsi, out)
        assert np.argmax(marginal.weights) == out.index_of(302.5)
        assert np.count_nonzero(marginal.weights) == 1

    def test_matches_analytic_gaussian(self):
        # With equal grid steps every 2-D anti-diagonal lands exactly on one
        # aligned output bin, so the marginal is the analytic pump Gaussian.
        h = 0.002
        grid = make_frequency_grid(369.25, h, 1001)
        jsi = gaussian_jsi(grid, grid, 740.5, 0.1, 1.0)
        out = FrequencyGrid(2 * 369.25 + 800 * h, h, 401)
        marginal = sum_frequency_marginal(jsi, out)
        analytic = gaussian_pump_spectrum(out, 740.5, 0.1)
        linf = np.abs(marginal.weights - analytic.weights).max() / analytic.weights.max()
        assert linf < 1e-4

    def test_mass_conserved(self):
        grid = make_frequency_grid(369.25, 0.002, 801)
        jsi = gaussian_jsi(grid, grid, 740.5, 0.1, 0.8)
        out = make_frequency_grid(739.0, 0.003, 1001)
        marginal = sum_frequency_marginal(jsi, out)
        assert abs(marginal.total_mass - 1.0) <= 1e-9

    def test_coverage_error_when_grid_misses_mass(self):
        grid = make_frequency_grid(369.25, 0.002, 801)
        jsi = gaussian_jsi(grid, grid, 740.5, 0.1, 0.8)
        out = make_frequency_grid(745.0, 0.003, 101)  # misses the band entirely
        with pytest.raises(CoverageError):
            sum_frequency_marginal(jsi, out)


class TestUnitMassOverflow:
    """A unit-mass density is about 1/step: below a step near 1e-308 it has no
    float value, and every normalizing constructor says so in a ValueError."""

    MESSAGE = "unit-mass density overflows"

    def test_gaussian_on_subnormal_grid(self):
        grid = make_frequency_grid(0.0, 5e-324, 1501)
        with pytest.raises(ValueError, match=self.MESSAGE):
            gaussian_pump_spectrum(grid, 0.0, 1e-320)
        with pytest.raises(ValueError, match=self.MESSAGE):
            comb_pump_spectrum(grid, [CombLine(0.0, 1e-320, 1.0)])

    def test_gaussian_whose_density_sum_overflows(self):
        with pytest.raises(ValueError, match=self.MESSAGE):
            gaussian_pump_spectrum(make_frequency_grid(0.0, 1e-309, 1501), 0.0, 1.0)

    def test_renormalized(self):
        spec = SumFrequencySpectrum(make_frequency_grid(0.0, 5e-324, 3), np.ones(3))
        with pytest.raises(ValueError, match=self.MESSAGE):
            spec.renormalized()

    def test_jsi(self):
        grid = make_frequency_grid(0.0, 1e-160, 5)  # a cell area of 1e-320
        with pytest.raises(ValueError, match=self.MESSAGE):
            gaussian_jsi(grid, grid, 0.0, 1.0, 1.0)

    def test_marginal(self):
        # the mass of the cells at nu_i = 0 lands on a sum grid of subnormal step
        density = np.array([[1.0, 0.0]] * 3)
        jsi = JointSpectralIntensity(
            make_frequency_grid(0.0, 5e-324, 3), make_frequency_grid(0.0, 1.0, 2), density
        )
        with pytest.raises(ValueError, match=self.MESSAGE):
            sum_frequency_marginal(jsi, make_frequency_grid(0.0, 5e-324, 3))


class TestInvariants:
    def test_constructor_outputs_normalized(self):
        grid = make_frequency_grid(739.8, 0.001, 1001)
        cases = [
            gaussian_pump_spectrum(grid, 740.25, 0.05),
            comb_pump_spectrum(
                grid, [CombLine(740.0, 0.03, 1.0), CombLine(740.5, 0.05, 0.4)]
            ),
        ]
        sgrid = make_frequency_grid(369.85, 0.004, 201)
        jsi = gaussian_jsi(sgrid, sgrid, 740.5, 0.1, 0.6)
        cases.append(
            sum_frequency_marginal(jsi, make_frequency_grid(739.5, 0.004, 501))
        )
        for spec in cases:
            assert abs(spec.total_mass - 1.0) <= 1e-9
            assert np.all(spec.weights >= 0)

    def test_negative_weights_rejected(self):
        grid = make_frequency_grid(0, 1, 3)
        with pytest.raises(ValueError):
            SumFrequencySpectrum(grid, np.array([1.0, -0.1, 0.0]))

    def test_weights_immutable(self):
        grid = make_frequency_grid(0, 1, 3)
        spec = SumFrequencySpectrum(grid, np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            spec.weights[0] = 2.0

    def test_marginal_conservation_randomized(self, rng):
        for _ in range(25):
            count = int(rng.integers(50, 200))
            grid = make_frequency_grid(369.0 + rng.uniform(0, 1), 0.004, count)
            jsi = gaussian_jsi(
                grid,
                grid,
                2 * grid.values[count // 2],
                rng.uniform(0.05, 0.2),
                rng.uniform(0.3, 1.0),
            )
            out = make_frequency_grid(2 * grid.start - 0.5, 0.005, 2 * count + 200)
            marginal = sum_frequency_marginal(jsi, out)
            assert abs(marginal.total_mass - 1.0) <= 1e-9

    def test_comb_linearity(self):
        grid = make_frequency_grid(739.5, 0.001, 1501)
        group_a = [CombLine(739.8, 0.02, 1.2), CombLine(740.1, 0.03, 0.5)]
        group_b = [CombLine(740.6, 0.02, 0.9)]
        combined = comb_pump_spectrum(grid, group_a + group_b)
        parts = [gaussian_pump_spectrum(grid, ln.center, ln.fwhm) for ln in group_a + group_b]
        weights = [ln.weight for ln in group_a + group_b]
        summed = sum(w * p.weights for w, p in zip(weights, parts)) / sum(weights)
        np.testing.assert_allclose(combined.weights, summed, rtol=1e-12, atol=1e-12)


def preset_lines():
    """The pump grid, center and fwhm of each bundled preset's pump and sample lines."""
    for name in PRESETS:
        doc = preset_scenario(name)
        pump = doc["pump"]
        grid = FrequencyGrid(*(pump["grid"][key] for key in ("start_thz", "step_thz", "count")))
        lines = [("pump", line) for line in pump.get("lines", [pump])]
        lines += [("sample", line) for line in doc.get("sample", {}).get("lines", [])]
        for role, line in lines:
            yield pytest.param(
                grid, line["center_thz"], line["fwhm_thz"], id=f"{name}-{role}-{line['center_thz']}"
            )


@pytest.mark.parametrize("grid, center, fwhm", preset_lines())
def test_gaussian_profile_is_math_exp_bit_for_bit(grid, center, fwhm):
    # numpy's real exp takes an AVX-512 path whose last bit differs from
    # libm's, so artifact bytes would depend on the CPU
    exponent = -FOUR_LN2 * ((grid.values - center) / fwhm) ** 2
    expected = np.array([math.exp(x) for x in exponent])
    got = gaussian_profile(grid.values, center, fwhm)
    assert got.dtype == np.float64 and got.flags.owndata
    assert got.tobytes() == expected.tobytes()
