import numpy as np
import pytest

from noonspec import (
    AbsorptionLine,
    GridMismatchError,
    Sample,
    correlation_trace,
    detect_features,
    excitation_probabilities,
    fold_one_sided,
    fourier_recover,
    gaussian_pump_spectrum,
    make_frequency_grid,
    recover_absorption_spectrum,
    simulate_interferogram,
    transmission_profile,
    transmitted_spectrum,
)
from noonspec.spectral import FOUR_LN2, SumFrequencySpectrum
from conftest import centered_time_grid


def flat_spectrum(grid):
    w = np.full(grid.count, 1.0 / (grid.step * grid.count))
    return SumFrequencySpectrum(grid, w)


class TestTransmissionProfile:
    def test_transparent_sample(self):
        grid = make_frequency_grid(739.0, 0.002, 501)
        profile = transmission_profile(Sample(lines=()), grid)
        assert np.all(profile.values == 1.0)
        assert not profile.clamped

    def test_full_strength_line_blocks_center(self):
        grid = make_frequency_grid(739.0, 0.002, 1001)
        sample = Sample(lines=(AbsorptionLine(740.0, 0.1, 1.0),))
        profile = transmission_profile(sample, grid)
        assert profile.values[grid.index_of(740.0)] == pytest.approx(0.0, abs=1e-12)

    def test_overlapping_lines_clamp(self):
        # oracle: at the midpoint the two 0.7-strength lines sum past 1
        w, d = 1.0, 0.25
        mid = 740.0
        overlap = 2 * 0.7 * np.exp(-FOUR_LN2 * d**2 / w**2)
        assert overlap > 1.0
        grid = make_frequency_grid(737.0, 0.002, 3001)
        sample = Sample(
            lines=(
                AbsorptionLine(mid - d, w, 0.7),
                AbsorptionLine(mid + d, w, 0.7),
            )
        )
        profile = transmission_profile(sample, grid)
        assert profile.clamped
        assert profile.values.min() == 0.0
        assert profile.values.max() <= 1.0

    def test_bounds_always_hold(self, rng):
        grid = make_frequency_grid(738.0, 0.004, 1001)
        for _ in range(20):
            lines = tuple(
                AbsorptionLine(
                    float(rng.uniform(738.5, 741.5)),
                    float(rng.uniform(0.02, 0.5)),
                    float(rng.uniform(0, 1)),
                )
                for _ in range(rng.integers(1, 6))
            )
            profile = transmission_profile(Sample(lines=lines), grid)
            assert np.all(profile.values >= 0) and np.all(profile.values <= 1)


class TestTransmittedSpectrum:
    def test_transparent_sample_is_identity(self):
        grid = make_frequency_grid(739.0, 0.002, 1001)
        incident = gaussian_pump_spectrum(grid, 740.0, 0.5)
        result = transmitted_spectrum(incident, Sample(lines=()))
        assert np.array_equal(result.spectrum.weights, incident.weights)
        assert result.surviving_fraction == pytest.approx(1.0)

    def test_dip_depth_equals_strength(self):
        # direct pointwise oracle: with the line center on a grid point,
        # T(center) = 1 - strength exactly
        grid = make_frequency_grid(739.0, 0.002, 1001)  # line fwhm = 25 steps
        incident = gaussian_pump_spectrum(grid, 740.0, 1.0)
        sample = Sample(lines=(AbsorptionLine(740.0, 0.05, 0.6),))
        result = transmitted_spectrum(incident, sample)
        i = grid.index_of(740.0)
        depth = 1.0 - result.spectrum.weights[i] / incident.weights[i]
        assert abs(depth - 0.6) / 0.6 < 0.02

    def test_three_level_sample_makes_three_dips(self):
        # narrow lines so the pump's slope shifts the dip by less than a step
        grid = make_frequency_grid(738.0, 0.002, 2001)
        incident = gaussian_pump_spectrum(grid, 740.0, 1.5)
        centers = (739.3, 740.0, 740.9)
        sample = Sample(
            lines=tuple(AbsorptionLine(c, 0.05, 0.5) for c in centers)
        )
        result = transmitted_spectrum(incident, sample)
        dips = detect_features(result.spectrum, baseline=incident, min_prominence=0.01)
        assert len(dips) == 3
        for dip, center in zip(dips, centers):
            assert abs(dip.center - center) <= grid.step

    def test_rejects_unnormalized_incident(self):
        grid = make_frequency_grid(739.0, 0.002, 101)
        raw = SumFrequencySpectrum(grid, np.ones(101))
        with pytest.raises(ValueError):
            transmitted_spectrum(raw, Sample(lines=()))


class TestNormalizedIsUnitMass:
    """A spectrum is normalized when its mass is 1 within 1e-9; no flag says so."""

    def test_unit_mass_spectrum_built_without_a_flag_is_accepted(self):
        grid = make_frequency_grid(739.0, 0.002, 1001)
        w = np.random.default_rng(5).uniform(0.0, 1.0, grid.count)
        spectrum = SumFrequencySpectrum(grid, w / (grid.step * w.sum()))
        assert spectrum.normalized
        tg = centered_time_grid(5e-4, 256)  # t = 0 at index 128
        assert simulate_interferogram(spectrum, tg).values[128] == pytest.approx(1.0, abs=1e-12)
        result = transmitted_spectrum(spectrum, Sample(lines=()))
        assert np.array_equal(result.spectrum.weights, spectrum.weights)

    def test_folded_spectrum_off_unit_mass_is_rejected_by_every_consumer(self):
        grid = make_frequency_grid(739.0, 0.002, 1001)
        trace = correlation_trace(
            simulate_interferogram(
                gaussian_pump_spectrum(grid, 740.0, 0.5), centered_time_grid(5e-4, 512)
            )
        )
        folded = fold_one_sided(fourier_recover(trace, window="hann"))
        assert abs(folded.total_mass - 1.0) > 1e-9 and not folded.normalized
        sample = Sample(lines=(AbsorptionLine(740.0, 0.1, 0.5),))
        with pytest.raises(ValueError, match="^spectrum must be normalized before simulation$"):
            simulate_interferogram(folded, centered_time_grid(5e-4, 64))
        with pytest.raises(ValueError, match="^incident spectrum must be normalized$"):
            transmitted_spectrum(folded, sample)
        with pytest.raises(ValueError, match="^incident spectrum must be normalized$"):
            excitation_probabilities(folded, sample)

    def test_surviving_fraction_is_the_transmitted_mass(self):
        grid = make_frequency_grid(739.0, 0.002, 1001)
        sample = Sample(lines=(AbsorptionLine(740.0, 0.1, 0.5), AbsorptionLine(739.6, 0.2, 0.3)))
        result = transmitted_spectrum(gaussian_pump_spectrum(grid, 740.0, 0.5), sample)
        assert result.surviving_fraction == result.spectrum.total_mass
        assert result.surviving_fraction < 1.0


class TestExcitationProbabilities:
    def test_line_outside_band_absorbs_nothing(self):
        grid = make_frequency_grid(739.8, 0.001, 401)
        incident = gaussian_pump_spectrum(grid, 740.0, 0.05)
        sample = Sample(lines=(AbsorptionLine(739.81, 0.002, 0.9),))
        probs = excitation_probabilities(incident, sample)
        assert probs[0] < 1e-6

    def test_flat_incident_analytic_area(self):
        # analytic oracle: absorbed mass = s * w * sqrt(pi / (4 ln 2)) * density
        grid = make_frequency_grid(739.0, 0.001, 2001)
        incident = flat_spectrum(grid)
        s, w = 0.6, 0.04
        sample = Sample(lines=(AbsorptionLine(740.0, w, s),))
        probs = excitation_probabilities(incident, sample)
        expected = s * w * np.sqrt(np.pi / FOUR_LN2) * incident.weights[0]
        assert abs(probs[0] - expected) / expected < 1e-3

    def test_equal_lines_on_flat_incident(self):
        grid = make_frequency_grid(739.0, 0.001, 2001)
        incident = flat_spectrum(grid)
        sample = Sample(
            lines=tuple(AbsorptionLine(c, 0.03, 0.4) for c in (739.5, 740.0, 740.5))
        )
        probs = excitation_probabilities(incident, sample)
        assert np.all(np.abs(probs - probs[0]) / probs[0] < 1e-6)


class TestMassBookkeeping:
    def test_surviving_plus_absorbed_is_one(self, rng):
        grid = make_frequency_grid(738.5, 0.002, 1501)
        for _ in range(50):
            incident = gaussian_pump_spectrum(
                grid, float(rng.uniform(739.5, 740.5)), float(rng.uniform(0.2, 0.8))
            )
            n = int(rng.integers(1, 5))
            shares = rng.dirichlet(np.ones(n)) * 0.95  # total < 1: no clamping
            lines = tuple(
                AbsorptionLine(
                    float(rng.uniform(739.0, 741.0)),
                    float(rng.uniform(0.03, 0.3)),
                    float(shares[i]),
                )
                for i in range(n)
            )
            result = transmitted_spectrum(incident, Sample(lines=lines))
            assert not result.clamped
            probs = excitation_probabilities(incident, Sample(lines=lines))
            assert abs(result.surviving_fraction + probs.sum() - 1.0) <= 1e-9

    def test_monotonicity_in_strength(self):
        grid = make_frequency_grid(739.0, 0.002, 1001)
        incident = gaussian_pump_spectrum(grid, 740.0, 0.8)
        weak = Sample(lines=(AbsorptionLine(740.0, 0.1, 0.3),))
        strong = Sample(lines=(AbsorptionLine(740.0, 0.1, 0.7),))
        tw = transmitted_spectrum(incident, weak).spectrum.weights
        ts = transmitted_spectrum(incident, strong).spectrum.weights
        assert np.all(ts <= tw + 1e-15)


class TestRecoverAbsorptionSpectrum:
    def test_no_absorption_gives_zero(self):
        grid = make_frequency_grid(739.0, 0.002, 501)
        ref = gaussian_pump_spectrum(grid, 740.0, 0.4)
        diff = recover_absorption_spectrum(ref, ref)
        assert np.all(diff.weights == 0.0)

    def test_forward_then_subtract_peaks_at_lines(self):
        grid = make_frequency_grid(738.0, 0.002, 2001)
        ref = gaussian_pump_spectrum(grid, 740.0, 1.5)
        centers = (739.4, 740.0, 740.8)
        sample = Sample(
            lines=tuple(
                AbsorptionLine(c, 0.05, s) for c, s in zip(centers, (0.8, 0.5, 0.12))
            )
        )
        measured = transmitted_spectrum(ref, sample).spectrum
        diff = recover_absorption_spectrum(ref, measured)
        peaks = detect_features(diff, min_prominence=0.005)
        found = sorted(p.center for p in peaks)
        assert len(found) == 3
        for c, f in zip(centers, found):
            assert abs(c - f) <= grid.step

    def test_grid_mismatch_rejected(self):
        a = gaussian_pump_spectrum(make_frequency_grid(739.0, 0.002, 501), 739.5, 0.2)
        b = gaussian_pump_spectrum(make_frequency_grid(739.0, 0.001, 501), 739.2, 0.1)
        with pytest.raises(GridMismatchError):
            recover_absorption_spectrum(a, b)


class TestSampleValidation:
    def test_lines_sorted_by_center(self):
        sample = Sample(
            lines=(
                AbsorptionLine(740.5, 0.1, 0.2),
                AbsorptionLine(739.5, 0.1, 0.4),
            )
        )
        assert [ln.center for ln in sample.lines] == [739.5, 740.5]

    def test_strength_bounds(self):
        with pytest.raises(ValueError):
            AbsorptionLine(740.0, 0.1, 1.2)
        with pytest.raises(ValueError):
            AbsorptionLine(740.0, -0.1, 0.5)
