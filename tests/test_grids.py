import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from noonspec import (
    CorrelationTrace,
    FrequencyGrid,
    JointSpectralIntensity,
    NoiseConfig,
    NonUniformGridError,
    RecoveredSpectrum,
    ScalingStudy,
    SumFrequencySpectrum,
    TimeGrid,
    TransmissionProfile,
    UniformGrid,
    error_scaling_study,
    gaussian_pump_spectrum,
    io,
    make_frequency_grid,
    noise,
    recover_absorption_spectrum,
    sample_counts,
    simulate_interferogram,
)
from noonspec.cli import parse_scenario
from noonspec.grids import infer_grid
from noonspec.presets import PRESETS, preset_scenario
from conftest import peak_above_inputs


def test_frequency_and_time_grid_are_the_uniform_grid():
    assert FrequencyGrid is TimeGrid is UniformGrid


@pytest.mark.parametrize("grid_type", [FrequencyGrid, TimeGrid], ids=["FrequencyGrid", "TimeGrid"])
@pytest.mark.parametrize(
    "args",
    [
        (np.nan, 1.0, 4),
        (np.inf, 1.0, 4),
        (0.0, 0.0, 4),
        (0.0, -1.0, 4),
        (0.0, np.inf, 4),
        (0.0, np.nan, 4),
        (0.0, 1.0, 1),
        (0.0, 1.0, 2.5),
        (0.0, 1.0, np.inf),
        (0.0, 1.0, np.nan),
    ],
)
def test_bad_start_step_or_count_rejected(grid_type, args):
    with pytest.raises(ValueError, match="grid (start|step|count)"):
        grid_type(*args)


@pytest.mark.parametrize("count", [10**400, -(10**400), 2**63], ids=["huge", "-huge", "2**63"])
def test_count_past_the_float_range_rejected(count):
    # 10**400 used to raise a TypeError from np.isfinite
    with pytest.raises(ValueError, match=r"grid count must be an integer in \[2, 2\*\*63\)"):
        UniformGrid(0.0, 1.0, count)


def test_values_have_the_bits_of_the_product_expression(rng):
    for _ in range(200):
        start = float(rng.uniform(-1e3, 1e3)) * 10.0 ** int(rng.integers(-6, 4))
        step = float(rng.uniform(0.1, 10.0)) * 10.0 ** int(rng.integers(-6, 0))
        count = int(rng.integers(2, 5000))
        grid = UniformGrid(start, step, count)
        want = start + step * np.arange(count)
        np.testing.assert_array_equal(grid.values.view(np.uint64), want.view(np.uint64))
        # any row range, the last point and the last row among them
        hi = int(rng.integers(1, count + 1))
        for lo, hi in ((int(rng.integers(0, hi)), hi), (count - 1, count), (hi - 1, hi)):
            want = start + step * np.arange(lo, hi)
            for got in (grid.points(lo, hi), grid(lo, hi)):
                np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_values_hold_one_array():
    # an integer arange beside the float product held 1.12 MB at 2**16 points
    grid = UniformGrid(-16.384, 5e-4, 2**16)
    grid.values  # warm
    assert peak_above_inputs(lambda: grid.values) <= 8 * grid.count + 16 * 1024


def test_integral_float_count_is_stored_as_int():
    grid = UniformGrid(0.0, 1.0, 5.0)
    assert type(grid.count) is int and len(grid) == 5
    assert grid == UniformGrid(0.0, 1.0, 5)
    assert type(UniformGrid(0.0, 1.0, np.int64(5)).count) is int


def _parsed(path: str, value):
    """The stored integers of a small noisy scenario with ``value`` at ``path``."""
    doc = {
        "version": 1,
        "pump": {
            "kind": "gaussian", "center_thz": 738.45, "fwhm_thz": 0.1,
            "grid": {"start_thz": 738.25, "step_thz": 0.004, "count": 101},
        },
        "time_grid": {"start_ps": -0.016, "step_ps": 5e-4, "count": 64},
        "noise": {"pairs_per_bin": 100, "seed": 1},
    }
    *parents, key = path.split(".")
    holder = doc
    for part in parents:
        holder = holder[part]
    holder[key] = value
    s = parse_scenario(doc, Path.cwd())
    stored = (s.spectrum.grid.count, s.time_grid.count, s.noise.pairs_per_bin, s.noise.seed)
    return [(type(n), n) for n in stored]


def _noise_config(field: str, value):
    config = NoiseConfig(**{"pairs_per_bin": 100, "seed": 1, field: value})
    return [(type(n), n) for n in (config.pairs_per_bin, config.seed)]


STUDY_SPECTRUM = gaussian_pump_spectrum(make_frequency_grid(738.25, 0.004, 101), 738.45, 0.1)
STUDY_GRID = TimeGrid(-0.016, 5e-4, 64)


def _counts(**kwargs):
    pattern = simulate_interferogram(STUDY_SPECTRUM, STUDY_GRID)
    counts = sample_counts(pattern, NoiseConfig(pairs_per_bin=100, seed=1), **kwargs)
    return counts.coincidences.tolist()


def _study(trial_counts=(100, 300), repeats=2, chunk_size=None):
    config = NoiseConfig(pairs_per_bin=1, seed=0)
    study = error_scaling_study(
        STUDY_SPECTRUM, trial_counts, repeats, config, STUDY_GRID, chunk_size
    )
    return [study.n_trials.tolist(), study.std_height.tolist(), study.std_center.tolist()]


# every entry point that takes an integer: (the name its messages give, an
# integer it takes, a call on a value that returns what it made of it)
INTEGER_INPUTS = {
    "parse_scenario version": ("scenario.version", 1, lambda v: _parsed("version", v)),
    "parse_scenario pump count": ("pump.grid.count", 101, lambda v: _parsed("pump.grid.count", v)),
    "parse_scenario time count": ("time_grid.count", 64, lambda v: _parsed("time_grid.count", v)),
    "parse_scenario pairs_per_bin": (
        "noise.pairs_per_bin", 3, lambda v: _parsed("noise.pairs_per_bin", v)
    ),
    "parse_scenario seed": ("noise.seed", 3, lambda v: _parsed("noise.seed", v)),
    "NoiseConfig pairs_per_bin": ("pairs_per_bin", 3, lambda v: _noise_config("pairs_per_bin", v)),
    "NoiseConfig seed": ("seed", 3, lambda v: _noise_config("seed", v)),
    "UniformGrid count": (
        "grid count", 3, lambda v: [(type(n), n) for n in [UniformGrid(0.0, 1.0, v).count]]
    ),
    "sample_counts stream": ("stream", 3, lambda v: _counts(stream=v)),
    "sample_counts chunk_size": ("chunk_size", 3, lambda v: _counts(chunk_size=v)),
    "study trial count": ("trial count", 3, lambda v: _study(trial_counts=[v, 300])),
    "study repeats": ("repeats", 3, lambda v: _study(repeats=v)),
    "study chunk_size": ("chunk_size", 3, lambda v: _study(chunk_size=v)),
}
REFUSED = [True, np.True_, 1.5, "3", None, float("nan"), float("inf")]


@pytest.mark.parametrize("spell", [int, np.int64, np.uint64, float])
@pytest.mark.parametrize("entry", INTEGER_INPUTS)
def test_every_integer_input_takes_an_integral_number(monkeypatch, entry, spell):
    # a study's rounds run here: the pool splits the same work
    monkeypatch.setattr(noise, "_workers", lambda: 1)
    _, n, call = INTEGER_INPUTS[entry]
    assert call(spell(n)) == call(n)


@pytest.mark.parametrize("entry, value", [
    pytest.param(entry, value, id=f"{entry}-{value!r}")
    for entry in INTEGER_INPUTS
    for value in REFUSED
    # None is the default chunk size: whole blocks
    if not (value is None and entry.endswith("chunk_size"))
])
def test_every_integer_input_refuses_the_rest_by_one_rule(monkeypatch, entry, value):
    # a refused value fails before any count is drawn
    monkeypatch.setattr(noise, "_sample_streams", None)
    name, _, call = INTEGER_INPUTS[entry]
    message = f"{name} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("value", [np.full(64, 3), np.full((2, 3), 1.5)], ids=["64", "2x3"])
@pytest.mark.parametrize("entry", INTEGER_INPUTS)
def test_an_array_is_refused_by_its_type_and_shape(monkeypatch, entry, value):
    # an array's repr spans lines and grows with it, so the one-line
    # message names its type and shape instead
    monkeypatch.setattr(noise, "_sample_streams", None)
    name, _, call = INTEGER_INPUTS[entry]
    message = f"{name} must be an integer, got ndarray of shape {value.shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("dtype", [int, float])
def test_trial_counts_may_be_an_array(dtype):
    assert _study(trial_counts=np.array([100, 300], dtype)) == _study(trial_counts=[100, 300])


THREE = UniformGrid(0.0, 0.5, 3)
NAN = float("nan")

# (series built from one column, the type and field its messages name, bad columns)
COLUMN_CASES = [
    (
        lambda col: SumFrequencySpectrum(THREE, col),
        "SumFrequencySpectrum weights",
        [[1.0, -1.0, 1.0], [1.0, NAN, 1.0], [1.0, 1.0]],
    ),
    (
        lambda col: JointSpectralIntensity(THREE, THREE, np.reshape(col, (3, -1))),
        "JointSpectralIntensity density",
        [[-1.0] + [1.0] * 8, [np.inf] + [1.0] * 8, [1.0] * 6],
    ),
    (
        lambda col: TransmissionProfile(THREE, col, False),
        "TransmissionProfile values",
        [[0.5, 1.5, 0.5], [0.5, -0.5, 0.5], [0.5, NAN, 0.5], [0.5] * 4],
    ),
    (
        lambda col: RecoveredSpectrum(THREE, col),
        "RecoveredSpectrum amplitudes",
        [[1j, complex(NAN, 0), 1.0], [1.0, complex(0, np.inf), 1.0], [1.0, 1.0]],
    ),
    (
        lambda col: ScalingStudy(col, [0.1, 0.2], [0.01, 0.02]),
        "ScalingStudy n_trials",
        [[1000, 0], [1000, 2.5], [[1000, 10000]]],
    ),
    (
        lambda col: ScalingStudy([1000, 10000], col, [0.01, 0.02]),
        "ScalingStudy std_height",
        [[0.1, -0.2], [0.1, NAN], [0.1]],
    ),
]


@pytest.mark.parametrize(
    "build, name, bad",
    [(build, name, bad) for build, name, cases in COLUMN_CASES for bad in cases],
)
def test_every_series_checks_its_columns_by_one_rule(build, name, bad):
    with pytest.raises(ValueError, match=f"^{name} "):
        build(bad)


def test_checked_columns_are_read_only_copies():
    weights = np.array([1.0, 2.0, 1.0])
    spectrum = SumFrequencySpectrum(THREE, weights)
    weights[0] = 5.0
    assert spectrum.weights.tolist() == [1.0, 2.0, 1.0]
    assert not spectrum.weights.flags.writeable
    study = ScalingStudy([1000.0, 10000.0], [0.1, 0.2], [0.01, 0.02])
    assert study.n_trials.dtype == np.int64 and len(study) == 2
    assert not study.std_center.flags.writeable


def test_given_up_columns_are_kept_and_views_copied():
    # a read-only array that owns its data is kept, as the synthesis hands
    # its output over, so a long delay grid is not held twice
    owned = np.array([1.0, 2.0, 1.0])
    owned.setflags(write=False)
    assert SumFrequencySpectrum(THREE, owned).weights is owned
    # a read-only view of a writeable base is copied: the base can still change
    base = np.array([1.0, 2.0, 1.0])
    view = base[:]
    view.setflags(write=False)
    spectrum = SumFrequencySpectrum(THREE, view)
    base[0] = 5.0
    assert spectrum.weights.tolist() == [1.0, 2.0, 1.0]
    assert spectrum.weights is not view and not spectrum.weights.flags.writeable
    # and so is a read-only array of another dtype
    ints = np.array([1, 2, 1])
    ints.setflags(write=False)
    assert SumFrequencySpectrum(THREE, ints).weights.dtype == float


def test_step_below_float_spacing_rejected():
    # every point of this grid rounds to 737.25; it used to reach the pump
    # normalization and overflow there
    with pytest.raises(ValueError, match="grid step .* below the float spacing"):
        UniformGrid(737.25, 2.2e-309, 1501)
    UniformGrid(0.0, 5e-324, 3)  # distinct subnormal points are an axis


def test_grid_points_must_be_finite():
    with pytest.raises(ValueError, match="grid points must be finite, the last is inf"):
        UniformGrid(0.0, 1e308, 3)
    # np.spacing of the largest float overflows; this grid used to warn and be refused
    assert UniformGrid(0.0, np.finfo(float).max, 2).stop == np.finfo(float).max


def test_one_grid_has_every_member():
    grid = UniformGrid(-1.0, 0.5, 5)
    assert grid.values.tolist() == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert grid.stop == 1.0
    assert grid.window == 2.5
    assert grid.index_of(0.2) == 2 and grid.index_of(9.0) == 4
    assert len(grid) == 5


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_infer_grid_of_spectrum_csv_equals_the_writing_grid(tmp_path, preset):
    spectrum = parse_scenario(preset_scenario(preset), Path.cwd()).spectrum
    path = tmp_path / "spectrum.csv"
    io.write_spectrum_csv(path, spectrum)
    nu = np.loadtxt(path, delimiter=",", skiprows=1)[:, 0]
    assert infer_grid(nu) == spectrum.grid
    assert io.read_spectrum_csv(path).grid == spectrum.grid


def decimal(mantissa: int, exponent: int) -> float:
    return float(f"{mantissa}e{exponent}")


@st.composite
def decimal_grids(draw):
    """Grids as a scenario or ``make_frequency_grid`` caller writes them: decimal start and step."""
    start = decimal(draw(st.integers(-(10**7), 10**7)), -draw(st.integers(0, 6)))
    step = decimal(draw(st.integers(1, 10**4)), -draw(st.integers(1, 7)))
    return UniformGrid(start, step, draw(st.integers(2, 3000)))


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(decimal_grids())
def test_grid_survives_spectrum_and_trace_csv(tmp_path, grid):
    spectrum_path, trace_path = tmp_path / "spectrum.csv", tmp_path / "trace.csv"
    io.write_spectrum_csv(spectrum_path, SumFrequencySpectrum(grid, np.ones(grid.count)))
    io.save_tables([io.trace_table(trace_path, CorrelationTrace(grid, np.zeros(grid.count)))])
    for back in (io.read_spectrum_csv(spectrum_path).grid, io.read_trace_csv(trace_path).grid):
        # the read-back grid reproduces the values on disk and is a fixed point
        assert back.start == grid.start and back.count == grid.count
        assert np.array_equal(back.values, grid.values)
        assert infer_grid(back.values) == back


def test_read_back_spectrum_shares_the_writing_grid(tmp_path):
    # the endpoint step of this axis is 0.002000000000000076, which does not reproduce it
    written = gaussian_pump_spectrum(make_frequency_grid(739.8, 0.002, 301), 740.1, 0.1)
    path = tmp_path / "spectrum.csv"
    io.write_spectrum_csv(path, written)
    read_back = io.read_spectrum_csv(path)
    assert read_back.grid == written.grid
    assert recover_absorption_spectrum(written, read_back).total_mass == 0.0


@pytest.mark.parametrize(
    "grid",
    [UniformGrid(-0.3076, 5e-4, 3069), UniformGrid(-1.18, 0.9470646336638853, 272)],
    ids=["shortest-decimal", "first-difference"],
)
def test_grid_found_where_the_endpoint_step_fails(grid):
    endpoint = (grid.values[-1] - grid.values[0]) / (grid.count - 1)
    assert not np.array_equal(UniformGrid(grid.start, endpoint, grid.count).values, grid.values)
    assert infer_grid(grid.values) == grid


def test_endpoint_step_comes_first():
    # the endpoint step 0.10000000000002274 reproduces these values as 0.1 does,
    # and it is the step inferred before, so it is kept
    values = UniformGrid(-1936.0, 0.1, 3).values
    endpoint = (values[-1] - values[0]) / 2
    assert endpoint != 0.1
    assert infer_grid(values) == UniformGrid(-1936.0, endpoint, 3)
    assert np.array_equal(infer_grid(values).values, values)


@pytest.mark.parametrize(
    "start, step, count, digits",
    [(-1.024, 5e-4, 4096, 4), (-0.2, 1e-3, 401, 3), (-0.512, 2.5e-4, 4096, 5), (-0.8, 1e-4, 16001, 6)],
)
def test_decimal_column_takes_the_endpoint_step(start, step, count, digits):
    # delays typed to a fixed number of decimals, as a lab's file holds them:
    # no float64 step reproduces such a column, so the 1e-9 fallback keeps
    # the endpoint step
    column = np.array([float(f"{start + j * step:.{digits}f}") for j in range(count)])
    grid = infer_grid(column)
    endpoint = (column[-1] - column[0]) / (count - 1)
    assert grid == UniformGrid(column[0], endpoint, count)
    assert not np.array_equal(grid.values, column)
    assert np.all(np.abs(grid.values - column) <= 1e-9 * max(endpoint, 1.0))


@pytest.mark.parametrize(
    "values",
    [[0.0, 0.1, 0.3], [0.0, np.nan, 0.2], [0.0, 0.2, 0.1, 0.3], [0.3, 0.2, 0.1]],
    ids=["uneven", "nan-inside", "out-of-order", "descending"],
)
def test_non_uniform_axis_rejected(values):
    with pytest.raises(NonUniformGridError):
        infer_grid(values)
