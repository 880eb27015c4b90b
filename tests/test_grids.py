from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from noonspec import (
    CorrelationTrace,
    FrequencyGrid,
    JointSpectralIntensity,
    NonUniformGridError,
    RecoveredSpectrum,
    ScalingStudy,
    SumFrequencySpectrum,
    TimeGrid,
    TransmissionProfile,
    UniformGrid,
    gaussian_pump_spectrum,
    io,
    make_frequency_grid,
    recover_absorption_spectrum,
)
from noonspec.cli import parse_scenario
from noonspec.grids import infer_grid
from noonspec.presets import PRESETS, preset_scenario


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
    ],
)
def test_bad_start_step_or_count_rejected(grid_type, args):
    with pytest.raises(ValueError, match="grid (start|step|count)"):
        grid_type(*args)


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
    io.write_trace_csv(trace_path, CorrelationTrace(grid, np.zeros(grid.count)))
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
    "values",
    [[0.0, 0.1, 0.3], [0.0, np.nan, 0.2], [0.0, 0.2, 0.1, 0.3], [0.3, 0.2, 0.1]],
    ids=["uneven", "nan-inside", "out-of-order", "descending"],
)
def test_non_uniform_axis_rejected(values):
    with pytest.raises(NonUniformGridError):
        infer_grid(values)
