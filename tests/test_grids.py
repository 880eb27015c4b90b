from pathlib import Path

import numpy as np
import pytest

from noonspec import FrequencyGrid, TimeGrid, UniformGrid, io
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
