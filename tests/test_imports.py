"""Each verb loads only the scipy and numpy modules it runs.

Importing the package loads none of its modules, nor numpy: each public
name imports its defining module on first use, and ``from noonspec
import *`` binds the same objects as those modules. Importing
``noonspec.cli`` loads numpy and nothing from scipy. ``simulate``
without noise and ``recover``, peak finder included, run on numpy alone;
the noise layer loads ``scipy.special`` for the binomial CDF on first
use, and ``numpy.random`` for its streams on the first draw. The
process pool behind the noise study loads only when a study forks, so
importing the package loads no ``multiprocessing``. Every check of
loaded modules runs in a fresh interpreter, since this test process
imports scipy itself, but the last: the exact-phase and block helpers in
``noonspec._numerics`` import numpy alone, which only their source shows.
"""
import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import noonspec

# the package as this process imports it, whatever the child's working directory
SRC = str(Path(noonspec.__file__).resolve().parents[1])

FORBIDDEN = ("scipy.stats", "scipy.signal", "scipy.fft")

NOISE_STUDY = {
    "version": 1,
    "pump": {
        "kind": "gaussian",
        "center_thz": 740.25,
        "fwhm_thz": 1.0,
        "grid": {"start_thz": 738.25, "step_thz": 0.004, "count": 1001},
    },
    "time_grid": {"start_ps": -0.128, "step_ps": 5e-4, "count": 512},
    "noise": {"pairs_per_bin": 500, "seed": 99},
}


def modules_after(code: str, cwd) -> list:
    """The modules loaded once ``code`` has run in a fresh interpreter."""
    probe = "\n".join([code, "import json, sys", "print(json.dumps(sorted(sys.modules)))"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, cwd=cwd, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scipy_modules_after(code: str, cwd) -> list:
    """The ``scipy*`` modules loaded once ``code`` has run in a fresh interpreter."""
    return [m for m in modules_after(code, cwd) if m.startswith("scipy")]


def run_main(*argv) -> str:
    return f"from noonspec.cli import main\nassert main({list(argv)!r}) == 0"


# the package's public names, by defining module
PUBLIC = {
    "absorption": "AbsorptionLine Sample TransmissionProfile TransmissionResult"
    " excitation_probabilities recover_absorption_spectrum transmission_profile"
    " transmitted_spectrum",
    "errors": "AliasingError AsymmetryError CoverageError GridMismatchError"
    " NonUniformGridError NoonspecError NoSignalError WindowTooShortError",
    "grids": "FrequencyGrid TimeGrid UniformGrid",
    "interferometer": "CorrelationTrace Interferogram correlation_trace"
    " default_time_grid dominant_oscillation_frequency envelope_coherence_time"
    " simulate_interferogram",
    "noise": "CountData NoiseConfig ScalingStudy error_scaling_study"
    " estimate_trace sample_counts",
    "recovery": "RecoveredSpectrum SpectralFeature detect_features fold_one_sided"
    " fourier_recover spectrum_distance",
    "spectral": "CombLine JointSpectralIntensity SumFrequencySpectrum"
    " comb_pump_spectrum gaussian_jsi gaussian_pump_spectrum make_frequency_grid"
    " sum_frequency_marginal",
}


def test_import_loads_no_numpy_and_no_module_of_the_package(tmp_path):
    # dir() lists the public names without loading their modules
    code = "import noonspec\nassert set(noonspec.__all__) <= set(dir(noonspec))"
    loaded = modules_after(code, tmp_path)
    assert [m for m in loaded if m == "numpy" or m.startswith(("numpy.", "noonspec."))] == []
    assert "noonspec" in loaded


def test_star_import_binds_each_defining_modules_object():
    bound = {}
    exec("from noonspec import *", bound)
    bound.pop("__builtins__")
    expected = {
        name: getattr(importlib.import_module(f"noonspec.{module}"), name)
        for module, names in PUBLIC.items()
        for name in names.split()
    }
    assert len(expected) == 46
    assert bound.keys() == expected.keys()
    assert all(bound[name] is expected[name] for name in expected)
    assert all(getattr(noonspec, name) is expected[name] for name in expected)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'simulate'"):
        noonspec.simulate
    with pytest.raises(ImportError):
        exec("from noonspec import simulate", {})


@pytest.mark.parametrize("module", ["noonspec", "noonspec.cli"])
def test_import_loads_no_scipy(tmp_path, module):
    assert scipy_modules_after(f"import {module}", tmp_path) == []


@pytest.mark.parametrize("module", ["noonspec", "noonspec.cli"])
def test_import_loads_no_process_pool(tmp_path, module):
    loaded = modules_after(f"import {module}", tmp_path)
    pool = ("multiprocessing", "concurrent.futures.process")
    assert [m for m in loaded if m.startswith(pool)] == []


def test_simulate_without_noise_loads_no_scipy(tmp_path):
    code = run_main("simulate", "--preset", "tpa3", "--out", "out")
    assert scipy_modules_after(code, tmp_path) == []


def test_noise_study_loads_scipy_special_only(tmp_path):
    (tmp_path / "scenario.json").write_text(json.dumps(NOISE_STUDY))
    code = run_main(
        "noise-study", "--config", "scenario.json", "--out", "out",
        "--trials", "300,1200", "--repeats", "2",
    )
    loaded = scipy_modules_after(code, tmp_path)
    assert "scipy.special" in loaded
    assert [m for m in loaded if m.startswith(FORBIDDEN)] == []


def test_recover_loads_no_scipy(tmp_path):
    code = "\n".join([
        run_main("simulate", "--preset", "line-250", "--out", "sim"),
        run_main("recover", "sim/trace.csv", "--out", "rec"),
        "import json; assert json.load(open('rec/peaks.json'))",
    ])
    assert scipy_modules_after(code, tmp_path) == []


def numpy_random_after(code: str, cwd) -> list:
    """The ``numpy.random*`` modules loaded once ``code`` has run in a fresh interpreter."""
    return [m for m in modules_after(code, cwd) if m.startswith("numpy.random")]


@pytest.mark.parametrize("module", ["noonspec", "noonspec.cli"])
def test_import_loads_no_numpy_random(tmp_path, module):
    assert numpy_random_after(f"import {module}", tmp_path) == []


def test_simulate_without_noise_and_recover_load_no_numpy_random(tmp_path):
    code = "\n".join([
        run_main("simulate", "--preset", "tpa3", "--out", "sim"),
        run_main("recover", "sim/trace.csv", "--out", "rec"),
    ])
    assert numpy_random_after(code, tmp_path) == []


def test_a_noise_draw_loads_numpy_random(tmp_path):
    code = run_main("simulate", "--preset", "noise-gauss", "--out", "out")
    assert "numpy.random" in numpy_random_after(code, tmp_path)


def test_numerics_imports_numpy_alone():
    # read from the source, which shows every import; numpy's own imports
    # would hide any other in sys.modules
    tree = ast.parse(Path(SRC, "noonspec", "_numerics.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"__future__", "numpy"}
