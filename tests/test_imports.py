"""Each verb loads only the scipy modules it runs.

Importing the package loads numpy and nothing from scipy. ``simulate``
without noise and ``recover``, peak finder included, run on numpy alone;
the noise layer loads ``scipy.special`` for the binomial CDF on first
use. The process pool behind the noise study loads only when a study
forks, so importing the package loads no ``multiprocessing``. Every
check runs in a fresh interpreter, since this test process imports scipy
itself.
"""
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
