"""Tests of the benchmark's own parts: python3 -m pytest perfbench"""
from __future__ import annotations

import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from noonspec import cli
from noonspec.presets import preset_scenario
from noonspec.spectral import CombLine, comb_pump_spectrum, make_frequency_grid
from noonspec.interferometer import correlation_trace, simulate_interferogram
from noonspec.grids import TimeGrid

import reference
import workloads
from tracing import TIME_BUCKETS, Tracer, layer_metrics


def _mp(x: np.longdouble) -> mpmath.mpf:
    hi = float(x)
    return mpmath.mpf(hi) + mpmath.mpf(float(x - np.longdouble(hi)))


def test_reference_matches_mpmath_on_small_grid():
    mpmath.mp.dps = 50
    rng = np.random.default_rng(7)
    nu = 737.25 + 0.004 * np.arange(12)
    w = rng.random(12)
    t = np.array([-16.384, -16.3835, -2.5, 0.0, 1e-3, 9.0005, 16.3835])
    got = reference.coincidence_probability(nu, w, t)
    total = mpmath.fsum(mpmath.mpf(float(x)) for x in w)
    for j, tj in enumerate(t):
        s = mpmath.fsum(
            mpmath.mpf(float(wk)) / total * mpmath.cos(2 * mpmath.pi * mpmath.mpf(float(nk)) * mpmath.mpf(float(tj)))
            for wk, nk in zip(w, nu)
        )
        assert abs(_mp(got[j]) - (1 + s) / 2) < 1e-17


def test_reference_is_tighter_than_float64_phase():
    nu = np.array([741.2345678901234])
    t = np.array([16.3835])
    exact = mpmath.mpf(float(nu[0])) * mpmath.mpf(float(t[0]))
    exact -= mpmath.nint(exact)
    assert abs(_mp(reference.cycles_mod1(nu, t)[0, 0]) - exact) < 1e-18


def test_reference_indices_include_window_edges():
    idx = reference.reference_delay_indices(65536)
    assert idx[0] == 0 and idx[-1] == 65535


@pytest.mark.parametrize(
    "make, preset",
    [
        (workloads.tpa3_scenario, "tpa3"),
        (workloads.comb5_scenario, "comb5"),
        (workloads.noise_gauss_scenario, "noise-gauss"),
    ],
)
def test_default_seed_reproduces_preset(make, preset):
    assert make(workloads.DEFAULT_SEED) == preset_scenario(preset)


@pytest.mark.parametrize(
    "make", [workloads.tpa3_scenario, workloads.comb5_scenario, workloads.noise_gauss_scenario]
)
def test_other_seeds_are_deterministic_and_valid(make, tmp_path):
    assert make(3) == make(3)
    assert make(3) != make(4)
    jittered = cli.parse_scenario(make(3), tmp_path).spectrum
    preset = cli.parse_scenario(make(workloads.DEFAULT_SEED), tmp_path).spectrum
    assert jittered.coverage_warning == preset.coverage_warning


def test_comb_trace_matches_program_synthesis():
    doc = workloads.comb5_scenario(5)
    pump = doc["pump"]
    grid = make_frequency_grid(**{k[:-4] if k.endswith("_thz") else k: v for k, v in pump["grid"].items()})
    lines = [CombLine(x["center_thz"], x["fwhm_thz"], x["weight"]) for x in pump["lines"]]
    tgrid = TimeGrid(-0.5, workloads.TIME_STEP_PS, 512)
    program = correlation_trace(simulate_interferogram(comb_pump_spectrum(grid, lines), tgrid))
    closed_form = workloads.comb_trace(doc, tgrid.values)
    assert np.abs(program.values - closed_form).max() < 1e-9


def test_tracer_spans_cover_call_and_uninstall(tmp_path):
    doc = dict(workloads.tpa3_scenario(0), time_grid={"start_ps": -0.128, "step_ps": 5e-4, "count": 512})
    config = tmp_path / "s.json"
    workloads.write_json(config, doc)
    original = cli.simulate_interferogram
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.simulate_interferogram is not original
        rc, root, spans = tracer.call(cli.main, ["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert cli.simulate_interferogram is original
    m = layer_metrics(spans, root)
    assert sum(m[k] for k in TIME_BUCKETS) == pytest.approx(root.end - root.start, abs=1e-6)
    assert m["interferometer.synth_cells"] == 512 * 1501
    assert m["io.rows_written"] == 1501 + 1501 + 512 + 512
    assert m["spectral.bins"] == 1501
    assert tracer.synth_peak_mb() > 0
