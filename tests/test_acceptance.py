"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one pass/fail line; run with ``pytest -s`` to see them
inline. Criteria with runtime budgets assert the elapsed wall time too.
"""
import json
import subprocess
import sys
import time

import numpy as np

import noonspec as ns
from conftest import centered_time_grid


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_oscillation_period_law():
    # single pump lines at 740.215/740.250/740.300 THz: the dominant
    # oscillation frequency of the trace matches the line within one DFT
    # bin (0.0305 THz at the default grids); runtime under 5 s
    start = time.perf_counter()
    tg = ns.default_time_grid()
    bin_width = 1.0 / tg.window
    worst = 0.0
    for nu0 in (740.215, 740.250, 740.300):
        grid = ns.make_frequency_grid(nu0 - 0.3, 0.002, 301)
        spec = ns.gaussian_pump_spectrum(grid, nu0, 0.08)
        trace = ns.correlation_trace(ns.simulate_interferogram(spec, tg))
        found = ns.dominant_oscillation_frequency(trace, max_expected_thz=741.0)
        worst = max(worst, abs(found - nu0))
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1: oscillation-period law",
        worst <= bin_width and bin_width <= 0.031 and elapsed < 5.0,
        f"worst error {worst:.5f} THz, bin {bin_width:.5f} THz, {elapsed:.1f}s",
    )


def test_criterion_2_fourier_round_trip_comb():
    # five-line comb with unequal weights: line centers within one bin,
    # integrated line areas within 1% relative, noise-free; under 10 s
    start = time.perf_counter()
    grid = ns.make_frequency_grid(738.5, 0.002, 1751)
    lines = [
        ns.CombLine(739.25, 0.12, 1.0),
        ns.CombLine(739.75, 0.12, 0.7),
        ns.CombLine(740.25, 0.12, 0.45),
        ns.CombLine(740.75, 0.12, 0.85),
        ns.CombLine(741.25, 0.12, 0.6),
    ]
    comb = ns.comb_pump_spectrum(grid, lines)
    tg = ns.default_time_grid()
    folded = ns.fold_one_sided(
        ns.fourier_recover(ns.correlation_trace(ns.simulate_interferogram(comb, tg)))
    )
    bin_width = folded.grid.step

    features = [
        f
        for f in ns.detect_features(folded, min_prominence=0.05 * folded.weights.max())
        if 739.0 < f.center < 741.5
    ]
    centers_ok = len(features) == 5 and all(
        abs(f.center - ln.center) <= bin_width for f, ln in zip(features, lines)
    )

    nu = folded.grid.values
    total = sum(ln.weight for ln in lines)
    area_err = 0.0
    for ln in lines:
        sel = (nu > ln.center - 0.25) & (nu < ln.center + 0.25)
        area = folded.grid.step * folded.weights[sel].sum()
        area_err = max(area_err, abs(area - ln.weight / total) / (ln.weight / total))
    elapsed = time.perf_counter() - start
    _report(
        "criterion 2: five-line comb round trip",
        centers_ok and area_err < 0.01 and elapsed < 10.0,
        f"max area error {area_err:.2%}, {elapsed:.1f}s",
    )


def test_criterion_3_envelope_linewidth_reciprocity():
    # doubling the pump fwhm halves the envelope coherence time within 5%
    # across three octaves of linewidth
    grid = ns.make_frequency_grid(738.65, 0.004, 801)
    tg = ns.default_time_grid()
    fwhms = (0.05, 0.1, 0.2, 0.4)
    times = []
    for fwhm in fwhms:
        spec = ns.gaussian_pump_spectrum(grid, 740.25, fwhm)
        trace = ns.correlation_trace(ns.simulate_interferogram(spec, tg))
        times.append(ns.envelope_coherence_time(trace))
    ratios = [times[i] / times[i + 1] for i in range(len(fwhms) - 1)]
    ok = all(abs(r - 2.0) / 2.0 < 0.05 for r in ratios)
    _report(
        "criterion 3: envelope-linewidth reciprocity",
        ok,
        "octave ratios " + ", ".join(f"{r:.3f}" for r in ratios),
    )


def test_criterion_4_absorption_spectrum_recovery():
    # three-line sample (strengths 0.8/0.5/0.3, distinct widths >= 5 bins)
    # under a broad pump: forward simulation, Fourier recovery of both arms,
    # reference subtraction; dips at the line centers within one bin and
    # depths within 2% of the strengths; under 10 s
    start = time.perf_counter()
    grid = ns.make_frequency_grid(737.25, 0.004, 1501)
    pump = ns.gaussian_pump_spectrum(grid, 740.25, 2.0)
    sample = ns.Sample(
        lines=(
            ns.AbsorptionLine(739.7, 0.16, 0.8),
            ns.AbsorptionLine(740.25, 0.2, 0.5),
            ns.AbsorptionLine(740.8, 0.25, 0.3),
        ),
        name="acceptance",
    )
    result = ns.transmitted_spectrum(pump, sample)
    tg = ns.default_time_grid()

    def recover(spectrum):
        return ns.fold_one_sided(
            ns.fourier_recover(
                ns.correlation_trace(ns.simulate_interferogram(spectrum, tg))
            )
        )

    fold_ref = recover(pump)
    fold_meas = recover(result.spectrum.renormalized())
    bin_width = fold_ref.grid.step
    # linewidths stated in recovery-grid bins
    assert all(ln.fwhm >= 5 * bin_width for ln in sample.lines)

    # the surviving fraction restores the absolute scale lost to the
    # per-detected-pair normalization of the measured trace
    meas = ns.SumFrequencySpectrum(
        fold_meas.grid, fold_meas.weights * result.surviving_fraction
    )
    dips = [
        f
        for f in ns.detect_features(meas, baseline=fold_ref, min_prominence=0.01)
        if 739.0 < f.center < 741.5
    ]
    centers_ok = len(dips) == 3 and all(
        abs(f.center - ln.center) <= bin_width for f, ln in zip(dips, sample.lines)
    )
    depth_err = 0.0
    for f, ln in zip(dips, sample.lines):
        ref_level = fold_ref.weights[fold_ref.grid.index_of(f.center)]
        depth = f.height / ref_level
        depth_err = max(depth_err, abs(depth - ln.strength) / ln.strength)
    elapsed = time.perf_counter() - start
    _report(
        "criterion 4: absorption-spectrum recovery",
        centers_ok and depth_err < 0.02 and elapsed < 10.0,
        f"max depth error {depth_err:.2%}, {elapsed:.1f}s",
    )


def test_criterion_5_mass_bookkeeping_property():
    # surviving fraction + total excitation probability = 1 within 1e-9 on
    # 1000 randomized samples (no clamping by construction)
    rng = np.random.default_rng(550)
    grid = ns.make_frequency_grid(738.5, 0.002, 1001)
    worst = 0.0
    for _ in range(1000):
        incident = ns.gaussian_pump_spectrum(
            grid, float(rng.uniform(739.3, 740.2)), float(rng.uniform(0.2, 0.8))
        )
        n = int(rng.integers(1, 5))
        shares = rng.dirichlet(np.ones(n)) * 0.95
        sample = ns.Sample(
            lines=tuple(
                ns.AbsorptionLine(
                    float(rng.uniform(738.8, 740.6)),
                    float(rng.uniform(0.03, 0.3)),
                    float(shares[i]),
                )
                for i in range(n)
            )
        )
        result = ns.transmitted_spectrum(incident, sample)
        assert not result.clamped
        probs = ns.excitation_probabilities(incident, sample)
        worst = max(worst, abs(result.surviving_fraction + probs.sum() - 1.0))
    _report(
        "criterion 5: mass bookkeeping (1000 samples)",
        worst <= 1e-9,
        f"worst defect {worst:.2e}",
    )


def test_criterion_6_parseval_and_hermitian_property():
    # Parseval within 1e-6 relative and Hermitian symmetry within 1e-9
    # relative on 1000 randomized band-limited spectra
    rng = np.random.default_rng(660)
    tg = centered_time_grid(0.01, 256)  # Nyquist at 50 THz
    worst_parseval = 0.0
    worst_hermitian = 0.0
    for _ in range(1000):
        count = int(rng.integers(8, 64))
        grid = ns.make_frequency_grid(float(rng.uniform(1.0, 40.0)), 0.05, count)
        w = rng.uniform(0.0, 1.0, count)
        w[int(rng.integers(0, count))] += 0.5
        spec = ns.SumFrequencySpectrum(grid, w / (grid.step * w.sum()))
        trace = ns.correlation_trace(ns.simulate_interferogram(spec, tg))
        rec = ns.fourier_recover(trace)

        lhs = tg.step * np.sum(np.asarray(trace.values) ** 2)
        rhs = rec.grid.step * np.sum(np.abs(rec.amplitudes) ** 2)
        worst_parseval = max(worst_parseval, abs(lhs - rhs) / lhs)

        amp = rec.amplitudes
        i0 = rec.zero_index
        k = min(rec.grid.count - 1 - i0, i0)
        err = np.abs(amp[i0 - k : i0][::-1] - np.conj(amp[i0 + 1 : i0 + 1 + k])).max()
        worst_hermitian = max(worst_hermitian, err / np.abs(amp).max())
    _report(
        "criterion 6: Parseval and Hermitian symmetry (1000 spectra)",
        worst_parseval < 1e-6 and worst_hermitian < 1e-9,
        f"parseval {worst_parseval:.2e}, hermitian {worst_hermitian:.2e}",
    )


def test_criterion_7_noise_scaling_exponent():
    # std of the recovered peak height versus pairs per bin fits an
    # exponent of -0.5 +- 0.1 over 1e3..1e5 with >= 50 repeats; the
    # counting-statistics square-root law, not a 1/N law; under 2 min
    start = time.perf_counter()
    spec = ns.gaussian_pump_spectrum(
        ns.make_frequency_grid(738.25, 0.004, 1001), 740.25, 1.0
    )
    cfg = ns.NoiseConfig(pairs_per_bin=1000, seed=20250808, efficiency=0.9)
    study = ns.error_scaling_study(
        spec,
        [1000, 10000, 100000],
        repeats=60,
        config=cfg,
        grid=ns.TimeGrid(-1.024, 5e-4, 4096),
    )
    elapsed = time.perf_counter() - start
    _report(
        "criterion 7: noise-scaling exponent",
        -0.6 <= study.exponent <= -0.4 and elapsed < 120.0,
        f"exponent {study.exponent:.3f}, {elapsed:.1f}s",
    )


def test_criterion_8_determinism(tmp_path):
    # fixed seeds: byte-identical outputs across reruns and across
    # different internal partitioning (chunk sizes)
    scenario = {
        "version": 1,
        "pump": {
            "kind": "gaussian",
            "center_thz": 740.25,
            "fwhm_thz": 0.4,
            "grid": {"start_thz": 738.75, "step_thz": 0.004, "count": 751},
        },
        "time_grid": {"start_ps": -1.024, "step_ps": 5e-4, "count": 4096},
        "noise": {
            "pairs_per_bin": 500,
            "seed": 77,
            "dark_rate": 0.0,
            "efficiency": 1.0,
        },
    }
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(scenario))

    def run(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "noonspec", *args],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    sim_files = (
        "spectrum.csv",
        "transmitted.csv",
        "interferogram.csv",
        "trace.csv",
        "counts.csv",
        "trace_estimated.csv",
        "summary.json",
    )
    run("simulate", "--config", str(cfg), "--out", str(tmp_path / "sim_a"))
    run("simulate", "--config", str(cfg), "--out", str(tmp_path / "sim_b"))
    run(
        "simulate",
        "--config",
        str(cfg),
        "--out",
        str(tmp_path / "sim_c"),
        "--chunk-size",
        "333",
    )
    sim_ok = all(
        (tmp_path / "sim_a" / name).read_bytes()
        == (tmp_path / "sim_b" / name).read_bytes()
        == (tmp_path / "sim_c" / name).read_bytes()
        for name in sim_files
    )

    study_args = ("--trials", "300,1000", "--repeats", "10")
    run("noise-study", "--config", str(cfg), "--out", str(tmp_path / "ns_a"), *study_args)
    run("noise-study", "--config", str(cfg), "--out", str(tmp_path / "ns_b"), *study_args)
    run(
        "noise-study",
        "--config",
        str(cfg),
        "--out",
        str(tmp_path / "ns_c"),
        *study_args,
        "--chunk-size",
        "41",
    )
    study_ok = (
        (tmp_path / "ns_a" / "scaling.csv").read_bytes()
        == (tmp_path / "ns_b" / "scaling.csv").read_bytes()
        == (tmp_path / "ns_c" / "scaling.csv").read_bytes()
    )
    _report(
        "criterion 8: determinism across reruns and partitioning",
        sim_ok and study_ok,
        f"simulate identical: {sim_ok}, noise-study identical: {study_ok}",
    )
