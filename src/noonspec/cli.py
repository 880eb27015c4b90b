"""Command-line front end.

Verbs: ``simulate`` (scenario -> spectrum/transmitted/interferogram/trace
CSVs), ``recover`` (trace CSV -> recovered/folded spectra and a peak
report), ``noise-study`` (counting-statistics scaling table) and
``presets list``. Every command is deterministic given its config and
seed: reruns produce byte-identical files.

Exit codes: 0 success, 2 config or CSV parse error (any ``ValueError``,
``OSError`` or ``MemoryError``), 3 Nyquist violation, 4 non-uniform
delay grid.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import io
from .absorption import AbsorptionLine, Sample, transmitted_spectrum
from .errors import AliasingError, NonUniformGridError
from .grids import TimeGrid, UniformGrid
from .interferometer import (
    correlation_trace,
    default_time_grid,
    simulate_interferogram,
)
from .noise import NoiseConfig, error_scaling_study, estimate_trace, sample_counts
from .presets import DESCRIPTIONS, PRESETS, preset_scenario
from .recovery import detect_features, fold_one_sided, fourier_recover
from .spectral import (
    CombLine,
    SumFrequencySpectrum,
    comb_pump_spectrum,
    gaussian_jsi,
    gaussian_pump_spectrum,
    sum_frequency_marginal,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NYQUIST = 3
EXIT_NONUNIFORM = 4


class ScenarioError(ValueError):
    """The scenario document is malformed."""


@dataclass(frozen=True)
class Scenario:
    spectrum: SumFrequencySpectrum
    sample: Sample | None
    time_grid: TimeGrid
    noise: NoiseConfig | None
    outputs: str | None


def _require_object(doc, context: str) -> None:
    if not isinstance(doc, dict):
        raise ScenarioError(f"{context} must be a JSON object")


def _require_keys(doc: dict, allowed: set, context: str) -> None:
    _require_object(doc, context)
    extra = set(doc) - allowed
    if extra:
        raise ScenarioError(f"unknown keys in {context}: {sorted(extra)}")


def _integer(doc: dict, key: str) -> int:
    """``doc[key]`` as an int; a boolean or a non-integral number is an error."""
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise ScenarioError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _real(doc: dict, key: str) -> float:
    """``doc[key]`` as a finite float; a string, a boolean or a non-finite number is an error."""
    value = doc[key]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ScenarioError(f"{key} must be a finite number, got {value!r}")


def _read_json(path: Path, what: str):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ScenarioError(f"cannot read {what}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{what} is not valid JSON: {exc}") from exc


def _parse_grid(doc: dict, context: str, unit: str) -> UniformGrid:
    """A uniform axis from ``start_<unit>``, ``step_<unit>`` and ``count``."""
    start, step = f"start_{unit}", f"step_{unit}"
    _require_keys(doc, {start, step, "count"}, context)
    try:
        return UniformGrid(_real(doc, start), _real(doc, step), _integer(doc, "count"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"bad {context}: {exc}") from exc


def _parse_pump(doc: dict) -> SumFrequencySpectrum:
    _require_object(doc, "pump")
    kind = doc.get("kind")
    try:
        if kind == "gaussian":
            _require_keys(doc, {"kind", "center_thz", "fwhm_thz", "grid"}, "pump")
            grid = _parse_grid(doc["grid"], "pump.grid", "thz")
            return gaussian_pump_spectrum(
                grid, _real(doc, "center_thz"), _real(doc, "fwhm_thz")
            )
        if kind == "comb":
            _require_keys(doc, {"kind", "lines", "grid"}, "pump")
            grid = _parse_grid(doc["grid"], "pump.grid", "thz")
            lines = []
            for entry in doc.get("lines", []):
                _require_keys(entry, {"center_thz", "fwhm_thz", "weight"}, "pump.lines[]")
                lines.append(
                    CombLine(
                        _real(entry, "center_thz"),
                        _real(entry, "fwhm_thz"),
                        _real(entry, "weight"),
                    )
                )
            return comb_pump_spectrum(grid, lines)
        if kind == "jsi":
            _require_keys(
                doc,
                {
                    "kind",
                    "pump_center_thz",
                    "pump_fwhm_thz",
                    "phasematch_fwhm_thz",
                    "signal_grid",
                    "idler_grid",
                    "sum_grid",
                },
                "pump",
            )
            jsi = gaussian_jsi(
                _parse_grid(doc["signal_grid"], "pump.signal_grid", "thz"),
                _parse_grid(doc["idler_grid"], "pump.idler_grid", "thz"),
                _real(doc, "pump_center_thz"),
                _real(doc, "pump_fwhm_thz"),
                _real(doc, "phasematch_fwhm_thz"),
            )
            return sum_frequency_marginal(
                jsi, _parse_grid(doc["sum_grid"], "pump.sum_grid", "thz")
            )
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"bad pump section: {exc}") from exc
    raise ScenarioError(f"pump.kind must be gaussian, comb or jsi, got {kind!r}")


def _parse_sample(doc, base_dir: Path) -> Sample:
    """The inline ``{"name", "lines"}`` form, or ``{"path"}`` to a file holding it."""
    _require_object(doc, "sample")
    if set(doc) == {"path"}:
        if not isinstance(doc["path"], str):
            raise ScenarioError(f"sample path must be a string, got {doc['path']!r}")
        doc = _read_json(base_dir / doc["path"], "sample file")
    _require_keys(doc, {"name", "lines"}, "sample")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ScenarioError(f"sample name must be a string, got {name!r}")
    try:
        lines = []
        for entry in doc.get("lines", []):
            _require_keys(entry, {"center_thz", "fwhm_thz", "strength"}, "sample.lines[]")
            lines.append(
                AbsorptionLine(
                    _real(entry, "center_thz"),
                    _real(entry, "fwhm_thz"),
                    _real(entry, "strength"),
                )
            )
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"bad sample: {exc}") from exc
    return Sample(tuple(lines), name)


def _parse_noise(doc: dict) -> NoiseConfig:
    _require_keys(doc, {"pairs_per_bin", "seed", "dark_rate", "efficiency"}, "noise")
    try:
        return NoiseConfig(
            pairs_per_bin=_integer(doc, "pairs_per_bin"),
            seed=_integer(doc, "seed"),
            dark_rate=_real(doc, "dark_rate") if "dark_rate" in doc else 0.0,
            efficiency=_real(doc, "efficiency") if "efficiency" in doc else 1.0,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"bad noise config: {exc}") from exc


def parse_scenario(doc: dict, base_dir: Path) -> Scenario:
    _require_keys(
        doc, {"version", "pump", "sample", "time_grid", "noise", "outputs"}, "scenario"
    )
    if doc.get("version") != 1:
        raise ScenarioError(f"unsupported scenario version {doc.get('version')!r}")
    if "pump" not in doc:
        raise ScenarioError("scenario requires a pump section")
    spectrum = _parse_pump(doc["pump"])
    sample = None if doc.get("sample") is None else _parse_sample(doc["sample"], base_dir)
    tgrid = doc.get("time_grid")
    tgrid = default_time_grid() if tgrid is None else _parse_grid(tgrid, "time_grid", "ps")
    noise = None if doc.get("noise") is None else _parse_noise(doc["noise"])
    outputs = doc.get("outputs")
    if outputs is not None and not isinstance(outputs, str):
        raise ScenarioError(f"outputs must be a directory path string, got {outputs!r}")
    return Scenario(spectrum, sample, tgrid, noise, outputs)


def load_scenario(args) -> Scenario:
    if args.config and args.preset:
        raise ScenarioError("give either --config or --preset, not both")
    if args.config:
        path = Path(args.config)
        return parse_scenario(_read_json(path, "config"), path.parent)
    if args.preset:
        try:
            doc = preset_scenario(args.preset)
        except KeyError as exc:
            raise ScenarioError(str(exc)) from exc
        return parse_scenario(doc, Path.cwd())
    raise ScenarioError("one of --config or --preset is required")


def _check_nyquist(scenario: Scenario) -> float:
    nu_max = abs(scenario.spectrum.grid.stop)
    if scenario.time_grid.step >= 1.0 / (2.0 * nu_max):
        raise AliasingError(
            f"time step {scenario.time_grid.step} ps aliases the pump band "
            f"(max {nu_max} THz needs step < {1.0 / (2.0 * nu_max):.3e} ps)"
        )
    return nu_max


def _resolve_out(args, scenario: Scenario) -> Path:
    out = args.out or scenario.outputs
    if not out:
        raise ScenarioError("no output directory: pass --out or set scenario.outputs")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_simulate(args) -> int:
    scenario = load_scenario(args)
    if args.seed is not None and scenario.noise is not None:
        scenario = replace(scenario, noise=replace(scenario.noise, seed=args.seed))
    nu_max = _check_nyquist(scenario)
    out = _resolve_out(args, scenario)

    incident = scenario.spectrum
    if scenario.sample is not None:
        result = transmitted_spectrum(incident, scenario.sample)
        transmitted, surviving = result.spectrum, result.surviving_fraction
    else:
        transmitted, surviving = incident, 1.0

    interferogram = simulate_interferogram(transmitted.renormalized(), scenario.time_grid)
    trace = correlation_trace(interferogram)

    io.write_spectrum_csv(out / "spectrum.csv", incident)
    io.write_spectrum_csv(out / "transmitted.csv", transmitted)
    io.write_interferogram_csv(out / "interferogram.csv", interferogram)
    io.write_trace_csv(out / "trace.csv", trace)

    summary = {
        "surviving_fraction": surviving,
        "pump_max_thz": nu_max,
        "time_step_ps": scenario.time_grid.step,
        "time_count": scenario.time_grid.count,
        "resolution_thz": 1.0 / scenario.time_grid.window,
    }
    if scenario.noise is not None:
        counts = sample_counts(interferogram, scenario.noise, chunk_size=args.chunk_size)
        io.write_counts_csv(out / "counts.csv", counts)
        estimated = estimate_trace(counts, scenario.noise.efficiency, scenario.noise.dark_rate)
        io.write_trace_csv(out / "trace_estimated.csv", estimated)
        summary["noise_seed"] = scenario.noise.seed
        summary["pairs_per_bin"] = scenario.noise.pairs_per_bin
        summary["probability_clamped"] = counts.clamped
    with open(out / "summary.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return EXIT_OK


def cmd_recover(args) -> int:
    trace = io.read_trace_csv(args.trace)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    recovered = fourier_recover(trace, window=args.window)
    folded = fold_one_sided(recovered)

    prominence = args.min_prominence
    if prominence is None:  # 5% of the folded maximum; a zero trace has no peaks
        prominence = 0.05 * float(folded.weights.max())
    features = detect_features(folded, min_prominence=prominence) if prominence > 0 else []

    io.write_recovered_csv(out / "recovered.csv", recovered)
    io.write_spectrum_csv(out / "folded.csv", folded)
    io.write_peaks_json(out / "peaks.json", features)
    return EXIT_OK


def cmd_noise_study(args) -> int:
    scenario = load_scenario(args)
    _check_nyquist(scenario)
    out = _resolve_out(args, scenario)

    noise = scenario.noise or NoiseConfig(pairs_per_bin=1000, seed=0)
    if args.seed is not None:
        noise = replace(noise, seed=args.seed)

    spectrum = scenario.spectrum
    if scenario.sample is not None:
        spectrum = transmitted_spectrum(spectrum, scenario.sample).spectrum.renormalized()

    try:
        trials = [int(tok) for tok in args.trials.split(",") if tok.strip()]
    except ValueError as exc:
        raise ScenarioError(f"bad --trials list: {exc}") from exc
    if not trials:
        raise ScenarioError("--trials list is empty")

    study = error_scaling_study(
        spectrum,
        trials,
        repeats=args.repeats,
        config=noise,
        grid=scenario.time_grid,
        chunk_size=args.chunk_size,
    )
    io.write_scaling_csv(out / "scaling.csv", study)
    if study.exponent == study.exponent:  # not NaN
        print(f"fitted_exponent={study.exponent:.6f}")
    else:
        print("fitted_exponent=not-available")
    return EXIT_OK


def cmd_presets(args) -> int:
    for name in sorted(PRESETS):
        print(f"{name}\t{DESCRIPTIONS[name]}")
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noonspec",
        description="Two-photon excitation spectroscopy by N00N-state interferometry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_args(p):
        p.add_argument("--config", help="scenario JSON file")
        p.add_argument("--preset", help="bundled scenario name (see `presets list`)")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="override the noise seed")

    def add_chunk_size_arg(p):
        p.add_argument(
            "--chunk-size",
            type=_positive_int,
            default=None,
            help="delay bins per count-sampling block (results are identical for any value)",
        )

    p_sim = sub.add_parser("simulate", help="forward-simulate a scenario")
    add_scenario_args(p_sim)
    add_chunk_size_arg(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_rec = sub.add_parser("recover", help="recover a spectrum from a trace CSV")
    p_rec.add_argument("trace", help="trace CSV with header t_ps,g")
    p_rec.add_argument("--out", required=True, help="output directory")
    p_rec.add_argument("--window", choices=["rect", "hann"], default="rect")
    p_rec.add_argument(
        "--min-prominence",
        type=_positive_float,
        default=None,
        help="peak prominence threshold (default: 5%% of the folded maximum)",
    )
    p_rec.set_defaults(func=cmd_recover)

    p_ns = sub.add_parser("noise-study", help="counting-noise scaling study")
    add_scenario_args(p_ns)
    p_ns.add_argument(
        "--trials",
        default="1000,10000,100000",
        help="comma-separated pairs-per-bin values",
    )
    p_ns.add_argument("--repeats", type=int, default=50)
    add_chunk_size_arg(p_ns)
    p_ns.set_defaults(func=cmd_noise_study)

    p_pre = sub.add_parser("presets", help="inspect bundled scenarios")
    p_pre.add_argument("action", choices=["list"])
    p_pre.set_defaults(func=cmd_presets)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AliasingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NYQUIST
    except NonUniformGridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONUNIFORM
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a scenario asking for more memory than there is
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
