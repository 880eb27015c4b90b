"""Command-line front end.

Verbs: ``simulate`` (scenario -> spectrum/transmitted/interferogram/trace
CSVs), ``recover`` (trace CSV -> recovered/folded spectra and a peak
report), ``noise-study`` (counting-statistics scaling table) and
``presets list``. Every command is deterministic given its config and
seed: reruns produce byte-identical files. Each verb checks every input
(the output path too, without creating it), computes every result, and
only then creates the output directory and writes, so a run that fails
while checking or computing writes nothing.

Exit codes: 0 success, 2 config or CSV parse error (any ``ValueError``,
``OSError`` or ``MemoryError``; a noise-study worker process that dies
raises ``ChildProcessError``, an ``OSError``), 3 Nyquist violation, 4
non-uniform delay grid. Every failure, a malformed flag too, is one
``error:`` line of at most 300 bytes on stderr, made by ``_error_line``.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import grids, io
from .absorption import AbsorptionLine, Sample, transmitted_spectrum
from .errors import AliasingError, NonUniformGridError
from .grids import TimeGrid, UniformGrid
from .interferometer import check_nyquist, default_time_grid, simulate_interferogram
from .noise import NoiseConfig, error_scaling_study, estimate_trace, sample_counts
from .presets import DESCRIPTIONS, PRESETS, preset_scenario
from .recovery import _folded, _mirrored, _one_sided, _transformed, detect_features
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

    @property
    def pump_max_thz(self) -> float:
        """The largest |frequency| of the pump grid: the band Nyquist bounds."""
        return max(abs(self.spectrum.grid.start), abs(self.spectrum.grid.stop))


def _members(doc, context: str, required, optional=()) -> dict:
    """``doc`` as a JSON object holding every ``required`` key and no key
    beyond ``required`` and ``optional``; ``context`` is its dotted path."""
    if not isinstance(doc, dict):
        raise ScenarioError(f"{context} must be a JSON object")
    extra = set(doc) - set(required) - set(optional)
    if extra:
        raise ScenarioError(f"unknown keys in {context}: {sorted(extra)!r}")
    for key in required:
        if key not in doc:
            raise ScenarioError(f"{context} needs {key}")
    return doc


def _integer(doc: dict, key: str, context: str) -> int:
    """``doc[key]`` as an int, by the package's one integer rule."""
    try:
        return grids._integer(doc[key], f"{context}.{key}")
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def _real(doc: dict, key: str, context: str) -> float:
    """``doc[key]`` as a finite float; a string, a boolean or a non-finite number is an error."""
    value = doc[key]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ScenarioError(f"{context}.{key} must be a finite number, got {value!r}")


def _lines(doc: dict, context: str, last: str) -> list:
    """``(center_thz, fwhm_thz, <last>)`` of each object in ``doc["lines"]``;
    an absent array has no lines."""
    lines = doc.get("lines", [])
    if not isinstance(lines, list):
        raise ScenarioError(f"{context}.lines must be a JSON array, got {lines!r}")
    where, keys = f"{context}.lines[]", ("center_thz", "fwhm_thz", last)
    for entry in lines:
        _members(entry, where, keys)
    return [tuple(_real(entry, key, where) for key in keys) for entry in lines]


def _build(section: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, a ValueError from it reported as a bad ``section``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(f"bad {section}: {exc}") from exc


def _read_json(path: Path, what: str):
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read {what}: {exc}") from exc
    try:
        return json.loads(text)
    # RecursionError: nested past the parser's depth; a plain ValueError: an
    # integer past the interpreter's digit limit (JSONDecodeError is one too)
    except (ValueError, RecursionError) as exc:
        raise ScenarioError(f"{what} is not valid JSON: {exc}") from exc


def _parse_grid(doc, context: str, unit: str) -> UniformGrid:
    """A uniform axis from ``start_<unit>``, ``step_<unit>`` and ``count``."""
    start, step = f"start_{unit}", f"step_{unit}"
    _members(doc, context, (start, step, "count"))
    return _build(
        context,
        UniformGrid,
        _real(doc, start, context),
        _real(doc, step, context),
        _integer(doc, "count", context),
    )


def _parse_pump(doc) -> SumFrequencySpectrum:
    # any keys with the kind; each kind then checks its own
    kind = _members(doc, "pump", ("kind",), doc)["kind"]
    if kind == "gaussian":
        _members(doc, "pump", ("kind", "center_thz", "fwhm_thz", "grid"))
        grid = _parse_grid(doc["grid"], "pump.grid", "thz")
        return _build(
            "pump section",
            gaussian_pump_spectrum,
            grid,
            _real(doc, "center_thz", "pump"),
            _real(doc, "fwhm_thz", "pump"),
        )
    if kind == "comb":
        _members(doc, "pump", ("kind", "grid", "lines"))
        grid = _parse_grid(doc["grid"], "pump.grid", "thz")
        lines = [_build("pump section", CombLine, *line) for line in _lines(doc, "pump", "weight")]
        return _build("pump section", comb_pump_spectrum, grid, lines)
    if kind == "jsi":
        reals = ("pump_center_thz", "pump_fwhm_thz", "phasematch_fwhm_thz")
        _members(doc, "pump", ("kind", *reals, "signal_grid", "idler_grid", "sum_grid"))
        jsi = _build(
            "pump section",
            gaussian_jsi,
            _parse_grid(doc["signal_grid"], "pump.signal_grid", "thz"),
            _parse_grid(doc["idler_grid"], "pump.idler_grid", "thz"),
            *(_real(doc, key, "pump") for key in reals),
        )
        sum_grid = _parse_grid(doc["sum_grid"], "pump.sum_grid", "thz")
        return _build("pump section", sum_frequency_marginal, jsi, sum_grid)
    raise ScenarioError(f"pump.kind must be gaussian, comb or jsi, got {kind!r}")


def _parse_sample(doc, base_dir: Path) -> Sample:
    """The inline ``{"name", "lines"}`` form, or ``{"path"}`` to a file holding it."""
    if isinstance(doc, dict) and set(doc) == {"path"}:
        if not isinstance(doc["path"], str):
            raise ScenarioError(f"sample path must be a string, got {doc['path']!r}")
        doc = _read_json(base_dir / doc["path"], "sample file")
    _members(doc, "sample", (), ("name", "lines"))
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ScenarioError(f"sample name must be a string, got {name!r}")
    lines = [_build("sample", AbsorptionLine, *line) for line in _lines(doc, "sample", "strength")]
    return Sample(tuple(lines), name)


def _parse_noise(doc) -> NoiseConfig:
    reals = ("dark_rate", "efficiency")  # absent ones take NoiseConfig's defaults
    _members(doc, "noise", ("pairs_per_bin", "seed"), reals)
    fields = {key: _integer(doc, key, "noise") for key in ("pairs_per_bin", "seed")}
    fields.update({key: _real(doc, key, "noise") for key in reals if key in doc})
    return _build("noise config", NoiseConfig, **fields)


def parse_scenario(doc: dict, base_dir: Path) -> Scenario:
    _members(doc, "scenario", ("version", "pump"), ("sample", "time_grid", "noise", "outputs"))
    version = _integer(doc, "version", "scenario")
    if version != 1:
        raise ScenarioError(f"unsupported scenario version {version!r}")
    spectrum = _parse_pump(doc["pump"])
    sample = None if doc.get("sample") is None else _parse_sample(doc["sample"], base_dir)
    tgrid = doc.get("time_grid")
    tgrid = default_time_grid() if tgrid is None else _parse_grid(tgrid, "time_grid", "ps")
    noise = None if doc.get("noise") is None else _parse_noise(doc["noise"])
    outputs = doc.get("outputs")
    if outputs is not None and not isinstance(outputs, str):
        raise ScenarioError(f"outputs must be a directory path string, got {outputs!r}")
    if outputs:  # relative to the config file, as sample.path is; "" stays no directory
        outputs = str(base_dir / outputs)
    return Scenario(spectrum, sample, tgrid, noise, outputs)


def load_scenario(args) -> Scenario:
    """The scenario of the one ``--config`` or ``--preset``, checked against Nyquist."""
    if args.config is None:
        scenario = parse_scenario(preset_scenario(args.preset), Path.cwd())
    else:
        path = Path(args.config)
        scenario = parse_scenario(_read_json(path, "config"), path.parent)
    check_nyquist(scenario.time_grid.step, scenario.pump_max_thz)
    return scenario


def _seeded(noise: NoiseConfig | None, seed: int | None) -> NoiseConfig | None:
    """``noise`` with ``--seed`` as its seed; a run without noise has nothing to seed."""
    if seed is None:
        return noise
    if noise is None:
        raise ScenarioError("--seed needs a scenario with a noise section")
    return replace(noise, seed=seed)


def _out_dir(out: str | None) -> Path:
    """The output directory, checked but not created (only a ``cmd_*`` creates it)."""
    if not out:
        raise ScenarioError("no output directory: pass --out or set scenario.outputs")
    path = Path(out)
    if path.exists() and not path.is_dir():
        raise ScenarioError(f"output path {out} is not a directory")
    return path


def _transmitted(scenario: Scenario) -> tuple:
    """The spectrum past the sample and its surviving fraction, and that
    spectrum renormalized: the one the interferometer sees."""
    if scenario.sample is None:
        return scenario.spectrum, 1.0, scenario.spectrum.renormalized()
    result = transmitted_spectrum(scenario.spectrum, scenario.sample)
    return result.spectrum, result.surviving_fraction, result.spectrum.renormalized()


def cmd_simulate(args) -> int:
    scenario = load_scenario(args)
    noise = _seeded(scenario.noise, args.seed)
    out = _out_dir(args.out or scenario.outputs)

    transmitted, surviving, seen = _transmitted(scenario)
    interferogram = simulate_interferogram(seen, scenario.time_grid)
    summary = {
        "surviving_fraction": surviving,
        "pump_max_thz": scenario.pump_max_thz,
        "time_step_ps": scenario.time_grid.step,
        "time_count": scenario.time_grid.count,
        "resolution_thz": 1.0 / scenario.time_grid.window,
    }
    # the delay tables share their t_ps column, so they are written in one walk
    delays = [
        io.interferogram_table(out / "interferogram.csv", interferogram),
        io.correlation_table(out / "trace.csv", interferogram),
    ]
    if noise is not None:
        counts = sample_counts(interferogram, noise, chunk_size=args.chunk_size)
        estimated = estimate_trace(counts, noise.efficiency, noise.dark_rate)
        summary["noise_seed"] = noise.seed
        summary["pairs_per_bin"] = noise.pairs_per_bin
        summary["probability_clamped"] = counts.clamped
        delays += [
            io.counts_table(out / "counts.csv", counts),
            io.trace_table(out / "trace_estimated.csv", estimated),
        ]

    out.mkdir(parents=True, exist_ok=True)
    # the two spectra share their grid, and without a sample they are one object
    io.save_tables(
        [io.spectrum_table(out / "spectrum.csv", scenario.spectrum),
         io.spectrum_table(out / "transmitted.csv", transmitted)]
    )
    io.save_tables(delays)
    io.write_json(out / "summary.json", summary)
    return EXIT_OK


def cmd_recover(args) -> int:
    trace = io.read_trace_csv(args.trace)
    out = _out_dir(args.out)

    # the transform's f >= 0 half alone: the negative frequencies are its
    # conjugate mirror, written as such, and the fold doubles the half
    grid, half = _transformed(trace.values, trace.grid, args.window)
    del trace  # freed before the writers run, which lowers the verb's peak memory
    folded = _one_sided(_folded(half, grid.count), grid.step)
    peaks = [
        {"center_thz": f.center, "height": f.height, "fwhm_thz": f.fwhm, "kind": f.kind}
        for f in detect_features(folded, min_prominence=args.min_prominence)
    ]

    out.mkdir(parents=True, exist_ok=True)
    io.write_recovered_csv(out / "recovered.csv", grid, _mirrored(half, grid))
    io.write_spectrum_csv(out / "folded.csv", folded)
    io.write_json(out / "peaks.json", peaks)
    return EXIT_OK


def cmd_noise_study(args) -> int:
    scenario = load_scenario(args)
    noise = _seeded(scenario.noise or NoiseConfig(pairs_per_bin=1000, seed=0), args.seed)
    out = _out_dir(args.out or scenario.outputs)

    _, _, seen = _transmitted(scenario)
    study = error_scaling_study(
        seen, args.trials, args.repeats, noise, scenario.time_grid, args.chunk_size
    )

    out.mkdir(parents=True, exist_ok=True)
    io.write_scaling_csv(out / "scaling.csv", study)
    exponent = "not-available" if math.isnan(study.exponent) else f"{study.exponent:.6f}"
    print(f"fitted_exponent={exponent}")
    return EXIT_OK


def cmd_presets(args) -> int:
    for name in sorted(PRESETS):
        print(f"{name}\t{DESCRIPTIONS[name]}")
    return EXIT_OK


def _positive(number, many: bool = False):
    """An argparse type: a positive finite ``number``, or with ``many`` a
    comma-separated list of them."""

    def parse(text: str):
        values = []
        for token in text.split(",") if many else [text]:
            try:
                value = number(token)
            except ValueError:
                value = math.nan
            if not 0 < value < math.inf:
                raise argparse.ArgumentTypeError(
                    f"expected a positive finite {number.__name__}, got {token!r}"
                )
            values.append(value)
        return values if many else values[0]

    return parse


def _error_line(message: str) -> str:
    """``error: <message>`` and a newline in at most 300 bytes of UTF-8: each
    non-printable character escaped as ``repr`` escapes it, and the middle of
    a longer line elided on a character boundary."""
    line = "".join(c if c.isprintable() else repr(c)[1:-1] for c in f"error: {message}")
    data = line.encode()
    if len(data) >= 300:  # 147 bytes each side of " ... ", and the newline
        line = f"{data[:147].decode(errors='ignore')} ... {data[-147:].decode(errors='ignore')}"
    return line + "\n"


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are one ``error:`` line and exit 2, not
    argparse's usage block; its subparsers share the class."""

    def error(self, message):
        self.exit(EXIT_CONFIG, _error_line(message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="noonspec",
        description="Two-photon excitation spectroscopy by N00N-state interferometry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_args(p):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--config", help="scenario JSON file")
        source.add_argument("--preset", help="bundled scenario name (see `presets list`)")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="override the noise seed")
        p.add_argument(
            "--chunk-size",
            type=_positive(int),
            default=None,
            help="delay bins per count-sampling block (results are identical for any value)",
        )

    p_sim = sub.add_parser("simulate", help="forward-simulate a scenario")
    add_scenario_args(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_rec = sub.add_parser("recover", help="recover a spectrum from a trace CSV")
    p_rec.add_argument("trace", help="trace CSV with header t_ps,g")
    p_rec.add_argument("--out", required=True, help="output directory")
    p_rec.add_argument("--window", choices=["rect", "hann"], default="rect")
    p_rec.add_argument(
        "--min-prominence",
        type=_positive(float),
        default=None,
        help="peak prominence threshold (default: 5%% of the folded maximum)",
    )
    p_rec.set_defaults(func=cmd_recover)

    p_ns = sub.add_parser("noise-study", help="counting-noise scaling study")
    add_scenario_args(p_ns)
    p_ns.add_argument(
        "--trials",
        type=_positive(int, many=True),
        default="1000,10000,100000",
        help="comma-separated pairs-per-bin values",
    )
    p_ns.add_argument("--repeats", type=int, default=50)
    p_ns.set_defaults(func=cmd_noise_study)

    p_pre = sub.add_parser("presets", help="inspect bundled scenarios")
    p_pre.add_argument("action", choices=["list"])
    p_pre.set_defaults(func=cmd_presets)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:  # MemoryError: a scenario too big
        empty = "out of memory" if isinstance(exc, MemoryError) else ""
        sys.stderr.write(_error_line(str(exc) or empty))
        if isinstance(exc, AliasingError):
            return EXIT_NYQUIST
        return EXIT_NONUNIFORM if isinstance(exc, NonUniformGridError) else EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
