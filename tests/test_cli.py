import json
import math
import mmap
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from noonspec import (
    AliasingError,
    AsymmetryError,
    NonUniformGridError,
    UniformGrid,
    WindowTooShortError,
    cli,
    io,
    noise,
)
from noonspec.absorption import transmitted_spectrum
from noonspec.cli import ScenarioError, main, parse_scenario
from noonspec.io import read_trace_csv
from noonspec.presets import preset_scenario
from noonspec.recovery import detect_features, fold_one_sided, fourier_recover

from conftest import fork_only, peak_above_inputs

SMALL_TIME_GRID = {"start_ps": -1.024, "step_ps": 5e-4, "count": 4096}
TINY_TIME_GRID = {"start_ps": -0.064, "step_ps": 5e-4, "count": 256}
JSI_PUMP = {
    "kind": "jsi",
    "pump_center_thz": 740.25,
    "pump_fwhm_thz": 0.5,
    "phasematch_fwhm_thz": 1.0,
    "signal_grid": {"start_thz": 369.625, "step_thz": 0.01, "count": 101},
    "idler_grid": {"start_thz": 369.625, "step_thz": 0.01, "count": 101},
    "sum_grid": {"start_thz": 739.25, "step_thz": 0.01, "count": 201},
}


# a JSON array nested far past the depth the json parser recurses to
DEEP_ARRAY = "[" * 100000 + "]" * 100000
# a grid count of 5,000 digits, past the interpreter's integer-string limit
HUGE_COUNT = '{"version": 1, "pump": {"grid": {"count": ' + "1" * 5000 + "}}}"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "noonspec", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def small_scenario(**overrides):
    doc = {
        "version": 1,
        "pump": {
            "kind": "gaussian",
            "center_thz": 740.25,
            "fwhm_thz": 0.4,
            "grid": {"start_thz": 738.75, "step_thz": 0.004, "count": 751},
        },
        "time_grid": dict(SMALL_TIME_GRID),
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestPresets:
    def test_list(self):
        proc = run_cli("presets", "list")
        assert proc.returncode == 0
        names = [line.split("\t")[0] for line in proc.stdout.splitlines()]
        assert names == sorted(names)
        assert "comb5" in names and "line-250" in names

    def test_all_presets_parse_and_satisfy_nyquist(self, tmp_path):
        from pathlib import Path

        from noonspec.cli import parse_scenario
        from noonspec.interferometer import check_nyquist
        from noonspec.presets import PRESETS, preset_scenario

        for name in PRESETS:
            scenario = parse_scenario(preset_scenario(name), Path(tmp_path))
            check_nyquist(scenario.time_grid.step, scenario.pump_max_thz)
            assert abs(scenario.spectrum.total_mass - 1.0) <= 1e-9

    def test_line_preset_round_trips_through_cli(self, tmp_path):
        out = tmp_path / "sim"
        proc = run_cli("simulate", "--preset", "line-215", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        rec = tmp_path / "rec"
        proc = run_cli("recover", str(out / "trace.csv"), "--out", str(rec))
        assert proc.returncode == 0, proc.stderr
        peaks = json.loads((rec / "peaks.json").read_text())
        assert len(peaks) == 1
        assert abs(peaks[0]["center_thz"] - 740.215) <= 1.0 / 32.768


class TestSimulate:
    def test_transparent_sample_transmitted_equals_spectrum(self, tmp_path):
        cfg = write_config(tmp_path, small_scenario())
        proc = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        spectrum = (tmp_path / "out" / "spectrum.csv").read_bytes()
        transmitted = (tmp_path / "out" / "transmitted.csv").read_bytes()
        assert spectrum == transmitted

    def test_sample_reduces_surviving_fraction(self, tmp_path):
        doc = small_scenario(
            sample={
                "name": "one line",
                "lines": [{"center_thz": 740.25, "fwhm_thz": 0.1, "strength": 0.7}],
            }
        )
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        proc = run_cli("simulate", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        summary = json.loads((out / "summary.json").read_text())
        assert summary["surviving_fraction"] < 1.0
        for name in ("spectrum.csv", "transmitted.csv", "interferogram.csv", "trace.csv"):
            assert (out / name).exists()

    def test_sample_from_file_path(self, tmp_path):
        sample_path = tmp_path / "sample.json"
        sample_path.write_text(
            json.dumps(
                {
                    "name": "file sample",
                    "lines": [
                        {"center_thz": 740.1, "fwhm_thz": 0.08, "strength": 0.4}
                    ],
                }
            )
        )
        doc = small_scenario(sample={"path": "sample.json"})
        cfg = write_config(tmp_path, doc)
        proc = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr

    def test_noise_outputs_written(self, tmp_path):
        doc = small_scenario(
            noise={"pairs_per_bin": 400, "seed": 5, "dark_rate": 0.0, "efficiency": 1.0}
        )
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        proc = run_cli("simulate", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert (out / "counts.csv").exists()
        assert (out / "trace_estimated.csv").exists()

    def test_estimated_trace_keeps_the_delay_grid(self, tmp_path):
        # the endpoint step of this grid is 0.0004999999999999999, not 5e-4
        doc = small_scenario(
            time_grid={"start_ps": -0.3076, "step_ps": 5e-4, "count": 3069},
            noise={"pairs_per_bin": 400, "seed": 5},
        )
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        trace, counts, estimated = (
            [row.split(",")[0] for row in (out / name).read_text().splitlines()[1:]]
            for name in ("trace.csv", "counts.csv", "trace_estimated.csv")
        )
        assert len(trace) == 3069
        assert trace == counts == estimated

    @pytest.mark.parametrize(
        "key, value",
        [("sample", v) for v in (0, False, "", [])]
        + [("noise", v) for v in (0, False, [], {})]
        + [("time_grid", v) for v in (0, False, [], {})],
    )
    def test_falsy_optional_section_exits_2(self, tmp_path, capsys, key, value):
        # only a missing key or null means absent; these used to run without the section
        cfg = write_config(tmp_path, small_scenario(**{key: value}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert key in err
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["sample", "time_grid", "noise"])
    def test_null_section_same_bytes_as_missing(self, tmp_path, key):
        outputs = {}
        for form in ("missing", "null"):
            doc = small_scenario()
            doc.pop(key, None)
            if form == "null":
                doc[key] = None
            cfg = write_config(tmp_path, doc, name=f"{form}.json")
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / form)]) == 0
            outputs[form] = {p.name: p.read_bytes() for p in (tmp_path / form).iterdir()}
        assert outputs["null"] == outputs["missing"]

    def test_empty_sample_object_is_an_empty_absorber(self, tmp_path):
        cfg = write_config(tmp_path, small_scenario(sample={}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "transmitted.csv").read_bytes() == (out / "spectrum.csv").read_bytes()

    @pytest.mark.parametrize(
        "text",
        # nested past the parser's depth used to end in a RecursionError traceback, exit 1
        # and an integer past the interpreter's 4,300-digit limit named neither file nor JSON
        ["{not json", DEEP_ARRAY, '{"version": 1, "pump": ' + DEEP_ARRAY + "}", HUGE_COUNT],
        ids=["broken", "deep-top-level", "deep-under-pump", "huge-integer"],
    )
    def test_invalid_json_exits_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "broken.json"
        cfg.write_text(text)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config is not valid JSON: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("field", ["time_grid", "pump.grid"])
    @pytest.mark.parametrize("count", [10**400, -(10**400)], ids=["positive", "negative"])
    def test_count_past_the_float_range_exits_2(self, tmp_path, field, count):
        # used to end in a TypeError traceback from np.isfinite, exit 1
        doc = small_scenario()
        _holder(doc, field)["count"] = count
        cfg = write_config(tmp_path, doc)
        proc = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: bad {field}: grid count must be an integer in [2, 2**63)")
        assert proc.stderr.count("\n") == 1 and len(proc.stderr.encode()) <= 300
        assert not (tmp_path / "o").exists()

    def test_unknown_key_exits_2(self, tmp_path):
        doc = small_scenario()
        doc["pump"]["surprise"] = 1
        cfg = write_config(tmp_path, doc)
        proc = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "surprise" in proc.stderr

    def test_wrong_version_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, small_scenario(version=2))
        proc = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2

    def test_nyquist_violation_exits_3(self, tmp_path):
        doc = small_scenario(
            time_grid={"start_ps": -0.512, "step_ps": 1e-3, "count": 1024}
        )
        cfg = write_config(tmp_path, doc)
        proc = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert proc.returncode == 3

    @pytest.mark.parametrize("start, code", [(-1.0, 0), (-1000.0, 3)])
    def test_pump_band_ending_at_zero_is_checked_by_its_largest_frequency(
        self, tmp_path, capsys, start, code
    ):
        # a pump grid ending at 0 THz used to divide by zero in the Nyquist check
        pump = {
            "kind": "comb",
            "grid": {"start_thz": start, "step_thz": -start / 100, "count": 101},
            "lines": [{"center_thz": start / 2, "fwhm_thz": -start / 10, "weight": 1.0}],
        }
        cfg = write_config(tmp_path, small_scenario(pump=pump, time_grid=dict(TINY_TIME_GRID)))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        assert (err == "") if code == 0 else err.startswith("error: time step 0.0005 ps aliases")

    def test_missing_scenario_source_exits_2(self, tmp_path):
        proc = run_cli("simulate", "--out", str(tmp_path / "o"))
        assert proc.returncode == 2

    def test_non_positive_chunk_size_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, small_scenario())  # no noise section
        for value in ("0", "-5"):
            proc = run_cli(
                "simulate", "--config", str(cfg), "--out", str(tmp_path / "o"),
                "--chunk-size", value,
            )
            assert proc.returncode == 2
            assert proc.stderr.startswith("error: argument --chunk-size")
            assert proc.stderr.count("\n") == 1
            assert not (tmp_path / "o").exists()

    def test_sample_as_list_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, small_scenario(sample=["path"]))
        proc = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "sample must be a JSON object" in proc.stderr

    @pytest.mark.parametrize(
        "where, value",
        [("pump", [1]), ("pump.grid", [1]), ("pump.lines[]", 1)],
    )
    def test_non_object_pump_parts_exit_2(self, tmp_path, capsys, where, value):
        doc = small_scenario()
        if where == "pump":
            doc["pump"] = value
        elif where == "pump.grid":
            doc["pump"]["grid"] = value
        else:
            doc["pump"] = {"kind": "comb", "grid": doc["pump"]["grid"], "lines": [value]}
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"{where} must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("time_grid.count", 1024.5),
            ("pump.grid.count", 751.5),
            ("noise.pairs_per_bin", 1000.7),
            ("noise.seed", 1.5),
        ],
    )
    def test_non_integral_integer_field_exits_2(self, tmp_path, capsys, field, bad):
        # int() used to truncate these silently
        section, key = field.rsplit(".", 1)
        for value in (bad, True):
            doc = small_scenario(noise={"pairs_per_bin": 1000, "seed": 1})
            holder = doc
            for part in section.split("."):
                holder = holder[part]
            holder[key] = value
            cfg = write_config(tmp_path, doc)
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
            assert f"{key} must be an integer, got {value!r}" in capsys.readouterr().err

    def test_integral_float_integer_field_accepted(self, tmp_path):
        doc = small_scenario(noise={"pairs_per_bin": 1000.0, "seed": 1})
        doc["time_grid"]["count"] = 4096.0
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_huge_pairs_per_bin_exits_2(self, tmp_path):
        doc = small_scenario(noise={"pairs_per_bin": 1e30, "seed": 1})
        cfg = write_config(tmp_path, doc)
        proc = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "pairs_per_bin" in proc.stderr

    @pytest.mark.parametrize(
        "bad",
        [
            '"740.25"', "true", "1e400", "-1e400", "NaN",
            # an integer past the float range: float() raises OverflowError
            pytest.param("1" + "0" * 400, id="10**400"),
        ],
    )
    @pytest.mark.parametrize(
        "group, field",
        [
            ("gaussian", "pump.center_thz"),
            ("gaussian", "pump.fwhm_thz"),
            ("gaussian", "pump.grid.start_thz"),
            ("gaussian", "pump.grid.step_thz"),
            ("comb", "pump.lines.0.center_thz"),
            ("comb", "pump.lines.0.fwhm_thz"),
            ("comb", "pump.lines.0.weight"),
            ("jsi", "pump.pump_center_thz"),
            ("jsi", "pump.pump_fwhm_thz"),
            ("jsi", "pump.phasematch_fwhm_thz"),
            ("jsi", "pump.sum_grid.step_thz"),
            ("gaussian", "time_grid.start_ps"),
            ("gaussian", "time_grid.step_ps"),
            ("noise", "noise.dark_rate"),
            ("noise", "noise.efficiency"),
        ],
    )
    def test_non_finite_or_non_number_float_field_exits_2(
        self, tmp_path, capsys, group, field, bad
    ):
        # float() used to accept strings, and JSON's 1e400 parses as inf
        doc = small_scenario()
        if group == "comb":
            doc["pump"] = {
                "kind": "comb",
                "grid": doc["pump"]["grid"],
                "lines": [{"center_thz": 740.25, "fwhm_thz": 0.1, "weight": 1.0}],
            }
        elif group == "jsi":
            side = {"start_thz": 369.5, "step_thz": 0.01, "count": 51}
            doc["pump"] = {
                "kind": "jsi",
                "pump_center_thz": 740.25,
                "pump_fwhm_thz": 0.5,
                "phasematch_fwhm_thz": 1.0,
                "signal_grid": side,
                "idler_grid": side,
                "sum_grid": {"start_thz": 739.0, "step_thz": 0.01, "count": 101},
            }
        elif group == "noise":
            doc["noise"] = {"pairs_per_bin": 10, "seed": 1, "dark_rate": 0.0, "efficiency": 0.9}
        *section, key = field.split(".")
        holder = doc
        for part in section:
            holder = holder[int(part)] if part.isdigit() else holder[part]
        holder[key] = "@BAD@"
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(doc).replace('"@BAD@"', bad))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{key} must be a finite number, got " in err
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("verb", ["simulate", "noise-study"])
    @pytest.mark.parametrize(
        "section, value, line",
        [
            ("noise", {"dark_rate": -1.0}, "bad noise config: dark_rate must be non-negative"),
            (
                "pump",
                {
                    "kind": "comb",
                    "grid": {"start_thz": 738.75, "step_thz": 0.004, "count": 751},
                    "lines": [{"center_thz": 740.25, "fwhm_thz": 0, "weight": 1.0}],
                },
                "bad pump section: line fwhm must be positive",
            ),
        ],
        ids=["negative-dark-rate", "zero-comb-fwhm"],
    )
    def test_bad_section_value_exits_2(self, tmp_path, capsys, verb, section, value, line):
        noise = {"pairs_per_bin": 10, "seed": 1, "dark_rate": 0.0, "efficiency": 0.9}
        doc = small_scenario(time_grid=dict(TINY_TIME_GRID), noise=noise)
        doc[section] = {**doc[section], **value} if section == "noise" else value
        cfg = write_config(tmp_path, doc)
        assert main([verb, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {line}") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("outputs", [5, ["x"], True, {"dir": "x"}])
    def test_non_string_outputs_exits_2(self, tmp_path, capsys, monkeypatch, outputs):
        # 5 used to end in a TypeError traceback from Path()
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, small_scenario(outputs=outputs))
        for verb in ("simulate", "noise-study"):
            assert main([verb, "--config", str(cfg)]) == 2
            err = capsys.readouterr().err
            assert err == f"error: outputs must be a directory path string, got {outputs!r}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]

    def test_scenario_outputs_field_used_without_out_flag(self, tmp_path):
        doc = small_scenario(outputs=str(tmp_path / "from_config"))
        cfg = write_config(tmp_path, doc)
        proc = run_cli("simulate", "--config", str(cfg))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "from_config" / "trace.csv").exists()

    def test_relative_outputs_resolve_against_the_config_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg").mkdir()
        write_config(tmp_path / "cfg", small_scenario(outputs="runs/a"))
        assert main(["simulate", "--config", "cfg/scenario.json"]) == 0
        assert (tmp_path / "cfg" / "runs" / "a" / "trace.csv").exists()
        assert not (tmp_path / "runs").exists()
        # --out keeps resolving against the working directory
        assert main(["simulate", "--config", "cfg/scenario.json", "--out", "o"]) == 0
        assert (tmp_path / "o" / "trace.csv").exists()

    def test_empty_outputs_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, small_scenario(outputs=""))
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "error: no output directory: pass --out or set scenario.outputs\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]

    def test_seed_flag_overrides_scenario_noise_seed(self, tmp_path):
        doc = small_scenario(
            noise={"pairs_per_bin": 400, "seed": 5, "dark_rate": 0.0, "efficiency": 1.0}
        )
        cfg = write_config(tmp_path, doc)
        out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
        assert run_cli("simulate", "--config", str(cfg), "--out", str(out_a)).returncode == 0
        assert (
            run_cli(
                "simulate", "--config", str(cfg), "--out", str(out_b), "--seed", "5"
            ).returncode
            == 0
        )
        assert (
            run_cli(
                "simulate", "--config", str(cfg), "--out", str(out_c), "--seed", "6"
            ).returncode
            == 0
        )
        assert (out_a / "counts.csv").read_bytes() == (out_b / "counts.csv").read_bytes()
        assert (out_a / "counts.csv").read_bytes() != (out_c / "counts.csv").read_bytes()

    def test_seed_flag_without_noise_section_exits_2(self, tmp_path, capsys):
        # the flag used to be ignored with exit 0: there is no noise to seed
        cfg = write_config(tmp_path, small_scenario())
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--seed", "5"]) == 2
        assert capsys.readouterr().err == "error: --seed needs a scenario with a noise section\n"
        assert not out.exists()


class TestSampleSection:
    LINE = {"center_thz": 740.0, "fwhm_thz": 0.1, "strength": 0.5}

    def config(self, tmp_path, sample, form):
        """A scenario holding ``sample`` inline, or through a ``path`` file.

        An infinite value is written as the JSON number ``1e400``.
        """
        if form == "path":
            (tmp_path / "sample.json").write_text(json.dumps(sample).replace("Infinity", "1e400"))
            sample = {"path": "sample.json"}
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(small_scenario(sample=sample)).replace("Infinity", "1e400"))
        return cfg

    def test_sample_file_loads_name_and_lines(self, tmp_path):
        cfg = self.config(tmp_path, {"name": "demo", "lines": [self.LINE]}, "path")
        sample = parse_scenario(json.loads(cfg.read_text()), tmp_path).sample
        assert sample.name == "demo"
        assert sample.lines[0].center == 740.0

    @pytest.mark.parametrize("form", ["inline", "path"])
    def test_unknown_keys_rejected(self, tmp_path, form):
        bad_line = {"center_thz": 740, "fwhm_thz": 0.1, "oops": 2}
        for sample, key in (
            ({"name": "x", "lines": [], "extra": 1}, "extra"),
            ({"lines": [bad_line]}, "oops"),
        ):
            cfg = self.config(tmp_path, sample, form)
            with pytest.raises(ScenarioError, match=f"unknown keys in sample.*{key}"):
                parse_scenario(json.loads(cfg.read_text()), tmp_path)

    @pytest.mark.parametrize("form", ["inline", "path"])
    @pytest.mark.parametrize(
        "sample, message",
        [
            ({"lines": [1]}, "sample.lines[] must be a JSON object"),
            ({"lines": [{"center_thz": 740.0, "strength": 0.5}]}, "sample.lines[] needs fwhm_thz"),
            ({"lines": 5}, "sample.lines must be a JSON array, got 5"),
            ({"lines": [{**LINE, "center_thz": "739.7"}]}, "center_thz must be a finite number"),
            ({"lines": [{**LINE, "center_thz": 1e400}]}, "center_thz must be a finite number"),
            ({"lines": [{**LINE, "strength": True}]}, "strength must be a finite number"),
            ({"lines": [{**LINE, "fwhm_thz": 0}]}, "bad sample: line fwhm must be positive"),
            # two full-strength lines far wider than the pump absorb all of it
            (
                {"lines": [{"center_thz": 740.25, "fwhm_thz": 1000.0, "strength": 1.0}] * 2},
                "cannot normalize a zero spectrum",
            ),
            ({"name": 5, "lines": [LINE]}, "sample name must be a string, got 5"),
        ],
    )
    def test_bad_sample_exits_2_with_one_line(self, tmp_path, capsys, form, sample, message):
        cfg = self.config(tmp_path, sample, form)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "path, message",
        [
            (5, "sample path must be a string, got 5"),
            ("missing.json", "cannot read sample file: "),
            ("bad.json", "sample file is not valid JSON: "),
            ("list.json", "sample must be a JSON object"),
            # nested past the parser's depth: a RecursionError traceback, exit 1
            ("deep.json", "sample file is not valid JSON: "),
            ("deep_lines.json", "sample file is not valid JSON: "),
            ("huge.json", "sample file is not valid JSON: "),
        ],
    )
    def test_bad_sample_file_exits_2(self, tmp_path, capsys, path, message):
        (tmp_path / "huge.json").write_text('{"lines": [' + "1" * 5000 + "]}")
        (tmp_path / "bad.json").write_text("{not json")
        (tmp_path / "list.json").write_text("[]")
        (tmp_path / "deep.json").write_text(DEEP_ARRAY)
        (tmp_path / "deep_lines.json").write_text('{"lines": ' + DEEP_ARRAY + "}")
        cfg = write_config(tmp_path, small_scenario(sample={"path": path}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()


COMB_PUMP = {
    "kind": "comb",
    "grid": {"start_thz": 738.75, "step_thz": 0.004, "count": 751},
    "lines": [{"center_thz": 740.25, "fwhm_thz": 0.1, "weight": 1.0}],
}


def _shape_bases() -> dict:
    """A small valid scenario for each section whose shape is checked."""
    line = {"center_thz": 740.25, "fwhm_thz": 0.1, "strength": 0.5}
    bases = {
        "gaussian": small_scenario(),
        "comb": small_scenario(pump=COMB_PUMP),
        "jsi": small_scenario(pump=JSI_PUMP),
        "sample": small_scenario(sample={"lines": [line]}),
        "noise": small_scenario(noise={"pairs_per_bin": 10, "seed": 1}),
    }
    return json.loads(json.dumps(bases))  # the tests edit them in place


def _holder(doc, path):
    """The object at dotted ``path`` in ``doc``, digits indexing arrays."""
    for part in filter(None, path.split(".")):
        doc = doc[int(part)] if part.isdigit() else doc[part]
    return doc


def _required_keys() -> list:
    """(base, path of the object, key) for every required key of every section."""
    grid = ("start_thz", "step_thz", "count")
    jsi_grids = ("signal_grid", "idler_grid", "sum_grid")
    table = [
        ("gaussian", "", ("version", "pump")),
        ("gaussian", "pump", ("kind", "center_thz", "fwhm_thz", "grid")),
        ("gaussian", "pump.grid", grid),
        ("gaussian", "time_grid", ("start_ps", "step_ps", "count")),
        ("comb", "pump", ("kind", "grid", "lines")),
        ("comb", "pump.grid", grid),
        ("comb", "pump.lines.0", ("center_thz", "fwhm_thz", "weight")),
        ("jsi", "pump", ("kind", "pump_center_thz", "pump_fwhm_thz", "phasematch_fwhm_thz")),
        ("jsi", "pump", jsi_grids),
        *(("jsi", f"pump.{name}", grid) for name in jsi_grids),
        ("sample", "sample.lines.0", ("center_thz", "fwhm_thz", "strength")),
        ("noise", "noise", ("pairs_per_bin", "seed")),
    ]
    return [(base, path, key) for base, path, keys in table for key in keys]


class TestScenarioShape:
    """Every malformed object, array or field ends in one line naming its path."""

    @pytest.mark.parametrize("base, path, key", _required_keys())
    def test_missing_required_key_exits_2(self, tmp_path, capsys, base, path, key):
        doc = _shape_bases()[base]
        del _holder(doc, path)[key]
        cfg = write_config(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        context = path.replace(".0", "[]") or "scenario"
        assert capsys.readouterr().err == f"error: {context} needs {key}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["", {}, None, 5, "abc", True])
    @pytest.mark.parametrize("section", ["pump", "sample"])
    def test_lines_not_an_array_exits_2(self, tmp_path, capsys, section, value):
        # "" and {} used to run as a sample without lines
        doc = _shape_bases()["comb" if section == "pump" else "sample"]
        doc[section]["lines"] = value
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {section}.lines must be a JSON array, got {value!r}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("version, code", [(True, 2), ("1", 2), (1.5, 2), (1.0, 0)])
    def test_version_is_the_integer_1(self, tmp_path, capsys, version, code):
        cfg = write_config(tmp_path, small_scenario(version=version))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        assert err == ("" if code == 0 else
                       f"error: scenario.version must be an integer, got {version!r}\n")

    @pytest.mark.parametrize(
        "field, message",
        [
            ("pump.grid.count", "pump.grid.count must be an integer, got 1.5"),
            ("pump.lines.0.weight", "pump.lines[].weight must be a finite number, got '1.5'"),
            ("noise.seed", "noise.seed must be an integer, got 1.5"),
        ],
    )
    def test_field_error_names_its_path(self, tmp_path, capsys, field, message):
        doc = _shape_bases()["noise"]
        doc["pump"] = _shape_bases()["comb"]["pump"]
        path, key = field.rsplit(".", 1)
        _holder(doc, path)[key] = "1.5" if key == "weight" else 1.5
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestRecover:
    @pytest.fixture
    def trace_path(self, tmp_path):
        cfg = write_config(tmp_path, small_scenario())
        out = tmp_path / "sim"
        proc = run_cli("simulate", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        return out / "trace.csv"

    def test_recover_finds_pump_line(self, trace_path, tmp_path):
        out = tmp_path / "rec"
        proc = run_cli("recover", str(trace_path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        peaks = json.loads((out / "peaks.json").read_text())
        assert len(peaks) == 1
        assert list(peaks[0]) == ["center_thz", "height", "fwhm_thz", "kind"]
        assert peaks[0]["kind"] == "peak"
        folded = fold_one_sided(fourier_recover(read_trace_csv(trace_path)))
        assert peaks == [
            {"center_thz": f.center, "height": f.height, "fwhm_thz": f.fwhm, "kind": f.kind}
            for f in detect_features(folded)
        ]
        window = SMALL_TIME_GRID["step_ps"] * SMALL_TIME_GRID["count"]
        assert abs(peaks[0]["center_thz"] - 740.25) <= 1.0 / window
        assert (out / "recovered.csv").exists()
        assert (out / "folded.csv").exists()
        # a byte-order mark, as spreadsheet tools save a CSV, changes nothing
        bom = tmp_path / "bom.csv"
        bom.write_bytes("\ufeff".encode() + trace_path.read_bytes())
        assert main(["recover", str(bom), "--out", str(tmp_path / "rec-bom")]) == 0
        for name in ("recovered.csv", "folded.csv", "peaks.json"):
            assert (tmp_path / "rec-bom" / name).read_bytes() == (out / name).read_bytes()

    def test_explicit_min_prominence_used(self, trace_path, tmp_path):
        for value, expected in (("0.01", 1), ("1e6", 0)):
            out = tmp_path / f"rec-{value}"
            argv = ["recover", str(trace_path), "--out", str(out), "--min-prominence", value]
            assert main(argv) == 0
            assert len(json.loads((out / "peaks.json").read_text())) == expected

    @pytest.mark.parametrize("value", ["0", "-1", "inf", "nan", "lots"])
    def test_bad_min_prominence_exits_2(self, tmp_path, capsys, value):
        # 0 and inf used to report no peaks with exit 0, nan to exit 2 with library text
        out = tmp_path / "rec"
        with pytest.raises(SystemExit) as exc:
            main(["recover", str(tmp_path / "t.csv"), "--out", str(out), "--min-prominence", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: argument --min-prominence") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("step, code", [(1e-310, 2), (5e-324, 2), (1e300, 0)])
    def test_delay_step_needs_a_finite_resolution(self, tmp_path, capsys, step, code):
        # 1e-310 and 5e-324 used to warn four times before a non-finite grid error
        path = tmp_path / "fine.csv"
        path.write_text("t_ps,g\n" + "".join(f"{i * step!r},1\n" for i in range(64)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["recover", str(path), "--out", str(tmp_path / "rec")]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == (code != 0) and (code == 0 or "delay step" in err)
        assert (tmp_path / "rec").exists() == (code == 0)

    def test_delay_window_needs_a_positive_frequency_step(self, tmp_path, capsys):
        # n dt overflows to inf, so 1/(n dt) was 0: the verb warned and then
        # named a grid step of 0.0 that was never given
        path = tmp_path / "long.csv"
        path.write_text("t_ps,g\n0,1\n1e308,0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["recover", str(path), "--out", str(tmp_path / "rec")]) == 2
        line = "error: delay window 2 x 1e+308 ps is too long for a positive frequency step\n"
        assert capsys.readouterr().err == line
        assert not (tmp_path / "rec").exists()

    def test_zero_trace_gives_empty_report(self, tmp_path):
        path = tmp_path / "zero.csv"
        rows = ["t_ps,g"] + [f"{i * 0.001},0" for i in range(64)]
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "rec"
        proc = run_cli("recover", str(path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert json.loads((out / "peaks.json").read_text()) == []

    def test_malformed_csv_exits_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_ps,g\nnope,1\n")
        proc = run_cli("recover", str(path), "--out", str(tmp_path / "rec"))
        assert proc.returncode == 2

    @pytest.mark.parametrize("bend", ["line", "cell"])
    def test_hash_in_trace_exits_2_with_one_line(self, tmp_path, capsys, bend):
        # '#' used to start a comment: a comment line gave the clean
        # trace's recovered.csv, and a cell "1 # note" read as 1
        rows = [f"{i * 5e-4!r},{math.cos(2 * math.pi * 740.25 * i * 5e-4)!r}" for i in range(64)]
        if bend == "line":
            rows.insert(10, "# a comment")
        else:
            rows[10] = rows[10].split(",")[0] + ",1 # note"
        path = tmp_path / "hash.csv"
        path.write_text("t_ps,g\n" + "\n".join(rows) + "\n")
        assert main(["recover", str(path), "--out", str(tmp_path / "rec")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed CSV body in {path}: ") and err.count("\n") == 1
        assert not (tmp_path / "rec").exists()

    def test_three_column_trace_exits_2(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("t_ps,g\n0.0,0.1,7\n0.001,0.2,7\n0.002,0.3,7\n")
        proc = run_cli("recover", str(path), "--out", str(tmp_path / "rec"))
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1
        assert "expected 2 columns, found 3" in proc.stderr

    def test_header_only_csv_exits_2_with_one_line(self, tmp_path):
        # the empty body is reported once; numpy's own warning about it is not
        path = tmp_path / "empty.csv"
        path.write_text("t_ps,g\n")
        proc = run_cli("recover", str(path), "--out", str(tmp_path / "rec"))
        assert proc.returncode == 2
        assert proc.stderr == f"error: {path} contains no data rows\n"
        assert not (tmp_path / "rec").exists()

    def test_decimal_delay_column_takes_the_endpoint_step(self, tmp_path):
        # delays typed to four decimals, as a lab writes them: no float64 step
        # reproduces them, so the grid takes the endpoint step within 1e-9
        t = np.array([float(f"{-1.024 + j * 5e-4:.4f}") for j in range(4096)])
        g = np.exp(-((t / 0.3) ** 2)) * np.cos(2 * np.pi * 740.25 * t)
        path = tmp_path / "lab.csv"
        path.write_text("t_ps,g\n" + "".join(f"{x:.4f},{y:.17g}\n" for x, y in zip(t, g)))
        out = tmp_path / "rec"
        assert main(["recover", str(path), "--out", str(out)]) == 0
        grid = read_trace_csv(path).grid
        step = (t[-1] - t[0]) / (t.size - 1)
        assert grid.step == step and not np.array_equal(grid.values, t)
        assert np.all(np.abs(grid.values - t) <= 1e-9 * max(step, 1.0))
        peaks = json.loads((out / "peaks.json").read_text())
        assert abs(peaks[0]["center_thz"] - 740.25) <= 1.0 / grid.window

    def test_non_uniform_grid_exits_4(self, tmp_path):
        path = tmp_path / "jagged.csv"
        path.write_text("t_ps,g\n0.0,0.0\n0.001,0.1\n0.005,0.2\n")
        proc = run_cli("recover", str(path), "--out", str(tmp_path / "rec"))
        assert proc.returncode == 4


class TestVerbPeakMemory:
    """The verbs' tracemalloc peaks on the tpa3 preset, warm, pinned at the
    most measured in ten calls plus 8 KiB."""

    def test_simulate_tpa3(self, tmp_path):
        # 1,254,562 bytes, set by the synthesis; the writes peak near
        # 1.20 MB. A trace built before the writes, and so held with P
        # through them, takes 1.70 MB; a copy of P kept by Interferogram
        # 1.71 MB; the writer's block of fresh arrays at each step 2.31 MB
        args = ["simulate", "--preset", "tpa3", "--out"]
        assert main([*args, str(tmp_path / "warm")]) == 0
        peak = peak_above_inputs(lambda: main([*args, str(tmp_path / "sim")]))
        assert peak <= 1_254_562 + 8192

    def test_simulate_tpa3_at_2_18_delays(self, tmp_path):
        # 2,828,552 bytes at most, about 10.8 a delay: P (8 a delay) and the
        # writers' blocks, trace.csv's G made a block at a time from P. A
        # trace held beside P took 4.53 MB, about 17.3 bytes a delay
        count = 2**18
        doc = preset_scenario("tpa3")
        doc["time_grid"] = {"start_ps": -(count // 2) * 5e-4, "step_ps": 5e-4, "count": count}
        args = ["simulate", "--config", str(write_config(tmp_path, doc)), "--out"]
        assert main([*args, str(tmp_path / "warm")]) == 0
        peak = max(
            peak_above_inputs(lambda: main([*args, str(tmp_path / f"sim{i}")])) for i in range(3)
        )
        assert peak < 12 * count

    def test_simulate_noise_gauss_at_2_18_delays(self, tmp_path):
        # 9,242,776 bytes, 35.3 a delay, set by the writes: P, the two count
        # columns and G_hat, 8 a delay each, and a writer's block. The
        # sampler walks the bins in blocks of its own bound. Every bin's
        # uniforms and probabilities made before the walk took 11.3 MB, 43
        # bytes a delay, and the whole grid drawn as one block 33.1 MB, 126
        count = 2**18
        doc = preset_scenario("noise-gauss")
        doc["time_grid"] = {"start_ps": -(count // 2) * 5e-4, "step_ps": 5e-4, "count": count}
        args = ["simulate", "--config", str(write_config(tmp_path, doc)), "--out"]
        assert main([*args, str(tmp_path / "warm")]) == 0
        peak = max(
            peak_above_inputs(lambda: main([*args, str(tmp_path / f"sim{i}")])) for i in range(3)
        )
        assert peak < 38 * count

    def test_recover_tpa3_trace(self, tmp_path):
        # 1,765,337 bytes, set by the recovered.csv write: the spectrum
        # (1.05 MB), its fold and the writer's block, 75 KB above the read
        # (1.69 MB) and the transform (1.68 MB). The fill's fresh int64 and
        # float64 arrays took it to 1,927,048. The transform holds one
        # complex array; with ifft's complex cast of the trace and the
        # fftshift copy beside it, the verb took 2.72 MB, and with the
        # writer's block of fresh arrays at every step 3.05 MB
        assert main(["simulate", "--preset", "tpa3", "--out", str(tmp_path / "sim")]) == 0
        args = ["recover", str(tmp_path / "sim" / "trace.csv"), "--out"]
        assert main([*args, str(tmp_path / "warm")]) == 0
        peak = peak_above_inputs(lambda: main([*args, str(tmp_path / "rec")]))
        assert peak <= 1_765_337 + 8192


class TestNoiseStudy:
    def scenario(self, tmp_path):
        doc = {
            "version": 1,
            "pump": {
                "kind": "gaussian",
                "center_thz": 740.25,
                "fwhm_thz": 1.0,
                "grid": {"start_thz": 738.25, "step_thz": 0.004, "count": 1001},
            },
            "time_grid": {"start_ps": -0.512, "step_ps": 5e-4, "count": 1024},
            "noise": {
                "pairs_per_bin": 500,
                "seed": 99,
                "dark_rate": 0.0,
                "efficiency": 1.0,
            },
        }
        return write_config(tmp_path, doc)

    def test_single_trial_count_reports_no_exponent(self, tmp_path):
        cfg = self.scenario(tmp_path)
        out = tmp_path / "study"
        proc = run_cli(
            "noise-study",
            "--config",
            str(cfg),
            "--out",
            str(out),
            "--trials",
            "1000",
            "--repeats",
            "8",
        )
        assert proc.returncode == 0, proc.stderr
        assert "fitted_exponent=not-available" in proc.stdout
        lines = (out / "scaling.csv").read_text().splitlines()
        assert lines[0] == "n_trials,std_height,std_center"
        assert len(lines) == 2

    def test_non_positive_chunk_size_exits_2(self, tmp_path):
        cfg = self.scenario(tmp_path)
        for value in ("0", "-5"):
            proc = run_cli(
                "noise-study", "--config", str(cfg), "--out", str(tmp_path / "o"),
                "--trials", "300", "--repeats", "2", "--chunk-size", value,
            )
            assert proc.returncode == 2
            assert proc.stderr.startswith("error: argument --chunk-size")
            assert proc.stderr.count("\n") == 1
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("trials", ["", "abc", "1000,abc", "1000,", "0", "1000,-5", "1e3"])
    def test_bad_trials_list_exits_2(self, tmp_path, capsys, trials):
        # "abc" used to leak int()'s own message
        out = tmp_path / "study"
        with pytest.raises(SystemExit) as exc:
            main(["noise-study", "--config", str(self.scenario(tmp_path)), "--out", str(out),
                  "--trials", trials])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: argument --trials: expected a positive finite int")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("count", [2**40, 2**70])
    def test_oversized_trial_count_exits_2(self, tmp_path, capsys, count):
        # a count past int64 used to be named by the study's int64 column
        out = tmp_path / "study"
        args = ["noise-study", "--config", str(self.scenario(tmp_path)), "--out", str(out)]
        assert main([*args, "--trials", f"100,{count}"]) == 2
        assert capsys.readouterr().err == "error: pairs_per_bin must lie in [1, 2147483648]\n"
        assert not out.exists()

    def test_repeated_trial_count_exits_2(self, tmp_path):
        cfg = self.scenario(tmp_path)
        out = tmp_path / "study"
        proc = run_cli(
            "noise-study", "--config", str(cfg), "--out", str(out),
            "--trials", "1000,1000", "--repeats", "3",
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: trial_counts must be distinct\n"
        assert not out.exists()

    def test_fixed_seed_reruns_byte_identical(self, tmp_path):
        cfg = self.scenario(tmp_path)
        args = ("--trials", "300,1200", "--repeats", "8")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("noise-study", "--config", str(cfg), "--out", str(out_a), *args).returncode == 0
        assert run_cli("noise-study", "--config", str(cfg), "--out", str(out_b), *args).returncode == 0
        assert (out_a / "scaling.csv").read_bytes() == (out_b / "scaling.csv").read_bytes()

    def test_seed_flag_seeds_the_default_noise_of_a_noise_free_scenario(self, tmp_path):
        doc = json.loads(self.scenario(tmp_path).read_text())
        del doc["noise"]
        cfg = write_config(tmp_path, doc, name="noise_free.json")
        scaling = {}
        for run, seed in (("a", "3"), ("b", "3"), ("c", "4")):
            argv = ["noise-study", "--config", str(cfg), "--out", str(tmp_path / run),
                    "--trials", "300,1200", "--repeats", "3", "--seed", seed]
            assert main(argv) == 0
            scaling[run] = (tmp_path / run / "scaling.csv").read_bytes()
        assert scaling["a"] == scaling["b"]
        assert scaling["a"] != scaling["c"]

    def test_study_runs_on_transmitted_spectrum_when_sample_present(self, tmp_path):
        doc = json.loads(self.scenario(tmp_path).read_text())
        doc["sample"] = {
            "name": "filter",
            "lines": [{"center_thz": 740.25, "fwhm_thz": 0.2, "strength": 0.6}],
        }
        cfg = write_config(tmp_path, doc, name="with_sample.json")
        out = tmp_path / "study"
        argv = ["noise-study", "--config", str(cfg), "--out", str(out),
                "--trials", "300,1000", "--repeats", "3"]
        assert main(argv) == 0
        scenario = parse_scenario(doc, tmp_path)
        transmitted = transmitted_spectrum(scenario.spectrum, scenario.sample).spectrum
        expected, incident = (
            noise.error_scaling_study(spectrum, [300, 1000], 3, scenario.noise, scenario.time_grid)
            for spectrum in (transmitted.renormalized(), scenario.spectrum)
        )
        n_trials, std_height, std_center = np.loadtxt(
            out / "scaling.csv", delimiter=",", skiprows=1, unpack=True
        )
        assert n_trials.tolist() == [300, 1000]
        assert np.array_equal(std_height, expected.std_height)
        assert np.array_equal(std_center, expected.std_center)
        assert not np.array_equal(std_height, incident.std_height)

    def test_preset_study_is_pinned_by_value(self, tmp_path):
        # recorded before the sampler's bracket step: any count the sampler
        # draws differently moves a spread by far more than 1e-12, while a
        # numpy whose FFT differs in the last bits stays inside it
        out = tmp_path / "study"
        argv = ["noise-study", "--preset", "noise-gauss", "--trials", "1000,10000,100000",
                "--repeats", "4", "--out", str(out)]
        assert main(argv) == 0
        lines = (out / "scaling.csv").read_text().splitlines()
        assert lines[0] == "n_trials,std_height,std_center"
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        assert rows == [
            pytest.approx(row, rel=1e-12, abs=0)
            for row in (
                [1000, 0.0010647175438594225, 0.00079898100408775079],
                [10000, 0.00038526961582760607, 0.00015849113880814233],
                [100000, 7.6246116982360296e-05, 6.4661220720060999e-05],
            )
        ]

    @fork_only
    def test_preset_study_bytes_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch):
        scaling = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(noise, "_workers", lambda: workers)
            out = tmp_path / f"w{workers}"
            argv = ["noise-study", "--preset", "noise-gauss", "--repeats", "4", "--out", str(out)]
            assert main(argv) == 0
            scaling.append((out / "scaling.csv").read_bytes())
        assert scaling[1] == scaling[0] and scaling[2] == scaling[0]

    def test_preset_study_bytes_do_not_depend_on_the_partition(self, tmp_path, monkeypatch):
        # bins split by --chunk-size, and CDF tables split into blocks of a
        # few dozen cells (one or two bins a block)
        argv = ["noise-study", "--preset", "noise-gauss", "--repeats", "4"]
        runs = {"whole": [], "chunk 1": ["--chunk-size", "1"], "chunk 97": ["--chunk-size", "97"]}
        scaling = {}
        for name, extra in runs.items():
            assert main(argv + extra + ["--out", str(tmp_path / name)]) == 0
            scaling[name] = (tmp_path / name / "scaling.csv").read_bytes()
        monkeypatch.setattr(noise, "_TABLE_CELLS", 40)
        assert main(argv + ["--out", str(tmp_path / "cells")]) == 0
        scaling["cells 40"] = (tmp_path / "cells" / "scaling.csv").read_bytes()
        # and, with those tables, the sampler's walk in blocks of 99 bins, not 4096
        monkeypatch.setattr(noise, "_DRAW_BINS", 99)
        assert main(argv + ["--out", str(tmp_path / "walk")]) == 0
        scaling["walk 99"] = (tmp_path / "walk" / "scaling.csv").read_bytes()
        assert all(run == scaling["whole"] for run in scaling.values())

    @fork_only
    # the draw round calls _sample_streams, the peak round _estimated
    @pytest.mark.parametrize("step", ["_sample_streams", "_estimated"], ids=["draw", "peaks"])
    @pytest.mark.parametrize(
        "fail, line",
        [
            (ValueError("a bad draw"), "error: a bad draw\n"),
            # a worker that dies used to end in a BrokenProcessPool traceback with exit 1
            (None, "error: a noise-study worker process died: "),
        ],
        ids=["raises", "dies"],
    )
    def test_worker_failure_exits_2_with_one_line(
        self, tmp_path, capsys, monkeypatch, step, fail, line
    ):
        def failed(*args, **kwargs):
            if fail is None:
                os._exit(1)
            raise fail

        made = []

        class Noted(mmap.mmap):
            def __new__(cls, *args):
                made.append(super().__new__(cls, *args))
                return made[-1]

        monkeypatch.setattr(mmap, "mmap", Noted)
        monkeypatch.setattr(noise, "_workers", lambda: 2)
        monkeypatch.setattr(noise, step, failed)
        out = tmp_path / "study"
        argv = ["noise-study", "--preset", "noise-gauss", "--repeats", "2", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(line) and err.count("\n") == 1
        assert not out.exists()
        # the shared counts' mapping is closed on the way out
        assert len(made) == 1 and made[0].closed


class TestExitCodes:
    """Errors that reach ``main`` end in their documented exit code and one line."""

    @pytest.mark.parametrize(
        "pump, message",
        [
            (  # the sum grid starts above the pump center: 77% of the mass is lost
                dict(JSI_PUMP, sum_grid={"start_thz": 740.4, "step_thz": 0.01, "count": 86}),
                "output grid misses 7.",
            ),
            (
                {
                    "kind": "gaussian",
                    "center_thz": 740.25,
                    "fwhm_thz": 0.01,
                    "grid": {"start_thz": 800.0, "step_thz": 0.004, "count": 501},
                },
                "grid carries no mass of the requested Gaussian",
            ),
            (  # bin indices near 7e302 used to warn in the cast to int64
                dict(JSI_PUMP, sum_grid={"start_thz": 0.0, "step_thz": 1e-300, "count": 201}),
                "output grid misses 1.000e+00",
            ),
        ],
        ids=["jsi-sum-grid", "gaussian-grid", "jsi-fine-sum-grid"],
    )
    def test_coverage_error_exits_2(self, tmp_path, capsys, pump, message):
        cfg = write_config(tmp_path, small_scenario(pump=pump))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "pump",
        [
            {  # a subnormal grid mass: the unit-mass density is about 2e323
                "kind": "gaussian",
                "grid": {"start_thz": 0.0, "step_thz": 5e-324, "count": 1501},
                "center_thz": 0.0,
                "fwhm_thz": 1e-320,
            },
            {  # every weight is finite, but their sum, 1/step, is not
                "kind": "gaussian",
                "grid": {"start_thz": 0.0, "step_thz": 1e-309, "count": 1501},
                "center_thz": 0.0,
                "fwhm_thz": 1.0,
            },
            {
                "kind": "comb",
                "grid": {"start_thz": 0.0, "step_thz": 5e-324, "count": 1501},
                "lines": [{"center_thz": 0.0, "fwhm_thz": 1e-320, "weight": 1.0}],
            },
        ],
        ids=["gaussian-subnormal-mass", "gaussian-overflowing-sum", "comb-subnormal-mass"],
    )
    def test_unit_mass_overflow_exits_2(self, tmp_path, capsys, pump):
        doc = dict(preset_scenario("tpa3"), pump=pump)
        cfg = write_config(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad pump section: a unit-mass density overflows")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["noise-study", "--preset", "noise-gauss", "--repeats", "1"],
             "repeats must be at least 2"),
            (["noise-study", "--preset", "noise-gauss", "--trials", "300,300"],
             "trial_counts must be distinct"),
            (["noise-study", "--preset", "noise-gauss", "--seed", "-5"],
             "seed must fit in 64 bits"),
            (["simulate", "--preset", "tpa3", "--seed", "-5"],
             "--seed needs a scenario with a noise section"),
            (["simulate", "--preset", "tpa3", "--seed", "5"],
             "--seed needs a scenario with a noise section"),
            (["simulate", "--preset", "nope"], "unknown preset 'nope'; choose from "),
            (["recover", "fine.csv"], "delay step 1e-310 ps is too fine"),
        ],
    )
    def test_failed_call_leaves_no_output(self, tmp_path, capsys, monkeypatch, argv, line):
        # noise-study and recover here used to leave an empty directory; simulate ignored --seed
        monkeypatch.chdir(tmp_path)
        Path("fine.csv").write_text("t_ps,g\n" + "".join(f"{i * 1e-310!r},1\n" for i in range(64)))
        assert main([*argv, "--out", "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {line}") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["noise-study", "--preset", "noise-gauss", "--repeats", "abc", "--out", "o"],
             "argument --repeats: invalid int value: 'abc'"),
            (["simulate", "--preset", "tpa3", "--bogus", "--out", "o"],
             "unrecognized arguments: --bogus"),
            (["recover", "t.csv"], "the following arguments are required: --out"),
        ],
        ids=["repeats", "unknown-flag", "recover-without-out"],
    )
    def test_malformed_flag_is_one_line(self, tmp_path, capsys, monkeypatch, argv, line):
        # argparse used to print its usage block before a `noonspec <verb>: error:` line
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"error: {line}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "field, value",
        [
            ("", {f"k{i}": 0 for i in range(100000)}),  # unknown keys
            ("outputs", list(range(100000))),
            ("pump.kind", "x" * 10**6),
            ("pump.grid.count", [0.5] * 100000),
            ("pump.center_thz", "7" * 10**6),
            ("version", 10**4000),
            ("sample", {"lines": "x" * 10**6}),
            ("sample", {"name": [0] * 100000}),
            ("sample", {"path": [0] * 100000}),
        ],
        ids=["unknown-keys", "outputs", "kind", "integer", "real", "version", "lines", "name",
             "path"],
    )
    def test_huge_scenario_value_is_echoed_in_one_short_line(self, tmp_path, capsys, field, value):
        # each used to be echoed whole: "outputs" made a 688,943-byte line
        doc = small_scenario()
        if field:
            *path, key = field.split(".")
            _holder(doc, ".".join(path))[key] = value
        else:
            doc.update(value)
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) <= 300
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["recover", "trace.csv", "--out", "o"],
            ["simulate", "--preset", "x" * 100000, "--out", "o"],
            ["simulate", "--preset", "tpa3", "--chunk-size", "x" * 100000, "--out", "o"],
            # argparse's own messages echo these whole: a 100,049-byte line for --repeats
            ["noise-study", "--preset", "noise-gauss", "--repeats", "1" * 100000, "--out", "o"],
            ["noise-study", "--preset", "noise-gauss", "--seed", "1" * 100000, "--out", "o"],
            ["recover", "trace.csv", "--window", "x" * 100000, "--out", "o"],
            ["recover", "x" * 5000, "--out", "o"],  # the OSError names the path
            # a newline in a value used to split the message over two lines
            ["presets", "list", "a\nb"],
            ["simulate", "--preset", "tpa3", "--out", "f\nx"],
            ["recover", "t\nx.csv", "--out", "o"],
            ["simulate", "--preset", "\u00e9" * 1000, "--out", "o"],  # cut between characters
        ],
        ids=["csv-header", "preset", "flag", "repeats", "seed", "window", "missing-path",
             "presets-newline", "out-newline", "csv-name-newline", "preset-utf8"],
    )
    def test_huge_file_or_flag_value_is_echoed_in_one_short_line(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        monkeypatch.chdir(tmp_path)
        Path("trace.csv").write_text("t_" + "x" * 10**6 + "\n0,1\n")
        Path("t\nx.csv").write_text("t_ps,g\n0,x\n")
        Path("f\nx").write_text("keep")
        try:
            rc = main(argv)
        except SystemExit as exc:  # a malformed flag ends in argparse
            rc = exc.code
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) <= 300
        assert "\ufffd" not in err  # no character was cut in two
        assert not (tmp_path / "o").exists() and Path("f\nx").read_text() == "keep"

    @pytest.mark.parametrize("field", ["pump.grid.count", "sample.lines.0.center_thz"])
    def test_value_nested_to_the_parsers_depth_is_echoed_in_one_line(
        self, tmp_path, capsys, field
    ):
        # the echo is the value's repr, which recurses as deep as the value does
        doc = small_scenario(sample={"lines": [{"center_thz": 740, "fwhm_thz": 1, "strength": 0.5}]})
        *path, key = field.split(".")
        _holder(doc, ".".join(path))[key] = "@"

        def nested(depth):
            return json.dumps(doc).replace('"@"', "[" * depth + "]" * depth)

        deepest, refused = 1, 10**6  # the deepest document json.loads takes here
        while refused - deepest > 1:
            middle = (deepest + refused) // 2
            try:
                json.loads(nested(middle))
                deepest = middle
            except RecursionError:
                refused = middle
        cfg = tmp_path / "scenario.json"
        for depth in range(deepest - 20, deepest + 1):
            cfg.write_text(nested(depth))
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) <= 300
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("verb", ["simulate", "noise-study"])
    @pytest.mark.parametrize(
        "source", [[], ["--config", "scenario.json", "--preset", "tpa3"]], ids=["neither", "both"]
    )
    def test_config_or_preset_is_given_once(self, tmp_path, capsys, monkeypatch, verb, source):
        def fail(*args, **kwargs):
            raise AssertionError("a scenario was loaded")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "load_scenario", fail)
        write_config(tmp_path, small_scenario())
        with pytest.raises(SystemExit) as exc:
            main([verb, *source, "--out", "o"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--config" in err and "--preset" in err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["scenario.json"]

    def test_out_path_that_is_a_file_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("computed before the output path was checked")

        monkeypatch.setattr(cli, "simulate_interferogram", fail)
        out = tmp_path / "o"
        out.write_text("keep")
        cfg = write_config(tmp_path, small_scenario())
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: output path {out} is not a directory\n"
        assert out.read_text() == "keep"

    @pytest.mark.parametrize(
        "exc, code, line",
        [
            # a pump grid of 1e13 points used to end in a numpy traceback with exit 1
            (MemoryError("Unable to allocate 72.8 TiB"), 2, "Unable to allocate 72.8 TiB"),
            (MemoryError(), 2, "out of memory"),
            (AsymmetryError("broken"), 2, "broken"),
            (WindowTooShortError("short"), 2, "short"),
            (AliasingError("aliased"), 3, "aliased"),
            (NonUniformGridError("uneven"), 4, "uneven"),
            (ValueError("a\nb"), 2, "a\\nb"),  # escaped, so the message stays one line
            (ChildProcessError("a worker died"), 2, "a worker died"),
        ],
    )
    def test_error_in_a_stage_exits_with_its_code(
        self, tmp_path, capsys, monkeypatch, exc, code, line
    ):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "simulate_interferogram", fail)
        cfg = write_config(tmp_path, small_scenario())
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
        assert capsys.readouterr().err == f"error: {line}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "path, value, code, message",
        [
            # exp(-inf) = 0 is right, but the overflow on the way printed a warning
            ("sample.lines.0.fwhm_thz", 1e-300, 0, ""),
            ("pump.fwhm_thz", 1e-300, 0, ""),
            # efficiency**2 underflowed to 0, and the trace estimate divided 0 by it
            ("noise.efficiency", 1e-300, 2, "efficiency must lie in (0, 1]"),
            # every point of the grid rounds to 737.25
            ("pump.grid.step_thz", 2.2e-309, 2, "below the float spacing of its points"),
            # the last point overflowed: an overflow warning, then a Nyquist error at inf THz
            ("pump.grid.step_thz", 1e308, 2, "bad pump.grid: grid points must be finite"),
        ],
    )
    def test_edge_value_ends_without_a_warning(self, tmp_path, capsys, path, value, code, message):
        doc = preset_scenario("tpa3")
        doc["time_grid"] = dict(TINY_TIME_GRID)
        doc["noise"] = {"pairs_per_bin": 1000, "seed": 1}
        *section, key = path.split(".")
        holder = doc
        for part in section:
            holder = holder[int(part)] if part.isdigit() else holder[part]
        holder[key] = value
        cfg = write_config(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == (code != 0)


def _fuzz_bases() -> list:
    """tpa3, noise-gauss, comb5 and a jsi scenario, each on a 256-point delay grid."""
    docs = [preset_scenario(name) for name in ("tpa3", "noise-gauss", "comb5")]
    docs.append({"version": 1, "pump": JSI_PUMP})
    return [dict(doc, time_grid=TINY_TIME_GRID) for doc in docs]


def _slots(doc) -> list:
    """(container, key) of every member of every object and list in ``doc``."""
    members = doc.items() if isinstance(doc, dict) else enumerate(doc)
    slots = []
    for key, value in members:
        slots.append((doc, key))
        if isinstance(value, (dict, list)):
            slots.extend(_slots(value))
    return slots


# Numbers stay within +-1e3 (plus the edge values), so a fuzzed grid has
# at most 1e3 points and a fuzzed jsi at most 1e6 cells.
JSON_NUMBERS = st.one_of(
    st.integers(-1000, 1000),
    st.floats(-1e3, 1e3),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e-300]),
)
JSON_SCALARS = st.one_of(st.none(), st.booleans(), JSON_NUMBERS, st.text(max_size=6))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
SCHEMA_KEYS = sorted(
    {key for doc in _fuzz_bases() for container, key in _slots(doc) if isinstance(key, str)}
    | {"sample", "noise", "time_grid", "outputs", "path", "name", "lines"}
)


@st.composite
def fuzzed_scenarios(draw):
    """A valid scenario with one member replaced by, or joined by, arbitrary JSON."""
    doc = json.loads(json.dumps(draw(st.sampled_from(_fuzz_bases()))))
    container, key = draw(st.sampled_from(_slots(doc)))
    value = draw(JSON_NUMBERS | JSON_VALUES)  # numbers most often reach the physics
    if draw(st.booleans()):
        container[key] = value
    elif isinstance(container, list):
        container.insert(key, value)
    else:
        container[draw(st.sampled_from(SCHEMA_KEYS) | st.text(max_size=6))] = value
    return doc


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(fuzzed_scenarios())
def test_fuzzed_scenario_ends_in_a_documented_exit(tmp_path, capsys, doc):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(doc))  # nan and inf become NaN and Infinity, as JSON readers accept
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc in (0, 2, 3, 4)
    assert err.count("\n") == (rc != 0) and (err.startswith("error: ") or rc == 0)
    assert len(err.encode()) <= 300
    assert (tmp_path / "o").exists() == (rc == 0)  # a failed run writes nothing
    shutil.rmtree(tmp_path / "o", ignore_errors=True)  # tmp_path is shared by every example



# what a cell may become: extreme, non-finite, hex, quoted, empty, padded or commented
BENT_CELLS = st.sampled_from(
    ["1e308", "-1e308", "nan", "inf", "0x1p-3", "0x10", '"0.5"', "'0'", "", " 0.5 ", "1e-320",
     "1 # note"]
)


@st.composite
def near_valid_traces(draw) -> bytes:
    """The bytes of a valid 64-row trace CSV, LF or CRLF, with one part bent."""
    part = draw(st.sampled_from(["none", "header", "encoding", "rows", "axis", "cells"]))

    def pick(name, usual, *bent):
        return draw(st.sampled_from(bent)) if part == name else usual

    count = pick("rows", 64, 0, 1, 2, 3)
    start, step = pick(
        "axis", (-0.016, 5e-4), (1e308, 5e-4), (0.0, 1e-320), (0.0, 1e308), (0.0, -5e-4), (0.0, 0.0)
    )
    with np.errstate(all="ignore"):  # an overflowing axis is one of the bends
        t = start + step * np.arange(count)
        g = np.cos(2 * np.pi * 740.25 * t)
    pairs = list(zip(t.tolist(), g.tolist()))
    rows = [[format(a, ".17g"), format(b, ".17g")] for a, b in pairs]
    bent_rows = st.sets(st.integers(0, count - 1), min_size=1, max_size=3)
    for i in draw(bent_rows) if part == "cells" else ():
        bend = draw(st.sampled_from(["cell", "hex", "extra", "drop", "comment"]))
        if bend == "cell":
            rows[i][draw(st.integers(0, 1))] = draw(BENT_CELLS)
        elif bend == "hex":
            rows[i] = [x.hex() for x in pairs[i]]
        elif bend == "extra":
            rows[i].append("0")
        elif bend == "comment":  # a line of its own before row i
            rows[i][0] = "# a comment\n" + rows[i][0]
        else:
            del rows[i][-1]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    header = pick("header", "t_ps,g", "t_ps,g,x", "t_ps;g", "T_PS,G", "", "t_ps")
    text = newline.join([header, *map(",".join, rows)]) + draw(st.sampled_from([newline, ""]))
    return text.encode(pick("encoding", "utf-8", "utf-8-sig", "utf-16"))  # -sig: a BOM


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(near_valid_traces())
def test_fuzzed_trace_ends_in_a_documented_exit(tmp_path, capsys, data):
    trace, out = tmp_path / "trace.csv", tmp_path / "o"
    trace.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["recover", str(trace), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc in (0, 2, 3, 4)
    assert err.count("\n") == (rc != 0) and (err.startswith("error: ") or rc == 0)
    assert len(err.encode()) <= 300
    assert out.exists() == (rc == 0)  # a failed run writes nothing
    shutil.rmtree(out, ignore_errors=True)  # tmp_path is shared by every example


@st.composite
def valid_scenarios(draw) -> dict:
    """A gaussian or comb pump in the 1-40 THz band on 256 to 2048 delays
    within Nyquist, with or without a sample of total strength at most 0.95
    and with or without noise."""
    start = draw(st.floats(1.0, 30.0))
    count = draw(st.integers(64, 400))
    step = draw(st.floats(1e-3, (40.0 - start) / (count - 1)))
    stop = start + (count - 1) * step
    width = stop - start

    def line():  # a center inside the pump grid and a width of a few bins or more
        return draw(st.floats(start, stop)), draw(st.floats(2 * step, max(2 * step, width / 4)))

    grid = {"start_thz": start, "step_thz": step, "count": count}
    if draw(st.booleans()):
        center, fwhm = line()
        pump = {"kind": "gaussian", "center_thz": center, "fwhm_thz": fwhm, "grid": grid}
    else:
        lines = [
            dict(zip(("center_thz", "fwhm_thz"), line()), weight=draw(st.floats(0.1, 1.0)))
            for _ in range(draw(st.integers(1, 4)))
        ]
        pump = {"kind": "comb", "grid": grid, "lines": lines}
    t_step = draw(st.floats(0.05, 0.99)) / (2 * stop)  # below 1/(2 pump_max_thz)
    t_count = draw(st.integers(256, 2048))
    t_start = draw(st.floats(-t_count * t_step, 0.0))
    doc = {
        "version": 1,
        "pump": pump,
        "time_grid": {"start_ps": t_start, "step_ps": t_step, "count": t_count},
    }
    if draw(st.booleans()):
        n = draw(st.integers(1, 3))
        strengths = st.floats(0.0, 0.95 / n)  # so they sum to at most 0.95
        doc["sample"] = {
            "lines": [
                dict(zip(("center_thz", "fwhm_thz"), line()), strength=draw(strengths))
                for _ in range(n)
            ]
        }
    if draw(st.booleans()):
        doc["noise"] = {
            "pairs_per_bin": draw(st.integers(1, 10**6)),
            "seed": draw(st.integers(0, 2**64 - 1)),
            "dark_rate": draw(st.floats(0.0, 0.01)),
            "efficiency": draw(st.floats(0.1, 1.0)),
        }
    return doc


def _bits(path, column: int) -> np.ndarray:
    """Column ``column`` of a written CSV, as the bits of its doubles."""
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=column, ndmin=1).view(np.uint64)


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(valid_scenarios())
def test_valid_scenario_keeps_the_physics_invariants(tmp_path, doc):
    cfg = write_config(tmp_path, doc)
    runs = [[], []] + [["--chunk-size", "97"]] * ("noise" in doc)
    outs = [tmp_path / f"o{k}" for k in range(len(runs))]
    for extra, out in zip(runs, outs):
        assert main(["simulate", "--config", str(cfg), *extra, "--out", str(out)]) == 0
    out = outs[0]
    summary = json.loads((out / "summary.json").read_text())
    pump_step = doc["pump"]["grid"]["step_thz"]
    spectrum = io.read_spectrum_csv(out / "spectrum.csv").weights
    transmitted = io.read_spectrum_csv(out / "transmitted.csv").weights
    assert abs(pump_step * spectrum.sum() - 1.0) <= 1e-9
    assert np.all(transmitted <= spectrum)
    if "sample" in doc:
        assert pump_step * transmitted.sum() == summary["surviving_fraction"]
    else:  # nothing absorbs: the spectrum passes whole
        assert summary["surviving_fraction"] == 1.0
        assert (out / "transmitted.csv").read_bytes() == (out / "spectrum.csv").read_bytes()
    p = np.loadtxt(out / "interferogram.csv", delimiter=",", skiprows=1, usecols=1, ndmin=1)
    np.testing.assert_array_equal(_bits(out / "trace.csv", 1), (2 * p - 1).view(np.uint64))
    t = doc["time_grid"]
    axis = UniformGrid(t["start_ps"], t["step_ps"], t["count"]).values.view(np.uint64)
    for name in ("interferogram.csv", "trace.csv"):
        np.testing.assert_array_equal(_bits(out / name, 0), axis)
    for again in outs[1:]:  # a rerun, and a finer partition of the draws
        for path in sorted(out.iterdir()):
            assert (again / path.name).read_bytes() == path.read_bytes(), path.name
    for run in outs:  # tmp_path is shared by every example
        shutil.rmtree(run)


def test_readme_command_line_flags_are_in_help(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    checked = 0
    for line in block.splitlines():
        words = line.split("#", 1)[0].split()
        if words[:1] != ["noonspec"]:
            continue
        with pytest.raises(SystemExit):
            main([words[1], "--help"])
        help_text = capsys.readouterr().out
        for flag in re.findall(r"--[a-z][a-z-]*", " ".join(words)):
            assert flag in help_text, f"{flag} of `noonspec {words[1]}` is not in its --help"
            checked += 1
    assert checked >= 8


def test_readme_library_example_finds_its_dip():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library example", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    # the one absorption line at 739.7 THz, within a folded bin of the default grid
    (dip,) = namespace["dips"]
    assert dip.kind == "dip" and abs(dip.center - 739.7) <= 0.0305
