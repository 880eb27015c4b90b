import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from noonspec import (
    AliasingError,
    AsymmetryError,
    NonUniformGridError,
    WindowTooShortError,
    cli,
    noise,
)
from noonspec.cli import ScenarioError, main, parse_scenario
from noonspec.io import read_trace_csv
from noonspec.presets import preset_scenario
from noonspec.recovery import detect_features, fold_one_sided, fourier_recover

from conftest import fork_only

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

    def test_invalid_json_exits_2(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        proc = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2

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
            assert "--chunk-size" in proc.stderr

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

    @pytest.mark.parametrize("bad", ['"740.25"', "true", "1e400", "-1e400", "NaN"])
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
        ],
    )
    def test_bad_sample_file_exits_2(self, tmp_path, capsys, path, message):
        (tmp_path / "bad.json").write_text("{not json")
        (tmp_path / "list.json").write_text("[]")
        cfg = write_config(tmp_path, small_scenario(sample={"path": path}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert err.count("\n") == 1


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
        assert "argument --min-prominence" in capsys.readouterr().err
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

    def test_non_uniform_grid_exits_4(self, tmp_path):
        path = tmp_path / "jagged.csv"
        path.write_text("t_ps,g\n0.0,0.0\n0.001,0.1\n0.005,0.2\n")
        proc = run_cli("recover", str(path), "--out", str(tmp_path / "rec"))
        assert proc.returncode == 4


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
            assert "--chunk-size" in proc.stderr

    @pytest.mark.parametrize("trials", ["", "abc", "1000,abc", "1000,", "0", "1000,-5", "1e3"])
    def test_bad_trials_list_exits_2(self, tmp_path, capsys, trials):
        # "abc" used to leak int()'s own message
        out = tmp_path / "study"
        with pytest.raises(SystemExit) as exc:
            main(["noise-study", "--config", str(self.scenario(tmp_path)), "--out", str(out),
                  "--trials", trials])
        assert exc.value.code == 2
        assert "argument --trials: expected a positive finite int" in capsys.readouterr().err
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
        proc = run_cli(
            "noise-study",
            "--config",
            str(cfg),
            "--out",
            str(out),
            "--trials",
            "500,2000",
            "--repeats",
            "6",
        )
        assert proc.returncode == 0, proc.stderr
        assert len((out / "scaling.csv").read_text().splitlines()) == 3

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

    @fork_only
    @pytest.mark.parametrize(
        "fail, line",
        [
            (ValueError("a bad draw"), "error: a bad draw\n"),
            # a worker that dies used to end in a BrokenProcessPool traceback with exit 1
            (None, "error: a noise-study worker process died: "),
        ],
        ids=["raises", "dies"],
    )
    def test_worker_failure_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch, fail, line):
        def draw(*args, **kwargs):
            if fail is None:
                os._exit(1)
            raise fail

        monkeypatch.setattr(noise, "_workers", lambda: 2)
        monkeypatch.setattr(noise, "sample_counts", draw)
        out = tmp_path / "study"
        argv = ["noise-study", "--preset", "noise-gauss", "--repeats", "2", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(line) and err.count("\n") == 1
        assert not out.exists()


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
    assert (tmp_path / "o").exists() == (rc == 0)  # a failed run writes nothing
    shutil.rmtree(tmp_path / "o", ignore_errors=True)  # tmp_path is shared by every example


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
