"""CSV and JSON serialization for every artifact the pipeline produces.

All CSVs use '.' as the decimal separator, LF line endings and UTF-8;
floats are written with 17 significant digits so a read-back is exact.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .grids import FrequencyGrid, infer_grid
from .interferometer import CorrelationTrace, Interferogram
from .noise import CountData, ScalingStudy
from .recovery import RecoveredSpectrum, SpectralFeature
from .spectral import SumFrequencySpectrum


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_rows(path, header: str, rows) -> None:
    with open(Path(path), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _read_columns(path, expected_header: str) -> np.ndarray:
    """Numeric body of a CSV whose header must match exactly."""
    with open(Path(path), encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != expected_header:
            raise ValueError(
                f"unexpected header {header!r} in {path}, expected {expected_header!r}"
            )
        try:
            body = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"malformed CSV body in {path}: {exc}") from exc
    if body.size == 0:
        raise ValueError(f"{path} contains no data rows")
    return body


def write_spectrum_csv(path, spectrum: SumFrequencySpectrum) -> None:
    nu = spectrum.grid.values
    _write_rows(
        path,
        "nu_thz,weight",
        ((_fmt(nu[i]), _fmt(spectrum.weights[i])) for i in range(len(nu))),
    )


def read_spectrum_csv(path, normalized: bool = False) -> SumFrequencySpectrum:
    body = _read_columns(path, "nu_thz,weight")
    if body.shape[1] != 2:
        raise ValueError(f"{path}: expected two columns")
    nu, weights = body[:, 0], body[:, 1]
    grid = infer_grid(nu, FrequencyGrid)
    return SumFrequencySpectrum(grid, weights, normalized=normalized)


def write_jsi_csv(path, jsi) -> None:
    """Row-major dump: the signal index is the slow axis."""
    nu_s = jsi.signal_grid.values
    nu_i = jsi.idler_grid.values

    def rows():
        for i in range(len(nu_s)):
            for j in range(len(nu_i)):
                yield (_fmt(nu_s[i]), _fmt(nu_i[j]), _fmt(jsi.density[i, j]))

    _write_rows(path, "nu_s_thz,nu_i_thz,density", rows())


def write_interferogram_csv(path, interferogram: Interferogram) -> None:
    t = interferogram.grid.values
    _write_rows(
        path,
        "t_ps,p",
        ((_fmt(t[i]), _fmt(interferogram.values[i])) for i in range(len(t))),
    )


def write_trace_csv(path, trace: CorrelationTrace) -> None:
    t = trace.grid.values
    _write_rows(
        path,
        "t_ps,g",
        ((_fmt(t[i]), _fmt(trace.values[i])) for i in range(len(t))),
    )


def read_trace_csv(path) -> CorrelationTrace:
    body = _read_columns(path, "t_ps,g")
    if body.shape[1] != 2:
        raise ValueError(f"{path}: expected two columns")
    grid = infer_grid(body[:, 0])
    return CorrelationTrace(grid, body[:, 1])


def write_recovered_csv(path, recovered: RecoveredSpectrum) -> None:
    nu = recovered.grid.values
    amp = recovered.amplitudes
    _write_rows(
        path,
        "nu_thz,amplitude_abs,amplitude_re,amplitude_im",
        (
            (_fmt(nu[i]), _fmt(abs(amp[i])), _fmt(amp[i].real), _fmt(amp[i].imag))
            for i in range(len(nu))
        ),
    )


def write_peaks_json(path, features: Sequence[SpectralFeature]) -> None:
    doc = [
        {
            "center_thz": f.center,
            "height": f.height,
            "fwhm_thz": f.fwhm,
            "kind": f.kind,
        }
        for f in features
    ]
    with open(Path(path), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def write_counts_csv(path, counts: CountData) -> None:
    _write_rows(
        path,
        "t_ps,coincidences,pairs_sent",
        zip(
            map(_fmt, counts.delays),
            map(str, counts.coincidences.tolist()),
            map(str, counts.pairs_sent.tolist()),
        ),
    )


def read_counts_csv(path) -> CountData:
    body = _read_columns(path, "t_ps,coincidences,pairs_sent")
    if body.shape[1] != 3:
        raise ValueError(f"{path}: expected three columns")
    return CountData(body[:, 0], body[:, 1], body[:, 2])


def write_scaling_csv(path, study: ScalingStudy) -> None:
    _write_rows(
        path,
        "n_trials,std_height,std_center",
        (
            (str(row.n_trials), _fmt(row.std_height), _fmt(row.std_center))
            for row in study.rows
        ),
    )
