"""CSV and JSON serialization for every artifact the pipeline produces.

All CSVs use '.' as the decimal separator, LF line endings and UTF-8;
floats are written with 17 significant digits so a read-back is exact.
In memory every series carries its grid; a grid is inferred from a delay
or frequency column (``grids.infer_grid``) only here, where a CSV is read.
Every CSV writer goes through one columnar writer, ``_write_columns``,
which formats whole columns a block of rows at a time with one ``%``
operation per block, so its memory is bounded by the block. Each
column's format follows its dtype: ``%.17g`` for floats, ``%d`` for
integers; any other dtype is refused. ``%.17g`` and ``format(x, ".17g")``
share CPython's float-to-string conversion and ``%d`` prints an integer
as ``str`` does, so the bytes are those of formatting each value on its
own.
"""
from __future__ import annotations

import json
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .grids import infer_grid
from .interferometer import CorrelationTrace, Interferogram
from .noise import CountData, ScalingStudy
from .recovery import RecoveredSpectrum, SpectralFeature
from .spectral import SumFrequencySpectrum


_BLOCK_ROWS = 4096  # rows formatted per string; bounds the transient lists


def _format(column: np.ndarray) -> str:
    """``%.17g`` for a float column, ``%d`` for an integer one."""
    if column.dtype.kind == "f":
        return "%.17g"
    if column.dtype.kind in "iu":
        return "%d"
    raise ValueError(f"cannot write a column of dtype {column.dtype} to CSV")


def _write_columns(path, header: str, columns) -> None:
    """Write equal-length 1-D ``columns`` as CSV rows, each formatted by its dtype."""
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("CSV columns differ in length")
    row = ",".join(_format(c) for c in columns) + "\n"
    with open(Path(path), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for start in range(0, n, _BLOCK_ROWS):
            lists = [c[start : start + _BLOCK_ROWS].tolist() for c in columns]
            fh.write((row * len(lists[0])) % tuple(chain.from_iterable(zip(*lists))))


def _read_columns(path, expected_header: str) -> np.ndarray:
    """Numeric body of a CSV whose header must match exactly, one column per header field."""
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
    columns = expected_header.count(",") + 1
    if body.shape[1] != columns:
        raise ValueError(f"{path}: expected {columns} columns, found {body.shape[1]}")
    return body


def write_spectrum_csv(path, spectrum: SumFrequencySpectrum) -> None:
    _write_columns(path, "nu_thz,weight", (spectrum.grid.values, spectrum.weights))


def read_spectrum_csv(path, normalized: bool = False) -> SumFrequencySpectrum:
    body = _read_columns(path, "nu_thz,weight")
    nu, weights = body[:, 0], body[:, 1]
    grid = infer_grid(nu)
    return SumFrequencySpectrum(grid, weights, normalized=normalized)


def write_jsi_csv(path, jsi) -> None:
    """Row-major dump: the signal index is the slow axis."""
    nu_s = jsi.signal_grid.values
    nu_i = jsi.idler_grid.values
    _write_columns(
        path,
        "nu_s_thz,nu_i_thz,density",
        (np.repeat(nu_s, len(nu_i)), np.tile(nu_i, len(nu_s)), jsi.density.ravel()),
    )


def write_interferogram_csv(path, interferogram: Interferogram) -> None:
    _write_columns(path, "t_ps,p", (interferogram.grid.values, interferogram.values))


def write_trace_csv(path, trace: CorrelationTrace) -> None:
    _write_columns(path, "t_ps,g", (trace.grid.values, trace.values))


def read_trace_csv(path) -> CorrelationTrace:
    body = _read_columns(path, "t_ps,g")
    grid = infer_grid(body[:, 0])
    return CorrelationTrace(grid, body[:, 1])


def write_recovered_csv(path, recovered: RecoveredSpectrum) -> None:
    amp = recovered.amplitudes
    # np.hypot equals scalar abs(complex) bit for bit; np.abs's SIMD loop does not
    _write_columns(
        path,
        "nu_thz,amplitude_abs,amplitude_re,amplitude_im",
        (recovered.grid.values, np.hypot(amp.real, amp.imag), amp.real, amp.imag),
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
    _write_columns(
        path,
        "t_ps,coincidences,pairs_sent",
        (counts.grid.values, counts.coincidences, counts.pairs_sent),
    )


def read_counts_csv(path) -> CountData:
    body = _read_columns(path, "t_ps,coincidences,pairs_sent")
    return CountData(infer_grid(body[:, 0]), body[:, 1], body[:, 2])


def write_scaling_csv(path, study: ScalingStudy) -> None:
    _write_columns(
        path,
        "n_trials,std_height,std_center",
        (study.n_trials, study.std_height, study.std_center),
    )
