"""CSV and JSON serialization for every artifact the pipeline produces.

All CSVs use '.' as the decimal separator, LF line endings and UTF-8 (a
byte-order mark is skipped on read); floats are written with 17
significant digits so a read-back is exact.
In memory every series carries its grid; the one CSV reader,
``_read_columns``, returns the grid it infers (``grids.infer_grid``).
Every CSV writer goes through one columnar writer, ``_write_columns``,
which formats whole columns a block of rows at a time with one ``%``
operation per block, so its memory is bounded by the block. Each
column's format follows its dtype: ``%.17g`` for floats, ``%d`` for
integers; any other dtype is refused. ``%.17g`` and ``format(x, ".17g")``
share CPython's float-to-string conversion and ``%d`` prints an integer
as ``str`` does, so the bytes are those of formatting each value on its
own. Every JSON artifact goes through one writer, ``write_json``.
"""
from __future__ import annotations

import json
import warnings
from itertools import chain
from pathlib import Path

import numpy as np

from .grids import infer_grid
from .interferometer import CorrelationTrace, Interferogram
from .noise import CountData, ScalingStudy
from .recovery import RecoveredSpectrum
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


def _read_columns(path, expected_header: str) -> tuple:
    """The grid inferred from the first column of a CSV whose header must
    match exactly, followed by each further column."""
    with open(Path(path), encoding="utf-8-sig") as fh:
        header = fh.readline().strip()
        if header != expected_header:
            raise ValueError(
                f"unexpected header {header!r} in {path}, expected {expected_header!r}"
            )
        try:
            # an empty body is reported just below, so numpy's warning is not
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                body = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"malformed CSV body in {path}: {exc}") from exc
    if body.size == 0:
        raise ValueError(f"{path} contains no data rows")
    columns = expected_header.count(",") + 1
    if body.shape[1] != columns:
        raise ValueError(f"{path}: expected {columns} columns, found {body.shape[1]}")
    return (infer_grid(body[:, 0]), *body[:, 1:].T)


def write_spectrum_csv(path, spectrum: SumFrequencySpectrum) -> None:
    _write_columns(path, "nu_thz,weight", (spectrum.grid.values, spectrum.weights))


def read_spectrum_csv(path) -> SumFrequencySpectrum:
    return SumFrequencySpectrum(*_read_columns(path, "nu_thz,weight"))


def write_interferogram_csv(path, interferogram: Interferogram) -> None:
    _write_columns(path, "t_ps,p", (interferogram.grid.values, interferogram.values))


def write_trace_csv(path, trace: CorrelationTrace) -> None:
    _write_columns(path, "t_ps,g", (trace.grid.values, trace.values))


def read_trace_csv(path) -> CorrelationTrace:
    return CorrelationTrace(*_read_columns(path, "t_ps,g"))


def write_recovered_csv(path, recovered: RecoveredSpectrum) -> None:
    amp = recovered.amplitudes
    # np.hypot equals scalar abs(complex) bit for bit; np.abs's SIMD loop does not
    _write_columns(
        path,
        "nu_thz,amplitude_abs,amplitude_re,amplitude_im",
        (recovered.grid.values, np.hypot(amp.real, amp.imag), amp.real, amp.imag),
    )


def write_json(path, doc) -> None:
    """``doc`` as JSON indented by 2, with a final newline."""
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
    return CountData(*_read_columns(path, "t_ps,coincidences,pairs_sent"))


def write_scaling_csv(path, study: ScalingStudy) -> None:
    _write_columns(
        path,
        "n_trials,std_height,std_center",
        (study.n_trials, study.std_height, study.std_center),
    )
