"""CSV and JSON serialization for every artifact the pipeline produces.

All CSVs use '.' as the decimal separator, LF line endings and UTF-8 (a
byte-order mark is skipped on read); floats are written with 17
significant digits so a read-back is exact.
In memory every series carries its grid; the one CSV reader,
``_read_columns``, returns the grid it infers (``grids.infer_grid``).
Every CSV writer goes through one columnar writer, ``_write_columns``.
Each column's format follows its dtype: ``%.17g`` for floats, ``%d`` for
integers; any other dtype is refused. The bytes are those of formatting
each value on its own with ``'%.17g' % x`` or ``'%d' % n``, but the
writer formats ``_BLOCK_ROWS`` rows at a time in numpy, so its memory is
bounded by the block:

- A float with 1e-280 <= |x| <= 1e280 gets its 17 significant digits
  from N = round(|x| * 10**(16 - X)), X = floor(log10 |x|). The product
  is a double-double: Dekker's exact ``_two_product`` (Numer. Math. 18,
  1971) with the high half of a 106-bit table of powers of ten, plus the
  low half's product. Its error is below 1e-14, so N is exact whenever
  it has 17 digits and the product is not within 1e-9 of a tie.
- Every other value takes ``'%.17g' % x`` or ``'%d' % n``: zero,
  subnormals, non-finite values, values outside that range, a tie, a
  misjudged X and every integer column.

Each value owns a slot of byte positions, laid out as
``sign | "0.000" | 17 digits | "." | 17 digits | "e" sign ddd | separator``.
A zero byte means "drop", so one mask turns a block of slots into its
text. The digits appear twice: the first copy keeps those before the
decimal point and the second those after it (trailing zeros dropped),
so the point never moves a digit. The ``0.`` and leading zeros of a
fixed-point value below 1 and the exponent of a value in exponent
notation depend on X alone, so they come from a table. A value formatted
in Python fills the first bytes of its slot from a fixed-width ``S`` array.

Every JSON artifact goes through one writer, ``write_json``.
"""
from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from .grids import infer_grid
from .interferometer import CorrelationTrace, Interferogram, _two_product
from .noise import CountData, ScalingStudy
from .recovery import RecoveredSpectrum
from .spectral import SumFrequencySpectrum


_BLOCK_ROWS = 2048  # rows formatted per block; bounds the transient arrays


def _powers_of_ten(low: int, high: int) -> tuple[np.ndarray, np.ndarray]:
    """10**q = hi + lo for q in [low, high], each half correctly rounded,
    from integer arithmetic alone."""
    his, los = [], []
    for q in range(low, high + 1):
        if q >= 0:
            p = 10**q
            hi = float(p)
            lo = float(p - int(hi))
        else:
            p = 10**-q
            hi = 1 / p
            m, s = hi.as_integer_ratio()
            lo = (s - m * p) / (s * p)  # 1/p - m/s, rounded once
        his.append(hi)
        los.append(lo)
    return np.array(his), np.array(los)


def _layout(e: int) -> tuple[bytes, bytes, int]:
    """What ``%.17g`` writes before and after the digits of a value of
    decimal exponent ``e``, and how many digits precede the point (0: all
    the significant ones)."""
    if e < -4 or e >= 17:
        return b"", f"e{e:+03d}".encode(), 1
    if e < 0:
        return b"0." + b"0" * (-1 - e), b"", 0
    return b"", b"", e + 1


_EXACT_MAX = 1e280  # |x| in [1/_EXACT_MAX, _EXACT_MAX] is formatted in numpy
# there X = floor(log10 |x|) lies in [-281, 280] (log10 may be one off),
# so the scale 10**(16 - X) needs q in [-264, 297]; every table is indexed by q
_POW_LOW = -264
_TEN_HI, _TEN_LO = _powers_of_ten(_POW_LOW, 297)
_LAYOUTS = [_layout(16 - q) for q in range(_POW_LOW, 298)]
_AFFIXES = np.array(  # the text before the digits, then the text after them
    [list(lead.ljust(5, b"\0") + exp.ljust(5, b"\0")) for lead, exp, _ in _LAYOUTS], np.uint8
)
_BEFORE = np.array([before for *_, before in _LAYOUTS], np.uint8)
_DIGIT = np.arange(17, dtype=np.uint8)[:, None]

# byte positions of a value's slot
_SIGN, _LEAD, _INT, _POINT, _FRAC, _EXP, _SEP = 0, 1, 6, 23, 24, 41, 46
_TEXT = 24  # width of '%.17g' % -2.2250738585072014e-308, the longest text


def _format(column: np.ndarray) -> str:
    """``%.17g`` for a float column, ``%d`` for an integer one."""
    if column.dtype.kind == "f":
        return "%.17g"
    if column.dtype.kind in "iu":
        return "%d"
    raise ValueError(f"cannot write a column of dtype {column.dtype} to CSV")


def _fill_slots(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the ``%.17g`` text of each float64 in ``x`` into rows
    ``[0, _SEP)`` of ``out``, one column per value; True where that text is
    exact, False where the value must be formatted in Python instead."""
    out[_SIGN] = (x < 0) * ord("-")
    a = np.abs(x)
    exact = (a >= 1 / _EXACT_MAX) & (a <= _EXACT_MAX)  # False for 0, nan, inf, subnormals
    a[~exact] = 1.0  # so no arithmetic below warns
    e = np.floor(np.log10(a)).astype(np.int64)
    q = -_POW_LOW + 16 - e
    hi, lo = _two_product(a, _TEN_HI[q])
    lo += a * _TEN_LO[q]  # |x| * 10**(16 - e) = hi + lo, to about 1e-14
    del a  # each transient freed early lowers the writer's peak memory
    whole = np.floor(lo)
    lo -= whole
    # 17 digits, so e is right and no carry; and not within reach of a tie
    exact &= (hi > 1e16 + 16) & (hi < 1e17 - 16) & (np.abs(lo - 0.5) > 1e-9)
    n = hi.astype(np.int64)
    n += whole.astype(np.int64)
    n += lo > 0.5
    del hi, lo, whole
    digits = out[_FRAC:_EXP]  # 0-9 here first, then the digits after the point
    for rows, part in ((range(16, 7, -1), n % 10**9), (range(7, -1, -1), n // 10**9)):
        part = part.astype(np.uint32)
        for i in rows:
            rest = part // 10
            digits[i] = part - rest * 10
            part = rest
    kept = digits != 0
    for i in range(15, -1, -1):  # then: True up to the last nonzero digit
        kept[i] |= kept[i + 1]
    significant = kept.sum(axis=0, dtype=np.uint8)
    before = _BEFORE[q]
    before = np.where(before == 0, significant, before)
    head = _DIGIT < before
    digits |= ord("0")
    np.multiply(digits, head, out=out[_INT:_POINT])
    np.greater(kept, head, out=kept)  # after the point, and not a trailing zero
    digits *= kept
    out[_POINT] = (significant > before) * ord(".")
    affixes = _AFFIXES.take(q, axis=0)
    out[_LEAD:_INT] = affixes[:, :5].T
    out[_EXP:_SEP] = affixes[:, 5:].T
    return exact


def _block_text(block: list, formats: list, separators: np.ndarray) -> np.ndarray:
    """The CSV text, as bytes in a uint8 array, of equal-length column slices ``block``."""
    slots = np.zeros((len(block), _SEP + 1, len(block[0])), np.uint8)  # column, position, row
    slots[:, _SEP] = separators[:, None]
    for column, fmt, out in zip(block, formats, slots):
        if fmt == "%d":
            rows = np.arange(len(column))
        else:
            rows = np.flatnonzero(~_fill_slots(column.astype(np.float64, copy=False), out))
        if rows.size:
            text = np.array([fmt % v for v in column[rows].tolist()], f"S{_TEXT}")
            out[:_SEP, rows] = 0
            out[:_TEXT, rows] = text.view(np.uint8).reshape(-1, _TEXT).T
    by_value = slots.transpose(2, 0, 1)
    return by_value[by_value != 0]


def _write_columns(path, header: str, columns) -> None:
    """Write equal-length 1-D ``columns`` as CSV rows, each formatted by its dtype."""
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("CSV columns differ in length")
    formats = [_format(c) for c in columns]
    separators = np.full(len(columns), ord(","), np.uint8)
    separators[-1] = ord("\n")
    with open(Path(path), "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, n, _BLOCK_ROWS):
            block = [c[start : start + _BLOCK_ROWS] for c in columns]
            fh.write(_block_text(block, formats, separators))


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
