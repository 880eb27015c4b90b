"""CSV and JSON serialization for every artifact the pipeline produces.

All CSVs use '.' as the decimal separator, LF line endings and UTF-8 (a
byte-order mark is skipped on read); floats are written with 17
significant digits so a read-back is exact.
In memory every series carries its grid; the one CSV reader,
``_read_columns``, returns the grid it infers (``grids.infer_grid``).
It holds the body alone: a first pass counts the file's non-empty lines
(``_row_bound``), so ``np.loadtxt`` allocates the rows once, the grid is
inferred a block of rows at a time, and the grid column is dropped in
place, so a two-column file's values are the array it was read into.
Every CSV goes through one walk, ``save_tables``: it writes the tables
of one row count, each a path, a header and columns, in one pass over
their rows, so a column that several tables share is formatted once.
The ``*_table`` functions build an artifact's table; ``simulate`` walks
its delay tables at once, which share their ``t_ps`` column, and its two
spectra, which share their grid (both columns when there is no sample).
Each ``write_*`` writes the one file its first argument names, a
one-table walk.
A column is of one of two kinds: an array, sliced, or a function of a
row range ``(lo, hi)``, called. A grid is a function of its rows, its
points there (``grid(lo, hi)``), so no column is special. Each column's
format follows its dtype: ``%.17g`` for floats, ``%d`` for integers; any
other dtype is refused. The bytes are those of formatting each value on
its own with ``'%.17g' % x`` or ``'%d' % n``, but the walk formats blocks
of whole rows in numpy, ``_BLOCK_VALUES // D`` rows (at least one) at a
time, D the distinct column objects (one that ends a row in some tables
and not in others counts twice, once for each separator). Its memory is
bounded by the block: a grid, the three amplitude columns of
``recovered.csv`` (of one complex column, which ``recover`` mirrors
from its half spectrum) and the G = 2P - 1 column of a ``trace.csv``
written from P are functions, evaluated on the block's rows alone.
Every value takes one path, integers as floats: an integer with
|n| < 2**53 is exact as a double, and its ``'%d'`` text is the
double's ``'%.17g'`` text.

- A float with 1e-280 <= |x| <= 1e280 gets its 17 significant digits
  from N = round(|x| * 10**(16 - X)), X = floor(log10 |x|). X is exact:
  a binade of doubles spans at most two decades, so a table indexed by
  the biased exponent gives its lower decade and the least double of the
  next one. The product is a double-double: Dekker's exact product
  (Numer. Math. 18, 1971) with the high half of a 106-bit table of
  powers of ten, whose Veltkamp halves come from a table too, plus the
  low half's product. Its error is below 1e-14, so N is exact unless
  the product is within 1e-9 of a tie; and as X is exact, N has 17
  digits unless the product is within 16 of 10**17, where rounding may
  carry to an 18th.
- N's first digit is N // 10**16; the other 16 are four 4-digit groups,
  whose ASCII comes from a table of all 10,000 groups and whose count of
  significant digits comes from a table of their trailing zeros.
- Python's ``'%.17g' % x`` or ``'%d' % n`` formats only the rare other
  values: zero, subnormals, non-finite values, values outside that
  range, a near-tie, a value that may carry, and an integer with
  |n| >= 2**53.

Each value owns a slot of four little-endian 8-byte lanes::

    lane 0   sign | "0.000" | first digit
    lanes 1-2  the other 16 digits, the point inserted after digit `before`
    lane 3   the digit the point pushed out | "e" sign ddd | separator

A zero byte means "drop", so deleting the zero bytes of a block's slots
(one ``bytes.translate``) turns them into its text. The point moves the
digits after it one byte up; digits past the last significant one, or
past the point when none follows it, are zeroed first. The ``0.`` and
leading zeros of a fixed-point value below 1, the exponent of a value in
exponent notation and ``before`` depend on X alone, so they come from
tables. A value formatted in Python fills lanes 0-2 from a fixed-width
``S`` array.

A block's slots are lane-major, one contiguous uint64 row per lane, and
each lane is the fill's scratch space until its own bytes are written:
lane 0 holds a's binade and halves, then the rounding's whole part until
the first digit; lanes 1 and 2 hold the product's halves until N is
formed, then the digits, each 8-digit half's ASCII gathered from an int64
table of the 4-digit groups; lane 3 holds the values, the tie, N until
its digits are made and the point's shifts, and is written last. Besides
the slots the fill makes two arrays of 8 bytes a value, the power table's
index (which, narrowed, gives its array to the digits) and
``_exact_scale``'s one, and a few of a byte a value. A block fills one
rows x D slot array in one call, and each table's text is its columns'
slots, transposed to value order: a strided view where their indices
step evenly upward, a gather otherwise. A table's text is made and
compacted a quarter of the rows at a time, since ``bytes.translate``
first makes a result as long as its input, so no text outgrows the
fill's scratch. A block peaks in the fill, at about 51 bytes a value
above its columns, 32 of them the slots and 18 the fill's own: 0.42 MB
for the 8192 values of a grid and a float column.

Every JSON artifact goes through one writer, ``write_json``.
"""
from __future__ import annotations

import json
import os
import warnings
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from ._numerics import _SPLIT, _blocks, _split
from .grids import FrequencyGrid, infer_grid
from .interferometer import CorrelationTrace, Interferogram, _correlation
from .noise import CountData, ScalingStudy
from .spectral import SumFrequencySpectrum


_BLOCK_VALUES = 8192  # values formatted per block of whole rows; bounds the transients
_COUNT_BYTES = 2**18  # bytes a read of the CSV reader's row count takes


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


def _group_tables() -> tuple[np.ndarray, np.ndarray]:
    """For every 4-digit group 0000-9999, its ASCII in the low 4 bytes of a
    little-endian int64, the first digit in the low byte, and its count of
    trailing zeros (4 for 0000)."""
    d = np.arange(10, dtype=np.int64)  # on axis i: digit i of the group
    ascii4 = d[:, None, None, None] | d[:, None, None] << 8 | d[:, None] << 16 | d << 24
    z = (d == 0).astype(np.uint8)
    trailing = z * (1 + z[:, None] * (1 + z[:, None, None] * (1 + z[:, None, None, None])))
    return ascii4.ravel() + 0x30303030, trailing.ravel()


def _lanes(rows) -> np.ndarray:
    """Byte strings of at most 8 bytes as little-endian 8-byte lanes."""
    return np.array([row.ljust(8, b"\0") for row in rows], "S8").view("<u8")


_EXACT_MAX = 1e280  # |x| in [1/_EXACT_MAX, _EXACT_MAX] is formatted in numpy
# there X = floor(log10 |x|) lies in [-280, 280]: the scale 10**(16 - X) needs
# q in [-264, 296] and the decade bounds 10**k need k in [-280, 281]; every
# table of powers is indexed by q - _POW_LOW
_POW_LOW = -280
_TEN_HI, _TEN_LO = _powers_of_ten(_POW_LOW, 297)
_TEN_SPLIT = _split(_TEN_HI)  # Veltkamp's halves of each high half
_AT_LEAST = np.where(_TEN_LO > 0, np.nextafter(_TEN_HI, np.inf), _TEN_HI)  # least double >= 10**k
# per binade 2**(B-1023) <= |x| < 2**(B-1022), B the biased exponent: the
# scale's table index for the binade's lower decade, and the least double of
# the next decade, whose index is one less (a binade spans at most two decades)
_DECADE = np.clip(
    np.searchsorted(_AT_LEAST, np.ldexp(1.0, np.arange(-1023, 1024)), "right") - 1,
    -1, 280 - _POW_LOW,
)
_SCALE_INDEX = (16 - 2 * _POW_LOW - _DECADE).astype(np.int64)  # q's array is int64 scratch later
_NEXT_DECADE = _AT_LEAST[_DECADE + 1]
_LAYOUTS = [_layout(16 - q) for q in range(_POW_LOW, 298)]
_BEFORE = np.array([before for *_, before in _LAYOUTS], np.uint8)
_ASCII4, _TRAILING = _group_tables()

# A value's slot is four little-endian 8-byte lanes; a zero byte means "drop":
#   lane 0: sign, the "0.000" before a fixed-point value below 1, first digit
#   lanes 1, 2: the other 16 digits, with the point inserted after digit `before`
#   lane 3: the digit the point pushed out of lane 2, "e" sign ddd, separator
_LANES = 4  # 8-byte lanes in a slot
_LEAD = _lanes([b"\0" + lead for lead, *_ in _LAYOUTS]) | np.uint64(ord("0")) << np.uint64(48)
_EXP = _lanes([(b"\0" + exp).ljust(6, b"\0") + b"," for _, exp, _ in _LAYOUTS])
_SEP_SHIFT = np.uint64(48)  # the separator's byte in lane 3, a comma in _EXP
_ALL = np.uint64(2**64 - 1)
_POINT = np.uint64(ord("."))
_MINUS = np.uint8(ord("-"))  # the sign, written into lane 0's low byte
_TEXT = 24  # width of '%.17g' % -2.2250738585072014e-308, the longest text


def _exact_scale(
    a: np.ndarray, q: np.ndarray, hi: np.ndarray, lo: np.ndarray, half: np.ndarray
) -> None:
    """a * 10**(16 - X) = hi + lo to about 1e-14, written into ``hi`` and
    ``lo``, for the positive ``a`` and the scale's table index ``q``.

    The sum is Dekker's exact product of ``a`` and the high half of the
    power, as ``_two_product`` forms it, plus the product of ``a`` and the
    low half. The power's Veltkamp halves come from a table, taken again
    for each partial product into ``b``, the one array this makes; ``half``
    holds a's halves in turn and is overwritten, and ``a`` is kept.
    """
    b = np.empty(a.size)
    np.take(_TEN_HI, q, out=hi, mode="clip")  # "clip": no buffered copy of out
    hi *= a  # p = fl(a * 10**q_hi)
    a_hi = np.multiply(a, _SPLIT, out=half)  # Veltkamp's split of a
    a_hi -= np.subtract(a_hi, a, out=b)
    err = np.multiply(a_hi, np.take(_TEN_SPLIT[0], q, out=b, mode="clip"), out=lo)
    err -= hi  # a*10**q_hi - p, summed in _two_product's order
    err += np.multiply(a_hi, np.take(_TEN_SPLIT[1], q, out=b, mode="clip"), out=b)
    a_lo = np.subtract(a, a_hi, out=half)
    for table in _TEN_SPLIT:
        err += np.multiply(a_lo, np.take(table, q, out=b, mode="clip"), out=b)
    err += np.multiply(a, np.take(_TEN_LO, q, out=b, mode="clip"), out=b)  # lo = a*10**q_lo + err


def _scale_index(a: np.ndarray, binade: np.ndarray, above: np.ndarray) -> np.ndarray:
    """The power table's index of 10**(16 - X), X = floor(log10 a) exactly,
    for positive normal doubles ``a``, as a new int64 array. ``binade``
    (int64) and ``above`` (float64), each of a's size, are overwritten."""
    np.right_shift(a.view(np.int64), 52, out=binade)
    q = np.take(_SCALE_INDEX, binade)
    np.take(_NEXT_DECADE, binade, out=above, mode="clip")
    up = np.greater_equal(a, above, out=binade.view(bool)[: a.size])  # X is the next decade
    np.copyto(above.view(np.int64), up)  # as int64, so the subtraction casts nothing
    q -= above.view(np.int64)
    return q


def _put_groups(digits, lane, head, spare, trailing=None) -> np.ndarray:
    """Write the ASCII of the 8-digit integers ``digits`` into ``lane``, the
    first 4 digits in its low half and the last 4 in its high half, and
    return ``trailing``, the count of trailing zeros of the digits so far,
    uint8: each group, the first one first, adds its 4 if it is 0000 and
    else sets its own count; None stands for no digits before. ``digits``,
    ``lane``, ``head`` and ``spare`` are int64 of one size, all but
    ``lane`` overwritten, which may be ``digits`` or ``spare``."""
    np.floor_divide(digits, 10**4, out=head)
    digits -= np.multiply(head, 10**4, out=spare)
    for group in (head, digits):
        zeros = _TRAILING[group]
        if trailing is None:
            trailing = zeros
            continue
        trailing *= zeros >> 2  # 1 for 0000, 0 for a group that ends the zeros
        trailing += zeros
    np.left_shift(np.take(_ASCII4, digits, out=spare, mode="clip"), 32, out=spare)
    np.bitwise_or(np.take(_ASCII4, head, out=digits, mode="clip"), spare, out=lane)
    return trailing


def _insert_point(
    low: np.ndarray, high: np.ndarray, shift: np.ndarray, free: np.ndarray, moved: np.ndarray
) -> None:
    """Insert a point at byte ``shift / 8`` in [0, 16] of lanes ``low, high``
    (16 bytes), in place: the bytes from there move one byte up, and the
    last one is written into ``shift``, a uint8 array. ``free`` and
    ``moved`` are uint64 scratch."""
    np.copyto(free, shift)  # the shift as uint64, so no shift below casts
    moved = np.right_shift(_ALL, np.subtract(128, free, out=moved), out=moved)
    np.invert(moved, out=moved)  # all of the high lane for a point in the low one
    moved &= high
    high ^= moved
    np.copyto(shift, moved.view(np.uint8)[7::8])  # the byte pushed out
    moved <<= 8
    high |= moved
    high |= np.left_shift(_POINT, np.subtract(free, 64, out=moved), out=moved)  # past 63 gives 0
    moved = np.left_shift(_ALL, free, out=moved)
    moved &= low
    low ^= moved
    low |= np.left_shift(_POINT, free, out=free)
    high |= np.right_shift(moved, 56, out=free)  # into the high lane's free low byte
    moved <<= 8
    low |= moved


def _fill_slots(x: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Write the ``%.17g`` text of each float64 in ``x`` and a comma into
    its column of the lane-major ``slots``, ``_LANES`` rows of uint64; True
    where that text is exact, False where the value must be formatted in
    Python instead. ``x`` is overwritten, and may be lane 3 viewed as
    floats: each lane is scratch space until its text is written.

    Every array of x's size and 8-byte values is a lane, but the scale
    index ``q`` and ``_exact_scale``'s one array. Lane 0 holds a's binade
    and halves, then the rounding's whole part until the first digit; lanes
    1 and 2 hold the scaled value's halves until N is formed, then its
    digits and their ASCII; lane 3 holds the tie, N until its digits are
    made and the point's shifts, and is written last. Once lane 0 is done,
    q is narrowed to int16 and its array is the digits' scratch."""
    lead, low, high, tail = slots
    size = x.size
    negative = x < 0
    a = np.abs(x, out=x)
    exact = a >= 1 / _EXACT_MAX  # with the next line, False for 0, nan, inf, subnormals
    exact &= np.less_equal(a, _EXACT_MAX, out=lead.view(bool)[:size])
    a[np.invert(exact, out=lead.view(bool)[:size])] = 1.0  # so no arithmetic below warns
    q = _scale_index(a, lead.view(np.int64), low.view(float))
    hi, lo = high.view(float), low.view(float)
    _exact_scale(a, q, hi, lo, lead.view(float))
    whole = np.floor(lo, out=lead.view(float))
    lo -= whole
    # X is exact, so N has at least 17 digits (10**X itself gives 10**16);
    # no carry to an 18th, and not within reach of a tie
    exact &= np.less(hi, 1e17 - 16, out=tail.view(bool)[:size])
    tie = np.subtract(lo, 0.5, out=tail.view(float))
    exact &= np.abs(tie, out=tie) > 1e-9
    n, high_ints = tail.view(np.int64), high.view(np.int64)
    np.copyto(n, hi, casting="unsafe")  # N = hi + whole + (lo > 0.5)
    whole += np.rint(lo, out=lo)  # lo in [0, 1) rounds half to even: to 1 where lo > 0.5
    np.copyto(high_ints, whole, casting="unsafe")
    n += high_ints
    first = np.floor_divide(n, 10**16, out=lead.view(np.int64))
    n -= np.multiply(first, 10**16, out=high_ints)
    # lane 0 is done: the sign, the "0.000" of a value below 1, the first digit
    lead <<= 48
    lead |= np.take(_LEAD, q, out=high, mode="clip")
    np.multiply(negative.view(np.uint8), _MINUS, out=lead.view(np.uint8)[::8])  # its free low byte
    del negative
    before = np.take(_BEFORE, q)
    spare, q = q, q.astype(np.int16)  # narrowed while the digits are made: only lane 3 needs it
    upper = np.floor_divide(n, 10**8, out=low.view(np.int64))  # digits 2-9
    n -= np.multiply(upper, 10**8, out=spare)  # digits 10-17
    # four 4-digit groups: each 8-digit half's ASCII goes into its digit
    # lane, and the trailing zeros are counted group by group
    trailing = _put_groups(upper, upper, high_ints, spare)
    trailing = _put_groups(n, high_ints, spare, high_ints, trailing)
    significant = np.subtract(17, trailing, out=trailing)
    # zero the digits past the last significant one and past the point
    keep = np.maximum(significant, before)
    keep *= 8
    keep -= 8  # the bits of the digits kept after the first
    bits, mask = tail, spare.view(np.uint64)
    np.copyto(bits, keep)
    del keep
    low &= np.invert(np.left_shift(_ALL, bits, out=mask), out=mask)  # a shift past 63 gives 0
    high &= np.right_shift(_ALL, np.subtract(128, bits, out=bits), out=bits)
    # the point follows digit ``before`` where a significant digit follows
    # it (``before`` is 0 for a value below 1), at byte before - 1 of lanes
    # 1-2; elsewhere a shift of 128 bits inserts nothing
    point = (significant > before) & (before > 0)
    # in uint8, wrapping: 8 before - 8 where point, else 128
    shift = np.multiply(before, 8, out=before)
    shift -= 136
    shift *= point
    shift += 128
    _insert_point(low, high, shift, tail, mask)
    # lane 3, last: "e" sign ddd, the separator and the digit the point pushed out
    np.copyto(spare, q)  # as int64, so take makes no copy of the index
    np.take(_EXP, spare, out=tail, mode="clip")
    np.copyto(mask, shift)
    tail |= mask
    return exact


def _put_text(slots: np.ndarray, at: np.ndarray, texts: list) -> None:
    """Fill the slots ``at`` with ``texts``, keeping only their separators."""
    if at.size:
        slots[:3, at] = np.array(texts, f"S{_TEXT}").view("<u8").reshape(-1, 3).T
        slots[3, at] &= _ALL << _SEP_SHIFT


def _rows(column, lo: int, hi: int) -> np.ndarray:
    """Rows ``[lo, hi)`` of a column: a function's evaluated, an array's sliced."""
    return column(lo, hi) if callable(column) else column[lo:hi]


def _block_slots(columns: list, lo: int, hi: int) -> np.ndarray:
    """The filled slots of rows ``[lo, hi)`` of ``columns``, pairs of a
    column and whether it ends a row, row by row: each value's text, the
    fallback texts put in, and a separator, a newline if it ends a row.
    Each column's block is held only while it is copied into lane 3; a
    function column is evaluated again where Python formats a value."""
    width = len(columns)
    slots = np.empty((_LANES, (hi - lo) * width), "<u8")
    x = slots[3].view(float)  # the values row by row, in the lane that ends the slots
    table = x.reshape(-1, width)
    formats = []
    for j, (column, _) in enumerate(columns):
        block = _rows(column, lo, hi)
        table[:, j] = block
        formats.append("%.17g" if block.dtype.kind == "f" else "%d")
        if formats[j] == "%d":  # below 2**53 the float's '%.17g' text is the integer's '%d'
            values = table[:, j]
            values[np.abs(values) >= 2**53] = np.nan  # formatted in Python
        del block
    exact = _fill_slots(x, slots)
    del x, table
    for j, (_, ends) in enumerate(columns):
        if ends:
            slots[3, j::width] ^= np.uint64(ord(",") ^ ord("\n")) << _SEP_SHIFT
    at = np.flatnonzero(~exact)
    rows, cols = np.divmod(at, width)
    blocks = {j: _rows(columns[j][0], lo, hi) for j in set(cols.tolist())}
    _put_text(slots, at, [formats[j] % blocks[j][i] for i, j in zip(rows.tolist(), cols.tolist())])
    return slots


def _pick(indices: list):
    """The slot columns ``indices`` as a slice where they step evenly
    upward, so a table's slots are a view, else as an array (a gather)."""
    step = indices[1] - indices[0] if len(indices) > 1 else 1
    if step > 0 and indices == list(range(indices[0], indices[-1] + 1, step)):
        return slice(indices[0], indices[-1] + 1, step)
    return np.array(indices)


def save_tables(tables) -> None:
    """Write CSV tables of one row count in one walk of their rows. A table
    is a path, a header and its columns, as a ``*_table`` function builds.
    A column is a 1-D float or integer array, or a function returning its
    rows ``[lo, hi)`` as floats, as a grid does. Every column with a
    length, a grid among them, must have the first table's first column's,
    so that one is not a bare function. Each block formats a column object once, however many
    tables hold it; one that ends a row in some tables and not in others
    is formatted once for each separator."""
    index, distinct, picks = {}, [], []  # (column, ends a row) by first use
    for _, _, columns in tables:
        at = []
        for j, column in enumerate(columns):
            key = id(column), j == len(columns) - 1
            if key not in index:
                index[key] = len(distinct)
                distinct.append((column if callable(column) else np.asarray(column), key[1]))
            at.append(index[key])
        picks.append(_pick(at))
    n = len(distinct[0][0])
    if any(len(c) != n for c, _ in distinct if hasattr(c, "__len__")):
        raise ValueError("CSV columns differ in length")
    for column, _ in distinct:  # every table is refused before a file is opened
        if not (callable(column) or column.dtype.kind in "fiu"):
            raise ValueError(f"cannot write a column of dtype {column.dtype} to CSV")
    width = len(distinct)
    with ExitStack() as stack:
        files = [stack.enter_context(open(Path(path), "wb")) for path, _, _ in tables]
        for fh, (_, header, _) in zip(files, tables):
            fh.write(header.encode() + b"\n")
        for lo, hi in _blocks(n, max(1, _BLOCK_VALUES // width)):
            lanes = _block_slots(distinct, lo, hi).reshape(_LANES, hi - lo, width)
            cuts = [(hi - lo) * k // 4 for k in range(5)]
            for fh, at in zip(files, picks):
                # value by value, a quarter of the rows at a time: translate
                # first makes a result as long as its input, so a quarter's
                # text and its result stay below the fill's scratch
                for rows in map(slice, cuts, cuts[1:]):
                    fh.write(lanes[:, rows, at].transpose(1, 2, 0).tobytes().translate(None, b"\0"))
            del lanes  # not held while the next block's slots are filled


def _row_bound(path) -> int:
    """The lines of a file that hold at least one byte, as universal
    newlines split it: ``\\n``, ``\\r`` and ``\\r\\n`` each end a line, so a
    line end not right after another closes such a line, and so does the
    file's end after a byte that is not one. ``np.loadtxt`` skips an empty
    line, so the rows it reads are at most these. The file is read
    unbuffered into one reused buffer of ``_COUNT_BYTES``, whose bytes,
    once their line ends are found, are the comparison's scratch."""
    lines, after_end = 0, True  # the file's first byte starts a line
    with open(Path(path), "rb", buffering=0) as fh:
        buffer = bytearray(min(_COUNT_BYTES, os.fstat(fh.fileno()).st_size))
        data = np.frombuffer(buffer, np.uint8)
        scratch, ends = data.view(bool), np.empty(data.size, bool)
        while size := fh.readinto(buffer):
            end = np.equal(data[:size], 10, out=ends[:size])
            end |= np.equal(data[:size], 13, out=scratch[:size])
            lines += np.count_nonzero(np.greater(end[1:], end[:-1], out=scratch[: size - 1]))
            lines += bool(end[0]) and not after_end
            after_end = bool(end[-1])
    return lines + (not after_end)


def _read_columns(path, expected_header: str) -> tuple:
    """The grid inferred from the first column of a CSV whose header must
    match exactly, followed by each further column: for a two-column file
    one owned, read-only array, the body the file was read into."""
    with open(Path(path), encoding="utf-8-sig") as fh:
        header = fh.readline().strip()
    del fh  # its buffers are not held through the read
    if header != expected_header:
        raise ValueError(f"unexpected header {header!r} in {path}, expected {expected_header!r}")
    try:
        # an empty body is reported just below, so numpy's warnings of an
        # empty body or line are not
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            warnings.filterwarnings("ignore", r"Input line \d+ contained no data", UserWarning)
            # numpy opens the path itself, faster than a handle; '#' starts
            # no comment; the bound on the rows lets it allocate them once
            body = np.loadtxt(
                path, delimiter=",", skiprows=1, encoding="utf-8-sig", ndmin=2, comments=None,
                max_rows=_row_bound(path) - 1,
            )
    except ValueError as exc:
        raise ValueError(f"malformed CSV body in {path}: {exc}") from exc
    if body.size == 0:
        raise ValueError(f"{path} contains no data rows")
    columns = expected_header.count(",") + 1
    if body.shape[1] != columns:
        raise ValueError(f"{path}: expected {columns} columns, found {body.shape[1]}")
    grid = infer_grid(body[:, 0])
    # each row's other values move forward over its grid value, a block of
    # rows at a time (no destination passes its source), and the body
    # shrinks in place: resize refuses while a view of it is alive
    rows, width = body.shape[0], columns - 1
    flat = body.reshape(-1)
    for lo, hi in _blocks(rows):
        rest = flat[lo * columns : hi * columns].reshape(-1, columns)[:, 1:]
        flat[lo * width : hi * width].reshape(-1, width)[:] = rest
    del flat, rest
    body.resize(rows if width == 1 else (rows, width))
    body.setflags(write=False)
    return (grid, body) if width == 1 else (grid, *body.T)


def spectrum_table(path, spectrum: SumFrequencySpectrum) -> tuple:
    return path, "nu_thz,weight", (spectrum.grid, spectrum.weights)


def interferogram_table(path, interferogram: Interferogram) -> tuple:
    return path, "t_ps,p", (interferogram.grid, interferogram.values)


def correlation_table(path, interferogram: Interferogram) -> tuple:
    """The ``trace.csv`` table of ``interferogram``'s G = 2P - 1, without
    its trace: like the grid, G is made one block of rows at a time."""
    p = interferogram.values
    return path, "t_ps,g", (interferogram.grid, lambda lo, hi: _correlation(p[lo:hi]))


def trace_table(path, trace: CorrelationTrace) -> tuple:
    return path, "t_ps,g", (trace.grid, trace.values)


def counts_table(path, counts: CountData) -> tuple:
    """The ``counts.csv`` table, whose pairs_sent column repeats the one
    number of pairs, made one block of rows at a time."""
    pairs = lambda lo, hi: np.full(hi - lo, counts.pairs)
    return path, "t_ps,coincidences,pairs_sent", (counts.grid, counts.coincidences, pairs)


def write_spectrum_csv(path, spectrum: SumFrequencySpectrum) -> None:
    save_tables([spectrum_table(path, spectrum)])


def read_spectrum_csv(path) -> SumFrequencySpectrum:
    return SumFrequencySpectrum(*_read_columns(path, "nu_thz,weight"))


def read_trace_csv(path) -> CorrelationTrace:
    return CorrelationTrace(*_read_columns(path, "t_ps,g"))


def write_recovered_csv(path, grid: FrequencyGrid, amplitudes) -> None:
    """``recovered.csv`` of the complex ``amplitudes`` on ``grid``, a column:
    an array, or a function of a row range, as ``recover`` passes the
    mirror of its half spectrum. Like the grid, each of the three columns
    made from it is made one block of rows at a time. np.hypot equals
    scalar abs(complex) bit for bit; np.abs's SIMD loop does not."""
    if not callable(amplitudes) and len(amplitudes) != grid.count:
        raise ValueError("CSV columns differ in length")

    def part(name: str):
        return lambda lo, hi: getattr(_rows(amplitudes, lo, hi), name)

    def modulus(lo: int, hi: int) -> np.ndarray:
        z = _rows(amplitudes, lo, hi)
        return np.hypot(z.real, z.imag)

    columns = (grid, modulus, part("real"), part("imag"))
    save_tables([(path, "nu_thz,amplitude_abs,amplitude_re,amplitude_im", columns)])


def write_json(path, doc) -> None:
    """``doc`` as JSON indented by 2, with a final newline."""
    with open(Path(path), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_counts_csv(path) -> CountData:
    """The counts of ``counts.csv``, whose pairs_sent column must hold one number."""
    grid, coincidences, pairs = _read_columns(path, "t_ps,coincidences,pairs_sent")
    if np.any(pairs != pairs[0]):
        raise ValueError(f"{path}: pairs_sent must hold one value, found {np.unique(pairs).size}")
    return CountData(grid, coincidences, float(pairs[0]))


def write_scaling_csv(path, study: ScalingStudy) -> None:
    columns = (study.n_trials, study.std_height, study.std_center)
    save_tables([(path, "n_trials,std_height,std_center", columns)])
