import json
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings, strategies as st

from noonspec import (
    CorrelationTrace,
    CountData,
    NonUniformGridError,
    RecoveredSpectrum,
    FrequencyGrid,
    Interferogram,
    ScalingStudy,
    SumFrequencySpectrum,
    TimeGrid,
    UniformGrid,
    correlation_trace,
    gaussian_pump_spectrum,
    make_frequency_grid,
    simulate_interferogram,
)
from noonspec import io
from conftest import centered_time_grid, peak_above_inputs


@pytest.fixture
def spectrum():
    return gaussian_pump_spectrum(make_frequency_grid(739.8, 0.002, 301), 740.1, 0.1)


def test_spectrum_roundtrip(tmp_path, spectrum):
    path = tmp_path / "spectrum.csv"
    io.write_spectrum_csv(path, spectrum)
    header = path.read_text().splitlines()[0]
    assert header == "nu_thz,weight"
    back = io.read_spectrum_csv(path)
    assert back.grid.start == spectrum.grid.start
    assert back.grid.count == spectrum.grid.count
    assert back.grid.step == pytest.approx(spectrum.grid.step, rel=1e-12)
    np.testing.assert_array_equal(back.weights, spectrum.weights)


def test_trace_roundtrip(tmp_path, spectrum):
    tg = centered_time_grid(5e-4, 128)
    trace = correlation_trace(simulate_interferogram(spectrum, tg))
    path = tmp_path / "trace.csv"
    io.save_tables([io.trace_table(path, trace)])
    assert path.read_text().splitlines()[0] == "t_ps,g"
    back = io.read_trace_csv(path)
    assert back.grid.count == 128
    np.testing.assert_array_equal(back.values, trace.values)
    bom = tmp_path / "bom.csv"  # a byte-order mark, as spreadsheet tools save a CSV
    bom.write_bytes("\ufeff".encode() + path.read_bytes())
    back_bom = io.read_trace_csv(bom)
    assert back_bom.grid == back.grid
    np.testing.assert_array_equal(back_bom.values, trace.values)


@pytest.mark.parametrize("rows", [2, 2729, 2730, 2731, 8193])
def test_simulated_trace_csv_has_the_bytes_of_the_trace_csv(tmp_path, rows):
    # G made a block of rows at a time from P, across the 2,730-row blocks
    # of the walk of interferogram.csv and trace.csv (t, P and G); P = 0
    # and 1 give G = -1 and +1
    assert io._BLOCK_VALUES // 3 == 2730
    p = np.random.default_rng(rows).uniform(0.0, 1.0, rows)
    p[::5], p[1::5] = 0.0, 1.0
    interferogram = Interferogram(centered_time_grid(5e-4, rows), p)
    io.save_tables(
        [io.interferogram_table(tmp_path / "interferogram.csv", interferogram),
         io.correlation_table(tmp_path / "trace.csv", interferogram)]
    )
    io.save_tables([io.trace_table(tmp_path / "g.csv", correlation_trace(interferogram))])
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "g.csv").read_bytes()
    io.save_tables([(tmp_path / "p.csv", "t_ps,p", (interferogram.grid, p))])
    assert (tmp_path / "interferogram.csv").read_bytes() == (tmp_path / "p.csv").read_bytes()


def test_trace_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,signal\n0,1\n")
    with pytest.raises(ValueError):
        io.read_trace_csv(path)


def test_trace_malformed_body(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t_ps,g\n0.0,oops\n")
    with pytest.raises(ValueError):
        io.read_trace_csv(path)


def test_blank_body_lines_are_skipped(tmp_path):
    rows = [f"{i * 0.001!r},{0.5 - 0.1 * i!r}" for i in range(4)]
    clean, blank = tmp_path / "clean.csv", tmp_path / "blank.csv"
    clean.write_text("t_ps,g\n" + "\n".join(rows) + "\n")
    blank.write_text("t_ps,g\n\n" + "\n\n".join(rows) + "\n\n\r\n")
    a, b = io.read_trace_csv(clean), io.read_trace_csv(blank)
    assert a.grid == b.grid and np.array_equal(a.values, b.values)


def test_body_wider_than_header_rejected(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("nu_thz,weight\n740.0,1.0,9\n740.5,2.0,9\n")
    with pytest.raises(ValueError, match="expected 2 columns, found 3"):
        io.read_spectrum_csv(path)


def test_trace_non_uniform_grid(tmp_path):
    path = tmp_path / "jagged.csv"
    path.write_text("t_ps,g\n0.0,0.1\n0.1,0.2\n0.3,0.3\n")
    with pytest.raises(NonUniformGridError):
        io.read_trace_csv(path)


def test_table_headers(tmp_path, spectrum):
    tg = centered_time_grid(5e-4, 64)
    p = simulate_interferogram(spectrum, tg)
    counts = CountData(tg, np.arange(64), np.full(64, 100))
    io.save_tables([io.spectrum_table(tmp_path / "spectrum.csv", spectrum)])
    io.save_tables(
        [io.interferogram_table(tmp_path / "interferogram.csv", p),
         io.correlation_table(tmp_path / "trace.csv", p),
         io.counts_table(tmp_path / "counts.csv", counts),
         io.trace_table(tmp_path / "trace_estimated.csv", correlation_trace(p))]
    )
    headers = {
        "spectrum.csv": ("nu_thz,weight", 302),
        "interferogram.csv": ("t_ps,p", 65),
        "trace.csv": ("t_ps,g", 65),
        "counts.csv": ("t_ps,coincidences,pairs_sent", 65),
        "trace_estimated.csv": ("t_ps,g", 65),
    }
    for name, (header, lines) in headers.items():
        text = (tmp_path / name).read_text().splitlines()
        assert text[0] == header and len(text) == lines


def test_recovered_csv_columns(tmp_path):
    grid = FrequencyGrid(-1.0, 1.0, 3)
    rec = RecoveredSpectrum(grid, np.array([1 - 2j, 3 + 0j, 1 + 2j]))
    path = tmp_path / "recovered.csv"
    io.write_recovered_csv(path, rec)
    lines = path.read_text().splitlines()
    assert lines[0] == "nu_thz,amplitude_abs,amplitude_re,amplitude_im"
    row = lines[1].split(",")
    assert float(row[1]) == pytest.approx(abs(1 - 2j))
    assert float(row[3]) == pytest.approx(-2.0)


def test_json_artifact_bytes(tmp_path):
    path = tmp_path / "peaks.json"
    doc = [{"center_thz": 740.25, "height": 1.5, "fwhm_thz": 0.1, "kind": "peak"}]
    io.write_json(path, doc)
    assert path.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode()


def test_counts_roundtrip(tmp_path):
    counts = CountData(TimeGrid(-0.5, 0.5, 3), [3, 7, 10], [10, 10, 10])
    path = tmp_path / "counts.csv"
    io.save_tables([io.counts_table(path, counts)])
    assert path.read_text().splitlines()[0] == "t_ps,coincidences,pairs_sent"
    back = io.read_counts_csv(path)
    assert back.grid == counts.grid
    for column in ("coincidences", "pairs_sent"):
        np.testing.assert_array_equal(getattr(back, column), getattr(counts, column))


def test_non_uniform_counts_csv_rejected(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("t_ps,coincidences,pairs_sent\n0.0,1,10\n0.1,1,10\n0.3,1,10\n")
    with pytest.raises(NonUniformGridError):
        io.read_counts_csv(path)


def test_counts_columns_written_as_rows(tmp_path):
    counts = CountData(TimeGrid(-0.5, 0.75, 2), [3, 1000], [10, 2**31])
    path = tmp_path / "counts.csv"
    io.save_tables([io.counts_table(path, counts)])
    assert path.read_text().splitlines()[1:] == ["-0.5,3,10", "0.25,1000,2147483648"]
    back = io.read_counts_csv(path)
    assert back.coincidences.dtype == back.pairs_sent.dtype == np.int64
    assert len(back) == 2


def test_counts_fractional_count_rejected(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("t_ps,coincidences,pairs_sent\n0,3.5,10\n0.5,1,10\n")
    with pytest.raises(ValueError, match="coincidences"):
        io.read_counts_csv(path)


def test_scaling_csv(tmp_path):
    study = ScalingStudy([1000, 10000], [0.01, 0.003], [0.002, 0.0007])
    path = tmp_path / "scaling.csv"
    io.write_scaling_csv(path, study)
    lines = path.read_text().splitlines()
    assert lines[0] == "n_trials,std_height,std_center"
    assert lines[1].startswith("1000,")
    assert len(lines) == 3


def test_float_format_roundtrips_exactly(tmp_path):
    # 17 significant digits survive a write/read cycle bit-for-bit
    value = 1.0 / 3.0
    grid = make_frequency_grid(value, 0.1, 2)
    spec_w = np.array([value, 2 * value])
    from noonspec import SumFrequencySpectrum

    spec = SumFrequencySpectrum(grid, spec_w)
    path = tmp_path / "exact.csv"
    io.write_spectrum_csv(path, spec)
    back = io.read_spectrum_csv(path)
    assert back.grid.start == value
    assert back.weights[0] == value


BLOCK = io._BLOCK_VALUES
BLOCKS = [1, 7, BLOCK]  # blocks of one row, of a few rows, the default
TINY = sys.float_info.min * sys.float_info.epsilon  # smallest subnormal
SPECIAL_FLOATS = [
    0.0, -0.0, TINY, -TINY, sys.float_info.min / 3, -sys.float_info.min,
    sys.float_info.max, -sys.float_info.max, float("inf"), float("-inf"), float("nan"),
]
SPECIAL_INTS = [0, -1, 2**53 + 1, 2**63 - 1, -(2**63)]  # beyond 17 digits or a float's 53 bits


@st.composite
def csv_columns(draw, block):
    """1 to 4 mixed float64/int64 columns whose rows number around
    multiples of the rows in a block, so the last block may be partial.

    Each column repeats a drawn pool of values in a drawn order, so special
    values land anywhere in the rows, block edges included.
    """
    kinds = draw(st.lists(st.sampled_from(["float", "int"]), min_size=1, max_size=4))
    rows = max(1, block // len(kinds))  # the whole rows in a block
    n = draw(st.sampled_from([1, max(rows - 1, 1), rows, rows + 1, 2 * rows + 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in kinds:
        if kind == "float":
            values = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(width=64))
            pool = np.array(draw(st.lists(values, min_size=1, max_size=12)), dtype=float)
        else:
            values = st.one_of(st.sampled_from(SPECIAL_INTS), st.integers(-(2**63), 2**63 - 1))
            pool = np.array(draw(st.lists(values, min_size=1, max_size=12)), dtype=np.int64)
        columns.append(pool[rng.integers(0, pool.size, n)])
    return kinds, columns


def per_row_oracle(header, kinds, columns):
    """The CSV as a per-value writer formats it: ``.17g`` floats, ``str`` integers."""
    cell = {"float": lambda x: format(float(x), ".17g"), "int": lambda x: str(int(x))}
    lines = [header]
    for row in zip(*(c.tolist() for c in columns)):
        lines.append(",".join(cell[k](v) for k, v in zip(kinds, row)))
    return "\n".join(lines) + "\n"


def percent_oracle(header, columns):
    """The CSV of float columns with each value written by ``'%.17g' % x``."""
    lines = [",".join("%.17g" % v for v in row) for row in zip(*(c.tolist() for c in columns))]
    return "\n".join([header, *lines, ""]).encode()


def test_power_table_is_correctly_rounded():
    from fractions import Fraction

    tables = zip(io._TEN_HI.tolist(), io._TEN_LO.tolist(), io._AT_LEAST.tolist())
    for i, (hi, lo, at_least) in enumerate(tables):
        exact = Fraction(10) ** (io._POW_LOW + i)
        assert hi == float(exact)
        assert lo == float(exact - Fraction(hi))
        # the least double at or above the power: the bound of its decade
        assert Fraction(at_least) >= exact > Fraction(np.nextafter(at_least, 0))


def test_scale_index_is_the_exact_decade():
    # the binade tables give X = floor(log10 |x|) with no rounding, on both
    # sides of every power of ten the numpy path formats
    powers = io._AT_LEAST[: 281 - io._POW_LOW]
    x = np.concatenate([powers, np.nextafter(powers, 0)])
    x = x[(x >= 1 / io._EXACT_MAX) & (x <= io._EXACT_MAX)]
    decade = np.searchsorted(io._AT_LEAST, x, "right") - 1 + io._POW_LOW
    q = io._scale_index(x, np.empty(x.size, np.int64), np.empty(x.size))
    assert np.array_equal(q + io._POW_LOW, 16 - decade)


def test_write_columns_random_bit_patterns(tmp_path):
    # every class of double: nan, inf, subnormal, zero, both signs, all exponents
    bits = np.random.default_rng(20261019).integers(0, 2**64, 2**18, dtype=np.uint64)
    columns = list(bits.view(np.float64).reshape(2, -1))
    path = tmp_path / "bits.csv"
    io.save_tables([(path, "a,b", columns)])
    assert path.read_bytes() == percent_oracle("a,b", columns)


def edge_floats():
    """Exact ties at the 17th digit, both neighbours of every power of ten
    (1e-280 and 1e280 bound the numpy path), zeros, subnormals, non-finite."""
    k = np.random.default_rng(5).integers(2**50, 2**51, 300).astype(float)  # 16 digits
    ties = np.concatenate([k + 0.25, k + 0.75])  # 18 digits ending in 5
    powers = np.array([float(f"1e{p}") for p in range(-300, 301)])
    near = np.concatenate([np.nextafter(powers, 0), powers, np.nextafter(powers, np.inf)])
    special = [0.0, TINY, 3 * TINY, sys.float_info.min / 3, sys.float_info.min,
               sys.float_info.max, float("inf"), float("nan")]
    values = np.concatenate([ties, near, special])
    return np.concatenate([values, -values])


@pytest.mark.parametrize("block", BLOCKS)
def test_write_columns_edge_values_at_any_block_size(tmp_path, monkeypatch, block):
    monkeypatch.setattr(io, "_BLOCK_VALUES", block)
    values = edge_floats()
    columns = [values, values[::-1].copy()]
    path = tmp_path / "edges.csv"
    io.save_tables([(path, "a,b", columns)])
    assert path.read_bytes() == percent_oracle("a,b", columns)


@pytest.mark.parametrize("block", BLOCKS)
def test_grid_column_writes_the_bytes_of_its_values(tmp_path, monkeypatch, block):
    # a grid is evaluated one block of rows at a time, never as a whole axis
    monkeypatch.setattr(io, "_BLOCK_VALUES", block)
    grid = UniformGrid(-739.8, 0.0021, 1001)
    weights = np.random.default_rng(block).normal(size=grid.count)
    io.save_tables([(tmp_path / "grid.csv", "a,b,c", (grid, weights, grid))])
    io.save_tables([(tmp_path / "values.csv", "a,b,c", (grid.values, weights, grid.values))])
    assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "values.csv").read_bytes()


def test_write_columns_memory_does_not_grow_with_rows(tmp_path):
    # the writer holds one block at a time, so its peak above its inputs is
    # the same for a 2**14- and a 2**18-row trace
    def peak(rows):
        grid = UniformGrid(-1.0, 2.0 / rows, rows)
        values = np.random.default_rng(rows).normal(size=rows)
        path = tmp_path / "big.csv"
        return peak_above_inputs(lambda: io.save_tables([(path, "t_ps,g", (grid, values))]))

    small, large = peak(2**14), peak(2**18)
    assert large <= small * 1.05 + 4096


def test_recovered_csv_memory_does_not_grow_with_rows(tmp_path):
    # the modulus column is evaluated one block at a time, as the grid is
    def peak(rows):
        rng = np.random.default_rng(rows)
        amp = rng.normal(size=rows) + 1j * rng.normal(size=rows)
        rec = RecoveredSpectrum(FrequencyGrid(-1.0, 2.0 / rows, rows), amp)
        return peak_above_inputs(lambda: io.write_recovered_csv(tmp_path / "recovered.csv", rec))

    small, large = peak(2**14), peak(2**18)
    assert large <= small * 1.05 + 4096


def test_write_columns_peak_on_a_long_trace(tmp_path):
    # a 65,536-row grid and float column written alone: 418,836 bytes above
    # the inputs, pinned plus 8 KiB, the block's slots and the fill's
    # scratch. With fresh arrays at each step of the fill it took 580,878,
    # and the slot-major block with fresh arrays 1,711,766
    grid = UniformGrid(-16.384, 5e-4, 2**16)
    values = np.random.default_rng(7).uniform(0.0, 1.0, grid.count)
    path = tmp_path / "p.csv"
    io.save_tables([(path, "t_ps,p", (grid, values))])
    peak = peak_above_inputs(lambda: io.save_tables([(path, "t_ps,p", (grid, values))]))
    assert peak <= 418_836 + 8192


def test_delay_walk_peak_on_a_long_trace(tmp_path):
    # interferogram.csv and trace.csv on 65,536 delays, one walk of t, P and
    # G = 2P - 1 (made from P a block at a time): 423,456 bytes above the
    # inputs, pinned plus 8 KiB; 598,414 with fresh arrays at each step of
    # the fill. Written one file at a time, trace.csv alone peaked at
    # 614,192; each table's text compacted whole, not by quarters of its
    # rows, took 624,614, as translate's result is first as long as its
    # input and the slots are still held
    p = np.random.default_rng(7).uniform(0.0, 1.0, 2**16)
    interferogram = Interferogram(centered_time_grid(5e-4, p.size), p)
    delays = [
        io.interferogram_table(tmp_path / "interferogram.csv", interferogram),
        io.correlation_table(tmp_path / "trace.csv", interferogram),
    ]
    io.save_tables(delays)
    peak = peak_above_inputs(lambda: io.save_tables(delays))
    assert peak <= 423_456 + 8192


def test_fill_peak_above_its_slots():
    # every array of the block's size and 8-byte values is one of its four
    # slot lanes, but the scale index and _exact_scale's one array: at most
    # 149,696 bytes above the slots and the values, pinned plus 8 KiB. With
    # fresh int64 and float64 arrays at each step the fill took 280,568.
    # The values: uniform on [0, 1), both signs over 10**-300 to 10**300,
    # raw bit patterns (nan, inf and subnormals among them), delays
    rng = np.random.default_rng(11)
    n = io._BLOCK_VALUES
    wide = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
    bits = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
    inputs = [rng.uniform(0.0, 1.0, n), wide, bits, UniformGrid(-16.384, 5e-4, 2**16)(0, n)]
    slots = np.empty((io._LANES, n), "<u8")
    x = slots[3].view(float)  # the values in lane 3, as _block_slots puts them

    def fill(values):
        x[:] = values
        io._fill_slots(x, slots)

    fill(inputs[0])
    assert max(peak_above_inputs(lambda: fill(values)) for values in inputs) <= 149_696 + 8192


def test_block_slots_peak_on_recovered_columns():
    # recovered.csv's four columns, 2048 rows a block: the 262,144 bytes of
    # slots and the fill's scratch; a function column's block (the grid's
    # points, |A|) is not held past its copy into lane 3. At most 411,736
    # bytes, pinned plus 8 KiB; 576,128 while the fill made fresh arrays
    rows = 2**16
    rng = np.random.default_rng(12)
    re, im = rng.normal(size=rows), rng.normal(size=rows)
    grid = FrequencyGrid(-1.0, 2.0 / rows, rows)
    columns = [(grid, False), (lambda lo, hi: np.hypot(re[lo:hi], im[lo:hi]), False)]
    columns += [(re, False), (im, True)]
    step = io._BLOCK_VALUES // len(columns)
    io._block_slots(columns, 0, step)
    peaks = [
        peak_above_inputs(lambda: io._block_slots(columns, lo, lo + step))
        for lo in range(0, rows, 8 * step)
    ]
    assert max(peaks) <= 411_736 + 8192


def walk_tables(rows: int, seed: int) -> list:
    """Tables for one walk: a grid shared by every table, two tables of the
    same column objects, columns that end a row in one table and not in
    another, an integer column, a function column, and the values that
    Python formats (zeros, subnormals, non-finite, 2**53 + 1)."""
    rng = np.random.default_rng(seed)
    grid = UniformGrid(-1.5, 0.003, rows)
    a, b = rng.normal(size=rows), rng.normal(size=rows) * 1e250
    special = np.resize(SPECIAL_FLOATS, rows)
    a[::3] = special[::3]
    n = rng.integers(-(2**62), 2**62, rows)
    n[::4] = np.resize([0, -1, 2**53 + 1, -(2**63)], n[::4].size)
    c = rng.uniform(0.0, 1.0, rows)
    return [
        ("ab.csv", "t,a,b", (grid, a, b)),
        ("ab_again.csv", "t,a,b", (grid, a, b)),  # the same objects as ab.csv
        ("ba.csv", "t,b,a", (grid, b, a)),  # a ends its rows here, b not
        ("counts.csv", "t,n,a", (grid, n, a)),
        ("g.csv", "t,g", (grid, lambda lo, hi: 2.0 * c[lo:hi] - 1.0)),
        ("c.csv", "t,c,n", (grid, c, n)),
    ]


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("rows", [2, 20, 61])
def test_walk_writes_each_tables_own_bytes(tmp_path, monkeypatch, block, rows):
    # 9 distinct (column, ends a row) pairs, more than a 7-value block holds
    monkeypatch.setattr(io, "_BLOCK_VALUES", block)
    formatted, fill = [], io._fill_slots
    monkeypatch.setattr(io, "_fill_slots", lambda x, slots: formatted.append(x.size) or fill(x, slots))
    tables = [(tmp_path / name, header, columns) for name, header, columns in walk_tables(rows, block)]
    io.save_tables(tables)
    assert sum(formatted) == 9 * rows  # each pair once a block, however many tables hold it
    for path, header, columns in tables:
        alone = tmp_path / f"alone-{path.name}"
        io.save_tables([(alone, header, columns)])
        assert path.read_bytes() == alone.read_bytes(), path.name


@pytest.mark.parametrize("preset, values", [("tpa3", 3 * 65_536 + 3 * 1_501), ("noise-gauss", 6 * 4_096 + 2 * 1_001)])
def test_simulate_formats_each_shared_column_once(tmp_path, monkeypatch, preset, values):
    # tpa3: t, P and G on the delays, nu and both spectra's weights on the
    # pump grid (268,148 values written one file at a time); noise-gauss
    # adds both counts and G_hat, and without a sample both spectra are one
    # object (40,868 one file at a time)
    from noonspec.cli import main

    formatted, fill = [], io._fill_slots
    monkeypatch.setattr(io, "_fill_slots", lambda x, slots: formatted.append(x.size) or fill(x, slots))
    assert main(["simulate", "--preset", preset, "--out", str(tmp_path)]) == 0
    assert sum(formatted) == values


def test_ordinary_floats_take_the_numpy_path():
    # the Python fallback is for rare values; a writer that sent every value
    # there would pass every oracle above at Python's speed
    x = np.random.default_rng(3).normal(size=4096) * 10.0 ** np.arange(-8, 8).repeat(256)
    slots = np.zeros((io._LANES, x.size), "<u8")
    assert io._fill_slots(x, slots).mean() > 0.99


def test_ordinary_integers_take_the_numpy_path(tmp_path, monkeypatch):
    # below 2**53 an integer's '%d' text is its float's '%.17g' text, so an
    # integer column reaches Python's '%' only for rare values; a power of
    # ten, such as the noise preset's constant pairs_sent, is not rare
    rows = 65536
    rng = np.random.default_rng(4)
    pairs = rng.integers(1, 2**31, rows, endpoint=True)
    pairs[::2] = 1000
    counts = CountData(TimeGrid(0.5, 0.25, rows), rng.integers(1, pairs, endpoint=True), pairs)
    handed, put_text = [], io._put_text

    def spy(slots, at, texts):
        handed.extend(texts)
        put_text(slots, at, texts)

    monkeypatch.setattr(io, "_put_text", spy)
    path = tmp_path / "counts.csv"
    io.save_tables([io.counts_table(path, counts)])
    assert handed == []
    columns = [counts.grid.values, counts.coincidences, counts.pairs_sent]
    header = "t_ps,coincidences,pairs_sent"
    assert path.read_text() == per_row_oracle(header, ["float", "int", "int"], columns)


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@pytest.mark.parametrize("block", BLOCKS)
@given(data=st.data())
def test_write_columns_equals_per_row_format(tmp_path, monkeypatch, block, data):
    monkeypatch.setattr(io, "_BLOCK_VALUES", block)
    kinds, columns = data.draw(csv_columns(block))
    header = ",".join(f"c{j}" for j in range(len(kinds)))
    path = tmp_path / "columns.csv"
    io.save_tables([(path, header, columns)])
    assert path.read_bytes() == per_row_oracle(header, kinds, columns).encode()


def test_write_columns_rejects_ragged_columns(tmp_path):
    grid = UniformGrid(0.0, 1.0, 3)
    good = (tmp_path / "good.csv", "a,b", ([1.0, 2.0], [3.0, 4.0]))
    # a grid is called for its rows, but its length is checked like an array's
    for columns in (([1.0, 2.0], [1.0]), (grid, [1.0, 2.0]), ([1.0, 2.0], grid)):
        # alone, or after a table of the right length: no table is written
        for tables in ([(tmp_path / "x.csv", "a,b", columns)], [good, (tmp_path / "x.csv", "a,b", columns)]):
            with pytest.raises(ValueError, match="length"):
                io.save_tables(tables)
            assert not (tmp_path / "x.csv").exists() and not (tmp_path / "good.csv").exists()


@pytest.mark.parametrize("column", [[1j, 2j], [True, False], ["a", "b"]])
def test_write_columns_refuses_other_dtypes(tmp_path, column):
    good = (tmp_path / "good.csv", "a,b", ([1.0, 2.0], [3.0, 4.0]))
    bad = (tmp_path / "x.csv", "a,b", ([1.0, 2.0], column))
    for tables in ([bad], [good, bad]):
        with pytest.raises(ValueError, match="cannot write a column of dtype"):
            io.save_tables(tables)
        assert not (tmp_path / "x.csv").exists() and not (tmp_path / "good.csv").exists()


def test_recovered_abs_equals_scalar_complex_abs(tmp_path):
    # np.abs on a complex array takes a SIMD path that is an ulp off scalar
    # abs() on about a third of ordinary draws on AVX-512 machines; the
    # column must match Python's abs(complex) bit for bit
    rng = np.random.default_rng(20250808)
    m = 512

    def extreme():  # random signs, magnitudes from the smallest subnormal to 2**1021
        return rng.choice([-1.0, 1.0], m) * 2.0 ** rng.uniform(-1074, 1021, m)

    amp = np.concatenate(
        [
            rng.normal(size=m) + 1j * rng.normal(size=m),
            extreme() + 1j * extreme(),
            [0j, complex(-0.0, -0.0), TINY + 0j, complex(3e-310, -4e-310), complex(1e307, 1e307)],
        ]
    )
    rec = RecoveredSpectrum(FrequencyGrid(-1.0, 2.0 / amp.size, amp.size), amp)
    path = tmp_path / "recovered.csv"
    io.write_recovered_csv(path, rec)
    body = np.loadtxt(path, delimiter=",", skiprows=1)
    expected = np.array([abs(complex(z)) for z in amp])
    assert np.array_equal(body[:, 1], expected)
    assert np.array_equal(body[:, 2], amp.real) and np.array_equal(body[:, 3], amp.imag)


@st.composite
def written_series(draw):
    """A grid the type accepts and one column set on it.

    Starts and steps are any finite floats, binary ones included, or
    ones near a pump band or a delay window; a seed fills the columns.
    """
    start = draw(st.one_of(
        st.floats(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False)
    ))
    step = draw(st.one_of(
        st.floats(1e-6, 10.0), st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    ))
    count = draw(st.integers(2, 2000))
    try:
        grid = UniformGrid(start, step, count)
    except ValueError:
        reject()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["spectrum", "trace", "counts"]))
    if kind == "spectrum":
        weights = rng.random(count) * 10.0 ** rng.integers(-300, 300, count)
        weights[rng.integers(0, count, 2)] = -0.0, 5e-324
        return kind, SumFrequencySpectrum(grid, weights)
    if kind == "trace":
        return kind, CorrelationTrace(grid, rng.uniform(-1.0, 1.0, count))
    pairs = rng.integers(1, 2**53, count, endpoint=True)
    return kind, CountData(grid, rng.integers(0, pairs, endpoint=True), pairs)


ROUND_TRIP = {
    "spectrum": (io.spectrum_table, io.read_spectrum_csv, ("weights",)),
    "trace": (io.trace_table, io.read_trace_csv, ("values",)),
    "counts": (io.counts_table, io.read_counts_csv, ("coincidences", "pairs_sent")),
}


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.filter_too_much],
)
@given(written_series())
def test_written_series_reads_back_on_the_same_points(tmp_path, drawn):
    kind, series = drawn
    table, read, columns = ROUND_TRIP[kind]
    path = tmp_path / f"{kind}.csv"
    io.save_tables([table(path, series)])
    back = read(path)
    # the read-back grid has the written points bit for bit, though a
    # neighbouring step may give the same points
    assert back.grid.start == series.grid.start and back.grid.count == series.grid.count
    assert back.grid.values.tobytes() == series.grid.values.tobytes()
    for column in columns:
        assert getattr(back, column).tobytes() == getattr(series, column).tobytes()
