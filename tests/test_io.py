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
from conftest import centered_time_grid


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
    io.write_trace_csv(path, trace)
    assert path.read_text().splitlines()[0] == "t_ps,g"
    back = io.read_trace_csv(path)
    assert back.grid.count == 128
    np.testing.assert_array_equal(back.values, trace.values)


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


def test_interferogram_header(tmp_path, spectrum):
    tg = centered_time_grid(5e-4, 64)
    p = simulate_interferogram(spectrum, tg)
    path = tmp_path / "interferogram.csv"
    io.write_interferogram_csv(path, p)
    lines = path.read_text().splitlines()
    assert lines[0] == "t_ps,p"
    assert len(lines) == 65


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
    io.write_counts_csv(path, counts)
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
    io.write_counts_csv(path, counts)
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


BLOCK = io._BLOCK_ROWS
TINY = sys.float_info.min * sys.float_info.epsilon  # smallest subnormal
SPECIAL_FLOATS = [
    0.0, -0.0, TINY, -TINY, sys.float_info.min / 3, -sys.float_info.min,
    sys.float_info.max, -sys.float_info.max, float("inf"), float("-inf"), float("nan"),
]
SPECIAL_INTS = [0, -1, 2**53 + 1, 2**63 - 1, -(2**63)]  # beyond 17 digits or a float's 53 bits


@st.composite
def csv_columns(draw):
    """1 to 4 mixed float64/int64 columns of one length around the block size.

    Each column repeats a drawn pool of values in a drawn order, so special
    values land anywhere in the rows, block edges included.
    """
    n = draw(st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]))
    kinds = draw(st.lists(st.sampled_from(["float", "int"]), min_size=1, max_size=4))
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
    for i in range(len(columns[0])):
        lines.append(",".join(cell[k](c[i]) for k, c in zip(kinds, columns)))
    return "\n".join(lines) + "\n"


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(csv_columns())
def test_write_columns_equals_per_row_format(tmp_path, drawn):
    kinds, columns = drawn
    header = ",".join(f"c{j}" for j in range(len(kinds)))
    path = tmp_path / "columns.csv"
    io._write_columns(path, header, columns)
    assert path.read_bytes() == per_row_oracle(header, kinds, columns).encode()


def test_write_columns_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError, match="length"):
        io._write_columns(tmp_path / "x.csv", "a,b", ([1.0, 2.0], [1.0]))


@pytest.mark.parametrize("column", [[1j, 2j], [True, False], ["a", "b"]])
def test_write_columns_refuses_other_dtypes(tmp_path, column):
    with pytest.raises(ValueError, match="cannot write a column of dtype"):
        io._write_columns(tmp_path / "x.csv", "a,b", ([1.0, 2.0], column))


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
    "spectrum": (io.write_spectrum_csv, io.read_spectrum_csv, ("weights",)),
    "trace": (io.write_trace_csv, io.read_trace_csv, ("values",)),
    "counts": (io.write_counts_csv, io.read_counts_csv, ("coincidences", "pairs_sent")),
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
    write, read, columns = ROUND_TRIP[kind]
    path = tmp_path / f"{kind}.csv"
    write(path, series)
    back = read(path)
    # the read-back grid has the written points bit for bit, though a
    # neighbouring step may give the same points
    assert back.grid.start == series.grid.start and back.grid.count == series.grid.count
    assert back.grid.values.tobytes() == series.grid.values.tobytes()
    for column in columns:
        assert getattr(back, column).tobytes() == getattr(series, column).tobytes()
