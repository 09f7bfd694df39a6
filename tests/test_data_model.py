"""Windowing, standardization, and CSV ingestion."""
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorspec import (
    ModelDensityCache,
    RawDataSource,
    RawWindow,
    SearchGrid,
    StandardizedWindow,
    WindowSpec,
    cut_window,
    load_csv,
    standardize,
    sweep,
)
from factorspec import data_model
from factorspec.errors import (
    CsvParseError,
    DegenerateRow,
    DimensionMismatch,
    WindowOutOfRange,
)


@pytest.fixture
def source():
    rng = np.random.default_rng(7)
    return RawDataSource(values=rng.normal(size=(6, 40)))


def test_window_spec_rejects_bad_geometry():
    with pytest.raises(ValueError):
        WindowSpec(N=1, T=250)
    with pytest.raises(ValueError):
        WindowSpec(N=10, T=1)
    with pytest.raises(ValueError):
        WindowSpec(N=10, T=20, stride=0)


@pytest.mark.parametrize("name", ["N", "T", "stride"])
def test_window_spec_refuses_a_size_that_is_not_an_integer(name):
    """N, T and stride are counts, judged by `operator.index` as
    `SearchGrid` judges its counts: 20.5 is refused on construction, naming
    the field, where a sweep would fail with a bare TypeError."""
    with pytest.raises(ValueError, match=rf"{name} = 20\.5 must be an integer"):
        WindowSpec(**{"N": 6, "T": 30, "stride": 1, name: 20.5})


def test_window_spec_stores_a_numpy_size_as_its_int():
    spec = WindowSpec(N=np.int64(6), T=np.int32(30), stride=np.uint8(2))
    assert [type(x) for x in (spec.N, spec.T, spec.stride)] == [int, int, int]
    assert spec == WindowSpec(N=6, T=30, stride=2)


def test_cut_window_block_matches_manual_slice(source):
    spec = WindowSpec(N=6, T=10)
    w = cut_window(source, spec, end_index=25)
    # 1-based inclusive end: samples 16..25 are columns 15..24
    assert np.array_equal(w.values, source.values[:, 15:25])
    assert w.end_index == 25


def test_cut_window_first_and_last_positions(source):
    spec = WindowSpec(N=6, T=10)
    first = cut_window(source, spec, end_index=10)
    assert np.array_equal(first.values, source.values[:, :10])
    last = cut_window(source, spec, end_index=40)
    assert np.array_equal(last.values, source.values[:, 30:])


def test_cut_window_bounds(source):
    spec = WindowSpec(N=6, T=10)
    with pytest.raises(WindowOutOfRange):
        cut_window(source, spec, end_index=9)
    with pytest.raises(WindowOutOfRange):
        cut_window(source, spec, end_index=41)


def test_cut_window_shape_mismatch(source):
    with pytest.raises(DimensionMismatch):
        cut_window(source, WindowSpec(N=5, T=10), end_index=20)


def test_source_rejects_non_finite():
    for value in (np.nan, np.inf, -np.inf):
        bad = np.ones((3, 5))
        bad[1, 2] = value
        with pytest.raises(ValueError):
            RawDataSource(values=bad)


def test_source_names_rows_constant_over_the_record():
    """Constant rows and rows whose range is within SIGMA_FLOOR."""
    values = np.arange(24.0).reshape(4, 6)
    values[0] = 1.0 + 1e-14 * np.arange(6)
    values[1] = 2.5
    values[3] = -1.0
    values[2, 4] = values[2, 3]  # constant only in part of the row
    assert RawDataSource(values=values).constant_rows == (0, 1, 3)


@pytest.mark.filterwarnings("error")
def test_source_takes_row_ranges_past_the_float_limit_without_warning(tmp_path):
    """A range past the largest float is infinite, not constant, and takes
    no overflow warning; a row constant near that limit is still constant."""
    path = tmp_path / "data.csv"
    path.write_text("1e308,-1e308\n2,3\n")
    assert load_csv(path).constant_rows == ()
    values = [[1e308, -1e308, 0.0], [1.7e308, 1.7e308, 1.7e308], [-1.7e308, 0.0, 1.7e308]]
    assert RawDataSource(values=values).constant_rows == (1,)


def test_source_rejects_an_empty_record():
    for values in ([], [[]], np.empty((0, 5))):
        with pytest.raises(DimensionMismatch):
            RawDataSource(values=values)


def test_source_values_are_read_only(source):
    with pytest.raises(ValueError):
        source.values[0, 0] = 99.0


def test_standardize_zero_mean_unit_population_variance():
    """Bit for bit the two-pass z-score, on a window cut from a source (a
    strided view) and on a contiguous array."""
    rng = np.random.default_rng(3)
    w = RawWindow(values=rng.normal(5.0, 3.0, size=(4, 30)), end_index=30)
    s = standardize(w)
    assert np.allclose(s.values.mean(axis=1), 0.0, atol=1e-12)
    # population (ddof=0) variance, not sample variance
    assert np.allclose(s.values.std(axis=1), 1.0, atol=1e-12)
    assert s.end_index == 30
    record = RawDataSource(values=rng.normal(-2.0, 7.0, size=(6, 200)))
    strided = cut_window(record, WindowSpec(N=6, T=50), end_index=130).values
    assert not strided.flags.c_contiguous
    for x in (strided, np.ascontiguousarray(strided), w.values):
        expect = (x - x.mean(1, keepdims=True)) / x.std(1)[:, None]
        assert np.array_equal(standardize(RawWindow(values=x, end_index=50)).values, expect)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [200, 600, 1000])
def test_standardize_takes_a_row_scaled_past_the_float_limit(k):
    """A row times 2**k standardizes to the bits of the unscaled row, with
    no overflow at k = 200 and with its squares past the float limit at 600
    and 1000; the other rows are untouched."""
    x = np.random.default_rng(5).normal(size=(4, 40))
    expect = standardize(RawWindow(values=x, end_index=40)).values
    big = x.copy()
    big[2] = np.ldexp(x[2], k)
    assert np.array_equal(standardize(RawWindow(values=big, end_index=40)).values, expect)


@pytest.mark.filterwarnings("error")
def test_standardize_takes_a_row_at_the_float_limit():
    """A row of +-1.7e308, whose sum passes the float limit, standardizes
    to the bits of that row times 2**-1024."""
    rng = np.random.default_rng(6)
    x = rng.normal(size=(3, 30))
    x[1] = np.where(rng.random(30) < 0.5, -1.7e308, 1.7e308)
    expect = x.copy()
    expect[1] = np.ldexp(x[1], -1024)
    got = standardize(RawWindow(values=x, end_index=30)).values
    assert np.array_equal(got, standardize(RawWindow(values=expect, end_index=30)).values)
    assert np.all(np.isfinite(got))


def test_standardize_constant_row_raises_with_row_index():
    vals = np.random.default_rng(0).normal(size=(4, 20))
    vals[2] = 7.5
    with pytest.raises(DegenerateRow) as err:
        standardize(RawWindow(values=vals, end_index=20))
    assert err.value.row == 2


def test_standardize_refuses_a_row_constant_at_a_large_value():
    """A row constant at 123456.789, or at any of 400 values from [1e4, 1e6],
    has range 0 and raises DegenerateRow naming it; centring it leaves a
    rounding residue far above SIGMA_FLOOR, so a std floor let it through."""
    rng = np.random.default_rng(31)
    vals = rng.normal(size=(3, 250))
    for value in (123456.789, *rng.uniform(1e4, 1e6, size=400)):
        vals[1] = value
        with pytest.raises(DegenerateRow) as err:
            standardize(RawWindow(values=vals, end_index=250))
        assert err.value.row == 1, value


def _row(kind: int, draw: float, noise: np.ndarray) -> np.ndarray:
    """A row of `noise`'s length: a constant 10**k, 1 + 1e-14 * noise, a row
    of +-1.7e308, or an ordinary row, as `kind` is 0, 1, 2 or 3."""
    if kind == 0:
        return np.full(noise.size, 10.0 ** round(draw * 300))
    if kind == 1:
        return 1.0 + 1e-14 * noise
    if kind == 2:
        return np.where(noise < 0, -1.7e308, 1.7e308)
    return draw * 1e3 + noise


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 3), st.floats(-1.0, 1.0), st.integers(0, 2**32 - 1)),
        min_size=2,
        max_size=6,
    ),
    t=st.integers(2, 40),
)
def test_standardize_refuses_a_window_exactly_when_the_source_names_a_flat_row(rows, t):
    """A record one window long: `standardize` raises exactly when the
    source's `constant_rows` is nonempty, and names its first row."""
    source = RawDataSource(
        values=[
            _row(kind, draw, np.random.default_rng(seed).standard_normal(t))
            for kind, draw, seed in rows
        ]
    )
    window = cut_window(source, WindowSpec(N=source.n, T=t), end_index=t)
    if source.constant_rows:
        with pytest.raises(DegenerateRow) as err:
            standardize(window)
        assert err.value.row == source.constant_rows[0]
    else:
        assert np.all(np.isfinite(standardize(window).values))


def test_load_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    data = rng.normal(size=(5, 12))
    path = tmp_path / "data.csv"
    np.savetxt(path, data, delimiter=",")
    src = load_csv(path)
    assert np.allclose(src.values, data)


def test_load_csv_skip_header(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b,c\n1,2,3\n4,5,6\n")
    src = load_csv(path, skip_header=True)
    assert np.array_equal(src.values, [[1, 2, 3], [4, 5, 6]])


def test_load_csv_skips_a_header_longer_than_one_piece(tmp_path, monkeypatch):
    """A header is read piece by piece to its end: no part of it is taken
    for a record line."""
    monkeypatch.setattr(data_model, "_PIECE_CHARS", 4)
    path = tmp_path / "data.csv"
    path.write_text("alpha,beta,gamma\n1,2,3\n4,5,6\n")
    assert np.array_equal(load_csv(path, skip_header=True).values, [[1, 2, 3], [4, 5, 6]])


def test_load_csv_parse_error_locates_cell(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1,2,3\n4,oops,6\n7,8,9\n")
    with pytest.raises(CsvParseError) as err:
        load_csv(path)
    assert (err.value.row, err.value.col) == (2, 2)


def test_load_csv_rejects_non_finite(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1,2\ninf,4\n3,5\n")
    with pytest.raises(CsvParseError):
        load_csv(path)


def test_load_csv_rejects_ragged_rows(tmp_path):
    """The error names the first row whose width differs from the first's."""
    path = tmp_path / "data.csv"
    path.write_text("1,2,3\n4,5\n6,7,8\n")
    with pytest.raises(CsvParseError) as err:
        load_csv(path)
    assert (err.value.row, err.value.col) == (2, 0)
    assert str(err.value) == "ragged row 2: 2 cells, not 3"


def test_load_csv_reads_quoted_cells(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text('"1","2"\n3,4\n')
    assert np.array_equal(load_csv(path).values, [[1, 2], [3, 4]])


def test_load_csv_refuses_spellings_only_python_float_reads(tmp_path):
    """np.loadtxt refuses 1_0, which Python's float reads, and the error
    names it by its row and column."""
    path = tmp_path / "data.csv"
    path.write_text("1_0,2\n3,4\n")
    with pytest.raises(CsvParseError) as err:
        load_csv(path)
    assert (err.value.row, err.value.col, str(err.value)) == (
        1, 1, "unparseable value at row 1, column 1"
    )


@pytest.mark.parametrize("cell", ['"1,5"', '"""2"""', '"1_0"'], ids=["comma", "quotes", "underscore"])
def test_load_csv_names_a_bad_quoted_cell(tmp_path, cell):
    """A quoted cell is judged by what np.loadtxt reads inside its quotes:
    two numbers, a number in quotes and 1_0 are each one bad cell."""
    path = tmp_path / "data.csv"
    path.write_text(f"1,2,3\n4,{cell},6\n")
    with pytest.raises(CsvParseError) as err:
        load_csv(path)
    assert (err.value.row, err.value.col, str(err.value)) == (
        2, 2, "unparseable value at row 2, column 2"
    )


def test_load_csv_is_bit_exact_on_17_digit_values(tmp_path):
    rng = np.random.default_rng(12)
    data = rng.normal(size=(7, 30)) * 10.0 ** np.arange(-3, 4)[:, None]
    path = tmp_path / "data.csv"
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header="h1,h2", comments="")
    assert np.array_equal(load_csv(path, skip_header=True).values, data)


@pytest.mark.parametrize(
    "text, where",
    [
        ("1,2,3\n4,#5,6\n", (2, 2)),  # '#' is a cell, not a comment
        ("1,nan\n3,4\n", (1, 2)),
        ("1,2\n   \n3,4\n", (2, 1)),  # a whitespace-only line is a bad cell
        ("1,2\ninf,4\n3,5\n", (2, 1)),
    ],
)
def test_load_csv_fallback_keeps_located_errors(tmp_path, text, where):
    """A rejected block's first bad cell is named by row, column and a
    message that says whether it is unparseable or non-finite."""
    path = tmp_path / "data.csv"
    path.write_text(text)
    with pytest.raises(CsvParseError) as err:
        load_csv(path)
    row, col = where
    kind = "non-finite" if "nan" in text or "inf" in text else "unparseable"
    assert (err.value.row, err.value.col, str(err.value)) == (
        row, col, f"{kind} value at row {row}, column {col}"
    )


@pytest.mark.parametrize("cell, kind", [("x", "unparseable"), ("nan", "non-finite")])
def test_load_csv_names_a_bad_cell_in_the_last_row(tmp_path, cell, kind):
    """A bad cell in the last of 3000 rows, under a header, is named by its
    row and column."""
    rows = ["a,b,c,d"] + [f"{i},1.5,2.5,3.5" for i in range(3000)]
    rows[-1] = f"7,8,{cell},9"
    path = tmp_path / "data.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(CsvParseError) as err:
        load_csv(path, skip_header=True)
    assert (err.value.row, err.value.col, str(err.value)) == (
        3001, 3, f"{kind} value at row 3001, column 3"
    )


@pytest.mark.parametrize("skip_header", [False, True])
def test_load_csv_drops_a_leading_byte_order_mark(tmp_path, skip_header):
    text = b"1,2,3\n4,5,6\n7,8,9\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    expect = load_csv(plain, skip_header=skip_header).values
    assert np.array_equal(load_csv(marked, skip_header=skip_header).values, expect)


@pytest.mark.parametrize(
    "text, where",
    [
        (b"1,2\n\xef\xbb\xbf3,4\n", (2, 1)),
        (b"1,\xef\xbb\xbf2\n3,4\n", (1, 2)),
        (b"\xef\xbb\xbf\xef\xbb\xbf1,2\n3,4\n", (1, 1)),  # only the first mark goes
    ],
)
def test_load_csv_takes_a_byte_order_mark_elsewhere_as_a_bad_cell(tmp_path, text, where):
    path = tmp_path / "data.csv"
    path.write_bytes(text)
    with pytest.raises(CsvParseError) as err:
        load_csv(path)
    row, col = where
    assert (err.value.row, err.value.col, str(err.value)) == (
        row, col, f"unparseable value at row {row}, column {col}"
    )


def test_load_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1,2\n\n3,4\n\n")
    assert np.array_equal(load_csv(path).values, [[1, 2], [3, 4]])


def test_load_csv_refuses_an_empty_file_without_warning(tmp_path, recwarn):
    path = tmp_path / "data.csv"
    path.write_text("\n")
    with pytest.raises(DimensionMismatch):
        load_csv(path)
    assert not recwarn.list


def test_raw_data_source_adopts_only_a_read_only_float64_input():
    """A writable input is copied, a read-only float64 one is shared, and a
    read-only one of another dtype is copied; the source is read-only, and
    a later write to the caller's array does not show in it."""
    writable = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    frozen = writable.copy()
    frozen.setflags(write=False)
    frozen32 = frozen.astype(np.float32)
    frozen32.setflags(write=False)
    for data, shared in ((writable, False), (frozen, True), (frozen32, False)):
        values = RawDataSource(values=data).values
        assert np.shares_memory(values, data) == shared
        assert values.dtype == np.float64 and not values.flags.writeable
        assert np.array_equal(values, data)
    expect = writable.copy()
    values = RawDataSource(values=writable).values
    writable += 1.0
    assert np.array_equal(values, expect)


def test_windows_freeze_their_values_as_a_source_does():
    """Both window types keep the source's rule: a read-only float64 block
    is shared, anything else is copied to a read-only float64 array."""
    writable = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    frozen = writable.copy()
    frozen.setflags(write=False)
    frozen32 = frozen.astype(np.float32)
    frozen32.setflags(write=False)
    for cls in (RawWindow, StandardizedWindow):
        for data, shared in ((writable, False), (frozen, True), (frozen32, False)):
            values = cls(values=data, end_index=4).values
            assert np.shares_memory(values, data) == shared
            assert values.dtype == np.float64 and not values.flags.writeable
            assert np.array_equal(values, data)
        values = cls(values=writable.tolist(), end_index=4).values
        assert np.array_equal(values, writable) and not values.flags.writeable


def test_only_a_copied_record_is_mapped(monkeypatch):
    """A read-only float64 record is adopted without a map, any other record
    is copied into exactly one, a window's copy stays on the heap, and a
    sweep over a frozen source maps nothing: no window is copied."""
    maps = []
    real = data_model.mmap.mmap
    monkeypatch.setattr(data_model.mmap, "mmap", lambda *a: maps.append(a) or real(*a))
    writable = np.random.default_rng(3).normal(size=(6, 60))
    frozen = writable.copy()
    frozen.setflags(write=False)
    source = RawDataSource(values=frozen)
    assert len(maps) == 0
    for other in (writable, frozen.astype(np.float32), writable.tolist()):
        values = RawDataSource(values=other).values
        assert np.array_equal(values, np.array(other, dtype=float))
    assert len(maps) == 3
    RawWindow(values=writable[:, :30], end_index=30)
    assert len(maps) == 3
    grid = SearchGrid(p_max=1, b_values=(0.0, 0.5), epsilon=1e-3, bins=10)
    timeline = sweep(source, WindowSpec(N=6, T=30, stride=10), grid, ModelDensityCache())
    assert len(timeline.results) == 4 and len(maps) == 3


RELEASE_PROBE = """
import os
import numpy as np
from factorspec import RawDataSource

page = os.sysconf("SC_PAGE_SIZE")


def resident():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * page


x = np.random.default_rng(0).normal(size=(118, 20000))
before = resident()
rises = []
for _ in range(3):
    source = RawDataSource(values=x)
    del source
    rises.append(resident() - before)
print(max(rises))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_a_dropped_source_gives_its_copy_back():
    """Building a source from a writable 118 x 20000 record copies 18.9 MB;
    once the source is dropped, those pages are no longer resident."""
    done = subprocess.run(
        [sys.executable, "-c", RELEASE_PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(data_model.__file__).parents[1])},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) <= 2 << 20


def test_load_csv_keeps_the_parse_without_a_copy(tmp_path, monkeypatch):
    """The rows go into one mapped array, which the source adopts."""
    path = tmp_path / "data.csv"
    path.write_text("1,2,3\n4,5,6\n")
    mapped = []
    real = data_model._mapped
    monkeypatch.setattr(data_model, "_mapped", lambda *a: mapped.append(real(*a)) or mapped[-1])
    src = load_csv(path)
    assert len(mapped) == 1
    assert np.shares_memory(src.values, mapped[0]) and not src.values.flags.writeable


ONES = b",".join([b"1"] * 20) + b"\r\n"  # 41 bytes


@pytest.mark.parametrize(
    "text, lines",
    [
        (b"1,2\r\n3,4\r\n\r\n5,6", 4),
        (b"1,2\r3,4\r5,6\r", 3),
        (b"1,2\n3,4\n5,6", 3),
        (b"1,2\r\n3,4\r5,6\n\r\n7,8", 5),
        # a blank line's CRLF at bytes 2**20 - 1 and 2**20
        pytest.param(ONES * 25575 + b"\r\n" + ONES * 3, 25579, id="crlf-across-2**20"),
    ],
)
def test_load_csv_row_bound_covers_every_line_ending(tmp_path, monkeypatch, text, lines):
    """The map has a row for every line, however it ends, and the rows are
    the lines that hold cells."""
    shapes = []
    real = data_model._mapped
    monkeypatch.setattr(data_model, "_mapped", lambda shape: shapes.append(shape) or real(shape))
    path = tmp_path / "data.csv"
    path.write_bytes(text)
    expect = [[float(c) for c in line.split(",")] for line in text.decode().splitlines() if line]
    assert np.array_equal(load_csv(path).values, expect)
    assert shapes[0][0] == lines


@pytest.mark.parametrize(
    "text, expect",
    [
        ("\n1,2\n\n3,4\n5,6\n\n", [[1, 2], [3, 4], [5, 6]]),
        ("1,2\n3,4\n5,6,7\n", None),  # ragged in a later block
        ("1,2\n3,4\n5,nan\n", None),
    ],
)
def test_load_csv_fast_path_across_blocks(tmp_path, monkeypatch, text, expect):
    """Parsed a piece of a line per np.loadtxt call, load_csv still keeps
    blank lines out and refuses a ragged or non-finite later row, naming it."""
    monkeypatch.setattr(data_model, "_PIECE_CHARS", 4)
    path = tmp_path / "data.csv"
    path.write_text(text)
    if expect is None:
        with pytest.raises(CsvParseError) as err:
            load_csv(path)
        assert err.value.row == 3
    else:
        assert np.array_equal(load_csv(path).values, expect)


def test_load_csv_scans_only_the_rejected_block(tmp_path, monkeypatch):
    """A bad cell in the last line, which is cut into pieces, is located
    from the piece that np.loadtxt rejected alone, split at its commas; a
    line that holds a quote is located from that line alone, split by
    csv.reader."""
    monkeypatch.setattr(data_model, "_PIECE_CHARS", 3)
    real = data_model._bad_cell
    for text, scan in [
        ("1,2\n3,4\n5,6\n7,x\n", (["x"], 4, 1)),
        ('1,2\n3,4\n5,6\n"7",x\n', (["7", "x"], 4, 0)),
    ]:
        scanned = []
        monkeypatch.setattr(data_model, "_bad_cell", lambda *a: scanned.append(a) or real(*a))
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(CsvParseError) as err:
            load_csv(path)
        assert (err.value.row, err.value.col) == (4, 2)
        assert scanned == [scan]


ONLY_FLOAT_READS = ["1_0", "\u0661\u0662", "\uff11"]  # 1_0, Arabic-Indic 12, fullwidth 1


@pytest.mark.parametrize("cell", ONLY_FLOAT_READS, ids=["underscore", "arabic-indic", "fullwidth"])
def test_load_csv_names_a_cell_only_python_float_reads_before_a_later_bad_cell(tmp_path, cell):
    """A cell that Python's float reads but np.loadtxt refuses is the bad
    cell, not one in a later line."""
    path = tmp_path / "data.csv"
    path.write_text(f"1,2\n{cell},3\n4,x\n", encoding="utf-8")
    with pytest.raises(CsvParseError) as err:
        load_csv(path)
    assert (err.value.row, err.value.col, str(err.value)) == (
        2, 1, "unparseable value at row 2, column 1"
    )


def long_rows(count: int = 3) -> list[list[str]]:
    """Rows of 12 four-character cells, 59 characters a line: with
    _PIECE_CHARS at 5 to 13, every line is cut into several pieces."""
    return [[f"{r}.{c:02d}" for c in range(12)] for r in range(1, count + 1)]


@pytest.mark.parametrize("piece", [5, 8, 13])
@pytest.mark.parametrize(
    "edit, row, col, message",
    [
        (lambda r: r[:8] + ["oops"] + r[9:], 2, 9, "unparseable value at row 2, column 9"),
        (lambda r: r[:8] + ["nan"] + r[9:], 2, 9, "non-finite value at row 2, column 9"),
        (lambda r: r[:8] + [""] + r[9:], 2, 9, "unparseable value at row 2, column 9"),
        (lambda r: r[:-1], 2, 0, "ragged row 2: 11 cells, not 12"),
        (lambda r: r + ["9.99"], 2, 0, "ragged row 2: 13 cells, not 12"),
        (lambda r: r + r, 2, 0, "ragged row 2: 24 cells, not 12"),  # past the width mid-line
        (lambda r: r + [""], 2, 13, "unparseable value at row 2, column 13"),  # a trailing comma
        *[
            (lambda r, cell=cell: r[:8] + [cell] + r[9:], 2, 9, "unparseable value at row 2, column 9")
            for cell in ONLY_FLOAT_READS
        ],
    ],
    ids=["bad", "nan", "empty", "short", "long", "twice", "trailing-comma"]
    + ["underscore", "arabic-indic", "fullwidth"],
)
def test_load_csv_names_a_bad_cell_across_pieces(tmp_path, monkeypatch, piece, edit, row, col, message):
    """A line cut into pieces is refused with the row, column and message
    that the whole line would give, wherever the pieces end."""
    monkeypatch.setattr(data_model, "_PIECE_CHARS", piece)
    rows = long_rows()
    rows[1] = edit(rows[1])
    path = tmp_path / "data.csv"
    path.write_text("".join(",".join(r) + "\n" for r in rows), encoding="utf-8")
    with pytest.raises(CsvParseError) as err:
        load_csv(path)
    assert (err.value.row, err.value.col, str(err.value)) == (row, col, message)


@pytest.mark.parametrize("piece", [5, 8, 13])
def test_load_csv_reads_long_lines_across_pieces(tmp_path, monkeypatch, piece):
    """Long lines read the same cut into pieces: blank lines between them,
    a line quoted throughout, a first line whose quote comes late, and a
    cell longer than a piece. Each line that holds a quote is parsed whole."""
    monkeypatch.setattr(data_model, "_PIECE_CHARS", piece)
    parsed = []
    real = data_model._parse
    monkeypatch.setattr(data_model, "_parse", lambda lines: parsed.extend(lines) or real(lines))
    rows = long_rows(4)
    rows[3][5] = "4.050000000000000"
    lines = [",".join(r) for r in rows]
    lines[0] = ",".join(rows[0][:-1]) + f',"{rows[0][-1]}"'
    lines[2] = ",".join(f'"{cell}"' for cell in rows[2])
    path = tmp_path / "data.csv"
    path.write_text("\n\n".join(lines) + "\n\n")
    expect = [[float(cell) for cell in r] for r in rows]
    assert np.array_equal(load_csv(path).values, expect)
    assert [text for text in parsed if '"' in text] == [lines[0] + "\n", lines[2] + "\n"]


def test_load_csv_peak_stays_under_two_of_its_longest_lines(tmp_path):
    """Reading a 3 x 100000 CSV of 17-digit values, whose lines are about
    1.9 MB, allocates at its peak no more than twice the longest line: the
    text goes to np.loadtxt in pieces, and the record is a map."""
    data = np.random.default_rng(13).normal(size=(3, 100000))
    path = tmp_path / "wide.csv"
    np.savetxt(path, data, fmt="%.17g", delimiter=",")
    with open(path) as fh:
        longest = max(len(line) for line in fh)
    tracemalloc.start()
    try:
        source = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(source.values, data)
    assert peak <= 2 * longest, f"peak {peak / longest:.2f} lines"


def spy_on_parse(monkeypatch) -> list[list[str]]:
    calls = []
    real = data_model._parse
    monkeypatch.setattr(data_model, "_parse", lambda lines: calls.append(list(lines)) or real(lines))
    return calls


def test_load_csv_parses_one_line_at_a_time(tmp_path, monkeypatch):
    """Each np.loadtxt call on a file of 3000 short lines gets the text of
    one line, which ends the call's text if it ends there."""
    calls = spy_on_parse(monkeypatch)
    data = np.arange(3000 * 4, dtype=float).reshape(3000, 4)
    path = tmp_path / "data.csv"
    np.savetxt(path, data, fmt="%g", delimiter=",")
    assert np.array_equal(load_csv(path).values, data)
    assert len(calls) == 3000
    assert all(len(lines) == 1 and "\n" not in lines[0][:-1] for lines in calls)


@pytest.mark.parametrize("piece", [5, 8, 13])
def test_load_csv_parses_no_two_lines_together_across_pieces(tmp_path, monkeypatch, piece):
    """Cut into pieces, no np.loadtxt call gets text from two lines."""
    monkeypatch.setattr(data_model, "_PIECE_CHARS", piece)
    calls = spy_on_parse(monkeypatch)
    rows = long_rows()
    path = tmp_path / "data.csv"
    path.write_text("".join(",".join(r) + "\n" for r in rows))
    assert np.array_equal(load_csv(path).values, [[float(c) for c in r] for r in rows])
    assert len(calls) > len(rows)
    assert all(len(lines) == 1 and "\n" not in lines[0][:-1] for lines in calls)
