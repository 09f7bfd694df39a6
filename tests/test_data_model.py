"""Windowing, standardization, and CSV ingestion."""
import numpy as np
import pytest

from factorspec import (
    RawDataSource,
    RawWindow,
    WindowSpec,
    cut_window,
    load_csv,
    standardize,
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


def test_window_spec_aspect_ratio():
    assert WindowSpec(N=118, T=250).c == pytest.approx(118 / 250)


def test_window_spec_rejects_bad_geometry():
    with pytest.raises(ValueError):
        WindowSpec(N=1, T=250)
    with pytest.raises(ValueError):
        WindowSpec(N=10, T=1)
    with pytest.raises(ValueError):
        WindowSpec(N=10, T=20, stride=0)


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
    bad = np.ones((3, 5))
    bad[1, 2] = np.nan
    with pytest.raises(ValueError):
        RawDataSource(values=bad)


def test_source_values_are_read_only(source):
    with pytest.raises(ValueError):
        source.values[0, 0] = 99.0


def test_standardize_zero_mean_unit_population_variance():
    rng = np.random.default_rng(3)
    w = RawWindow(values=rng.normal(5.0, 3.0, size=(4, 30)), end_index=30)
    s = standardize(w)
    assert np.allclose(s.values.mean(axis=1), 0.0, atol=1e-12)
    # population (ddof=0) variance, not sample variance
    assert np.allclose(s.values.std(axis=1), 1.0, atol=1e-12)
    assert s.end_index == 30


def test_standardize_constant_row_raises_with_row_index():
    vals = np.random.default_rng(0).normal(size=(4, 20))
    vals[2] = 7.5
    with pytest.raises(DegenerateRow) as err:
        standardize(RawWindow(values=vals, end_index=20))
    assert err.value.row == 2


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
    path = tmp_path / "data.csv"
    path.write_text("1,2,3\n4,5\n6,7,8\n")
    with pytest.raises(CsvParseError):
        load_csv(path)


def test_load_csv_fast_and_cell_paths_agree_bit_for_bit(tmp_path):
    rng = np.random.default_rng(12)
    data = rng.normal(size=(7, 30)) * 10.0 ** np.arange(-3, 4)[:, None]
    path = tmp_path / "data.csv"
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header="h1,h2", comments="")
    fast = data_model._loadtxt(path, skip_header=True)
    assert fast is not None and np.array_equal(fast, data)
    assert np.array_equal(data_model._parse_cells(path, skip_header=True), data)
    assert np.array_equal(load_csv(path, skip_header=True).values, data)


@pytest.mark.parametrize(
    "text, where",
    [
        ("1,2,3\n4,#5,6\n", (2, 2)),  # '#' is a cell, not a comment
        ("1,nan\n3,4\n", (1, 2)),
        ("1,2\n   \n3,4\n", (2, 1)),  # a whitespace-only line is a bad cell
    ],
)
def test_load_csv_fallback_keeps_located_errors(tmp_path, text, where):
    path = tmp_path / "data.csv"
    path.write_text(text)
    assert data_model._loadtxt(path, skip_header=False) is None
    with pytest.raises(CsvParseError) as fast:
        load_csv(path)
    with pytest.raises(CsvParseError) as cells:
        data_model._parse_cells(path, skip_header=False)
    assert (fast.value.row, fast.value.col) == where
    assert (fast.value.row, fast.value.col, str(fast.value)) == (
        cells.value.row, cells.value.col, str(cells.value)
    )


def test_load_csv_skips_blank_lines_on_both_paths(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1,2\n\n3,4\n\n")
    assert np.array_equal(data_model._loadtxt(path, skip_header=False), [[1, 2], [3, 4]])
    assert np.array_equal(data_model._parse_cells(path, skip_header=False), [[1, 2], [3, 4]])


def test_load_csv_empty_file_falls_back_without_warning(tmp_path, recwarn):
    path = tmp_path / "data.csv"
    path.write_text("\n")
    assert data_model._loadtxt(path, skip_header=False) is None
    with pytest.raises(DimensionMismatch):
        load_csv(path)
    assert not recwarn.list
