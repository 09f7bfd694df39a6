"""Raw data sources, moving split-windows, and per-row standardization."""
from __future__ import annotations

import csv
import math
import mmap
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CsvParseError,
    DegenerateRow,
    DimensionMismatch,
    WindowOutOfRange,
)


def _frozen(values, allocate=np.empty) -> np.ndarray:
    """A read-only float64 array is adopted, since no one can change it
    under us. Anything else is cast, as np.array(values, dtype=float) casts,
    into a fresh array from `allocate`, which is then frozen. A source
    passes `_mapped` (see there why); a window's copy stays on the heap.
    `load_csv` and `synthesize_case` freeze their records, so only a caller
    that wraps a record of its own pays for a copy, say
    `RawDataSource(values=generate_ar1(spec, N, T))`."""
    if not isinstance(values, np.ndarray):
        values = np.asarray(values, dtype=float)
    elif values.dtype == np.float64 and not values.flags.writeable:
        return values
    arr = allocate(values.shape)
    arr[...] = values
    arr.setflags(write=False)
    return arr


SIGMA_FLOOR = 1e-12  # a row whose standard deviation is at most this is constant


@dataclass(frozen=True)
class RawDataSource:
    """Full n x t measurement record; columns are consecutive samples.
    `constant_rows` lists the rows whose range is at most SIGMA_FLOOR, so
    that every window's std is too (it is at most half the range)."""

    values: np.ndarray
    constant_rows: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values, _mapped))
        if self.values.ndim != 2:
            raise DimensionMismatch("source must be a 2-d matrix")
        n, t = self.values.shape
        if n < 2 or t < 2:
            raise DimensionMismatch(f"need at least 2x2 data, got {n}x{t}")
        # min and max propagate nan and reach inf, with no record-sized mask
        low, high = self.values.min(axis=1), self.values.max(axis=1)
        if not (np.isfinite(low).all() and np.isfinite(high).all()):
            raise ValueError("source contains non-finite entries")
        flat = np.flatnonzero(high - low <= SIGMA_FLOOR)
        object.__setattr__(self, "constant_rows", tuple(flat.tolist()))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def t(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class WindowSpec:
    """Geometry of the moving split-window."""

    N: int
    T: int
    stride: int = 1

    def __post_init__(self):
        if self.T < 2:
            raise ValueError("window length T must be >= 2")
        if self.N < 2:
            raise ValueError("row count N must be >= 2")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")


@dataclass(frozen=True)
class RawWindow:
    """N x T block of the source ending at 1-based sample `end_index`."""

    values: np.ndarray
    end_index: int

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values))


@dataclass(frozen=True)
class StandardizedWindow(RawWindow):
    """Window whose rows have zero mean and unit (population) variance."""


def cut_window(source: RawDataSource, spec: WindowSpec, end_index: int) -> RawWindow:
    """Extract the N x T block of `source` ending at sample `end_index` (1-based)."""
    if spec.N != source.n:
        raise DimensionMismatch(f"spec.N={spec.N} does not match source n={source.n}")
    if end_index < spec.T or end_index > source.t:
        raise WindowOutOfRange(
            f"end_index={end_index} outside [{spec.T}, {source.t}] for T={spec.T}"
        )
    block = source.values[:, end_index - spec.T : end_index]
    return RawWindow(values=block, end_index=end_index)


def standardize(window: RawWindow) -> StandardizedWindow:
    """Z-score each row to mean 0, population variance 1; a constant row
    raises DegenerateRow. The rows are centred once, and the std is taken
    from the centred rows, bit for bit as `x.std(axis=1)` takes it."""
    x = window.values
    out = x - x.mean(axis=1, keepdims=True)
    std = np.sqrt(np.mean(out * out, axis=1))
    low = np.nonzero(std <= SIGMA_FLOOR)[0]
    if low.size:
        raise DegenerateRow(int(low[0]))
    out /= std[:, None]
    out.setflags(write=False)
    return StandardizedWindow(values=out, end_index=window.end_index)


def load_csv(path, skip_header: bool = False) -> RawDataSource:
    """Read a source matrix from CSV: one row per channel, one column per sample.

    The file is read as UTF-8, a bad byte replaced so that it makes a bad
    cell. One text handle counts the lines, then hands them to np.loadtxt
    in blocks of about _BLOCK_CHARS, so it makes no record-sized array of
    its own; the rows go into one array from `_mapped` (see there why) with
    a row for every line. A block it rejects, or that has another width or
    a non-finite value, is read again only to name its first bad cell
    (`_bad_cell`)."""
    out, rows, width, next_row = None, 0, None, 1 + skip_header
    with open(path, encoding="utf-8", errors="replace") as fh:
        lines_in_file = sum(1 for _ in fh)
        fh.seek(0)
        if skip_header:
            fh.readline()
        while lines := fh.readlines(_BLOCK_CHARS):
            first_row, next_row = next_row, next_row + len(lines)
            if all(line == "\n" for line in lines):
                continue  # np.loadtxt would warn that it found no data
            try:
                part = np.loadtxt(lines, delimiter=",", quotechar='"', ndmin=2, comments=None)
            except ValueError:  # a bad cell or a ragged row
                raise _bad_cell(lines, first_row, width) from None
            width = width or part.shape[1]
            if part.shape[1] != width or not np.all(np.isfinite(part)):
                raise _bad_cell(lines, first_row, width)
            if out is None:
                out = _mapped((lines_in_file, width))
            out[rows : rows + len(part)] = part
            rows += len(part)
    if out is None:
        raise DimensionMismatch("the CSV holds no data rows")
    values = out[:rows]
    values.setflags(write=False)
    return RawDataSource(values)


# characters of text handed to one np.loadtxt call, plus the line that
# crosses it: a 118 x 20000 record's rows, about 480 KB each, go two a block
_BLOCK_CHARS = 1 << 19


def _bad_cell(lines: list[str], first_row: int, width: int | None) -> CsvParseError:
    """The error for a block of lines that starts at 1-based row `first_row`:
    its first cell that Python's float cannot read or reads as non-finite,
    or its first row that is not `width` cells wide (the width of its first
    row when `width` is None). It names the block's first row if no cell is
    bad to float, as with a spelling only float accepts, such as 1_0."""
    for row, record in enumerate(csv.reader(lines), start=first_row):
        if not record:
            continue
        for col, cell in enumerate(record, start=1):
            try:
                value = float(cell)
            except ValueError:
                return CsvParseError(row, col)
            if not math.isfinite(value):
                return CsvParseError(row, col, f"non-finite value at row {row}, column {col}")
        width = width or len(record)
        if len(record) != width:
            return CsvParseError(row, 0, f"ragged row {row}: {len(record)} cells, not {width}")
    last = first_row + len(lines) - 1
    return CsvParseError(first_row, 0, f"unparseable value in rows {first_row} to {last}")


def _mapped(shape: tuple[int, ...]) -> np.ndarray:
    """A float64 array of the given shape in an anonymous memory map of its
    own; its pages count as resident once written.

    This is the data model's one allocation for a record: a source's copy
    of a record it cannot adopt (`_frozen`) and a parsed CSV (`load_csv`)
    both come from here. `load_csv` asks for a row per line of its file;
    the rows of blank lines and a header are never written, so their pages
    are never resident. An array on the process heap would
    stay resident after it is freed: once glibc frees one large block it
    raises its map and trim thresholds to that block's size, so later
    records of that size go on the heap, where a freed one is kept for
    reuse. A map goes back to the system as soon as the array and every
    view of it are dropped. A window's copy stays on the heap, where it is
    cheaper than a map's page faults and munmap."""
    size = math.prod(shape)
    buffer = mmap.mmap(-1, max(size, 1) * 8)  # a map cannot be empty
    return np.frombuffer(buffer, dtype=np.float64, count=size).reshape(shape)
