"""Raw data sources, moving split-windows, and per-row standardization."""
from __future__ import annotations

import csv
import itertools
import mmap
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    CsvParseError,
    DegenerateRow,
    DimensionMismatch,
    WindowOutOfRange,
)


def _frozen_array(values) -> np.ndarray:
    """A read-only float64 array is kept as it is; anything else is copied
    and frozen."""
    frozen = isinstance(values, np.ndarray) and not values.flags.writeable
    if frozen and values.dtype == np.float64:
        return values
    arr = np.array(values, dtype=float, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class RawDataSource:
    """Full n x t measurement record; columns are consecutive samples."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values))
        if self.values.ndim != 2:
            raise DimensionMismatch("source must be a 2-d matrix")
        n, t = self.values.shape
        if n < 2 or t < 2:
            raise DimensionMismatch(f"need at least 2x2 data, got {n}x{t}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("source contains non-finite entries")

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
        object.__setattr__(self, "values", _frozen_array(self.values))


@dataclass(frozen=True)
class StandardizedWindow:
    """Window whose rows have zero mean and unit (population) variance."""

    values: np.ndarray
    end_index: int

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values))


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


SIGMA_FLOOR = 1e-12  # a row whose standard deviation is at most this is constant


def standardize(window: RawWindow) -> StandardizedWindow:
    """Z-score each row to mean 0, population variance 1; a constant row
    raises DegenerateRow."""
    x = window.values
    std = x.std(axis=1)
    low = np.nonzero(std <= SIGMA_FLOOR)[0]
    if low.size:
        raise DegenerateRow(int(low[0]))
    out = (x - x.mean(axis=1, keepdims=True)) / std[:, None]
    out.setflags(write=False)
    return StandardizedWindow(values=out, end_index=window.end_index)


def load_csv(path, skip_header: bool = False) -> RawDataSource:
    """Read a source matrix from CSV: one row per channel, one column per sample.

    `np.loadtxt` parses a clean file; any file it rejects, warns about, or
    reads as empty or non-finite goes through the cell-by-cell parser,
    which locates the offending cell in its CsvParseError."""
    values = _loadtxt(path, skip_header)
    if values is None:
        values = _parse_cells(path, skip_header)
    values.setflags(write=False)
    return RawDataSource(values)


_LOADTXT_LOCK = threading.Lock()  # keeps concurrent catch_warnings blocks nested
_BLOCK_CHARS = 1 << 20  # text handed to one np.loadtxt call


def _loadtxt(path, skip_header: bool) -> np.ndarray | None:
    """The fast parse, or None when the cell-by-cell parser must decide.

    np.loadtxt parses about a megabyte of lines at a time, and the rows go
    into one anonymous memory map with room for every line of the file. A
    record parsed in one call lands in the process heap instead, where the
    block a freed record leaves stays resident and the next record fits
    into it or not by a few bytes, so the resident size of repeated loads
    can differ by a whole record from one run to the next. The map's pages
    go back to the system as soon as the source is dropped."""
    out, rows, block = None, 0, 1
    with _LOADTXT_LOCK, warnings.catch_warnings(record=True) as caught, open(path) as fh:
        warnings.simplefilter("always")
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # blank lines
        try:
            if skip_header:
                fh.readline()
            while lines := list(itertools.islice(fh, block)):
                part = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
                block = max(1, _BLOCK_CHARS * len(lines) // sum(map(len, lines)))
                if part.size == 0:
                    continue
                if out is None:
                    out = _mapped_rows(_line_bound(path), part.shape[1])
                if part.shape[1] != out.shape[1] or not np.all(np.isfinite(part)):
                    return None
                out[rows : rows + len(part)] = part
                rows += len(part)
        except ValueError:  # a bad cell, a ragged row, undecodable bytes
            return None
    if caught or out is None:
        return None
    return out[:rows]


def _mapped_rows(n: int, m: int) -> np.ndarray:
    """An n x m float64 array in anonymous memory of its own; pages count as
    resident once written."""
    return np.frombuffer(mmap.mmap(-1, n * m * 8), dtype=np.float64).reshape(n, m)


def _line_bound(path) -> int:
    """The lines of a text file, ended by LF, CRLF or CR as Python's text
    mode splits them: at least the rows np.loadtxt can find in it."""
    lines, last = 0, b"\n"
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            lines += chunk.count(b"\n")
            if b"\r" in chunk:
                lines += chunk.count(b"\r") - chunk.count(b"\r\n")
            lines -= last == b"\r" and chunk[:1] == b"\n"  # a CRLF split across reads
            last = chunk[-1:]
    return lines + (last not in (b"\n", b"\r"))


def _parse_cells(path, skip_header: bool) -> np.ndarray:
    rows: list[list[float]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for i, record in enumerate(reader):
            if skip_header and i == 0:
                continue
            if not record:
                continue
            parsed = []
            for j, cell in enumerate(record):
                try:
                    value = float(cell)
                except ValueError:
                    raise CsvParseError(row=i + 1, col=j + 1) from None
                if not np.isfinite(value):
                    raise CsvParseError(
                        row=i + 1, col=j + 1, message=f"non-finite value at row {i + 1}, column {j + 1}"
                    )
                parsed.append(value)
            rows.append(parsed)
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise CsvParseError(row=0, col=0, message="ragged CSV: rows have differing lengths")
    return np.asarray(rows, dtype=float)
