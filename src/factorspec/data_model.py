"""Raw data sources, moving split-windows, and per-row standardization."""
from __future__ import annotations

import csv
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

    @property
    def c(self) -> float:
        """Aspect ratio N/T."""
        return self.N / self.T


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
    return StandardizedWindow(values=out, end_index=window.end_index)


def load_csv(path, skip_header: bool = False) -> RawDataSource:
    """Read a source matrix from CSV: one row per channel, one column per sample.

    `np.loadtxt` parses a clean file; any file it rejects, warns about, or
    reads as empty or non-finite goes through the cell-by-cell parser,
    which locates the offending cell in its CsvParseError."""
    values = _loadtxt(path, skip_header)
    if values is None:
        values = _parse_cells(path, skip_header)
    return RawDataSource(values=values)


_LOADTXT_LOCK = threading.Lock()  # keeps concurrent catch_warnings blocks nested


def _loadtxt(path, skip_header: bool) -> np.ndarray | None:
    """The fast parse, or None when the cell-by-cell parser must decide."""
    with _LOADTXT_LOCK, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            values = np.loadtxt(
                path, delimiter=",", ndmin=2, comments=None, skiprows=int(skip_header)
            )
        except ValueError:  # a bad cell, a ragged row, undecodable bytes
            return None
    if caught or values.size == 0 or not np.all(np.isfinite(values)):
        return None
    return values


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
