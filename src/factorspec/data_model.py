"""Raw data sources, moving split-windows, and per-row standardization."""
from __future__ import annotations

import csv
import math
import mmap
import operator
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


SIGMA_FLOOR = 1e-12  # a row whose range (max - min) is at most this is flat


def _flat_rows(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """The rows whose range `high - low` is at most SIGMA_FLOOR; a constant
    row's range is exactly 0 at any magnitude."""
    with np.errstate(over="ignore"):  # an infinite range is not flat
        return np.flatnonzero(high - low <= SIGMA_FLOOR)


@dataclass(frozen=True)
class RawDataSource:
    """Full n x t measurement record; columns are consecutive samples.
    `constant_rows` lists the rows that `_flat_rows` calls flat over the
    whole record. A window's range is at most the record's, so such a row
    is flat in every window, and `standardize` refuses every window."""

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
        object.__setattr__(self, "constant_rows", tuple(_flat_rows(low, high).tolist()))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def t(self) -> int:
        return self.values.shape[1]


def index_field(name: str, value) -> int:
    """`value` as the int that `operator.index` gives, so a numpy integer is
    taken, or ValueError naming the field if it is not an integer (2.5 or
    "3")."""
    try:
        return operator.index(value)
    except TypeError as exc:
        raise ValueError(f"{name} = {value!r} must be an integer") from exc


@dataclass(frozen=True)
class WindowSpec:
    """Geometry of the moving split-window. N, T and stride are stored as
    the ints that `index_field` gives."""

    N: int
    T: int
    stride: int = 1

    def __post_init__(self):
        for name in ("N", "T", "stride"):
            object.__setattr__(self, name, index_field(name, getattr(self, name)))
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
    """Z-score each row to mean 0, population variance 1; the first row
    that `_flat_rows` calls flat raises DegenerateRow. Each row is scaled
    by the power of two that brings its largest magnitude into [0.5, 1),
    so nothing overflows, then centred and divided by its root mean square.
    Such a scaling commutes with rounding, so the z-scores are bit for bit
    `(x - x.mean(1)) / x.std(1)` wherever that does not overflow."""
    x = window.values
    low, high = x.min(axis=1), x.max(axis=1)
    flat = _flat_rows(low, high)
    if flat.size:
        raise DegenerateRow(int(flat[0]))
    _, exponent = np.frexp(np.maximum(-low, high))
    out = np.ldexp(x, -exponent[:, None])
    out -= out.mean(axis=1, keepdims=True)
    out /= np.sqrt(np.mean(out * out, axis=1))[:, None]
    out.setflags(write=False)
    return StandardizedWindow(values=out, end_index=window.end_index)


def load_csv(path, skip_header: bool = False) -> RawDataSource:
    """Read a source matrix from CSV: one row per channel, one column per sample.

    The file is read as UTF-8, a leading byte-order mark dropped and a bad
    byte replaced so that it makes a bad cell. One text handle counts the
    lines, then reads them one at a time, in pieces of at most _PIECE_CHARS
    characters, each cut after its last comma so that it starts and ends on
    a cell boundary; np.loadtxt parses each piece, and a line that holds a
    quote whole. So no parse sees more than a piece of one line, and the
    reader keeps no more than the line it is cutting. Each piece's cells go
    into one array from `_mapped` (see there why), with a row for every
    line, at their row and column; it is made when the first line that
    holds a cell ends, as wide as that line. A piece that np.loadtxt
    rejects or reads as non-finite is read again cell by cell to name its
    first bad cell (`_bad_cell`); a line of another width names its row."""
    with open(path, encoding="utf-8-sig", errors="replace") as fh:
        lines_in_file, text = 0, ""
        for text in iter(lambda: fh.read(_PIECE_CHARS), ""):
            lines_in_file += text.count("\n")
        lines_in_file += bool(text) and not text.endswith("\n")
        fh.seek(0)
        if skip_header:
            while _continues(fh.readline(_PIECE_CHARS)):
                pass
        record = _CsvRecord(lines_in_file)
        pieces = iter(lambda: fh.readline(_PIECE_CHARS), "")
        for row, piece in enumerate(pieces, start=1 + skip_header):
            if piece != "\n":  # a blank line
                record.add_line(fh, piece, row)
    return record.source()


# the most characters of one line in one np.loadtxt call, but for a line
# that holds a quote: a 118 x 20000 record's rows, about 480 KB each, go in
# 8 pieces, a short line in one, and np.loadtxt's tokenizer, at 4 bytes a
# character, buffers at most 256 KiB
_PIECE_CHARS = 1 << 16


def _continues(piece: str) -> bool:
    """Whether a read of at most _PIECE_CHARS characters stopped inside its
    line. The read after one that fills a line up to the end of the file is
    empty, and ends that line."""
    return len(piece) == _PIECE_CHARS and not piece.endswith("\n")


def _parse(lines: list[str]) -> np.ndarray:
    return np.loadtxt(lines, delimiter=",", quotechar='"', ndmin=2, comments=None)


def _values(text: str) -> np.ndarray | None:
    """The values of the cells in `text`, part of one line; None if
    np.loadtxt refuses one of them, or if `text` is one empty cell, which
    np.loadtxt would take for a blank line."""
    if text in ("", "\n"):
        return None
    try:
        return _parse([text])[0]
    except ValueError:
        return None


class _CsvRecord:
    """The rows that `load_csv` has parsed, in one array from `_mapped` with
    a row for every line of the file, made when the first row ends."""

    def __init__(self, lines_in_file: int):
        self.lines_in_file, self.out, self.rows = lines_in_file, None, 0

    def add_line(self, fh, piece: str, row: int) -> None:
        """Parse the line at 1-based `row` that `piece` starts and `fh` goes
        on with, a piece at a time, each cut after its last comma; once it
        shows a quote, it is parsed whole. The cells of a line wider than
        the record are still parsed, so that a bad one is named first."""
        width = None if self.out is None else self.out.shape[1]
        parts, firsts, carry, col = [], [], "", 0
        while '"' not in piece:
            parts.append(piece)
            text, more = carry + piece, _continues(piece)
            cut = text.rfind(",") if more else len(text)
            if cut < 0:  # a cell longer than a piece
                carry, piece = text, fh.readline(_PIECE_CHARS)
                continue
            head, carry = text[:cut], text[cut + 1 :]
            values = _values(head)
            if values is None or not np.all(np.isfinite(values)):
                raise _bad_cell(head.rstrip("\n").split(","), row, col)
            end = col + len(values)
            if width is None:
                firsts.append(values)
            elif end <= width:
                self.out[self.rows, col:end] = values
            if not more:
                break
            col, piece = end, fh.readline(_PIECE_CHARS)
        else:  # the line shows a quote
            line = "".join(parts) + piece + (fh.readline() if _continues(piece) else "")
            values = _values(line)
            if values is None or not np.all(np.isfinite(values)):
                raise _bad_cell(next(csv.reader([line])), row, 0)
            firsts, end = [values], len(values)
            if end == width:
                self.out[self.rows] = values
        if width is None:
            width = end
            self.out = _mapped((self.lines_in_file, width))
            np.concatenate(firsts, out=self.out[0])
        if end != width:
            raise CsvParseError(row, 0, f"ragged row {row}: {end} cells, not {width}")
        self.rows += 1

    def source(self) -> RawDataSource:
        if self.out is None:
            raise DimensionMismatch("the CSV holds no data rows")
        values = self.out[: self.rows]
        values.setflags(write=False)
        return RawDataSource(values)


def _bad_cell(cells: list[str], row: int, start: int) -> CsvParseError:
    """The error for the first of `cells`, which follow column `start` of
    1-based row `row`, that np.loadtxt refuses or reads as non-finite. Each
    cell is parsed quoted, so that np.loadtxt reads it whole, as it read it
    in its line. The caller has seen a bad one; should no cell be bad alone
    (np.loadtxt and csv.reader are not known to split a line differently),
    the first is named."""
    for col, cell in enumerate(cells, start=start + 1):
        values = _values('"' + cell.replace('"', '""') + '"')
        if values is None:
            return CsvParseError(row, col)
        if not np.isfinite(values[0]):
            return CsvParseError(row, col, f"non-finite value at row {row}, column {col}")
    return CsvParseError(row, start + 1)


def _mapped(shape: tuple[int, ...]) -> np.ndarray:
    """A float64 array of the given shape in an anonymous memory map of its
    own; its pages count as resident once written.

    This is the data model's one allocation for a record: a source's copy
    of a record it cannot adopt (`_frozen`) and a parsed CSV (`load_csv`)
    both come from here. `load_csv` asks for a row per line of its file and
    writes each piece's cells at their row and column, so no parse makes a
    record-sized array; the rows of blank lines and a header are never
    written, so their pages are never resident. An array on the process
    heap would stay resident after it is freed: once glibc frees one large
    block it raises its map and trim thresholds to that block's size, so
    later records of that size go on the heap, where a freed one is kept
    for reuse (and `np.loadtxt` grows its result there by realloc, which
    can hold the old and the new block at once). A map goes back to the system as soon as the array and every
    view of it are dropped. A window's copy stays on the heap, where it is
    cheaper than a map's page faults and munmap."""
    size = math.prod(shape)
    buffer = mmap.mmap(-1, max(size, 1) * 8)  # a map cannot be empty
    return np.frombuffer(buffer, dtype=np.float64, count=size).reshape(shape)
