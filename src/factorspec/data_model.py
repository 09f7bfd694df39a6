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
        with np.errstate(over="ignore"):  # an infinite range is not constant
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

    The file is read as UTF-8, a leading byte-order mark dropped and a bad
    byte replaced so that it makes a bad cell. One text handle counts the
    lines, then hands the text to np.loadtxt in pieces of at most
    _PIECE_CHARS characters: short lines grouped into blocks, and a longer
    line cut at commas, so that each piece starts and ends on a cell
    boundary. A line that holds a quote is parsed whole. So no parse sees
    more than a piece, and the reader keeps no more than the line it is
    cutting; each piece's cells go into one array from `_mapped` (see there
    why), with a row for every line, at their row and column. The record is
    as wide as the first line that holds a cell, counted by its commas when
    it holds no quote. A block or a line that np.loadtxt rejects, or that
    has another width or a non-finite value, is read again only to name its
    first bad cell (`_bad_cell`), a cut line whole."""
    with open(path, encoding="utf-8-sig", errors="replace") as fh:
        lines_in_file, text = 0, ""
        for text in iter(lambda: fh.read(_PIECE_CHARS), ""):
            lines_in_file += text.count("\n")
        lines_in_file += bool(text) and not text.endswith("\n")
        fh.seek(0)
        if skip_header:
            while _continues(fh.readline(_PIECE_CHARS)):
                pass
        record = _CsvRecord(lines_in_file, _first_width(fh))
        block, chars, row = [], 0, 1 + skip_header
        while piece := fh.readline(_PIECE_CHARS):
            if _continues(piece) or chars + len(piece) > _PIECE_CHARS:
                record.add_lines(block, row - len(block))
                block, chars = [], 0
            if _continues(piece):
                record.add_long_line(fh, piece, row)
            else:
                block.append(piece)
                chars += len(piece)
            row += 1
        record.add_lines(block, row - len(block))
    return record.source()


# the most characters of text in one np.loadtxt call, but for a long line
# that holds a quote: a 118 x 20000 record's rows, about 480 KB each, go in
# 8 pieces, and np.loadtxt's tokenizer, at 4 bytes a character, buffers at
# most 256 KiB
_PIECE_CHARS = 1 << 16


def _continues(piece: str) -> bool:
    """Whether a read of at most _PIECE_CHARS characters stopped inside its
    line. The read after one that fills a line up to the end of the file is
    empty, and ends that line."""
    return len(piece) == _PIECE_CHARS and not piece.endswith("\n")


def _parse(lines: list[str]) -> np.ndarray:
    return np.loadtxt(lines, delimiter=",", quotechar='"', ndmin=2, comments=None)


def _first_width(fh) -> int | None:
    """The cells of the first line ahead in `fh` that is not blank, counted
    a piece at a time as its commas plus one; None if there is no such line
    or it holds a quote, which only a parse can count. `fh` is left where
    it was."""
    start, commas = fh.tell(), 0
    while (first := fh.readline(_PIECE_CHARS)) == "\n":
        pass
    piece = first
    while '"' not in piece:
        commas += piece.count(",")
        if not _continues(piece):
            break
        piece = fh.readline(_PIECE_CHARS)
    fh.seek(start)
    return commas + 1 if first and '"' not in piece else None


def _cells(text: str) -> np.ndarray | None:
    """The values of the cells in `text`, part of a line without quotes;
    None if one of them is empty, does not parse or is not finite."""
    if text in ("", "\n"):
        return None  # an empty cell, which np.loadtxt takes for a blank line
    try:
        values = _parse([text])[0]
    except ValueError:
        return None
    return values if np.all(np.isfinite(values)) else None


class _CsvRecord:
    """The rows that `load_csv` has parsed, in one array from `_mapped` with
    a row for every line of the file, made once the width is known."""

    def __init__(self, lines_in_file: int, width: int | None):
        self.lines_in_file, self.width, self.rows = lines_in_file, width, 0
        self.out = None if width is None else _mapped((lines_in_file, width))

    def add_lines(self, lines: list[str], first_row: int) -> None:
        """Parse whole lines, the first of them at 1-based row `first_row`."""
        if all(line == "\n" for line in lines):
            return  # np.loadtxt would warn that it found no data
        try:
            part = _parse(lines)
        except ValueError:  # a bad cell or a ragged row
            raise _bad_cell(lines, first_row, self.width) from None
        self.width = self.width or part.shape[1]
        if part.shape[1] != self.width or not np.all(np.isfinite(part)):
            raise _bad_cell(lines, first_row, self.width)
        if self.out is None:
            self.out = _mapped((self.lines_in_file, self.width))
        self.out[self.rows : self.rows + len(part)] = part
        self.rows += len(part)

    def add_long_line(self, fh, piece: str, row: int) -> None:
        """Parse the line at `row` that `piece` starts and `fh` goes on
        with, a piece at a time, each cut after its last comma. It is parsed
        whole once it shows a quote, or if the record is not yet made."""
        parts, carry, col = [], "", 0
        while '"' not in piece and self.out is not None:
            parts.append(piece)
            text, more = carry + piece, _continues(piece)
            cut = text.rfind(",") if more else len(text)
            if cut < 0:  # a cell longer than a piece
                carry, piece = text, fh.readline(_PIECE_CHARS)
                continue
            head, carry = text[:cut], text[cut + 1 :]
            end = col + head.count(",") + 1
            fits = end <= self.width if more else end == self.width
            cells = _cells(head) if fits else None
            if cells is None:
                line = "".join(parts) + (fh.readline() if more else "")
                raise _bad_cell([line], row, self.width)
            self.out[self.rows, col:end] = cells
            if not more:
                self.rows += 1
                return
            col, piece = end, fh.readline(_PIECE_CHARS)
        rest = fh.readline() if _continues(piece) else ""
        self.add_lines(["".join(parts) + piece + rest], row)

    def source(self) -> RawDataSource:
        if self.out is None:
            raise DimensionMismatch("the CSV holds no data rows")
        values = self.out[: self.rows]
        values.setflags(write=False)
        return RawDataSource(values)


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
