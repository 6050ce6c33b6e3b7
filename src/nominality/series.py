"""Multivariate time series data model, CSV codec and preprocessing.

A series is a T x D matrix of float64 values (rows are time points, columns
are channels) with an optional 0/1 label per row.  All containers are frozen
and hold read-only views of their arrays; every operation here returns a new
object.  A container built from a contiguous array of its dtype shares that
array's memory and leaves the array's flags alone, so it is only as immutable
as that array: an edit of the array shows in the container, and the checks
made at construction (finite values, 0/1 labels, mins <= maxs) no longer hold
after such an edit.  Build from a copy to share an instance safely.

A score series' ``time_origin`` is the index of its first score inside the
un-trimmed source series, so scores and labels can be re-aligned after
boundary trimming without the caller doing offset bookkeeping.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import operator
import os
from dataclasses import dataclass

import numpy as np

from .config import PreprocessConfig
from .errors import DataError, EmptyInput, LabelError, NonFiniteValue, ParseError, ShapeError, shown


def _freeze(arr: np.ndarray) -> np.ndarray:
    """A read-only contiguous view of ``arr``; ``arr`` itself keeps its flags."""
    out = np.ascontiguousarray(arr).view()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class LabeledSeries:
    """Observed multivariate series with optional ground-truth labels.

    Attributes:
        values: (T, D) float64 matrix, one row per time point; a value that is
            not finite raises :class:`NonFiniteValue` naming its row.
        labels: optional (T,) vector of 0/1 ints.
        channel_names: a tuple of D channel names; None, the default, gives
            ``c0`` ... ``c<D-1>``.
    """

    values: np.ndarray
    labels: np.ndarray | None = None
    channel_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ShapeError(f"values must be 2-D (T, D), got shape {values.shape}")
        if values.shape[0] < 1 or values.shape[1] < 1:
            raise EmptyInput(f"series needs T >= 1 and D >= 1, got shape {values.shape}")
        finite = np.isfinite(values)
        if not finite.all():
            raise NonFiniteValue("series values must be finite after ingestion",
                                 int(np.flatnonzero(~finite.all(axis=1))[0]))
        object.__setattr__(self, "values", _freeze(values))
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64)
            if labels.shape != (values.shape[0],):
                raise ShapeError(
                    f"labels must have shape ({values.shape[0]},), got {labels.shape}"
                )
            if not np.isin(labels, (0, 1)).all():
                raise LabelError("labels must contain only 0 or 1")
            object.__setattr__(self, "labels", _freeze(labels))
        names = self.channel_names
        names = tuple(f"c{j}" for j in range(values.shape[1])) if names is None else tuple(names)
        if len(names) != values.shape[1]:
            raise ShapeError(f"expected {values.shape[1]} channel names, got {len(names)}")
        object.__setattr__(self, "channel_names", names)

    @property
    def n_times(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ScoreSeries:
    """Per-time-point real-valued scores sharing the series time index.

    ``time_origin`` must be an integer.  A score that is not finite, such as a
    sum that overflowed, raises :class:`NonFiniteValue` naming its row.
    """

    scores: np.ndarray
    time_origin: int = 0

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.ndim != 1:
            raise ShapeError(f"scores must be 1-D, got shape {scores.shape}")
        finite = np.isfinite(scores)
        if not finite.all():
            raise NonFiniteValue("scores must be finite", int(np.flatnonzero(~finite)[0]))
        object.__setattr__(self, "scores", _freeze(scores))
        object.__setattr__(self, "time_origin", operator.index(self.time_origin))

    def __len__(self) -> int:
        return self.scores.shape[0]


def as_scores(x: ScoreSeries | np.ndarray) -> ScoreSeries:
    """``x`` itself if it is a :class:`ScoreSeries`, else ``ScoreSeries(x)``, whose origin is 0."""
    return x if isinstance(x, ScoreSeries) else ScoreSeries(x)


@dataclass(frozen=True)
class MinMaxStats:
    """Per-channel (min, max) pairs fitted on a training split."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self) -> None:
        mins = _freeze(np.asarray(self.mins, dtype=np.float64))
        maxs = _freeze(np.asarray(self.maxs, dtype=np.float64))
        if mins.shape != maxs.shape or mins.ndim != 1:
            raise ShapeError("mins and maxs must be 1-D arrays of equal length")
        if not (np.isfinite(mins).all() and np.isfinite(maxs).all()):
            raise ShapeError("mins and maxs must be finite")
        if (mins > maxs).any():
            raise ShapeError("per-channel min must not exceed max")
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)

    @property
    def n_channels(self) -> int:
        return self.mins.shape[0]

    @property
    def constant_mask(self) -> np.ndarray:
        """True for channels whose training values were all identical."""
        return self.mins == self.maxs


# --- CSV codec -------------------------------------------------------------
#
# Every CSV the package reads or writes goes through the helpers below.
# Floats are written exactly as ``repr(float(v))`` writes them, the shortest
# text that reads back as the same float64; :mod:`nominality.numtext` formats
# them, and integers, in vectorized blocks of about ``_GATHER_CELLS`` cells, with
# ``repr`` as the fallback for the values its kernel leaves out and as its
# oracle in the tests.  Rows end in ``\r\n`` and files are UTF-8 text; a file
# is written block by block and never held whole.  Reading accepts a UTF-8
# byte-order mark and parses the whole table in one ``np.loadtxt`` call.  A
# table it rejects (empty or padded quoted cells) is read once more, cell by
# cell in reading order, and its first bad row or cell is the error.

LINE_END = "\r\n"
_GATHER_CELLS = 8192  # cells formatted at a time: rows of a block times columns


def atomic_write(path: str, chunks) -> None:
    """Replace ``path`` with ``chunks``, an iterable of byte chunks, in one step.

    The data goes to a fresh file in the same directory, which then replaces
    ``path`` with ``os.replace``; a write that fails partway leaves the
    previous file intact and removes the temporary one.
    """
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_json(doc: dict, path: str) -> None:
    """Deterministic JSON (sorted keys, one-space indent) written atomically."""
    atomic_write(path, [(json.dumps(doc, sort_keys=True, indent=1) + "\n").encode("utf-8")])


def _quote(text: str) -> str:
    """Quote a text cell the way ``csv.writer`` does when it must."""
    if any(ch in text for ch in ',"'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _as_block(column) -> np.ndarray:
    """A (T,) or (T, k) column as a (T, k) int64 or float64 array."""
    arr = np.asarray(column)
    arr = arr.astype(np.int64 if arr.dtype.kind in "biu" else np.float64, copy=False)
    return arr[:, None] if arr.ndim == 1 else arr


def _row_blocks(columns: list[np.ndarray]):
    """The bytes of the rows of ``columns``, a block of rows at a time.

    :mod:`nominality.numtext` is imported here, so a command that writes no
    CSV (``train``, ``sweep``) never loads it.
    """
    from . import numtext

    rows = max(1, _GATHER_CELLS // sum(col.shape[1] for col in columns))
    for lo in range(0, columns[0].shape[0], rows):
        yield numtext.csv_rows([col[lo : lo + rows] for col in columns])


def write_csv(path: str, header, columns) -> None:
    """Write a header row and the row-aligned (T,) or (T, k) arrays ``columns``.

    Integer arrays print as integers and all others as ``repr(float(v))``.  A header
    name may hold no line break, since the reader splits lines as ``str.splitlines`` does.
    """
    for name in header:
        if name != "".join(name.splitlines()):
            raise DataError(f"{path}: header name {shown(name)} holds a line break")
    columns = [_as_block(col) for col in columns]
    head = (",".join(_quote(name) for name in header) + LINE_END).encode()
    atomic_write(path, itertools.chain([head], _row_blocks(columns)))


def _cell_text(cell: str) -> str:
    """A cell with padding and enclosing quotes removed; empty reads as nan."""
    text = cell.strip()
    if len(text) >= 2 and text[0] == text[-1] == '"':
        text = text[1:-1].replace('""', '"').strip()
    return text or "nan"


def _label_error(path: str, row_idx: int, cell: str) -> LabelError:
    return LabelError(f"{path}: row {row_idx}: label {shown(cell)} is not 0 or 1")


def _read_lines(path: str) -> tuple[tuple[str, ...], list[str]]:
    """The header and the non-blank data lines of a CSV file.

    A UTF-8 byte-order mark, which spreadsheets write, is dropped rather than
    read as part of the first header name.

    Raises:
        EmptyInput: the file holds no header or no data rows.
        ParseError: the file is not UTF-8 text; the message names the line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # exc.object is the data after any mark
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}: line {line}: byte {exc.object[exc.start]:#04x} "
                         "is not UTF-8 text") from None
    lines = list(filter(None, text.splitlines()))
    if not lines:
        raise EmptyInput(f"{path}: file contains no rows")
    if len(lines) < 2:
        raise EmptyInput(f"{path}: file contains a header but no data rows")
    return tuple(name.strip() for name in next(csv.reader(lines[:1]))), lines[1:]


def _parse_lines(
    lines: list[str], width: int, path: str, label_idx: int | None = None
) -> np.ndarray:
    """Data lines as a (T, width) float64 matrix; empty and ``nan`` cells are NaN.

    The column ``label_idx``, if given, must hold only 0 or 1.  A table that ``np.loadtxt`` rejects
    is read once more, cell by cell in reading order, and its first bad row or cell is the error.

    Raises:
        ParseError: a row has the wrong width or a cell is not a number;
            ``row`` is the zero-based data row.
        LabelError: a label cell is not 0 or 1.
    """
    try:
        table = np.loadtxt(lines, delimiter=",", quotechar='"', comments=None,
                           dtype=np.float64, ndmin=2)
    except ValueError:
        table = None
    if table is None or table.shape[1] != width:
        values = []
        for i, cells in enumerate(line.split(",") for line in lines):
            if len(cells) != width:
                raise ParseError(f"{path}: row {i}: expected {width} fields, got {len(cells)}",
                                 row=i)
            for col, cell in enumerate(cells):
                try:  # float() strips padding as _cell_text does: only what it rejects is trimmed
                    value = float(cell)
                except ValueError:
                    try:
                        value = float(_cell_text(cell))
                    except ValueError:
                        value = None
                if col == label_idx and value not in (0.0, 1.0):
                    raise _label_error(path, i, cell)
                if value is None:
                    raise ParseError(f"{path}: row {i}: cannot parse {shown(cell)} in column "
                                     f"{col} as a number", row=i)
                values.append(value)
        return np.array(values).reshape(len(lines), width)
    if label_idx is not None:
        bad = np.flatnonzero(~np.isin(table[:, label_idx], (0.0, 1.0)))
        if bad.size:
            raise _label_error(path, int(bad[0]), lines[bad[0]].split(",")[label_idx])
    return table


def read_table(path: str, width: int, label_idx: int | None = None) -> np.ndarray:
    """The (T, width) data rows of a CSV file whose header has ``width`` names.

    Cells follow :func:`_parse_lines`; a file with no data rows raises
    :class:`EmptyInput` and a header of another width :class:`ParseError`.
    """
    header, lines = _read_lines(path)
    if len(header) != width:
        raise ParseError(f"{path}: expected {width} columns, the header has {len(header)}")
    return _parse_lines(lines, width, path, label_idx)


def _forward_fill(values: np.ndarray) -> np.ndarray:
    """Replace each NaN by the last valid value above it, or 0 if there is none."""
    missing = np.isnan(values)
    if not missing.any():
        return values
    source = np.where(missing, 0, np.arange(values.shape[0])[:, None])
    np.maximum.accumulate(source, axis=0, out=source)
    filled = values[source, np.arange(values.shape[1])]
    filled[np.isnan(filled)] = 0.0
    return filled


def load_csv(path: str, label_column: str | None = None) -> LabeledSeries:
    """Read a comma-separated series file into a :class:`LabeledSeries`.

    The first row is a header.  Empty cells and literal ``nan`` entries are
    forward-filled per channel; a NaN with no predecessor becomes 0.  The
    label column, when named, is excluded from the value matrix and must
    contain only 0/1.

    Raises:
        EmptyInput: the file holds no data rows.
        ParseError: a row has the wrong width, or a cell is not numeric or is
            infinite (``inf``, or a literal beyond float range such as ``1e999``).
        LabelError: a label value is not 0 or 1, or the column is missing or named twice.
    """
    header, lines = _read_lines(path)
    label_idx: int | None = None
    if label_column is not None:
        quoted = shown(label_column)
        if label_column not in header:
            raise LabelError(f"{path}: label column {quoted} not found in header")
        if header.count(label_column) > 1:
            raise LabelError(f"{path}: header names label column {quoted} more than once")
        label_idx = header.index(label_column)
    table = _parse_lines(lines, len(header), path, label_idx)
    infinite = np.isinf(table)
    if infinite.any():
        row, col = (int(i) for i in np.argwhere(infinite)[0])
        raise ParseError(f"{path}: row {row}: {shown(lines[row].split(',')[col])} in column {col} "
                         f"is not a finite number", row=row)
    labels = None
    names = header
    if label_idx is not None:
        labels = table[:, label_idx].astype(np.int64)
        table = np.delete(table, label_idx, axis=1)
        names = header[:label_idx] + header[label_idx + 1 :]
    return LabeledSeries(_forward_fill(table), labels, names)


def save_csv(series: LabeledSeries, path: str, label_column: str = "label") -> None:
    """Write a series back out with the same conventions ``load_csv`` reads."""
    names = list(series.channel_names)
    if series.labels is None:
        write_csv(path, names, [series.values])
    else:
        write_csv(path, names + [label_column], [series.values, series.labels])


def minmax_fit(train: LabeledSeries) -> MinMaxStats:
    """Fit per-channel (min, max) pairs on the training split."""
    return MinMaxStats(train.values.min(axis=0), train.values.max(axis=0))


def minmax_apply(series: LabeledSeries, stats: MinMaxStats) -> LabeledSeries:
    """Map each channel through (x - min) / (max - min).

    Constant channels map to 0.  Values outside the fitted range are NOT
    clipped, so out-of-range test points stay visible to the models.  A value
    whose scaled value overflows raises :class:`NonFiniteValue` naming the
    first such row, without a numpy warning.
    """
    if stats.n_channels != series.n_channels:
        raise ShapeError(
            f"stats cover {stats.n_channels} channels, series has {series.n_channels}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        out = (series.values - stats.mins) / np.where(stats.constant_mask, 1.0,
                                                      stats.maxs - stats.mins)
    out[:, stats.constant_mask] = 0.0
    return LabeledSeries(out, series.labels, series.channel_names)


def downsample(series: LabeledSeries, factor: int) -> LabeledSeries:
    """Aggregate consecutive blocks of ``factor`` rows.

    Values take the block mean; a block's label is 1 if any row in the
    block is anomalous, so short anomalies survive downsampling.  A
    trailing partial block is kept and aggregated.  ``factor`` follows the
    ``preprocess.downsample`` rule.  A block whose sum overflows raises
    :class:`NonFiniteValue` naming the block, without a numpy warning.
    """
    PreprocessConfig(downsample=factor)
    if factor == 1:
        return series
    starts = np.arange(0, series.n_times, factor)
    counts = np.diff(np.append(starts, series.n_times)).astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.add.reduceat(series.values, starts, axis=0) / counts[:, None]
    labels = None
    if series.labels is not None:
        labels = np.maximum.reduceat(series.labels, starts)
    return LabeledSeries(values, labels, series.channel_names)

