"""Multivariate time series data model, CSV codec and preprocessing.

A series is a T x D matrix of float64 values (rows are time points, columns
are channels) with an optional 0/1 label per row.  All containers are frozen
and their arrays are marked read-only, so instances can be shared freely
across threads; every operation here returns a new object.

A score series' ``time_origin`` is the index of its first score inside the
un-trimmed source series, so scores and labels can be re-aligned after
boundary trimming without the caller doing offset bookkeeping.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError, EmptyInput, LabelError, ParseError, ShapeError

SCORE_KINDS = ("anomaly", "nominality", "induced")


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class LabeledSeries:
    """Observed multivariate series with optional ground-truth labels.

    Attributes:
        values: (T, D) float64 matrix, one row per time point.
        labels: optional (T,) vector of 0/1 ints.
        channel_names: optional list of D channel names.
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
        if not np.isfinite(values).all():
            raise ShapeError("series values must be finite after ingestion")
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
        if self.channel_names is not None:
            names = tuple(self.channel_names)
            if len(names) != values.shape[1]:
                raise ShapeError(
                    f"expected {values.shape[1]} channel names, got {len(names)}"
                )
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

    ``kind`` is one of "anomaly", "nominality" or "induced"; nominality
    scores are validated to be non-negative and finite.
    """

    scores: np.ndarray
    kind: str = "anomaly"
    time_origin: int = 0

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.ndim != 1:
            raise ShapeError(f"scores must be 1-D, got shape {scores.shape}")
        if self.kind not in SCORE_KINDS:
            raise ShapeError(f"kind must be one of {SCORE_KINDS}, got {self.kind!r}")
        if self.kind == "nominality":
            if not np.isfinite(scores).all() or (scores < 0).any():
                raise ShapeError("nominality scores must be finite and >= 0")
        object.__setattr__(self, "scores", _freeze(scores))

    def __len__(self) -> int:
        return self.scores.shape[0]


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
# Floats are written as ``repr(float(v))``, the shortest text that reads back
# as the same float64, and rows end in ``\r\n``.  Reading parses the whole
# table in one ``np.loadtxt`` call.  A table it rejects (empty or padded
# quoted cells) is cast again after trimming each cell, and only a table that
# still fails is scanned cell by cell, to name the first bad row.

LINE_END = "\r\n"


def atomic_write(path: str, text: str) -> None:
    """Replace ``path`` with ``text`` in one step.

    The text goes to a fresh file in the same directory, which then replaces
    ``path`` with ``os.replace``; a write that fails partway leaves the
    previous file intact and removes the temporary one.
    """
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "x", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_json(doc: dict, path: str) -> None:
    """Deterministic JSON (sorted keys, one-space indent) written atomically."""
    atomic_write(path, json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _quote(text: str) -> str:
    """Quote a text cell the way ``csv.writer`` does when it must."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def format_rows(block) -> list[str]:
    """Cell text of a (T,) or (T, k) array, one comma-joined string per row.

    Integer arrays print as integers and all others as ``repr(float(v))``,
    formatted in one pass through ``repr`` of the nested list.  A list of
    strings is taken as already formatted and returned as it is.
    """
    if isinstance(block, list):
        return block
    arr = np.asarray(block)
    if arr.shape[0] == 0:
        return []
    arr = arr.astype(np.int64 if arr.dtype.kind in "biu" else np.float64, copy=False)
    text = repr(arr.tolist())
    if arr.ndim == 1:
        return text[1:-1].split(", ")
    return text[2:-2].replace(", ", ",").split("],[")


def write_csv(path: str, header, columns) -> None:
    """Write a header row and the row-aligned ``columns`` (see :func:`format_rows`)."""
    texts = [format_rows(col) for col in columns]
    lines = [",".join(_quote(name) for name in header)]
    lines.extend(map(",".join, zip(*texts)))
    atomic_write(path, LINE_END.join(lines) + LINE_END)


def _cell_text(cell: str) -> str:
    """A cell with padding and enclosing quotes removed; empty reads as nan."""
    text = cell.strip()
    if len(text) >= 2 and text[0] == text[-1] == '"':
        text = text[1:-1].replace('""', '"').strip()
    return text or "nan"


def _number(cell: str) -> float | None:
    try:
        return float(_cell_text(cell))
    except ValueError:
        return None


def _label_error(path: str, row_idx: int, cell: str) -> LabelError:
    return LabelError(f"{path}: row {row_idx}: label {cell!r} is not 0 or 1")


def _locate_error(
    rows: list[list[str]], width: int, path: str, label_idx: int | None
) -> DataError:
    """The error of the first bad cell or row, checked in reading order."""
    for i, cells in enumerate(rows):
        if len(cells) != width:
            return ParseError(f"{path}: row {i}: expected {width} fields, got {len(cells)}", row=i)
        for col, cell in enumerate(cells):
            if col == label_idx:
                if _number(cell) not in (0.0, 1.0):
                    return _label_error(path, i, cell)
            elif _number(cell) is None:
                return ParseError(
                    f"{path}: row {i}: cannot parse {cell!r} in column {col} as a number", row=i
                )
    return ParseError(f"{path}: table could not be parsed")


def _read_lines(path: str, has_header: bool) -> tuple[tuple[str, ...] | None, list[str]]:
    """The header (if any) and the non-blank data lines of a CSV file."""
    with open(path, newline="") as fh:
        lines = list(filter(None, fh.read().splitlines()))
    if not lines:
        raise EmptyInput(f"{path}: file contains no rows")
    if not has_header:
        return None, lines
    if len(lines) < 2:
        raise EmptyInput(f"{path}: file contains a header but no data rows")
    return tuple(name.strip() for name in next(csv.reader(lines[:1]))), lines[1:]


def _parse_lines(
    lines: list[str], width: int, path: str, label_idx: int | None = None
) -> np.ndarray:
    """Data lines as a (T, width) float64 matrix; empty and ``nan`` cells are NaN.

    The column ``label_idx``, if given, must hold only 0 or 1.

    Raises:
        ParseError: a row has the wrong width or a cell is not a number;
            ``row`` is the zero-based data row.
        LabelError: a label cell is not 0 or 1.
    """
    try:
        table = np.loadtxt(
            lines, delimiter=",", quotechar='"', comments=None, dtype=np.float64, ndmin=2
        )
    except ValueError:
        table = None
    if table is None or table.shape[1] != width:
        rows = [line.split(",") for line in lines]
        if any(len(cells) != width for cells in rows):
            raise _locate_error(rows, width, path, label_idx)
        try:
            table = np.array(
                [_cell_text(cell) for cells in rows for cell in cells], dtype=np.float64
            ).reshape(len(rows), width)
        except ValueError:
            raise _locate_error(rows, width, path, label_idx) from None
    if label_idx is not None:
        column = table[:, label_idx]
        bad = np.flatnonzero((column != 0.0) & (column != 1.0))
        if bad.size:
            row = int(bad[0])
            raise _label_error(path, row, lines[row].split(",")[label_idx])
    return table


def read_table(path: str, width: int, label_idx: int | None = None) -> np.ndarray:
    """The (T, width) data rows of a CSV file whose header has ``width`` names.

    Cells follow :func:`_parse_lines`; a file with no data rows raises
    :class:`EmptyInput` and a header of another width :class:`ParseError`.
    """
    header, lines = _read_lines(path, has_header=True)
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


def load_csv(
    path: str,
    label_column: str | None = None,
    has_header: bool = True,
) -> LabeledSeries:
    """Read a comma-separated series file into a :class:`LabeledSeries`.

    Empty cells and literal ``nan`` entries are forward-filled per channel;
    a NaN with no predecessor becomes 0.  The label column, when named, is
    excluded from the value matrix and must contain only 0/1.

    Raises:
        EmptyInput: the file holds no data rows.
        ParseError: a row has the wrong width or a cell is not numeric.
        LabelError: a label value is not 0 or 1, or the column is missing.
    """
    header, lines = _read_lines(path, has_header)
    width = len(header) if header is not None else len(lines[0].split(","))
    label_idx: int | None = None
    if label_column is not None:
        if header is None:
            raise LabelError("label_column requires a header row")
        if label_column not in header:
            raise LabelError(f"{path}: label column {label_column!r} not found in header")
        label_idx = header.index(label_column)
    table = _parse_lines(lines, width, path, label_idx)
    labels = None
    names = header
    if label_idx is not None:
        labels = table[:, label_idx].astype(np.int64)
        table = np.delete(table, label_idx, axis=1)
        names = header[:label_idx] + header[label_idx + 1 :]
    return LabeledSeries(_forward_fill(table), labels, names)


def save_csv(series: LabeledSeries, path: str, label_column: str = "label") -> None:
    """Write a series back out with the same conventions ``load_csv`` reads."""
    names = list(series.channel_names or (f"c{j}" for j in range(series.n_channels)))
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
    clipped, so out-of-range test points stay visible to the models.
    """
    if stats.n_channels != series.n_channels:
        raise ShapeError(
            f"stats cover {stats.n_channels} channels, series has {series.n_channels}"
        )
    span = stats.maxs - stats.mins
    safe_span = np.where(span == 0.0, 1.0, span)
    out = (series.values - stats.mins) / safe_span
    out[:, stats.constant_mask] = 0.0
    return LabeledSeries(out, series.labels, series.channel_names)


def downsample(series: LabeledSeries, factor: int) -> LabeledSeries:
    """Aggregate consecutive blocks of ``factor`` rows.

    Values take the block mean; a block's label is 1 if any row in the
    block is anomalous, so short anomalies survive downsampling.  A
    trailing partial block is kept and aggregated.
    """
    if factor < 1:
        raise ShapeError("downsample factor must be >= 1")
    if factor == 1:
        return series
    starts = np.arange(0, series.n_times, factor)
    counts = np.diff(np.append(starts, series.n_times)).astype(np.float64)
    sums = np.add.reduceat(series.values, starts, axis=0)
    values = sums / counts[:, None]
    labels = None
    if series.labels is not None:
        labels = np.maximum.reduceat(series.labels, starts)
    return LabeledSeries(values, labels, series.channel_names)

