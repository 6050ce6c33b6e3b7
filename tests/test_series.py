"""Ingestion and preprocessing behavior."""

import csv
import io
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nominality import (
    DataError,
    EmptyInput,
    LabeledSeries,
    LabelError,
    MinMaxStats,
    NonFiniteValue,
    ParseError,
    ScoreSeries,
    ShapeError,
    downsample,
    load_csv,
    minmax_apply,
    minmax_fit,
    save_csv,
)
from nominality.cli import read_labels_csv, read_score_csv, write_labels_csv, write_score_csv
from nominality.series import _cell_text, as_scores, atomic_write, write_csv


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        s = load_csv(write(tmp_path, "a,b,y\n1,2,0\n3,4,1\n5,6,0\n"), label_column="y")
        assert s.n_times == 3 and s.n_channels == 2
        assert s.labels.tolist() == [0, 1, 0]
        assert s.channel_names == ("a", "b")
        np.testing.assert_array_equal(s.values, [[1, 2], [3, 4], [5, 6]])

    def test_forward_fill(self, tmp_path):
        s = load_csv(write(tmp_path, "a,b\n1,2\n3,\n5,6\n"))
        assert s.values[:, 1].tolist() == [2.0, 2.0, 6.0]

    def test_leading_nan_becomes_zero(self, tmp_path):
        s = load_csv(write(tmp_path, "a,b\nnan,2\n3,4\n"))
        assert s.values[0, 0] == 0.0

    def test_non_binary_label(self, tmp_path):
        with pytest.raises(LabelError):
            load_csv(write(tmp_path, "a,y\n1,0\n2,2\n"), label_column="y")

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyInput):
            load_csv(write(tmp_path, ""))

    def test_header_only(self, tmp_path):
        with pytest.raises(EmptyInput):
            load_csv(write(tmp_path, "a,b\n"))

    def test_ragged_row(self, tmp_path):
        with pytest.raises(ParseError) as err:
            load_csv(write(tmp_path, "a,b\n1,2\n3\n"))
        assert err.value.row == 1

    def test_garbage_cell(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(write(tmp_path, "a,b\n1,zap\n"))

    def test_missing_label_column(self, tmp_path):
        with pytest.raises(LabelError):
            load_csv(write(tmp_path, "a,b\n1,2\n"), label_column="y")

    def test_no_header(self, tmp_path):
        # The first row is always the header, so a file without one loses its first row.
        s = load_csv(write(tmp_path, "1,2\n3,4\n"))
        assert s.channel_names == ("1", "2") and s.n_times == 1

    def test_no_nan_after_ingestion(self, tmp_path):
        s = load_csv(write(tmp_path, "a,b\n,\n3,\n,4\n"))
        assert np.isfinite(s.values).all()

    @pytest.mark.parametrize("header", ["label,a,b", "a,b,label"])
    def test_byte_order_mark_is_dropped(self, tmp_path, header):
        """A UTF-8 byte-order mark (spreadsheets' "CSV UTF-8") is not part of the first name."""
        text = header + "\n0,2,0\n1,4,1\n"
        plain = load_csv(write(tmp_path, text), label_column="label")
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        marked = load_csv(str(path), label_column="label")
        assert marked.channel_names == plain.channel_names == ("a", "b")
        assert marked.values.tolist() == plain.values.tolist()
        assert marked.labels.tolist() == plain.labels.tolist()

    @pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_not_utf8_names_its_line(self, tmp_path, mark):
        path = tmp_path / "latin1.csv"
        path.write_bytes(mark + b"a,b\n1,2\n3,\xe9\n")
        with pytest.raises(ParseError,
                           match=r"latin1.csv: line 3, column 3: byte 0xe9 is not UTF-8 text$"):
            load_csv(str(path))

    def test_roundtrip_via_save(self, tmp_path):
        original = LabeledSeries(
            np.array([[0.1, 2.0], [3.5, -1.25]]), labels=[0, 1], channel_names=("u", "v")
        )
        path = str(tmp_path / "out.csv")
        save_csv(original, path)
        back = load_csv(path, label_column="label")
        np.testing.assert_array_equal(back.values, original.values)
        np.testing.assert_array_equal(back.labels, original.labels)
        assert back.channel_names == ("u", "v")


def reference_load(text):
    """The per-cell reader the codec replaced: csv.reader data rows, forward-fill loop."""
    rows = [row for row in csv.reader(io.StringIO(text, newline="")) if row][1:]
    values = np.empty((len(rows), len(rows[0])))
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            text_j = cell.strip()
            values[i, j] = math.nan if text_j == "" or text_j.lower() == "nan" else float(text_j)
    for j in range(values.shape[1]):
        last = 0.0
        for i in range(values.shape[0]):
            if math.isnan(values[i, j]):
                values[i, j] = last
            else:
                last = values[i, j]
    return values


EXTREMES = [-0.0, 5e-324, 1e-300, 0.1, 1e16, 1e22, 1.7976931348623157e308]


class TestCsvCodec:
    def test_extreme_floats_round_trip_exactly(self, tmp_path):
        values = np.array([EXTREMES, [-v for v in EXTREMES]]).T
        path = str(tmp_path / "x.csv")
        save_csv(LabeledSeries(values, labels=[0, 1] * 3 + [1]), path)
        back = load_csv(path, label_column="label")
        assert back.values.tobytes() == values.tobytes()  # keeps the sign of -0.0
        assert back.labels.tolist() == [0, 1, 0, 1, 0, 1, 1]

    def test_scores_round_trip_exactly(self, tmp_path):
        rng = np.random.default_rng(3)
        scores = np.concatenate([EXTREMES, rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500)])
        path = str(tmp_path / "s.csv")
        write_score_csv(ScoreSeries(scores, time_origin=7), path)
        back = read_score_csv(path)
        assert back.scores.tobytes() == scores.tobytes() and back.time_origin == 7

    def test_cell_text_is_repr(self, tmp_path):
        """A (T, k) float block, a (T,) float column and an integer column, side by side."""
        rng = np.random.default_rng(5)
        block = rng.standard_normal((40, 3)) * 10.0 ** rng.integers(-20, 20, (40, 3))
        block[0] = [-0.0, np.inf, np.nan]
        ints = np.arange(-20, 20)
        path = str(tmp_path / "c.csv")
        write_csv(path, ["a", "b", "c", "first", "n"], [block, block[:, 0], ints])
        rows = [",".join([*map(repr, row), repr(row[0]), str(i)])
                for row, i in zip(block.tolist(), ints.tolist())]
        assert Path(path).read_bytes().decode() == "\r\n".join(["a,b,c,first,n", *rows, ""])
        write_csv(path, ["a", "b"], [np.zeros((0, 2))])
        assert Path(path).read_bytes().decode() == "a,b\r\n"

    def test_bytes_match_csv_writer(self, tmp_path):
        rng = np.random.default_rng(8)
        values = rng.standard_normal((25, 3))
        labels = rng.integers(0, 2, 25)
        path = str(tmp_path / "w.csv")
        save_csv(LabeledSeries(values, labels=labels, channel_names=("a", "b,c", 'd"e')), path)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["a", "b,c", 'd"e', "label"])
        for row, label in zip(values, labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])
        assert Path(path).read_bytes().decode() == expected.getvalue()
        assert load_csv(path).channel_names == ("a", "b,c", 'd"e', "label")

    @pytest.mark.parametrize(
        "text",
        [
            "a,b\n,2\n3,\n,\n5,6\n",
            "a,b\nnan,NaN\n 1.5 , 2 \n  ,\t\nNAN,7\n",
            "a,b\r\n1,2\r\n\r\n,4\r\n",
            "a\n\n \n2\nnan\n",
        ],
        ids=["empty", "nan-and-padding", "crlf-blank-line", "single-column"],
    )
    def test_missing_cells_filled_like_reference(self, tmp_path, text):
        got = load_csv(write(tmp_path, text)).values
        np.testing.assert_array_equal(got, reference_load(text))

    @pytest.mark.parametrize("row", [0, 2, 4])
    @pytest.mark.parametrize("bad", ["zap", "1..2", '"x"'])
    def test_bad_cell_row(self, tmp_path, row, bad):
        lines = ["1,2"] * 5
        lines[row] = f"3,{bad}"
        with pytest.raises(ParseError) as err:
            load_csv(write(tmp_path, "a,b\n" + "\n".join(lines) + "\n"))
        assert err.value.row == row
        assert f"row {row}:" in str(err.value) and "data.csv" in str(err.value)

    @pytest.mark.parametrize("row", [0, 2, 4])
    @pytest.mark.parametrize("ragged", ["3", "3,4,5"])
    def test_ragged_row(self, tmp_path, row, ragged):
        lines = ["1,2"] * 5
        lines[row] = ragged
        with pytest.raises(ParseError) as err:
            load_csv(write(tmp_path, "a,b\n" + "\n".join(lines) + "\n"))
        assert err.value.row == row

    def test_first_error_in_reading_order_wins(self, tmp_path):
        with pytest.raises(LabelError, match="row 1:"):
            load_csv(write(tmp_path, "a,y\n1,0\n2,2\nzap,0\n"), label_column="y")
        with pytest.raises(ParseError) as err:
            load_csv(write(tmp_path, "a,y\n1,0\nzap,0\n2,2\n"), label_column="y")
        assert err.value.row == 1

    @pytest.mark.parametrize("label", ["2", "0.5", "x", "", "nan", "-1"])
    def test_labels_strict(self, tmp_path, label):
        with pytest.raises(LabelError, match="row 1:"):
            load_csv(write(tmp_path, f"a,y\n1,0\n2,{label}\n3,1\n"), label_column="y")
        labels_path = write(tmp_path, f"time_index,label\n4,0\n5,{label}\n", "labels.csv")
        # a label CSV is read as numbers, and its labels are checked once they are
        with pytest.raises(ParseError if label == "x" else LabelError, match="labels.csv: row 1:"):
            read_labels_csv(labels_path)

    def test_float_labels_accepted(self, tmp_path):
        s = load_csv(write(tmp_path, "a,y\n1,1.0\n2,0.0\n3, 1 \n"), label_column="y")
        assert s.labels.tolist() == [1, 0, 1] and s.labels.dtype == np.int64
        labels, origin = read_labels_csv(write(tmp_path, "time_index,label\n4,1.0\n5,0\n", "l.csv"))
        assert labels.tolist() == [1, 0] and origin == 4

    def test_labels_round_trip(self, tmp_path):
        path = str(tmp_path / "labels.csv")
        write_labels_csv(np.array([0, 1, 1, 0]), 12, path)
        labels, origin = read_labels_csv(path)
        assert labels.tolist() == [0, 1, 1, 0] and origin == 12

    def test_headerless(self, tmp_path):
        """A file without a header is read as if its first row were one."""
        s = load_csv(write(tmp_path, "1,2\n,4\n5,6\n"))
        np.testing.assert_array_equal(s.values, [[0, 4], [5, 6]])
        with pytest.raises(ParseError) as err:
            load_csv(write(tmp_path, "1,2\n3\n"))
        assert err.value.row == 0
        with pytest.raises(LabelError):
            load_csv(write(tmp_path, "1,2\n3,4\n"), label_column="y")

    def test_quoted_cells(self, tmp_path):
        s = load_csv(write(tmp_path, '"a","b"\n"1.5",2\n3,"-0.25"\n""," 7 "\n'))
        assert s.channel_names == ("a", "b")
        np.testing.assert_array_equal(s.values, [[1.5, 2.0], [3.0, -0.25], [3.0, 7.0]])

    def test_score_csv_time_index_must_be_integer(self, tmp_path):
        with pytest.raises(DataError, match="time_index"):
            read_score_csv(write(tmp_path, "time_index,score\n2.5,1.0\n"))
        with pytest.raises(ParseError, match="2 columns"):
            read_score_csv(write(tmp_path, "time_index,score,x\n2,1.0,3\n"))

    @pytest.mark.parametrize(
        "values",
        [
            np.zeros((0, 3)),
            np.array([[-0.001, 1e16, 2.5e-7]]),
            np.arange(-600.0, 600.0).reshape(-1, 3),  # integer-valued floats
            np.array([0.0, -0.0, 0.5, 12.0, np.inf, -np.inf, np.nan, 5e-324, 2.0**60]
                     * 2000).reshape(-1, 3),  # every value left to repr, over several blocks
        ],
        ids=["no-rows", "one-row", "integer-valued", "all-repr"],
    )
    def test_write_csv_bytes_match_csv_writer(self, tmp_path, values):
        labels = np.arange(values.shape[0]) % 2
        path = str(tmp_path / "w.csv")
        write_csv(path, ["a", "b", "c", "label"], [values, labels])
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["a", "b", "c", "label"])
        for row, label in zip(values.tolist(), labels.tolist()):
            writer.writerow([repr(v) for v in row] + [label])
        assert Path(path).read_bytes() == expected.getvalue().encode()

    def test_save_csv_memory_is_bounded(self, tmp_path):
        """The text is formatted and written a block at a time, never held whole."""
        rng = np.random.default_rng(4)
        series = LabeledSeries(rng.standard_normal((30_000, 8)), labels=rng.integers(0, 2, 30_000))
        save_csv(series, str(tmp_path / "warm.csv"))  # the kernel's tables, built once
        tracemalloc.start()
        try:
            save_csv(series, str(tmp_path / "s.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.4e6


def test_rejected_table_trims_each_cell_once(tmp_path, monkeypatch):
    """A table ``np.loadtxt`` rejects, with an empty cell in its first row and one that is no
    number in its last, is read once more in one pass: each cell is trimmed at most once,
    and the error names the last row."""
    rows = [[f"{i}.{j}" for j in range(3)] + [" " * i + "0"] for i in range(6)]
    rows[0][1], rows[-1][2] = "", "x"
    path = write(tmp_path, "a,b,c,label\n" + "".join(",".join(row) + "\n" for row in rows))
    trimmed = []
    monkeypatch.setattr("nominality.series._cell_text",
                        lambda cell: trimmed.append(cell) or _cell_text(cell))
    with pytest.raises(ParseError) as exc:
        load_csv(path, label_column="label")
    assert str(exc.value) == f"{path}: row 5: cannot parse 'x' in column 2 as a number"
    assert exc.value.row == 5
    assert trimmed and len(set(trimmed)) == len(trimmed)


#: Every line boundary of ``str.splitlines``, at which the reader ends a line.
LINE_BREAKS = list("\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029")


@pytest.mark.parametrize("char", LINE_BREAKS + [",", '"'], ids=ascii)
def test_header_name_round_trips_or_raises(tmp_path, char):
    """A channel name that holds a comma or a quote is quoted and reads back; one that
    holds a line break, which the reader would split the header at, raises and writes
    nothing."""
    path = tmp_path / "names.csv"
    series = LabeledSeries(np.ones((2, 2)), labels=[0, 1], channel_names=("a", f"b{char}c"))
    if char in LINE_BREAKS:
        with pytest.raises(DataError, match=r"names\.csv: header name 'b.+c' holds a line break$"):
            save_csv(series, str(path))
        assert not path.exists()
    else:
        save_csv(series, str(path))
        assert load_csv(str(path), label_column="label").channel_names == ("a", f"b{char}c")


class TestAtomicWrite:
    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text("previous\n")

        def chunks():  # the write fails partway, after its first 100 000 bytes
            yield b"x" * 100_000
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            atomic_write(str(path), chunks())
        assert path.read_text() == "previous\n"
        assert os.listdir(tmp_path) == ["a.json"]

    def test_failed_replace_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "s.csv"
        save_csv(LabeledSeries(np.ones((2, 1))), str(path))
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk gone"):
            save_csv(LabeledSeries(np.zeros((3, 1))), str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["s.csv"]

    def test_success_replaces_and_keeps_mode(self, tmp_path):
        path = tmp_path / "m.json"
        atomic_write(str(path), [b"one"])
        atomic_write(str(path), [b"two"])
        assert path.read_text() == "two" and os.listdir(tmp_path) == ["m.json"]
        plain = tmp_path / "plain.json"
        plain.write_text("")  # the mode open() gives under the current umask
        assert path.stat().st_mode == plain.stat().st_mode


class TestSeriesInvariants:
    def test_label_length_checked(self):
        with pytest.raises(ShapeError):
            LabeledSeries(np.ones((3, 2)), labels=[0, 1])

    def test_label_values_checked(self):
        with pytest.raises(LabelError):
            LabeledSeries(np.ones((2, 2)), labels=[0, 2])

    def test_nan_rejected(self):
        with pytest.raises(ShapeError):
            LabeledSeries(np.array([[1.0, np.nan]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("row", [0, 3, 6], ids=["first", "middle", "last"])
    def test_non_finite_names_its_row(self, bad, row):
        """The one finiteness check of a series names the first row with a bad value."""
        values = np.ones((7, 3))
        values[row, 1] = bad
        values[6, 2] = np.nan  # a later bad row is not the one named
        with pytest.raises(NonFiniteValue,
                           match="^series values must be finite after ingestion$") as exc:
            LabeledSeries(values)
        assert exc.value.row == row

    def test_values_read_only(self):
        s = LabeledSeries(np.ones((2, 2)))
        with pytest.raises(ValueError):
            s.values[0, 0] = 5.0

    def test_caller_arrays_stay_writeable(self):
        """A container holds a read-only view of the caller's array: it shares the
        memory and leaves the caller's flags alone."""
        values, labels = np.ones((3, 2)), np.zeros(3, dtype=np.int64)
        scores, mins, maxs = np.ones(3), np.zeros(2), np.ones(2)
        series = LabeledSeries(values, labels=labels)
        stats = MinMaxStats(mins, maxs)
        held = [series.values, series.labels, ScoreSeries(scores).scores, stats.mins, stats.maxs]
        assert not any(arr.flags.writeable for arr in held)
        assert all(arr.flags.writeable for arr in (values, labels, scores, mins, maxs))
        values[0, 0] = 5.0
        assert series.values[0, 0] == 5.0

    def test_score_series_takes_no_kind(self):
        """A score series has no kind: one passed where the time origin goes is refused,
        not kept as the origin."""
        with pytest.raises(TypeError):
            ScoreSeries(np.ones(3), "nominality")
        with pytest.raises(TypeError):
            ScoreSeries(np.ones(3), kind="nominality")
        assert ScoreSeries(np.ones(3), np.int64(4)).time_origin == 4

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("row", [0, 3, 6], ids=["first", "middle", "last"])
    def test_non_finite_score_names_its_row(self, bad, row):
        """A score series checks its own scores and names the first row with a bad one."""
        scores = np.ones(7)
        scores[row] = bad
        if row < 6:
            scores[6] = np.nan  # a later bad row is not the one named
        with pytest.raises(NonFiniteValue, match="^scores must be finite$") as exc:
            ScoreSeries(scores, 5)
        assert exc.value.row == row

    def test_as_scores_keeps_a_series_and_gives_an_array_origin_0(self):
        series = ScoreSeries(np.arange(3.0), 4)
        assert as_scores(series) is series
        from_array = as_scores(np.arange(3.0))
        assert isinstance(from_array, ScoreSeries) and from_array.time_origin == 0
        np.testing.assert_array_equal(from_array.scores, [0.0, 1.0, 2.0])
        with pytest.raises(NonFiniteValue):
            as_scores([1.0, np.inf])


class TestMinMax:
    def test_fit_simple(self):
        stats = minmax_fit(LabeledSeries(np.array([[0.0], [5.0], [10.0]])))
        assert stats.mins[0] == 0 and stats.maxs[0] == 10
        assert not stats.constant_mask[0]

    def test_fit_constant_flagged(self):
        stats = minmax_fit(LabeledSeries(np.array([[3.0], [3.0], [3.0]])))
        assert stats.mins[0] == stats.maxs[0] == 3
        assert stats.constant_mask[0]

    def test_fit_two_channels(self):
        stats = minmax_fit(LabeledSeries(np.array([[0.0, 1.0], [4.0, 3.0]])))
        assert stats.mins.tolist() == [0, 1] and stats.maxs.tolist() == [4, 3]

    def test_apply_midpoint(self):
        stats = minmax_fit(LabeledSeries(np.array([[0.0], [10.0]])))
        out = minmax_apply(LabeledSeries(np.array([[5.0]])), stats)
        assert out.values[0, 0] == 0.5

    def test_apply_no_clipping(self):
        stats = minmax_fit(LabeledSeries(np.array([[0.0], [10.0]])))
        out = minmax_apply(LabeledSeries(np.array([[12.0]])), stats)
        assert out.values[0, 0] == pytest.approx(1.2)

    def test_apply_constant_to_zero(self):
        stats = minmax_fit(LabeledSeries(np.array([[3.0], [3.0]])))
        out = minmax_apply(LabeledSeries(np.array([[3.0]])), stats)
        assert out.values[0, 0] == 0.0

    def test_apply_dimension_mismatch(self):
        stats = minmax_fit(LabeledSeries(np.ones((2, 2))))
        with pytest.raises(ShapeError):
            minmax_apply(LabeledSeries(np.ones((2, 3))), stats)

    @pytest.mark.parametrize("train, test, row", [
        ([[0.0, 0.0], [0.5, 1.0]], [[0.1, 0.0], [0.2, 0.0], [1.5e308, 1.6e308]], 2),
        ([[1.7e308, 0.0], [-1.7e308, 1.0]], [[0.0, 0.0], [1.7e308, 0.0]], 1),
    ], ids=["value", "span"])
    def test_apply_overflow_names_first_row(self, train, test, row):
        """A scaled value that overflows, from a huge value or a span beyond float range,
        raises NonFiniteValue naming its row, without a numpy warning (which the test
        settings make an error)."""
        stats = minmax_fit(LabeledSeries(np.array(train)))
        with pytest.raises(NonFiniteValue) as exc:
            minmax_apply(LabeledSeries(np.array(test)), stats)
        assert exc.value.row == row

    def test_roundtrip_within_tolerance(self):
        rng = np.random.default_rng(11)
        train = LabeledSeries(rng.uniform(-5, 7, (50, 4)))
        other = LabeledSeries(rng.uniform(-9, 12, (30, 4)))
        stats = minmax_fit(train)
        mins, maxs = train.values.min(axis=0), train.values.max(axis=0)
        expected = (other.values - mins) / (maxs - mins)
        np.testing.assert_array_equal(minmax_apply(other, stats).values, expected)

    def test_roundtrip_constant_channel(self):
        train = LabeledSeries(np.full((4, 1), 2.5))
        stats = minmax_fit(train)
        # (x - min) / (max - min) is 0/0 here; a constant channel maps to 0.
        np.testing.assert_array_equal(minmax_apply(train, stats).values, np.zeros((4, 1)))


class TestDownsample:
    def test_identity(self):
        s = LabeledSeries(np.arange(8.0).reshape(4, 2), labels=[0, 1, 0, 0])
        out = downsample(s, 1)
        np.testing.assert_array_equal(out.values, s.values)
        np.testing.assert_array_equal(out.labels, s.labels)

    def test_block_mean_and_any_label(self):
        s = LabeledSeries(np.array([[0.0], [2.0], [4.0], [6.0]]), labels=[0, 0, 1, 0])
        out = downsample(s, 2)
        assert out.values[:, 0].tolist() == [1.0, 5.0]
        assert out.labels.tolist() == [0, 1]

    def test_trailing_partial_block(self):
        s = LabeledSeries(np.arange(5.0)[:, None])
        out = downsample(s, 2)
        assert out.n_times == 3
        assert out.values[:, 0].tolist() == [0.5, 2.5, 4.0]

    @pytest.mark.parametrize("factor, rows, sign, block", [
        (2, [0, 1], 1.0, 0), (2, [4, 5], -1.0, 2), (3, [6, 8], 1.0, 2),
    ], ids=["first", "middle-negative", "last"])
    def test_overflowing_block_names_the_block(self, factor, rows, sign, block):
        """A block whose sum overflows raises NonFiniteValue naming the block, without a
        numpy warning (which the test settings make an error)."""
        values = np.zeros((9, 2))
        values[rows, 1] = sign * 1.7e308
        with pytest.raises(NonFiniteValue) as exc:
            downsample(LabeledSeries(values), factor)
        assert exc.value.row == block
