"""End-to-end pipeline and CLI behavior on small synthetic runs.

Every process the tests start imports the ``nominality`` this file imported,
so with an installed copy first on the path the file tests that copy.
"""

import dataclasses
import errno
import functools
import gc
import hashlib
import io
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from nominality import cli, numtext, series
from nominality.cli import main, read_labels_csv, read_score_csv
from nominality.config import (
    RETIRED_KEYS,
    PipelineConfig,
    config_from_dict,
    load_config,
    trig_preset,
)
from nominality.errors import ConfigError, DataError
from nominality.evaluation import _f1_from_counts, confusion, evaluate
from nominality.pipeline import ScoreBundle, fit_models, score_split, sweep_table
from nominality.reconstructors import (
    _decode_array,
    _encode_array,
    load_model,
    save_model,
)
from nominality.scoring import resolve_theta, smoothed_score, theta_from_percentile
from nominality.series import LabeledSeries, load_csv
from nominality.synthetic import TrigSpec, gen_trig
from point_fit_reference import _init_point_model

#: The directory that holds the ``nominality`` this file imported: ``src`` in a
#: checkout, ``site-packages`` for an installed copy.  Every child process imports
#: the package from there, so each process tests the same copy.
PACKAGE_PARENT = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
#: The checkout this file is in, for perfbench/, pyproject.toml and README.md.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Every subcommand; each loads the config first.
COMMANDS = ("synth", "train", "score", "eval", "sweep")
#: The files of ``score``, ``eval`` and ``sweep`` that name no path, so a copied run
#: directory gives them the same bytes.
COMMAND_OUTPUTS = {
    "score": ("anomaly.csv", "sequence_anomaly.csv", "nominality.csv", "induced.csv",
              "labels.csv", "scores.npy"),
    "eval": ("eval_report.json", "curve.csv"),
    "sweep": ("sweep.json",),
}

SMALL_CONFIG = """\
data:
  train: {out}/train.csv
  test: {out}/test.csv
preprocess:
  downsample: 1
  normalization: minmax
point_model:
  d_lat: 2
  learn_rate: 0.001
  optimizer: adam
  batch_size: 16
  epochs: 3
  seed: 0
sequence_model:
  gamma: 5
  delta: 2
  ridge_lambda: 1.0e-6
gate:
  kind: soft
  theta_percentile: 98.5
  d: 8
eval:
  point_adjust: true
sweep:
  d_values: [1, 2, 4]
synth:
  kind: trig
  seed: 0
  options:
    n_channels: 4
    n_train: 400
    n_test: 300
    segments:
      - [100, 130, frequency-shift]
      - [200, 201, point-noise]
      - [240, 241, point-noise]
output:
  dir: {out}
"""


def _field_knob_cases():
    """Every number, word and flag field of the config's sections with each kind of
    bad value: (YAML, knob, id).

    Each field's rule is read from its metadata, so a field declared without one
    fails here.  A number gets a string, a bool, a list, NaN and a value out of its
    range (the first integer below its lowest, -1.0 for a real); a real also gets
    ``.inf`` and the integer 10**400, past float64 range, and an integer whose rule
    refuses infinity gets ``.inf``.  A word with a fixed set of values (its rule
    refuses ``abc``) gets those and its default in capitals.  A flag gets a string, 0, null and a list.  The other fields
    (paths, the sweep's list, ``synth.options``) have cases of their own.  A retired
    key, whose rule is its one value, gets the cases of the type it had as a field.
    """
    wrong_type = {"string": "abc", "bool": "true", "list": "[1]", "nan": ".nan"}
    knobs = [(section, f.name, typing.get_type_hints(cls)[f.name], f.metadata["rule"][0],
              f.default)
             for section, cls in typing.get_type_hints(PipelineConfig).items()
             for f in dataclasses.fields(cls)]
    retired_hints = {"preprocess.normalization": str, "point_model.optimizer": str,
                     "eval.point_adjust": bool,
                     "eval.spike_interval": int | None, "synth.kind": str}
    knobs += [(*name.split("."), retired_hints[name], lambda value, one=one: value == one, one)
              for name, one in RETIRED_KEYS.items()]
    cases = []
    for section, name, hint, test, default in knobs:
        if hint in (int, int | None):
            values = {**wrong_type, "range": next(v for v in (1, 0, -1) if not test(v)),
                      **({} if test(math.inf) else {"inf": ".inf"})}
        elif hint in (float, float | None):
            values = {**wrong_type, "range": -1.0, "inf": ".inf", "huge-integer": 10**400}
        elif hint is str and not test("abc"):
            values = {**wrong_type, "range": default.upper()}
        elif hint is bool:
            values = {"string": '"no"', "zero": 0, "null": "null", "list": "[true]"}
        else:
            continue
        cases += [(f"{section}:\n  {name}: {value}\n", f"{section}.{name}",
                   f"{section}.{name}-{kind}") for kind, value in values.items()]
    return cases


FIELD_KNOB_CASES = _field_knob_cases()


def _edit_json(edit):
    """A damage that edits the decoded JSON document in place."""
    def damage(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)
    return damage


def _edit_array(keys, edit):
    """A damage that replaces the array of model.json at ``keys`` by ``edit`` of it."""
    def replace(doc):
        *outer, leaf = keys
        section = functools.reduce(dict.__getitem__, outer, doc)
        section[leaf] = _encode_array(edit(_decode_array(section[leaf])))
    return _edit_json(replace)


def _first_to(value):
    """An array edit that sets the first entry to ``value``."""
    def edit(arr):
        out = arr.copy()
        out.flat[0] = value
        return out
    return edit


def _edit_rows(edit):
    """A damage that rewrites the cells of each data row i as ``edit(i, cells)``."""
    def damage(text):
        header, *rows = text.split("\r\n")[:-1]
        rows = [",".join(edit(i, row.split(","))) for i, row in enumerate(rows)]
        return "\r\n".join([header, *rows, ""])
    return damage


def _score_cell(cell):
    """A damage that writes ``cell`` as the score of data row 3."""
    return _edit_rows(lambda i, cells: [cells[0], cell] if i == 3 else cells)


# every index from data row 3 on moves up by one, so the file skips an index
_SKIP_INDEX = _edit_rows(lambda i, cells: [str(int(cells[0]) + (i >= 3)), cells[1]])

# a finite value of data row 150 whose squared error overflows
_HUGE_VALUE = _edit_rows(lambda i, cells: [cells[0], "1e200", *cells[2:]] if i == 150 else cells)

# the last digit of data row 10's first cell changed: one byte of the file differs
_ONE_BYTE = _edit_rows(lambda i, cells: [
    cells[0][:-1] + ("3" if cells[0][-1] == "2" else "2"), *cells[1:]] if i == 10 else cells)

# one byte of data row 3 that is not UTF-8 (the file is rewritten as Latin-1)
_NOT_UTF8 = _edit_rows(
    lambda i, cells: [cells[0], "\xff" + cells[1], *cells[2:]] if i == 3 else cells)


def _npy_text(arr):
    """The bytes ``np.save`` writes for ``arr``, as Latin-1 text (one character a byte)."""
    buffer = io.BytesIO()
    np.save(buffer, arr)
    return buffer.getvalue().decode("latin-1")


def _edit_matrix(edit):
    """A damage that saves scores.npy again as ``edit`` of a copy of its matrix."""
    def damage(text):
        matrix = np.load(io.BytesIO(text.encode("latin-1")), allow_pickle=False).copy()
        return _npy_text(edit(matrix))
    return damage


def _set_cell(row, col, value):
    """A matrix edit that sets one cell."""
    def edit(matrix):
        matrix[row, col] = value
        return matrix
    return edit


def _skip_matrix_index(matrix):
    """Every index from row 3 on moves up by one, so the matrix skips an index."""
    matrix[3:, 0] += 1
    return matrix


# each damage of scores.npy: a truncated file, a pickled object array, a matrix
# of 4 columns, a NaN score, a negative nominality, a label of 2, a skipped
# index, and a file that np.load takes for a zip archive
_MATRIX_DAMAGES = {
    "truncated": lambda text: text[: len(text) // 2],
    "pickled": lambda text: _npy_text(np.array([[0.0, "a"]], dtype=object)),
    "four-columns": _edit_matrix(lambda matrix: matrix[:, :4].copy()),
    "score-nan": _edit_matrix(_set_cell(3, 1, np.nan)),
    "nominality-negative": _edit_matrix(_set_cell(0, 3, -1.0)),
    "label-two": _edit_matrix(_set_cell(5, 5, 2.0)),
    "index-skip": _edit_matrix(_skip_matrix_index),
    "zip-header": lambda text: "PK\x03\x04" + text,
}


def _nest(text, levels, start=0):
    """``text`` nested ``levels`` deep: a JSON document inside that many arrays, or, from
    ``start`` > 0 on, YAML given a complex key of that many nested sequences there."""
    if start:
        return text[:start] + "? " + "[" * levels + "]" * levels + "\n: 0\n" + text[start:]
    return "[" * levels + text + "]" * levels


# the run files a command decodes as JSON, and the command that decodes each
_NESTED_READERS = [("score", "manifest_train.json"), ("eval", "manifest_score.json"),
                   ("sweep", "manifest_score.json"), ("score", "model.json")]


def _drop_labels(config_path, out):
    """Rewrite both splits without their label column, the last, and return a
    second config with ``data.label_column: null``."""
    for split in ("train.csv", "test.csv"):
        _rewrite(os.path.join(out, split), lambda text: "".join(
            line.rsplit(",", 1)[0] + "\r\n" for line in text.split("\r\n")[:-1]))
    return second_config(config_path, "data:\n", "data:\n  label_column: null\n")


def _channels(order):
    """A damage that keeps the channel columns of a split in ``order``, then its label column."""
    def damage(text):
        rows = [line.split(",") for line in text.split("\r\n")[:-1]]
        return "\r\n".join([",".join([cells[j] for j in order] + cells[-1:]) for cells in rows]
                           + [""])
    return damage


def _record_digest(out, name, command="train"):
    """Record ``name``'s current sha256 in ``command``'s manifest, as if it had written it.

    Then the digest check of the command that reads the file passes, and a
    damage reaches the decoder it names.
    """
    path = os.path.join(out, f"manifest_{command}.json")
    with open(path) as fh:
        doc = json.load(fh)
    with open(os.path.join(out, name), "rb") as fh:
        doc["digests"][name] = hashlib.sha256(fh.read()).hexdigest()
    with open(path, "w") as fh:
        json.dump(doc, fh)


def write_config(tmp_path, out_name="run"):
    out = tmp_path / out_name
    out.mkdir(exist_ok=True)
    path = tmp_path / f"{out_name}.yaml"
    path.write_text(SMALL_CONFIG.format(out=out))
    return str(path), str(out)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def second_config(config_path, old, new):
    """A second config file: ``config_path``'s text with ``old`` replaced by ``new`` once."""
    with open(config_path) as fh:
        text = fh.read()
    assert old in text
    path = "_second".join(os.path.splitext(config_path))
    with open(path, "w") as fh:
        fh.write(text.replace(old, new, 1))
    return path


# SMALL_CONFIG's gate.d and point_model.seed, as second_config edits
GATE_D_1 = ("  d: 8\n", "  d: 1\n")
POINT_SEED_1 = ("  seed: 0\nsequence_model:", "  seed: 1\nsequence_model:")


def run_all(config_path):
    for command in COMMANDS:
        assert main([command, "--config", config_path]) == 0


@pytest.fixture(scope="module")
def rundir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    config_path, out = write_config(tmp)
    run_all(config_path)
    return config_path, out


class TestEndToEnd:
    def test_all_artifacts_written(self, rundir):
        _, out = rundir
        for name in (
            "train.csv", "test.csv", "model.json",
            "anomaly.csv", "sequence_anomaly.csv", "nominality.csv", "induced.csv",
            "labels.csv", "scores.npy", "eval_report.json", "curve.csv", "sweep.json",
        ):
            assert os.path.exists(os.path.join(out, name)), name
        # their facts are in manifest_synth.json, sweep.json and model.json
        for name in ("synth_spec.json", "sweep.csv", "point_model.json", "sequence_model.json",
                     "preprocess_stats.json", "train_nominality.csv"):
            assert not os.path.exists(os.path.join(out, name)), name

    def test_each_record_holds_its_own_fields(self, rundir):
        """The exact keys of every manifest and model file: no record restates another."""
        config_path, out = rundir
        common = {"command", "config", "versions"}
        expected = {
            "manifest_synth.json": common | {"spec", "anomaly_rate"},
            "manifest_train.json": common | {"final_losses", "digests"},
            "manifest_score.json": common | {"resolved_theta", "digests"},
            "manifest_eval.json": common | {"inputs"},
            "manifest_sweep.json": common,
            "model.json": {"format", "channel_names", "point", "sequence", "minmax",
                           "train_nominality"},
        }
        docs = {name: read_json(os.path.join(out, name)) for name in expected}
        for name, keys in expected.items():
            assert set(docs[name]) == keys, name
        model = docs["model.json"]
        assert set(model["point"]) == {"enc_w", "enc_b", "dec_w", "dec_b"}
        assert set(model["sequence"]) == {"gamma", "delta", "weights"}
        assert set(model["minmax"]) == {"mins", "maxs"}
        assert model["channel_names"] == ["c0", "c1", "c2", "c3"]
        assert set(docs["manifest_train.json"]["final_losses"]) == {
            "point_epoch_losses", "sequence_fit_residual"}
        spec = dataclasses.asdict(load_config(config_path).synth.spec())
        assert docs["manifest_synth.json"]["spec"] == json.loads(json.dumps(spec))
        assert 0 < docs["manifest_synth.json"]["anomaly_rate"] < 1
        assert docs["manifest_eval.json"]["inputs"] == [os.path.join(out, "scores.npy")]

    def test_manifests_reproducible_fields(self, rundir):
        _, out = rundir
        score_manifest = read_json(os.path.join(out, "manifest_score.json"))
        assert "resolved_theta" in score_manifest
        assert score_manifest["resolved_theta"] > 0
        train_manifest = read_json(os.path.join(out, "manifest_train.json"))
        assert "final_losses" in train_manifest
        train_digests = train_manifest["digests"]
        assert set(train_digests) == {"data.train", "model.json"}
        assert score_manifest["digests"].items() >= train_digests.items()
        assert set(score_manifest["digests"]) - set(train_digests) == {
            "data.test", "anomaly.csv", "sequence_anomaly.csv", "nominality.csv", "induced.csv",
            "labels.csv", "scores.npy"}

    def test_train_manifest_loss_curve(self, rundir):
        _, out = rundir
        losses = read_json(os.path.join(out, "manifest_train.json"))["final_losses"]
        curve = losses["point_epoch_losses"]
        assert len(curve) == 3  # SMALL_CONFIG's epochs
        assert all(math.isfinite(loss) and loss > 0 for loss in curve)

    def test_score_alignment(self, rundir):
        _, out = rundir
        induced = read_score_csv(os.path.join(out, "induced.csv"))
        # gamma=5, test T=300: valid range is [5, 295)
        assert induced.time_origin == 5
        assert len(induced) == 290

    def test_eval_report_contents(self, rundir):
        _, out = rundir
        report = read_json(os.path.join(out, "eval_report.json"))
        assert set(report) == {"best_f1", "best_threshold", "precision", "recall", "auc",
                               "positives", "negatives", "pa_best_f1"}
        assert 0.0 <= report["best_f1"] <= 1.0
        assert report["pa_best_f1"] >= report["best_f1"]
        induced = read_score_csv(os.path.join(out, "induced.csv"))
        labels = read_labels_csv(os.path.join(out, "labels.csv"))[0]
        assert (report["positives"], report["negatives"]) == (labels.sum(), (labels == 0).sum())
        curve = evaluate(induced, labels).curve
        lines = Path(out, "curve.csv").read_bytes().decode().split("\r\n")
        assert lines[0] == "threshold,tp,fp" and lines[-1] == ""
        counts = [f"{int(tp)},{int(fp)}" for tp, fp in curve[:, 1:]]  # integers, not 1.0
        assert lines[1:-1] == [f"{t!r},{c}" for t, c in zip(curve[:, 0].tolist(), counts)]

    def test_curve_rebuilds_precision_recall_f1(self, rundir):
        """curve.csv and the report's counts give the precision, recall and F1 at every
        threshold, bit for bit the ones that confusion counts give (the columns curve.csv
        held before it held counts)."""
        _, out = rundir
        report = read_json(os.path.join(out, "eval_report.json"))
        thresholds, tp, fp = np.loadtxt(os.path.join(out, "curve.csv"), delimiter=",",
                                        skiprows=1).T
        assert (tp[0], fp[0]) == (report["positives"], report["negatives"])
        with np.errstate(invalid="ignore"):
            precision = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
            recall = tp / report["positives"]
            f1 = np.where(tp > 0, 2 * precision * recall / (precision + recall), 0.0)
        scores = read_score_csv(os.path.join(out, "induced.csv")).scores
        labels = read_labels_csv(os.path.join(out, "labels.csv"))[0]
        counts = np.array([confusion(scores >= t, labels)[:3] for t in thresholds])
        for rebuilt, expected in zip((precision, recall, f1), _f1_from_counts(*counts.T)):
            assert np.array_equal(rebuilt, expected)
        best = int(np.argmax(f1))
        assert (f1[best], thresholds[best], precision[best], recall[best]) == (
            report["best_f1"], report["best_threshold"], report["precision"], report["recall"])

    def test_file_roundtrip_matches_in_process(self, rundir):
        config_path, out = rundir
        cfg = load_config(config_path)
        train = load_csv(os.path.join(out, "train.csv"), label_column="label")
        test = load_csv(os.path.join(out, "test.csv"), label_column="label")
        bundle = score_split(cfg, fit_models(cfg, train), test)
        report = evaluate(bundle.induced, bundle.labels)
        assert read_json(os.path.join(out, "eval_report.json")) == report.summary()
        induced = read_score_csv(os.path.join(out, "induced.csv"))
        np.testing.assert_array_equal(induced.scores, bundle.induced.scores)

    @pytest.mark.parametrize("name", ["test.csv", "induced.csv"])
    def test_csv_cells_written_by_repr(self, rundir, name):
        """synth's and score's CSVs are what an independent writer makes of their
        parsed cells: ``repr`` of each integer and float, CRLF after every row."""
        text = Path(rundir[1], name).read_bytes().decode()
        header, *rows = text.split("\r\n")[:-1]
        cells = [[int(c) if c.lstrip("-").isdigit() else float(c) for c in row.split(",")]
                 for row in rows]
        assert "".join(f"{line}\r\n" for line in [header, *(",".join(map(repr, row))
                                                             for row in cells)]) == text

    def test_float_cells_take_the_kernel(self, rundir):
        """Every float cell of the splits and the score CSVs lies below 2^49, where the
        CSV writer takes Ryu's common path, and at most 0.1 % of them go to ``repr``."""
        out = rundir[1]
        cells = [load_csv(os.path.join(out, name), label_column="label").values.ravel()
                 for name in ("train.csv", "test.csv")]
        cells += [read_score_csv(os.path.join(out, name)).scores for name in cli.SCORE_CSVS]
        values = np.concatenate(cells)
        assert (np.abs(values) < 2.0**49).all()
        assert numtext._shortest(values.view(np.uint64))[2].sum() <= values.size // 1000

    def test_csv_cells_take_loadtxt(self, rundir, tmp_path, monkeypatch):
        """The splits, score CSVs and labels.csv parse in ``np.loadtxt``'s one call: the
        fallback that trims each cell in Python is never reached.  A split with one empty
        cell reaches it, and the cell is forward-filled."""
        out = rundir[1]
        trim = series._cell_text

        def refuse(cell):
            raise AssertionError(f"cell {cell!r} went to the per-cell fallback")

        monkeypatch.setattr(series, "_cell_text", refuse)
        for name in ("train.csv", "test.csv"):
            load_csv(os.path.join(out, name), label_column="label")
        for name in cli.SCORE_CSVS:
            read_score_csv(os.path.join(out, name))
        read_labels_csv(os.path.join(out, "labels.csv"))
        trimmed = []
        monkeypatch.setattr(series, "_cell_text", lambda cell: trimmed.append(cell) or trim(cell))
        path = _rewrite(shutil.copy(os.path.join(out, "test.csv"), tmp_path / "test.csv"),
                        _edit_rows(lambda i, cells: ["", *cells[1:]] if i == 7 else cells))
        split = load_csv(path, label_column="label")
        full = load_csv(os.path.join(out, "test.csv"), label_column="label")
        assert trimmed
        assert split.values[7, 0] == full.values[6, 0] != full.values[7, 0]
        np.testing.assert_array_equal(np.delete(split.values, 7, axis=0),
                                      np.delete(full.values, 7, axis=0))

    def test_sweep_structure(self, rundir):
        _, out = rundir
        table = read_json(os.path.join(out, "sweep.json"))
        assert table["d_values"] == [1, 2, 4]
        rows = table["rows"]
        assert set(rows) == {
            "point", "sequence", "hard_theta_inf", "hard_theta_pct", "soft_theta_pct"
        }
        # d is irrelevant for the raw reconstruction rows
        assert len(set(rows["point"]["best_f1"])) == 1
        assert rows["point"]["best_f1_std"] == 0.0
        assert rows["sequence"]["auc_std"] == 0.0

    def test_sweep_open_hard_gate_equals_smoother(self, rundir):
        _, out = rundir
        table = read_json(os.path.join(out, "sweep.json"))
        anomaly = read_score_csv(os.path.join(out, "anomaly.csv"))
        labels = np.loadtxt(
            os.path.join(out, "labels.csv"), delimiter=",", skiprows=1, dtype=np.int64
        )[:, 1]
        for i, d in enumerate(table["d_values"]):
            report = evaluate(smoothed_score(anomaly, d), labels)
            assert table["rows"]["hard_theta_inf"]["best_f1"][i] == report.best_f1
            assert table["rows"]["hard_theta_inf"]["auc"][i] == report.auc


class TestOneConfig:
    """The config file is the only source of settings, and every manifest records it as one."""

    def test_manifest_configs_load_as_the_run_config(self, rundir):
        config_path, out = rundir
        cfg = load_config(config_path)
        for command in COMMANDS:
            doc = read_json(os.path.join(out, f"manifest_{command}.json"))
            assert config_from_dict(doc["config"]) == cfg, command

    def test_score_manifest_config_replays_score(self, tmp_path):
        """manifest_score.json's config, written out as YAML, rewrites induced.csv byte for byte."""
        config_path, out = write_config(tmp_path)
        for command in ("synth", "train", "score"):
            assert main([command, "--config", config_path]) == 0
        induced = os.path.join(out, "induced.csv")
        first = Path(induced).read_bytes()
        os.remove(induced)
        replay = tmp_path / "replay.yaml"
        replay.write_text(yaml.safe_dump(
            read_json(os.path.join(out, "manifest_score.json"))["config"]))
        assert main(["score", "--config", str(replay)]) == 0
        assert Path(induced).read_bytes() == first

    def test_earlier_run_directory_gives_the_same_bytes(self, tmp_path):
        """A run directory as earlier versions wrote it reads as it did: a model.json
        that also holds the fit's settings (``point.hyperparams``, with the retired
        optimizer, and ``sequence.ridge_lambda``) and manifests whose configs name the
        retired keys at their one values.  ``score`` on it, with its
        manifest_score.json config written out as YAML, and then ``eval`` and
        ``sweep`` rewrite induced.csv, eval_report.json and sweep.json byte for byte."""
        def retired(config):
            for name, one in RETIRED_KEYS.items():
                section, key = name.split(".")
                config.setdefault(section, {})[key] = one

        def earlier_model(doc):
            cfg = load_config(config_path)
            doc["point"]["hyperparams"] = {**dataclasses.asdict(cfg.point_model),
                                           "optimizer": "adam"}
            doc["sequence"]["ridge_lambda"] = cfg.sequence_model.ridge_lambda

        config_path, out = write_config(tmp_path)
        run_all(config_path)
        outputs = {name: Path(out, name).read_bytes()
                   for name in ("induced.csv", "eval_report.json", "sweep.json")}
        _rewrite(os.path.join(out, "model.json"), _edit_json(earlier_model))
        _record_digest(out, "model.json")
        _rewrite(os.path.join(out, "manifest_train.json"),
                 _edit_json(lambda doc: retired(doc["config"])))
        config = read_json(os.path.join(out, "manifest_score.json"))["config"]
        retired(config)
        replay = tmp_path / "replay.yaml"
        replay.write_text(yaml.safe_dump(config))
        for name in outputs:
            os.remove(os.path.join(out, name))
        assert main(["score", "--config", str(replay)]) == 0
        _rewrite(os.path.join(out, "manifest_score.json"),
                 _edit_json(lambda doc: retired(doc["config"])))
        for command in ("eval", "sweep"):
            assert main([command, "--config", str(replay)]) == 0
        for name, data in outputs.items():
            assert Path(out, name).read_bytes() == data, name

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("flag, value", [("--d", "1"), ("--gate", "hard"),
                                             ("--theta-percentile", "99"), ("--seed", "1"),
                                             ("--out", "elsewhere")])
    def test_removed_flag_exit_2(self, tmp_path, capsys, command, flag, value):
        config_path, _ = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", config_path, flag, value])
        assert exc.value.code == 2
        assert f"error: unrecognized arguments: {flag} {value}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--sc", "anomaly.csv"), ("--lab", "labels.csv"),
                                             ("--conf", "run.yaml")])
    def test_flag_prefix_exit_2(self, tmp_path, capsys, flag, value):
        """A prefix of a flag is not taken for it: ``eval --sc anomaly.csv`` reads no file."""
        config_path, out = write_config(tmp_path)
        argv = ["eval", flag, value] if flag == "--conf" else ["eval", "--config", config_path,
                                                                 flag, os.path.join(out, value)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        usage, error = capsys.readouterr().err.splitlines()
        assert usage.startswith("usage: nominality ")
        assert error == f"nominality: error: unrecognized arguments: {' '.join(argv[-2:])}"


class TestDeterminism:
    def test_bit_identical_reruns(self, tmp_path):
        """Two run directories hold the same bytes, and so does one run again in place,
        its manifest_score.json too (the other's names another directory)."""
        config_a, out_a = write_config(tmp_path, "a")
        config_b, out_b = write_config(tmp_path, "b")
        run_all(config_a)
        run_all(config_b)
        names = ("train.csv", "model.json", "anomaly.csv", "nominality.csv", "induced.csv",
                 "scores.npy", "eval_report.json", "curve.csv", "sweep.json")
        first = {name: Path(out_a, name).read_bytes()
                 for name in (*names, "manifest_score.json")}
        for command in ("train", "score", "sweep", "eval"):
            assert main([command, "--config", config_a]) == 0
        for name, data in first.items():
            assert Path(out_a, name).read_bytes() == data, name
            if name in names:
                assert Path(out_b, name).read_bytes() == data, name


class TestCliBehavior:
    def test_d_zero_makes_induced_equal_anomaly(self, tmp_path):
        config_path, out = write_config(tmp_path)
        assert main(["synth", "--config", config_path]) == 0
        assert main(["train", "--config", config_path]) == 0
        d_zero = second_config(config_path, "  d: 8\n", "  d: 0\n")
        assert main(["score", "--config", d_zero]) == 0
        anomaly = Path(out, "anomaly.csv").read_text()
        induced = Path(out, "induced.csv").read_text()
        assert anomaly == induced

    def test_missing_train_file_exit_3(self, tmp_path, capsys):
        config_path, _ = write_config(tmp_path)
        assert main(["train", "--config", config_path]) == 3
        assert "train.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["train-is-directory", "out-is-file"])
    def test_unusable_path_exit_3(self, tmp_path, capsys, where):
        config_path, out = write_config(tmp_path)
        if where == "train-is-directory":
            os.mkdir(os.path.join(out, "train.csv"))
            argv = ["train", "--config", config_path]
        else:
            (tmp_path / "taken").write_text("")
            argv = ["synth", "--config",
                    second_config(config_path, f"  dir: {out}\n", f"  dir: {tmp_path}/taken\n")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("data error: ")
        assert "Traceback" not in err

    def test_bad_config_exit_2(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("point_model:\n  bogus_knob: 3\n")
        assert main(["train", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "data, where",
        [
            (b"\xff\xfe", "line 1, column 1: byte 0xff is not UTF-8 text"),
            (b"gate:\n  d: 4\n  \xe9: 1\n", "line 3, column 3: byte 0xe9 is not UTF-8 text"),
            (b"data: [\n", "line 2, column 1: invalid YAML: "),
            (b"gate:\n  d: 4\n  kind: soft: hard\n", "line 3, column 13: invalid YAML: "),
            (b"gate:\n  d: 4\n\x00kind: soft\n", "line 3, column 1: invalid YAML: "),
            # PyYAML alone would read the last gate: a soft gate with d 8
            (b"gate:\n  kind: hard\n  d: 4\ngate:\n  d: 8\n",
             "line 4, column 1: invalid YAML: found duplicate key 'gate'\n"),
            (b"data:\n  train: a.csv\n  train: b.csv\n",
             "line 3, column 3: invalid YAML: found duplicate key 'train'\n"),
        ],
        ids=["utf16-bom", "latin1-key", "open-flow", "double-colon", "nul", "repeated-section",
             "repeated-key"],
    )
    def test_unreadable_config_exit_2(self, tmp_path, capsys, data, where):
        path = tmp_path / "bad.yaml"
        path.write_bytes(data)
        assert main(["train", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"config error: {path}: {where}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("name, code", [("nope.yaml", errno.ENOENT),
                                            ("dir.yaml", errno.EISDIR)],
                             ids=["missing", "directory"])
    def test_unopenable_config_exit_2(self, tmp_path, capsys, name, code):
        """A ``--config`` path that cannot be opened exits 2 with one line naming it."""
        path = tmp_path / name
        if code == errno.EISDIR:
            path.mkdir()
        assert main(["eval", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {path}: cannot read the config file: {os.strerror(code)}\n")

    @pytest.mark.parametrize(
        "text, knob",
        [
            ("gate:\n  d: abc\n", "gate.d"),
            ("sweep:\n  d_values: 5\n", "sweep.d_values"),
            ("sweep:\n  d_values: [1, 2.5]\n", "sweep.d_values"),
            ("sweep:\n  d_values: [16, 16, 0]\n", "sweep.d_values"),
            # YAML 1.1 reads 1e-6 (no dot) as a string
            ("sequence_model:\n  ridge_lambda: 1e-6\n", "sequence_model.ridge_lambda"),
            ("eval:\n  spike_interval: x\n", "eval.spike_interval"),
            # retired keys, each held to its one value
            ("eval:\n  point_adjust: false\n", "eval.point_adjust"),
            ("eval:\n  spike_interval: 3\n", "eval.spike_interval"),
            ('preprocess:\n  downsample: "2"\n', "preprocess.downsample"),
            ('point_model:\n  epochs: "3"\n', "point_model.epochs"),
            ("gate:\n  theta_percentile: abc\n", "gate.theta_percentile"),
            ("point_model:\n  d_lat: [4]\n", "point_model.d_lat"),
            ("point_model:\n  batch_size: 0\n", "point_model.batch_size"),
            ("point_model:\n  seed: -1\n", "point_model.seed"),
            ("point_model:\n  learn_rate: 1e-4\n", "point_model.learn_rate"),
            ("point_model:\n  learn_rate: .inf\n", "point_model.learn_rate"),
            ("sequence_model:\n  gamma: 2.0\n", "sequence_model.gamma"),
            ("sequence_model:\n  delta: 0\n", "sequence_model.delta"),
            ("gate:\n  theta_percentile: 101\n", "gate.theta_percentile"),
            ("gate:\n  theta_percentile: 0\n", "gate.theta_percentile"),
            ("gate:\n  theta_n: .nan\n  theta_percentile: null\n", "gate.theta_n"),
            ("gate:\n  theta_n: yes\n  theta_percentile: null\n", "gate.theta_n"),
            ("data:\n  train: [a]\n", "data.train"),
            ("data:\n  train: {a: 1}\n", "data.train"),
            ("data:\n  train: 5\n", "data.train"),
            ("data:\n  test: 1.5\n", "data.test"),
            ("data:\n  label_column: 3\n", "data.label_column"),
            ("output:\n  dir: null\n", "output.dir"),
            ("output:\n  dir: 7\n", "output.dir"),
            ("output:\n  dir: [a]\n", "output.dir"),
            ('data:\n  train: ""\n', "data.train"),
            ('data:\n  test: ""\n', "data.test"),
            ('data:\n  label_column: ""\n', "data.label_column"),
            ('output:\n  dir: ""\n', "output.dir"),
            # the reader strips header names, so no header would hold these
            ('data:\n  label_column: " label"\n', "data.label_column"),
            ('data:\n  label_column: "label\\t"\n', "data.label_column"),
        ] + [case[:2] for case in FIELD_KNOB_CASES],
        ids=["d-string", "d-values-scalar", "d-values-float", "d-values-repeated",
             "lambda-string", "spike-string", "point-adjust-false", "spike-interval-set",
             "downsample-string", "epochs-string", "percentile-string",
             "d-lat-list", "batch-zero", "seed-negative",
             "rate-string", "rate-inf", "gamma-float", "delta-zero", "percentile-range",
             "percentile-zero",
             "theta-nan", "theta-bool", "train-list", "train-mapping", "train-int", "test-float",
             "label-column-int", "out-dir-null", "out-dir-int", "out-dir-list", "train-empty",
             "test-empty", "label-column-empty", "out-dir-empty", "label-column-leading-space",
             "label-column-trailing-tab"]
            + [case[2] for case in FIELD_KNOB_CASES],
    )
    def test_mistyped_knob_exit_2(self, tmp_path, capsys, text, knob):
        path = tmp_path / "typed.yaml"
        path.write_text(text)
        assert main(["train", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"config error: {knob} ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, name, damage",
        [
            ("score", "model.json", lambda text: text[: len(text) // 2]),
            ("score", "model.json", _edit_json(lambda doc: doc["sequence"].pop("weights"))),
            ("score", "model.json", _edit_json(lambda doc: doc["minmax"].pop("maxs"))),
            ("score", "model.json",
             _edit_json(lambda doc: doc["train_nominality"].update(data="abc"))),
            ("score", "model.json", _edit_array(["train_nominality"], lambda n: n[:0])),
            ("eval", "induced.csv", lambda text: text[:-2] + "x\r\n"),
            ("eval", "labels.csv", lambda text: text.replace(",0\r\n", ",2\r\n", 1)),
            ("eval", "labels.csv", lambda text: text + "999\r\n"),
            # the latent width is the length of enc_b
            ("score", "model.json", _edit_array(["point", "enc_b"], lambda b: b[:0])),
            ("score", "model.json", _edit_array(["point", "enc_b"], lambda b: b[:-1])),
            ("score", "model.json", _edit_array(["point", "dec_w"], lambda w: w.T.copy())),
            ("score", "model.json", _edit_array(["sequence", "weights"], lambda w: w[:-1])),
            ("score", "model.json", _edit_array(["point", "enc_w"], _first_to(np.nan))),
            ("score", "model.json", _edit_array(["sequence", "weights"], _first_to(np.nan))),
            ("score", "model.json", _edit_array(["minmax", "mins"], _first_to(np.nan))),
            ("score", "model.json", _edit_array(["train_nominality"], _first_to(-1.0))),
            ("score", "model.json", _edit_array(["train_nominality"], _first_to(np.inf))),
            ("eval", "induced.csv", _score_cell("nan")),
            ("eval", "induced.csv", _score_cell("")),
            ("eval", "induced.csv", _score_cell("inf")),
            ("eval", "induced.csv", _SKIP_INDEX),
            ("eval", "labels.csv", _SKIP_INDEX),
            ("score", "test.csv", _HUGE_VALUE),
            ("sweep", "test.csv", _HUGE_VALUE),
            ("score", "test.csv", _NOT_UTF8),
            ("eval", "induced.csv", _NOT_UTF8),
            ("score", "model.json", _edit_array(["minmax", "mins"], _first_to(1e300))),
            ("score", "model.json", _edit_json(lambda doc: doc["channel_names"].pop())),
            ("score", "model.json", lambda text: text.replace("nominality-model-v2",
                                                              "nominality-model-v1")),
            ("score", "model.json", _edit_json(lambda doc: doc.update(minmax=None))),
            # score decodes all of model.json, channel names included; sweep does not open it
            ("score", "model.json", _edit_json(lambda doc: doc.update(channel_names="abcd"))),
            ("score", "model.json",
             _edit_json(lambda doc: doc.update(channel_names=[0, 1, 2, 3]))),
            # every series has channel names, so a model without them is not one of ours
            ("score", "model.json", _edit_json(lambda doc: doc.update(channel_names=None))),
        ] + [(command, "scores.npy", damage) for damage in _MATRIX_DAMAGES.values()
             for command in ("eval", "sweep")]
        # nested past Python's recursion limit, and far past it
        + [(command, name, functools.partial(_nest, levels=levels))
           for levels in (3000, 200_000) for command, name in _NESTED_READERS],
        ids=["point-truncated", "sequence-no-arrays", "stats-truncated", "nominality-bad-cell",
             "nominality-no-rows", "induced-bad-cell", "labels-not-binary", "labels-ragged",
             "point-d-lat-zero", "point-enc-b-short", "point-dec-w-transposed",
             "sequence-row-missing", "point-weight-nan", "sequence-weight-nan", "stats-min-nan",
             "nominality-negative", "nominality-inf", "induced-nan",
             "induced-empty", "induced-inf", "induced-index-skip", "labels-index-skip",
             "test-value-huge-score", "test-value-huge-sweep", "test-not-utf8",
             "induced-not-utf8", "stats-min-above-max", "channel-names-short", "old-format",
             "stats-null",
             "channel-names-string", "channel-names-ints", "channel-names-null"]
            + [f"matrix-{kind}-{command}" for kind in _MATRIX_DAMAGES
               for command in ("eval", "sweep")]
            + [f"nested-{levels}-{name}-{command}" for levels in (3000, 200_000)
               for command, name in _NESTED_READERS],
    )
    def test_undecodable_artifact_exit_3(self, rundir, tmp_path, capsys, command, name, damage):
        config_path, out = write_config(tmp_path)
        shutil.copytree(rundir[1], out, dirs_exist_ok=True)
        path = os.path.join(out, name)
        # Latin-1 maps each byte to one character, so a damage can write any byte.
        with open(path, encoding="latin-1", newline="") as fh:
            text = fh.read()
        with open(path, "w", encoding="latin-1", newline="") as fh:
            fh.write(damage(text))
        if name == "model.json":
            _record_digest(out, name)
            _record_digest(out, name, "score")
        if name == "scores.npy":
            _record_digest(out, name, "score")
        # Named paths skip eval's digest check, so the damage reaches the CSV reader.
        paths = []
        if command == "eval" and name.endswith(".csv"):
            paths = ["--scores", os.path.join(out, "induced.csv"),
                     "--labels", os.path.join(out, "labels.csv")]
        assert main([command, "--config", config_path, *paths]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("data error: ")
        assert name in err and "Traceback" not in err
        assert (command != "score" and name != "model.json") or " changed since " not in err

    def test_model_with_channel_count_scores_alike(self, rundir, tmp_path):
        """A model.json that still holds ``sequence.n_channels``, as earlier versions wrote
        it, scores as the file without it: the channel names give the channel count."""
        config_path, out = write_config(tmp_path)
        shutil.copytree(rundir[1], out, dirs_exist_ok=True)
        _rewrite(os.path.join(out, "model.json"),
                 _edit_json(lambda doc: doc["sequence"].update(n_channels=4)))
        _record_digest(out, "model.json")
        assert main(["score", "--config", config_path]) == 0
        for name in (*cli.SCORE_CSVS, "labels.csv", "scores.npy"):
            assert Path(out, name).read_bytes() == Path(rundir[1], name).read_bytes(), name

    def test_swapped_model_files_exit_3(self, rundir, tmp_path, capsys):
        """model.json with its point and sequence sections swapped."""
        config_path, out = write_config(tmp_path)
        shutil.copytree(rundir[1], out, dirs_exist_ok=True)
        path = os.path.join(out, "model.json")
        doc = read_json(path)
        doc["point"], doc["sequence"] = doc["sequence"], doc["point"]
        Path(path).write_text(json.dumps(doc))
        _record_digest(out, "model.json")
        assert main(["score", "--config", config_path]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"data error: {path}: cannot decode model: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["score", "eval", "sweep"])
    @pytest.mark.parametrize("key", ["bad\0name", os.path.join("..", "run.yaml")],
                             ids=["nul", "parent-dir"])
    def test_unlisted_digest_key_is_ignored(self, rundir, tmp_path, command, key):
        """A reader opens only the files it depends on, so a recorded key outside its list
        never becomes a path: not even one that is no file name, with a wrong digest.
        ``score`` copies only the digests it checked into its own manifest."""
        config_path, out = write_config(tmp_path)
        shutil.copytree(rundir[1], out, dirs_exist_ok=True)
        owner = "train" if command == "score" else "score"
        manifest = os.path.join(out, f"manifest_{owner}.json")
        _rewrite(manifest, _edit_json(lambda doc: doc["digests"].update({key: "0" * 64})))
        assert main([command, "--config", config_path]) == 0
        for name in COMMAND_OUTPUTS[command]:
            with open(os.path.join(rundir[1], name), "rb") as fh:
                assert Path(out, name).read_bytes() == fh.read(), name
        if command == "score":
            digests = read_json(os.path.join(out, "manifest_score.json"))["digests"]
            assert key not in digests

    @pytest.mark.parametrize("edit", ["unrecorded", "changed"])
    @pytest.mark.parametrize(
        "command, producer, name",
        [("score", "train", name) for name in ("data.train", "model.json")]
        + [(command, "score", name) for command in ("eval", "sweep")
           for name in ("data.train", "model.json", "data.test", "scores.npy")],
    )
    def test_each_listed_file_is_checked_exit_3(self, rundir, tmp_path, capsys, command,
                                                producer, name, edit):
        """Each file a reader depends on must be recorded in its producer's manifest, and
        unchanged since; either failure names the file, a split by its path."""
        config_path, out = write_config(tmp_path)
        shutil.copytree(rundir[1], out, dirs_exist_ok=True)
        manifest = os.path.join(out, f"manifest_{producer}.json")
        split = {"data.train": "train.csv", "data.test": "test.csv"}
        path = os.path.join(out, split.get(name, name))
        if edit == "unrecorded":
            _rewrite(manifest, _edit_json(lambda doc: doc["digests"].pop(name)))
            message = (f"{path} is not among the files manifest_{producer}.json records; "
                       f"run '{producer}' again\n")
        else:
            with open(path, "ab") as fh:
                fh.write(b"\n")
            message = (f"{path} changed since '{producer}' ran (its sha256 differs from the one "
                       f"in {manifest}); run '{producer}' again\n")
        assert main([command, "--config", config_path]) == 3
        assert capsys.readouterr().err == f"data error: {message}"

    @pytest.mark.parametrize("command", ["score", "sweep"])
    @pytest.mark.parametrize(
        "edit, section",
        [
            (("gamma: 5", "gamma: 6"), "sequence_model"),
            (("downsample: 1", "downsample: 2"), "preprocess"),
            (("d_lat: 2", "d_lat: 3"), "point_model"),
            (POINT_SEED_1, "point_model"),
        ],
        ids=["gamma", "downsample", "d-lat", "seed"],
    )
    def test_stale_artifacts_exit_2(self, rundir, tmp_path, capsys, command, edit, section):
        config_path, out = write_config(tmp_path)
        shutil.copytree(rundir[1], out, dirs_exist_ok=True)
        assert main([command, "--config", second_config(config_path, *edit)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"config error: the {section} ")
        assert "Traceback" not in err

    def test_degenerate_labels_exit_3(self, tmp_path, capsys):
        """``eval``, on scores.npy or on the two CSVs, and ``sweep`` refuse labels of one
        class in one line naming the file they came from and that class."""
        config_path, out = write_config(tmp_path)
        # strip every anomaly segment: labels become all zero
        text = Path(config_path).read_text()
        text = text.replace("    segments:\n"
                            "      - [100, 130, frequency-shift]\n"
                            "      - [200, 201, point-noise]\n"
                            "      - [240, 241, point-noise]\n", "")
        Path(config_path).write_text(text)
        assert main(["synth", "--config", config_path]) == 0
        assert main(["train", "--config", config_path]) == 0
        assert main(["score", "--config", config_path]) == 0
        capsys.readouterr()
        csvs = ["--scores", os.path.join(out, "induced.csv"),
                "--labels", os.path.join(out, "labels.csv")]
        for args, source in ((["eval"], "scores.npy"), (["eval", *csvs], "labels.csv"),
                             (["sweep"], "scores.npy")):
            assert main([*args, "--config", config_path]) == 3
            assert capsys.readouterr().err == (
                f"data error: {os.path.join(out, source)}: labels must contain at least one 0 "
                f"and one 1; all 290 are 0\n")

    def test_epochs_zero_saves_seeded_init(self, tmp_path):
        config_path, out = write_config(tmp_path)
        text = Path(config_path).read_text().replace("epochs: 3", "epochs: 0")
        Path(config_path).write_text(text)
        assert main(["synth", "--config", config_path]) == 0
        assert main(["train", "--config", config_path]) == 0
        model = load_model(os.path.join(out, "model.json")).point
        fresh = _init_point_model(4, load_config(config_path).point_model)
        np.testing.assert_array_equal(model.enc_w, fresh.enc_w)
        np.testing.assert_array_equal(model.dec_b, fresh.dec_b)

    def test_small_gamma_alignment(self, tmp_path):
        # gamma=2 on a 10-row test split: scores cover [2, 8), time_origin 2.
        out = tmp_path / "o"
        out.mkdir()
        rng = np.random.default_rng(0)
        from nominality.series import LabeledSeries, save_csv

        train = LabeledSeries(rng.standard_normal((60, 2)),
                              labels=np.zeros(60, dtype=int))
        test = LabeledSeries(rng.standard_normal((10, 2)),
                             labels=np.array([0] * 9 + [1]))
        save_csv(train, str(out / "train.csv"))
        save_csv(test, str(out / "test.csv"))
        config = tmp_path / "g.yaml"
        config.write_text(
            f"data:\n  train: {out}/train.csv\n  test: {out}/test.csv\n"
            "point_model:\n  d_lat: 2\n  epochs: 1\n  batch_size: 8\n"
            "sequence_model:\n  gamma: 2\n  delta: 1\n"
            f"output:\n  dir: {out}\n"
        )
        assert main(["train", "--config", str(config)]) == 0
        assert main(["score", "--config", str(config)]) == 0
        induced = read_score_csv(str(out / "induced.csv"))
        assert len(induced) == 6 and induced.time_origin == 2

    @pytest.mark.parametrize(
        "synth, key",
        [
            ("  options:\n    bogus: 1\n", "unknown key 'bogus' in section 'synth.options'; "
             "expected one of n_channels, n_train, n_test, segments\n"),
            ("  options: [1]\n", ""),
            ("  options:\n    n_channels: x\n    n_train: 100\n    n_test: 100\n",
             ".n_channels"),
            ("  options:\n    n_channels: 0\n    n_train: 100\n    n_test: 100\n", ".n_channels"),
            ("  options:\n    n_channels: 2\n    n_train: 0\n    n_test: 100\n", ".n_train"),
            ("  options:\n    n_channels: 2\n    n_train: 100\n    n_test: 0\n", ".n_test"),
            ("  options:\n    n_channels: -1\n    n_train: 100\n    n_test: 100\n",
             ".n_channels"),
            ("  options:\n    n_channels: 2\n    n_train: 100\n    n_test: 100\n"
             "    segments:\n      - [90, 120, frequency-shift]\n", ".segments"),
            ("  options:\n    n_channels: 2\n    n_train: 100\n    n_test: 100\n"
             "    segments:\n      - [90, 95]\n", ".segments"),
            ("  options:\n    n_channels: 2\n    n_train: 100\n", ".n_test"),
            ("  options:\n    n_channels: .inf\n    n_train: 100\n    n_test: 100\n",
             ".n_channels"),
            ("  options:\n    n_channels: 2\n    n_train: 100\n    n_test: 100\n"
             "    segments:\n      - [50, .inf, point-noise]\n", ".segments"),
            ("  options:\n    n_channels: 2\n    n_train: .nan\n    n_test: 100\n", ".n_train"),
            (f"  options:\n    n_channels: {10**400}\n    n_train: 100\n    n_test: 100\n",
             ".n_channels"),
            ("  options:\n    n_channels: 2\n    n_train: 100\n    n_test: 100\n"
             f"    segments:\n      - [50, {10**400}, point-noise]\n", ".segments"),
        ],
        ids=["unknown-key", "options-list", "channels-string", "channels-zero",
             "train-zero", "test-zero", "channels-negative", "segment-outside", "segment-short",
             "trig-n-test-unset", "channels-inf", "segment-inf", "train-nan",
             "channels-huge-integer", "segment-huge-integer"],
    )
    def test_bad_synth_options_exit_2(self, tmp_path, capsys, synth, key):
        path = tmp_path / "synth.yaml"
        path.write_text(f"synth:\n{synth}output:\n  dir: {tmp_path}\n")
        assert main(["synth", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        prefix = key if key.startswith("unknown key") else f"synth.options{key}"
        assert len(err.splitlines()) == 1 and err.startswith(f"config error: {prefix}")
        assert "Traceback" not in err

    def test_malformed_segment_states_the_rule_in_words(self, tmp_path, capsys):
        """A segment that is not a [start, end, kind] triple is refused in words, in-process
        and by ``synth``, as every other key's rule is."""
        message = ("synth.options.segments must be a list of [start, end, kind] triples, "
                   "got [[1, 2]]")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            TrigSpec(n_channels=2, n_train=10, n_test=10, segments=[[1, 2]])
        path = tmp_path / "synth.yaml"
        path.write_text("synth:\n  options:\n    n_channels: 2\n    n_train: 10\n"
                        f"    n_test: 10\n    segments: [[1, 2]]\noutput:\n  dir: {tmp_path}\n")
        assert main(["synth", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_out_of_memory_exit_3(self, tmp_path, capsys, monkeypatch):
        """An allocation the host cannot satisfy (here a stand-in) is a data error."""
        def gen_trig(spec):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr("nominality.cli.gen_trig", gen_trig)
        config_path, _ = write_config(tmp_path)
        assert main(["synth", "--config", config_path]) == 3
        assert capsys.readouterr().err == "data error: out of memory: Unable to allocate 7.28 TiB\n"

    def test_synth_writes_the_data_paths(self, rundir, tmp_path):
        """``synth`` writes its splits to ``data.train`` and ``data.test``, creating their
        directory, and nothing to ``output.dir``, so ``train`` reads what it wrote.  The
        splits are the bytes it writes anywhere else."""
        config_path, out = write_config(tmp_path)
        data = tmp_path / "data"
        # train.csv, test.csv
        text = Path(config_path).read_text().replace(f"{out}/t", f"{data}/t")
        Path(config_path).write_text(text)
        assert main(["synth", "--config", config_path]) == 0
        assert sorted(os.listdir(data)) == ["test.csv", "train.csv"]
        for name in ("train.csv", "test.csv"):
            assert (data / name).read_bytes() == Path(rundir[1], name).read_bytes()
        assert sorted(os.listdir(out)) == ["manifest_synth.json"]
        assert main(["train", "--config", config_path]) == 0

    @pytest.mark.parametrize("which", ["train", "test"])
    def test_synth_without_data_path_exit_2(self, tmp_path, capsys, which):
        config_path, out = write_config(tmp_path)
        text = Path(config_path).read_text().replace(f"  {which}: {out}/{which}.csv\n", "")
        Path(config_path).write_text(text)
        assert main(["synth", "--config", config_path]) == 2
        assert capsys.readouterr().err == f"config error: config is missing data.{which}\n"
        assert os.listdir(out) == []

    def test_delta_wider_than_context_exit_2(self, tmp_path, capsys):
        """delta > 2 * gamma breaks a config rule, so every command refuses the config."""
        config_path, out = write_config(tmp_path)
        config_path = second_config(config_path, "  gamma: 5\n  delta: 2\n",
                                    "  gamma: 2\n  delta: 5\n")
        for command in COMMANDS:
            assert main([command, "--config", config_path]) == 2
            assert capsys.readouterr().err == (
                "config error: sequence_model.delta must be at most 2 * gamma = 4, got 5\n")
        assert os.listdir(out) == []

    def test_synth_writes_the_label_column(self, tmp_path):
        """The labels go to the column ``data.label_column`` names, where ``train`` reads them."""
        config_path, out = write_config(tmp_path)
        config_path = second_config(config_path, "data:\n", "data:\n  label_column: y\n")
        assert main(["synth", "--config", config_path]) == 0
        names = Path(out, "train.csv").read_text().splitlines()[0].rstrip().split(",")
        assert names[-1] == "y"
        assert Path(out, "test.csv").read_text().splitlines()[0].rstrip().split(",") == names
        assert main(["train", "--config", config_path]) == 0
        assert load_model(os.path.join(out, "model.json")).channel_names == tuple(names[:-1])

    def test_synth_label_column_names_a_channel_exit_2(self, tmp_path, capsys):
        """A label column named like a channel would give the splits a header with that
        name twice, which ``train`` cannot read, so ``synth`` writes neither split."""
        config_path, out = write_config(tmp_path)
        config_path = second_config(config_path, "data:\n", "data:\n  label_column: c0\n")
        assert main(["synth", "--config", config_path]) == 2
        assert capsys.readouterr().err == (
            "config error: data.label_column 'c0' names one of synth's channels, c0 to c3\n")
        assert os.listdir(out) == []

    @pytest.mark.parametrize("char", list("\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029"), ids=ascii)
    def test_synth_label_column_with_a_line_break_exit_2(self, tmp_path, capsys, char):
        """The reader ends a line at each boundary of ``str.splitlines``, so no header it
        reads holds one, and ``synth`` writes no split whose label column ``train`` misses."""
        config_path, out = write_config(tmp_path)
        config_path = second_config(config_path, "data:\n",
                                    f"data:\n  label_column: {json.dumps(f'a{char}b')}\n")
        assert main(["synth", "--config", config_path]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("config error: data.label_column ")
        assert os.listdir(out) == []

    def test_label_column_named_twice_exit_3(self, rundir, tmp_path, capsys):
        """A header that names the label column twice is refused, not read at its first."""
        config_path, out = write_config(tmp_path)
        path = os.path.join(out, "train.csv")
        text = Path(rundir[1], "train.csv").read_bytes().decode()
        Path(path).write_text(text.replace("c0,", "label,", 1), newline="")
        assert main(["train", "--config", config_path]) == 3
        assert capsys.readouterr().err == (
            f"data error: {path}: header names label column 'label' more than once\n")

    @pytest.mark.parametrize("command, which, name", [
        ("synth", "test", "induced.csv"), ("train", "train", "model.json"),
        ("score", "test", "labels.csv"), ("eval", "test", "../run/manifest_eval.json"),
        ("sweep", "train", "./sweep.json")])
    def test_split_path_names_an_output_exit_2(self, rundir, tmp_path, capsys, command,
                                               which, name):
        """A split path that names a file the commands write in ``output.dir`` would be
        read as a split and written over, so every command refuses it and writes nothing."""
        config_path, out = write_config(tmp_path)
        shutil.copytree(rundir[1], out, dirs_exist_ok=True)
        path = os.path.join(out, name)
        config_path = second_config(config_path, f"{which}: {out}/{which}.csv",
                                    f"{which}: {path}")
        before = {file: Path(out, file).read_bytes() for file in os.listdir(out)}
        assert main([command, "--config", config_path]) == 2
        assert capsys.readouterr().err == (
            f"config error: data.{which} names {path}, a file the commands write in "
            f"output.dir; keep the splits apart from the outputs\n")
        assert {file: Path(out, file).read_bytes()
                for file in os.listdir(out)} == before

    def test_synth_without_label_column_exit_2(self, tmp_path, capsys):
        config_path, out = write_config(tmp_path)
        config_path = second_config(config_path, "data:\n", "data:\n  label_column: null\n")
        assert main(["synth", "--config", config_path]) == 2
        assert capsys.readouterr().err == (
            "config error: synth writes the labels to data.label_column, which is null\n")
        assert os.listdir(out) == []

    @pytest.mark.parametrize("test_path", ["{out}/train.csv", "{out}/./train.csv",
                                           "{out}/../run/train.csv"])
    def test_synth_one_file_for_both_splits_exit_2(self, tmp_path, capsys, test_path):
        """The test split would overwrite the training split, so ``synth`` writes neither."""
        config_path, out = write_config(tmp_path)
        config_path = second_config(config_path, f"test: {out}/test.csv",
                                    "test: " + test_path.format(out=out))
        assert main(["synth", "--config", config_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: data.train and data.test name the same file, ")
        assert len(err.splitlines()) == 1
        assert os.listdir(out) == []

    def test_synth_toy_and_sensor(self, tmp_path, capsys):
        """``synth.kind`` is retired at ``trig``; ``toy`` and ``sensor`` exit 2 with one line."""
        path = tmp_path / "synth.yaml"
        for kind in ("toy", "sensor"):
            path.write_text(f"synth:\n  kind: {kind}\noutput:\n  dir: {tmp_path}\n")
            assert main(["synth", "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err == (f"config error: synth.kind is retired: leave it out or set it to "
                           f"trig, got {kind!r}\n")


# model.json with the training nominality another training run might have written: valid values
_retrained = _edit_array(["train_nominality"], lambda n: 2.0 ** -np.arange(n.shape[0]))


def _rewrite(path, damage):
    """Rewrite the file at ``path`` as ``damage`` of its text; return the path."""
    with open(path, newline="") as fh:
        text = fh.read()
    with open(path, "w", newline="") as fh:
        fh.write(damage(text))
    return path


def _other_point_model(config_path, out, tmp_path):
    """model.json with the point model of a run on the test split, with the same hyperparameters."""
    cfg = load_config(config_path)
    path = os.path.join(out, "model.json")
    before = Path(path).read_bytes()
    models = load_model(path)
    models.point = fit_models(cfg, load_csv(cfg.data.test, label_column="label")).point
    save_model(models, path)
    assert Path(path).read_bytes() != before
    return path


def _other_train_split(config_path, out, tmp_path):
    """The config names another training split, one byte off the one ``train`` read."""
    other = str(tmp_path / "other_train.csv")
    shutil.copy(os.path.join(out, "train.csv"), other)
    text = Path(config_path).read_text()
    Path(config_path).write_text(text.replace(f"train: {out}/train.csv", f"train: {other}"))
    return _rewrite(other, _ONE_BYTE)


class TestScoreFromTraining:
    """``score`` refuses the training artifacts once anything they depend on changed."""

    @pytest.mark.parametrize(
        "change",
        [
            lambda config_path, out, tmp_path: _rewrite(
                os.path.join(out, "model.json"), _retrained),
            _other_point_model,
            _other_train_split,
            lambda config_path, out, tmp_path: _rewrite(os.path.join(out, "train.csv"), _ONE_BYTE),
        ],
        ids=["train-nominality-retrained", "point-model-other-data", "other-train-split",
             "train-byte"],
    )
    def test_changed_since_train_exit_3(self, rundir, tmp_path, capsys, change):
        config_path, out = write_config(tmp_path)
        shutil.copytree(rundir[1], out, dirs_exist_ok=True)
        path = change(config_path, out, tmp_path)
        assert main(["score", "--config", config_path]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"data error: {path} changed ")
        assert err.rstrip().endswith("run 'train' again")

    @pytest.mark.parametrize("order", [[1, 0, 2, 3], [0, 1, 2]], ids=["permuted", "dropped"])
    def test_other_channels_exit_3(self, rundir, tmp_path, capsys, order):
        """A test split must have the training split's channels, in the same order."""
        config_path, out = write_config(tmp_path)
        shutil.copytree(rundir[1], out, dirs_exist_ok=True)
        path = _rewrite(os.path.join(out, "test.csv"), _channels(order))
        assert main(["score", "--config", config_path]) == 3
        channels = [f"c{j}" for j in order]
        assert capsys.readouterr().err == (
            f"data error: {path}: channels {channels} are not the training split's "
            f"['c0', 'c1', 'c2', 'c3'] (from model.json)\n")

    def test_byte_order_mark_in_train_split(self, rundir, tmp_path):
        """A training split saved with a UTF-8 byte-order mark (spreadsheets' "CSV UTF-8")
        trains the same model, so ``score`` accepts the test split without one."""
        config_path, out = write_config(tmp_path)
        shutil.copytree(rundir[1], out, dirs_exist_ok=True)
        train = os.path.join(out, "train.csv")
        with open(train, "rb") as fh:
            data = fh.read()
        with open(train, "wb") as fh:
            fh.write(b"\xef\xbb\xbf" + data)
        assert main(["train", "--config", config_path]) == 0
        assert main(["score", "--config", config_path]) == 0
        for name in ("model.json", "induced.csv"):
            with open(os.path.join(rundir[1], name), "rb") as fh:
                assert Path(out, name).read_bytes() == fh.read(), name

    def test_score_before_train_exit_3(self, tmp_path, capsys):
        config_path, _ = write_config(tmp_path)
        assert main(["synth", "--config", config_path]) == 0
        assert main(["score", "--config", config_path]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "(run 'train' first)" in err

    def test_manifest_without_digests_exit_3(self, rundir, tmp_path, capsys):
        config_path, out = write_config(tmp_path)
        shutil.copytree(rundir[1], out, dirs_exist_ok=True)
        path = os.path.join(out, "manifest_train.json")
        doc = read_json(path)
        del doc["digests"]
        Path(path).write_text(json.dumps(doc))
        assert main(["score", "--config", config_path]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"data error: {path}: ")
        assert err.rstrip().endswith("run 'train' again")


class TestSweepFromScores:
    """``sweep`` reads what ``score`` wrote and refuses it once anything it depends on changed."""

    @pytest.mark.parametrize(
        "name, damage",
        [
            ("test.csv", _ONE_BYTE),
            ("model.json", _retrained),
        ],
        ids=["test-byte", "train-nominality-retrained"],
    )
    def test_changed_since_score_exit_3(self, rundir, tmp_path, capsys, name, damage):
        config_path, out = write_config(tmp_path)
        shutil.copytree(rundir[1], out, dirs_exist_ok=True)
        path = os.path.join(out, name)
        with open(path, newline="") as fh:
            text = fh.read()
        with open(path, "w", newline="") as fh:
            fh.write(damage(text))
        assert main(["sweep", "--config", config_path]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"data error: {path} changed ")
        assert err.rstrip().endswith("run 'score' again")

    def test_sweep_before_score_exit_3(self, tmp_path, capsys):
        config_path, _ = write_config(tmp_path)
        assert main(["synth", "--config", config_path]) == 0
        assert main(["train", "--config", config_path]) == 0
        assert main(["sweep", "--config", config_path]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "(run 'score' first)" in err

    def test_unlabeled_test_split_exit_2(self, tmp_path, capsys):
        config_path, out = write_config(tmp_path)
        assert main(["synth", "--config", config_path]) == 0
        config_path = _drop_labels(config_path, out)
        for command in ("train", "score"):
            assert main([command, "--config", config_path]) == 0
        capsys.readouterr()
        assert main(["sweep", "--config", config_path]) == 2
        assert capsys.readouterr().err == (
            "config error: sweep reads the labels of scores.npy, and data.label_column is null\n")

    def test_theta_percentile_override(self, rundir, tmp_path, capsys):
        """A run has the one threshold ``score`` resolved: ``sweep`` on another
        ``gate.theta_percentile`` exits 2 naming it, and after ``score`` with that config
        sweeps at the threshold ``score`` recorded."""
        config_path, out = write_config(tmp_path)
        shutil.copytree(rundir[1], out, dirs_exist_ok=True)
        second = second_config(config_path, "theta_percentile: 98.5", "theta_percentile: 99")
        assert main(["sweep", "--config", second]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("config error: the gate.theta_percentile section differs ")
        assert err.rstrip().endswith("run 'score' again")
        assert Path(out, "sweep.json").read_bytes() == Path(rundir[1], "sweep.json").read_bytes()
        assert main(["score", "--config", second]) == 0
        assert main(["sweep", "--config", second]) == 0
        theta = read_json(os.path.join(out, "sweep.json"))["theta"]
        train_nominality = load_model(os.path.join(out, "model.json")).train_nominality
        assert theta == read_json(os.path.join(out, "manifest_score.json"))["resolved_theta"]
        assert theta == theta_from_percentile(train_nominality, 99)
        assert theta != read_json(os.path.join(rundir[1], "sweep.json"))["theta"]

    @pytest.mark.parametrize("edit", [("theta_percentile: 98.5", "theta_percentile: null\n  "
                                       "theta_n: 0.5"), GATE_D_1, ("kind: soft", "kind: hard")],
                             ids=["theta-n", "d", "kind"])
    def test_checks_only_the_threshold_of_the_gate(self, rundir, tmp_path, capsys, edit):
        """``sweep`` refuses a gate whose threshold differs from ``score``'s, and takes
        any gate kind and d: its table covers both kinds and every d of ``sweep.d_values``."""
        config_path, out = write_config(tmp_path)
        shutil.copytree(rundir[1], out, dirs_exist_ok=True)
        os.remove(os.path.join(out, "sweep.json"))
        status = main(["sweep", "--config", second_config(config_path, *edit)])
        if edit[0].startswith("theta"):
            assert status == 2 and not os.path.exists(os.path.join(out, "sweep.json"))
            assert capsys.readouterr().err.startswith("config error: the gate.theta_n section ")
        else:
            assert status == 0
            assert (Path(out, "sweep.json").read_bytes()
                    == Path(rundir[1], "sweep.json").read_bytes())

    def test_model_json_is_not_decoded(self, rundir, tmp_path):
        """``sweep`` checks model.json's digest but does not decode it: with the file
        replaced by ``{}`` and its digest recorded again, it writes the same table."""
        config_path, out = write_config(tmp_path)
        shutil.copytree(rundir[1], out, dirs_exist_ok=True)
        os.remove(os.path.join(out, "sweep.json"))
        Path(out, "model.json").write_text("{}")
        for producer in ("train", "score"):
            _record_digest(out, "model.json", producer)
        assert main(["sweep", "--config", config_path]) == 0
        assert Path(out, "sweep.json").read_bytes() == Path(rundir[1], "sweep.json").read_bytes()

    def test_readme_sweep_from_csvs_equals_sweep_from_scores(self, tmp_path):
        """For README's run.yaml, the table from score's files is the in-process one, bit for bit."""
        text = Path(ROOT, "README.md").read_text()
        block = text.split("with a `run.yaml` like:\n\n```yaml\n", 1)[1].split("```", 1)[0]
        config_path = tmp_path / "run.yaml"
        config_path.write_text(block.replace("out/", f"{tmp_path}/")
                               .replace("dir: out", f"dir: {tmp_path}"))
        run_all(str(config_path))
        cfg = load_config(str(config_path))
        models = load_model(os.path.join(cfg.output.dir, "model.json"))
        test = load_csv(cfg.data.test, label_column=cfg.data.label_column)
        expected = sweep_table(cfg, score_split(cfg, models, test))
        assert read_json(tmp_path / "sweep.json") == expected


class TestEvalFromScores:
    """``eval`` on ``score``'s own files refuses them once the config or a file changed."""

    def test_d_override_exit_2(self, rundir, tmp_path, capsys):
        config_path, out = write_config(tmp_path)
        shutil.copytree(rundir[1], out, dirs_exist_ok=True)
        assert main(["eval", "--config", second_config(config_path, *GATE_D_1)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("config error: the gate section ")
        assert err.rstrip().endswith("run 'score' again")

    def test_retrained_exit_2_then_3(self, rundir, tmp_path, capsys):
        config_path, out = write_config(tmp_path)
        shutil.copytree(rundir[1], out, dirs_exist_ok=True)
        second = second_config(config_path, *POINT_SEED_1)
        assert main(["train", "--config", second]) == 0
        capsys.readouterr()
        assert main(["eval", "--config", second]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("config error: the point_model ")
        assert main(["eval", "--config", config_path]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "model.json changed " in err

    @pytest.mark.parametrize("change", ["deleted", "edited"])
    @pytest.mark.parametrize("name", ["anomaly.csv", "sequence_anomaly.csv", "nominality.csv",
                                      "induced.csv", "labels.csv"])
    def test_unread_score_files_may_change(self, rundir, tmp_path, name, change):
        """``eval`` and ``sweep`` never open score's CSVs, which are written for readers
        outside the package: with one deleted or edited, both write the same bytes."""
        config_path, out = write_config(tmp_path)
        shutil.copytree(rundir[1], out, dirs_exist_ok=True)
        path = os.path.join(out, name)
        if change == "deleted":
            os.remove(path)
        else:
            _rewrite(path, _score_cell("0.5"))
        for command in ("eval", "sweep"):
            assert main([command, "--config", config_path]) == 0
            for written in COMMAND_OUTPUTS[command]:
                with open(os.path.join(rundir[1], written), "rb") as fh:
                    assert Path(out, written).read_bytes() == fh.read(), written

    def test_unlabeled_rescore_exit_2(self, tmp_path, capsys):
        """After a labeled chain, an unlabeled split scored into the same directory
        removes the old labels.csv and scores.npy and what eval and sweep made of them,
        and ``eval`` refuses the config."""
        config_path, out = write_config(tmp_path)
        run_all(config_path)
        unlabeled = _drop_labels(config_path, out)
        for command in ("train", "score"):
            assert main([command, "--config", unlabeled]) == 0
        for name in ("labels.csv", "scores.npy", "eval_report.json", "curve.csv",
                     "sweep.json", "manifest_eval.json", "manifest_sweep.json"):
            assert not os.path.exists(os.path.join(out, name)), name
        capsys.readouterr()
        assert main(["eval", "--config", unlabeled]) == 2
        assert capsys.readouterr().err == (
            "config error: eval reads the labels of scores.npy, and data.label_column is null\n")

    @pytest.mark.parametrize("run", ["empty", "undecodable-manifest"])
    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_null_label_column_exit_2_before_reading(self, rundir, tmp_path, capsys, command,
                                                     run):
        """With ``data.label_column: null``, ``eval`` on scores.npy and ``sweep`` exit 2 with
        one line before they open a file of the run: an empty run directory and one whose
        score manifest does not decode give the same line, and no file changes."""
        config_path, out = write_config(tmp_path)
        if run == "undecodable-manifest":
            shutil.copytree(rundir[1], out, dirs_exist_ok=True)
            _rewrite(os.path.join(out, "manifest_score.json"), lambda text: text[:10])
        before = {name: (tmp_path / "run" / name).read_bytes() for name in os.listdir(out)}
        unlabeled = second_config(config_path, "data:\n", "data:\n  label_column: null\n")
        assert main([command, "--config", unlabeled]) == 2
        assert capsys.readouterr().err == (
            f"config error: {command} reads the labels of scores.npy, and data.label_column is "
            f"null\n")
        assert {name: (tmp_path / "run" / name).read_bytes() for name in os.listdir(out)} == before

    def test_null_label_column_eval_reads_named_csvs(self, rundir, tmp_path):
        """Under ``data.label_column: null``, ``eval`` still reads the two CSVs that
        ``--scores`` and ``--labels`` name, and writes the labeled run's report and curve."""
        config_path, out = write_config(tmp_path)
        shutil.copytree(rundir[1], out, dirs_exist_ok=True)
        for name in COMMAND_OUTPUTS["eval"]:
            os.remove(os.path.join(out, name))
        unlabeled = second_config(config_path, "data:\n", "data:\n  label_column: null\n")
        assert main(["eval", "--config", unlabeled, "--scores", os.path.join(out, "induced.csv"),
                     "--labels", os.path.join(out, "labels.csv")]) == 0
        for name in COMMAND_OUTPUTS["eval"]:
            with open(os.path.join(rundir[1], name), "rb") as fh:
                assert (tmp_path / "run" / name).read_bytes() == fh.read(), name

    @pytest.mark.parametrize(
        "command, producer, name",
        [("eval", "score", "scores.npy"), ("sweep", "score", "scores.npy"),
         ("score", "train", "model.json"), ("sweep", "score", "model.json")],
        ids=["eval", "sweep", "score-model", "sweep-model"],
    )
    def test_unrecorded_matrix_exit_3(self, rundir, tmp_path, capsys, command, producer, name):
        """A file of another command's that its manifest does not record is not read,
        not even a valid model.json another training run might have written."""
        config_path, out = write_config(tmp_path)
        shutil.copytree(rundir[1], out, dirs_exist_ok=True)
        path = os.path.join(out, f"manifest_{producer}.json")
        doc = read_json(path)
        del doc["digests"][name]
        Path(path).write_text(json.dumps(doc))
        if name == "model.json":
            _rewrite(os.path.join(out, name), _edit_array(["train_nominality"], lambda n: n / 2))
        assert main([command, "--config", config_path]) == 3
        assert capsys.readouterr().err == (
            f"data error: {out}/{name} is not among the files manifest_{producer}.json "
            f"records; run '{producer}' again\n")

    @pytest.mark.parametrize("theta", [None, "abc", 0, -1, math.inf, 10**400],
                             ids=["missing", "string", "zero", "negative", "infinite",
                                  "huge-integer"])
    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_bad_resolved_theta_exit_3(self, rundir, tmp_path, capsys, command, theta):
        """``eval`` and ``sweep`` take the threshold from ``manifest_score.json``, so one
        whose ``resolved_theta`` is missing or not a finite float > 0 (such as ``1e999``,
        which JSON reads as inf, or an integer past float64 range) exits 3 with one line
        naming the manifest, and the command writes nothing."""
        config_path, out = write_config(tmp_path)
        shutil.copytree(rundir[1], out, dirs_exist_ok=True)
        manifest = os.path.join(out, "manifest_score.json")
        damage = _edit_json(lambda doc: doc.pop("resolved_theta") if theta is None
                            else doc.update(resolved_theta=theta))
        _rewrite(manifest, lambda text: damage(text).replace("Infinity", "1e999"))
        before = {name: Path(out, name).read_bytes() for name in os.listdir(out)}
        assert main([command, "--config", config_path]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"data error: {manifest}: cannot decode the score manifest: ")
        assert err.rstrip().endswith("run 'score' again")
        assert {name: Path(out, name).read_bytes() for name in os.listdir(out)} == before

    def test_eval_before_score_exit_3(self, tmp_path, capsys):
        config_path, _ = write_config(tmp_path)
        assert main(["synth", "--config", config_path]) == 0
        assert main(["train", "--config", config_path]) == 0
        assert main(["eval", "--config", config_path]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "(run 'score' first)" in err

    def test_explicit_paths_are_not_checked(self, rundir, tmp_path):
        config_path, out = write_config(tmp_path)
        shutil.copytree(rundir[1], out, dirs_exist_ok=True)
        os.remove(os.path.join(out, "manifest_score.json"))
        anomaly, labels = os.path.join(out, "anomaly.csv"), os.path.join(out, "labels.csv")
        assert main(["eval", "--config", second_config(config_path, *GATE_D_1),
                     "--scores", anomaly, "--labels", labels]) == 0
        expected = evaluate(read_score_csv(anomaly), read_labels_csv(labels)[0])
        assert read_json(os.path.join(out, "eval_report.json")) == expected.summary()


def test_matrix_and_score_csvs_agree(rundir, tmp_path):
    """``eval`` and ``sweep`` read scores.npy, and the score CSVs are their oracle:
    ``eval`` on induced.csv and labels.csv writes the default ``eval``'s bytes, and
    sweep.json is ``sweep_table`` of the bundle read back from the CSVs."""
    config_path, out = write_config(tmp_path)
    shutil.copytree(rundir[1], out, dirs_exist_ok=True)
    outputs = ("eval_report.json", "curve.csv")
    assert main(["eval", "--config", config_path]) == 0
    default = {name: Path(out, name).read_bytes() for name in outputs}
    assert main(["eval", "--config", config_path, "--scores", os.path.join(out, "induced.csv"),
                 "--labels", os.path.join(out, "labels.csv")]) == 0
    for name in outputs:
        assert Path(out, name).read_bytes() == default[name], name
    cfg = load_config(config_path)
    csv = {name: os.path.join(out, f"{name}.csv") for name in (
        "anomaly", "sequence_anomaly", "nominality", "induced", "labels")}
    bundle = ScoreBundle(
        read_score_csv(csv["anomaly"]), read_score_csv(csv["sequence_anomaly"]),
        read_score_csv(csv["nominality"]), read_score_csv(csv["induced"]),
        read_labels_csv(csv["labels"])[0],
        resolve_theta(cfg.gate, load_model(os.path.join(out, "model.json")).train_nominality)
        .theta_n)
    assert read_json(os.path.join(out, "sweep.json")) == sweep_table(cfg, bundle)


def test_eval_checks_the_sections_of_the_files_it_reads(rundir, tmp_path, capsys):
    """On scores.npy ``eval`` checks the gate and data.label_column, which its induced
    and label columns depend on; on two named CSVs it checks neither."""
    config_path, out = write_config(tmp_path)
    shutil.copytree(rundir[1], out, dirs_exist_ok=True)
    anomaly, labels = os.path.join(out, "anomaly.csv"), os.path.join(out, "labels.csv")
    expected = evaluate(read_score_csv(anomaly), read_labels_csv(labels)[0]).summary()
    for edit, section in ((GATE_D_1, "gate"),
                          (("data:\n", "data:\n  label_column: y\n"), "data.label_column")):
        edited = second_config(config_path, *edit)
        capsys.readouterr()
        assert main(["eval", "--config", edited]) == 2
        assert capsys.readouterr().err.startswith(f"config error: the {section} section ")
        os.remove(os.path.join(out, "eval_report.json"))
        assert main(["eval", "--config", edited, "--scores", anomaly, "--labels", labels]) == 0
        assert read_json(os.path.join(out, "eval_report.json")) == expected


def _eval_outputs(out):
    """The bytes of the files ``eval`` writes, keyed by name."""
    return {name: Path(out, name).read_bytes()
            for name in ("eval_report.json", "curve.csv", "manifest_eval.json")}


@pytest.mark.parametrize("flag", ["--scores", "--labels"])
def test_eval_one_named_file_exit_2(rundir, tmp_path, capsys, flag):
    """``eval`` takes ``--scores`` and ``--labels`` together or not at all: one alone
    exits 2 with one line, before it reads or writes a file."""
    config_path, out = write_config(tmp_path)
    shutil.copytree(rundir[1], out, dirs_exist_ok=True)
    before = _eval_outputs(out)
    path = os.path.join(out, "induced.csv" if flag == "--scores" else "labels.csv")
    assert main(["eval", "--config", config_path, flag, path]) == 2
    assert capsys.readouterr().err == (
        "config error: eval takes --scores and --labels together, or neither\n")
    assert _eval_outputs(out) == before


@pytest.mark.parametrize("case", ["missing", "origin", "short"])
def test_eval_named_files_exit_3(rundir, tmp_path, capsys, case):
    """A named file that does not exist, or labels whose first time index or row count
    differs from the scores', exit 3 with one line and leave eval's files as they were."""
    config_path, out = write_config(tmp_path)
    shutil.copytree(rundir[1], out, dirs_exist_ok=True)
    before = _eval_outputs(out)
    scores, labels = os.path.join(out, "induced.csv"), os.path.join(out, "labels.csv")
    if case == "missing":
        labels = os.path.join(out, "absent.csv")
        message = f"missing input: {labels}"
    else:
        _rewrite(labels, _edit_rows(lambda i, cells: [str(int(cells[0]) + 1), cells[1]])
                 if case == "origin" else lambda text: text[:-2].rsplit("\r\n", 1)[0] + "\r\n")
        message = f"labels ({labels}) are not aligned with scores ({scores})"
    assert main(["eval", "--config", config_path, "--scores", scores, "--labels", labels]) == 3
    assert capsys.readouterr().err == f"data error: {message}\n"
    assert _eval_outputs(out) == before


def _child_env(*first):
    """This process's environment with ``first``, then :data:`PACKAGE_PARENT`, put
    ahead of ``PYTHONPATH``."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [*first, PACKAGE_PARENT, os.environ.get("PYTHONPATH", "")]))


def _loaded_modules(argv, first=()):
    """Run ``main(argv)`` (no command: just import the CLI) in a fresh interpreter,
    with the directories ``first`` ahead of the package on its path.

    Returns its exit code, the names in ``sys.modules`` when it returned, and
    those the CLI and the command added to what a bare ``import numpy`` loads.
    """
    env = _child_env(*first)
    code = ("import json, sys\nimport numpy\nbare = set(sys.modules)\n"
            "from nominality.cli import main\n"
            "rc = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
            "print(json.dumps([rc, sorted(sys.modules), sorted(set(sys.modules) - bare)]))")
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rc, modules, added = json.loads(done.stdout.splitlines()[-1])
    return rc, modules, added


def _under(modules, package):
    return [m for m in modules if m == package or m.startswith(package + ".")]


def test_cli_import_does_not_load_scipy(tmp_path):
    """No command loads scipy; score, eval and sweep add neither numpy.random nor numpy.ma,
    and train and sweep, which write no CSV, do not load the CSV writer.

    ``train`` needs numpy.random for the point model's seeded initialization
    and ``synth`` for the generators. The later commands run on a config
    without a ``synth`` section, whose default (the preset) they never build.
    numpy 1.x loads both submodules in ``import numpy`` itself, so only what
    the command adds to a bare ``import numpy`` is checked for them.
    """
    synth_path, out = write_config(tmp_path)
    text = Path(synth_path).read_text()
    chain_path = tmp_path / "chain.yaml"
    chain_path.write_text(text[: text.index("synth:")] + text[text.index("output:"):])
    assert _under(_loaded_modules([])[1], "scipy") == []
    for command in COMMANDS:
        rc, modules, added = _loaded_modules(
            [command, "--config", synth_path if command == "synth" else str(chain_path)])
        assert rc == 0
        assert _under(modules, "scipy") == [], command
        if command in ("score", "eval", "sweep"):
            assert _under(added, "numpy.random") == [], command
            assert _under(added, "numpy.ma") == [], command
        if command in ("train", "sweep"):
            assert "nominality.numtext" not in modules, command
    assert os.path.exists(os.path.join(out, "sweep.json"))


def test_train_runs_without_scipy(tmp_path):
    """scipy is a test dependency only: train fits both models where it cannot be imported."""
    blocker = tmp_path / "no_scipy" / "scipy"
    blocker.mkdir(parents=True)
    (blocker / "__init__.py").write_text('raise ImportError("scipy is not installed")\n')
    path, out = write_config(tmp_path)
    first = [str(tmp_path / "no_scipy")]
    assert _loaded_modules(["synth", "--config", path], first)[0] == 0
    assert _loaded_modules(["train", "--config", path], first)[0] == 0
    assert isinstance(load_model(os.path.join(out, "model.json")).sequence.weights, np.ndarray)


def test_benchmark_names_resolve_after_cli_import():
    """Every function perfbench's tracer instruments is in ``sys.modules`` once the CLI
    is imported, as ``Tracer.install`` looks it up there, and its gate imports.

    A counter reads the call's bound arguments by name, so every string constant
    without a dot in its code (the metric names have one) must be a parameter of the
    function it wraps; a renamed parameter fails here, not only in a traced run."""
    perfbench = os.path.join(ROOT, "perfbench")
    code = ("import inspect, sys\nsys.path.insert(0, sys.argv[1])\nimport nominality.cli\n"
            "from tracer import INSTRUMENTED\n"
            "read = set()\n"
            "for module, attr, _, counter in INSTRUMENTED:\n"
            "    owner = sys.modules['nominality.' + module]\n"
            "    for part in attr.split('.'):\n"
            "        owner = getattr(owner, part)\n"
            "    if counter is not None:\n"
            "        names = {c for c in counter.__code__.co_consts\n"
            "                 if isinstance(c, str) and '.' not in c}\n"
            "        missing = names - set(inspect.signature(owner).parameters)\n"
            "        assert not missing, f'{attr} has no parameter {sorted(missing)}'\n"
            "        read |= names\n"
            "assert read, 'no counter reads an argument'\n"
            "import gate\n")
    done = subprocess.run([sys.executable, "-c", code, perfbench], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_benchmark_workload_configs_load(tmp_path):
    """Every dataset of every benchmark workload at seed 0, full and ``--tiny``, written as
    ``perfbench/run.py`` writes it (``yaml.safe_dump``, which writes an object it meets
    twice as an anchor and an alias), loads as the config its dict gives, whose synth
    spec builds; so a schema change or a shared object that breaks the benchmark's
    configs fails here."""
    code = ("import os, sys\nsys.path.insert(0, sys.argv[1])\nimport yaml\n"
            "from nominality.config import config_from_dict, load_config\n"
            "from workloads import WORKLOADS\n"
            "count = 0\n"
            "for workload in WORKLOADS.values():\n"
            "    for tiny in (False, True):\n"
            "        for dataset in workload.datasets(0, tiny):\n"
            "            path = os.path.join(sys.argv[2], f'config_{count}.yaml')\n"
            "            with open(path, 'w') as fh:\n"
            "                yaml.safe_dump(dataset.config, fh, sort_keys=True)\n"
            "            config = load_config(path)\n"
            "            assert config == config_from_dict(dataset.config), path\n"
            "            config.synth.spec()\n"
            "            count += 1\n"
            "print(count)\n")
    done = subprocess.run([sys.executable, "-c", code, os.path.join(ROOT, "perfbench"),
                           str(tmp_path)],
                          env=_child_env(), capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "9\n", "")


def test_code_defaults_run_every_command(tmp_path):
    """A config that names only the data paths runs the chain on the default dataset.

    The default ``gate.d`` is among the default ``sweep.d_values``, so the sweep's
    soft-gate row there holds the report's best F1 and AUC, at the threshold ``score``
    resolved."""
    path = tmp_path / "run.yaml"
    path.write_text(f"data:\n  train: {tmp_path}/train.csv\n  test: {tmp_path}/test.csv\n"
                    f"output:\n  dir: {tmp_path}\n")
    run_all(str(path))
    sweep, report, manifest = (read_json(tmp_path / f"{name}.json")
                               for name in ("sweep", "eval_report", "manifest_score"))
    at = sweep["d_values"].index(manifest["config"]["gate"]["d"])
    row = sweep["rows"]["soft_theta_pct"]
    assert (row["best_f1"][at], row["auc"][at]) == (report["best_f1"], report["auc"])
    assert sweep["theta"] == manifest["resolved_theta"]


@pytest.mark.parametrize("cell", ["inf", "-inf", "1e999"])
@pytest.mark.parametrize("command, split", [("train", "train.csv"), ("score", "test.csv")])
def test_infinite_split_cell_exit_3(rundir, tmp_path, capsys, command, split, cell):
    """An infinite cell in a split, or one beyond float range, names the file, the data
    row and the column, as every other bad cell does."""
    config_path, out = write_config(tmp_path)
    shutil.copytree(rundir[1], out, dirs_exist_ok=True)
    damage = _edit_rows(lambda i, cells: [*cells[:2], cell, *cells[3:]] if i == 4 else cells)
    path = _rewrite(os.path.join(out, split), damage)
    assert main([command, "--config", config_path]) == 3
    assert capsys.readouterr().err == (
        f"data error: {path}: row 4: {cell!r} in column 2 is not a finite number\n")


@pytest.mark.parametrize("command, split, damage, edit, message", [
    ("score", "test.csv", lambda text: "\r\n".join(text.split("\r\n")[:12] + [""]), None,
     "series length 11 is shorter than 2*gamma + delta = 12"),
    ("train", "train.csv", lambda text: "\r\n".join(text.split("\r\n")[:10] + [""]), None,
     "need at least batch_size=16 rows, got 9"),
    ("train", "train.csv", _channels([0]), None,
     "point model requires at least 2 channels; univariate input carries no cross-channel "
     "structure to reconstruct"),
    ("train", "train.csv", None, ("d_lat: 2", "d_lat: 5"), "d_lat 5 exceeds channel count 4"),
], ids=["test-short", "train-short", "train-one-channel", "train-d-lat-wide"])
def test_split_too_small_names_itself(rundir, tmp_path, capsys, command, split, damage, edit,
                                      message):
    """A split too short or too narrow for the models exits 3 naming its file."""
    config_path, out = write_config(tmp_path)
    shutil.copytree(rundir[1], out, dirs_exist_ok=True)
    path = os.path.join(out, split)
    if damage is not None:
        _rewrite(path, damage)
    if edit is not None:
        config_path = second_config(config_path, *edit)
    assert main([command, "--config", config_path]) == 3
    assert capsys.readouterr().err == f"data error: {path}: {message}\n"


def test_integer_theta_n_writes_the_float_chain(tmp_path):
    """A float key written as an integer is recorded as its float: the chain at
    ``gate.theta_n: 5`` writes the bytes of the chain at ``5.0``, manifests included."""
    config_path, out = write_config(tmp_path)
    written = []
    for theta in ("5.0", "5"):
        shutil.rmtree(out)
        Path(config_path).write_text(SMALL_CONFIG.format(out=out).replace(
            "  theta_percentile: 98.5\n", f"  theta_n: {theta}\n  theta_percentile: null\n"))
        run_all(config_path)
        written.append({name: Path(out, name).read_bytes() for name in sorted(os.listdir(out))})
    assert written[0] == written[1]
    assert type(read_json(os.path.join(out, "sweep.json"))["theta"]) is float


#: The waveform settings ``synth.options`` once took, at their values in SMALL_CONFIG's
#: four channels: ``gen_trig`` holds them as constants, so each is an unknown key.
WAVEFORM_KEYS = {"frequencies": "[0.008, 0.012, 0.016, 0.02]", "phases": "[0.0, 1.0, 2.0, 3.0]",
                 "noise_sigma": "0.02", "freq_shift_factor": "0.45", "amp_shift_factor": "1.75",
                 "point_noise_scale": "1.0"}


@pytest.mark.parametrize("command", ["synth", "train", "sweep"])
@pytest.mark.parametrize("key, value", WAVEFORM_KEYS.items(), ids=list(WAVEFORM_KEYS))
def test_waveform_key_exit_2(tmp_path, capsys, key, value, command):
    """A config that sets a waveform setting exits 2 with the one unknown-key line, which
    lists the four keys ``synth.options`` takes."""
    config_path, _ = write_config(tmp_path)
    path = second_config(config_path, "    n_test: 300\n",
                         f"    n_test: 300\n    {key}: {value}\n")
    assert main([command, "--config", path]) == 2
    assert capsys.readouterr().err == (
        f"config error: unknown key '{key}' in section 'synth.options'; expected one of "
        "n_channels, n_train, n_test, segments\n")


@pytest.mark.parametrize("where", [*typing.get_type_hints(PipelineConfig), "synth.options", "eval"])
def test_unknown_key_lists_its_mappings_keys(tmp_path, capsys, where):
    """An unknown key in any section or in ``synth.options`` exits 2 with one line that
    names its mapping and lists the keys it takes; ``eval`` takes none."""
    if where == "synth.options":
        keys = [f.name for f in dataclasses.fields(TrigSpec) if f.name != "seed"]
        text = "synth:\n  options:\n    bogus: 1\n"
    else:
        hints = typing.get_type_hints(PipelineConfig)
        keys = [f.name for f in dataclasses.fields(hints[where])] if where in hints else []
        text = f"{where}:\n  bogus: 1\n"
    path = tmp_path / "run.yaml"
    path.write_text(text)
    assert main(["synth", "--config", str(path)]) == 2
    listed = f"; expected one of {', '.join(keys)}" if keys else ""
    assert capsys.readouterr().err == (f"config error: unknown key 'bogus' in section "
                                       f"'{where}'{listed}\n")


def test_downsampled_chain_counts_blocks(tmp_path):
    """At ``preprocess.downsample: 2``, labels.csv holds each block's any-anomaly label
    over the valid range, its time_index counts blocks from gamma, and the report's
    positives are the anomalous blocks there."""
    path = tmp_path / "run.yaml"
    path.write_text(f"data:\n  train: {tmp_path}/train.csv\n  test: {tmp_path}/test.csv\n"
                    "preprocess:\n  downsample: 2\npoint_model:\n  epochs: 1\n"
                    f"output:\n  dir: {tmp_path}\n")
    run_all(str(path))
    test = load_csv(str(tmp_path / "test.csv"), label_column="label")
    blocks = np.maximum.reduceat(test.labels, np.arange(0, test.n_times, 2))
    labels, origin = read_labels_csv(str(tmp_path / "labels.csv"))
    assert origin == 25  # the default gamma
    np.testing.assert_array_equal(labels, blocks[origin : blocks.shape[0] - origin])
    positives = read_json(tmp_path / "eval_report.json")["positives"]
    assert positives == labels.sum() == 105


def test_unnamed_models_name_a_narrower_split():
    """Models fitted on a split built without channel names refuse a narrower split,
    also built without them, by name: each has the default names of its width."""
    data = gen_trig(TrigSpec(n_channels=4, n_train=400, n_test=100))
    cfg = config_from_dict({"data": {"test": "test.csv"},
                            "point_model": {"d_lat": 2, "epochs": 1},
                            "sequence_model": {"gamma": 5, "delta": 2}})
    models = fit_models(cfg, dataclasses.replace(data.train, channel_names=None))
    narrow = dataclasses.replace(data.test, values=data.test.values[:, :3], channel_names=None)
    with pytest.raises(DataError, match=re.escape(
            "test.csv: channels ['c0', 'c1', 'c2'] are not the training split's "
            "['c0', 'c1', 'c2', 'c3'] (from model.json)")):
        score_split(cfg, models, narrow)


@pytest.mark.parametrize("downsample, row, named",
                         [(1, 300, 300), (2, 301, 300), (1, 3, 5), (1, (300, 301), 285)])
def test_huge_test_value_names_its_row(downsample, row, named):
    """A score overflow names the first row of the block that holds the huge value.

    Row 3 lies before the first scored row (gamma 5), so only sequence
    contexts see it; the first of them predicts row 5, which is named.  Rows
    300 and 301 at 2e154 overflow the induced score only: every point score is
    finite (scoring passes at ``gate.d`` 0), but the window sum at d 16 is not
    from row 285 on, whose window first holds both rows.
    """
    data = gen_trig(TrigSpec(n_channels=4, n_train=400, n_test=600))
    settings = {"data": {"test": "test.csv"}, "preprocess": {"downsample": downsample},
                "point_model": {"d_lat": 2, "epochs": 2},
                "sequence_model": {"gamma": 5, "delta": 2}}
    cfg = config_from_dict(settings)
    models = fit_models(cfg, data.train)
    values = data.test.values.copy()
    values[row, 1] = 1e200 if isinstance(row, int) else 2e154
    split = dataclasses.replace(data.test, values=values)
    if not isinstance(row, int):
        score_split(config_from_dict({**settings, "gate": {"d": 0}}), models, split)
    with pytest.raises(DataError, match=f"^test.csv: row {named}: a value at or near this row "
                       r"is too large to score \(the scores overflow\)$"):
        score_split(cfg, models, split)


# A small fit: the span rule runs before the models train.
SPAN_CFG = {"data": {"train": "train.csv"}, "point_model": {"d_lat": 2, "epochs": 1},
            "sequence_model": {"gamma": 5, "delta": 2}}


@pytest.mark.parametrize("downsample, cells, named", [
    (1, {4: 1e150}, 4), (1, {4: -1e150}, 4), (2, {9: 1e150}, 8),
    (1, {4: 1e150, 7: -1e151}, 7),
], ids=["one-cell", "one-negative-cell", "downsampled", "farthest-cell"])
def test_flattening_training_cell_names_its_row(downsample, cells, named):
    """A training channel whose full span exceeds 1e6 times the span of its central 99 %
    is refused, naming the file, the channel and the data row of the cell farthest
    outside that span (the first row of its block when downsampling)."""
    train = gen_trig(TrigSpec(n_channels=4, n_train=400, n_test=100)).train
    values = train.values.copy()
    for row, value in cells.items():
        values[row, 2] = value
    cfg = config_from_dict({**SPAN_CFG, "preprocess": {"downsample": downsample}})
    with pytest.raises(DataError, match=rf"^train.csv: row {named}: channel 'c2' spans \S+ "
                       r"times its central 99 % \(more than 1e\+06\), so min-max scaling "
                       r"would flatten it$"):
        fit_models(cfg, dataclasses.replace(train, values=values))


def test_rarely_switching_channel_trains():
    """A channel that holds one value in at least 99.5 % of its rows, but not in all, has
    a central span of 0 and trains: its one switch sets its span."""
    train = gen_trig(TrigSpec(n_channels=4, n_train=400, n_test=100)).train
    values = train.values.copy()
    values[:, 3] = 0.0
    values[200, 3] = 1e6
    models = fit_models(config_from_dict(SPAN_CFG), dataclasses.replace(train, values=values))
    assert (models.stats.mins[3], models.stats.maxs[3]) == (0.0, 1e6)


@pytest.mark.parametrize("seed", range(5))
def test_preset_training_splits_pass_the_span_rule(seed):
    fit_models(config_from_dict(SPAN_CFG), gen_trig(trig_preset(seed)).train)


def test_flattening_training_cell_is_one_stderr_line(tmp_path, capsys):
    """``train`` on the small run's training split with data row 4 of c2 set to 1e150
    exits 3 with one line and writes nothing."""
    path, out = write_config(tmp_path)
    assert main(["synth", "--config", path]) == 0
    split = _rewrite(os.path.join(out, "train.csv"), _edit_rows(
        lambda i, cells: ["1e150" if (i, j) == (4, 2) else cell for j, cell in enumerate(cells)]))
    before = {name: (tmp_path / "run" / name).read_bytes() for name in os.listdir(out)}
    capsys.readouterr()
    assert main(["train", "--config", path]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(rf"data error: {re.escape(split)}: row 4: channel 'c2' spans \S+ times "
                        r"its central 99 % \(more than 1e\+06\), so min-max scaling would "
                        r"flatten it\n", err), err
    assert {name: (tmp_path / "run" / name).read_bytes() for name in os.listdir(out)} == before


def _run_warned(warnings, *args):
    """``python -m nominality.cli`` with ``args``, PYTHONWARNINGS set to ``warnings``
    (unset for None), its output captured."""
    env = _child_env()
    env.pop("PYTHONWARNINGS", None)
    if warnings is not None:
        env["PYTHONWARNINGS"] = warnings
    return subprocess.run([sys.executable, "-m", "nominality.cli", *args], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("warnings", [None, "error::RuntimeWarning"], ids=["default", "error"])
@pytest.mark.parametrize("command, old, new, status, message", [
    ("train", "  learn_rate: 0.001\n", "  learn_rate: 1.0e+300\n", 4,
     "numeric error: training loss became non-finite at epoch 0"),
    *[(command, "  normalization: minmax\n", "  normalization: none\n", 2,
       "config error: preprocess.normalization is retired: leave it out or set it to minmax, "
       "got 'none'") for command in COMMANDS],
    ("train", "  optimizer: adam\n", "  optimizer: sgd\n", 2,
     "config error: point_model.optimizer is retired: leave it out or set it to adam, "
     "got 'sgd'"),
    ("train", "  point_adjust: true\n", "  point_adjust: false\n", 2,
     "config error: eval.point_adjust is retired: leave it out or set it to true, got False"),
    ("train", "  point_adjust: true\n", "  point_adjust: true\n  spike_interval: 3\n", 2,
     "config error: eval.spike_interval is retired: leave it out or set it to null, got 3"),
    ("synth", "  kind: trig\n", "  kind: toy\n", 2,
     "config error: synth.kind is retired: leave it out or set it to trig, got 'toy'"),
    ("synth", "[200, 201, point-noise]", "[120, 201, point-noise]", 2,
     "config error: synth.options.segments must not overlap, got (100, 130), (120, 201)"),
    # A YAML escape needs a quoted string; the "#" comments out the path it replaces.
    ("synth", "  train: ", '  train: "out/tr\\0ain.csv" #', 2,
     "config error: data.train must be a non-empty string without NUL, or null, "
     "got 'out/tr\\x00ain.csv'"),
    ("train", "  dir: ", '  dir: "o\\0ut" #', 2,
     "config error: output.dir must be a non-empty string without NUL, got 'o\\x00ut'"),
    ("train", "output:\n", "1: 2\nfoo: 3\noutput:\n", 2,
     "config error: unknown top-level section(s): [1, 'foo']"),
], ids=["huge-learn-rate",
        *[f"normalization-none-{command}" for command in COMMANDS],
        "sgd", "point-adjust-false", "spike-interval-3", "synth-kind-toy",
        "segments-overlap", "train-path-nul", "out-dir-nul", "top-level-keys-mixed"])
def test_failure_is_one_stderr_line(tmp_path, warnings, command, old, new, status, message):
    """An overflowing fit exits with its code and one line, as warnings
    are shown or made errors; so does a retired key at any value but its one, a
    broken config rule, a path holding a NUL and top-level keys of mixed types.  The
    command writes nothing: the run directory keeps its files."""
    path, out = write_config(tmp_path)
    assert main(["synth", "--config", path]) == 0
    before = {name: Path(out, name).read_bytes() for name in os.listdir(out)}
    done = _run_warned(warnings, command, "--config", second_config(path, old, new))
    assert (done.returncode, done.stderr.splitlines()) == (status, [message])
    assert {name: Path(out, name).read_bytes() for name in os.listdir(out)} == before


#: The address space of a child in :func:`_run_limited`: the CLI imports under it, and
#: it holds no list of 10**8 channel names.  :func:`address_space_bound` gives the test
#: process as much beyond what it maps.
CHILD_ADDRESS_SPACE = 1_500_000_000


def _run_limited(*args):
    """The CLI's process entry with ``args`` in a child that limits its own address space
    to :data:`CHILD_ADDRESS_SPACE` bytes before importing anything else, run for 10 s."""
    pytest.importorskip("resource")
    code = ("import resource\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({CHILD_ADDRESS_SPACE},) * 2)\n"
            "from nominality.cli import _process_main\n_process_main()\n")
    return subprocess.run([sys.executable, "-c", code, *args],
                          env=dict(_child_env(), OPENBLAS_NUM_THREADS="1"),
                          capture_output=True, text=True, timeout=10)


@pytest.mark.parametrize("command", ["synth", "train"])
@pytest.mark.parametrize("key", ["n_channels", "n_train", "n_test"])
def test_synth_size_beyond_any_array_exit_2(tmp_path, command, key):
    """A ``synth.options`` size whose cells no array can index is a config error in every
    command that loads the config, at once, not a traceback or a hang in ``gen_trig``."""
    path, out = write_config(tmp_path)
    assert main(["synth", "--config", path]) == 0
    before = {name: Path(out, name).read_bytes() for name in os.listdir(out)}
    sizes = {"n_channels": 4, "n_train": 400, "n_test": 300}  # SMALL_CONFIG's
    path = second_config(path, f"    {key}: {sizes[key]}\n", f"    {key}: {2**63 - 1}\n")
    sizes[key] = 2**63 - 1
    done = _run_limited(command, "--config", path)
    assert (done.returncode, done.stderr.splitlines()) == (2, [
        f"config error: synth.options.n_channels * (n_train + n_test) must be at most "
        f"{np.iinfo(np.intp).max // 8}, got "
        f"{sizes['n_channels'] * (sizes['n_train'] + sizes['n_test'])}"])
    assert {name: Path(out, name).read_bytes() for name in os.listdir(out)} == before


def test_synth_label_column_check_lists_no_channels(tmp_path):
    """``synth`` checks ``data.label_column`` against its channel names without building
    them: ``c5`` at 10**8 channels exits 2 at once, in an address space no list of
    10**8 names fits in."""
    path, out = write_config(tmp_path)
    path = second_config(path, "    n_channels: 4\n", "    n_channels: 100000000\n")
    path = second_config(path, "data:\n", "data:\n  label_column: c5\n")
    done = _run_limited("synth", "--config", path)
    assert (done.returncode, done.stderr.splitlines()) == (2, [
        "config error: data.label_column 'c5' names one of synth's channels, c0 to c99999999"])
    assert os.listdir(out) == []


@pytest.mark.parametrize("name", ["c0", "c3", "c4", "c05", "c00", "c-1", "c+1", "c 1", "c1.0",
                                  "c\u0663", "c\u00b9", "C1", "c", "c" + "1" * 5000])
def test_synth_label_column_names_a_channel_as_a_list_would(tmp_path, capsys, name):
    """A label column is one of synth's channels exactly when it is among the names
    ``c0`` ... ``c3`` of 4 channels: ``c05``, a non-ASCII digit and a decimal too long
    for ``int`` are not.  Both splits name one file, so the next check exits 2 for
    every other name, before any data is made."""
    path, _ = write_config(tmp_path)
    doc = yaml.safe_load(Path(path).read_text())
    doc["data"].update(test=doc["data"]["train"], label_column=name)
    Path(path).write_text(yaml.safe_dump(doc))
    assert main(["synth", "--config", path]) == 2
    err = capsys.readouterr().err
    if name in LabeledSeries(np.zeros((1, 4))).channel_names:
        assert err == (f"config error: data.label_column {name!r} names one of synth's "
                       f"channels, c0 to c3\n")
    else:
        assert err.startswith("config error: data.train and data.test name the same file")


def test_file_digest_reads_at_most_1_mib_at_a_time(tmp_path, monkeypatch):
    """``eval`` and ``sweep`` hash the splits only to verify them, so a digest never
    holds a whole file: each read asks for at most 1 MiB."""
    data = np.random.default_rng(0).bytes(3 * 2**20 + 5)
    (tmp_path / "split.csv").write_bytes(data)
    sizes = []

    class Reader(io.BufferedReader):
        def read(self, size=-1):
            sizes.append(size)
            return super().read(size)

    monkeypatch.setattr(cli, "open", lambda path, mode: Reader(io.FileIO(path)), raising=False)
    assert cli._sha256(str(tmp_path / "split.csv")) == hashlib.sha256(data).hexdigest()
    assert sizes and all(0 < size <= 2**20 for size in sizes), sizes


@pytest.mark.parametrize("warnings", [None, "error::RuntimeWarning"], ids=["default", "error"])
@pytest.mark.parametrize("command, split, edits, downsample, row", [
    ("score", "test.csv", {40: (0, "1.5e308")}, 1, 40),
    ("train", "train.csv", {4: (2, "1.7e308"), 5: (2, "-1.7e308")}, 1, 4),
    *[(command, split, {40: (0, "1.7e308"), 41: (0, "1.7e308")}, 2, 40)
      for command, split in (("score", "test.csv"), ("train", "train.csv"))],
], ids=["test-cell", "train-span", "test-block", "train-block"])
def test_scale_overflow_is_one_stderr_line(tmp_path, warnings, command, split, edits,
                                           downsample, row):
    """A split value whose downsampled or min-max scaled value overflows exits 3 with one
    line naming the file and the data row, as warnings are shown or made errors: a test
    cell of 1.5e308 in c0, whose training span is below 1; training cells of 1.7e308 and
    -1.7e308 in c2, whose span overflows; and, downsampling by 2, two cells of 1.7e308 in
    c0 whose block sum overflows, named by the block's first row.  The command writes
    nothing."""
    path, out = write_config(tmp_path)
    _rewrite(path, lambda text: text.replace("  downsample: 1\n", f"  downsample: {downsample}\n"))
    assert main(["synth", "--config", path]) == 0
    # c0 a tenth as large on both splits, so its training span is below 1
    for name in ("train.csv", "test.csv"):
        _rewrite(os.path.join(out, name),
                 _edit_rows(lambda i, cells: [repr(float(cells[0]) / 10), *cells[1:]]))
    assert main(["train", "--config", path]) == 0
    damage = _edit_rows(lambda i, cells: [edits[i][1] if i in edits and j == edits[i][0]
                                          else cell for j, cell in enumerate(cells)])
    split_path = _rewrite(os.path.join(out, split), damage)
    before = {name: (tmp_path / "run" / name).read_bytes() for name in os.listdir(out)}
    done = _run_warned(warnings, command, "--config", path)
    assert (done.returncode, done.stderr.splitlines()) == (3, [
        f"data error: {split_path}: row {row}: a value at or near this row is too large to "
        f"preprocess (downsampling or scaling overflows)"])
    assert {name: (tmp_path / "run" / name).read_bytes() for name in os.listdir(out)} == before


@pytest.mark.parametrize("warnings", [None, "error::RuntimeWarning"], ids=["default", "error"])
@pytest.mark.parametrize("command, rows, value, edit, message", [
    ("score", (150, 155), "1.6e154", None,
     "row 145: a value at or near this row is too large to score (the scores overflow)"),
    ("sweep", (100, 299), "3e153", ("  d_values: [1, 2, 4]\n", "  d_values: [1, 256]\n"),
     "row 5: a value at or near this row is too large to sweep (the hard_theta_inf sum at "
     "d=256 overflows)"),
], ids=["score-induced", "sweep-moving-sum"])
def test_induction_overflow_is_one_stderr_line(tmp_path, warnings, command, rows, value, edit,
                                               message):
    """Test values that leave every point score finite but overflow an induction sum exit 3
    with one line naming the file and the data row, as warnings are shown or made errors.
    With c0 of data rows 150-155 at 1.6e154, ``score``'s induced score overflows at
    gate.d 8 from row 145 on, whose window reaches row 153.  With c0 of rows 100-299 at
    3e153, ``score`` passes, and ``sweep``'s moving sum at d 256 overflows from the first
    scored row on.  The command writes nothing."""
    path, out = write_config(tmp_path)
    if edit is not None:
        path = second_config(path, *edit)
    assert main(["synth", "--config", path]) == 0
    assert main(["train", "--config", path]) == 0
    split = _rewrite(os.path.join(out, "test.csv"), _edit_rows(
        lambda i, cells: [value, *cells[1:]] if rows[0] <= i <= rows[1] else cells))
    if command == "sweep":
        assert main(["score", "--config", path]) == 0
    before = {name: Path(out, name).read_bytes() for name in os.listdir(out)}
    done = _run_warned(warnings, command, "--config", path)
    assert (done.returncode, done.stderr.splitlines()) == (3, [f"data error: {split}: {message}"])
    assert {name: Path(out, name).read_bytes() for name in os.listdir(out)} == before


@pytest.mark.parametrize("warnings", [None, "error::RuntimeWarning"], ids=["default", "error"])
def test_tiny_theta_scores_without_a_warning(tmp_path, warnings):
    """At gate.theta_n 5e-324 the soft gate's n / theta_n overflows where the gate is
    exactly 0: ``score`` and ``sweep`` exit 0 with an empty stderr, as warnings are shown
    or made errors."""
    path, _ = write_config(tmp_path)
    path = second_config(path, "  theta_percentile: 98.5\n",
                         "  theta_percentile: null\n  theta_n: 5.0e-324\n")
    assert main(["synth", "--config", path]) == 0
    assert main(["train", "--config", path]) == 0
    for command in ("score", "sweep"):
        done = _run_warned(warnings, command, "--config", path)
        assert (done.returncode, done.stderr) == (0, "")


# The fuzzed chain: three channels, two segments and one epoch keep its 99 runs fast.
# The data paths and output.dir come first and are never mutated, so no mutated config
# names a file outside the copy it runs in.
FUZZ_PATHS = "data:\n  train: run/train.csv\n  test: run/test.csv\noutput:\n  dir: run\n"
FUZZ_BODY = """\
point_model:
  d_lat: 2
  epochs: 1
sequence_model:
  gamma: 5
  delta: 2
sweep:
  d_values: [1, 4]
synth:
  options:
    n_channels: 3
    n_train: 300
    n_test: 240
    segments:
      - [100, 130, frequency-shift]
      - [200, 201, point-noise]
"""

# each file a command reads from the run, and the commands that read it; eval reads
# induced.csv and labels.csv only when --scores and --labels name them, together
FUZZ_READERS = {
    "run.yaml": ["synth", "train", "score", "eval", "sweep"],
    "run/train.csv": ["train", "score", "eval", "sweep"],
    "run/test.csv": ["score", "eval", "sweep"],
    "run/manifest_train.json": ["score"],
    "run/model.json": ["score", "eval", "sweep"],
    "run/manifest_score.json": ["eval", "sweep"],
    "run/scores.npy": ["eval", "sweep"],
    "run/induced.csv": ["eval"],
    "run/labels.csv": ["eval"],
}
# the manifests that record a mutated file again, so that its decoder sees the bytes
FUZZ_RECORDED_BY = {"run/model.json": ["train", "score"], "run/scores.npy": ["score"]}


#: The most bytes of stderr a generated case may write: its one line quotes an input
#: value of any length cut to ``errors.SHOWN`` characters.
MESSAGE_BYTES = 1000
#: The text of the generated ``huge`` kind: 1 MiB that is no number.
HUGE_TEXT = "x" * 2**20


#: The nesting of the generated ``nest`` kind: past Python's recursion limit, so a
#: decoder that recurses raises, but not so deep that libyaml's composer overflows the C
#: stack in the test process.
NEST_LEVELS = 3000


def _mutate(data, kind, rng, start):
    """``data`` with one byte at or after ``start`` flipped in one bit, inserted before
    or deleted, with the bytes from there on cut off, with :data:`HUGE_TEXT` inserted
    there, or nested (see :func:`_nest`) :data:`NEST_LEVELS` deep."""
    if kind == "nest":
        return _nest(data.decode("latin-1"), NEST_LEVELS, start).encode("latin-1")
    at = rng.randrange(start, len(data))
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ 1 << rng.randrange(8)]) + data[at + 1:]
    if kind == "truncate":
        return data[:at]
    if kind == "insert":
        return data[:at] + bytes([rng.randrange(256)]) + data[at:]
    if kind == "huge":
        return data[:at] + HUGE_TEXT.encode() + data[at:]
    return data[:at] + data[at + 1:]


def test_seeded_byte_mutations_exit_with_one_line(tmp_path, monkeypatch, capsys):
    """Each file a command reads from the run, with a bit flipped, cut short, a byte
    inserted or deleted or 1 MiB of text inserted at a fixed seed, and each JSON or YAML
    file nested deep, in a fresh copy: every command that reads it exits 0, 2, 3 or 4 with
    at most one stderr line of at most :data:`MESSAGE_BYTES` bytes."""
    chain = tmp_path / "chain"
    chain.mkdir()
    monkeypatch.chdir(chain)
    (chain / "run.yaml").write_text(FUZZ_PATHS + FUZZ_BODY)
    run_all("run.yaml")
    cases = 0
    for name, commands in FUZZ_READERS.items():
        clean = (chain / name).read_bytes()
        start = len(FUZZ_PATHS) if name == "run.yaml" else 0
        nest = ("nest",) if name.endswith((".json", ".yaml")) else ()
        for kind in ("flip", "truncate", "insert", "delete", "huge", *nest):
            data = _mutate(clean, kind, random.Random(f"{name} {kind}"), start)
            for command in commands:
                cases += 1
                case = tmp_path / f"case{cases}"
                shutil.copytree(chain, case)
                monkeypatch.chdir(case)
                (case / name).write_bytes(data)
                for producer in FUZZ_RECORDED_BY.get(name, []):
                    _record_digest("run", os.path.basename(name), producer)
                paths = (["--scores", "run/induced.csv", "--labels", "run/labels.csv"]
                         if name.endswith(("induced.csv", "labels.csv")) else [])
                capsys.readouterr()
                status = main([command, "--config", "run.yaml", *paths])
                err = capsys.readouterr().err
                assert status in (0, 2, 3, 4) and len(err.splitlines()) <= 1, (
                    name, kind, command, status, err[:MESSAGE_BYTES])
                assert len(err.encode()) <= MESSAGE_BYTES, (name, kind, command, len(err))
                assert "Traceback" not in err
    assert cases == 121


@pytest.mark.parametrize("command", COMMANDS)
def test_config_nested_past_the_c_stack_exit_2(tmp_path, command):
    """A config nested 100 000 levels deep, which libyaml's composer would recurse through
    past the C stack, is one config error in every command.  It runs in a child: in the
    test process such a crash would end the session."""
    path = tmp_path / "run.yaml"
    path.write_text(_nest(FUZZ_PATHS + FUZZ_BODY, 100_000, len(FUZZ_PATHS)))
    done = _run_limited(command, "--config", str(path))
    assert (done.returncode, done.stderr.splitlines()) == (
        2, [f"config error: {path}: nested more than 64 levels deep"])


def _alias_chain(anchors):
    """A config whose ``synth.options.segments`` is a chain of ``anchors`` anchors, each
    a list of the one before and nine aliases of it: 10 ** anchors numbers in a few
    hundred bytes, and the first alias, ``*a0``, on line 11 after ``5 * anchors + 20``
    characters."""
    value = "0.01"
    for k in range(anchors):
        value = f"[&a{k} {value}" + f", *a{k}" * 9 + "]"
    return FUZZ_PATHS + ("synth:\n  options:\n    n_channels: 3\n    n_train: 300\n"
                         f"    n_test: 100\n    segments: {value}\n")


@pytest.mark.parametrize("command", COMMANDS)
def test_alias_chain_exit_2(tmp_path, capsys, command):
    """Seven anchors expand to 10 ** 7 numbers, which an error quoting the value would
    write out: every command refuses the config at its first alias, in one short line."""
    path = tmp_path / "run.yaml"
    path.write_text(_alias_chain(7))
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == (f"config error: {path}: line 11, column 56: a config may not hold a YAML "
                   f"alias (*a0)\n")
    assert len(err) < 200


def test_alias_chain_past_any_message_exit_2(tmp_path):
    """Eight anchors, whose quoted value would take gigabytes, are refused as seven are.
    It runs in a child with a bounded address space and a timeout: a loader that
    expanded the aliases would run past the timeout."""
    path = tmp_path / "run.yaml"
    path.write_text(_alias_chain(8))
    done = _run_limited("train", "--config", str(path))
    assert (done.returncode, done.stderr.splitlines()) == (
        2, [f"config error: {path}: line 11, column 61: a config may not hold a YAML alias (*a0)"])


#: README's exit-code rule, which every generated case keeps.
EXIT_RULE = ("Exit codes: 0 ok, 2 usage/config error, 3 data error, 4 numeric failure. A "
             "command prints at most one line on stderr and never a traceback, and one that "
             "exits 0 writes only finite scores.")
EXIT_CODES = (0, 2, 3, 4)
# The generated split values: the smallest subnormal, a subnormal, a negative zero, and
# finite values whose squares, window sums or scaled values overflow.
FUZZ_VALUES = (5e-324, 1e-310, -0.0, 1e16, 1e50, 1.6e154, 3e153, 1e200, 1e300, 1.7e308,
               -1.7e308)
FUZZ_SEED = 22
# the files each command writes that hold scores or figures of them, which must be finite
# on exit 0; curve.csv is not among them, as its last threshold is inf above a huge score
FUZZ_SCORED = {"score": (*cli.SCORE_CSVS, "scores.npy"), "eval": ("eval_report.json",),
               "sweep": ("sweep.json",)}
# Keys whose size drives the cost of a run, so that a huge value would hang or allocate
# gigabytes, and TrigSpec's seed, which is synth.seed and no synth.options key.
FUZZ_SIZE_KEYS = ("point_model.epochs", "sequence_model.gamma", "synth.options.seed")


def _config_edges():
    """(key, value) for each number a config rule bounds: each bound the rule's wording
    names, the neighbour past it on the other side of the rule, a huge value and, for a
    float, inf and the integer 10**400, past float64 range."""
    sections = {**typing.get_type_hints(PipelineConfig), "synth.options": TrigSpec}
    edges = []
    for section, cls in sections.items():
        for f in dataclasses.fields(cls):
            hint, key = typing.get_type_hints(cls)[f.name], f"{section}.{f.name}"
            if "rule" not in f.metadata or key in FUZZ_SIZE_KEYS or hint not in (
                    int, float, float | None):
                continue
            test, wording = f.metadata["rule"]
            kind = int if hint is int else float
            for bound in map(kind, re.findall(r"\d+", wording)):
                steps = ((bound - 1, bound + 1) if kind is int
                         else (np.nextafter(bound, -np.inf), np.nextafter(bound, np.inf)))
                edges += [(key, bound)] + [(key, kind(v)) for v in steps
                                           if bool(test(v)) != bool(test(bound))]
            edges += ([(key, 2**63 - 1)] if kind is int
                      else [(key, 1.7e308), (key, math.inf), (key, 10**400)])
    return edges


def _check_exit_contract(case, commands, capsys):
    """Run ``commands`` in the current directory's chain with every warning an error and
    hold each to :data:`EXIT_RULE`, with at most :data:`MESSAGE_BYTES` bytes of stderr."""
    for command in commands:
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                status = main([command, "--config", "run.yaml"])
            except Exception as exc:  # a traceback: no exit code at all
                pytest.fail(f"{case}: {command} raised {exc!r}")
        err = capsys.readouterr().err
        assert status in EXIT_CODES and len(err.splitlines()) <= 1, (
            case, command, status, err[:MESSAGE_BYTES])
        assert len(err.encode()) <= MESSAGE_BYTES, (case, command, len(err))
        assert "Traceback" not in err
        for name in FUZZ_SCORED.get(command, ()) if status == 0 else ():
            path = os.path.join("run", name)
            if name.endswith(".json"):
                assert not re.search(r"NaN|Infinity", Path(path).read_text()), (case, name)
            else:
                values = (np.load(path) if name.endswith(".npy")
                          else np.loadtxt(path, delimiter=",", skiprows=1))
                assert np.isfinite(values).all(), (case, name)


@pytest.fixture
def fuzz_chain(tmp_path, monkeypatch):
    """The fuzzed chain run once, and a function that restores its files in place."""
    monkeypatch.chdir(tmp_path)
    Path("run.yaml").write_text(FUZZ_PATHS + FUZZ_BODY)
    run_all("run.yaml")
    clean = {path: path.read_bytes() for path in Path(".").rglob("*") if path.is_file()}

    def restore():
        for path, data in clean.items():
            path.write_bytes(data)
    return restore


@pytest.fixture
def address_space_bound():
    """A soft ``RLIMIT_AS`` on the test process for the test's length: what it maps now
    plus :data:`CHILD_ADDRESS_SPACE` bytes, so a case that allocates without bound raises
    ``MemoryError`` rather than taking the host's memory.  Without the ``resource``
    module or ``/proc/self/statm`` to read its own size, the test runs unbounded."""
    try:
        import resource
        with open("/proc/self/statm") as fh:
            mapped = int(fh.read().split()[0]) * resource.getpagesize()
    except (ImportError, OSError):
        yield
        return
    limits = resource.getrlimit(resource.RLIMIT_AS)
    soft = mapped + CHILD_ADDRESS_SPACE
    if limits[1] != resource.RLIM_INFINITY:
        soft = min(soft, limits[1])
    resource.setrlimit(resource.RLIMIT_AS, (soft, limits[1]))
    yield
    resource.setrlimit(resource.RLIMIT_AS, limits)


def test_readme_states_the_exit_rule():
    assert EXIT_RULE in " ".join(Path(ROOT, "README.md").read_text().split())


def test_seeded_split_values_keep_the_exit_rule(fuzz_chain, capsys):
    """For each generated value and split, two runs of 1-200 cells of one channel, drawn
    at a fixed seed, are set to the value; and for each split, one cell of a channel and
    one label cell at a fixed seed are set to 1 MiB of digits, past float range, and to
    :data:`HUGE_TEXT`.  Every command that reads the split keeps :data:`EXIT_RULE`."""
    rng = random.Random(FUZZ_SEED)
    cases = 0
    for value in FUZZ_VALUES:
        for split in ("run/train.csv", "run/test.csv"):
            for _ in range(2):
                fuzz_chain()
                rows = Path(split).read_bytes().count(b"\n") - 1
                channel, length = rng.randrange(3), rng.randint(1, 200)
                start = rng.randrange(rows - length + 1)
                _rewrite(split, _edit_rows(lambda i, cells: [
                    repr(value) if j == channel and start <= i < start + length else cell
                    for j, cell in enumerate(cells)]))
                cases += 1
                _check_exit_contract((split, value, channel, start, length),
                                     FUZZ_READERS[split], capsys)
    for split in ("run/train.csv", "run/test.csv"):
        for column in (rng.randrange(3), 3):  # a channel, then the label column
            for text in ("9" * 2**20, HUGE_TEXT):
                fuzz_chain()
                row = rng.randrange(Path(split).read_bytes().count(b"\n") - 1)
                _rewrite(split, _edit_rows(lambda i, cells: [
                    text if (i, j) == (row, column) else cell for j, cell in enumerate(cells)]))
                cases += 1
                _check_exit_contract((split, column, row, text[:1]), FUZZ_READERS[split],
                                     capsys)
    assert cases == 52


def test_config_edges_keep_the_exit_rule(fuzz_chain, address_space_bound, capsys):
    """Each number a config rule bounds, at its bound, one step past it and a huge value,
    a number given as :data:`HUGE_TEXT`, and a list of 9000 aliases of one anchored
    10 000-character string keep :data:`EXIT_RULE` in every command, in a bounded address
    space."""
    body = yaml.safe_load(FUZZ_BODY)
    edges = _config_edges()
    for key, value in edges:
        fuzz_chain()
        doc = json.loads(json.dumps(body))
        *sections, name = key.split(".")
        functools.reduce(lambda d, s: d.setdefault(s, {}), sections, doc)[name] = value
        if key == "gate.theta_n":
            doc["gate"]["theta_percentile"] = None
        Path("run.yaml").write_text(FUZZ_PATHS + yaml.safe_dump(doc))
        _check_exit_contract((key, value), COMMANDS, capsys)
    for case, text in [
            ("huge string", FUZZ_BODY.replace("epochs: 1", f"epochs: {HUGE_TEXT}")),
            ("aliases", FUZZ_BODY.replace("n_channels: 3",
                                          f"n_channels: [&a {'q' * 10_000}{', *a' * 9000}]"))]:
        fuzz_chain()
        Path("run.yaml").write_text(FUZZ_PATHS + text)
        _check_exit_contract(case, COMMANDS, capsys)
    assert len(edges) == 52


def test_in_process_main_leaves_gc_state(rundir, tmp_path):
    """Only a process entry freezes the GC: ``main`` in a caller's process leaves it alone."""
    config_path, out = write_config(tmp_path)
    shutil.copytree(rundir[1], out, dirs_exist_ok=True)
    before = gc.isenabled(), gc.get_freeze_count()
    assert main(["eval", "--config", config_path]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_process_entry_freezes_gc_then_exits(monkeypatch):
    """``python -m nominality.cli`` and the console script run one function, which
    freezes the GC after ``main`` returns and exits with its status."""
    script = re.search(r'^nominality = "nominality\.cli:(\w+)"$',
                       Path(ROOT, "pyproject.toml").read_text(), re.M)
    assert script is not None and script[1] == "_process_main"
    assert Path(cli.__file__).read_text().endswith(
        'if __name__ == "__main__":\n    _process_main()\n')
    monkeypatch.setattr(cli, "main", lambda: 5)
    try:
        with pytest.raises(SystemExit) as exc:
            cli._process_main()
        assert exc.value.code == 5 and gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()


def test_process_entry_flushes_piped_output(rundir, tmp_path, capsys):
    """With its stdout piped, ``python -m nominality.cli eval`` prints all of its line
    and exits 0 (a config error's exit 2 and one line: ``test_failure_is_one_stderr_line``)."""
    config_path, out = write_config(tmp_path)
    shutil.copytree(rundir[1], out, dirs_exist_ok=True)
    assert main(["eval", "--config", config_path]) == 0
    expected = capsys.readouterr().out
    assert re.fullmatch(r"best F1 \d\.\d{6} at threshold \S+\n", expected)
    done = subprocess.run([sys.executable, "-m", "nominality.cli", "eval", "--config", config_path],
                          env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, expected, "")


def test_readme_library_example(capsys):
    """README's library example runs on the preset, and its induced score and printed best F1
    are the default pipeline's."""
    text = Path(ROOT, "README.md").read_text()
    code = text.split("## Library use\n\n```python\n", 1)[1].split("```", 1)[0]
    data = gen_trig(trig_preset(0))
    scope = {"train_values": data.train.values, "test_values": data.test.values,
             "test_labels": data.test.labels}
    exec(code, scope)
    cfg = PipelineConfig()
    bundle = score_split(cfg, fit_models(cfg, data.train), data.test)
    np.testing.assert_array_equal(scope["induced"].scores, bundle.induced.scores)
    assert float(capsys.readouterr().out) == evaluate(bundle.induced, bundle.labels).best_f1


def test_readme_quickstart(tmp_path):
    """README's run.yaml drives every command, and each of its keys is a config field."""
    text = Path(ROOT, "README.md").read_text()
    block = text.split("with a `run.yaml` like:\n\n```yaml\n", 1)[1].split("```", 1)[0]
    block = block.replace("out/", f"{tmp_path}/").replace("dir: out", f"dir: {tmp_path}")
    raw = yaml.safe_load(block)
    defaults = PipelineConfig()
    for section, keys in raw.items():
        assert set(keys) <= {f.name for f in dataclasses.fields(getattr(defaults, section))}
    config_path = tmp_path / "run.yaml"
    config_path.write_text(block)
    run_all(str(config_path))
    assert os.path.exists(tmp_path / "sweep.json")
