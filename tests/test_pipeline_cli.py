"""End-to-end pipeline and CLI behavior on small synthetic runs."""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
import yaml

from nominality.cli import main, read_score_csv
from nominality.config import (
    CHOICE_KNOBS,
    INT_KNOBS,
    REAL_KNOBS,
    PipelineConfig,
    config_from_dict,
    load_config,
)
from nominality.errors import DataError
from nominality.evaluation import best_f1, evaluate
from nominality.pipeline import fit_models, preprocess_split, score_split
from nominality.reconstructors import _decode_array, _encode_array, _init_point_model, load_model
from nominality.scoring import smoothed_score
from nominality.series import load_csv
from nominality.synthetic import TrigSpec, gen_trig

SMALL_CONFIG = """\
data:
  train: {out}/train.csv
  test: {out}/test.csv
preprocess:
  downsample: 1
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


def _table_knob_cases():
    """Every knob of the config's tables with each kind of bad value: (YAML, knob, id).

    Each knob gets a string, a bool, a list, NaN and a value out of its range
    (one below the lowest integer, -1 for a real, an unlisted word for a
    choice); a real whose test refuses infinity also gets ``.inf``.
    """
    wrong_type = {"string": "abc", "bool": "true", "list": "[1]", "nan": ".nan"}
    knobs = [(section, name, {**wrong_type, "range": low - 1})
             for section, name, low, _ in INT_KNOBS]
    knobs += [(section, name, {**wrong_type, "range": -1.0,
                               **({} if test(math.inf) else {"inf": ".inf"})})
              for section, name, test, _, _ in REAL_KNOBS]
    knobs += [(section, name, {**wrong_type, "range": choices[0].upper()})
              for section, name, choices in CHOICE_KNOBS]
    return [(f"{section}:\n  {name}: {value}\n", f"{section}.{name}", f"{section}.{name}-{kind}")
            for section, name, values in knobs for kind, value in values.items()]


TABLE_KNOB_CASES = _table_knob_cases()


def _edit_json(edit):
    """A damage that edits the decoded JSON document in place."""
    def damage(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)
    return damage


def _edit_array(name, edit):
    """A damage that replaces one array of a model file by ``edit`` of it."""
    def replace(doc):
        doc["arrays"][name] = _encode_array(edit(_decode_array(doc["arrays"][name])))
    return _edit_json(replace)


def _first_nan(arr):
    out = arr.copy()
    out.flat[0] = np.nan
    return out


def _first_min_nan(doc):
    doc["minmax"]["mins"][0] = "nan"


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


def write_config(tmp_path, out_name="run"):
    out = tmp_path / out_name
    out.mkdir(exist_ok=True)
    path = tmp_path / f"{out_name}.yaml"
    path.write_text(SMALL_CONFIG.format(out=out))
    return str(path), str(out)


def run_all(config_path):
    for command in ("synth", "train", "score", "eval", "sweep"):
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
            "train.csv", "test.csv", "synth_spec.json", "point_model.json",
            "sequence_model.json", "preprocess_stats.json", "train_nominality.csv",
            "anomaly.csv", "sequence_anomaly.csv", "nominality.csv", "induced.csv",
            "labels.csv", "eval_report.json", "curve.csv", "sweep.json", "sweep.csv",
        ):
            assert os.path.exists(os.path.join(out, name)), name

    def test_manifests_reproducible_fields(self, rundir):
        _, out = rundir
        score_manifest = json.load(open(os.path.join(out, "manifest_score.json")))
        assert "resolved_theta" in score_manifest
        assert score_manifest["resolved_theta"] > 0
        assert len(score_manifest["config_hash"]) == 64
        train_manifest = json.load(open(os.path.join(out, "manifest_train.json")))
        assert train_manifest["seeds"] == {"point_model": 0}
        assert "final_losses" in train_manifest

    def test_train_manifest_loss_curve(self, rundir):
        _, out = rundir
        losses = json.load(open(os.path.join(out, "manifest_train.json")))["final_losses"]
        curve = losses["point_epoch_losses"]
        assert len(curve) == 3  # SMALL_CONFIG's epochs
        assert curve[0] == losses["point_first_epoch"]
        assert curve[-1] == losses["point_final_epoch"]
        assert "epoch_losses" not in open(os.path.join(out, "point_model.json")).read()

    def test_score_alignment(self, rundir):
        _, out = rundir
        induced = read_score_csv(os.path.join(out, "induced.csv"), "induced")
        # gamma=5, test T=300: valid range is [5, 295)
        assert induced.time_origin == 5
        assert len(induced) == 290

    def test_eval_report_contents(self, rundir):
        _, out = rundir
        report = json.load(open(os.path.join(out, "eval_report.json")))
        for key in ("best_f1", "best_threshold", "precision", "recall", "auc", "curve",
                    "pa_best_f1"):
            assert key in report
        assert 0.0 <= report["best_f1"] <= 1.0
        assert report["pa_best_f1"] >= report["best_f1"]

    def test_file_roundtrip_matches_in_process(self, rundir):
        config_path, out = rundir
        cfg = load_config(config_path)
        train = load_csv(os.path.join(out, "train.csv"), label_column="label")
        test = load_csv(os.path.join(out, "test.csv"), label_column="label")
        train_prep, stats = preprocess_split(cfg, train)
        test_prep, _ = preprocess_split(cfg, test, stats)
        bundle = score_split(cfg, fit_models(cfg, train_prep), test_prep)
        report = evaluate(bundle.induced, bundle.labels, point_adjusted=cfg.eval.point_adjust,
                          spike_interval=cfg.eval.spike_interval)
        on_disk = json.load(open(os.path.join(out, "eval_report.json")))
        assert on_disk["best_f1"] == report.best_f1
        assert on_disk["best_threshold"] == report.best_threshold
        assert on_disk["auc"] == report.auc
        induced = read_score_csv(os.path.join(out, "induced.csv"), "induced")
        np.testing.assert_array_equal(induced.scores, bundle.induced.scores)

    def test_sweep_structure(self, rundir):
        _, out = rundir
        table = json.load(open(os.path.join(out, "sweep.json")))
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
        table = json.load(open(os.path.join(out, "sweep.json")))
        anomaly = read_score_csv(os.path.join(out, "anomaly.csv"))
        labels = np.loadtxt(
            os.path.join(out, "labels.csv"), delimiter=",", skiprows=1, dtype=np.int64
        )[:, 1]
        for i, d in enumerate(table["d_values"]):
            report = evaluate(smoothed_score(anomaly, d), labels)
            assert table["rows"]["hard_theta_inf"]["best_f1"][i] == report.best_f1
            assert table["rows"]["hard_theta_inf"]["auc"][i] == report.auc


class TestDeterminism:
    def test_bit_identical_reruns(self, tmp_path):
        config_a, out_a = write_config(tmp_path, "a")
        config_b, out_b = write_config(tmp_path, "b")
        run_all(config_a)
        run_all(config_b)
        for name in ("train.csv", "point_model.json", "sequence_model.json",
                     "anomaly.csv", "nominality.csv", "induced.csv",
                     "eval_report.json", "sweep.json"):
            bytes_a = open(os.path.join(out_a, name), "rb").read()
            bytes_b = open(os.path.join(out_b, name), "rb").read()
            assert bytes_a == bytes_b, name


class TestCliBehavior:
    def test_d_zero_makes_induced_equal_anomaly(self, tmp_path):
        config_path, out = write_config(tmp_path)
        assert main(["synth", "--config", config_path]) == 0
        assert main(["train", "--config", config_path]) == 0
        assert main(["score", "--config", config_path, "--d", "0"]) == 0
        anomaly = open(os.path.join(out, "anomaly.csv")).read()
        induced = open(os.path.join(out, "induced.csv")).read()
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
            argv = ["synth", "--config", config_path, "--out", str(tmp_path / "taken")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("data error: ")
        assert "Traceback" not in err

    def test_bad_config_exit_2(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("point_model:\n  bogus_knob: 3\n")
        assert main(["train", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "text, knob",
        [
            ("gate:\n  d: abc\n", "gate.d"),
            ("sweep:\n  d_values: 5\n", "sweep.d_values"),
            ("sweep:\n  d_values: [1, 2.5]\n", "sweep.d_values"),
            # YAML 1.1 reads 1e-6 (no dot) as a string
            ("sequence_model:\n  ridge_lambda: 1e-6\n", "sequence_model.ridge_lambda"),
            ("eval:\n  spike_interval: x\n", "eval.spike_interval"),
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
            ("gate:\n  theta_n: .nan\n  theta_percentile: null\n", "gate.theta_n"),
            ("gate:\n  theta_n: yes\n  theta_percentile: null\n", "gate.theta_n"),
        ] + [case[:2] for case in TABLE_KNOB_CASES],
        ids=["d-string", "d-values-scalar", "d-values-float", "lambda-string",
             "spike-string", "downsample-string", "epochs-string", "percentile-string",
             "d-lat-list", "batch-zero", "seed-negative",
             "rate-string", "rate-inf", "gamma-float", "delta-zero", "percentile-range",
             "theta-nan", "theta-bool"] + [case[2] for case in TABLE_KNOB_CASES],
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
            ("score", "point_model.json", lambda text: text[: len(text) // 2]),
            ("score", "sequence_model.json", lambda text: text.replace('"arrays"', '"arrayz"')),
            ("score", "preprocess_stats.json", lambda text: "{"),
            ("score", "train_nominality.csv", lambda text: text + "25,abc\r\n"),
            ("score", "train_nominality.csv", lambda text: "time_index,score\r\n"),
            ("eval", "induced.csv", lambda text: text[:-2] + "x\r\n"),
            ("eval", "labels.csv", lambda text: text.replace(",0\r\n", ",2\r\n", 1)),
            ("eval", "labels.csv", lambda text: text + "999\r\n"),
            ("score", "point_model.json", lambda text: text.replace('"d_lat": 2', '"d_lat": 0')),
            ("score", "point_model.json", lambda text: text.replace('"d_lat"', '"latent_dim"')),
            ("score", "point_model.json", _edit_array("enc_b", lambda b: b[:-1])),
            ("score", "point_model.json", _edit_array("dec_w", lambda w: w.T.copy())),
            ("score", "sequence_model.json", _edit_array("weights", lambda w: w[:-1])),
            ("score", "point_model.json", _edit_array("enc_w", _first_nan)),
            ("score", "sequence_model.json", _edit_array("weights", _first_nan)),
            ("score", "preprocess_stats.json", _edit_json(_first_min_nan)),
            ("score", "train_nominality.csv", _score_cell("-1.0")),
            ("score", "train_nominality.csv", _score_cell("inf")),
            ("score", "train_nominality.csv", _SKIP_INDEX),
            ("eval", "induced.csv", _score_cell("nan")),
            ("eval", "induced.csv", _score_cell("")),
            ("eval", "induced.csv", _score_cell("inf")),
            ("eval", "induced.csv", _SKIP_INDEX),
            ("eval", "labels.csv", _SKIP_INDEX),
            ("score", "test.csv", _HUGE_VALUE),
            ("sweep", "test.csv", _HUGE_VALUE),
        ],
        ids=["point-truncated", "sequence-no-arrays", "stats-truncated", "nominality-bad-cell",
             "nominality-no-rows", "induced-bad-cell", "labels-not-binary", "labels-ragged",
             "point-d-lat-zero", "point-old-format", "point-enc-b-short", "point-dec-w-transposed",
             "sequence-row-missing", "point-weight-nan", "sequence-weight-nan", "stats-min-nan",
             "nominality-negative", "nominality-inf", "nominality-index-skip", "induced-nan",
             "induced-empty", "induced-inf", "induced-index-skip", "labels-index-skip",
             "test-value-huge-score", "test-value-huge-sweep"],
    )
    def test_undecodable_artifact_exit_3(self, rundir, tmp_path, capsys, command, name, damage):
        config_path, out = write_config(tmp_path)
        shutil.copytree(rundir[1], out, dirs_exist_ok=True)
        path = os.path.join(out, name)
        with open(path, newline="") as fh:
            text = fh.read()
        with open(path, "w", newline="") as fh:
            fh.write(damage(text))
        assert main([command, "--config", config_path]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("data error: ")
        assert name in err and "Traceback" not in err

    def test_swapped_model_files_exit_3(self, rundir, tmp_path, capsys):
        config_path, out = write_config(tmp_path)
        shutil.copytree(rundir[1], out, dirs_exist_ok=True)
        shutil.copy(os.path.join(out, "sequence_model.json"), os.path.join(out, "point_model.json"))
        assert main(["score", "--config", config_path]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "point_model.json" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["score", "sweep"])
    @pytest.mark.parametrize(
        "edit, flags, section",
        [
            (("gamma: 5", "gamma: 6"), [], "sequence_model"),
            (("downsample: 1", "downsample: 2"), [], "preprocess"),
            (("d_lat: 2", "d_lat: 3"), [], "point_model"),
            (None, ["--seed", "1"], "point_model"),
        ],
        ids=["gamma", "downsample", "d-lat", "seed-flag"],
    )
    def test_stale_artifacts_exit_2(self, rundir, tmp_path, capsys, command, edit, flags,
                                    section):
        config_path, out = write_config(tmp_path)
        shutil.copytree(rundir[1], out, dirs_exist_ok=True)
        if edit is not None:
            text = open(config_path).read()
            assert edit[0] in text
            open(config_path, "w").write(text.replace(edit[0], edit[1]))
        assert main([command, "--config", config_path, *flags]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"config error: the {section} ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags, knob", [(["--d", "-1"], "gate.d"), (["--theta-percentile", "0"],
                                                    "gate.theta_percentile")],
        ids=["d-negative", "percentile-zero"],
    )
    def test_bad_override_exit_2(self, tmp_path, capsys, flags, knob):
        config_path, _ = write_config(tmp_path)
        assert main(["score", "--config", config_path, *flags]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"config error: {knob} ")
        assert "Traceback" not in err

    def test_degenerate_labels_exit_3(self, tmp_path):
        config_path, out = write_config(tmp_path)
        # strip every anomaly segment: labels become all zero
        text = open(config_path).read()
        text = text.replace("    segments:\n"
                            "      - [100, 130, frequency-shift]\n"
                            "      - [200, 201, point-noise]\n"
                            "      - [240, 241, point-noise]\n", "")
        open(config_path, "w").write(text)
        assert main(["synth", "--config", config_path]) == 0
        assert main(["train", "--config", config_path]) == 0
        assert main(["score", "--config", config_path]) == 0
        assert main(["eval", "--config", config_path]) == 3

    def test_epochs_zero_saves_seeded_init(self, tmp_path):
        config_path, out = write_config(tmp_path)
        text = open(config_path).read().replace("epochs: 3", "epochs: 0")
        open(config_path, "w").write(text)
        assert main(["synth", "--config", config_path]) == 0
        assert main(["train", "--config", config_path]) == 0
        model = load_model(os.path.join(out, "point_model.json"))
        fresh = _init_point_model(4, model.hp)
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
        induced = read_score_csv(str(out / "induced.csv"), "induced")
        assert len(induced) == 6 and induced.time_origin == 2

    def test_synth_toy_and_sensor(self, tmp_path):
        out = tmp_path / "s"
        out.mkdir()
        toy_cfg = tmp_path / "toy.yaml"
        toy_cfg.write_text(
            "synth:\n  kind: toy\n  options:\n    n_channels: 2\n    alpha: 2.0\n"
            "    n_normal: 50\n    n_anomaly: 20\n"
            f"output:\n  dir: {out}\n"
        )
        assert main(["synth", "--config", str(toy_cfg)]) == 0
        assert os.path.exists(out / "toy.csv")
        header = open(out / "toy.csv").readline().strip().split(",")
        assert header[-2:] == ["label", "nominality"]

        sensor_cfg = tmp_path / "sensor.yaml"
        sensor_cfg.write_text(
            "synth:\n  kind: sensor\n  options:\n    omega: 0.1\n    omega_slow: 0.05\n"
            "    radius: 1.0\n    radius_min: 0.8\n    radius_max: 1.2\n    n_times: 100\n"
            "    slowdown: [30, 40]\n"
            f"output:\n  dir: {out}\n"
        )
        assert main(["synth", "--config", str(sensor_cfg)]) == 0
        sidecar = json.load(open(out / "synth_spec.json"))
        assert sidecar["kind"] == "sensor"
        assert sidecar["tags"][35] == "contextual-anomaly"

    @pytest.mark.parametrize(
        "synth, key",
        [
            ("  options:\n    bogus: 1\n", ""),
            ("  options: [1]\n", ""),
            ("  kind: toy\n  options:\n    n_channels: 2\n    alpha: x\n"
             "    n_normal: 5\n    n_anomaly: 5\n", ".alpha"),
            ("  options:\n    n_channels: 0\n    n_train: 100\n    n_test: 100\n", ""),
            ("  options:\n    n_channels: 2\n    n_train: 100\n    n_test: 100\n"
             "    segments:\n      - [90, 120, frequency-shift]\n", ""),
            ("  options:\n    n_channels: 2\n    n_train: 100\n    n_test: 100\n"
             "    segments:\n      - [90, 95]\n", ".segments"),
            ("  kind: sensor\n", ""),
            ("  kind: toy\n  options:\n    n_channels: 2\n    alpha: .inf\n"
             "    n_normal: 5\n    n_anomaly: 5\n", ".alpha"),
            ("  options:\n    n_channels: 2\n    n_train: 100\n    n_test: 100\n"
             "    point_noise_scale: .inf\n    segments:\n      - [50, 51, point-noise]\n",
             ".point_noise_scale"),
            ("  options:\n    n_channels: 2\n    n_train: 100\n    n_test: 100\n"
             "    frequencies: [.inf, 1.0]\n", ".frequencies"),
            ("  kind: sensor\n  options:\n    omega: .inf\n    omega_slow: 0.05\n"
             "    radius: 1.0\n    radius_min: 0.8\n    radius_max: 1.2\n    n_times: 100\n",
             ".omega"),
        ],
        ids=["unknown-key", "options-list", "toy-alpha-string", "channels-zero",
             "segment-outside", "segment-short", "sensor-unset", "toy-alpha-inf",
             "trig-point-noise-inf", "trig-frequency-inf", "sensor-omega-inf"],
    )
    def test_bad_synth_options_exit_2(self, tmp_path, capsys, synth, key):
        path = tmp_path / "synth.yaml"
        path.write_text(f"synth:\n{synth}output:\n  dir: {tmp_path}\n")
        assert main(["synth", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"config error: synth.options{key}")
        assert "Traceback" not in err


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _loaded_modules(argv, pythonpath=(SRC,)):
    """Run ``main(argv)`` (no command: just import the CLI) in a fresh interpreter.

    Returns its exit code, the names in ``sys.modules`` when it returned, and
    those the CLI and the command added to what a bare ``import numpy`` loads.
    """
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([*pythonpath, os.environ.get("PYTHONPATH", "")]))
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
    """No command loads scipy; score, eval and sweep add neither numpy.random nor numpy.ma.

    ``train`` needs numpy.random for the point model's seeded initialization
    and ``synth`` for the generators. The later commands run on a config
    without a ``synth`` section, whose default (the preset) they never build.
    numpy 1.x loads both submodules in ``import numpy`` itself, so only what
    the command adds to a bare ``import numpy`` is checked for them.
    """
    synth_path, out = write_config(tmp_path)
    text = open(synth_path).read()
    chain_path = tmp_path / "chain.yaml"
    chain_path.write_text(text[: text.index("synth:")] + text[text.index("output:"):])
    assert _under(_loaded_modules([])[1], "scipy") == []
    for command in ("synth", "train", "score", "eval", "sweep"):
        rc, modules, added = _loaded_modules(
            [command, "--config", synth_path if command == "synth" else str(chain_path)])
        assert rc == 0
        assert _under(modules, "scipy") == [], command
        if command in ("score", "eval", "sweep"):
            assert _under(added, "numpy.random") == [], command
            assert _under(added, "numpy.ma") == [], command
    assert os.path.exists(os.path.join(out, "sweep.json"))


def test_train_runs_without_scipy(tmp_path):
    """scipy is a test dependency only: train fits both models where it cannot be imported."""
    blocker = tmp_path / "no_scipy" / "scipy"
    blocker.mkdir(parents=True)
    (blocker / "__init__.py").write_text('raise ImportError("scipy is not installed")\n')
    path, out = write_config(tmp_path)
    pythonpath = (str(tmp_path / "no_scipy"), SRC)
    assert _loaded_modules(["synth", "--config", path], pythonpath)[0] == 0
    assert _loaded_modules(["train", "--config", path], pythonpath)[0] == 0
    assert isinstance(load_model(os.path.join(out, "sequence_model.json")).weights, np.ndarray)


def test_code_defaults_run_every_command(tmp_path):
    """A config that names only the data paths runs the chain on the default dataset."""
    path = tmp_path / "run.yaml"
    path.write_text(f"data:\n  train: {tmp_path}/train.csv\n  test: {tmp_path}/test.csv\n"
                    f"output:\n  dir: {tmp_path}\n")
    run_all(str(path))


@pytest.mark.parametrize("downsample, row, named", [(1, 300, 300), (2, 301, 300), (1, 3, 5)])
def test_huge_test_value_names_its_row(downsample, row, named):
    """A score overflow names the first row of the block that holds the huge value.

    Row 3 lies before the first scored row (gamma 5), so only sequence
    contexts see it; the first of them predicts row 5, which is named.
    """
    data = gen_trig(TrigSpec(n_channels=4, n_train=400, n_test=600))
    cfg = config_from_dict({"data": {"test": "test.csv"},
                            "preprocess": {"downsample": downsample},
                            "point_model": {"d_lat": 2, "epochs": 2},
                            "sequence_model": {"gamma": 5, "delta": 2}})
    train, stats = preprocess_split(cfg, data.train)
    values = data.test.values.copy()
    values[row, 1] = 1e200
    test, _ = preprocess_split(cfg, dataclasses.replace(data.test, values=values), stats)
    with pytest.raises(DataError, match=f"^test.csv: row {named}: "):
        score_split(cfg, fit_models(cfg, train), test)


def test_readme_library_example(capsys):
    """README's library example runs, and its induced score is the pipeline's."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    text = open(os.path.join(root, "README.md")).read()
    code = text.split("## Library use\n\n```python\n", 1)[1].split("```", 1)[0]
    segments = ((300, 360, "frequency-shift"), (500, 501, "point-noise"))
    data = gen_trig(TrigSpec(n_channels=5, n_train=2000, n_test=800, segments=segments))
    scope = {"train_values": data.train.values, "test_values": data.test.values,
             "test_labels": data.test.labels}
    exec(code, scope)
    cfg = config_from_dict({"preprocess": {"normalization": "none"},
                            "point_model": {"d_lat": 4, "epochs": 25}})
    bundle = score_split(cfg, fit_models(cfg, data.train), data.test)
    np.testing.assert_array_equal(scope["induced"].scores, bundle.induced.scores)
    assert float(capsys.readouterr().out) == best_f1(bundle.induced, bundle.labels).best_f1


def test_readme_quickstart(tmp_path):
    """README's run.yaml drives every command, and each of its keys is a config field."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    text = open(os.path.join(root, "README.md")).read()
    block = text.split("with a `run.yaml` like:\n\n```yaml\n", 1)[1].split("```", 1)[0]
    block = block.replace("out/", f"{tmp_path}/").replace("dir: out", f"dir: {tmp_path}")
    raw = yaml.safe_load(block)
    defaults = PipelineConfig()
    for section, keys in raw.items():
        if section != "output":
            assert set(keys) <= {f.name for f in dataclasses.fields(getattr(defaults, section))}
    config_path = tmp_path / "run.yaml"
    config_path.write_text(block)
    run_all(str(config_path))
    assert os.path.exists(tmp_path / "sweep.json")
