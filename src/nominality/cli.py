"""Command-line interface.

Subcommands mirror the pipeline stages: ``synth`` writes a synthetic
dataset, ``train`` fits both models and saves the trained detector (both
models, the min-max statistics, the training nominality and the channel
names) as one file, ``model.json``, ``score`` writes the aligned score
CSVs and one matrix of all of them, ``scores.npy``, ``eval`` turns scores
plus labels into a report, and ``sweep`` produces the gate-ablation table.
The config file named by ``--config`` is the only source of settings: no
flag sets a config key, and ``eval``'s ``--scores`` and ``--labels`` only
name its input files.  Every command writes a JSON manifest (the config, in
the shape a config file has, so it loads as one and replays the run
bit-exactly, and the library versions) plus what only that command knows:
``synth``'s generator spec and anomaly rate, ``train``'s epoch losses and
normal-equation residual, ``score``'s resolved gate threshold, the CSVs an
explicit ``eval`` read.  Each fact is written once, and nothing time- or
host-dependent goes into any output file.

A config that breaks a rule, such as ``sequence_model.delta <= 2 * gamma``,
makes every command exit 2 when it loads, and so does a ``data.train`` or
``data.test`` that names a file the commands write in ``output.dir``.
``synth`` writes the trigonometric dataset of :mod:`nominality.synthetic` to
``data.train`` and ``data.test``, creating their directories, with the labels
in column ``data.label_column``; it exits 2 if that key is null or names one
of its channels, or the two paths name one file.
``score`` refuses a test split whose channels are not the training split's, and
writes ``labels.csv`` and ``scores.npy`` only for a labeled one; it removes what
``eval`` and ``sweep`` wrote of earlier scores.  ``sweep`` reads
``scores.npy`` at the gate threshold ``score`` resolved (:func:`read_scores`)
rather than scoring the test split again; ``eval`` reads its ``induced`` and
``label`` columns the same way, or the two CSV files that ``--scores`` and
``--labels`` name together (one alone exits 2).  Neither parses ``score``'s
CSVs, which are written for readers outside the package, and on ``scores.npy``
both exit 2 on a null ``data.label_column`` before opening a file of the run.
``train`` and ``score`` record in their manifests the sha256 of every file they
read or wrote, keyed by basename (a split by ``data.train`` or ``data.test``).
A command that reads another command's files refuses to run unless that
command ran with the config sections the files depend on (exit 2) and its
manifest records, unchanged, every file the reader depends on (exit 3):
:data:`TRAINED_FILES` for ``score``, :data:`SCORED_FILES` for ``eval`` and
``sweep``; no other recorded file is opened.  ``score`` checks ``train``'s
``preprocess``, ``point_model`` and ``sequence_model``; ``eval`` on ``scores.npy`` checks
those, ``data.label_column`` and ``gate`` in ``score``'s manifest, and ``sweep`` the same
with only ``gate.theta_n`` and ``gate.theta_percentile`` of the gate.
``eval_report.json`` holds every figure of the one report (the best F1 with
its threshold, precision and recall, the point-adjusted best F1, the AUC and
the class counts), written like every JSON file, and ``curve.csv`` the curve:
the positives and negatives at or above every threshold.

Exit codes: 0 success, 2 usage or config error, 3 data error (running out
of memory included), 4 numeric failure.

Both process entries, ``python -m nominality.cli`` and the ``nominality``
console script, freeze the garbage collector once :func:`main` returns: the
exit frees all memory anyway, and the shutdown collections would scan the
~24k objects that importing numpy, PyYAML and the package made, 35-55 ms of
a command.  :func:`main` called in-process leaves the collector alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import hashlib
import io
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .config import PipelineConfig, config_from_dict, load_config
from .errors import ConfigError, DataError, DegenerateLabels, NumericError, decoding, shown
from .evaluation import evaluate
from .pipeline import ScoreBundle, fit_models, score_split, sweep_table
from .reconstructors import MODEL_FILE, load_model, save_model
from .series import (
    LabeledSeries,
    ScoreSeries,
    atomic_write,
    load_csv,
    read_table,
    save_csv,
    write_csv,
    write_json,
)
from .synthetic import gen_trig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

#: ``score``'s matrix of a labeled test split, which ``eval`` and ``sweep`` read.
SCORES_FILE = "scores.npy"
#: Its six columns: the time index, the four scores and the label.
SCORE_COLUMNS = ("time_index", "anomaly", "sequence_anomaly", "nominality", "induced", "label")
#: ``score``'s CSVs, one per score column, and its labels; ``eval``'s report and curve;
#: ``sweep``'s table; each command's manifest, once formatted with the command's name.
SCORE_CSVS = tuple(f"{name}.csv" for name in SCORE_COLUMNS[1:5])
LABELS_FILE, REPORT_FILE, CURVE_FILE = "labels.csv", "eval_report.json", "curve.csv"
SWEEP_FILE, MANIFEST_FILE = "sweep.json", "manifest_{}.json"
#: Every subcommand, with its help text.
COMMANDS = {
    "synth": "write a synthetic dataset to data.train and data.test",
    "train": "fit the point and sequence models on data.train; write model.json",
    "score": "score data.test; write the score CSVs, labels.csv and scores.npy",
    "eval": "evaluate a score against labels; write eval_report.json and curve.csv",
    "sweep": "gate ablation on scores.npy at score's threshold; write sweep.json",
}


def write_manifest(cfg: PipelineConfig, command: str, extra: dict) -> None:
    """Record everything needed to reproduce this command bit-exactly."""
    doc = {
        "command": command,
        "config": cfg.to_dict(),
        "versions": {
            "nominality": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
    }
    doc.update(extra)
    write_json(doc, os.path.join(cfg.output.dir, MANIFEST_FILE.format(command)))


def write_score_csv(series: ScoreSeries, path: str) -> None:
    """Two-column CSV (time_index, score) with the valid-range offset applied.

    Scores are written as ``repr`` writes them, which round-trips float64 exactly.
    """
    index = np.arange(len(series)) + series.time_origin
    write_csv(path, ["time_index", "score"], [index, series.scores])


def _columns(table: np.ndarray, path: str, names) -> list:
    """The columns ``names`` of a ``(time_index, *names)`` table read from ``path``: for a
    score, a :class:`ScoreSeries` of finite values, >= 0 for ``nominality``; for
    ``label``, int64 labels in {0, 1} of both classes.

    The time indices must count up by one from an integer.  A bad cell raises
    :class:`DataError` naming its row, and labels of one class :class:`DegenerateLabels`.
    """
    origin = float(table[0, 0])
    if not origin.is_integer():
        raise DataError(f"{path}: time_index {origin!r} is not an integer")
    skips = np.flatnonzero(table[:, 0] != origin + np.arange(table.shape[0]))
    if skips.size:
        row = int(skips[0])
        raise DataError(f"{path}: row {row}: time_index {float(table[row, 0])!r} "
                        f"is not {int(origin) + row}; indices must be consecutive")
    columns = []
    for name, column in zip(names, table[:, 1:].T):
        if name == "label":
            bad, rule = (column != 0.0) & (column != 1.0), "0 or 1"
        else:
            rule = "finite and >= 0" if name == "nominality" else "finite"
            bad = ~np.isfinite(column) | ((column < 0) & (name == "nominality"))
        if bad.any():
            row = int(np.flatnonzero(bad)[0])
            raise DataError(f"{path}: row {row}: {name} {float(column[row])!r} is not {rule}")
        if name == "label" and column.min() == column.max():
            raise DegenerateLabels(f"{path}: labels must contain at least one 0 and one 1; "
                                   f"all {column.shape[0]} are {int(column[0])}")
        columns.append(column.astype(np.int64) if name == "label"
                       else ScoreSeries(column, int(origin)))
    return columns


def read_score_csv(path: str) -> ScoreSeries:
    return _columns(read_table(path, 2), path, ["score"])[0]


def write_labels_csv(labels: np.ndarray, time_origin: int, path: str) -> None:
    """Two-column CSV (time_index, label), indexed as in :func:`write_score_csv`."""
    index = np.arange(labels.shape[0]) + time_origin
    write_csv(path, ["time_index", "label"], [index, np.asarray(labels, dtype=np.int64)])


def read_labels_csv(path: str) -> tuple[np.ndarray, int]:
    table = read_table(path, 2, label_idx=1)
    return _columns(table, path, ["label"])[0], int(table[0, 0])


def write_scores(bundle: ScoreBundle, path: str) -> None:
    """Save a labeled bundle as one float64 matrix with the columns :data:`SCORE_COLUMNS`.

    The bytes are ``np.save``'s, so a rerun writes the same file.
    """
    induced = bundle.induced
    columns = [np.arange(len(induced), dtype=np.float64) + induced.time_origin,
               bundle.anomaly.scores, bundle.seq_anomaly.scores, bundle.nominality.scores,
               induced.scores, bundle.labels]
    buffer = io.BytesIO()
    np.save(buffer, np.column_stack(columns))  # float64: the labels are promoted
    atomic_write(path, [buffer.getvalue()])


def read_scores(cfg: PipelineConfig, command: str, gate_sections) -> ScoreBundle:
    """``score``'s hand-over to ``command``: its matrix and resolved gate threshold, as a bundle.

    A null ``data.label_column`` raises :class:`ConfigError` before a file of the run is
    opened; :func:`_check_manifest` must pass ``score``'s run with the trained sections,
    ``data.label_column`` and ``gate_sections``.  The matrix must be a 2-D float64 array
    of 6 columns and at least one row whose columns pass :func:`_columns`, the check of
    :func:`read_score_csv` and :func:`read_labels_csv`; any other matrix raises
    :class:`DataError` naming it, and so does a file that is not one ``.npy`` array
    ``np.load`` reads unpickled (``cannot decode the score matrix``, see :func:`errors.decoding`).
    """
    if cfg.data.label_column is None:
        raise ConfigError(f"{command} reads the labels of scores.npy, "
                          "and data.label_column is null")
    _, theta = _check_manifest(cfg, "score", [*TRAINED_SECTIONS, "data.label_column",
                                              *gate_sections], SCORED_FILES)
    path = os.path.join(cfg.output.dir, SCORES_FILE)
    with decoding(path, "the score matrix"), open(path, "rb") as fh:
        matrix = np.load(fh, allow_pickle=False)
    if not (isinstance(matrix, np.ndarray) and matrix.dtype == np.float64 and matrix.ndim == 2
            and matrix.shape[0] >= 1 and matrix.shape[1] == 6):
        got = (f"a {matrix.dtype} array of shape {matrix.shape}"
               if isinstance(matrix, np.ndarray) else "an archive")
        raise DataError(f"{path}: expected a float64 matrix with at least one row and the "
                        f"columns {', '.join(SCORE_COLUMNS)}, got {got}")
    return ScoreBundle(*_columns(matrix, path, SCORE_COLUMNS[1:]), theta)


def _sha256(path: str) -> str:
    """The file's SHA-256, read 1 MiB at a time so a large split is never held whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(functools.partial(fh.read, 1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _split_path(cfg: PipelineConfig, which: str, exists: bool = True) -> str:
    """``data.<which>``, the path of a split; the file must exist unless ``exists`` is false."""
    path = getattr(cfg.data, which)
    if path is None:
        raise ConfigError(f"config is missing data.{which}")
    if exists and not os.path.exists(path):
        raise DataError(f"{which} file not found: {shown(path, False)}")
    return path


def _load_split(cfg: PipelineConfig, which: str) -> LabeledSeries:
    return load_csv(_split_path(cfg, which), label_column=cfg.data.label_column)


#: The config sections the training artifacts depend on.
TRAINED_SECTIONS = ("preprocess", "point_model", "sequence_model")
#: The files ``score`` depends on, by their names in ``manifest_train.json``; those
#: ``eval`` and ``sweep`` depend on, by their names in ``manifest_score.json``.
TRAINED_FILES = ("data.train", MODEL_FILE)
SCORED_FILES = (*TRAINED_FILES, "data.test", SCORES_FILE)


def _recorded_file(cfg: PipelineConfig, name: str) -> str:
    """The file a manifest records as ``name``: the config's split for ``data.train`` and
    ``data.test``, else ``output.dir/<name>``, so a copied output directory still verifies."""
    if name in ("data.train", "data.test"):
        return _split_path(cfg, name[len("data."):])
    return os.path.join(cfg.output.dir, name)


def _digests(cfg: PipelineConfig, names) -> dict[str, str]:
    """The sha256 of each file of ``names`` (see :func:`_recorded_file`), keyed by its name."""
    return {name: _sha256(_recorded_file(cfg, name)) for name in names}


def cmd_synth(cfg: PipelineConfig) -> int:
    """Write the synthetic splits to ``data.train`` and ``data.test``; the manifest has the spec."""
    files = [_split_path(cfg, which, exists=False) for which in ("train", "test")]
    spec = cfg.synth.spec()
    if cfg.data.label_column is None:
        raise ConfigError("synth writes the labels to data.label_column, which is null")
    # synth's channels are c0, c1, ...: "c" and a canonical ASCII decimal below n_channels
    index = re.fullmatch(r"c(0|[1-9][0-9]*)", cfg.data.label_column)
    if index and len(index[1]) <= len(str(spec.n_channels)) and int(index[1]) < spec.n_channels:
        raise ConfigError(f"data.label_column {shown(cfg.data.label_column)} names one of synth's "
                          f"channels, c0 to c{spec.n_channels - 1}")
    if os.path.realpath(files[0]) == os.path.realpath(files[1]):
        raise ConfigError(f"data.train and data.test name the same file, {shown(files[0], False)};"
                          f" synth would write the test split over the training split")
    result = gen_trig(spec)
    for path, split in zip(files, (result.train, result.test)):
        os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
        save_csv(split, path, cfg.data.label_column)
    write_manifest(cfg, "synth", {"spec": dataclasses.asdict(spec),
                                  "anomaly_rate": result.anomaly_rate})
    return EXIT_OK


def cmd_train(cfg: PipelineConfig) -> int:
    """Fit both models on the training split and save them to ``model.json``."""
    models = fit_models(cfg, _load_split(cfg, "train"))
    model_path = os.path.join(cfg.output.dir, MODEL_FILE)
    save_model(models, model_path)
    losses = models.point.epoch_losses or [None]
    print(f"point model: first epoch loss {losses[0]}, final epoch loss {losses[-1]}")
    print(f"sequence model: normal-equation residual {models.sequence.fit_residual:.3e}")
    write_manifest(
        cfg,
        "train",
        {
            "final_losses": {
                "point_epoch_losses": models.point.epoch_losses,
                "sequence_fit_residual": models.sequence.fit_residual,
            },
            "digests": _digests(cfg, TRAINED_FILES),
        },
    )
    return EXIT_OK


def cmd_score(cfg: PipelineConfig) -> int:
    """Score the test split; write the aligned score CSVs and, for a labeled split only,
    ``labels.csv`` and ``scores.npy``, the matrix of them all (an unlabeled split removes
    both); remove the files ``eval`` and ``sweep`` wrote, which describe earlier scores.

    :func:`_check_manifest` first shows that ``train`` ran with this config's
    trained sections and that its files are unchanged, and :func:`score_split`
    refuses a test split without the training split's channels, in its order.
    """
    train_digests, _ = _check_manifest(cfg, "train", TRAINED_SECTIONS, TRAINED_FILES)
    models = load_model(os.path.join(cfg.output.dir, MODEL_FILE))
    bundle = score_split(cfg, models, _load_split(cfg, "test"))
    for name, series in zip(SCORE_CSVS, (bundle.anomaly, bundle.seq_anomaly,
                                         bundle.nominality, bundle.induced)):
        write_score_csv(series, os.path.join(cfg.output.dir, name))
    recorded = ["data.test", *SCORE_CSVS]
    if bundle.labels is not None:
        write_labels_csv(bundle.labels, bundle.induced.time_origin,
                         _recorded_file(cfg, LABELS_FILE))
        write_scores(bundle, _recorded_file(cfg, SCORES_FILE))
        recorded += [LABELS_FILE, SCORES_FILE]
    # Another run's labels and matrix, which the manifest will not record, and what
    # eval and sweep made of another run's scores.
    for name in (LABELS_FILE, SCORES_FILE, REPORT_FILE, CURVE_FILE, SWEEP_FILE,
                 *map(MANIFEST_FILE.format, ("eval", "sweep"))):
        if name not in recorded and os.path.exists(path := os.path.join(cfg.output.dir, name)):
            os.remove(path)
    digests = {**train_digests, **_digests(cfg, recorded)}
    write_manifest(cfg, "score", {"resolved_theta": bundle.theta, "digests": digests})
    return EXIT_OK


def cmd_eval(cfg: PipelineConfig, scores_path: str | None, labels_path: str | None) -> int:
    """Evaluate the induced score against the labels, or a score CSV against a label CSV.

    With neither path named, the inputs are the ``induced`` and ``label``
    columns of ``score``'s matrix, read by :func:`read_scores` with the whole
    ``gate`` section checked.  The two named paths, which :func:`main` takes
    together or not at all, are read as CSVs without these checks.
    """
    if scores_path is None:
        bundle = read_scores(cfg, "eval", ["gate"])
        scores, labels = bundle.induced, bundle.labels
        scores_path = labels_path = os.path.join(cfg.output.dir, SCORES_FILE)
    else:
        for path in (scores_path, labels_path):
            if not os.path.exists(path):
                raise DataError(f"missing input: {shown(path, False)}")
        scores = read_score_csv(scores_path)
        labels, label_origin = read_labels_csv(labels_path)
        if label_origin != scores.time_origin or labels.shape[0] != len(scores):
            raise DataError(f"labels ({labels_path}) are not aligned with scores ({scores_path})")
    report = evaluate(scores, labels)
    write_json(report.summary(), os.path.join(cfg.output.dir, REPORT_FILE))
    write_csv(os.path.join(cfg.output.dir, CURVE_FILE), ["threshold", "tp", "fp"],
              [report.curve[:, 0], report.curve[:, 1:].astype(np.int64)])
    print(f"best F1 {report.best_f1:.6f} at threshold {report.best_threshold!r}")
    write_manifest(cfg, "eval", {"inputs": list(dict.fromkeys([scores_path, labels_path]))})
    return EXIT_OK


def _check_manifest(cfg: PipelineConfig, command: str, sections,
                    names) -> tuple[dict, float | None]:
    """The digests ``command`` recorded of ``names`` and, for ``score``, its resolved gate
    threshold, once its run is shown to match the config and those files.

    Each of ``sections`` (such as ``gate`` or ``data.label_column``) must equal the one in
    the config ``manifest_<command>.json`` records, read by :func:`config_from_dict`
    (else :class:`ConfigError`), and each of ``names``, the files the caller depends on,
    must be recorded there with the sha256 its file (see :func:`_recorded_file`) has now
    (else :class:`DataError`), as must a ``score`` manifest's ``resolved_theta`` be a
    finite float > 0.  No other recorded file is opened.
    """
    path = os.path.join(cfg.output.dir, MANIFEST_FILE.format(command))
    if not os.path.exists(path):
        raise DataError(f"missing {path} (run '{command}' first)")
    again = f"; run '{command}' again"
    with decoding(path, f"the {command} manifest", again), open(path, "rb") as fh:
        doc = json.load(fh)
        digests = dict(doc["digests"])
        recorded = config_from_dict(doc["config"])  # a retired key is dropped, as from a file
        theta = doc.get("resolved_theta")
        if command == "score" and not (type(theta) is float and 0 < theta < math.inf):
            raise ValueError(f"resolved_theta {shown(theta)} is not a finite float > 0")
    for name in sections:
        if (functools.reduce(getattr, name.split("."), recorded)
                != functools.reduce(getattr, name.split("."), cfg)):
            raise ConfigError(f"the {name} section differs from the one recorded in {path}{again}")
    for name in names:
        file = _recorded_file(cfg, name)
        if name not in digests:
            raise DataError(f"{file} is not among the files {os.path.basename(path)} "
                            f"records{again}")
        if _sha256(file) != digests[name]:
            raise DataError(f"{file} changed since '{command}' ran (its sha256 differs from the "
                            f"one in {path}){again}")
    return {name: digests[name] for name in names}, theta


def cmd_sweep(cfg: PipelineConfig) -> int:
    """Run the gate-ablation table over the configured induction lengths at ``score``'s
    threshold; the table covers both gate kinds and every d, so only the threshold is checked."""
    bundle = read_scores(cfg, "sweep", ["gate.theta_n", "gate.theta_percentile"])
    write_json(sweep_table(cfg, bundle), os.path.join(cfg.output.dir, SWEEP_FILE))
    write_manifest(cfg, "sweep", {})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nominality",
        description="Gated anomaly scoring for multivariate time series.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in COMMANDS.items():
        cmd = sub.add_parser(name, help=helptext, allow_abbrev=False)
        cmd.add_argument("--config", help="YAML config file")
        if name == "eval":
            cmd.add_argument("--scores", help="score CSV, with --labels (default: scores.npy)")
            cmd.add_argument("--labels", help="label CSV, with --scores (default: scores.npy)")
    return parser


def _check_split_paths(cfg: PipelineConfig) -> None:
    """Refuse a ``data.train`` or ``data.test`` that names a file the commands write in
    ``output.dir``, which a command would read as a split and another overwrite."""
    names = [MODEL_FILE, *SCORE_CSVS, LABELS_FILE, SCORES_FILE, REPORT_FILE, CURVE_FILE,
             SWEEP_FILE, *map(MANIFEST_FILE.format, COMMANDS)]
    outputs = {os.path.realpath(os.path.join(cfg.output.dir, name)) for name in names}
    for which in ("train", "test"):
        path = getattr(cfg.data, which)
        if path is not None and os.path.realpath(path) in outputs:
            raise ConfigError(f"data.{which} names {shown(path, False)}, a file the commands "
                              f"write in output.dir; keep the splits apart from the outputs")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "eval" and (args.scores is None) != (args.labels is None):
            raise ConfigError("eval takes --scores and --labels together, or neither")
        cfg = load_config(args.config) if args.config else PipelineConfig()
        _check_split_paths(cfg)
        os.makedirs(cfg.output.dir, exist_ok=True)
        if args.command == "eval":
            return cmd_eval(cfg, args.scores, args.labels)
        return {"synth": cmd_synth, "train": cmd_train, "score": cmd_score,
                "sweep": cmd_sweep}[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, DataError) as exc:  # OSError: a missing, unreadable or misplaced file
        if isinstance(exc, OSError) and exc.filename is not None:  # as str(exc), names shown
            exc = f"[Errno {exc.errno}] {exc.strerror}: " + " -> ".join(
                shown(name) for name in (exc.filename, exc.filename2) if name is not None)
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:  # such as synth.options sizes or a gamma too large to allocate
        print(f"data error: out of memory: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def _process_main() -> None:
    """Run :func:`main`, freeze the collector (see the module docstring) and exit."""
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    _process_main()
