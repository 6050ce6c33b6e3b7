"""Command-line interface.

Subcommands mirror the pipeline stages: ``synth`` writes a synthetic
dataset, ``train`` fits and saves both models, ``score`` writes the aligned
score CSVs, ``eval`` turns scores plus labels into a report, and ``sweep``
produces the gate-ablation table.  Every command writes a JSON manifest
(config hash, seeds, resolved gate threshold, library versions) sufficient
to reproduce the run bit-exactly; nothing time- or host-dependent goes into
any output file.

Exit codes: 0 success, 2 usage or config error, 3 data error, 4 numeric
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .config import PipelineConfig, apply_overrides, load_config
from .errors import ConfigError, DataError, NumericError, ShapeError
from .evaluation import evaluate
from .pipeline import (
    TrainedModels,
    fit_models,
    preprocess_split,
    score_split,
    sweep_table,
)
from .reconstructors import PointModel, SequenceModel, load_model, save_model
from .series import (
    LabeledSeries,
    MinMaxStats,
    ScoreSeries,
    atomic_write,
    format_rows,
    load_csv,
    read_table,
    save_csv,
    write_csv,
    write_json,
)
from .synthetic import gen_sensor, gen_toy, gen_trig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def write_manifest(cfg: PipelineConfig, command: str, extra: dict) -> str:
    """Record everything needed to reproduce this command bit-exactly."""
    doc = {
        "command": command,
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "versions": {
            "nominality": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
    }
    doc.update(extra)
    path = os.path.join(cfg.output_dir, f"manifest_{command}.json")
    write_json(doc, path)
    return path


def write_score_csv(series: ScoreSeries, path: str) -> None:
    """Two-column CSV (time_index, score) with the valid-range offset applied.

    Scores are serialized with ``repr``, which round-trips float64 exactly.
    """
    index = np.arange(len(series)) + series.time_origin
    write_csv(path, ["time_index", "score"], [index, series.scores])


def _time_origin(table: np.ndarray, path: str) -> int:
    """The first time index; the indices must count up from it by one."""
    index = table[:, 0]
    origin = float(index[0])
    if not origin.is_integer():
        raise DataError(f"{path}: time_index {origin!r} is not an integer")
    skips = np.flatnonzero(index != origin + np.arange(index.shape[0]))
    if skips.size:
        row = int(skips[0])
        raise DataError(f"{path}: row {row}: time_index {float(index[row])!r} "
                        f"is not {int(origin) + row}; indices must be consecutive")
    return int(origin)


def read_score_csv(path: str, kind: str = "anomaly") -> ScoreSeries:
    table = read_table(path, 2)
    origin = _time_origin(table, path)
    bad = np.flatnonzero(~np.isfinite(table[:, 1]))
    if bad.size:
        row = int(bad[0])
        raise DataError(f"{path}: row {row}: score {float(table[row, 1])!r} is not finite")
    try:
        return ScoreSeries(table[:, 1], kind, origin)
    except ShapeError as exc:  # a negative nominality score
        raise DataError(f"{path}: {exc}") from None


def write_labels_csv(labels: np.ndarray, time_origin: int, path: str) -> None:
    index = np.arange(labels.shape[0]) + time_origin
    write_csv(path, ["time_index", "label"], [index, np.asarray(labels, dtype=np.int64)])


def read_labels_csv(path: str) -> tuple[np.ndarray, int]:
    table = read_table(path, 2, label_idx=1)
    return table[:, 1].astype(np.int64), _time_origin(table, path)


def _load_split(cfg: PipelineConfig, which: str) -> LabeledSeries:
    path = getattr(cfg.data, which)
    if path is None:
        raise ConfigError(f"config is missing data.{which}")
    if not os.path.exists(path):
        raise DataError(f"{which} file not found: {path}")
    return load_csv(path, label_column=cfg.data.label_column)


def _stats_path(cfg: PipelineConfig) -> str:
    return os.path.join(cfg.output_dir, "preprocess_stats.json")


def _save_stats(stats: MinMaxStats | None, cfg: PipelineConfig) -> None:
    """Write the fitted min-max statistics and the preprocess section they came from."""
    doc = None
    if stats is not None:
        doc = {
            "mins": [repr(float(v)) for v in stats.mins],
            "maxs": [repr(float(v)) for v in stats.maxs],
        }
    write_json({"minmax": doc, "preprocess": dataclasses.asdict(cfg.preprocess)}, _stats_path(cfg))


def _load_stats(path: str) -> tuple[MinMaxStats | None, dict | None]:
    """The saved statistics and the recorded preprocess section (None if absent)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        minmax = doc["minmax"]
        stats = None
        if minmax is not None:
            mins = np.asarray([float(v) for v in minmax["mins"]])
            maxs = np.asarray([float(v) for v in minmax["maxs"]])
            stats = MinMaxStats(mins, maxs)
    except (ValueError, KeyError, TypeError, ShapeError) as exc:
        raise DataError(f"{path}: cannot decode preprocessing stats: {exc!r}") from None
    return stats, doc.get("preprocess")


def cmd_synth(cfg: PipelineConfig) -> int:
    """Write a synthetic dataset (CSV + sidecar JSON) into the output dir."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    spec = cfg.synth.spec()
    sidecar = {"kind": cfg.synth.kind, "seed": cfg.synth.seed, "spec": dataclasses.asdict(spec)}
    if cfg.synth.kind == "trig":
        result = gen_trig(spec)
        train_path = os.path.join(cfg.output_dir, "train.csv")
        test_path = os.path.join(cfg.output_dir, "test.csv")
        save_csv(result.train, train_path)
        save_csv(result.test, test_path)
        files = [train_path, test_path]
        sidecar["anomaly_rate"] = result.anomaly_rate
    elif cfg.synth.kind == "toy":
        result = gen_toy(spec)
        path = os.path.join(cfg.output_dir, "toy.csv")
        dim = spec.n_channels
        header = [f"dxc_{j}" for j in range(dim)] + [f"dxp_{j}" for j in range(dim)]
        write_csv(
            path,
            header + ["label", "nominality"],
            [result.context_dev, result.point_dev, result.labels, result.nominality],
        )
        files = [path]
    else:
        result = gen_sensor(spec)
        path = os.path.join(cfg.output_dir, "sensor.csv")
        save_csv(result.series, path)
        files = [path]
        sidecar["tags"] = list(result.tags)
    sidecar["files"] = files
    write_json(sidecar, os.path.join(cfg.output_dir, "synth_spec.json"))
    write_manifest(cfg, "synth", {"outputs": files})
    return EXIT_OK


def cmd_train(cfg: PipelineConfig) -> int:
    """Fit both models on the training split and save all artifacts."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    train_raw = _load_split(cfg, "train")
    train_prep, stats = preprocess_split(cfg, train_raw)
    models = fit_models(cfg, train_prep)
    models.stats = stats

    point_path = os.path.join(cfg.output_dir, "point_model.json")
    seq_path = os.path.join(cfg.output_dir, "sequence_model.json")
    nominality_path = os.path.join(cfg.output_dir, "train_nominality.csv")
    save_model(models.point, point_path)
    save_model(models.sequence, seq_path)
    _save_stats(stats, cfg)
    write_score_csv(models.train_nominality, nominality_path)
    print(
        f"point model: first epoch loss {models.point.first_epoch_loss}, "
        f"final epoch loss {models.point.final_epoch_loss}"
    )
    print(f"sequence model: normal-equation residual {models.sequence.fit_residual:.3e}")
    write_manifest(
        cfg,
        "train",
        {
            "seeds": {"point_model": cfg.point_model.seed},
            "final_losses": {
                "point_first_epoch": models.point.first_epoch_loss,
                "point_final_epoch": models.point.final_epoch_loss,
                "point_epoch_losses": models.point.epoch_losses,
                "sequence_fit_residual": models.sequence.fit_residual,
            },
            "outputs": [point_path, seq_path, nominality_path],
        },
    )
    return EXIT_OK


def _load_models(cfg: PipelineConfig) -> TrainedModels:
    """Load the training artifacts; refuse them if the config's training sections changed."""
    point_path = os.path.join(cfg.output_dir, "point_model.json")
    seq_path = os.path.join(cfg.output_dir, "sequence_model.json")
    nominality_path = os.path.join(cfg.output_dir, "train_nominality.csv")
    for path in (point_path, seq_path, nominality_path):
        if not os.path.exists(path):
            raise DataError(f"missing training artifact: {path} (run 'train' first)")
    point, seq = load_model(point_path), load_model(seq_path)
    for path, model, cls in ((point_path, point, PointModel), (seq_path, seq, SequenceModel)):
        if not isinstance(model, cls):
            raise DataError(f"{path}: holds a {type(model).__name__}, not a {cls.__name__}")
    stats, preprocess = _load_stats(_stats_path(cfg))
    for section, path, trained, current in (
        ("preprocess", _stats_path(cfg), preprocess, dataclasses.asdict(cfg.preprocess)),
        ("point_model", point_path, point.hp, cfg.point_model),
        ("sequence_model", seq_path, (seq.gamma, seq.delta, seq.ridge_lambda),
         dataclasses.astuple(cfg.sequence_model)),
    ):
        if trained != current:
            raise ConfigError(
                f"the {section} section differs from the one recorded in {path}; "
                f"run 'train' again"
            )
    return TrainedModels(point, seq, stats, read_score_csv(nominality_path, "nominality"))


def cmd_score(cfg: PipelineConfig) -> int:
    """Score the test split and write the aligned score CSVs."""
    models = _load_models(cfg)
    test_raw = _load_split(cfg, "test")
    test_prep, _ = preprocess_split(cfg, test_raw, models.stats)
    bundle = score_split(cfg, models, test_prep)

    outputs = {}
    for name, series in (
        ("anomaly", bundle.anomaly),
        ("sequence_anomaly", bundle.seq_anomaly),
        ("nominality", bundle.nominality),
        ("induced", bundle.induced),
    ):
        path = os.path.join(cfg.output_dir, f"{name}.csv")
        write_score_csv(series, path)
        outputs[name] = path
    if bundle.labels is not None:
        labels_path = os.path.join(cfg.output_dir, "labels.csv")
        write_labels_csv(bundle.labels, bundle.induced.time_origin, labels_path)
        outputs["labels"] = labels_path
    write_manifest(
        cfg,
        "score",
        {"resolved_theta": bundle.theta, "outputs": sorted(outputs.values())},
    )
    return EXIT_OK


def cmd_eval(cfg: PipelineConfig, scores_path: str | None, labels_path: str | None) -> int:
    """Evaluate a score CSV against the aligned label CSV."""
    scores_path = scores_path or os.path.join(cfg.output_dir, "induced.csv")
    labels_path = labels_path or os.path.join(cfg.output_dir, "labels.csv")
    for path in (scores_path, labels_path):
        if not os.path.exists(path):
            raise DataError(f"missing input: {path}")
    scores = read_score_csv(scores_path, "induced")
    labels, label_origin = read_labels_csv(labels_path)
    if label_origin != scores.time_origin or labels.shape[0] != len(scores):
        raise DataError(
            f"labels ({labels_path}) are not aligned with scores ({scores_path})"
        )
    report = evaluate(
        scores,
        labels,
        point_adjusted=cfg.eval.point_adjust,
        spike_interval=cfg.eval.spike_interval,
    )
    # The curve is formatted once and shared by the CSV and the JSON report.
    curve_rows = format_rows(report.curve)
    report_path = os.path.join(cfg.output_dir, "eval_report.json")
    atomic_write(report_path, report.to_json(curve_rows) + "\n")
    curve_path = os.path.join(cfg.output_dir, "curve.csv")
    write_csv(curve_path, ["threshold", "precision", "recall", "f1"], [curve_rows])
    print(f"best F1 {report.best_f1:.6f} at threshold {report.best_threshold!r}")
    write_manifest(
        cfg, "eval", {"inputs": [scores_path, labels_path], "outputs": [report_path, curve_path]}
    )
    return EXIT_OK


def cmd_sweep(cfg: PipelineConfig) -> int:
    """Run the gate-ablation table over the configured induction lengths."""
    models = _load_models(cfg)
    test_raw = _load_split(cfg, "test")
    test_prep, _ = preprocess_split(cfg, test_raw, models.stats)
    table = sweep_table(cfg, models, test_prep)

    json_path = os.path.join(cfg.output_dir, "sweep.json")
    write_json(table, json_path)
    csv_path = os.path.join(cfg.output_dir, "sweep.csv")
    methods, ds, aucs, f1s = [], [], [], []
    for method, row in table["rows"].items():
        methods += [method] * (len(table["d_values"]) + 2)
        ds += [str(d) for d in table["d_values"]] + ["mean", "std"]
        aucs += [*row["auc"], row["auc_mean"], row["auc_std"]]
        f1s += [*row["best_f1"], row["best_f1_mean"], row["best_f1_std"]]
    write_csv(csv_path, ["method", "d", "auc", "best_f1"],
              [methods, ds, np.asarray(aucs, dtype=np.float64), np.asarray(f1s, dtype=np.float64)])
    write_manifest(
        cfg, "sweep", {"resolved_theta": table["theta"], "outputs": [json_path, csv_path]}
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nominality",
        description="Gated anomaly scoring for multivariate time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("synth", "generate a synthetic dataset"),
        ("train", "fit the point and sequence models"),
        ("score", "write anomaly/nominality/induced score CSVs"),
        ("eval", "evaluate scores against labels"),
        ("sweep", "gate ablation across induction lengths"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", help="YAML config file")
        cmd.add_argument("--d", type=int, help="override the induction length")
        cmd.add_argument("--gate", choices=("soft", "hard"), help="override the gate kind")
        cmd.add_argument(
            "--theta-percentile", type=float, help="override the threshold percentile"
        )
        cmd.add_argument("--seed", type=int, help="override model and synth seeds")
        cmd.add_argument("--out", help="override the output directory")
        if name == "eval":
            cmd.add_argument("--scores", help="score CSV (default: <out>/induced.csv)")
            cmd.add_argument("--labels", help="label CSV (default: <out>/labels.csv)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else PipelineConfig()
        cfg = apply_overrides(
            cfg,
            d=args.d,
            gate_kind=args.gate,
            theta_percentile=args.theta_percentile,
            seed=args.seed,
            out_dir=args.out,
        )
        os.makedirs(cfg.output_dir, exist_ok=True)
        if args.command == "synth":
            return cmd_synth(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "score":
            return cmd_score(cfg)
        if args.command == "eval":
            return cmd_eval(cfg, args.scores, args.labels)
        return cmd_sweep(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # a missing, unreadable or misplaced file or directory
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
