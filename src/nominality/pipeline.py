"""End-to-end orchestration shared by the CLI and the test suite.

The flow mirrors the scoring algorithm: preprocess both splits with
training-split statistics, fit the point and sequence models on the training
split, reconstruct the test split both ways, derive anomaly/nominality
scores on the common valid range, resolve the gate threshold from the
training nominality distribution, and produce the induced score plus an
evaluation report.  Labels are trimmed with the pair's ``valid_range``, so
callers never align offsets by hand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .errors import DataError
from .evaluation import evaluate
from .reconstructors import (
    PointModel,
    SequenceModel,
    make_pair,
    reconstruct_points,
    reconstruct_sequence,
    train_point_model,
    train_sequence_model,
)
from .scoring import (
    GateConfig,
    anomaly_score,
    induced_anomaly_score,
    nominality_score,
    resolve_theta,
    sequence_anomaly_score,
    smoothed_score,
)
from .series import (
    LabeledSeries,
    MinMaxStats,
    ScoreSeries,
    downsample,
    minmax_apply,
    minmax_fit,
)


@dataclass
class TrainedModels:
    """Fitted models plus everything needed to score a new split."""

    point: PointModel
    sequence: SequenceModel
    stats: MinMaxStats | None
    train_nominality: ScoreSeries


@dataclass
class ScoreBundle:
    """All per-time-point scores for one split, aligned on the valid range."""

    anomaly: ScoreSeries
    seq_anomaly: ScoreSeries
    nominality: ScoreSeries
    induced: ScoreSeries
    labels: np.ndarray | None
    theta: float


def preprocess_split(
    cfg: PipelineConfig,
    series: LabeledSeries,
    stats: MinMaxStats | None = None,
) -> tuple[LabeledSeries, MinMaxStats | None]:
    """Downsample, then normalize with (or fit) min-max statistics.

    Pass ``stats=None`` for the training split (statistics are fitted and
    returned) and the fitted statistics for the test split.
    """
    out = downsample(series, cfg.preprocess.downsample)
    if cfg.preprocess.normalization == "none":
        return out, stats
    if stats is None:
        stats = minmax_fit(out)
    return minmax_apply(out, stats), stats


def fit_models(cfg: PipelineConfig, train: LabeledSeries) -> TrainedModels:
    """Train both reconstructors and record the training nominality scores."""
    point = train_point_model(train, cfg.point_model)
    seq = train_sequence_model(
        train,
        gamma=cfg.sequence_model.gamma,
        delta=cfg.sequence_model.delta,
        ridge_lambda=cfg.sequence_model.ridge_lambda,
        stride=None,
    )
    pair = make_pair(train.values, reconstruct_points(point, train),
                     reconstruct_sequence(seq, train), seq.gamma)
    train_nominality = nominality_score(pair)
    return TrainedModels(point, seq, None, train_nominality)


def score_split(
    cfg: PipelineConfig, models: TrainedModels, test: LabeledSeries
) -> ScoreBundle:
    """Reconstruct a split both ways and compute all scores on it."""
    pair = make_pair(
        test.values,
        reconstruct_points(models.point, test),
        reconstruct_sequence(models.sequence, test),
        models.sequence.gamma,
    )
    a_point = anomaly_score(pair)
    a_seq = sequence_anomaly_score(pair)
    nominality = nominality_score(pair)
    gate_cfg = resolve_theta(cfg.gate, models.train_nominality)
    induced = induced_anomaly_score(a_point, nominality, gate_cfg)
    lo, hi = pair.valid_range
    labels = test.labels[lo:hi] if test.labels is not None else None
    return ScoreBundle(a_point, a_seq, nominality, induced, labels, gate_cfg.theta_n)


def sweep_table(
    cfg: PipelineConfig, models: TrainedModels, test: LabeledSeries
) -> dict:
    """Five scoring methods evaluated across the configured induction lengths.

    The first two rows use the raw point/sequence reconstruction errors and
    ignore d; the gated rows reuse the point-based anomaly score.  Returns a
    JSON-ready dict with per-d AUC and best F1 plus their mean and standard
    deviation across d.
    """
    bundle = score_split(cfg, models, test)
    if bundle.labels is None:
        raise DataError("cannot sweep: test split has no labels")
    labels = bundle.labels
    d_values = list(cfg.sweep.d_values)
    theta = bundle.theta

    def metrics(scores: ScoreSeries) -> tuple[float, float]:
        report = evaluate(scores, labels)
        return report.auc, report.best_f1

    rows: dict[str, dict] = {}
    point_metrics = metrics(bundle.anomaly)
    seq_metrics = metrics(bundle.seq_anomaly)
    rows["point"] = {"auc": [point_metrics[0]] * len(d_values),
                     "best_f1": [point_metrics[1]] * len(d_values)}
    rows["sequence"] = {"auc": [seq_metrics[0]] * len(d_values),
                        "best_f1": [seq_metrics[1]] * len(d_values)}

    gated = {
        "hard_theta_inf": None,
        "hard_theta_pct": GateConfig(kind="hard", theta_n=theta, d=0),
        "soft_theta_pct": GateConfig(kind="soft", theta_n=theta, d=0),
    }
    for name, base in gated.items():
        aucs, f1s = [], []
        for d in d_values:
            if base is None:
                induced = smoothed_score(bundle.anomaly, d)
            else:
                induced = induced_anomaly_score(
                    bundle.anomaly,
                    bundle.nominality,
                    GateConfig(kind=base.kind, theta_n=base.theta_n, d=d),
                )
            auc_val, f1_val = metrics(induced)
            aucs.append(auc_val)
            f1s.append(f1_val)
        rows[name] = {"auc": aucs, "best_f1": f1s}

    for row in rows.values():
        for metric in ("auc", "best_f1"):
            vals = np.asarray(row[metric])
            if (vals == vals[0]).all():  # exact zero spread for d-independent rows
                row[f"{metric}_mean"] = float(vals[0])
                row[f"{metric}_std"] = 0.0
            else:
                row[f"{metric}_mean"] = float(vals.mean())
                row[f"{metric}_std"] = float(vals.std())

    return {"d_values": d_values, "theta": theta, "rows": rows}
