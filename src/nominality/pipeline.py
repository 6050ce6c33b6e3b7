"""End-to-end orchestration shared by the CLI and the test suite.

The flow mirrors the scoring algorithm: preprocess both splits with
training-split statistics, fit the point and sequence models on the training
split, reconstruct the test split both ways, derive anomaly/nominality
scores on the common valid range, resolve the gate threshold from the
training nominality distribution, produce the induced score, and sweep the
scoring methods across induction lengths.  Labels are trimmed with the
pair's ``valid_range``, so callers never align offsets by hand.

:func:`fit_models` builds the whole detector, min-max statistics included,
from the raw training split.  :func:`score_split` preprocesses a raw split
with those statistics and is the only code that computes the scores of a split.
:func:`sweep_table` takes them as a :class:`ScoreBundle`, either the one
``score_split`` returns or one read back from the score matrix that
``score`` saves, and only evaluates them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .errors import DataError, ScaleOverflow, ShapeError
from .evaluation import auc_and_best_f1
from .reconstructors import (
    MODEL_FILE,
    ReconstructionPair,
    TrainedModels,
    make_pair,
    reconstruct_points,
    reconstruct_sequence,
    train_point_model,
    train_sequence_model,
)
from .scoring import (
    anomaly_score,
    gate,
    induced_anomaly_score,
    induction_sums,
    nominality_score,
    resolve_theta,
    sequence_anomaly_score,
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
class ScoreBundle:
    """All per-time-point scores for one split, aligned on the valid range.

    ``score`` saves one as ``scores.npy`` and ``sweep`` reads it back, with
    ``theta`` resolved again from the current ``gate`` section.
    """

    anomaly: ScoreSeries
    seq_anomaly: ScoreSeries
    nominality: ScoreSeries
    induced: ScoreSeries
    labels: np.ndarray | None
    theta: float


@np.errstate(over="ignore", invalid="ignore")
def fit_models(cfg: PipelineConfig, train_raw: LabeledSeries) -> TrainedModels:
    """Build the whole detector from the raw training split.

    Downsamples the split, fits the min-max statistics and applies them,
    trains both reconstructors and records the training nominality scores.
    Overflow raises, not warns: a value too large to scale raises
    :class:`DataError` as in :func:`score_split`.  A split too short or too
    narrow for the models raises :class:`ShapeError` naming ``data.train``.
    """
    train = downsample(train_raw, cfg.preprocess.downsample)
    stats = minmax_fit(train)
    train = _scaled(cfg, train, stats, cfg.data.train or "training split")
    try:
        point = train_point_model(train, cfg.point_model)
        seq = train_sequence_model(train, **vars(cfg.sequence_model))
    except ShapeError as exc:
        raise ShapeError(f"{cfg.data.train or 'training split'}: {exc}") from None
    pair = make_pair(train.values, reconstruct_points(point, train),
                     reconstruct_sequence(seq, train), seq.gamma)
    return TrainedModels(point, seq, stats, nominality_score(pair), train.channel_names)


def score_split(
    cfg: PipelineConfig, models: TrainedModels, test_raw: LabeledSeries
) -> ScoreBundle:
    """Reconstruct a raw split both ways and compute all scores on it.

    The split is first downsampled, then normalized with ``models.stats``,
    as the training split was.

    Raises:
        DataError: the split's channels are not the training split's, by name
            and in order; or a test value is so large that its min-max scaled
            value or a score overflows, and the message names the data row of
            the first time point whose scaled values or scores are not finite
            (the first row of its block when downsampling).
        ShapeError: the split is shorter than one sequence window, or, for
            models without channel names, has another channel count; the
            message names ``data.test``.
    """
    name = cfg.data.test or "test split"
    if models.channel_names is not None and test_raw.channel_names != models.channel_names:
        raise DataError(f"{name}: channels {list(test_raw.channel_names)} are not the "
                        f"training split's {list(models.channel_names)} (from {MODEL_FILE})")
    try:
        test = _scaled(cfg, downsample(test_raw, cfg.preprocess.downsample), models.stats, name)
        with np.errstate(over="ignore", invalid="ignore"):
            point_rec = reconstruct_points(models.point, test)
            seq_rec = reconstruct_sequence(models.sequence, test)
    except ShapeError as exc:
        raise ShapeError(f"{name}: {exc}") from None
    # A huge but finite value can overflow a squared distance; the scores
    # are checked for that here rather than warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        pair = make_pair(test.values, point_rec, seq_rec, models.sequence.gamma)
        a_point = anomaly_score(pair)
        a_seq = sequence_anomaly_score(pair)
        try:
            nominality = nominality_score(pair)
        except ShapeError:  # a non-finite ratio, located below
            nominality = None
        if nominality is None or not (np.isfinite(a_point.scores).all()
                                      and np.isfinite(a_seq.scores).all()):
            raise _overflow_error(cfg, pair, a_point, a_seq)
    gate_cfg = resolve_theta(cfg.gate, models.train_nominality)
    induced = induced_anomaly_score(a_point, nominality, gate_cfg)
    lo, hi = pair.valid_range
    labels = test.labels[lo:hi] if test.labels is not None else None
    return ScoreBundle(a_point, a_seq, nominality, induced, labels, gate_cfg.theta_n)


def _scaled(cfg: PipelineConfig, series: LabeledSeries, stats: MinMaxStats,
            name: str) -> LabeledSeries:
    """``series``, already downsampled, scaled by ``stats``; a value too large to scale raises
    :class:`DataError` naming ``name`` and the first data row of its block."""
    try:
        return minmax_apply(series, stats)
    except ScaleOverflow as exc:
        raise DataError(f"{name}: row {exc.row * cfg.preprocess.downsample}: a value at or near "
                        f"this row is too large to scale (min-max scaling overflows)") from None


def _overflow_error(cfg: PipelineConfig, pair: ReconstructionPair, a_point: ScoreSeries,
                    a_seq: ScoreSeries) -> DataError:
    """The error naming the data row of the first time point whose scores are not finite.

    A point score depends on its own row only, so where one overflowed, the
    first such row is named: it holds the huge value.
    """
    finite = np.isfinite(a_point.scores)
    if finite.all():
        # The nominality is finite exactly where its numerator is, since its
        # denominator is at least epsilon.
        finite = np.isfinite(a_seq.scores)
        finite &= np.isfinite(np.square(pair.xc_hat - pair.xstar_hat).sum(axis=1))
    row = (pair.valid_range[0] + int(np.flatnonzero(~finite)[0])) * cfg.preprocess.downsample
    return DataError(f"{cfg.data.test or 'test split'}: row {row}: a value at or near this "
                     f"row is too large to score (the scores overflow)")


def sweep_table(cfg: PipelineConfig, bundle: ScoreBundle) -> dict:
    """Five scoring methods evaluated across the configured induction lengths.

    Takes the bundle's anomaly, sequence anomaly and nominality scores, its
    labels and its threshold; its induced score is not read.  The first two
    rows use the raw point/sequence reconstruction errors and ignore d; the
    gated rows induce the point-based anomaly score through an open gate (the
    moving sum), a hard gate and a soft gate at the threshold, each from one
    set of doubling blocks shared by every d.  Each series' AUC and best F1
    are :func:`~.evaluation.best_f1`'s, from :func:`~.evaluation.auc_and_best_f1`,
    which builds no curve.  Returns a JSON-ready dict with per-d AUC and best
    F1 plus their mean and standard deviation across d.
    """
    if bundle.labels is None:
        raise DataError("cannot sweep: test split has no labels")
    labels = bundle.labels
    d_values = list(cfg.sweep.d_values)
    theta = bundle.theta
    anomaly = bundle.anomaly.scores

    rows: dict[str, dict] = {}
    for name, series in (("point", bundle.anomaly), ("sequence", bundle.seq_anomaly)):
        auc_val, f1_val = auc_and_best_f1(series, labels)
        rows[name] = {"auc": [auc_val] * len(d_values), "best_f1": [f1_val] * len(d_values)}

    gates = {
        "hard_theta_inf": np.ones_like(anomaly),
        "hard_theta_pct": gate("hard", theta, bundle.nominality.scores),
        "soft_theta_pct": gate("soft", theta, bundle.nominality.scores),
    }
    for name, g in gates.items():
        pairs = [auc_and_best_f1(s, labels) for s in induction_sums(anomaly, g, d_values)]
        rows[name] = {"auc": [p[0] for p in pairs], "best_f1": [p[1] for p in pairs]}

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
