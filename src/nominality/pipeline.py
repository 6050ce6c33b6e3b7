"""End-to-end orchestration shared by the CLI and the test suite.

The flow mirrors the scoring algorithm: preprocess both splits with
training-split statistics, fit the point and sequence models on the training
split, reconstruct the test split both ways, derive anomaly/nominality
scores on the common valid range, resolve the gate threshold from the
training nominality distribution, produce the induced score, and sweep the
scoring methods across induction lengths.  Labels are trimmed to the valid
range with the scores, so callers never align offsets by hand.

:func:`fit_models` builds the whole detector, min-max statistics included,
from the raw training split.  :func:`score_split` preprocesses a raw split
with those statistics and scores it.  One loop, :func:`_split_scores`, computes
the scores of every split, one chunk of it at a time: the test split's for
``score_split`` and the training nominality for ``fit_models``.
:func:`sweep_table` takes the scores as a :class:`ScoreBundle`, either the one
``score_split`` returns or one read back from the score matrix and threshold
that ``score`` saves, and only evaluates them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .errors import DataError, NonFiniteValue, ShapeError, shown
from .evaluation import auc_and_best_f1
from .reconstructors import (
    MODEL_FILE,
    PointModel,
    SequenceModel,
    TrainedModels,
    _anchored_chunks,
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


#: A training channel whose full span exceeds this multiple of its central span,
#: from the 0.5th to the 99.5th percentile, is refused: min-max scaling would flatten it.
SPAN_RATIO = 1e6


@dataclass
class ScoreBundle:
    """All per-time-point scores for one split, aligned on the valid range.

    ``score`` saves one as ``scores.npy``, with ``theta`` in its manifest, and
    ``eval`` and ``sweep`` read both back, so a run has one threshold.
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
    trains both reconstructors and records the training nominality scores,
    which :func:`_split_scores` computes as it computes a test split's.
    Overflow raises, not warns: a value too large to preprocess raises
    :class:`DataError` as in :func:`score_split`.  A split too short or too
    narrow for the models raises :class:`ShapeError` naming ``data.train``.
    """
    name, factor = cfg.data.train or "training split", cfg.preprocess.downsample
    try:
        series = downsample(train_raw, factor)
        stats = minmax_fit(series)
        train = minmax_apply(series, stats)
    except NonFiniteValue as exc:
        raise _too_large(cfg, name, exc.row, _PREPROCESS) from None
    _check_spans(series, stats, name, factor)
    try:
        point = train_point_model(train, cfg.point_model)
        seq = train_sequence_model(train, **vars(cfg.sequence_model))
    except ShapeError as exc:
        raise ShapeError(f"{name}: {exc}") from None
    nominality = _split_scores(cfg, point, seq, stats, train_raw, name)[2]
    return TrainedModels(point, seq, stats, nominality, train.channel_names)


def score_split(
    cfg: PipelineConfig, models: TrainedModels, test_raw: LabeledSeries
) -> ScoreBundle:
    """Reconstruct a raw split both ways and compute all scores on it.

    The split is downsampled, normalized with ``models.stats`` and scored
    one chunk at a time by :func:`_split_scores`; the threshold and the
    induced score then come from the whole score vectors.

    Raises:
        DataError: the split's channels are not the training split's, by name
            and in order; or a test value is so large that its downsampled or
            min-max scaled value, or one of the four scores, overflows, and the
            message names the data row of the first time point whose values, or
            scores, are not finite (the first row of its block when downsampling).
        ShapeError: the split is shorter than one sequence window; the message
            names ``data.test``.
    """
    name = cfg.data.test or "test split"
    if test_raw.channel_names != models.channel_names:
        raise DataError(f"{name}: channels {shown(list(test_raw.channel_names))} are not the "
                        f"training split's {shown(list(models.channel_names))} (from {MODEL_FILE})")
    a_point, a_seq, nominality, labels = _split_scores(
        cfg, models.point, models.sequence, models.stats, test_raw, name)
    gate_cfg = resolve_theta(cfg.gate, models.train_nominality)
    try:
        induced = induced_anomaly_score(a_point, nominality, gate_cfg)
    except NonFiniteValue as exc:
        raise _too_large(cfg, name, a_point.time_origin + exc.row, _SCORE) from None
    return ScoreBundle(a_point, a_seq, nominality, induced, labels, gate_cfg.theta_n)


#: What a value of a split can be too large to do, in :func:`_too_large`'s message.
_PREPROCESS = "preprocess (downsampling or scaling overflows)"
_SCORE = "score (the scores overflow)"


@np.errstate(over="ignore", invalid="ignore")
def _split_scores(
    cfg: PipelineConfig, point: PointModel, seq: SequenceModel, stats: MinMaxStats,
    raw: LabeledSeries, name: str,
) -> tuple[ScoreSeries, ScoreSeries, ScoreSeries, np.ndarray | None]:
    """The point, sequence and nominality scores of the raw split ``raw``, and its labels,
    on the valid range; ``name`` names the split in an error.

    The split is read in the chunks of blocks that :func:`reconstruct_sequence`
    multiplies (:func:`_anchored_chunks`): a chunk's time points are its blocks' and
    gamma more on each side, and a time point is ``preprocess.downsample`` rows of the
    split.  Each chunk is downsampled, scaled by ``stats``,
    reconstructed and scored on its own, so of the whole split only the score
    vectors are held.  Every score reads the rows it reads in the whole split, and
    every block's product has the same rows, so the scores are the whole split's,
    bit for bit.

    A value that is too large raises :class:`DataError` naming ``name`` and the data
    row that the whole split's checks would name first: they run in the order
    downsampled values, scaled values, point, sequence and nominality scores, and
    each names its first row.  So a chunk's error is kept and the chunks after it
    run only the checks before its own.  A split shorter than one window is one
    chunk, and raises :class:`ShapeError` naming ``name``.
    """
    factor, g, d = cfg.preprocess.downsample, seq.gamma, seq.delta
    n_times = -(-raw.n_times // factor)  # time points after downsampling
    n_rows = max(n_times - 2 * g, 0)
    scores = np.empty((3, n_rows))
    labels = None if raw.labels is None else np.empty(n_rows, np.int64)
    scorers = (anomaly_score, sequence_anomaly_score, nominality_score)
    first = (5, 0)  # the check, of the five above, and time point of the first failure
    for chunk in _anchored_chunks(max(-(-n_rows // d), 1)):
        lo, hi = chunk.start * d, min(chunk.stop * d + 2 * g, n_times)  # its time points
        rows, scored = slice(lo * factor, hi * factor), slice(lo, hi - 2 * g)
        part = LabeledSeries(raw.values[rows], None if raw.labels is None else raw.labels[rows],
                             raw.channel_names)
        check = 0
        try:
            part = downsample(part, factor)
            if first[0] > 1:
                check = 1
                part = minmax_apply(part, stats)
                pair = make_pair(part, reconstruct_points(point, part),
                                 reconstruct_sequence(seq, part), g)
                for check, scorer in enumerate(scorers[: first[0] - 2], 2):
                    scores[check - 2, scored] = scorer(pair).scores
                if labels is not None:
                    labels[scored] = part.labels[g : part.n_times - g]
        except NonFiniteValue as exc:  # a score's row counts from the chunk's gamma
            first = (check, lo + exc.row + (g if check > 1 else 0))
            if check == 0:
                break
        except ShapeError as exc:
            raise ShapeError(f"{name}: {exc}") from None
    if first[0] < 5:
        raise _too_large(cfg, name, first[1], _PREPROCESS if first[0] < 2 else _SCORE)
    return (*(ScoreSeries(vector, g) for vector in scores), labels)


def _check_spans(series: LabeledSeries, stats: MinMaxStats, name: str, factor: int) -> None:
    """Refuse a channel of ``series``, unscaled, whose full span exceeds :data:`SPAN_RATIO`
    times its central span.

    The central span runs from the 0.5th to the 99.5th percentile, each the value
    at the nearest rank, so that from about 100 rows on a single cell lies outside
    it.  A central span of 0 (a channel that holds one value in at least 99.5 % of
    its rows) passes.  The :class:`DataError` names ``name``, the first such channel
    and the data row (the first of its block) of the cell farthest outside the
    central span.  The spans are taken before scaling, where a cell of -1e150 still
    leaves the other values apart; scaled, they would all round to 1.
    """
    lo, hi = np.quantile(series.values, [0.005, 0.995], axis=0, method="nearest")
    central, full = hi - lo, stats.maxs - stats.mins
    bad = np.flatnonzero((central > 0) & (full / SPAN_RATIO > central))
    if bad.size:
        col = int(bad[0])
        values = series.values[:, col]
        row = int(np.argmax(np.maximum(lo[col] - values, values - hi[col]))) * factor
        raise DataError(f"{name}: row {row}: channel {shown(series.channel_names[col])} spans "
                        f"{full[col] / central[col]:.3g} times its central 99 % (more than "
                        f"{SPAN_RATIO:g}), so min-max scaling would flatten it")


def _too_large(cfg: PipelineConfig, name: str, t: int, what: str) -> DataError:
    """The error naming split ``name``'s data row of time point ``t`` (its block's first)."""
    return DataError(f"{name}: row {t * cfg.preprocess.downsample}: "
                     f"a value at or near this row is too large to {what}")


def sweep_table(cfg: PipelineConfig, bundle: ScoreBundle) -> dict:
    """Five scoring methods evaluated across the configured induction lengths.

    Takes the bundle's anomaly, sequence anomaly and nominality scores, its labels
    and its threshold (from the CLI, the one ``score`` resolved); its induced score is
    not read.  The first two rows use the raw point/sequence reconstruction errors and
    ignore d; the gated rows induce the point-based anomaly score through an open gate
    (the moving sum), a hard gate and a soft gate at the threshold, each from one set of
    doubling blocks shared by every d.  Each series' AUC and best F1 are
    :func:`~.evaluation.best_f1`'s, from :func:`~.evaluation.auc_and_best_f1`, which
    builds no curve.  Returns a JSON-ready dict with per-d AUC and best F1 plus their
    mean and standard deviation across d.  An induction sum that overflows raises
    :class:`DataError` naming its first data row, table row and d.
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
        pairs = []
        for d, sums in zip(d_values, induction_sums(anomaly, g, d_values)):
            try:
                pairs.append(auc_and_best_f1(sums, labels))
            except NonFiniteValue as exc:
                raise _too_large(cfg, cfg.data.test or "test split",
                                 bundle.anomaly.time_origin + exc.row,
                                 f"sweep (the {name} sum at d={d} overflows)") from None
        rows[name] = {"auc": [p[0] for p in pairs], "best_f1": [p[1] for p in pairs]}

    for row in rows.values():
        for metric in ("auc", "best_f1"):
            vals = np.asarray(row[metric])
            same = (vals == vals[0]).all()  # exact zero spread for d-independent rows
            row[f"{metric}_mean"] = float(vals[0] if same else vals.mean())
            row[f"{metric}_std"] = 0.0 if same else float(vals.std())

    return {"d_values": d_values, "theta": theta, "rows": rows}
