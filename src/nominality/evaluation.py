"""Threshold-sweep evaluation: best F1, point-adjusted best F1, ROC-AUC.

A point is predicted anomalous when its score is >= the threshold, and the
sweep visits every distinct score plus one sentinel above the maximum (the
all-negative prediction), which is sufficient because the F1 score only
changes at observed values.  Ties in the best F1 are broken toward the
smallest threshold.  Scores must be finite.

All three metrics come from one sort of the scores: the bounds of its tie
groups give the thresholds, and a cumulative sum of the sorted labels gives
the positives (and so the negatives) at or above each threshold.  Best F1
reads its curve from those counts, the AUC is their Mann-Whitney U
statistic, and the point-adjusted F1 counts each label run at its maximum's
sorted position.  Counts at tie bounds do not depend on the order inside a
tie, so the sort need not be stable; a tie group holding both ``0.0`` and
``-0.0`` may be named by either sign.

Each metric has a deliberately simple brute-force twin
(``*_bruteforce`` / :func:`auc_trapezoid`) used as an independent oracle in
the test suite.  The fast best F1 and point-adjusted best F1 must match
theirs exactly.  The U-statistic AUC must agree with the trapezoid within
1e-10: the two sum the same area in different orders, so they can differ in
the last bits (3.6e-15 on the preset dataset).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLabels, ShapeError
from .series import ScoreSeries, format_rows

_CURVE_SLOT = "@curve@"  # placeholder swapped for the pre-formatted curve


@dataclass
class EvalReport:
    """Threshold-sweep results for one score series.

    ``curve`` is an (n, 4) array with columns (threshold, precision, recall,
    f1), sorted by threshold; ``pa_best_f1`` and ``spiked_pa_best_f1`` are
    filled only when requested.
    """

    best_f1: float
    best_threshold: float
    precision: float
    recall: float
    auc: float
    curve: np.ndarray
    pa_best_f1: float | None = None
    spiked_pa_best_f1: float | None = None

    def _summary(self) -> dict:
        doc = {
            "best_f1": self.best_f1,
            "best_threshold": self.best_threshold,
            "precision": self.precision,
            "recall": self.recall,
            "auc": self.auc,
        }
        if self.pa_best_f1 is not None:
            doc["pa_best_f1"] = self.pa_best_f1
        if self.spiked_pa_best_f1 is not None:
            doc["spiked_pa_best_f1"] = self.spiked_pa_best_f1
        return doc

    def to_json(self, curve_rows: list[str] | None = None) -> str:
        """Sorted, indented JSON with one curve row per line.

        ``curve_rows`` is the curve as :func:`~nominality.series.format_rows`
        text, so a caller that also writes the curve CSV formats it once.
        """
        if curve_rows is None:
            curve_rows = format_rows(self.curve)
        curve = "[\n  [" + "],\n  [".join(curve_rows) + "]\n ]" if curve_rows else "[]"
        # repr spells non-finite floats inf/nan; JSON (as json.dumps) wants Infinity/NaN.
        curve = curve.replace("inf", "Infinity").replace("nan", "NaN")
        text = json.dumps({**self._summary(), "curve": _CURVE_SLOT}, sort_keys=True, indent=1)
        return text.replace(f'"{_CURVE_SLOT}"', curve)


def _as_arrays(
    scores: ScoreSeries | np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    score_vals = scores.scores if isinstance(scores, ScoreSeries) else np.asarray(scores, dtype=np.float64)
    label_vals = np.asarray(labels)
    if score_vals.shape != label_vals.shape:
        raise ShapeError(
            f"scores and labels lengths differ: {score_vals.shape} vs {label_vals.shape}"
        )
    if not np.isfinite(score_vals).all():
        raise ShapeError("scores must be finite")
    return score_vals, label_vals.astype(np.int64)


def _require_both_classes(labels: np.ndarray) -> None:
    if labels.min() == labels.max():
        raise DegenerateLabels("labels must contain at least one 0 and one 1")


def confusion(pred: np.ndarray, labels: np.ndarray) -> tuple[int, int, int, int]:
    """Counts (TP, FP, FN, TN) for binary predictions against binary labels."""
    pred = np.asarray(pred)
    labels = np.asarray(labels)
    if pred.shape != labels.shape:
        raise ShapeError(f"pred and labels lengths differ: {pred.shape} vs {labels.shape}")
    pred = pred.astype(bool)
    truth = labels.astype(bool)
    tp = int((pred & truth).sum())
    fp = int((pred & ~truth).sum())
    fn = int((~pred & truth).sum())
    tn = int((~pred & ~truth).sum())
    return tp, fp, fn, tn


def _f1_from_counts(tp: np.ndarray, fp: np.ndarray, fn: np.ndarray):
    """Precision, recall and their harmonic mean; all 0 when TP is 0."""
    tp = np.asarray(tp, dtype=np.float64)
    fp = np.asarray(fp, dtype=np.float64)
    fn = np.asarray(fn, dtype=np.float64)
    pred_pos = tp + fp
    precision = np.divide(tp, pred_pos, out=np.zeros_like(tp), where=pred_pos > 0)
    actual_pos = tp + fn
    recall = np.divide(tp, actual_pos, out=np.zeros_like(tp), where=actual_pos > 0)
    denom = precision + recall
    f1 = np.divide(
        2.0 * precision * recall, denom, out=np.zeros_like(tp), where=denom > 0
    )
    return precision, recall, f1


def _at_or_above(sorted_weights: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Sum of the weights from each bound to the end, from one cumulative sum."""
    below = np.concatenate([[0], np.cumsum(sorted_weights)])
    return below[-1] - below[bounds]


def _sweep(scores: ScoreSeries | np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, ...]:
    """Validate the inputs and count at every threshold from one sort of the scores.

    Returns ``(thresholds, tp, fp, labels, order, bounds)``: the distinct
    scores ascending, then a sentinel above the maximum; the positives and
    the negatives scoring at or above each threshold; the labels as int64;
    the sort; and the first sorted position at or above each threshold.
    """
    score_vals, label_vals = _as_arrays(scores, labels)
    _require_both_classes(label_vals)
    order = np.argsort(score_vals)
    sorted_scores = score_vals[order]
    bounds = np.concatenate(
        [[0], np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1]) + 1, [order.shape[0]]]
    )
    top = sorted_scores[-1] + 1.0
    if top == sorted_scores[-1]:  # +1 fell below one ulp of a huge score
        top = np.inf
    tp = _at_or_above(label_vals[order], bounds)
    fp = (order.shape[0] - bounds) - tp
    return np.append(sorted_scores[bounds[:-1]], top), tp, fp, label_vals, order, bounds


def best_f1(scores: ScoreSeries | np.ndarray, labels: np.ndarray) -> EvalReport:
    """Exhaustive threshold sweep; returns the report with the maximal F1.

    Raises:
        DegenerateLabels: labels are all 0 or all 1.
        ShapeError: the lengths differ or a score is not finite.
    """
    return _best_report(_sweep(scores, labels))


def _best_report(sweep: tuple[np.ndarray, ...]) -> EvalReport:
    """:func:`best_f1`'s report from the counts of one :func:`_sweep`."""
    thresholds, tp, fp, *_ = sweep
    precision, recall, f1 = _f1_from_counts(tp, fp, tp[0] - tp)
    best_idx = int(np.argmax(f1))  # first occurrence = smallest threshold
    return EvalReport(
        best_f1=float(f1[best_idx]),
        best_threshold=float(thresholds[best_idx]),
        precision=float(precision[best_idx]),
        recall=float(recall[best_idx]),
        auc=_u_auc(tp, fp),
        curve=np.column_stack([thresholds, precision, recall, f1]),
    )


def _oracle_f1(tp: int, fp: int, fn: int) -> float:
    """F1 of one confusion count in plain Python arithmetic; 0 when TP is 0."""
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def best_f1_bruteforce(
    scores: ScoreSeries | np.ndarray, labels: np.ndarray
) -> tuple[float, float]:
    """Independent oracle: evaluate F1 at every distinct score with explicit loops.

    The fast sweep's sentinel above the maximum scores F1 0, so it never wins.
    """
    score_vals, label_vals = _as_arrays(scores, labels)
    _require_both_classes(label_vals)
    best, best_theta = -1.0, 0.0
    for theta in np.unique(score_vals):
        tp, fp, fn, _ = confusion(score_vals >= theta, label_vals)
        f1 = _oracle_f1(tp, fp, fn)
        if f1 > best:
            best, best_theta = f1, float(theta)
    return best, best_theta


def point_adjust(pred: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Expand detections to whole ground-truth runs.

    For each maximal contiguous run of label 1, if any prediction inside the
    run is 1, the entire run becomes 1 in the adjusted prediction.
    Predictions outside true runs are unchanged.
    """
    pred = np.asarray(pred).astype(np.int64)
    labels = np.asarray(labels).astype(np.int64)
    if pred.shape != labels.shape:
        raise ShapeError(f"pred and labels lengths differ: {pred.shape} vs {labels.shape}")
    adjusted = pred.copy()
    for start, stop in zip(*_label_runs(labels)):
        if adjusted[start:stop].any():
            adjusted[start:stop] = 1
    return adjusted


def _label_runs(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half-open start and stop indices of each maximal run of 1s."""
    diff = np.diff(np.concatenate([[0], labels, [0]]))
    return np.flatnonzero(diff == 1), np.flatnonzero(diff == -1)


def pa_best_f1(scores: ScoreSeries | np.ndarray, labels: np.ndarray) -> float:
    """Best F1 over the same threshold sweep, scored after point-adjustment.

    Adjustment turns a run into all-TP as soon as its maximal score clears
    the threshold and leaves false positives untouched.  So each run puts its
    length at the sorted position of its maximum, the largest position
    inside the run, and the adjusted TP count at a threshold is the sum of
    those lengths at or above it.
    """
    return _pa_f1(_sweep(scores, labels))


def _pa_f1(sweep: tuple[np.ndarray, ...]) -> float:
    """:func:`pa_best_f1` from the counts and sort of one :func:`_sweep`."""
    _, _, fp, label_vals, order, bounds = sweep
    starts, stops = _label_runs(label_vals)
    position = np.empty_like(order)
    position[order] = np.arange(order.shape[0])
    # -1 outside the runs: each segment from a run start to the next peaks in its run
    run_top = np.maximum.reduceat(np.where(label_vals == 1, position, -1), starts)
    run_weights = np.zeros_like(position)
    run_weights[run_top] = stops - starts
    tp = _at_or_above(run_weights, bounds)
    _, _, f1 = _f1_from_counts(tp, fp, tp[0] - tp)
    return float(f1.max())


def pa_best_f1_bruteforce(
    scores: ScoreSeries | np.ndarray, labels: np.ndarray
) -> float:
    """Independent oracle: point-adjust the predictions at every distinct score."""
    score_vals, label_vals = _as_arrays(scores, labels)
    _require_both_classes(label_vals)
    best = -1.0
    for theta in np.unique(score_vals):
        adjusted = point_adjust(score_vals >= theta, label_vals)
        best = max(best, _oracle_f1(*confusion(adjusted, label_vals)[:3]))
    return best


def auc(scores: ScoreSeries | np.ndarray, labels: np.ndarray) -> float:
    """ROC-AUC as the Mann-Whitney U statistic; tied scores contribute half credit."""
    _, tp, fp, *_ = _sweep(scores, labels)
    return _u_auc(tp, fp)


def _u_auc(tp: np.ndarray, fp: np.ndarray) -> float:
    """U / (P * N) from the counts at or above each threshold.

    Each positive of tie group i beats the N - fp[i] negatives below the
    group and ties with its fp[i] - fp[i + 1], so 2U is an exact integer.
    """
    n_pos, n_neg = int(tp[0]), int(fp[0])
    twice_u = int(((tp[:-1] - tp[1:]) * (2 * n_neg - fp[:-1] - fp[1:])).sum())
    return twice_u / 2 / (n_pos * n_neg)


def auc_trapezoid(scores: ScoreSeries | np.ndarray, labels: np.ndarray) -> float:
    """Independent oracle: trapezoidal integration of the ROC curve."""
    score_vals, label_vals = _as_arrays(scores, labels)
    _require_both_classes(label_vals)
    n_pos = int(label_vals.sum())
    n_neg = label_vals.shape[0] - n_pos
    fpr = [0.0]
    tpr = [0.0]
    for theta in np.unique(score_vals)[::-1]:
        pred = score_vals >= theta
        tp, fp, _, _ = confusion(pred, label_vals)
        fpr.append(fp / n_neg)
        tpr.append(tp / n_pos)
    area = 0.0
    for i in range(1, len(fpr)):
        area += (fpr[i] - fpr[i - 1]) * (tpr[i] + tpr[i - 1]) / 2.0
    return area


def spike_augment(scores: ScoreSeries, interval: int) -> ScoreSeries:
    """Replace every interval-th score with the largest finite value.

    Guarantees at least one detection per run of length >= interval under
    point-adjustment; the spike magnitude stays finite so sorting remains
    well defined.
    """
    if interval < 1:
        raise ShapeError("spike interval must be >= 1")
    values = scores.scores.copy()
    values[::interval] = np.finfo(np.float64).max
    return ScoreSeries(values, scores.kind, scores.time_origin)


def evaluate(
    scores: ScoreSeries | np.ndarray,
    labels: np.ndarray,
    point_adjusted: bool = False,
    spike_interval: int | None = None,
) -> EvalReport:
    """Full report: threshold sweep, AUC, optional point-adjusted variants.

    The best F1, the AUC and the point-adjusted best F1 share one sweep of
    the scores; the spiked scores are another array and get their own.
    """
    sweep = _sweep(scores, labels)
    report = _best_report(sweep)
    if point_adjusted:
        report.pa_best_f1 = _pa_f1(sweep)
    if spike_interval is not None:
        series = scores if isinstance(scores, ScoreSeries) else ScoreSeries(scores)
        spiked = spike_augment(series, spike_interval)
        report.spiked_pa_best_f1 = pa_best_f1(spiked, labels)
    return report
