"""Threshold-sweep evaluation: best F1, point-adjusted best F1, ROC-AUC.

:func:`evaluate` gives all three, with the threshold curve, in one report:
the one ``eval`` writes.  A point is predicted anomalous when its score is
>= the threshold, and the sweep visits every distinct score plus one
sentinel above the maximum (the all-negative prediction), which is
sufficient because the F1 score only changes at observed values.  Ties in
the best F1 are broken toward the smallest threshold.  Scores must be
finite and labels 0 or 1; :func:`confusion` and :func:`point_adjust` check
their inputs the same way.

Every metric comes from the two classes' scores, each sorted once.  The
positives and the negatives at or above a threshold are the counts past its
insertion point into each class.  The AUC is the Mann-Whitney U statistic:
each positive's insertion points into the negatives count the negatives
below it and those tied with it.  The best F1 is searched at the distinct
positive scores only, the point-adjusted F1 likewise once each positive is
scored by its label run's maximum, and the curve that ``eval`` writes adds
one sort of all the scores for its thresholds.  Counts at insertion points
do not depend on the order inside a tie, so the sorts need not be stable; a
tie group holding both ``0.0`` and ``-0.0`` may be named by either sign.

Each metric has a deliberately simple brute-force twin
(``*_bruteforce`` / :func:`auc_trapezoid`) used as an independent oracle in
the test suite.  The fast best F1 and point-adjusted best F1 must match
theirs exactly.  The U-statistic AUC must agree with the trapezoid within
1e-10: the two sum the same area in different orders, so they can differ in
the last bits (3.6e-15 on the preset dataset).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLabels, LabelError, ShapeError
from .series import ScoreSeries, as_scores


@dataclass
class EvalReport:
    """Threshold-sweep results for one score series.

    ``curve`` is an (n, 3) array with columns (threshold, tp, fp), sorted by
    threshold: the positives and the negatives scoring at or above each
    threshold.  With ``positives`` and ``negatives`` (the first row's counts)
    they give the precision, recall and F1 at every threshold.  The CLI
    writes the curve to ``curve.csv`` and :meth:`summary` to
    ``eval_report.json``.
    """

    best_f1: float
    best_threshold: float
    precision: float
    recall: float
    pa_best_f1: float
    auc: float
    positives: int
    negatives: int
    curve: np.ndarray

    def summary(self) -> dict:
        """Every figure but the curve."""
        return {name: value for name, value in vars(self).items() if name != "curve"}


def _as_arrays(
    scores: ScoreSeries | np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    score_vals = as_scores(scores).scores
    label_vals = np.asarray(labels)
    if score_vals.shape != label_vals.shape:
        raise ShapeError(
            f"scores and labels lengths differ: {score_vals.shape} vs {label_vals.shape}"
        )
    if not ((label_vals == 0) | (label_vals == 1)).all():
        raise LabelError("labels must contain only 0 or 1")
    return score_vals, label_vals.astype(np.int64)


def confusion(pred: np.ndarray, labels: np.ndarray) -> tuple[int, int, int, int]:
    """Counts (TP, FP, FN, TN) for predictions (nonzero is positive) against 0/1 labels."""
    pred, labels = _as_arrays(pred, labels)
    pred = pred.astype(bool)
    truth = labels.astype(bool)
    tp = int((pred & truth).sum())
    fp = int((pred & ~truth).sum())
    fn = int((~pred & truth).sum())
    tn = int((~pred & ~truth).sum())
    return tp, fp, fn, tn


def _f1_from_counts(tp: np.ndarray, fp: np.ndarray, fn: np.ndarray):
    """Precision, recall and their harmonic mean; all 0 when TP is 0."""
    tp, fp, fn = (np.asarray(x, dtype=np.float64) for x in (tp, fp, fn))
    pred_pos = tp + fp
    precision = np.divide(tp, pred_pos, out=np.zeros_like(tp), where=pred_pos > 0)
    actual_pos = tp + fn
    recall = np.divide(tp, actual_pos, out=np.zeros_like(tp), where=actual_pos > 0)
    denom = precision + recall
    f1 = np.divide(
        2.0 * precision * recall, denom, out=np.zeros_like(tp), where=denom > 0
    )
    return precision, recall, f1


def _sweep(scores: ScoreSeries | np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, ...]:
    """Validate the inputs, labels of both classes included, and sort each class's scores.

    Returns ``(scores, labels, negatives, positives)``: the scores as
    float64, the labels as int64, and the scores of the label-0 and of the
    label-1 points, each sorted ascending.
    """
    score_vals, label_vals = _as_arrays(scores, labels)
    if label_vals.min() == label_vals.max():
        raise DegenerateLabels("labels must contain at least one 0 and one 1")
    positive = label_vals == 1
    return score_vals, label_vals, np.sort(score_vals[~positive]), np.sort(score_vals[positive])


def _best_at_positives(neg: np.ndarray, pos: np.ndarray) -> tuple[float, float, float, float]:
    """Best F1 and its threshold, precision and recall, from the sorted classes.

    Only the distinct positive scores are tried: a threshold at any other
    score has the TP count of the next positive score above it and at least
    one more FP, so its F1 is strictly lower (or 0 when no positive is
    above).  The first maximum is the smallest threshold that reaches it.
    """
    first = np.flatnonzero(np.concatenate([[True], pos[1:] != pos[:-1]]))
    thresholds = pos[first]
    fp = neg.shape[0] - np.searchsorted(neg, thresholds)
    precision, recall, f1 = _f1_from_counts(pos.shape[0] - first, fp, first)
    best = int(np.argmax(f1))
    return float(f1[best]), float(thresholds[best]), float(precision[best]), float(recall[best])


def _curve(score_vals: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """The (threshold, tp, fp) rows at every distinct score, then a sentinel above the maximum.

    From one sort of all the scores: each tie group's first position counts
    the points below it, and its first position in the sorted positives
    counts the positives below it.
    """
    ordered = np.sort(score_vals)
    n = ordered.shape[0]
    bounds = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1], [True]]))
    top = ordered[-1] + 1.0
    if top == ordered[-1]:  # +1 fell below one ulp of a huge score
        top = np.inf
    thresholds = np.append(ordered[bounds[:-1]], top)
    tp = pos.shape[0] - np.searchsorted(pos, thresholds)
    return np.column_stack([thresholds, tp, (n - bounds) - tp])


def best_f1(scores: ScoreSeries | np.ndarray, labels: np.ndarray) -> EvalReport:
    """Exhaustive threshold sweep: :func:`evaluate`'s report, which holds the maximal F1."""
    return evaluate(scores, labels)


def auc_and_best_f1(scores: ScoreSeries | np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """:func:`best_f1`'s AUC and best F1, without building its curve."""
    _, _, neg, pos = _sweep(scores, labels)
    return _u_auc(neg, pos), _best_at_positives(neg, pos)[0]


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
    score_vals, label_vals, _, _ = _sweep(scores, labels)
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
    Predictions outside true runs are unchanged.  Raises :class:`ShapeError`
    on unequal lengths and :class:`LabelError` on a label other than 0 or 1.
    """
    pred, labels = _as_arrays(pred, labels)
    adjusted = pred.astype(np.int64)
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

    Adjustment predicts every point of a run as soon as the run's maximal
    score clears the threshold and leaves the negatives' predictions alone.
    So the adjusted F1 is the plain F1 with each positive scored by its
    run's maximum, and its best is searched at the distinct run maxima.
    """
    return _pa_f1(_sweep(scores, labels))


def _pa_f1(sweep: tuple[np.ndarray, ...]) -> float:
    """:func:`pa_best_f1` from one :func:`_sweep`."""
    score_vals, label_vals, neg, _ = sweep
    starts, stops = _label_runs(label_vals)
    # -inf outside the runs: each segment from a run start to the next peaks in its run
    run_max = np.maximum.reduceat(np.where(label_vals == 1, score_vals, -np.inf), starts)
    return _best_at_positives(neg, np.sort(np.repeat(run_max, stops - starts)))[0]


def pa_best_f1_bruteforce(
    scores: ScoreSeries | np.ndarray, labels: np.ndarray
) -> float:
    """Independent oracle: point-adjust the predictions at every distinct score."""
    score_vals, label_vals, _, _ = _sweep(scores, labels)
    best = -1.0
    for theta in np.unique(score_vals):
        adjusted = point_adjust(score_vals >= theta, label_vals)
        best = max(best, _oracle_f1(*confusion(adjusted, label_vals)[:3]))
    return best


def auc(scores: ScoreSeries | np.ndarray, labels: np.ndarray) -> float:
    """ROC-AUC as the Mann-Whitney U statistic; tied scores contribute half credit."""
    _, _, neg, pos = _sweep(scores, labels)
    return _u_auc(neg, pos)


def _u_auc(neg: np.ndarray, pos: np.ndarray) -> float:
    """U / (P * N) from the sorted classes.

    Each positive beats the negatives below it and ties with those equal to
    it: the left and right insertion points into the negatives sum to twice
    its credit, so 2U is an exact integer.
    """
    below = np.searchsorted(neg, pos, "left").sum()
    twice_u = int(below + np.searchsorted(neg, pos, "right").sum())
    return twice_u / 2 / (pos.shape[0] * neg.shape[0])


def auc_trapezoid(scores: ScoreSeries | np.ndarray, labels: np.ndarray) -> float:
    """Independent oracle: trapezoidal integration of the ROC curve."""
    score_vals, label_vals, _, _ = _sweep(scores, labels)
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


def evaluate(scores: ScoreSeries | np.ndarray, labels: np.ndarray) -> EvalReport:
    """Full report: the best F1, the point-adjusted best F1, the AUC and the curve.

    All of them come from one :func:`_sweep` of the scores.

    Raises:
        DegenerateLabels: labels are all 0 or all 1.
        LabelError: a label is not 0 or 1.
        ShapeError: the lengths differ or a score is not finite.
    """
    sweep = _sweep(scores, labels)
    score_vals, _, neg, pos = sweep
    f1, threshold, precision, recall = _best_at_positives(neg, pos)
    return EvalReport(
        best_f1=f1,
        best_threshold=threshold,
        precision=precision,
        recall=recall,
        pa_best_f1=_pa_f1(sweep),
        auc=_u_auc(neg, pos),
        positives=pos.shape[0],
        negatives=neg.shape[0],
        curve=_curve(score_vals, pos),
    )
