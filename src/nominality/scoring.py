"""Anomaly score, nominality score, gating, and the induced score.

The induced score at time t sums the gated contributions of all anomaly
scores within an induction window of +-d around t: each contribution A(t; tau)
is A(tau) multiplied by the product of gate values at every index strictly
between tau and t, plus the gate at t itself (the tau = t term is A(t)
unmodified).  Gates are non-increasing in the nominality score, so scores
propagate freely across point-anomalous stretches and are damped or blocked
when they would have to cross normal-looking points.

The optimized evaluation is a doubling scan in O(T log d): the gated sum of
each side of the window is built from blocks of 1, 2, 4, ... offsets that
compose associatively, in the style of the prefix scan of Blelloch,
*Prefix Sums and Their Applications* (CMU-CS-90-190).
``induced_anomaly_score_naive`` keeps the literal double loop as an
independent cross-check.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .config import GATE_KINDS, GateConfig
from .errors import EmptyInput, ShapeError
from .reconstructors import ReconstructionPair
from .series import ScoreSeries

#: Added to the nominality denominator so a perfectly reconstructed point
#: (zero total deviation) yields a finite score.
NOMINALITY_EPSILON = 1e-12


def anomaly_score(pair: ReconstructionPair) -> ScoreSeries:
    """Squared L2 distance between the point reconstruction and the observation."""
    scores = ((pair.xc_hat - pair.observed) ** 2).sum(axis=1)
    return ScoreSeries(scores, kind="anomaly", time_origin=pair.valid_range[0])


def sequence_anomaly_score(pair: ReconstructionPair) -> ScoreSeries:
    """Squared L2 distance between the sequence reconstruction and the observation."""
    scores = ((pair.xstar_hat - pair.observed) ** 2).sum(axis=1)
    return ScoreSeries(scores, kind="anomaly", time_origin=pair.valid_range[0])


def nominality_score(
    pair: ReconstructionPair, epsilon: float = NOMINALITY_EPSILON
) -> ScoreSeries:
    """Ratio of squared norms estimating how normal each time point is.

    The numerator distance (point vs sequence reconstruction) estimates the
    in-distribution part of the deviation; the denominator (observation vs
    sequence reconstruction) estimates the total deviation.  ``epsilon``
    guards the zero denominator.
    """
    num = ((pair.xc_hat - pair.xstar_hat) ** 2).sum(axis=1)
    den = ((pair.observed - pair.xstar_hat) ** 2).sum(axis=1) + epsilon
    return ScoreSeries(num / den, kind="nominality", time_origin=pair.valid_range[0])


def gate(kind: str, theta_n: float, n):
    """Gate value in [0, 1], non-increasing in the nominality score ``n``.

    soft: max(0, 1 - n / theta_n); hard: 1 if n < theta_n else 0 (strict).
    Accepts scalars or arrays.
    """
    if kind not in GATE_KINDS:
        raise ShapeError(f"gate kind must be one of {GATE_KINDS}, got {kind!r}")
    if not theta_n > 0:
        raise ShapeError("theta_n must be > 0")
    n = np.asarray(n, dtype=np.float64)
    if kind == "soft":
        out = np.maximum(0.0, 1.0 - n / theta_n)
    else:
        out = (n < theta_n).astype(np.float64)
    return out if out.ndim else float(out)


def theta_from_percentile(train_nominality: ScoreSeries | np.ndarray, p: float) -> float:
    """Nearest-rank percentile of the training nominality scores.

    Returns the smallest observed value such that at least p% of the
    samples are <= it.
    """
    values = _scores_of(train_nominality)
    if values.size == 0:
        raise EmptyInput("cannot take a percentile of an empty score series")
    if not 0 < p <= 100:
        raise ShapeError("percentile must be in (0, 100]")
    ordered = np.sort(values)
    rank = int(np.ceil(p / 100.0 * ordered.size))
    return float(ordered[max(rank, 1) - 1])


def resolve_theta(
    cfg: GateConfig, train_nominality: ScoreSeries | np.ndarray
) -> GateConfig:
    """Turn a percentile-based gate config into one with an explicit threshold."""
    if cfg.theta_n is not None:
        return cfg
    theta = theta_from_percentile(train_nominality, cfg.theta_percentile)
    return replace(cfg, theta_n=theta, theta_percentile=None)


def _scores_of(series: ScoreSeries | np.ndarray) -> np.ndarray:
    if isinstance(series, ScoreSeries):
        return series.scores
    return np.asarray(series, dtype=np.float64)


def _shifted(x: np.ndarray, k: int) -> np.ndarray:
    """``x`` moved k places toward higher indices, zero-filled at the start."""
    out = np.zeros_like(x)
    out[k:] = x[: x.shape[0] - k]
    return out


def _left_sum(a: np.ndarray, g: np.ndarray, d: int) -> np.ndarray:
    """Gated sum of the d left neighbours: sum over j in 1..d of a[t-j] * prod g(t-j, t].

    A block (P, S) of m offsets ending at t holds P[t], the product of g over
    (t-m, t], and S[t], the gated sum of a over [t-m, t).  A block ending at t
    followed by an older one ending at t-m composes as
    (P, S) o (P', S') = (P * P', S + P * S'), so blocks of 1, 2, 4, ...
    offsets come from doubling, and the binary digits of d select the ones
    summed.  Neighbours before index 0 are zeros.  Where g[t] = 0 every P[t]
    and S[t] is exactly 0.
    """
    span_p, span_s = g, _shifted(a, 1) * g  # blocks of span = 1 offset
    acc_p = acc_s = None  # the selected blocks so far, covering acc_len offsets
    acc_len, span = 0, 1
    while span <= d:
        if d & span:
            if acc_s is None:
                acc_p, acc_s = span_p, span_s
            else:
                acc_s = acc_s + acc_p * _shifted(span_s, acc_len)
                acc_p = acc_p * _shifted(span_p, acc_len)
            acc_len += span
        if 2 * span <= d:  # double the block for the next binary digit
            span_s = span_s + span_p * _shifted(span_s, span)
            span_p = span_p * _shifted(span_p, span)
        span *= 2
    return np.zeros_like(a) if acc_s is None else acc_s


def _induction_sum(a: np.ndarray, g: np.ndarray, d: int) -> np.ndarray:
    """a[t] plus the gated sums of its d left and d right neighbours.

    The left sum at t weights a[t-j] by the product of g over (t-j, t]; the
    right sum weights a[t+j] by the product over [t, t+j), which is the left
    sum of the reversed arrays, reversed.  Both come from the doubling scan
    in :func:`_left_sum`, with d clipped to n - 1.  Where g[t] = 0 both sums
    are exactly 0, so the result is a[t] bit for bit.
    """
    d = min(d, a.shape[0] - 1)
    left = _left_sum(a, g, d)
    right = _left_sum(a[::-1], g[::-1], d)[::-1]
    return a + left + right


def _gated(
    a: ScoreSeries | np.ndarray, n: ScoreSeries | np.ndarray, cfg: GateConfig
) -> tuple[np.ndarray, np.ndarray, int]:
    """The anomaly scores, their gate values and their time origin, checked."""
    a_vals = _scores_of(a)
    n_vals = _scores_of(n)
    if a_vals.shape != n_vals.shape:
        raise ShapeError(
            f"anomaly and nominality lengths differ: {a_vals.shape} vs {n_vals.shape}"
        )
    if cfg.theta_n is None:
        raise ShapeError("gate threshold is unresolved; call resolve_theta first")
    origin = a.time_origin if isinstance(a, ScoreSeries) else 0
    return a_vals, gate(cfg.kind, cfg.theta_n, n_vals), origin


def induced_anomaly_score(
    a: ScoreSeries | np.ndarray,
    n: ScoreSeries | np.ndarray,
    cfg: GateConfig,
) -> ScoreSeries:
    """Sum gated anomaly-score contributions over a +-d window around each point."""
    a_vals, g, origin = _gated(a, n, cfg)
    return ScoreSeries(_induction_sum(a_vals, g, cfg.d), "induced", origin)


def induced_anomaly_score_naive(
    a: ScoreSeries | np.ndarray,
    n: ScoreSeries | np.ndarray,
    cfg: GateConfig,
) -> ScoreSeries:
    """Literal double-loop evaluation of the induced score.

    Kept deliberately transparent as the independent cross-check for the
    optimized version; quadratic in d, so only suitable for short series.
    """
    a_vals, g, origin = _gated(a, n, cfg)
    size = a_vals.shape[0]
    out = np.zeros(size)
    for t in range(size):
        total = 0.0
        for tau in range(max(0, t - cfg.d), min(size - 1, t + cfg.d) + 1):
            term = a_vals[tau]
            if tau < t:
                for k in range(tau + 1, t + 1):
                    term *= g[k]
            elif tau > t:
                for k in range(t, tau):
                    term *= g[k]
            total += term
        out[t] = total
    return ScoreSeries(out, "induced", origin)


def smoothed_score(a: ScoreSeries | np.ndarray, d: int) -> ScoreSeries:
    """Unnormalized moving sum of the anomaly score over [t-d, t+d].

    Equivalent to the induced score with a hard gate whose threshold exceeds
    every nominality value (all gates open); it shares the accumulation
    kernel so the equivalence is exact.
    """
    if d < 0:
        raise ShapeError("smoothing radius d must be >= 0")
    a_vals = _scores_of(a)
    origin = a.time_origin if isinstance(a, ScoreSeries) else 0
    ones = np.ones_like(a_vals)
    return ScoreSeries(_induction_sum(a_vals, ones, d), "induced", origin)
