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

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np

from .config import GateConfig, _check
from .errors import EmptyInput, ShapeError
from .reconstructors import ReconstructionPair
from .series import ScoreSeries, as_scores

#: Added to the nominality denominator so a perfectly reconstructed point
#: (zero total deviation) yields a finite score.
NOMINALITY_EPSILON = 1e-12


def anomaly_score(pair: ReconstructionPair) -> ScoreSeries:
    """Squared L2 distance between the point reconstruction and the observation."""
    scores = ((pair.xc_hat - pair.observed) ** 2).sum(axis=1)
    return ScoreSeries(scores, pair.valid_range[0])


def sequence_anomaly_score(pair: ReconstructionPair) -> ScoreSeries:
    """Squared L2 distance between the sequence reconstruction and the observation."""
    scores = ((pair.xstar_hat - pair.observed) ** 2).sum(axis=1)
    return ScoreSeries(scores, pair.valid_range[0])


def nominality_score(pair: ReconstructionPair) -> ScoreSeries:
    """Ratio of squared norms estimating how normal each time point is.

    The numerator distance (point vs sequence reconstruction) estimates the
    in-distribution part of the deviation; the denominator (observation vs
    sequence reconstruction) estimates the total deviation.
    :data:`NOMINALITY_EPSILON` guards the zero denominator.
    """
    num = ((pair.xc_hat - pair.xstar_hat) ** 2).sum(axis=1)
    den = ((pair.observed - pair.xstar_hat) ** 2).sum(axis=1) + NOMINALITY_EPSILON
    return ScoreSeries(num / den, pair.valid_range[0])


def gate(kind: str, theta_n: float, n):
    """Gate value in [0, 1], non-increasing in the nominality score ``n``.

    soft: max(0, 1 - n / theta_n); hard: 1 if n < theta_n else 0 (strict).
    Returns float64 shaped like ``n``: an array, or a numpy float64 for a
    scalar.  A ``kind`` or ``theta_n`` that breaks its ``gate`` rule raises
    :class:`ConfigError` naming the key.  Where ``n / theta_n`` overflows, as
    at a tiny ``theta_n``, the soft gate is exactly 0, without a warning.
    """
    GateConfig(kind, theta_n=theta_n)
    n = np.asarray(n, dtype=np.float64)
    if kind == "soft":
        with np.errstate(over="ignore"):
            return np.maximum(0.0, 1.0 - n / theta_n)
    return (n < theta_n).astype(np.float64)


def theta_from_percentile(train_nominality: ScoreSeries | np.ndarray, p: float) -> float:
    """Nearest-rank percentile of the training nominality scores.

    Returns the smallest observed value such that at least p% of the
    samples are <= it.  ``p`` follows the ``gate.theta_percentile`` rule.
    The rank is exact for ``p`` as written in decimal (``0.07 * 100`` is not 7).
    A score that is not finite raises :class:`ShapeError`.
    """
    GateConfig(theta_percentile=p)
    ordered = np.sort(as_scores(train_nominality).scores)
    if ordered.size == 0:
        raise EmptyInput("cannot take a percentile of an empty score series")
    rank = math.ceil(Fraction(repr(float(p))) * ordered.size / 100)
    return float(ordered[max(rank, 1) - 1])


def resolve_theta(
    cfg: GateConfig, train_nominality: ScoreSeries | np.ndarray
) -> GateConfig:
    """Turn a percentile-based gate config into one with an explicit threshold."""
    if cfg.theta_n is not None:
        return cfg
    theta = theta_from_percentile(train_nominality, cfg.theta_percentile)
    return replace(cfg, theta_n=theta, theta_percentile=None)


def _shifted(x: np.ndarray, k: int) -> np.ndarray:
    """``x`` moved k places toward higher indices, zero-filled at the start."""
    out = np.zeros_like(x)
    out[k:] = x[: x.shape[0] - k]
    return out


def _doubling_blocks(a: np.ndarray, g: np.ndarray, d: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (P, S) blocks of 1, 2, 4, ... offsets, up to the largest span <= d.

    A block (P, S) of m offsets ending at t holds P[t], the product of g over
    (t-m, t], and S[t], the gated sum of a over [t-m, t).  A block ending at t
    followed by an older one ending at t-m composes as
    (P, S) o (P', S') = (P * P', S + P * S'), so each block is the previous
    one composed with itself.  Neighbours before index 0 are zeros.
    """
    blocks = [(g, _shifted(a, 1) * g)]
    span = 1
    while 2 * span <= d:
        span_p, span_s = blocks[-1]
        blocks.append((span_p * _shifted(span_p, span), span_s + span_p * _shifted(span_s, span)))
        span *= 2
    return blocks


def _left_sum(blocks: list[tuple[np.ndarray, np.ndarray]], d: int) -> np.ndarray:
    """Gated sum of the d left neighbours: sum over j in 1..d of a[t-j] * prod g(t-j, t].

    The binary digits of d select the blocks of :func:`_doubling_blocks`
    (built for at least d), composed from the shortest up.  Where g[t] = 0
    the sum is exactly 0.
    """
    acc_p = acc_s = None  # the selected blocks so far, covering acc_len offsets
    acc_len = 0
    for k, (span_p, span_s) in enumerate(blocks):
        span = 1 << k
        if not d & span:
            continue
        if acc_s is None:
            acc_p, acc_s = span_p, span_s
        else:
            acc_s = acc_s + acc_p * _shifted(span_s, acc_len)
            if d >> (k + 1):  # a longer block follows
                acc_p = acc_p * _shifted(span_p, acc_len)
        acc_len += span
    return np.zeros_like(blocks[0][1]) if acc_s is None else acc_s


@np.errstate(over="ignore", invalid="ignore")
def induction_sums(a: np.ndarray, g: np.ndarray, d_values) -> list[np.ndarray]:
    """a[t] plus the gated sums of its d left and d right neighbours, for each d.

    ``g`` holds the gate values of ``a``'s points (see :func:`gate`; all ones
    give the moving sum).  The left sum at t weights a[t-j] by the product of
    g over (t-j, t]; the right sum weights a[t+j] by the product over
    [t, t+j), which is the left sum of the reversed arrays, reversed.  Each d
    is clipped to n - 1.  The doubling blocks of each side are built once,
    for the largest d, and shared by all, and each d composes them in the
    order a scan for that d alone would, so its sums keep their bits.  Where
    g[t] = 0 both sums are exactly 0, so the result is a[t] bit for bit.  A sum
    that overflows is left non-finite, without a warning, for a ScoreSeries to refuse.
    """
    ds = [min(d, a.shape[0] - 1) for d in d_values]
    left = _doubling_blocks(a, g, max(ds))
    right = _doubling_blocks(a[::-1], g[::-1], max(ds))
    return [a + _left_sum(left, d) + _left_sum(right, d)[::-1] for d in ds]


def _gated(
    a: ScoreSeries | np.ndarray, n: ScoreSeries | np.ndarray, cfg: GateConfig
) -> tuple[ScoreSeries, np.ndarray]:
    """The anomaly scores and their gate values, checked."""
    a, n = as_scores(a), as_scores(n)
    if len(a) != len(n):
        raise ShapeError(f"anomaly and nominality lengths differ: {len(a)} vs {len(n)}")
    if cfg.theta_n is None:
        raise ShapeError("gate threshold is unresolved; call resolve_theta first")
    return a, gate(cfg.kind, cfg.theta_n, n.scores)


def induced_anomaly_score(
    a: ScoreSeries | np.ndarray,
    n: ScoreSeries | np.ndarray,
    cfg: GateConfig,
) -> ScoreSeries:
    """Sum gated anomaly-score contributions over a +-d window around each point.

    Inputs and sums must be finite, else :class:`~.errors.NonFiniteValue` names the row.
    """
    a, g = _gated(a, n, cfg)
    return ScoreSeries(induction_sums(a.scores, g, (cfg.d,))[0], a.time_origin)


def induced_anomaly_score_naive(
    a: ScoreSeries | np.ndarray,
    n: ScoreSeries | np.ndarray,
    cfg: GateConfig,
) -> ScoreSeries:
    """Literal double-loop evaluation of the induced score.

    Kept deliberately transparent as the independent cross-check for the
    optimized version; quadratic in d, so only suitable for short series.
    """
    a, g = _gated(a, n, cfg)
    a_vals, size = a.scores, len(a)
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
    return ScoreSeries(out, a.time_origin)


def smoothed_score(a: ScoreSeries | np.ndarray, d: int) -> ScoreSeries:
    """Unnormalized moving sum of the anomaly score over [t-d, t+d].

    Equivalent to the induced score with a hard gate whose threshold exceeds
    every nominality value (all gates open); it shares the accumulation
    kernel so the equivalence is exact, finiteness checks included.  ``d``
    follows the ``gate.d`` rule.
    """
    _check("gate", GateConfig, {"d": d})
    a = as_scores(a)
    return ScoreSeries(induction_sums(a.scores, np.ones(len(a)), (d,))[0], a.time_origin)
