"""The toy dataset and the exact law of its nominality ratio.

``gen_toy`` draws isotropic Gaussian deviation pairs whose nominality
ratios concentrate below the normal population's when the out-of-
distribution noise is inflated, making appropriateness checkable.  It
draws N = |c|^2 / |c + p|^2 with c ~ N(0, I_D) and
p = alpha * z, z ~ N(0, I_D).  The event N <= x is

    sum_j [(1 - x) c_j^2 - 2 alpha x c_j z_j - alpha^2 x z_j^2] <= 0.

Each coordinate's 2x2 form [[1 - x, -alpha x], [-alpha x, -alpha^2 x]] has
trace t = 1 - (1 + alpha^2) x and determinant -alpha^2 x < 0, so one
eigenvalue l+ = (t + s) / 2 is positive and one l- = (t - s) / 2 is
negative, with s = sqrt(t^2 + 4 alpha^2 x).  Rotating each (c_j, z_j) pair
into the eigenbasis keeps it standard normal, so

    P(N <= x) = P(chi2_D / chi2'_D <= -l- / l+) = F_{D,D}(r_alpha(x)),
    r_alpha(x) = (s - t) / (s + t).

Hence r_alpha(N) is exactly F(D, D)-distributed.  r_alpha(1 / (1 + alpha^2))
is 1, so the median of (1 + alpha^2) N is exactly 1, while the linear map
(1 + alpha^2) N matches F(D, D) only approximately.

The F(D, D) reference is sample based (a ratio of normalized sums of squared
normals is an exact F(D, D) draw), so the distribution checks use a
two-sample Kolmogorov-Smirnov statistic with critical values from the
asymptotic Kolmogorov series.
"""

import math
from dataclasses import dataclass

import numpy as np


class ToySpecError(ValueError):
    """A toy-dataset or distribution-check argument is out of range."""


@dataclass(frozen=True)
class ToySpec:
    """Gaussian deviation-pair dataset: anomalies get alpha-inflated noise."""

    n_channels: int
    alpha: float
    n_normal: int
    n_anomaly: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_channels < 1:
            raise ToySpecError("n_channels must be >= 1")
        if not self.alpha > 0:
            raise ToySpecError("alpha must be > 0")
        if self.n_normal < 1 or self.n_anomaly < 1:
            raise ToySpecError("sample counts must be >= 1")


@dataclass(frozen=True)
class ToyResult:
    """Per-sample deviations, labels, and exact nominality ratios."""

    context_dev: np.ndarray
    point_dev: np.ndarray
    labels: np.ndarray
    nominality: np.ndarray

    @property
    def normal_nominality(self) -> np.ndarray:
        return self.nominality[self.labels == 0]

    @property
    def anomaly_nominality(self) -> np.ndarray:
        return self.nominality[self.labels == 1]


def gen_toy(spec: ToySpec) -> ToyResult:
    """Draw deviation pairs and return their exact nominality ratios.

    Normal samples use unit-variance in-distribution and out-of-distribution
    deviations; anomaly samples scale the out-of-distribution part by alpha.
    The nominality ratio is |ctx|^2 / |ctx + pt|^2 with no epsilon guard
    (the denominator is almost surely nonzero).
    """
    rng = np.random.default_rng(spec.seed)
    n_total = spec.n_normal + spec.n_anomaly
    ctx = rng.standard_normal((n_total, spec.n_channels))
    pt = rng.standard_normal((n_total, spec.n_channels))
    pt[spec.n_normal :] *= spec.alpha
    labels = np.zeros(n_total, dtype=np.int64)
    labels[spec.n_normal :] = 1
    nominality = (ctx**2).sum(axis=1) / ((ctx + pt) ** 2).sum(axis=1)
    return ToyResult(ctx, pt, labels, nominality)


def toy_f_variate(nominality, alpha):
    """Map toy nominality ratios to their exactly F(D, D)-distributed image."""
    x = np.asarray(nominality, dtype=np.float64)
    t = 1.0 - (1.0 + alpha**2) * x
    s = np.sqrt(t * t + 4.0 * alpha**2 * x)
    return (s - t) / (s + t)


def f_reference_sample(n_channels: int, count: int, seed: int) -> np.ndarray:
    """Exact F(D, D) draws as ratios of normalized sums of squared normals."""
    if n_channels < 1 or count < 1:
        raise ToySpecError("n_channels and count must be >= 1")
    rng = np.random.default_rng(seed)
    out = np.empty(count)
    chunk = max(1, 10_000_000 // max(n_channels, 1))
    for lo in range(0, count, chunk):
        hi = min(lo + chunk, count)
        num = (rng.standard_normal((hi - lo, n_channels)) ** 2).sum(axis=1)
        den = (rng.standard_normal((hi - lo, n_channels)) ** 2).sum(axis=1)
        out[lo:hi] = num / den
    return out


def ks_statistic(sample_a: np.ndarray, sample_b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic (sup distance between ECDFs)."""
    a = np.sort(np.asarray(sample_a, dtype=np.float64))
    b = np.sort(np.asarray(sample_b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ToySpecError("KS statistic requires non-empty samples")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def kolmogorov_sf(x: float, terms: int = 100) -> float:
    """Survival function of the asymptotic Kolmogorov distribution.

    Alternating series truncated at ``terms`` terms; accurate far beyond
    the tolerances used here for any x of interest.
    """
    if x <= 0:
        return 1.0
    total = 0.0
    for k in range(1, terms + 1):
        total += (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * x * x)
    return min(1.0, max(0.0, 2.0 * total))


def ks_critical_value(n: int, m: int, alpha: float, terms: int = 100) -> float:
    """Two-sample KS rejection threshold at significance ``alpha``.

    Inverts the asymptotic survival function by bisection and scales by
    sqrt((n + m) / (n * m)).
    """
    if not 0 < alpha < 1:
        raise ToySpecError("alpha must be in (0, 1)")
    lo, hi = 1e-9, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if kolmogorov_sf(mid, terms) > alpha:
            lo = mid
        else:
            hi = mid
    return hi * math.sqrt((n + m) / (n * m))
