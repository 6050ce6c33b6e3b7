"""Seeded synthetic generators.

Three generators cover the constructions the scoring theory is built on:

* ``gen_toy`` draws isotropic Gaussian deviation pairs whose nominality
  ratios concentrate below the normal population's when the out-of-
  distribution noise is inflated, making appropriateness checkable.
* ``gen_sensor`` simulates a 2-D circular-motion sensor with an angular
  slowdown (contextual anomalies) and injected measurement noise (point
  anomalies when the reading leaves the nominal annulus).
* ``gen_trig`` builds a multichannel trigonometric dataset with an
  anomaly-free training split and a test split containing configured
  point-noise, frequency-shift, and amplitude-shift segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SpecError
from .series import LabeledSeries

SEGMENT_KINDS = ("point-noise", "frequency-shift", "amplitude-shift")

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


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
            raise SpecError("n_channels must be >= 1")
        if not self.alpha > 0:
            raise SpecError("alpha must be > 0")
        if self.n_normal < 1 or self.n_anomaly < 1:
            raise SpecError("sample counts must be >= 1")


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
    (the denominator is almost surely nonzero).  With t = 1 - (1 + alpha^2) N
    and s = sqrt(t^2 + 4 alpha^2 N), r_alpha(N) = (s - t) / (s + t) is
    exactly F(D, D); the median of (1 + alpha^2) N is exactly 1.
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


@dataclass(frozen=True)
class SensorSpec:
    """2-D circular-motion sensor with a slowdown interval and noise points.

    ``slowdown`` is an inclusive (t1, t2) index interval; t1 > t2 disables
    it.  ``noise_points`` lists (t, w_x, w_y) measurement offsets.  The
    nominal annulus is radius_min <= r <= radius_max.
    """

    omega: float
    omega_slow: float
    radius: float
    radius_min: float
    radius_max: float
    n_times: int
    slowdown: tuple[int, int] | None = None
    noise_points: tuple[tuple[int, float, float], ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.radius_min <= self.radius <= self.radius_max:
            raise SpecError("radius must lie within [radius_min, radius_max]")
        if self.n_times < 1:
            raise SpecError("n_times must be >= 1")
        if self.slowdown is not None:
            t1, t2 = self.slowdown
            if t1 <= t2 and not (0 <= t1 and t2 < self.n_times):
                raise SpecError(f"slowdown interval {self.slowdown} out of range")
        for t, _, _ in self.noise_points:
            if not 0 <= t < self.n_times:
                raise SpecError(f"noise point index {t} out of range")


@dataclass(frozen=True)
class SensorResult:
    """Observed sensor series plus its exact deviation decomposition.

    ``tags`` holds one of "normal", "point-anomaly", "contextual-anomaly",
    "both" per time point; noise landing inside the annulus counts as
    contextual because no single observation can reveal it.
    """

    series: LabeledSeries
    tags: tuple[str, ...]
    nominal: np.ndarray
    context_dev: np.ndarray
    point_dev: np.ndarray


def gen_sensor(spec: SensorSpec) -> SensorResult:
    """Simulate the sensor and tag each time point by its deviation type."""
    t = np.arange(spec.n_times, dtype=np.float64)
    nominal = spec.radius * np.column_stack([np.cos(spec.omega * t), np.sin(spec.omega * t)])

    context_dev = np.zeros_like(nominal)
    slow_active = np.zeros(spec.n_times, dtype=bool)
    if spec.slowdown is not None:
        t1, t2 = spec.slowdown
        if t1 <= t2:
            slow_active[t1 : t2 + 1] = True
            ts = t[slow_active]
            context_dev[slow_active, 0] = spec.radius * (
                np.cos(spec.omega_slow * ts) - np.cos(spec.omega * ts)
            )
            context_dev[slow_active, 1] = spec.radius * (
                np.sin(spec.omega_slow * ts) - np.sin(spec.omega * ts)
            )

    point_dev = np.zeros_like(nominal)
    noisy = np.zeros(spec.n_times, dtype=bool)
    for idx, w_x, w_y in spec.noise_points:
        point_dev[idx, 0] += w_x
        point_dev[idx, 1] += w_y
        if w_x != 0.0 or w_y != 0.0:
            noisy[idx] = True

    observed = nominal + context_dev + point_dev
    radii = np.sqrt((observed**2).sum(axis=1))
    inside = (radii >= spec.radius_min) & (radii <= spec.radius_max)

    contextual = slow_active | (noisy & inside)
    point = noisy & ~inside
    labels = (contextual | point).astype(np.int64)
    tags = []
    for is_ctx, is_pt in zip(contextual, point):
        if is_ctx and is_pt:
            tags.append("both")
        elif is_pt:
            tags.append("point-anomaly")
        elif is_ctx:
            tags.append("contextual-anomaly")
        else:
            tags.append("normal")

    series = LabeledSeries(observed, labels, ("x", "y"))
    return SensorResult(series, tuple(tags), nominal, context_dev, point_dev)


@dataclass(frozen=True)
class TrigSpec:
    """Multichannel trigonometric dataset with injected test anomalies.

    Segments are half-open (start, end, kind) intervals in test-split
    coordinates and must not overlap.  A frequency-shift slows the common
    time base by ``freq_shift_factor`` (phase stays continuous, so each
    reading remains a possible nominal value); an amplitude-shift scales the
    waveform; point-noise adds +-``point_noise_scale`` offsets per channel.
    """

    n_channels: int
    n_train: int
    n_test: int
    segments: tuple[tuple[int, int, str], ...] = ()
    frequencies: tuple[float, ...] | None = None
    phases: tuple[float, ...] | None = None
    noise_sigma: float = 0.02
    freq_shift_factor: float = 0.45
    amp_shift_factor: float = 1.75
    point_noise_scale: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_channels < 1:
            raise SpecError("n_channels must be >= 1")
        if self.n_train < 1 or self.n_test < 1:
            raise SpecError("split lengths must be >= 1")
        if self.noise_sigma < 0:
            raise SpecError("noise_sigma must be >= 0")
        spans = []
        for start, end, kind in self.segments:
            if kind not in SEGMENT_KINDS:
                raise SpecError(f"unknown segment kind {kind!r}")
            if not (0 <= start < end <= self.n_test):
                raise SpecError(f"segment ({start}, {end}) outside the test split")
            spans.append((start, end))
        spans.sort()
        for (_, prev_end), (next_start, _) in zip(spans, spans[1:]):
            if next_start < prev_end:
                raise SpecError("segments must not overlap")
        for name in ("frequencies", "phases"):
            seq = getattr(self, name)
            if seq is not None and len(seq) != self.n_channels:
                raise SpecError(f"{name} must list one value per channel")

    def channel_frequencies(self) -> np.ndarray:
        if self.frequencies is not None:
            return np.asarray(self.frequencies, dtype=np.float64)
        return 0.008 + 0.004 * np.arange(self.n_channels)

    def channel_phases(self) -> np.ndarray:
        if self.phases is not None:
            return np.asarray(self.phases, dtype=np.float64)
        return (2.0 * math.pi * _GOLDEN * np.arange(self.n_channels)) % (2.0 * math.pi)


@dataclass(frozen=True)
class TrigResult:
    """Anomaly-free training split, labeled test split, and the achieved rate."""

    train: LabeledSeries
    test: LabeledSeries
    anomaly_rate: float


def gen_trig(spec: TrigSpec) -> TrigResult:
    """Simulate the waveform over train + test and inject test anomalies."""
    rng = np.random.default_rng(spec.seed)
    total = spec.n_train + spec.n_test
    freqs = spec.channel_frequencies()
    phases = spec.channel_phases()

    # Common time base; frequency-shift segments advance it more slowly.
    rate = np.ones(total)
    for start, end, kind in spec.segments:
        if kind == "frequency-shift":
            rate[spec.n_train + start : spec.n_train + end] = spec.freq_shift_factor
    timebase = np.concatenate([[0.0], np.cumsum(rate)[:-1]])

    values = np.sin(2.0 * math.pi * timebase[:, None] * freqs[None, :] + phases[None, :])
    for start, end, kind in spec.segments:
        if kind == "amplitude-shift":
            values[spec.n_train + start : spec.n_train + end] *= spec.amp_shift_factor
    values += rng.normal(0.0, spec.noise_sigma, values.shape)
    for start, end, kind in spec.segments:
        if kind == "point-noise":
            rows = slice(spec.n_train + start, spec.n_train + end)
            signs = rng.choice([-1.0, 1.0], size=(end - start, spec.n_channels))
            values[rows] += spec.point_noise_scale * signs

    labels = np.zeros(total, dtype=np.int64)
    for start, end, _ in spec.segments:
        labels[spec.n_train + start : spec.n_train + end] = 1

    names = tuple(f"c{j}" for j in range(spec.n_channels))
    train = LabeledSeries(values[: spec.n_train], labels[: spec.n_train], names)
    test = LabeledSeries(values[spec.n_train :], labels[spec.n_train :], names)
    return TrigResult(train, test, float(test.labels.mean()))


def trig_preset(seed: int = 0) -> TrigSpec:
    """Default dataset: one frequency-shift segment plus scattered point noise.

    Sized so the test split holds 180 anomalous points out of 7680 (rate
    2.34375%): a 150-point contextual segment and 30 isolated point
    anomalies.  Point positions are drawn from the seed with a minimum gap
    so each stays a run of length one.
    """
    n_test = 7680
    seg_start, seg_end = 3000, 3150
    rng = np.random.default_rng(seed + 971)
    positions: list[int] = []
    taken = set(range(seg_start - 60, seg_end + 60))
    while len(positions) < 30:
        cand = int(rng.integers(60, n_test - 60))
        if cand in taken:
            continue
        positions.append(cand)
        taken.update(range(cand - 2, cand + 3))
    segments = [(seg_start, seg_end, "frequency-shift")]
    segments.extend((p, p + 1, "point-noise") for p in sorted(positions))
    return TrigSpec(
        n_channels=8,
        n_train=10_000,
        n_test=n_test,
        segments=tuple(segments),
        noise_sigma=0.02,
        freq_shift_factor=0.45,
        amp_shift_factor=1.75,
        point_noise_scale=1.0,
        seed=seed,
    )
