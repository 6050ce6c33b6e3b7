"""Seeded synthetic data: the trigonometric dataset every command runs on.

``gen_trig`` builds a multichannel trigonometric dataset with an
anomaly-free training split and a test split containing configured
point-noise, frequency-shift, and amplitude-shift segments;
``trig_preset`` is the default one.
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
