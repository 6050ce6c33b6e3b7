"""Seeded synthetic data: the trigonometric dataset every command runs on.

``gen_trig`` builds a multichannel trigonometric dataset with an
anomaly-free training split and a test split containing configured
point-noise, frequency-shift, and amplitude-shift segments.  Its spec,
:class:`~nominality.config.TrigSpec`, is the schema of the ``synth.options``
config key, so it lives in :mod:`nominality.config` with ``trig_preset``,
the default one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import TrigSpec
from .series import LabeledSeries

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class TrigResult:
    """Anomaly-free training split, labeled test split, and the achieved rate."""

    train: LabeledSeries
    test: LabeledSeries
    anomaly_rate: float


def gen_trig(spec: TrigSpec) -> TrigResult:
    """Simulate the waveform over train + test and inject test anomalies.

    Channel j is sin(2 pi f_j t + p_j), f_j = 0.008 + 0.004 j and p_j = 2 pi phi j
    (mod 2 pi), phi the golden ratio, plus normal noise of sigma 0.02.  The time base t
    advances by 1 per row and by 0.45 in a frequency-shift segment; an amplitude-shift
    scales the waveform by 1.75 before the noise, and point-noise adds +-1 after it.
    """
    rng = np.random.default_rng(spec.seed)
    total = spec.n_train + spec.n_test
    channels = np.arange(spec.n_channels)
    freqs = 0.008 + 0.004 * channels
    phases = (2.0 * math.pi * _GOLDEN * channels) % (2.0 * math.pi)

    # Labels and the common time base; frequency-shift segments advance it more slowly.
    rate, labels = np.ones(total), np.zeros(total, dtype=np.int64)
    for start, end, kind in spec.segments:
        labels[spec.n_train + start : spec.n_train + end] = 1
        if kind == "frequency-shift":
            rate[spec.n_train + start : spec.n_train + end] = 0.45
    timebase = np.concatenate([[0.0], np.cumsum(rate)[:-1]])

    values = np.sin(2.0 * math.pi * timebase[:, None] * freqs[None, :] + phases[None, :])
    for start, end, kind in spec.segments:
        if kind == "amplitude-shift":
            values[spec.n_train + start : spec.n_train + end] *= 1.75
    values += rng.normal(0.0, 0.02, values.shape)
    for start, end, kind in spec.segments:
        if kind == "point-noise":
            rows = slice(spec.n_train + start, spec.n_train + end)
            values[rows] += rng.choice([-1.0, 1.0], size=(end - start, spec.n_channels))

    train = LabeledSeries(values[: spec.n_train], labels[: spec.n_train])
    test = LabeledSeries(values[spec.n_train :], labels[spec.n_train :])
    return TrigResult(train, test, float(test.labels.mean()))
