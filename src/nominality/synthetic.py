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


@np.errstate(over="ignore", invalid="ignore")
def gen_trig(spec: TrigSpec) -> TrigResult:
    """Simulate the waveform over train + test and inject test anomalies.

    Channel j defaults to frequency 0.008 + 0.004 j and phase 2 pi phi j
    (mod 2 pi), phi the golden ratio.  Overflow raises, not warns.
    """
    rng = np.random.default_rng(spec.seed)
    total = spec.n_train + spec.n_test
    channels = np.arange(spec.n_channels)
    freqs = (0.008 + 0.004 * channels if spec.frequencies is None
             else np.asarray(spec.frequencies, dtype=np.float64))
    phases = ((2.0 * math.pi * _GOLDEN * channels) % (2.0 * math.pi) if spec.phases is None
              else np.asarray(spec.phases, dtype=np.float64))

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

    train = LabeledSeries(values[: spec.n_train], labels[: spec.n_train])
    test = LabeledSeries(values[spec.n_train :], labels[spec.n_train :])
    return TrigResult(train, test, float(test.labels.mean()))
