"""The benchmark's workloads: generated datasets and the run config for each.

Every workload generates its data with ``gen_trig`` through the CLI's
``synth`` command, so the program only ever sees the config written here.
All ``point_model`` fields are set explicitly: with the library defaults
(``d_lat`` 10) ``train`` exits 3 on any 8-channel dataset, and the README's
``d_lat: 4, epochs: 25`` differ from the code defaults (10, 100).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

GAMMA = 25
GATE_D = 16
SWEEP_D_DEFAULT = [1, 2, 4, 8, 16, 32, 64, 128, 256]

# Datasets per run. Each timing metric is a median over them: one sample per
# command is too few on a shared host, whose speed drifts by 20 % or more
# over seconds. The counts and sizes keep every run near 40-50 s.
PRESET_DATASETS = 4
DATASETS = 3

# trig_preset's frequency-shift segment, in test-split coordinates.
PRESET_SEGMENT = (3000, 3150)


@dataclass(frozen=True)
class Dataset:
    """One generated dataset plus the config every command of its chain reads."""

    config: dict
    first_segment: tuple[int, int]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    datasets: Callable[[int, bool], list[Dataset]]  # (seed, tiny) -> datasets of the run


def _point_model(d_lat: int, epochs: int) -> dict:
    return {
        "d_lat": d_lat,
        "learn_rate": 1.0e-4,
        "optimizer": "adam",
        "batch_size": 64,
        "epochs": epochs,
        "seed": 0,
    }


def _config(seed: int, options: dict, point_model: dict, d_values: list[int]) -> dict:
    """Run config with paths relative to the command's working directory."""
    return {
        "data": {"train": "out/train.csv", "test": "out/test.csv"},
        "preprocess": {"downsample": 1, "normalization": "minmax"},
        "point_model": point_model,
        "sequence_model": {"gamma": GAMMA, "delta": 6, "ridge_lambda": 1.0e-6},
        "gate": {"kind": "soft", "theta_percentile": 98.5, "d": GATE_D},
        "eval": {"point_adjust": True, "spike_interval": None},
        "sweep": {"d_values": d_values},
        "synth": {"kind": "trig", "seed": seed, "options": options},
        "output": {"dir": "out"},
    }


def trig_options(
    seed: int, n_channels: int, n_train: int, n_test: int, n_segments: int, n_points: int
) -> dict:
    """Evenly spaced 150-point segments, alternating frequency- and
    amplitude-shift, plus isolated point-noise anomalies drawn from ``seed``."""
    spacing = n_test // n_segments
    segments = []
    for i in range(n_segments):
        start = i * spacing + spacing // 2
        kind = "frequency-shift" if i % 2 == 0 else "amplitude-shift"
        segments.append([start, start + 150, kind])
    taken = np.zeros(n_test, dtype=bool)
    taken[:60] = taken[n_test - 60 :] = True
    for start, end, _ in segments:
        taken[max(0, start - 60) : end + 60] = True
    rng = np.random.default_rng([seed, 7])
    points = []
    while len(points) < n_points:
        cand = int(rng.integers(0, n_test))
        if taken[cand]:
            continue
        points.append(cand)
        taken[max(0, cand - 2) : cand + 3] = True
    segments.extend([p, p + 1, "point-noise"] for p in sorted(points))
    return {
        "n_channels": n_channels,
        "n_train": n_train,
        "n_test": n_test,
        "segments": segments,
    }


def _synthetic(seed, options, point_model, d_values) -> Dataset:
    first = options["segments"][0]
    return Dataset(_config(seed, options, point_model, d_values), (first[0], first[1]))


def _seeds(seed: int, count: int = DATASETS) -> range:
    """Consecutive data seeds, disjoint between benchmark seeds."""
    return range(seed * count, (seed + 1) * count)


def _preset(seed: int, tiny: bool) -> list[Dataset]:
    if tiny:
        opts = trig_options(seed, 8, 2000, 1500, 1, 6)
        return [_synthetic(seed, opts, _point_model(4, 2), [1, 16])]
    # The README run.yaml model and the default sweep.
    return [
        Dataset(_config(s, {}, _point_model(4, 25), SWEEP_D_DEFAULT), PRESET_SEGMENT)
        for s in _seeds(seed, PRESET_DATASETS)
    ]


def _long(seed: int, tiny: bool) -> list[Dataset]:
    if tiny:
        opts = trig_options(seed, 8, 2000, 6000, 2, 10)
        return [_synthetic(seed, opts, _point_model(4, 1), [1, 16, 64])]
    return [
        _synthetic(s, trig_options(s, 8, 10_000, 30_000, 3, 30), _point_model(4, 5), SWEEP_D_DEFAULT)
        for s in _seeds(seed)
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "preset",
            "the paper's 10k+7.7k x 8 experiment; per-process start-up and "
            "the point-model step loop dominate",
            _preset,
        ),
        Workload(
            "long",
            "30k test rows x 8: score CSV I/O, per-distinct-score ranking in "
            "evaluate and induction up to d=256 dominate; training is small",
            _long,
        ),
    )
}
