"""Structured run configuration.

A run is described by one YAML file with nested sections (data, preprocess,
point_model, sequence_model, gate, eval, sweep, synth, output).  Every field
has a default, so a minimal config only names its input files.  Unknown keys
are rejected except for a small allowlist of legacy architecture knobs
(n_heads, ff_mult, n_perf, n_enc) that other model families need; they are
accepted and ignored here so configs can be shared across tools.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, field, replace

import yaml

from .errors import ConfigError

#: Architecture knobs from attention-based reconstructors; meaningless for
#: the models in this package but accepted so shared configs parse.
IGNORED_KEYS = {"n_heads", "ff_mult", "n_perf", "n_enc"}

SWEEP_D_DEFAULT = (1, 2, 4, 8, 16, 32, 64, 128, 256)


def _is_int(value) -> bool:
    """An integer; ``True``/``False`` are not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A real number other than NaN; ``True``/``False`` are not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and value == value


def _is_count(value) -> bool:
    """An integer >= 0."""
    return _is_int(value) and value >= 0


def _yaml_hint(value) -> str:
    """YAML 1.1 reads a float without a dot, such as 1e-6, as a string."""
    if isinstance(value, str):
        try:
            return f" (YAML reads {value} as a string; write {float(value)!r})"
        except ValueError:
            pass
    return ""


#: Integer knobs as (section, field, lowest allowed value, None allowed).
INT_KNOBS = (
    ("preprocess", "downsample", 1, False),
    ("preprocess", "stride", 1, False),
    ("preprocess", "window_len", 1, False),
    ("point_model", "d_lat", 1, False),
    ("point_model", "batch_size", 1, False),
    ("point_model", "epochs", 0, False),
    ("point_model", "seed", 0, False),
    ("sequence_model", "gamma", 1, False),
    ("sequence_model", "delta", 1, False),
    ("gate", "d", 0, False),
    ("eval", "spike_interval", 1, True),
    ("synth", "seed", 0, False),
)

#: Real knobs as (section, field, test of the value, wording, None allowed).
REAL_KNOBS = (
    ("point_model", "learn_rate", lambda v: 0 < v < math.inf, "a finite number > 0", False),
    ("sequence_model", "ridge_lambda", lambda v: 0 <= v < math.inf, "a finite number >= 0", False),
    ("gate", "theta_percentile", lambda v: 0 < v <= 100, "a number in (0, 100]", True),
    ("gate", "theta", lambda v: v > 0, "a number > 0", True),
)


@dataclass(frozen=True)
class DataConfig:
    train: str | None = None
    test: str | None = None
    label_column: str | None = "label"


@dataclass(frozen=True)
class PreprocessConfig:
    downsample: int = 1
    normalization: str = "minmax"  # or "none"
    stride: int = 10
    window_len: int = 50


@dataclass(frozen=True)
class PointModelConfig:
    d_lat: int = 10
    learn_rate: float = 1e-4
    optimizer: str = "adam"
    batch_size: int = 64
    epochs: int = 100
    seed: int = 0


@dataclass(frozen=True)
class SequenceModelConfig:
    gamma: int = 25
    delta: int = 6
    ridge_lambda: float = 1e-6


@dataclass(frozen=True)
class GateSection:
    kind: str = "soft"
    theta_percentile: float | None = 98.5
    theta: float | None = None
    d: int = 16


@dataclass(frozen=True)
class EvalConfig:
    point_adjust: bool = True
    spike_interval: int | None = None


@dataclass(frozen=True)
class SweepConfig:
    d_values: tuple[int, ...] = SWEEP_D_DEFAULT


@dataclass(frozen=True)
class SynthConfig:
    kind: str = "trig"
    seed: int = 0
    options: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PipelineConfig:
    data: DataConfig = field(default_factory=DataConfig)
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    point_model: PointModelConfig = field(default_factory=PointModelConfig)
    sequence_model: SequenceModelConfig = field(default_factory=SequenceModelConfig)
    gate: GateSection = field(default_factory=GateSection)
    eval: EvalConfig = field(default_factory=EvalConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)
    output_dir: str = "out"

    def validate(self) -> None:
        if self.preprocess.normalization not in ("minmax", "none"):
            raise ConfigError(
                f"normalization must be 'minmax' or 'none', got "
                f"{self.preprocess.normalization!r}"
            )
        for section, name, low, optional in INT_KNOBS:
            value = getattr(getattr(self, section), name)
            if not (value is None and optional or _is_int(value) and value >= low):
                raise ConfigError(
                    f"{section}.{name} must be an integer >= {low}, got {value!r}"
                )
        for section, name, test, wording, optional in REAL_KNOBS:
            value = getattr(getattr(self, section), name)
            if not (value is None and optional or _is_real(value) and test(value)):
                raise ConfigError(
                    f"{section}.{name} must be {wording}, got {value!r}{_yaml_hint(value)}"
                )
        if self.gate.kind not in ("soft", "hard"):
            raise ConfigError(f"gate kind must be soft or hard, got {self.gate.kind!r}")
        if (self.gate.theta is None) == (self.gate.theta_percentile is None):
            raise ConfigError("set exactly one of gate.theta and gate.theta_percentile")
        if self.point_model.optimizer not in ("sgd", "adam"):
            raise ConfigError("point_model.optimizer must be sgd or adam")
        d_values = self.sweep.d_values
        if not (isinstance(d_values, (list, tuple)) and d_values
                and all(_is_count(d) for d in d_values)):
            raise ConfigError(
                f"sweep.d_values must be a non-empty list of integers >= 0, got {d_values!r}"
            )
        if self.synth.kind not in ("trig", "toy", "sensor"):
            raise ConfigError(f"synth.kind must be trig, toy or sensor, got {self.synth.kind!r}")

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["sweep"]["d_values"] = list(self.sweep.d_values)
        return doc

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _build_section(cls, raw: dict, name: str):
    known = {f for f in cls.__dataclass_fields__}
    cleaned = {}
    for key, value in raw.items():
        if key in IGNORED_KEYS:
            continue
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in section {name!r}")
        cleaned[key] = value
    try:
        return cls(**cleaned)
    except TypeError as exc:
        raise ConfigError(f"bad section {name!r}: {exc}") from exc


def config_from_dict(raw: dict) -> PipelineConfig:
    """Build and validate a :class:`PipelineConfig` from nested dicts."""
    raw = dict(raw or {})
    sections = {
        "data": DataConfig,
        "preprocess": PreprocessConfig,
        "point_model": PointModelConfig,
        "sequence_model": SequenceModelConfig,
        "gate": GateSection,
        "eval": EvalConfig,
        "sweep": SweepConfig,
        "synth": SynthConfig,
    }
    kwargs = {}
    for name, cls in sections.items():
        block = raw.pop(name, {})
        if block is None:
            block = {}
        if not isinstance(block, dict):
            raise ConfigError(f"section {name!r} must be a mapping")
        if name == "sweep" and isinstance(block.get("d_values"), list):
            block = dict(block)
            block["d_values"] = tuple(block["d_values"])
        kwargs[name] = _build_section(cls, block, name)
    output = raw.pop("output", {}) or {}
    if not isinstance(output, dict):
        raise ConfigError("section 'output' must be a mapping")
    extra_out = set(output) - {"dir"}
    if extra_out:
        raise ConfigError(f"unknown key(s) {sorted(extra_out)} in section 'output'")
    if raw:
        raise ConfigError(f"unknown top-level section(s): {sorted(raw)}")
    cfg = PipelineConfig(output_dir=output.get("dir", "out"), **kwargs)
    cfg.validate()
    return cfg


def load_config(path: str) -> PipelineConfig:
    """Parse a YAML config file."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return config_from_dict(raw)


def apply_overrides(
    cfg: PipelineConfig,
    d: int | None = None,
    gate_kind: str | None = None,
    theta_percentile: float | None = None,
    seed: int | None = None,
    out_dir: str | None = None,
) -> PipelineConfig:
    """Apply per-command CLI flag overrides to a parsed config."""
    gate = cfg.gate
    if d is not None:
        gate = replace(gate, d=d)
    if gate_kind is not None:
        gate = replace(gate, kind=gate_kind)
    if theta_percentile is not None:
        gate = replace(gate, theta_percentile=theta_percentile, theta=None)
    point = cfg.point_model
    synth = cfg.synth
    if seed is not None:
        point = replace(point, seed=seed)
        synth = replace(synth, seed=seed)
    out = replace(
        cfg,
        gate=gate,
        point_model=point,
        synth=synth,
        output_dir=out_dir if out_dir is not None else cfg.output_dir,
    )
    out.validate()
    return out
