"""Structured run configuration.

A run is described by one YAML file with nested sections (data, preprocess,
point_model, sequence_model, gate, eval, sweep, synth, output).  Every field
has a default, so a minimal config only names its input files.  Each section
is a frozen dataclass that checks its own fields when it is built, so a YAML
file, a CLI override (``dataclasses.replace``) and a library call are held to
the same rules.  ``point_model`` is :class:`PointHyperparams` and ``gate`` is
:class:`GateConfig`, the classes the library functions take.  Unknown keys
are rejected.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields, replace
from typing import get_args, get_origin, get_type_hints

import yaml

from .errors import ConfigError, SpecError
from .synthetic import SensorSpec, ToySpec, TrigSpec, trig_preset

SWEEP_D_DEFAULT = (1, 2, 4, 8, 16, 32, 64, 128, 256)
GATE_KINDS = ("soft", "hard")
SYNTH_SPECS = {"trig": TrigSpec, "toy": ToySpec, "sensor": SensorSpec}


def _is_int(value) -> bool:
    """An integer; ``True``/``False`` are not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A real number other than NaN; ``True``/``False`` are not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and value == value


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
    ("gate", "theta_n", lambda v: v > 0, "a number > 0", True),
)

#: Text knobs as (section, field, allowed values).
CHOICE_KNOBS = (
    ("preprocess", "normalization", ("minmax", "none")),
    ("point_model", "optimizer", ("sgd", "adam")),
    ("gate", "kind", GATE_KINDS),
    ("synth", "kind", tuple(SYNTH_SPECS)),
)


def _check(obj, section: str) -> None:
    """Raise :class:`ConfigError` for the first field of ``obj`` that breaks its knob rule."""
    for s, name, low, optional in INT_KNOBS:
        value = getattr(obj, name, None)
        if s == section and not (value is None and optional or _is_int(value) and value >= low):
            raise ConfigError(f"{section}.{name} must be an integer >= {low}, got {value!r}")
    for s, name, test, wording, optional in REAL_KNOBS:
        value = getattr(obj, name, None)
        if s == section and not (value is None and optional or _is_real(value) and test(value)):
            raise ConfigError(
                f"{section}.{name} must be {wording}, got {value!r}{_yaml_hint(value)}"
            )
    for s, name, choices in CHOICE_KNOBS:
        value = getattr(obj, name, None)
        if s == section and value not in choices:
            raise ConfigError(
                f"{section}.{name} must be one of {', '.join(choices)}, got {value!r}"
            )


def _fits(value, hint) -> bool:
    """Whether a YAML value fits a spec field's type hint; a list stands for a tuple.

    A ``float`` must be finite: no generator has a use for an infinite
    amplitude, frequency or scale.
    """
    args = get_args(hint)
    if get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            return False
        if args[-1] is Ellipsis:
            return all(_fits(item, args[0]) for item in value)
        return len(value) == len(args) and all(map(_fits, value, args))
    if args:  # a union such as ``tuple[float, ...] | None``
        return any(_fits(value, arg) for arg in args)
    if hint is float:
        return _is_real(value) and math.isfinite(value)
    return _is_int(value) if hint is int else isinstance(value, hint)


def _tupled(value):
    """A YAML list as the tuple a spec field holds, nested lists included."""
    return tuple(map(_tupled, value)) if isinstance(value, list) else value


@dataclass(frozen=True)
class DataConfig:
    train: str | None = None
    test: str | None = None
    label_column: str | None = "label"


@dataclass(frozen=True)
class PreprocessConfig:
    downsample: int = 1
    normalization: str = "minmax"  # or "none"

    def __post_init__(self) -> None:
        _check(self, "preprocess")


@dataclass(frozen=True)
class PointHyperparams:
    """Training settings for the point autoencoder (the ``point_model`` section)."""

    d_lat: int = 4
    learn_rate: float = 1e-4
    optimizer: str = "adam"
    batch_size: int = 64
    epochs: int = 25
    seed: int = 0

    def __post_init__(self) -> None:
        _check(self, "point_model")


@dataclass(frozen=True)
class SequenceModelConfig:
    gamma: int = 25
    delta: int = 6
    ridge_lambda: float = 1e-6

    def __post_init__(self) -> None:
        _check(self, "sequence_model")


@dataclass(frozen=True)
class GateConfig:
    """Gate kind, threshold source, and induction length (the ``gate`` section).

    Exactly one of ``theta_n`` (explicit threshold) and ``theta_percentile``
    (percentile of the training nominality scores, resolved later via
    ``scoring.resolve_theta``) must be set.  ``d = 0`` makes the induced
    score the anomaly score itself.
    """

    kind: str = "soft"
    theta_n: float | None = None
    theta_percentile: float | None = None
    d: int = 0

    def __post_init__(self) -> None:
        _check(self, "gate")
        if (self.theta_n is None) == (self.theta_percentile is None):
            raise ConfigError("set exactly one of gate.theta_n and gate.theta_percentile")


@dataclass(frozen=True)
class EvalConfig:
    point_adjust: bool = True
    spike_interval: int | None = None

    def __post_init__(self) -> None:
        _check(self, "eval")


@dataclass(frozen=True)
class SweepConfig:
    d_values: tuple[int, ...] = SWEEP_D_DEFAULT

    def __post_init__(self) -> None:
        d_values = self.d_values
        if not (isinstance(d_values, (list, tuple)) and d_values
                and all(_is_int(d) and d >= 0 for d in d_values)):
            raise ConfigError(
                f"sweep.d_values must be a non-empty list of integers >= 0, got {d_values!r}"
            )
        object.__setattr__(self, "d_values", tuple(d_values))


@dataclass(frozen=True)
class SynthConfig:
    """The ``synth`` section: ``options`` sets the kind's spec fields other than ``seed``.

    YAML lists stand for tuples; ``trig`` with no options is :func:`trig_preset`.
    """

    kind: str = "trig"
    seed: int = 0
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check(self, "synth")
        self.spec()

    def spec(self) -> TrigSpec | ToySpec | SensorSpec:
        """The generator spec; a bad key, type or value raises :class:`ConfigError`."""
        if not isinstance(self.options, dict):
            raise ConfigError(f"synth.options must be a mapping, got {self.options!r}")
        if self.kind == "trig" and not self.options:
            return trig_preset(self.seed)
        cls = SYNTH_SPECS[self.kind]
        hints = {key: hint for key, hint in get_type_hints(cls).items() if key != "seed"}
        for key, value in self.options.items():
            if key not in hints:
                raise ConfigError(f"synth.options has unknown key {key!r} for kind {self.kind}; "
                                  f"expected one of {', '.join(hints)}")
            if not _fits(value, hints[key]):
                raise ConfigError(
                    f"synth.options.{key} must be {cls.__annotations__[key]}, got {value!r}"
                )
        try:
            return cls(seed=self.seed, **{key: _tupled(v) for key, v in self.options.items()})
        except (SpecError, TypeError) as exc:  # TypeError: a field without default is unset
            raise ConfigError(f"synth.options: {exc}") from None


@dataclass(frozen=True)
class PipelineConfig:
    data: DataConfig = field(default_factory=DataConfig)
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    point_model: PointHyperparams = field(default_factory=PointHyperparams)
    sequence_model: SequenceModelConfig = field(default_factory=SequenceModelConfig)
    gate: GateConfig = field(default_factory=lambda: GateConfig(theta_percentile=98.5, d=16))
    eval: EvalConfig = field(default_factory=EvalConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)
    output_dir: str = "out"

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["sweep"]["d_values"] = list(self.sweep.d_values)
        return doc

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def config_from_dict(raw: dict) -> PipelineConfig:
    """Build a checked :class:`PipelineConfig` from nested dicts.

    Each section is its default with the given keys replaced.
    """
    raw = dict(raw or {})
    defaults = PipelineConfig()
    sections = {}
    for name in (f.name for f in fields(PipelineConfig) if f.name != "output_dir"):
        block = raw.pop(name, None)
        if block is None:
            block = {}
        if not isinstance(block, dict):
            raise ConfigError(f"section {name!r} must be a mapping")
        base = getattr(defaults, name)
        unknown = [key for key in block if key not in {f.name for f in fields(base)}]
        if unknown:
            raise ConfigError(f"unknown key {unknown[0]!r} in section {name!r}")
        sections[name] = replace(base, **block)
    output = raw.pop("output", {}) or {}
    if not isinstance(output, dict):
        raise ConfigError("section 'output' must be a mapping")
    extra_out = set(output) - {"dir"}
    if extra_out:
        raise ConfigError(f"unknown key(s) {sorted(extra_out)} in section 'output'")
    if raw:
        raise ConfigError(f"unknown top-level section(s): {sorted(raw)}")
    return PipelineConfig(output_dir=output.get("dir", "out"), **sections)


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
    """Apply per-command CLI flag overrides to a parsed config.

    ``replace`` rebuilds each changed section, which checks it again.
    """
    gate = {key: value for key, value in
            (("d", d), ("kind", gate_kind), ("theta_percentile", theta_percentile))
            if value is not None}
    if theta_percentile is not None:
        gate["theta_n"] = None
    out = replace(cfg, gate=replace(cfg.gate, **gate))
    if seed is not None:
        out = replace(out, point_model=replace(out.point_model, seed=seed),
                      synth=replace(out.synth, seed=seed))
    return out if out_dir is None else replace(out, output_dir=out_dir)
