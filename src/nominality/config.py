"""Structured run configuration: the one home of every settable value's rule.

A run is described by one YAML file with nested sections (data, preprocess,
point_model, sequence_model, gate, sweep, synth, output).  Every field has a default,
so a minimal config only names its input files.  :func:`_read` is the one reader of a
config mapping, each section and ``synth.options``, whose schema is the generator spec
:class:`TrigSpec`: it drops a key of :data:`RETIRED_KEYS` that holds its one value,
and rejects any other unknown key, naming the keys its mapping takes, and an unset
field without a default.  Each section is a frozen dataclass whose fields declare
their default and their rule together (:func:`_rule`); its base :class:`_Section` runs
:func:`_check` when it is built, so a YAML file, ``dataclasses.replace`` and a library
call are held to the same rules, and stores each value in the one form its field holds
(:func:`_fitted`: a list as a tuple, an integer for a float as that float).  A library
function that takes a key's value as a plain argument, such as the settings that
``model.json``'s arrays imply, builds the section to check it.  The rules that span
keys are in ``__post_init__``: ``sequence_model.delta`` is at most ``2 * gamma``, the
gate has exactly one threshold source, and a spec's cells fit one float64 array and
its segments lie in the test split without overlap.  :meth:`PipelineConfig.to_dict`
gives back the nested dicts that :func:`config_from_dict` reads, so a recorded config
loads as a config.  ``point_model`` is :class:`PointHyperparams` and ``gate`` is
:class:`GateConfig`, the classes the library functions take.  A YAML mapping that
names a key twice is rejected.  This module imports no other module of the package
except :mod:`nominality.errors`, so every other module can import it.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from typing import get_args, get_origin, get_type_hints

import numpy as np
import yaml

from .errors import ConfigError, line_column, read_text, shown

SWEEP_D_DEFAULT = (1, 2, 4, 8, 16, 32, 64, 128, 256)


#: What :func:`_fitted` gives for a value that does not fit its field's type hint.
_MISFIT = object()


def _fitted(value, hint):
    """``value`` in the form a field of type ``hint`` holds, or :data:`_MISFIT`.

    A list becomes a tuple, nested lists included; an ``int`` or ``float`` is not
    ``True``/``False``; a ``float`` field holds a finite float, to which an integer is
    converted, and an ``int`` field a Python ``int``.
    """
    args = get_args(hint)
    if get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            return _MISFIT
        hints = args[:1] * len(value) if args[-1] is Ellipsis else args
        items = tuple(map(_fitted, value, hints))
        return items if len(value) == len(hints) and _MISFIT not in items else _MISFIT
    for arg in args:  # a union such as ``float | None``
        if (item := _fitted(value, arg)) is not _MISFIT:
            return item
    if args or isinstance(value, bool) and hint in (int, float):
        return _MISFIT
    if hint is float and isinstance(value, numbers.Real):
        try:
            value = float(value)
        except OverflowError:  # an integer beyond float64
            return _MISFIT
        return value if math.isfinite(value) else _MISFIT
    if hint is int and isinstance(value, numbers.Integral):
        return int(value)
    return value if isinstance(value, hint) else _MISFIT


def _yaml_hint(value, hint) -> str:
    """YAML 1.1 reads a float without a dot, such as 1e-6, as a string.

    Only a finite value gets the hint: YAML reads ``inf`` and ``nan`` as strings too.
    """
    if isinstance(value, str) and float in (hint, *get_args(hint)):
        try:
            if math.isfinite(float(value)):
                return f" (YAML reads {shown(value, False)} as a string; write {float(value)!r})"
        except ValueError:
            pass
    return ""


def _rule(wording: str, test=lambda value: True, **default):
    """A dataclass field with its default and its rule, which :func:`_check` applies.

    A value must fit the field's type hint and then pass ``test``, except a
    ``None`` that the hint allows; ``wording`` says what the value must be.
    """
    return field(**default, metadata={"rule": (test, wording)})


def _at_least(low: int, default: int | None):
    return _rule(f"an integer >= {low}", lambda value: value >= low, default=default)


def _one_of(choices: tuple[str, ...], default: str):
    return _rule(f"one of {', '.join(choices)}", lambda value: value in choices, default=default)


#: The type hints of a class's fields, resolved once per class.
_hints = functools.cache(get_type_hints)


def _check(where: str, cls, values: dict) -> dict:
    """``values``, which maps field names of the dataclass ``cls`` to values, in the forms
    their fields hold (:func:`_fitted`); the first that does not fit its field's type or
    breaks its rule raises :class:`ConfigError`."""
    hints, checked = _hints(cls), {}
    for name, value in values.items():
        test, wording = cls.__dataclass_fields__[name].metadata["rule"]
        checked[name] = _fitted(value, hints[name])
        if checked[name] is _MISFIT or not (value is None or test(checked[name])):
            raise ConfigError(f"{where}.{name} must be {wording}, got {shown(value)}"
                              f"{_yaml_hint(value, hints[name])}")
    return checked


class _Section:
    """A config section, named ``where`` in an error: building one checks its values with
    :func:`_check` and stores them in the forms their fields hold."""

    def __init_subclass__(cls, where: str) -> None:
        cls._where = where

    def __post_init__(self) -> None:
        vars(self).update(_check(self._where, type(self), vars(self)))


def _path(wording: str, default):
    """A file or directory path: non-empty, and without the NUL that no OS call takes."""
    return _rule(wording, lambda value: value != "" and "\0" not in value, default=default)


@dataclass(frozen=True)
class DataConfig(_Section, where="data"):
    train: str | None = _path("a non-empty string without NUL, or null", None)
    test: str | None = _path("a non-empty string without NUL, or null", None)
    label_column: str | None = _rule(
        "a non-empty string without leading or trailing whitespace or a line break, or null",
        lambda value: value != "" and value == value.strip() == "".join(value.splitlines()),
        default="label")


@dataclass(frozen=True)
class PreprocessConfig(_Section, where="preprocess"):
    downsample: int = _at_least(1, 1)


@dataclass(frozen=True)
class PointHyperparams(_Section, where="point_model"):
    """Training settings for the point autoencoder (the ``point_model`` section)."""

    d_lat: int = _at_least(1, 4)
    learn_rate: float = _rule("a finite number > 0", lambda value: 0 < value, default=1e-4)
    batch_size: int = _at_least(1, 64)
    epochs: int = _at_least(0, 25)
    seed: int = _at_least(0, 0)


@dataclass(frozen=True)
class SequenceModelConfig(_Section, where="sequence_model"):
    gamma: int = _at_least(1, 25)
    delta: int = _at_least(1, 6)
    ridge_lambda: float = _rule("a finite number >= 0", lambda value: 0 <= value, default=1e-6)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.delta > 2 * self.gamma:  # the middle block is predicted from 2 * gamma points
            raise ConfigError(f"sequence_model.delta must be at most 2 * gamma = "
                              f"{2 * self.gamma}, got {self.delta}")


@dataclass(frozen=True)
class GateConfig(_Section, where="gate"):
    """Gate kind, threshold source, and induction length (the ``gate`` section).

    Exactly one of ``theta_n`` (explicit threshold) and ``theta_percentile``
    (percentile of the training nominality scores, resolved later via
    ``scoring.resolve_theta``) must be set.  ``d = 0`` makes the induced
    score the anomaly score itself.
    """

    kind: str = _one_of(("soft", "hard"), "soft")
    theta_n: float | None = _rule("a finite number > 0", lambda value: 0 < value, default=None)
    theta_percentile: float | None = _rule("a number in (0, 100]",
                                           lambda value: 0 < value <= 100, default=None)
    d: int = _at_least(0, 0)

    def __post_init__(self) -> None:
        super().__post_init__()
        if (self.theta_n is None) == (self.theta_percentile is None):
            raise ConfigError("set exactly one of gate.theta_n and gate.theta_percentile")


@dataclass(frozen=True)
class SweepConfig(_Section, where="sweep"):
    d_values: tuple[int, ...] = _rule(
        "a non-empty list of distinct integers >= 0",
        lambda value: len(value) > 0 and min(value) >= 0 and len(set(value)) == len(value),
        default=SWEEP_D_DEFAULT)


SEGMENT_KINDS = ("point-noise", "frequency-shift", "amplitude-shift")


@dataclass(frozen=True)
class TrigSpec(_Section, where="synth.options"):
    """The trigonometric dataset that ``synthetic.gen_trig`` builds (``synth.options``).

    Segments are half-open (start, end, kind) intervals in test-split
    coordinates and must not overlap.  The waveform's settings are constants: channel
    j has frequency 0.008 + 0.004 j and phase 2 pi phi j (mod 2 pi), phi the golden
    ratio, and noise of sigma 0.02.  A frequency-shift slows the common time base to
    0.45 (phase stays continuous, so each reading remains a possible nominal value); an
    amplitude-shift scales the waveform by 1.75; point-noise adds +-1 per channel.
    """

    n_channels: int = _at_least(1, MISSING)
    n_train: int = _at_least(1, MISSING)
    n_test: int = _at_least(1, MISSING)
    segments: tuple[tuple[int, int, str], ...] = _rule("a list of [start, end, kind] triples",
                                                      default=())
    seed: int = _at_least(0, 0)

    def __post_init__(self) -> None:
        super().__post_init__()
        cells, limit = self.n_channels * (self.n_train + self.n_test), np.iinfo(np.intp).max // 8
        if cells > limit:  # float64 cells beyond any array numpy can index
            raise ConfigError(f"synth.options.n_channels * (n_train + n_test) must be at most "
                              f"{limit}, got {cells}")
        for start, end, kind in self.segments:
            if kind not in SEGMENT_KINDS:
                raise ConfigError(f"synth.options.segments kind must be one of "
                                  f"{', '.join(SEGMENT_KINDS)}, got {shown(kind)}")
            if not 0 <= start < end <= self.n_test:
                raise ConfigError(f"synth.options.segments must have 0 <= start < end <= "
                                  f"n_test = {self.n_test}, got ({start}, {end})")
        spans = sorted((start, end) for start, end, _ in self.segments)
        for before, after in zip(spans, spans[1:]):
            if after[0] < before[1]:
                raise ConfigError(f"synth.options.segments must not overlap, got {before}, {after}")


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
    return TrigSpec(n_channels=8, n_train=10_000, n_test=n_test, segments=tuple(segments),
                    seed=seed)


@dataclass(frozen=True)
class SynthConfig(_Section, where="synth"):
    """The ``synth`` section: ``options`` sets the :class:`TrigSpec` fields other than ``seed``,
    the sizes and the segments; the waveform's frequencies, phases, noise sigma (0.02) and
    anomaly factors (0.45, 1.75, +-1) are constants, as :class:`TrigSpec` states.

    :func:`_read` reads the options like a section, and building the spec once checks
    them; each is stored in the form the spec holds it (:func:`_fitted`).  No options
    is :func:`trig_preset`, which is always valid and built only when asked for.
    """

    seed: int = _at_least(0, 0)
    options: dict = _rule("a mapping", default_factory=dict)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.options:
            keys = [f for f in fields(TrigSpec) if f.name != "seed"]
            spec = TrigSpec(seed=self.seed, **_read("synth.options", self.options, keys))
            vars(self)["options"] = {key: getattr(spec, key) for key in self.options}

    def spec(self) -> TrigSpec:
        """The generator spec of the options, which are already checked."""
        return TrigSpec(seed=self.seed, **self.options) if self.options else trig_preset(self.seed)


@dataclass(frozen=True)
class OutputConfig(_Section, where="output"):
    """The ``output`` section: the directory every command writes to and reads from."""

    dir: str = _path("a non-empty string without NUL", "out")


@dataclass(frozen=True)
class PipelineConfig:
    data: DataConfig = field(default_factory=DataConfig)
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    point_model: PointHyperparams = field(default_factory=PointHyperparams)
    sequence_model: SequenceModelConfig = field(default_factory=SequenceModelConfig)
    gate: GateConfig = field(default_factory=lambda: GateConfig(theta_percentile=98.5, d=16))
    sweep: SweepConfig = field(default_factory=SweepConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def to_dict(self) -> dict:
        """The nested dicts that :func:`config_from_dict` reads; ``json`` and
        ``yaml.safe_dump`` write each tuple in them as a list."""
        return asdict(self)


#: Each retired key and the one value it could hold; the ``eval`` section held only these.
RETIRED_KEYS = {"preprocess.normalization": "minmax", "point_model.optimizer": "adam",
                "eval.point_adjust": True, "eval.spike_interval": None, "synth.kind": "trig"}


def _read(where: str, block, keys) -> dict:
    """The values that the mapping ``block`` (``None`` reads as ``{}``) of the section
    ``where`` gives its fields ``keys``.  A retired key must hold its one value and is
    dropped; any other unknown key, or an unset field without a default, raises ConfigError."""
    block = {} if block is None else block
    if not isinstance(block, dict):
        raise ConfigError(f"section {where!r} must be a mapping")
    names = [f.name for f in keys]
    for key, value in block.items():
        one = RETIRED_KEYS.get(f"{where}.{key}", MISSING)
        if one is MISSING and key not in names:
            raise ConfigError(f"unknown key {shown(key)} in section {where!r}"
                              + (f"; expected one of {', '.join(names)}" if names else ""))
        if one is not MISSING and (type(value) is not type(one) or value != one):  # 1 == True
            raise ConfigError(f"{where}.{key} is retired: leave it out or set it to "
                              f"{'null' if one is None else str(one).lower()}, "
                              f"got {shown(value)}")
    for f in keys:
        if f.name not in block and f.default is f.default_factory is MISSING:
            raise ConfigError(f"{where}.{f.name} must be set, to {f.metadata['rule'][1]}")
    return {key: block[key] for key in block if key in names}


def config_from_dict(raw: dict) -> PipelineConfig:
    """Build a checked :class:`PipelineConfig` from nested dicts: each section, read by
    :func:`_read`, is its default with the given keys replaced."""
    if not isinstance(raw, dict):
        raise ConfigError(f"a config must be a mapping, got {type(raw).__name__}")
    raw = dict(raw)
    sections = {name: replace(base, **_read(name, raw.pop(name, None), fields(base)))
                for name, base in vars(PipelineConfig()).items()}
    _read("eval", raw.pop("eval", None), ())  # eval's keys are all retired
    if raw:
        raise ConfigError(f"unknown top-level section(s): {shown(sorted(raw, key=str))}")
    return PipelineConfig(**sections)


#: libyaml's parser where PyYAML was built with it; both give the same documents.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class _UniqueKeys:
    """Loader mixin: a mapping that names a key twice is an error (PyYAML keeps the last
    value).  A merge key (``<<``) still merges the inline mapping it holds; one that names
    an alias never reaches the loader (:func:`_check_depth`)."""

    def construct_mapping(self, node, deep=False):
        keys = []  # a list, so that an unhashable key reaches PyYAML's own error
        for key_node, _ in node.value:
            if key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node, deep=True)
                if key in keys:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"found duplicate key {shown(key)}", key_node.start_mark)
                keys.append(key)
        return super().construct_mapping(node, deep)


def _yaml_error(path: str, text: str, exc: yaml.YAMLError | ValueError) -> ConfigError:
    """A one-line error naming the file and the line and column YAML stopped at."""
    mark = getattr(exc, "problem_mark", None)
    if mark is not None:
        where, problem = f"line {mark.line + 1}, column {mark.column + 1}: ", exc.problem
    elif isinstance(exc, yaml.reader.ReaderError):  # a control character
        where = line_column(text, text.index(chr(exc.character))) + ": "
        problem = f"character #x{exc.character:04x} is not allowed"
    else:
        where, problem = "", " ".join(str(exc).split())
    return ConfigError(f"{path}: {where}invalid YAML: {shown(problem, False)}")


#: The deepest a config may nest (the schema nests five levels): PyYAML composes and
#: constructs a node by recursion, and libyaml's composer overflows the C stack.
MAX_DEPTH = 64


def _check_depth(path: str, text: str) -> None:
    """Refuse ``text`` nested more than :data:`MAX_DEPTH` levels deep or holding a YAML
    alias, which no value of the schema needs, walking the parser's events up to the
    first; a YAML error ends the walk, for ``yaml.load`` to report."""
    depth = 0
    try:
        for event in yaml.parse(text, Loader=YAML_LOADER):
            if isinstance(event, yaml.AliasEvent):
                mark = event.start_mark
                raise ConfigError(f"{path}: line {mark.line + 1}, column {mark.column + 1}: a "
                                  f"config may not hold a YAML alias (*{shown(event.anchor, False)})")
            depth += isinstance(event, yaml.CollectionStartEvent)
            depth -= isinstance(event, yaml.CollectionEndEvent)
            if depth > MAX_DEPTH:
                raise ConfigError(f"{path}: nested more than {MAX_DEPTH} levels deep")
    except yaml.YAMLError:
        pass


def load_config(path: str) -> PipelineConfig:
    """Parse a YAML config file, which must be UTF-8 text (:func:`errors.read_text`) nested
    at most :data:`MAX_DEPTH` levels deep and holding no alias; one that cannot be read,
    such as a missing file or a directory, raises :class:`ConfigError`."""
    try:
        text = read_text(path, ConfigError)
    except OSError as exc:
        raise ConfigError(f"{shown(path, False)}: cannot read the config file: "
                          f"{exc.strerror}") from None
    _check_depth(path, text)
    try:
        raw = yaml.load(text, Loader=type("Loader", (_UniqueKeys, YAML_LOADER), {}))
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: an int past Python's digit limit
        raise _yaml_error(path, text, exc) from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return config_from_dict(raw)
