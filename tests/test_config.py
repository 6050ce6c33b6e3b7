"""Config parsing and defaults."""

import dataclasses
import importlib.util
import os
import re
import sys
import typing
from pathlib import Path

import numpy as np
import pytest
import yaml

import nominality
from nominality import config
from nominality.config import (
    RETIRED_KEYS,
    PipelineConfig,
    TrigSpec,
    config_from_dict,
    load_config,
)
from nominality.errors import SHOWN, ConfigError, shown
from nominality.reconstructors import train_sequence_model
from nominality.scoring import gate, smoothed_score, theta_from_percentile
from nominality.series import LabeledSeries, downsample


class TestDefaults:
    def test_empty_config_is_valid(self):
        cfg = config_from_dict({})
        assert cfg.point_model.learn_rate == 1e-4
        assert cfg.point_model.batch_size == 64
        assert cfg.point_model.d_lat == 4
        assert cfg.gate.theta_percentile == 98.5
        assert cfg.gate.kind == "soft"
        assert cfg.sweep.d_values == (1, 2, 4, 8, 16, 32, 64, 128, 256)
        assert cfg.output.dir == "out"
        assert config_from_dict(cfg.to_dict()) == cfg == PipelineConfig()


class TestParsing:
    def test_yaml_roundtrip(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(
            "data:\n  train: tr.csv\n  test: te.csv\n"
            "point_model:\n  d_lat: 4\n  epochs: 25\n"
            "gate:\n  kind: hard\n  theta_percentile: 99.85\n  d: 32\n"
            "output:\n  dir: results\n"
        )
        cfg = load_config(str(path))
        assert cfg.data.train == "tr.csv"
        assert cfg.point_model.d_lat == 4
        assert cfg.gate.kind == "hard" and cfg.gate.d == 32
        assert cfg.output.dir == "results"
        assert config_from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"point_model": {"leraning_rate": 0.1}})

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"pointmodel": {}})

    @pytest.mark.parametrize(
        "section, key",
        [("point_model", "n_heads"), ("sequence_model", "n_enc"),
         ("preprocess", "stride"), ("preprocess", "window_len")],
    )
    def test_removed_keys_rejected(self, section, key):
        with pytest.raises(ConfigError, match=f"unknown key '{key}' in section '{section}'"):
            config_from_dict({section: {key: 4}})

    def test_exactly_one_threshold_source(self):
        with pytest.raises(ConfigError):
            config_from_dict({"gate": {"theta_n": 1.5}})  # both set via default pct
        cfg = config_from_dict({"gate": {"theta_n": 1.5, "theta_percentile": None}})
        assert cfg.gate.theta_n == 1.5

    def test_preset_built_only_when_asked(self, monkeypatch):
        """Parsing skips the always-valid trig preset; the other synth sections are checked."""
        calls = []
        monkeypatch.setattr("nominality.config.trig_preset", lambda seed: calls.append(seed))
        cfg = config_from_dict({"synth": {"seed": 3}})
        assert calls == []
        cfg.synth.spec()
        assert calls == [3]
        for synth in ({"options": None}, {"options": []}, {"kind": "sensor"}):
            with pytest.raises(ConfigError):
                config_from_dict({"synth": synth})

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"gate": {"kind": "medium"}})
        with pytest.raises(ConfigError):
            config_from_dict({"preprocess": {"normalization": "zscore"}})
        with pytest.raises(ConfigError):
            config_from_dict({"eval": {"spike_interval": 0}})
        with pytest.raises(ConfigError):
            config_from_dict({"eval": {"point_adjust": False}})

    #: The lowest value of every integer key, written out here rather than read from
    #: the fields' rules, so an off-by-one in a rule fails the suite.
    INTEGER_LOWS = {
        "preprocess.downsample": 1, "point_model.d_lat": 1, "point_model.batch_size": 1,
        "point_model.epochs": 0, "point_model.seed": 0, "sequence_model.gamma": 1,
        "sequence_model.delta": 1, "gate.d": 0, "synth.seed": 0,
    }

    def test_values_take_their_fields_types(self):
        """A section holds each value in its field's type: an integer in a float field as
        that float, and a list as a tuple of its items' type (``1 == 1.0``, so the types
        are checked)."""
        assert type(config.GateConfig(theta_n=5).theta_n) is float
        spec = TrigSpec(n_channels=2, n_train=10, n_test=10, segments=[[2, 4, "point-noise"]])
        assert type(spec.segments) is tuple and type(spec.segments[0]) is tuple
        assert config.SweepConfig(d_values=[1, 2]).d_values == (1, 2)
        options = config_from_dict({"synth": {"options": {
            "n_channels": 2, "n_train": 10, "n_test": 10,
            "segments": [[2, 4, "point-noise"]]}}}).synth.options
        assert type(options["segments"]) is tuple and type(options["segments"][0]) is tuple

    def test_integer_lower_bounds(self):
        """Every integer key takes its lowest value and refuses the one below it."""
        integers = {f"{section}.{f.name}"
                    for section, cls in typing.get_type_hints(PipelineConfig).items()
                    for f in dataclasses.fields(cls)
                    if typing.get_type_hints(cls)[f.name] in (int, int | None)
                    and f.metadata["rule"][1] != "null"}  # a retired key: null is its one value
        assert integers == set(self.INTEGER_LOWS)
        for key, low in self.INTEGER_LOWS.items():
            section, name = key.split(".")
            # gamma 1 leaves room for a delta of at most 2 * gamma = 2
            others = {"delta": 2} if key == "sequence_model.gamma" else {}
            assert getattr(getattr(config_from_dict({section: {name: low, **others}}), section),
                           name) == low
            with pytest.raises(ConfigError, match=f"^{key} must be an integer >= {low}, "):
                config_from_dict({section: {name: low - 1, **others}})


class TestOverrides:
    def test_flags_change_sections(self, tmp_path):
        """What the removed --d, --gate, --theta-percentile, --seed and --out
        flags set is set by a second config's sections."""
        path = tmp_path / "override.yaml"
        path.write_text(
            "gate:\n  d: 64\n  kind: hard\n  theta_percentile: 99.85\n"
            "point_model:\n  seed: 11\n"
            "synth:\n  seed: 11\n"
            "output:\n  dir: elsewhere\n"
        )
        cfg = load_config(str(path))
        assert cfg.gate.d == 64 and cfg.gate.kind == "hard"
        assert cfg.gate.theta_percentile == 99.85
        assert cfg.point_model.seed == 11 and cfg.synth.seed == 11
        assert cfg.output.dir == "elsewhere"
        assert config_from_dict(cfg.to_dict()) == cfg


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
SYNTH_OPTIONS = """\
synth:
  kind: trig
  seed: 7
  options:
    n_channels: 3
    n_train: 500
    n_test: 400
    segments:
      - [100, 130, frequency-shift]
      - [200, 201, point-noise]
sweep:
  d_values: [0, 3, 255]
point_model:
  learn_rate: 2.0e-1
gate:
  theta_n: .5
  theta_percentile: ~
eval:
  point_adjust: yes
  spike_interval: null
"""


def test_recorded_config_dumps_as_yaml():
    """A recorded config, whose options and sweep hold tuples, is written by
    ``yaml.safe_dump`` (as lists) and loads back as the same config."""
    cfg = config_from_dict(yaml.safe_load(SYNTH_OPTIONS))
    assert config_from_dict(yaml.safe_load(yaml.safe_dump(cfg.to_dict()))) == cfg


def test_benchmark_configs_load(monkeypatch):
    """Every config the benchmark's workloads write loads, retired keys and all, and
    its ``to_dict()`` names no retired key."""
    path = os.path.join(os.path.dirname(README), "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS.values():
        for tiny in (False, True):
            for dataset in workload.datasets(0, tiny):
                doc = config_from_dict(dataset.config).to_dict()
                assert [name for name in RETIRED_KEYS
                        if name.split(".")[1] in doc.get(name.split(".")[0], {})] == []


class TestYamlLoaders:
    """libyaml's loader, where PyYAML has it, reads configs exactly as the pure-Python one."""

    @pytest.fixture(params=["SafeLoader", "CSafeLoader"])
    def loader(self, request, monkeypatch):
        if not hasattr(yaml, request.param):
            pytest.skip("PyYAML was built without libyaml")
        monkeypatch.setattr(config, "YAML_LOADER", getattr(yaml, request.param))

    @pytest.mark.parametrize("which", ["readme", "synth-options"])
    def test_same_config(self, loader, tmp_path, which):
        if which == "readme":
            text = Path(README).read_text().split("with a `run.yaml` like:\n\n```yaml\n", 1)[1]
            text = text.split("```", 1)[0]
        else:
            text = SYNTH_OPTIONS
        path = tmp_path / "run.yaml"
        path.write_text(text)
        cfg = load_config(str(path))
        expected = config_from_dict(yaml.load(text, Loader=yaml.SafeLoader))
        assert cfg == expected

    def test_string_hint(self, loader, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("sequence_model:\n  ridge_lambda: 1e-6\n")
        with pytest.raises(ConfigError, match="YAML reads 1e-6 as a string; write 1e-06"):
            load_config(str(path))
        # YAML reads inf and nan as strings too, and 1e400 is no finite float: no hint
        for value in ('"inf"', '"-inf"', '"nan"', "inf", '"1e400"'):
            path.write_text(f"point_model:\n  learn_rate: {value}\n")
            with pytest.raises(ConfigError) as exc:
                load_config(str(path))
            assert str(exc.value) == (f"point_model.learn_rate must be a finite number > 0, "
                                      f"got {yaml.safe_load(value)!r}")


class TestDuplicateKeys:
    """A mapping that names a key twice is refused on either parser, where PyYAML would
    keep the last value; merge keys still merge."""

    @pytest.fixture(params=["SafeLoader", "CSafeLoader"])
    def loader(self, request, monkeypatch):
        if not hasattr(yaml, request.param):
            pytest.skip("PyYAML was built without libyaml")
        monkeypatch.setattr(config, "YAML_LOADER", getattr(yaml, request.param))

    @pytest.mark.parametrize("text, where, key", [
        ("gate:\n  kind: hard\n  d: 4\nsweep:\n  d_values: [1]\n\ngate:\n  d: 8\n",
         "line 7, column 1", "gate"),
        ("data:\n  train: a.csv\n  test: b.csv\n  train: c.csv\n", "line 4, column 3", "train"),
    ], ids=["section", "key-in-section"])
    def test_repeated_key_refused(self, loader, tmp_path, text, where, key):
        path = tmp_path / "run.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError) as exc:
            load_config(str(path))
        assert str(exc.value) == f"{path}: {where}: invalid YAML: found duplicate key {key!r}"

    def test_merge_key_merges(self, loader, tmp_path):
        """A merged key that the mapping sets again takes the mapping's value."""
        path = tmp_path / "run.yaml"
        path.write_text("gate:\n  <<: {kind: hard, d: 4, theta_percentile: 99}\n  d: 8\n")
        assert load_config(str(path)).gate == config.GateConfig(
            kind="hard", theta_percentile=99, d=8)

    def test_unhashable_key_keeps_pyyaml_error(self, loader, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("gate:\n  ? [d, kind]\n  : 1\n")
        with pytest.raises(ConfigError) as exc:
            load_config(str(path))
        assert str(exc.value) == f"{path}: line 2, column 5: invalid YAML: found unhashable key"


def _nested(levels, inner=""):
    """A YAML flow sequence ``levels`` deep around ``inner``."""
    return "[" * levels + inner + "]" * levels


# segments under synth.options: the top-level mapping, synth and options are three levels
_SEGMENTS = ("synth:\n  options:\n    n_channels: 2\n    n_train: 100\n    n_test: 100\n"
             "    segments: {}\n")


class TestNestingDepth:
    """A config nested past ``MAX_DEPTH``, or holding a YAML alias, is refused on either
    parser before PyYAML composes it; an alias is refused where it stands, with its line
    and column, whatever it names."""

    @pytest.fixture(params=["SafeLoader", "CSafeLoader"])
    def loader(self, request, monkeypatch):
        if not hasattr(yaml, request.param):
            pytest.skip("PyYAML was built without libyaml")
        monkeypatch.setattr(config, "YAML_LOADER", getattr(yaml, request.param))

    def test_bound(self, loader, tmp_path):
        """At the bound the key's own rule speaks; one level past it the depth does."""
        path = tmp_path / "run.yaml"
        path.write_text(_SEGMENTS.format(_nested(config.MAX_DEPTH - 3)))
        with pytest.raises(ConfigError, match="^synth.options.segments must be "):
            load_config(str(path))
        path.write_text(_SEGMENTS.format(_nested(config.MAX_DEPTH - 2)))
        with pytest.raises(ConfigError) as exc:
            load_config(str(path))
        assert str(exc.value) == f"{path}: nested more than {config.MAX_DEPTH} levels deep"

    @pytest.mark.parametrize("text, where, anchor", [
        # a chain whose alias would reach depth 64 or 65, with no node written deeper than 32
        (f"a: &a {_nested(31)}\nb: {_nested(32, '*a')}\n", "line 2, column 36", "a"),
        (f"a: &a {_nested(32)}\nb: {_nested(32, '*a')}\n", "line 2, column 36", "a"),
        # a list of 999 numbers, 98 aliases of it and 988 numbers: 100 001 nodes in all
        (_SEGMENTS.format("[&a [" + ", ".join(["0"] * 999) + "]" + ", *a" * 98
                             + ", 0" * 988 + "]"), "line 6, column 3018", "a"),
        # 60 anchors, each a list 50 levels deep around an alias of the one before
        ("".join(f"a{i}: &a{i} {_nested(50, f'*a{i - 1}' if i else '')}\n" for i in range(60))
         + "? *a59\n: 0\n", "line 2, column 59", "a0"),
        # a merge key naming an anchored mapping, which PyYAML would merge
        ("eval: &g {}\ngate: {<<: *g}\n", "line 2, column 12", "g"),
        ("point_model: &g {seed: 3}\nsynth: {<<: *g}\n", "line 2, column 13", "g"),
    ], ids=["chain-64", "chain-65", "100001-nodes", "deep-chain", "merge-gate", "merge-seed"])
    def test_alias_refused(self, loader, tmp_path, text, where, anchor):
        path = tmp_path / "run.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError) as exc:
            load_config(str(path))
        assert str(exc.value) == f"{path}: {where}: a config may not hold a YAML alias (*{anchor})"

    @pytest.mark.parametrize("text", [
        f"a: {_nested(3000)}\n",
        f"? {_nested(3000)}\n: 0\n",
        _SEGMENTS.format(_nested(3000)),
    ], ids=["sequence", "complex-key", "segments"])
    def test_deep_config_refused(self, loader, tmp_path, text):
        """3000 levels, deep enough for PyYAML's constructor or a ``repr`` to recurse past
        Python's limit, are one config error."""
        path = tmp_path / "run.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError) as exc:
            load_config(str(path))
        assert str(exc.value) == f"{path}: nested more than {config.MAX_DEPTH} levels deep"

    def test_yaml_error_within_the_bound_keeps_its_message(self, loader, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(f"a: {_nested(10)}]\n")
        with pytest.raises(ConfigError, match=r"^\S+: line 1, column 24: invalid YAML: "):
            load_config(str(path))


def test_shown_cuts_a_long_value():
    """A value whose repr is at most SHOWN characters is quoted whole, as ``repr`` writes it;
    a longer one is cut there, with the length of the whole value."""
    assert shown({"b": 1, "a": [2.5, None]}) == "{'b': 1, 'a': [2.5, None]}"
    assert shown("x" * SHOWN, False) == "x" * SHOWN
    assert shown("x" * 1000) == "'" + "x" * (SHOWN - 1) + "... (1000 characters)"
    assert shown("p" * 300, False) == "p" * SHOWN + "... (300 characters)"
    assert shown(["y" * 10_000] * 9000) == "['" + "y" * (SHOWN - 2) + "... (9000 items)"


@pytest.mark.parametrize("value", ["1" * 5000, "x" * 2**20], ids=["digits", "text"])
def test_long_scalar_is_one_short_config_error(tmp_path, value):
    """A number past Python's limit on the digits of an int, which PyYAML's ``int`` refuses,
    and a 1 MiB string are each one config error that quotes at most SHOWN characters."""
    path = tmp_path / "run.yaml"
    path.write_text(f"point_model:\n  epochs: {value}\n")
    with pytest.raises(ConfigError) as exc:
        load_config(str(path))
    assert len(str(exc.value)) < len(str(path)) + SHOWN + 200


_SERIES = LabeledSeries(np.random.default_rng(0).standard_normal((40, 2)))


@pytest.mark.parametrize("call, message", [
    (lambda: train_sequence_model(_SERIES, 0, 1, 1e-6),
     "sequence_model.gamma must be an integer >= 1, got 0"),
    (lambda: train_sequence_model(_SERIES, 2, 0, 1e-6),
     "sequence_model.delta must be an integer >= 1, got 0"),
    (lambda: train_sequence_model(_SERIES, 2, 1, -1.0),
     "sequence_model.ridge_lambda must be a finite number >= 0, got -1.0"),
    (lambda: gate("x", 1.0, 0.5), "gate.kind must be one of soft, hard, got 'x'"),
    (lambda: theta_from_percentile(np.ones(3), 0),
     "gate.theta_percentile must be a number in (0, 100], got 0"),
    (lambda: theta_from_percentile(np.ones(3), 100.5),
     "gate.theta_percentile must be a number in (0, 100], got 100.5"),
    (lambda: smoothed_score(np.ones(3), -1), "gate.d must be an integer >= 0, got -1"),
    (lambda: downsample(_SERIES, 0), "preprocess.downsample must be an integer >= 1, got 0"),
    (lambda: TrigSpec(n_channels=0, n_train=10, n_test=10),
     "synth.options.n_channels must be an integer >= 1, got 0"),
], ids=["gamma", "delta", "ridge-lambda", "gate-kind", "percentile-zero",
        "percentile-above-100", "smoothing-d", "downsample", "trig-spec"])
def test_library_entry_checks_the_config_rule(call, message):
    """A library function given a key's value as a plain argument applies the key's rule."""
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        call()


def test_star_import_binds_only_the_api():
    """``from nominality import *`` binds no submodule and no ``annotations``."""
    namespace = {}
    exec("from nominality import *", namespace)
    bound = {name: value for name, value in namespace.items() if name != "__builtins__"}
    assert bound and "annotations" not in bound
    assert not [name for name, value in bound.items() if isinstance(value, type(nominality))]
