"""Symmetries of the whole chain: properties that tie two runs together.

Each module has an oracle, but an alignment or scaling slip that keeps every oracle
happy would still change what two related runs give.  Each test here runs
``fit_models`` and ``score_split`` in-process on one small generated pair of splits
(4 channels, 3000 training and 2000 test rows, 2 epochs) and its transform, with the
scales and shifts drawn from a fixed seed:

- **scale**: a power of two per channel leaves every score and θ bit-identical, and a
  positive affine map per channel moves each score by at most :data:`AFFINE_RTOL`
  relative and leaves its best F1 equal;
- **rate**: every row repeated k times, read at ``preprocess.downsample: k``, gives the
  original run bit for bit;
- **locality**: a prefix of the test split scores as the whole split does, bit for bit,
  but for the tails :func:`_tails` names;
- **names**: renaming the channels, or writing the label column first and reading it
  back, changes no bit.
"""

import dataclasses

import numpy as np
import pytest

from nominality import LabeledSeries, load_csv
from nominality.config import TrigSpec, config_from_dict
from nominality.evaluation import auc_and_best_f1
from nominality.pipeline import fit_models, score_split
from nominality.series import write_csv
from nominality.synthetic import gen_trig

SEED = 24
CFG = config_from_dict({"point_model": {"epochs": 2}})
DATA = gen_trig(TrigSpec(n_channels=4, n_train=3000, n_test=2000, seed=0, segments=(
    (800, 900, "frequency-shift"), (1500, 1501, "point-noise"))))
#: The most a positive affine map of the channels may move a score, relative to it: the
#: scaled values round differently, and the sequence model's solve carries that further.
AFFINE_RTOL = 1e-8


def _run(cfg, train, test):
    return score_split(cfg, fit_models(cfg, train), test)


def _scores(bundle):
    return bundle.anomaly, bundle.seq_anomaly, bundle.nominality, bundle.induced


def _assert_same(got, want):
    """Every score, its time origin, the labels and θ of ``got`` are ``want``'s, bit for bit."""
    for a, b in zip(_scores(got), _scores(want)):
        assert a.time_origin == b.time_origin
        assert a.scores.tobytes() == b.scores.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()
    assert np.float64(got.theta).tobytes() == np.float64(want.theta).tobytes()


def _mapped(series, scale, shift=0.0):
    return dataclasses.replace(series, values=series.values * scale + shift)


@pytest.fixture(scope="module")
def base():
    return _run(CFG, DATA.train, DATA.test)


def test_power_of_two_scale_keeps_every_bit(base):
    """Min-max scaling divides a power of two out exactly."""
    scale = 2.0 ** np.random.default_rng(SEED).integers(-20, 20, DATA.train.n_channels)
    _assert_same(_run(CFG, _mapped(DATA.train, scale), _mapped(DATA.test, scale)), base)


def test_affine_map_keeps_scores_and_best_f1(base):
    rng = np.random.default_rng(SEED + 1)
    scale, shift = rng.uniform(0.1, 1e4, 4), rng.uniform(-1e3, 1e3, 4)
    got = _run(CFG, _mapped(DATA.train, scale, shift), _mapped(DATA.test, scale, shift))
    for a, b in zip(_scores(got), _scores(base)):
        assert a.time_origin == b.time_origin
        np.testing.assert_allclose(a.scores, b.scores, rtol=AFFINE_RTOL, atol=0)
        assert auc_and_best_f1(a, got.labels)[1] == auc_and_best_f1(b, base.labels)[1]
    assert got.theta == pytest.approx(base.theta, rel=AFFINE_RTOL, abs=0)


# k = 3 is left out: the block mean of three copies of x, (x + x + x) / 3, need not be x
@pytest.mark.parametrize("k", [2, 4])
def test_repeated_rows_downsampled_keep_every_bit(base, k):
    """Each block of k equal rows averages back to its row, and its label is the row's."""
    cfg = dataclasses.replace(CFG, preprocess=dataclasses.replace(CFG.preprocess, downsample=k))
    def repeated(series):
        return LabeledSeries(np.repeat(series.values, k, axis=0), np.repeat(series.labels, k),
                             series.channel_names)
    _assert_same(_run(cfg, repeated(DATA.train), repeated(DATA.test)), base)


def _tails(cfg):
    """The points at the end of each score that may depend on the rows after them.  The
    sequence model's final block is anchored at the end of the split, which moves the
    last δ points of the sequence score and the nominality.  The induced score at t sums
    the anomaly scores up to t + d, gated by the nominality up to t + d - 1."""
    delta = cfg.sequence_model.delta
    return 0, delta, delta, cfg.gate.d + delta - 1


# Prefix lengths in rows: the scored length, the downsampled rows less 2γ = 50, is on the
# δ = 6 grid for 1202 and 1730 rows at downsample 1 and for 1000 and 1312 rows at 2, and off
# it for the others.
@pytest.mark.parametrize("factor, lengths", [(1, (1000, 1202, 1730, 1999)),
                                             (2, (1000, 1202, 1312, 1800))])
def test_prefix_scores_as_the_whole_split(factor, lengths):
    cfg = dataclasses.replace(CFG, preprocess=dataclasses.replace(CFG.preprocess,
                                                                  downsample=factor))
    models = fit_models(cfg, DATA.train)
    whole = score_split(cfg, models, DATA.test)
    for n in lengths:
        test = LabeledSeries(DATA.test.values[:n], DATA.test.labels[:n], DATA.test.channel_names)
        for a, b, tail in zip(_scores(score_split(cfg, models, test)), _scores(whole),
                              _tails(cfg)):
            assert a.time_origin == b.time_origin
            kept = len(a) - tail
            assert a.scores[:kept].tobytes() == b.scores[:kept].tobytes(), (n, tail)


def test_channel_names_change_no_bit(base):
    names = ("pump", "flow", "valve", "level")
    _assert_same(_run(CFG, dataclasses.replace(DATA.train, channel_names=names),
                      dataclasses.replace(DATA.test, channel_names=names)), base)


def test_label_column_first_changes_no_bit(base, tmp_path):
    """Each split written with its label column first and read back by name."""
    splits = []
    for name, split in (("train", DATA.train), ("test", DATA.test)):
        path = str(tmp_path / f"{name}.csv")
        write_csv(path, ["label", *split.channel_names], [split.labels, split.values])
        splits.append(load_csv(path, label_column="label"))
    _assert_same(_run(CFG, *splits), base)
