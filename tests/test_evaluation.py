"""Threshold-sweep metrics against brute-force oracles."""

import dataclasses
import json

import numpy as np
import pytest
from scipy.stats import mannwhitneyu

from nominality import (
    DegenerateLabels,
    ScoreSeries,
    ShapeError,
    auc,
    best_f1,
    confusion,
    evaluate,
    pa_best_f1,
    point_adjust,
    spike_augment,
)
from nominality import evaluation
from nominality.evaluation import (
    _f1_from_counts,
    auc_trapezoid,
    best_f1_bruteforce,
    pa_best_f1_bruteforce,
)


def random_instance(seed, max_len=200):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(4, max_len + 1))
    labels = rng.integers(0, 2, size)
    if labels.max() == 0:
        labels[int(rng.integers(size))] = 1
    if labels.min() == 1:
        labels[int(rng.integers(size))] = 0
    # Quantized scores force plenty of ties.
    scores = np.round(rng.normal(labels.astype(float), 1.0), 1)
    return scores, labels


class TestConfusion:
    def test_mixed(self):
        assert confusion([1, 0, 1], [1, 1, 0]) == (1, 1, 1, 0)

    def test_all_correct_positive(self):
        assert confusion([1, 1], [1, 1]) == (2, 0, 0, 0)

    def test_all_zero(self):
        assert confusion([0, 0, 0], [0, 0, 0]) == (0, 0, 0, 3)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            confusion([1, 0], [1])


class TestBestF1:
    def test_perfect_separator(self):
        report = best_f1(np.array([0.1, 0.9, 0.3]), np.array([0, 1, 0]))
        assert report.best_f1 == 1.0
        assert report.best_threshold == 0.9

    def test_tied_scores(self):
        report = best_f1(np.array([0.5, 0.5]), np.array([1, 0]))
        assert report.best_f1 == pytest.approx(2.0 / 3.0)
        assert report.best_threshold == 0.5
        assert report.precision == 0.5 and report.recall == 1.0

    def test_degenerate_labels(self):
        with pytest.raises(DegenerateLabels):
            best_f1(np.array([0.1, 0.2]), np.array([1, 1]))

    def test_curve_invariants(self):
        scores, labels = random_instance(0)
        report = best_f1(scores, labels)
        thresholds, precision, recall, f1 = report.curve.T
        assert report.best_f1 == f1.max()
        # f1 column is the harmonic mean of its own P/R columns
        with np.errstate(invalid="ignore"):
            expected = np.where(
                precision + recall > 0, 2 * precision * recall / (precision + recall), 0.0
            )
        np.testing.assert_array_equal(f1, expected)
        # sentinel row: everything predicted negative
        assert thresholds[-1] > scores.max()
        assert f1[-1] == 0.0

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_bruteforce_exactly(self, seed):
        scores, labels = random_instance(seed)
        report = best_f1(scores, labels)
        brute_f1, brute_theta = best_f1_bruteforce(scores, labels)
        assert report.best_f1 == brute_f1
        assert report.best_threshold == brute_theta

    @pytest.mark.parametrize("seed", range(10))
    def test_monotone_transform_invariance(self, seed):
        scores, labels = random_instance(seed)
        transformed = np.exp(0.7 * scores) + 3.0
        assert best_f1(scores, labels).best_f1 == best_f1(transformed, labels).best_f1
        assert pa_best_f1(scores, labels) == pa_best_f1(transformed, labels)
        assert auc(scores, labels) == pytest.approx(auc(transformed, labels), abs=1e-12)


class TestPointAdjust:
    def test_run_expansion(self):
        out = point_adjust([0, 1, 0, 0], [0, 1, 1, 0])
        assert out.tolist() == [0, 1, 1, 0]

    def test_no_detection_unchanged(self):
        out = point_adjust([0, 0, 0, 0], [0, 1, 1, 0])
        assert out.tolist() == [0, 0, 0, 0]

    def test_second_run_untouched(self):
        out = point_adjust([1, 0, 0, 0], [1, 1, 0, 1])
        assert out.tolist() == [1, 1, 0, 0]

    def test_false_positives_preserved(self):
        out = point_adjust([1, 0, 1, 0], [0, 1, 1, 0])
        assert out.tolist() == [1, 1, 1, 0]

    @pytest.mark.parametrize("seed", range(10))
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, 50)
        pred = rng.integers(0, 2, 50)
        once = point_adjust(pred, labels)
        twice = point_adjust(once, labels)
        np.testing.assert_array_equal(once, twice)


class TestPaBestF1:
    def test_single_run_with_max_inside_is_perfect(self):
        labels = np.array([0, 0, 1, 1, 1, 0, 0])
        scores = np.array([0.1, 0.2, 0.15, 0.9, 0.1, 0.2, 0.1])
        assert pa_best_f1(scores, labels) == 1.0

    def test_point_anomalies_match_plain_best_f1(self):
        labels = np.array([0, 1, 0, 0, 1, 0])
        scores = np.array([0.1, 0.8, 0.2, 0.3, 0.7, 0.1])
        assert pa_best_f1(scores, labels) == best_f1(scores, labels).best_f1

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_bruteforce_and_dominates(self, seed):
        scores, labels = random_instance(seed)
        fast = pa_best_f1(scores, labels)
        assert fast == pa_best_f1_bruteforce(scores, labels)
        assert fast >= best_f1(scores, labels).best_f1


class TestAuc:
    def test_perfect_separation(self):
        assert auc(np.array([1.0, 2.0, 3.0, 4.0]), np.array([0, 0, 1, 1])) == 1.0

    def test_all_tied_scores(self):
        assert auc(np.array([2.0, 2.0, 2.0, 2.0]), np.array([0, 1, 0, 1])) == 0.5

    def test_reversed_separation(self):
        assert auc(np.array([4.0, 3.0, 2.0, 1.0]), np.array([0, 0, 1, 1])) == 0.0

    def test_degenerate(self):
        with pytest.raises(DegenerateLabels):
            auc(np.array([1.0, 2.0]), np.array([0, 0]))

    @pytest.mark.parametrize("seed", range(30))
    def test_rank_statistic_equals_trapezoid(self, seed):
        scores, labels = random_instance(seed)
        assert auc(scores, labels) == pytest.approx(auc_trapezoid(scores, labels), abs=1e-10)


def heavy_tie_instance(seed):
    """Integer scores with 1-5 distinct values, so most scores are tied."""
    rng = np.random.default_rng(300 + seed)
    size = int(rng.integers(2, 300))
    scores = rng.integers(1, 2 + seed % 5, size).astype(float)
    labels = rng.integers(0, 2, size)
    labels[0], labels[-1] = 0, 1
    return scores, labels


HEAVY_TIES = [heavy_tie_instance(seed) for seed in range(40)] + [
    (np.full(7, 2.5), np.array([0, 1, 0, 0, 1, 1, 0])),  # one tie group
    (np.array([1.0, 1.0]), np.array([1, 0])),
    (np.array([1.0, 2.0]), np.array([0, 1])),
]


class TestRankAndThresholdPath:
    """The one-sort sweep against its definitions on heavily tied scores."""

    @pytest.mark.parametrize(
        "scores, labels",  # ids valuesN, as the grid test's below
        [pytest.param(s, l, id=f"values{i}") for i, (s, l) in enumerate(
            HEAVY_TIES + [(np.array([4.0, 3.0]), np.array([0, 1]))])],
    )
    def test_average_ranks_match_scipy(self, scores, labels):
        """The AUC is scipy's Mann-Whitney U over P * N; scipy takes U from average ranks."""
        pos, neg = scores[labels == 1], scores[labels == 0]
        expected = mannwhitneyu(pos, neg).statistic / (pos.shape[0] * neg.shape[0])
        assert auc(scores, labels) == expected

    @pytest.mark.parametrize("values", [v for v, _ in HEAVY_TIES] + [np.array([4.0])])
    def test_threshold_grid_is_unique_plus_sentinel(self, values):
        # each value once as a negative and once as a positive
        both = best_f1(np.append(values, values), np.repeat([0, 1], values.shape[0]))
        assert np.array_equal(both.curve[:, 0], np.append(np.unique(values), values.max() + 1))

    @pytest.mark.parametrize("scores, labels", HEAVY_TIES)
    def test_curve_matches_grid_and_confusion(self, scores, labels):
        report = best_f1(scores, labels)
        thresholds = np.append(np.unique(scores), scores.max() + 1)
        counts = np.array([confusion(scores >= t, labels)[:3] for t in thresholds])
        precision, recall, f1 = _f1_from_counts(*counts.T)
        expected = np.column_stack([thresholds, precision, recall, f1])
        assert np.array_equal(report.curve, expected)
        assert (report.best_f1, report.best_threshold) == best_f1_bruteforce(scores, labels)
        assert report.auc == auc(scores, labels)
        assert report.auc == pytest.approx(auc_trapezoid(scores, labels), abs=1e-10)

    @pytest.mark.parametrize("seed", range(len(HEAVY_TIES)))
    def test_shuffled_inputs_give_the_same_sweep(self, seed):
        """The sort need not be stable: counts at tie bounds ignore the order inside a tie."""
        scores, labels = HEAVY_TIES[seed]
        perm = np.random.default_rng(seed).permutation(scores.shape[0])
        report, shuffled = best_f1(scores, labels), best_f1(scores[perm], labels[perm])
        assert np.array_equal(report.curve, shuffled.curve)
        assert (report.best_f1, report.best_threshold, report.auc) == (
            shuffled.best_f1, shuffled.best_threshold, shuffled.auc)
        assert auc(scores[perm], labels[perm]) == report.auc

    @pytest.mark.parametrize("metric", [best_f1, auc, pa_best_f1], ids=["best-f1", "auc", "pa"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_score_raises(self, metric, bad):
        scores = np.array([0.1, 0.5, bad, 0.3, 0.9, 0.2])
        with pytest.raises(ShapeError, match="finite"):
            metric(scores, np.array([0, 1, 1, 0, 1, 0]))


class TestSpikeAugment:
    def test_every_point(self):
        out = spike_augment(ScoreSeries([1.0, 2.0, 3.0]), 1)
        assert (out.scores == np.finfo(np.float64).max).all()

    def test_interval_beyond_length(self):
        out = spike_augment(ScoreSeries([1.0, 2.0, 3.0]), 10)
        assert out.scores[0] == np.finfo(np.float64).max
        assert out.scores[1:].tolist() == [2.0, 3.0]

    def test_grid(self):
        out = spike_augment(ScoreSeries(np.zeros(5)), 2)
        spiked = out.scores == np.finfo(np.float64).max
        assert spiked.tolist() == [True, False, True, False, True]

    def test_spiking_helps_pa_recall(self):
        labels = np.zeros(40, dtype=int)
        labels[20:30] = 1
        scores = ScoreSeries(np.linspace(0, 1, 40))
        spiked = spike_augment(scores, 5)
        assert pa_best_f1(spiked, labels) >= pa_best_f1(scores, labels)


class TestEvaluate:
    def test_pa_field_optional(self):
        scores, labels = random_instance(3)
        plain = evaluate(scores, labels)
        assert plain.pa_best_f1 is None
        assert "pa_best_f1" not in json.loads(plain.to_json())
        with_pa = evaluate(scores, labels, point_adjusted=True)
        assert with_pa.pa_best_f1 is not None
        assert "pa_best_f1" in json.loads(with_pa.to_json())

    def test_spiked_variant_reported(self):
        scores, labels = random_instance(4)
        report = evaluate(scores, labels, spike_interval=3)
        assert report.spiked_pa_best_f1 is not None

    @pytest.mark.parametrize("seed", range(10))
    def test_one_sweep_same_figures(self, monkeypatch, seed):
        # evaluate sorts the scores once for best F1, AUC and the
        # point-adjusted F1; the spiked scores are another array.
        scores, labels = random_instance(seed)
        calls = []
        sweep = evaluation._sweep
        monkeypatch.setattr(evaluation, "_sweep", lambda *a: calls.append(1) or sweep(*a))
        report = evaluate(scores, labels, point_adjusted=True, spike_interval=3)
        assert len(calls) == 2
        alone = best_f1(scores, labels)
        assert report.to_json() == dataclasses.replace(
            alone, pa_best_f1=pa_best_f1(scores, labels),
            spiked_pa_best_f1=pa_best_f1(spike_augment(ScoreSeries(scores), 3), labels),
        ).to_json()
        assert report.auc == auc(scores, labels)

    def test_json_roundtrip(self):
        import json

        scores, labels = random_instance(5)
        report = evaluate(scores, labels, point_adjusted=True)
        doc = json.loads(report.to_json())
        assert doc["best_f1"] == report.best_f1
        assert doc["curve"][0][0] == report.curve[0][0]
