"""Threshold-sweep metrics against brute-force oracles."""

import json
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import mannwhitneyu

from nominality import (
    DegenerateLabels,
    LabelError,
    ScoreSeries,
    ShapeError,
    auc,
    best_f1,
    confusion,
    evaluate,
    gate,
    pa_best_f1,
    point_adjust,
)
from nominality import evaluation
from nominality.config import config_from_dict
from nominality.evaluation import (
    _f1_from_counts,
    auc_and_best_f1,
    auc_trapezoid,
    best_f1_bruteforce,
    pa_best_f1_bruteforce,
)
from nominality.pipeline import ScoreBundle, sweep_table
from nominality.scoring import induction_sums
from nominality.series import write_json


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
        thresholds, tp, fp = report.curve.T
        # the first row predicts every point positive
        assert (tp[0], fp[0]) == (report.positives, report.negatives) == (
            labels.sum(), labels.shape[0] - labels.sum())
        assert (np.diff(tp) <= 0).all() and (np.diff(fp) <= 0).all()
        _, _, f1 = _f1_from_counts(tp, fp, report.positives - tp)
        assert report.best_f1 == f1.max()
        # sentinel row: everything predicted negative
        assert thresholds[-1] > scores.max()
        assert tp[-1] == fp[-1] == 0.0

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
    """The sorted-class sweep against its definitions on heavily tied scores."""

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
        counts = np.array([confusion(scores >= t, labels)[:2] for t in thresholds])
        expected = np.column_stack([thresholds, counts])
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


EVALUATORS = [best_f1, auc, pa_best_f1, evaluate, best_f1_bruteforce, pa_best_f1_bruteforce,
              auc_trapezoid, point_adjust, confusion]


@pytest.mark.parametrize("metric", EVALUATORS, ids=[m.__name__ for m in EVALUATORS])
@pytest.mark.parametrize("labels", [[0, 2, 0, 2, 0], [-1, 0, 1, 1, 0]], ids=["two", "minus-one"])
def test_label_outside_0_1_raises(metric, labels):
    """The sweep splits the scores by ``label == 1``, so any other nonzero label is refused;
    so is it where a prediction (here the scores, nonzero) meets the labels."""
    with pytest.raises(LabelError, match="only 0 or 1"):
        metric(np.array([0.1, 0.9, 0.5, 0.7, 0.2]), np.array(labels))


HUGE = np.finfo(np.float64).max
EDGE_CASES = {
    "mixed-tie-group": ([0.3, 0.5, 0.5, 0.5, 0.5, 0.9, 0.1], [0, 1, 0, 1, 0, 1, 0]),
    "signed-zeros": ([0.0, -0.0, 1.0, -0.0, 0.0, -1.0, 0.0], [0, 1, 1, 0, 1, 0, 0]),
    "all-equal": ([2.5] * 6, [0, 1, 1, 0, 0, 1]),
    "single-positive": ([0.4, 0.1, 0.8, 0.3, 0.8, 0.2], [0, 0, 1, 0, 0, 0]),
    "positives-at-minimum": ([1.0, 1.0, 2.0, 3.0, 4.0, 1.5], [1, 1, 0, 0, 0, 0]),
    "positives-at-maximum": ([1.0, 4.0, 2.0, 4.0, 3.0, 4.0], [0, 1, 0, 1, 0, 0]),
    "near-float-max": ([1.7e308, HUGE, 1.0e308, HUGE, 1.79e308, -1.0e308], [0, 1, 0, 0, 1, 1]),
    "runs-at-both-ends": ([0.9, 0.2, 0.1, 0.7, 0.3, 0.6, 0.5, 0.2, 0.4, 0.8],
                          [1, 1, 0, 1, 0, 0, 1, 0, 1, 1]),
    "one-point-runs": ([0.5, 0.6, 0.1, 0.9, 0.2, 0.6, 0.3, 0.4], [1, 0, 1, 0, 1, 0, 0, 1]),
}


@pytest.mark.parametrize("scores, labels", [pytest.param(np.array(s), np.array(l), id=name)
                                            for name, (s, l) in EDGE_CASES.items()])
def test_kernel_edge_cases_match_the_oracles(scores, labels):
    report = evaluate(scores, labels)
    assert (report.best_f1, report.best_threshold) == best_f1_bruteforce(scores, labels)
    assert report.pa_best_f1 == pa_best_f1_bruteforce(scores, labels)
    pos, neg = scores[labels == 1], scores[labels == 0]
    assert report.auc == mannwhitneyu(pos, neg).statistic / (pos.shape[0] * neg.shape[0])
    assert report.auc == pytest.approx(auc_trapezoid(scores, labels), abs=1e-10)
    assert auc_and_best_f1(scores, labels) == (report.auc, report.best_f1)
    # the curve: each distinct value (either zero names the signed-zero group), then the
    # sentinel, which is inf where max + 1 rounds back to the max
    sentinel = np.inf if scores.max() == HUGE else scores.max() + 1
    thresholds = np.append(np.unique(scores), sentinel)
    counts = np.array([confusion(scores >= t, labels)[:2] for t in thresholds])
    assert np.array_equal(report.curve, np.column_stack([thresholds, counts]))


class TestEvaluate:
    @pytest.mark.parametrize("seed", range(10))
    def test_one_sweep_same_figures(self, monkeypatch, seed):
        # evaluate splits and sorts the scores once for best F1, AUC and
        # the point-adjusted F1.
        scores, labels = random_instance(seed)
        calls = []
        sweep = evaluation._sweep
        monkeypatch.setattr(evaluation, "_sweep", lambda *a: calls.append(1) or sweep(*a))
        report = evaluate(scores, labels)
        assert len(calls) == 1
        assert report.pa_best_f1 == pa_best_f1(scores, labels)
        assert report.auc == auc(scores, labels)
        assert (report.best_f1, report.best_threshold) == best_f1_bruteforce(scores, labels)

    @pytest.mark.parametrize("seed", range(10))
    def test_auc_and_best_f1_are_the_reports(self, seed):
        """Every sweep table row's AUC and best F1 equal evaluate's, bit for bit."""
        scores, labels = random_instance(seed)
        bundle = ScoreBundle(ScoreSeries(scores), ScoreSeries(scores[::-1].copy()),
                             ScoreSeries(np.abs(scores)),
                             ScoreSeries(scores), labels, 1.0)
        d_values = [1, 2, 8]
        rows = sweep_table(config_from_dict({"sweep": {"d_values": d_values}}), bundle)["rows"]
        for name, series in (("point", bundle.anomaly), ("sequence", bundle.seq_anomaly)):
            report = evaluate(series, labels)
            assert rows[name]["auc"] == [report.auc] * len(d_values)
            assert rows[name]["best_f1"] == [report.best_f1] * len(d_values)
        gates = {
            "hard_theta_inf": np.ones_like(scores),
            "hard_theta_pct": gate("hard", 1.0, bundle.nominality.scores),
            "soft_theta_pct": gate("soft", 1.0, bundle.nominality.scores),
        }
        for name, g in gates.items():
            reports = [evaluate(induced, labels) for induced in induction_sums(scores, g, d_values)]
            assert rows[name]["auc"] == [r.auc for r in reports], name
            assert rows[name]["best_f1"] == [r.best_f1 for r in reports], name

    def test_json_roundtrip(self, tmp_path):
        scores, labels = random_instance(5)
        report = evaluate(scores, labels)
        path = str(tmp_path / "eval_report.json")
        write_json(report.summary(), path)
        doc = json.loads(Path(path).read_text())
        assert set(doc) == {"best_f1", "best_threshold", "precision", "recall", "auc",
                            "positives", "negatives", "pa_best_f1"}
        for key, value in doc.items():
            assert value == getattr(report, key), key
