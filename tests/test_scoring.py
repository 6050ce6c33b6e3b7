"""Score calculus: gates, induced score, threshold resolution."""

import numpy as np
import pytest

from nominality import (
    ConfigError,
    EmptyInput,
    GateConfig,
    LabeledSeries,
    ShapeError,
    anomaly_score,
    best_f1,
    gate,
    induced_anomaly_score,
    make_pair,
    nominality_score,
    resolve_theta,
    smoothed_score,
    theta_from_percentile,
)
from nominality.errors import NonFiniteValue
from nominality.scoring import NOMINALITY_EPSILON, induced_anomaly_score_naive, induction_sums
from nominality.series import ScoreSeries


def pair_from(xc, xstar, observed):
    xc = np.atleast_2d(np.asarray(xc, dtype=float))
    xstar = np.atleast_2d(np.asarray(xstar, dtype=float))
    return make_pair(LabeledSeries(observed), xc, xstar, 0)


class TestAnomalyScore:
    def test_unit_distance(self):
        pair = pair_from([[1.0, 0.0]], [[0.0, 0.0]], [[2.0, 0.0]])
        assert anomaly_score(pair).scores[0] == 1.0

    def test_zero_when_exact(self):
        pair = pair_from([[3.0, 4.0]], [[0.0, 0.0]], [[3.0, 4.0]])
        assert anomaly_score(pair).scores[0] == 0.0

    def test_squared_norm(self):
        pair = pair_from([[0.0, 0.0]], [[0.0, 0.0]], [[3.0, 4.0]])
        assert anomaly_score(pair).scores[0] == 25.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            pair_from([[0.0, 0.0]], [[0.0, 0.0]], [[1.0, 2.0], [3.0, 4.0]])


class TestNominalityScore:
    def test_quarter_ratio(self):
        pair = pair_from([[1.0, 0.0]], [[0.0, 0.0]], [[2.0, 0.0]])
        n = nominality_score(pair)
        assert n.scores[0] == 1.0 / (4.0 + NOMINALITY_EPSILON)

    def test_perfect_point_reconstruction_gives_one(self):
        pair = pair_from([[2.0, 1.0]], [[0.5, 0.5]], [[2.0, 1.0]])
        n = nominality_score(pair)
        assert n.scores[0] == pytest.approx(1.0, rel=1e-9)

    def test_matching_reconstructions_give_zero(self):
        pair = pair_from([[0.5, 0.5]], [[0.5, 0.5]], [[2.0, 1.0]])
        n = nominality_score(pair)
        assert n.scores[0] == 0.0

    def test_epsilon_guards_zero_denominator(self):
        pair = pair_from([[1.0, 0.0]], [[0.0, 0.0]], [[0.0, 0.0]])  # observed == xstar
        n = nominality_score(pair)
        assert np.isfinite(n.scores[0])


class TestGate:
    def test_soft_midpoint(self):
        assert gate("soft", 2.0, 1.0) == 0.5

    def test_soft_clips_to_zero(self):
        assert gate("soft", 2.0, 3.0) == 0.0

    def test_hard_strict_inequality(self):
        assert gate("hard", 2.0, 1.999) == 1.0
        assert gate("hard", 2.0, 2.0) == 0.0

    def test_vectorized_and_nonincreasing(self):
        n = np.linspace(0, 5, 50)
        for kind in ("soft", "hard"):
            g = gate(kind, 2.0, n)
            assert (np.diff(g) <= 0).all()
            assert ((0 <= g) & (g <= 1)).all()

    def test_bad_theta(self):
        with pytest.raises(ConfigError,
                           match=r"^gate\.theta_n must be a finite number > 0, got 0\.0$"):
            gate("soft", 0.0, 1.0)

    def test_soft_gate_at_tiny_theta_is_exact_without_a_warning(self):
        """1 / 5e-324 overflows; the gate there is exactly 0, and the RuntimeWarning
        filter of the test suite would turn a warning into an error."""
        np.testing.assert_array_equal(gate("soft", 5e-324, [0.0, 1.0]), [1.0, 0.0])


class TestInducedScore:
    def test_d_zero_is_identity(self):
        a = ScoreSeries([1.0, 2.0, 3.0])
        n = ScoreSeries([5.0, 5.0, 5.0])
        out = induced_anomaly_score(a, n, GateConfig("hard", theta_n=1.0, d=0))
        np.testing.assert_array_equal(out.scores, a.scores)

    def test_open_gates_give_moving_sum(self):
        a = ScoreSeries([1.0, 2.0, 3.0])
        n = ScoreSeries([0.0, 0.0, 0.0])
        out = induced_anomaly_score(a, n, GateConfig("hard", theta_n=1.0, d=1))
        assert out.scores.tolist() == [3.0, 6.0, 5.0]

    def test_closed_gates_give_identity(self):
        a = ScoreSeries([1.0, 2.0, 3.0])
        n = ScoreSeries([10.0, 10.0, 10.0])
        out = induced_anomaly_score(a, n, GateConfig("soft", theta_n=5.0, d=2))
        np.testing.assert_array_equal(out.scores, [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            induced_anomaly_score(
                ScoreSeries([1.0, 2.0]), ScoreSeries([1.0]),
                GateConfig("soft", theta_n=1.0, d=1),
            )

    @pytest.mark.parametrize("which", ["anomaly", "nominality"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, which, bad):
        scores = {"anomaly": np.ones(4), "nominality": np.zeros(4)}
        scores[which][2] = bad
        with pytest.raises(ShapeError, match="^scores must be finite$"):
            induced_anomaly_score(scores["anomaly"], scores["nominality"],
                                  GateConfig("soft", theta_n=1.0, d=1))

    def test_overflowing_sum_names_its_row(self):
        """Finite scores whose window sum overflows raise NonFiniteValue naming the
        first row of the sum, without a numpy warning."""
        a = np.array([0.0, 0.0, 0.0, 1e308, 1e308])
        with pytest.raises(NonFiniteValue, match="^scores must be finite$") as exc:
            induced_anomaly_score(a, np.zeros(5), GateConfig("hard", theta_n=1.0, d=1))
        assert exc.value.row == 3

    def test_unresolved_theta_rejected(self):
        with pytest.raises(ShapeError):
            induced_anomaly_score(
                ScoreSeries([1.0]), ScoreSeries([1.0]),
                GateConfig("soft", theta_percentile=98.5, d=1),
            )

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_naive_double_loop(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 120))
        a = rng.exponential(1.0, size)
        n = rng.uniform(0, 3, size)
        cfg = GateConfig(
            kind=("soft", "hard")[seed % 2],
            theta_n=float(rng.uniform(0.5, 2.5)),
            d=int(rng.integers(0, 12)),
        )
        fast = induced_anomaly_score(a, n, cfg).scores
        naive = induced_anomaly_score_naive(a, n, cfg).scores
        rel = np.abs(fast - naive) / np.maximum(np.abs(naive), 1e-300)
        assert rel.max() < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_at_least_anomaly_score_pointwise(self, seed):
        rng = np.random.default_rng(100 + seed)
        a = rng.exponential(1.0, 80)
        n = rng.uniform(0, 3, 80)
        cfg = GateConfig("soft", theta_n=1.5, d=int(rng.integers(0, 10)))
        out = induced_anomaly_score(a, n, cfg).scores
        assert (out >= a).all()

    @pytest.mark.parametrize("seed", range(10))
    def test_raising_nominality_never_raises_score(self, seed):
        rng = np.random.default_rng(200 + seed)
        a = rng.exponential(1.0, 60)
        n = rng.uniform(0, 2, 60)
        cfg = GateConfig(("soft", "hard")[seed % 2], theta_n=1.0, d=4)
        base = induced_anomaly_score(a, n, cfg).scores
        raised = n.copy()
        k = int(rng.integers(0, 60))
        raised[k] += rng.uniform(0.1, 2.0)
        after = induced_anomaly_score(a, raised, cfg).scores
        assert (after <= base).all()


class TestDoublingKernel:
    """Edges of the O(T log d) scan: odd d, clipping, tiny series, closed gates."""

    @staticmethod
    def check_against_naive(size, d, kind, seed):
        rng = np.random.default_rng(seed)
        a = rng.exponential(1.0, size)
        n = rng.uniform(0, 3, size)
        cfg = GateConfig(kind, theta_n=float(rng.uniform(0.5, 2.5)), d=d)
        fast = induced_anomaly_score(a, n, cfg).scores
        naive = induced_anomaly_score_naive(a, n, cfg).scores
        rel = np.abs(fast - naive) / np.maximum(np.abs(naive), 1e-300)
        assert rel.max() < 1e-12
        closed = gate(kind, cfg.theta_n, n) == 0
        assert np.array_equal(fast[closed], a[closed])

    @pytest.mark.parametrize("kind", ["soft", "hard"])
    @pytest.mark.parametrize("d", [3, 5, 7, 100])
    def test_d_not_power_of_two(self, d, kind):
        self.check_against_naive(150, d, kind, seed=d)

    @pytest.mark.parametrize("kind", ["soft", "hard"])
    @pytest.mark.parametrize("d", [9, 10, 11, 64])
    def test_d_clipped_to_length(self, d, kind):
        self.check_against_naive(10, d, kind, seed=d)

    @pytest.mark.parametrize("kind", ["soft", "hard"])
    @pytest.mark.parametrize("size", [1, 2])
    @pytest.mark.parametrize("d", [0, 1, 2, 5])
    def test_tiny_series(self, size, d, kind):
        self.check_against_naive(size, d, kind, seed=10 * size + d)

    @pytest.mark.parametrize("kind", ["soft", "hard"])
    @pytest.mark.parametrize("d", [77, 100])
    def test_long_chains(self, d, kind):
        # a threshold far above every nominality keeps the chains alive to d
        rng = np.random.default_rng(d)
        a = rng.exponential(1.0, 300)
        n = rng.uniform(0, 0.1, 300)
        cfg = GateConfig(kind, theta_n=50.0, d=d)
        fast = induced_anomaly_score(a, n, cfg).scores
        naive = induced_anomaly_score_naive(a, n, cfg).scores
        assert (np.abs(fast - naive) / naive).max() < 1e-12


def _shifted(x, k):
    out = np.zeros_like(x)
    out[k:] = x[: x.shape[0] - k]
    return out


def _per_d_left_sum(a, g, d):
    """The doubling scan for one d, building its own blocks: the reference for shared blocks."""
    span_p, span_s = g, _shifted(a, 1) * g
    acc_p = acc_s = None
    acc_len, span = 0, 1
    while span <= d:
        if d & span:
            if acc_s is None:
                acc_p, acc_s = span_p, span_s
            else:
                acc_s = acc_s + acc_p * _shifted(span_s, acc_len)
                acc_p = acc_p * _shifted(span_p, acc_len)
            acc_len += span
        if 2 * span <= d:
            span_s = span_s + span_p * _shifted(span_s, span)
            span_p = span_p * _shifted(span_p, span)
        span *= 2
    return np.zeros_like(a) if acc_s is None else acc_s


def _per_d_induction_sum(a, g, d):
    d = min(d, a.shape[0] - 1)
    return a + _per_d_left_sum(a, g, d) + _per_d_left_sum(a[::-1], g[::-1], d)[::-1]


class TestSharedBlocks:
    """induction_sums builds each side's blocks once for all d and keeps every d's bits."""

    @pytest.mark.parametrize("gate_kind", ["open", "soft", "hard"])
    @pytest.mark.parametrize("size", [1, 2, 300])
    def test_equals_per_d_scan(self, size, gate_kind):
        rng = np.random.default_rng(size)
        a = rng.exponential(1.0, size)
        n = rng.uniform(0, 3, size)
        g = np.ones(size) if gate_kind == "open" else gate(gate_kind, 1.5, n)
        d_values = [257, 0, 1, 2, 3, 5, 16, 255, 256, size - 1, size, 10 * size, 3, 0]
        got = induction_sums(a, g, d_values)
        assert len(got) == len(d_values)
        for d, sums in zip(d_values, got):
            np.testing.assert_array_equal(sums, _per_d_induction_sum(a, g, d), err_msg=f"d={d}")

    def test_induced_and_smoothed_scores_share_the_kernel(self):
        rng = np.random.default_rng(3)
        a, n = rng.exponential(1.0, 200), rng.uniform(0, 3, 200)
        cfg = GateConfig("soft", theta_n=1.5, d=37)
        np.testing.assert_array_equal(induced_anomaly_score(a, n, cfg).scores,
                                      _per_d_induction_sum(a, gate("soft", 1.5, n), 37))
        np.testing.assert_array_equal(smoothed_score(a, 37).scores,
                                      _per_d_induction_sum(a, np.ones(200), 37))


class TestClaims:
    """Gate-choice guarantees, checked on random labeled instances."""

    def make_instance(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(32, 257))
        labels = np.zeros(size, dtype=np.int64)
        n_anom = max(1, int(round(size * rng.uniform(0.05, 0.30))))
        labels[rng.choice(size, n_anom, replace=False)] = 1
        a = rng.gamma(2.0, 1.0, size)
        n = np.where(labels == 1, rng.uniform(0.1, 1.5, size), rng.uniform(0.5, 2.0, size))
        return a, n, labels

    @pytest.mark.parametrize("seed", range(40))
    def test_soft_gate_with_min_normal_threshold(self, seed):
        a, n, labels = self.make_instance(seed)
        theta1 = float(n[labels == 0].min())
        cfg = GateConfig("soft", theta_n=theta1, d=int((seed % 8) + 1))
        induced = induced_anomaly_score(a, n, cfg).scores
        normal = labels == 0
        np.testing.assert_array_equal(induced[normal], a[normal])
        assert (induced >= a).all()
        assert best_f1(induced, labels).best_f1 >= best_f1(a, labels).best_f1

    @pytest.mark.parametrize("seed", range(40))
    def test_hard_gate_beats_open_gate_at_d1(self, seed):
        a, n, labels = self.make_instance(seed)
        theta2 = float(n[labels == 1].max()) + 0.25
        gated = induced_anomaly_score(a, n, GateConfig("hard", theta_n=theta2, d=1)).scores
        open_gate = induced_anomaly_score(
            a, n, GateConfig("hard", theta_n=np.finfo(np.float64).max, d=1)
        ).scores
        anomalous = labels == 1
        np.testing.assert_array_equal(gated[anomalous], open_gate[anomalous])
        assert (gated[~anomalous] <= open_gate[~anomalous]).all()
        assert best_f1(gated, labels).best_f1 >= best_f1(open_gate, labels).best_f1


class TestThetaFromPercentile:
    def test_nearest_rank_midpoint(self):
        assert theta_from_percentile(np.array([1.0, 2.0, 3.0, 4.0]), 50) == 2.0

    def test_single_value(self):
        assert theta_from_percentile(np.array([5.0]), 37.5) == 5.0

    def test_large_grid(self):
        values = np.arange(1.0, 1001.0)
        assert theta_from_percentile(values, 98.5) == 985.0

    @pytest.mark.parametrize("p", range(1, 101))
    def test_integer_percentile_of_one_to_hundred(self, p):
        """The rank is taken from p in decimal: 7 / 100 * 100 rounds above 7 in binary."""
        assert theta_from_percentile(np.arange(1.0, 101.0), p) == p

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            theta_from_percentile(np.array([]), 50)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ShapeError, match="^scores must be finite$"):
            theta_from_percentile(np.array([1.0, bad]), 50)
        with pytest.raises(ShapeError, match="^scores must be finite$"):
            resolve_theta(GateConfig("soft", theta_percentile=50), np.array([1.0, bad]))

    def test_resolve_theta(self):
        cfg = GateConfig("soft", theta_percentile=50, d=3)
        resolved = resolve_theta(cfg, ScoreSeries([1.0, 2.0, 3.0, 4.0]))
        assert resolved.theta_n == 2.0 and resolved.d == 3
        assert resolved.theta_percentile is None


class TestSmoothedScore:
    def test_small_example(self):
        out = smoothed_score(ScoreSeries([1.0, 2.0, 3.0]), 1)
        assert out.scores.tolist() == [3.0, 6.0, 5.0]

    def test_d_zero_identity(self):
        a = ScoreSeries([4.0, 5.0])
        np.testing.assert_array_equal(smoothed_score(a, 0).scores, a.scores)

    def test_non_finite_input_rejected(self):
        with pytest.raises(ShapeError, match="^scores must be finite$"):
            smoothed_score(np.array([1.0, np.nan]), 1)

    @pytest.mark.parametrize("d", [0, 1, 4, 16])
    def test_equals_open_hard_gate_exactly(self, d):
        rng = np.random.default_rng(d)
        a = rng.exponential(1.0, 200)
        n = rng.uniform(0, 100, 200)
        via_gate = induced_anomaly_score(
            a, n, GateConfig("hard", theta_n=np.finfo(np.float64).max, d=d)
        )
        assert np.array_equal(smoothed_score(a, d).scores, via_gate.scores)


class TestGateConfig:
    def test_requires_exactly_one_threshold_source(self):
        with pytest.raises(ConfigError):
            GateConfig("soft", theta_n=1.0, theta_percentile=98.5)
        with pytest.raises(ConfigError):
            GateConfig("soft")

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            GateConfig("soft", theta_n=-1.0)
        with pytest.raises(ConfigError):
            GateConfig("soft", theta_percentile=0.0)
        with pytest.raises(ConfigError):
            GateConfig("soft", theta_n=1.0, d=-1)
        with pytest.raises(ConfigError):
            GateConfig("medium", theta_n=1.0)
