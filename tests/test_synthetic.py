"""Generators and distribution-check machinery."""

import math

import numpy as np
import pytest
from scipy import special, stats

from nominality import ConfigError, TrigSpec, gen_trig, trig_preset
from toy_law import (
    ToySpec,
    ToySpecError,
    f_reference_sample,
    gen_toy,
    kolmogorov_sf,
    ks_critical_value,
    ks_statistic,
    toy_f_variate,
)


class TestToyDataset:
    def test_deterministic(self):
        spec = ToySpec(n_channels=3, alpha=2.0, n_normal=100, n_anomaly=50, seed=9)
        a, b = gen_toy(spec), gen_toy(spec)
        np.testing.assert_array_equal(a.nominality, b.nominality)
        np.testing.assert_array_equal(a.context_dev, b.context_dev)

    def test_counts_and_ratio_definition(self):
        spec = ToySpec(n_channels=2, alpha=2.0, n_normal=40, n_anomaly=10, seed=1)
        res = gen_toy(spec)
        assert res.labels.sum() == 10 and len(res.labels) == 50
        expected = (res.context_dev**2).sum(1) / ((res.context_dev + res.point_dev) ** 2).sum(1)
        np.testing.assert_array_equal(res.nominality, expected)

    def test_alpha_one_populations_indistinguishable(self):
        # With no noise inflation the two populations are the same process,
        # so a two-sample KS test at 1% must not reject.
        res = gen_toy(ToySpec(n_channels=2, alpha=1.0, n_normal=20_000, n_anomaly=20_000, seed=2))
        stat = ks_statistic(res.normal_nominality, res.anomaly_nominality)
        assert stat < ks_critical_value(20_000, 20_000, 0.01)

    def test_median_of_scaled_normal_ratio_near_one(self):
        res = gen_toy(ToySpec(n_channels=2, alpha=2.0, n_normal=100_000, n_anomaly=1, seed=3))
        assert abs(np.median(2.0 * res.normal_nominality) - 1.0) < 0.02

    def test_scaled_means_close_at_high_dimension(self):
        # Verified numerically: the scaled normal and anomaly means agree to
        # ~6e-3 at D=100 with 1e5 samples (they are close, not identical).
        res = gen_toy(ToySpec(n_channels=100, alpha=2.0, n_normal=50_000, n_anomaly=50_000, seed=4))
        mean_normal = float((2.0 * res.normal_nominality).mean())
        mean_anomaly = float((5.0 * res.anomaly_nominality).mean())
        assert abs(mean_normal - mean_anomaly) < 0.02

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("dim", [1, 2, 10, 100])
    def test_mapped_ratio_exactly_f_distributed(self, dim, alpha):
        # One-sample KS of r_alpha(N) against the true F(D, D) CDF checks the
        # exact law (tests/toy_law.py) independently of f_reference_sample.
        res = gen_toy(ToySpec(n_channels=dim, alpha=alpha, n_normal=1,
                              n_anomaly=20_000, seed=dim))
        result = stats.kstest(toy_f_variate(res.anomaly_nominality, alpha),
                              stats.f(dim, dim).cdf)
        assert result.pvalue > 0.001

    @pytest.mark.parametrize("dim", [2, 100])
    def test_appropriateness_dominance(self, dim):
        res = gen_toy(ToySpec(n_channels=dim, alpha=2.0, n_normal=30_000, n_anomaly=30_000, seed=5))
        n_n, n_a = res.normal_nominality, res.anomaly_nominality
        grid = np.quantile(np.concatenate([n_n, n_a]), np.linspace(0.02, 0.98, 50))
        for theta in grid:
            surv_n = (n_n > theta).mean()
            surv_a = (n_a > theta).mean()
            if surv_n > 1e-3 and surv_a > 1e-3:
                assert surv_n > surv_a

    def test_bad_spec(self):
        with pytest.raises(ToySpecError):
            ToySpec(n_channels=0, alpha=2.0, n_normal=1, n_anomaly=1)
        with pytest.raises(ToySpecError):
            ToySpec(n_channels=2, alpha=0.0, n_normal=1, n_anomaly=1)


class TestFReference:
    def test_median_near_one(self):
        sample = f_reference_sample(5, 100_000, seed=0)
        assert abs(np.median(sample) - 1.0) < 0.02

    def test_half_mass_below_one_at_d2(self):
        sample = f_reference_sample(2, 100_000, seed=1)
        assert abs((sample <= 1.0).mean() - 0.5) < 0.01

    @pytest.mark.parametrize("dim", [1, 2, 10])
    def test_exactly_f_distributed(self, dim):
        # One-sample KS against the true F CDF validates the construction.
        sample = f_reference_sample(dim, 20_000, seed=dim)
        result = stats.kstest(sample, stats.f(dim, dim).cdf)
        assert result.pvalue > 0.001

    def test_deterministic(self):
        np.testing.assert_array_equal(
            f_reference_sample(3, 1000, seed=7), f_reference_sample(3, 1000, seed=7)
        )


class TestKolmogorovSmirnov:
    @pytest.mark.parametrize("seed", range(8))
    def test_statistic_matches_scipy(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 1, int(rng.integers(10, 500)))
        y = rng.normal(0.2, 1.1, int(rng.integers(10, 500)))
        ours = ks_statistic(x, y)
        theirs = stats.ks_2samp(x, y, method="asymp").statistic
        assert ours == pytest.approx(theirs, abs=1e-12)

    def test_survival_function_matches_scipy(self):
        for x in (0.3, 0.7, 1.0, 1.5, 2.0):
            assert kolmogorov_sf(x) == pytest.approx(special.kolmogorov(x), abs=1e-12)

    def test_critical_value_inverts_sf(self):
        crit = ks_critical_value(1000, 2000, 0.01)
        scaled = crit / math.sqrt((1000 + 2000) / (1000 * 2000))
        assert kolmogorov_sf(scaled) == pytest.approx(0.01, abs=1e-6)

    def test_same_distribution_rarely_rejects(self):
        rng = np.random.default_rng(42)
        rejections = 0
        for _ in range(20):
            x = rng.normal(0, 1, 2000)
            y = rng.normal(0, 1, 2000)
            if ks_statistic(x, y) > ks_critical_value(2000, 2000, 0.01):
                rejections += 1
        assert rejections <= 1


class TestTrig:
    def test_preset_anomaly_rate(self):
        res = gen_trig(trig_preset(0))
        assert abs(res.anomaly_rate * 100 - 2.34) <= 0.05

    def test_train_split_clean(self):
        res = gen_trig(trig_preset(1))
        assert res.train.labels.sum() == 0
        assert res.train.n_times == 10_000 and res.test.n_times == 7_680

    def test_labels_exactly_on_segments(self):
        spec = TrigSpec(
            n_channels=3, n_train=200, n_test=300,
            segments=((50, 60, "frequency-shift"), (100, 101, "point-noise")),
            seed=3,
        )
        res = gen_trig(spec)
        expected = np.zeros(300, dtype=int)
        expected[50:60] = 1
        expected[100] = 1
        np.testing.assert_array_equal(res.test.labels, expected)

    def test_no_segments_no_labels(self):
        res = gen_trig(TrigSpec(n_channels=2, n_train=100, n_test=100, seed=0))
        assert res.test.labels.sum() == 0

    def test_deterministic(self):
        a = gen_trig(trig_preset(5))
        b = gen_trig(trig_preset(5))
        np.testing.assert_array_equal(a.test.values, b.test.values)

    def test_frequency_shift_stays_within_amplitude_bounds(self):
        res = gen_trig(trig_preset(0))
        spec = trig_preset(0)
        seg = next(s for s in spec.segments if s[2] == "frequency-shift")
        inside = np.abs(res.test.values[seg[0] : seg[1]]).max()
        normal_mask = res.test.labels == 0
        outside = np.abs(res.test.values[normal_mask]).max()
        assert inside <= outside

    def test_point_noise_leaves_amplitude_bounds(self):
        spec = trig_preset(0)
        res = gen_trig(spec)
        point_rows = [s for s, e, k in spec.segments if k == "point-noise"]
        peak = np.abs(res.test.values[point_rows]).max(axis=1)
        normal_peak = np.abs(res.test.values[res.test.labels == 0]).max()
        assert (peak > normal_peak).mean() > 0.9

    def test_overlapping_segments_rejected(self):
        with pytest.raises(ConfigError, match="^synth.options.segments must not overlap"):
            TrigSpec(
                n_channels=2, n_train=100, n_test=100,
                segments=((10, 30, "frequency-shift"), (20, 40, "point-noise")),
            )

    def test_out_of_bounds_segment_rejected(self):
        with pytest.raises(ConfigError, match="^synth.options.segments must have 0 <= start"):
            TrigSpec(n_channels=2, n_train=100, n_test=100,
                     segments=((90, 120, "frequency-shift"),))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="^synth.options.segments kind must be one of"):
            TrigSpec(n_channels=2, n_train=100, n_test=100,
                     segments=((10, 20, "wobble"),))

    def test_waveform_follows_its_stated_formula(self):
        """Channel j is sin(2 pi f_j t + p_j), f_j = 0.008 + 0.004 j and p_j = 2 pi phi j
        (mod 2 pi), plus normal noise of sigma 0.02.  The time base t advances by 0.45 in
        a frequency-shift row and by 1 elsewhere, an amplitude-shift scales the waveform
        by 1.75, and point noise adds +-1 after the noise, drawn after it from the seed."""
        n_train, n_test, n_channels, seed = 40, 60, 3, 4
        segments = ((5, 15, "frequency-shift"), (20, 30, "amplitude-shift"),
                    (40, 42, "point-noise"), (50, 51, "point-noise"))
        res = gen_trig(TrigSpec(n_channels=n_channels, n_train=n_train, n_test=n_test,
                                segments=segments, seed=seed))
        kinds = {n_train + row: kind for start, end, kind in segments
                 for row in range(start, end)}
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        total = n_train + n_test
        angles, scale, t = np.empty((total, n_channels)), np.empty((total, 1)), 0.0
        for row in range(total):
            for j in range(n_channels):
                phase = (2.0 * math.pi * golden * j) % (2.0 * math.pi)
                angles[row, j] = 2.0 * math.pi * t * (0.008 + 0.004 * j) + phase
            scale[row] = 1.75 if kinds.get(row) == "amplitude-shift" else 1.0
            t += 0.45 if kinds.get(row) == "frequency-shift" else 1.0
        rng = np.random.default_rng(seed)
        expected = np.sin(angles) * scale + rng.normal(0.0, 0.02, angles.shape)
        for start, end, kind in segments:
            if kind == "point-noise":
                expected[n_train + start : n_train + end] += rng.choice(
                    [-1.0, 1.0], size=(end - start, n_channels))
        labels = np.array([row in kinds for row in range(total)], dtype=np.int64)
        for split, rows in ((res.train, slice(None, n_train)), (res.test, slice(n_train, None))):
            assert split.values.tobytes() == expected[rows].tobytes()
            assert split.labels.tobytes() == labels[rows].tobytes()
