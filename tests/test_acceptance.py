"""Acceptance criteria, one test per criterion.

Each test prints one `[criterion N] PASS/INFO` line (visible with -s).
Criterion 5b compares the toy nominality ratios with exact F(D, D) draws
through their exact law: r_alpha(N) is F(D, D)-distributed (derivation in
`toy_law.py`).  The linear rescaling (1 + alpha^2) N is only approximately
F(D, D), because the in-distribution deviation appears in both the
numerator and the denominator of the ratio.
"""

import time

import numpy as np
import pytest

from nominality import (
    GateConfig,
    LabeledSeries,
    PointHyperparams,
    best_f1,
    gen_trig,
    induced_anomaly_score,
    pa_best_f1,
    reconstruct_sequence,
    smoothed_score,
    train_sequence_model,
    trig_preset,
)
from nominality.cli import main
from nominality.config import config_from_dict
from nominality.evaluation import best_f1_bruteforce, pa_best_f1_bruteforce
from nominality.pipeline import fit_models, score_split, sweep_table
from nominality.scoring import induced_anomaly_score_naive
from point_fit_reference import _init_point_model
from toy_law import (
    ToySpec,
    f_reference_sample,
    gen_toy,
    ks_critical_value,
    ks_statistic,
    toy_f_variate,
)


def labeled_instance(seed):
    """Random scores and nominalities; anomalies get stochastically lower N."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(32, 513))
    n_anom = min(size - 1, max(1, int(round(size * rng.uniform(0.05, 0.30)))))
    labels = np.zeros(size, dtype=np.int64)
    labels[rng.choice(size, n_anom, replace=False)] = 1
    a = rng.gamma(2.0, 1.0, size)
    n = np.where(labels == 1, rng.uniform(0.1, 1.5, size), rng.uniform(0.5, 2.0, size))
    return a, n, labels


def test_criterion_1_soft_gate_claim():
    start = time.perf_counter()
    for seed in range(500):
        a, n, labels = labeled_instance(seed)
        theta1 = float(n[labels == 0].min())
        d = int((seed % 8) + 1)
        induced = induced_anomaly_score(a, n, GateConfig("soft", theta_n=theta1, d=d)).scores
        normal = labels == 0
        assert np.array_equal(induced[normal], a[normal]), f"seed {seed}: normals changed"
        assert best_f1(induced, labels).best_f1 >= best_f1(a, labels).best_f1, f"seed {seed}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\n[criterion 1] PASS - soft gate at the minimal normal nominality never "
          f"hurts best F1 (500 instances, {elapsed:.1f}s)")


def test_criterion_2_hard_gate_claim():
    start = time.perf_counter()
    theta_inf = np.finfo(np.float64).max
    for seed in range(500):
        a, n, labels = labeled_instance(1000 + seed)
        theta2 = float(n[labels == 1].max()) + 0.25
        gated = induced_anomaly_score(a, n, GateConfig("hard", theta_n=theta2, d=1)).scores
        open_gate = induced_anomaly_score(a, n, GateConfig("hard", theta_n=theta_inf, d=1)).scores
        anomalous = labels == 1
        assert np.array_equal(gated[anomalous], open_gate[anomalous]), f"seed {seed}"
        assert (gated[~anomalous] <= open_gate[~anomalous]).all(), f"seed {seed}"
        assert best_f1(gated, labels).best_f1 >= best_f1(open_gate, labels).best_f1, f"seed {seed}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\n[criterion 2] PASS - hard gate above all anomaly nominalities beats the "
          f"open gate at d=1 (500 instances, {elapsed:.1f}s)")


def test_criterion_3_smoothing_equivalence():
    theta_max = np.finfo(np.float64).max
    for seed in range(100):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 300))
        a = rng.exponential(1.0, size)
        n = rng.uniform(0, 50, size)
        for d in (0, 1, 4, 16):
            via_gate = induced_anomaly_score(a, n, GateConfig("hard", theta_n=theta_max, d=d))
            assert np.array_equal(smoothed_score(a, d).scores, via_gate.scores), (seed, d)
    print("\n[criterion 3] PASS - open hard gate equals the moving-sum smoother "
          "exactly (100 instances x d in {0,1,4,16})")


def test_criterion_4_induced_score_oracle():
    worst = 0.0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 257))
        a = rng.exponential(1.0, size)
        n = rng.uniform(0, 3, size)
        cfg = GateConfig(
            kind=("soft", "hard")[seed % 2],
            theta_n=float(rng.uniform(0.5, 2.5)),
            d=int(rng.integers(0, 17)),
        )
        fast = induced_anomaly_score(a, n, cfg).scores
        naive = induced_anomaly_score_naive(a, n, cfg).scores
        rel = np.abs(fast - naive) / np.maximum(np.abs(naive), 1e-300)
        worst = max(worst, float(rel.max()))
    assert worst < 1e-12
    print(f"\n[criterion 4] PASS - optimized induced score matches the double-loop "
          f"oracle (200 instances, worst rel err {worst:.2e})")


@pytest.fixture(scope="module")
def toy_samples():
    start = time.perf_counter()
    out = {}
    for dim in (2, 100):
        res = gen_toy(ToySpec(n_channels=dim, alpha=2.0, n_normal=100_000,
                              n_anomaly=100_000, seed=50 + dim))
        ref = f_reference_sample(dim, 100_000, seed=60 + dim)
        out[dim] = (res.normal_nominality.copy(), res.anomaly_nominality.copy(), ref)
    out["elapsed"] = time.perf_counter() - start
    return out


def test_criterion_5a_toy_medians(toy_samples):
    for dim in (2, 100):
        n_n, _, _ = toy_samples[dim]
        median = float(np.median(2.0 * n_n))
        assert abs(median - 1.0) <= 0.02, f"D={dim}: median {median}"
    assert toy_samples["elapsed"] < 60.0
    print("\n[criterion 5a] PASS - median of the scaled normal nominality is 1.0 +- 0.02 "
          "at D=2 and D=100")


def test_criterion_5b_toy_ks_vs_reference(toy_samples):
    # The mapped ratios r_alpha(N) are exactly F(D, D), so they must be
    # two-sample-KS-indistinguishable from exact F(D, D) draws at
    # significance 0.01 with 1e5 samples per side.  alpha = 1 on the normal
    # side, alpha = 2 on the anomaly side.
    alpha = 2.0
    failures = []
    for dim in (2, 100):
        n_n, n_a, ref = toy_samples[dim]
        crit = ks_critical_value(100_000, 100_000, 0.01)
        stat_n = ks_statistic(toy_f_variate(n_n, 1.0), ref)
        stat_a = ks_statistic(toy_f_variate(n_a, alpha), ref)
        if stat_n >= crit:
            failures.append(f"D={dim} normal: KS {stat_n:.4f} >= {crit:.4f}")
        if stat_a >= crit:
            failures.append(f"D={dim} anomaly: KS {stat_a:.4f} >= {crit:.4f}")
    assert not failures, (
        "mapped nominality ratios r_alpha(N) are distinguishable from F(D, D): "
        + "; ".join(failures)
    )
    print("\n[criterion 5b] PASS - mapped ratios r_alpha(N) indistinguishable from F(D, D)")


def test_criterion_5b_linear_scaling_is_rejected(toy_samples):
    # Power check for 5b: the same KS test at the same sizes rejects the
    # linear rescaling (1 + alpha^2) N, which is only approximately F(D, D).
    crit = ks_critical_value(100_000, 100_000, 0.01)
    for dim in (2, 100):
        n_n, n_a, ref = toy_samples[dim]
        stat_n = ks_statistic(2.0 * n_n, ref)
        stat_a = ks_statistic(5.0 * n_a, ref)
        assert stat_n >= crit, f"D={dim} normal: KS {stat_n:.4f} < {crit:.4f}"
        assert stat_a >= crit, f"D={dim} anomaly: KS {stat_a:.4f} < {crit:.4f}"
    print("\n[criterion 5b] INFO - linear rescaling (1 + alpha^2) N is rejected "
          "against F(D, D) at D=2 and D=100")


def test_criterion_5c_toy_appropriateness(toy_samples):
    for dim in (2, 100):
        n_n, n_a, _ = toy_samples[dim]
        grid = np.quantile(np.concatenate([n_n, n_a]), np.linspace(0.02, 0.98, 50))
        checked = 0
        for theta in grid:
            surv_n = float((n_n > theta).mean())
            surv_a = float((n_a > theta).mean())
            if surv_n > 1e-3 and surv_a > 1e-3:
                assert surv_n > surv_a, f"D={dim}, theta={theta}"
                checked += 1
        assert checked > 0
    print("\n[criterion 5c] PASS - normal survival dominates anomaly survival on the "
          "50-point threshold grid at D=2 and D=100")


def test_criterion_6_best_f1_oracle():
    for seed in range(500):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(4, 201))
        labels = rng.integers(0, 2, size)
        if labels.max() == 0:
            labels[int(rng.integers(size))] = 1
        if labels.min() == 1:
            labels[int(rng.integers(size))] = 0
        scores = np.round(rng.normal(labels.astype(float), 1.0), 1)
        report = best_f1(scores, labels)
        brute_f1, brute_theta = best_f1_bruteforce(scores, labels)
        assert report.best_f1 == brute_f1, f"seed {seed}"
        assert report.best_threshold == brute_theta, f"seed {seed}"
        pa_fast = pa_best_f1(scores, labels)
        assert pa_fast == pa_best_f1_bruteforce(scores, labels), f"seed {seed}"
        assert pa_fast >= report.best_f1, f"seed {seed}"
    print("\n[criterion 6] PASS - best F1 and point-adjusted best F1 match brute-force "
          "enumeration exactly on 500 instances")


def test_criterion_7_gradient_check():
    h = 1e-5
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(300 + trial)
        dim = int(rng.integers(2, 7))
        hp = PointHyperparams(
            d_lat=int(rng.integers(1, min(dim, 3) + 1)),
            batch_size=int(rng.integers(1, 9)),
            seed=trial,
        )
        model = _init_point_model(dim, hp)
        batch = rng.standard_normal((hp.batch_size, dim))
        _, grads = model.loss_and_grads(batch)
        for key, grad in grads.items():
            arr = getattr(model, key)
            numeric = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up, _ = model.loss_and_grads(batch)
                arr[idx] = orig - h
                down, _ = model.loss_and_grads(batch)
                arr[idx] = orig
                numeric[idx] = (up - down) / (2 * h)
            denom = np.maximum(np.maximum(np.abs(grad), np.abs(numeric)), 1e-8)
            worst = max(worst, float((np.abs(grad - numeric) / denom).max()))
    assert worst < 1e-5
    print(f"\n[criterion 7] PASS - analytic gradients match central differences "
          f"(50 configs, worst rel err {worst:.2e})")


def test_criterion_8_ridge_correctness():
    for seed in range(50):
        rng = np.random.default_rng(700 + seed)
        n = int(rng.integers(60, 220))
        dim = int(rng.integers(2, 5))
        gamma = int(rng.integers(2, 6))
        delta = int(rng.integers(1, gamma + 1))
        series = LabeledSeries(rng.standard_normal((n, dim)))
        model = train_sequence_model(series, gamma, delta,
                                     ridge_lambda=float(rng.uniform(1e-6, 1e-2)))
        assert model.fit_residual < 1e-8, f"seed {seed}: residual {model.fit_residual}"

    t = np.arange(900)
    vals = np.column_stack([
        np.sin(2 * np.pi * 0.011 * t + 0.4),
        np.sin(2 * np.pi * 0.023 * t + 1.7),
        np.sin(2 * np.pi * 0.037 * t + 2.9),
    ])
    model = train_sequence_model(LabeledSeries(vals[:600]), gamma=8, delta=4,
                                 ridge_lambda=1e-6)
    held = vals[600:]
    rec = reconstruct_sequence(model, LabeledSeries(held))
    mse = float(((rec - held[8:-8]) ** 2).mean())
    assert mse < 1e-3
    print(f"\n[criterion 8] PASS - normal-equation residuals < 1e-8 on 50 fits; "
          f"noise-free sinusoid held-out MSE {mse:.2e} < 1e-3")


def test_criterion_9_end_to_end_gating_improvement():
    start = time.perf_counter()
    base = {
        "preprocess": {"downsample": 1},
        "point_model": {"d_lat": 4, "learn_rate": 1e-4, "optimizer": "adam",
                        "batch_size": 64, "epochs": 25},
        "sequence_model": {"gamma": 25, "delta": 6, "ridge_lambda": 1e-6},
        "gate": {"kind": "soft", "theta_percentile": 98.5, "d": 16},
    }
    point_f1, soft_f1, point_auc, soft_auc = [], [], [], []
    for seed in range(5):
        raw = dict(base)
        raw["point_model"] = dict(base["point_model"], seed=seed)
        cfg = config_from_dict(raw)
        data = gen_trig(trig_preset(seed))
        models = fit_models(cfg, data.train)
        table = sweep_table(cfg, score_split(cfg, models, data.test))
        soft = table["rows"]["soft_theta_pct"]
        best = int(np.argmax(soft["best_f1"]))
        point_f1.append(table["rows"]["point"]["best_f1"][0])
        point_auc.append(table["rows"]["point"]["auc"][0])
        soft_f1.append(soft["best_f1"][best])
        soft_auc.append(soft["auc"][best])
    elapsed = time.perf_counter() - start
    margin = float(np.mean(soft_f1) - np.mean(point_f1))
    assert margin >= 0.02, f"mean F1 margin {margin:.4f} < 0.02"
    assert float(np.mean(soft_auc)) >= float(np.mean(point_auc))
    assert elapsed < 300.0
    print(f"\n[criterion 9] PASS - soft gate at the 98.5th percentile lifts mean best F1 "
          f"by {margin:.3f} (point {np.mean(point_f1):.3f} -> gated {np.mean(soft_f1):.3f}) "
          f"and AUC {np.mean(point_auc):.3f} -> {np.mean(soft_auc):.3f} "
          f"over 5 seeds in {elapsed:.0f}s")


def test_criterion_10_preset_anomaly_rate():
    rates = [gen_trig(trig_preset(seed)).anomaly_rate for seed in range(3)]
    for rate in rates:
        assert abs(rate * 100.0 - 2.34) <= 0.05, f"rate {rate * 100:.4f}%"
    print(f"\n[criterion 10] PASS - preset test-split anomaly rate "
          f"{rates[0] * 100:.4f}% within 2.34 +- 0.05")


def test_criterion_11_no_benchmark_targets():
    # External benchmark figures are reference points from much larger
    # experiments, not targets for these desk-scale models; criteria 1-10
    # stand in their place.  Nothing to execute.
    print("\n[criterion 11] INFO - external benchmark figures are explicitly not "
          "acceptance targets for desk-scale models")


def test_criterion_12_full_pipeline_determinism(tmp_path):
    config_text = (
        "data:\n  train: {out}/train.csv\n  test: {out}/test.csv\n"
        "point_model:\n  d_lat: 4\n  epochs: 25\n  seed: 3\n"
        "sequence_model:\n  gamma: 25\n  delta: 6\n"
        "synth:\n  kind: trig\n  seed: 3\n"
        "output:\n  dir: {out}\n"
    )
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        out.mkdir()
        config = tmp_path / f"{name}.yaml"
        config.write_text(config_text.format(out=out))
        for command in ("synth", "train", "score", "eval"):
            assert main([command, "--config", str(config)]) == 0
        outputs.append(out)
    compared = 0
    for fname in ("train.csv", "test.csv", "model.json",
                  "anomaly.csv", "sequence_anomaly.csv", "nominality.csv",
                  "induced.csv", "labels.csv", "eval_report.json", "curve.csv"):
        a = (outputs[0] / fname).read_bytes()
        b = (outputs[1] / fname).read_bytes()
        assert a == b, f"{fname} differs between identical runs"
        compared += 1
    print(f"\n[criterion 12] PASS - two identical pipeline runs produced bit-identical "
          f"artifacts ({compared} files compared)")
