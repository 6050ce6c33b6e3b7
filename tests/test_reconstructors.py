"""Point autoencoder and ridge sequence model behavior."""

import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from point_fit_reference import (
    _init_point_model,
    reference_loss_and_grads,
    reference_train_point_model,
)
from scipy.linalg import cho_factor, cho_solve
from sequence_reference import (
    reference_design_rows,
    reference_reconstruct_sequence,
    reference_targets,
)

from nominality import (
    ConfigError,
    DataError,
    LabeledSeries,
    PointHyperparams,
    ScoreSeries,
    ShapeError,
    SingularSystem,
    TrainedModels,
    TrainingDiverged,
    load_model,
    make_pair,
    reconstruct_points,
    reconstruct_sequence,
    save_model,
    train_point_model,
    train_sequence_model,
)
from nominality import reconstructors
from nominality.config import config_from_dict, trig_preset
from nominality.reconstructors import (
    _GATHER_ROWS,
    PointModel,
    _block_grid,
    _flat_windows,
    _step_buffers,
)
from nominality.series import minmax_apply, minmax_fit
from nominality.synthetic import gen_trig


def random_series(seed, n=200, dim=3):
    rng = np.random.default_rng(seed)
    return LabeledSeries(rng.standard_normal((n, dim)))


class TestPointModelTraining:
    def test_linear_subspace_recovered(self):
        # Rank-2 data scaled into the near-linear region of tanh is exactly
        # representable by a 2-wide bottleneck, so training should drive the
        # error to the noise floor.
        rng = np.random.default_rng(3)
        basis = rng.standard_normal((2, 4))
        data = rng.standard_normal((256, 2)) @ basis
        data *= 0.1 / np.abs(data).max()
        hp = PointHyperparams(d_lat=2, learn_rate=0.02, epochs=400, batch_size=32, seed=0)
        series = LabeledSeries(data)
        model = train_point_model(series, hp)
        mse = float(((reconstruct_points(model, series) - data) ** 2).mean())
        assert mse < 1e-4

    def test_zero_epochs_equals_seeded_init(self):
        series = random_series(1)
        hp = PointHyperparams(d_lat=2, epochs=0, batch_size=16, seed=7)
        model = train_point_model(series, hp)
        fresh = _init_point_model(series.n_channels, hp)
        np.testing.assert_array_equal(model.enc_w, fresh.enc_w)
        np.testing.assert_array_equal(model.dec_b, fresh.dec_b)
        assert model.epoch_losses == []

    def test_determinism_bitwise(self):
        series = random_series(2)
        hp = PointHyperparams(d_lat=2, learn_rate=0.01, epochs=5, batch_size=16, seed=5)
        a = train_point_model(series, hp)
        b = train_point_model(series, hp)
        for key in ("enc_w", "enc_b", "dec_w", "dec_b"):
            np.testing.assert_array_equal(getattr(a, key), getattr(b, key))

    def test_loss_decreases(self):
        series = random_series(4, n=300, dim=4)
        hp = PointHyperparams(d_lat=2, learn_rate=0.01, epochs=20, batch_size=32, seed=0)
        model = train_point_model(series, hp)
        assert model.epoch_losses[-1] <= model.epoch_losses[0]

    def test_divergence_reports_epoch(self):
        series = random_series(5)
        hp = PointHyperparams(d_lat=2, learn_rate=1e300, epochs=50, batch_size=16, seed=0)
        with pytest.raises(TrainingDiverged) as err:
            train_point_model(series, hp)
        assert err.value.epoch == 0

    def test_univariate_rejected(self):
        with pytest.raises(ShapeError):
            train_point_model(
                LabeledSeries(np.ones((64, 1))),
                PointHyperparams(d_lat=1, batch_size=8),
            )

    def test_latent_wider_than_input_rejected(self):
        with pytest.raises(ShapeError):
            train_point_model(
                random_series(0, dim=2),
                PointHyperparams(d_lat=3, batch_size=8),
            )

    def test_too_few_rows_rejected(self):
        with pytest.raises(ShapeError):
            train_point_model(
                random_series(0, n=10), PointHyperparams(d_lat=2, batch_size=64)
            )


class TestFlatFitMatchesReference:
    """The flat-buffer fit against the per-key reference fit, bit for bit.

    The fit builds its step buffers once for the full batch and once for the
    short last one, so the cases cover 100 rows in whole batches, a short
    batch of 4 rows and of 1 row, 1-row batches, one batch of every row, and
    a latent as wide as the 4 channels: a 1-row product can take another
    BLAS path under ``np.dot`` than under ``@``.
    """

    @pytest.mark.parametrize("epochs", [0, 1, 3])
    @pytest.mark.parametrize("d_lat", [1, 4])
    @pytest.mark.parametrize("batch_size", [20, 16, 33, 1, 100],
                             ids=["divides", "ragged", "one_left", "single_row", "all_rows"])
    @pytest.mark.parametrize("optimizer", ["adam"])
    def test_weights_and_losses_bitwise(self, monkeypatch, optimizer, batch_size, d_lat, epochs):
        series = random_series(11, n=100, dim=4)
        # the retired optimizer key, as recorded configs name it, loads as the one fit
        hp = config_from_dict({"point_model": dict(
            d_lat=d_lat, learn_rate=0.01, optimizer=optimizer, batch_size=batch_size,
            epochs=epochs, seed=2)}).point_model
        fast = train_point_model(series, hp)
        with monkeypatch.context() as patch:
            patch.setattr(PointModel, "loss_and_grads", reference_loss_and_grads)
            reference = reference_train_point_model(series, hp)
        for key in ("enc_w", "enc_b", "dec_w", "dec_b"):
            ours, theirs = getattr(fast, key), getattr(reference, key)
            assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes(), key
        assert len(fast.epoch_losses) == epochs
        assert fast.epoch_losses == reference.epoch_losses

    def test_one_loss_and_grads_call_per_batch(self, monkeypatch):
        sizes = []
        original = PointModel.loss_and_grads

        def spy(self, batch, buffers=None):
            sizes.append(len(batch))
            return original(self, batch, buffers)

        monkeypatch.setattr(PointModel, "loss_and_grads", spy)
        epochs, n_rows, batch_size = 3, 100, 16
        train_point_model(random_series(12, n=n_rows, dim=4),
                          PointHyperparams(d_lat=2, batch_size=batch_size, epochs=epochs))
        assert len(sizes) == epochs * math.ceil(n_rows / batch_size)
        assert sizes[:7] == [16] * 6 + [4]

    def test_out_buffer_receives_the_gradients(self):
        model = _init_point_model(5, PointHyperparams(d_lat=3))
        batch = np.random.default_rng(13).standard_normal((7, 5))
        out = np.full(2 * 5 * 3 + 3 + 5, np.nan)
        loss, grads = model.loss_and_grads(batch, _step_buffers(model, 7, out))
        ref_loss, ref_grads = reference_loss_and_grads(model, batch)
        assert loss == ref_loss
        assert out.tobytes() == np.concatenate([ref_grads[key].ravel() for key in
                                                ("enc_w", "enc_b", "dec_w", "dec_b")]).tobytes()
        for key, grad in grads.items():
            assert np.shares_memory(grad, out) and grad.shape == getattr(model, key).shape


class TestPointModelProperties:
    def test_gradients_match_finite_differences(self):
        worst = 0.0
        h = 1e-5
        for trial in range(12):
            rng = np.random.default_rng(50 + trial)
            dim = int(rng.integers(2, 7))
            hp = PointHyperparams(d_lat=int(rng.integers(1, min(dim, 3) + 1)),
                                  batch_size=int(rng.integers(1, 9)), seed=trial)
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

    def test_row_permutation_commutes(self):
        series = random_series(6, n=50)
        model = train_point_model(
            series, PointHyperparams(d_lat=2, epochs=2, batch_size=10, seed=0)
        )
        perm = np.random.default_rng(0).permutation(50)
        direct = reconstruct_points(model, LabeledSeries(series.values[perm]))
        reordered = reconstruct_points(model, series)[perm]
        np.testing.assert_array_equal(direct, reordered)

    def test_zero_weights_give_zero_output(self):
        hp = PointHyperparams(d_lat=2)
        model = _init_point_model(3, hp)
        model.enc_w[:] = 0; model.enc_b[:] = 0; model.dec_w[:] = 0; model.dec_b[:] = 0
        series = LabeledSeries(np.random.default_rng(0).standard_normal((5, 3)))
        out = reconstruct_points(model, series)
        np.testing.assert_array_equal(out, np.zeros((5, 3)))

    def test_single_row(self):
        model = _init_point_model(3, PointHyperparams(d_lat=2))
        assert reconstruct_points(model, LabeledSeries(np.ones((1, 3)))).shape == (1, 3)


class TestSequenceModel:
    def test_constant_series_absorbed_by_bias(self):
        series = LabeledSeries(np.full((40, 2), 3.25))
        model = train_sequence_model(series, gamma=1, delta=1, ridge_lambda=1e-9)
        rec = reconstruct_sequence(model, series)
        np.testing.assert_allclose(rec, 3.25, atol=1e-9)

    def test_sinusoid_predictable(self):
        t = np.arange(600)
        vals = np.column_stack(
            [np.sin(2 * np.pi * 0.013 * t + 0.3), np.sin(2 * np.pi * 0.027 * t + 1.1)]
        )
        model = train_sequence_model(LabeledSeries(vals[:400]), gamma=8, delta=4,
                                     ridge_lambda=1e-6)
        held = vals[400:]
        rec = reconstruct_sequence(model, LabeledSeries(held))
        mse = float(((rec - held[8:-8]) ** 2).mean())
        assert mse < 1e-3

    def test_large_lambda_collapses_to_target_means(self):
        rng = np.random.default_rng(9)
        vals = rng.standard_normal((200, 3))
        model = train_sequence_model(LabeledSeries(vals), gamma=2, delta=2,
                                     ridge_lambda=1e12)
        starts = np.arange(2, 200 - 4 + 1, 2)
        targets = np.stack([vals[s : s + 2].ravel() for s in starts])
        assert np.abs(model.weights[:-1]).max() < 1e-6
        np.testing.assert_allclose(model.weights[-1], targets.mean(axis=0), atol=1e-6)

    def test_normal_equation_residual_small(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            vals = rng.standard_normal((rng.integers(60, 200), rng.integers(2, 5)))
            model = train_sequence_model(LabeledSeries(vals), gamma=3, delta=2,
                                         ridge_lambda=1e-4)
            assert model.fit_residual < 1e-8

    def test_matches_explicit_inverse(self):
        rng = np.random.default_rng(13)
        vals = rng.standard_normal((120, 2))
        gamma, delta, lam = 3, 2, 1e-3
        model = train_sequence_model(LabeledSeries(vals), gamma, delta, lam)
        starts = np.arange(gamma, 120 - gamma - delta + 1, delta)
        design = model._design_rows(vals, starts)
        targets = np.stack([vals[s : s + delta].ravel() for s in starts])
        penalty = np.eye(design.shape[1]); penalty[-1, -1] = 0.0
        explicit = np.linalg.inv(design.T @ design + lam * penalty) @ design.T @ targets
        np.testing.assert_allclose(model.weights, explicit, atol=1e-8)

    def test_no_leakage_from_target_block(self):
        rng = np.random.default_rng(21)
        vals = rng.standard_normal((60, 2))
        model = train_sequence_model(LabeledSeries(vals), gamma=4, delta=3,
                                     ridge_lambda=1e-3)
        start = 22  # a block of the grid 4, 7, ..., so rows 18-20 of the reconstruction
        pred = reconstruct_sequence(model, LabeledSeries(vals))
        tampered = vals.copy()
        tampered[start : start + 3] += 100.0
        pred_tampered = reconstruct_sequence(model, LabeledSeries(tampered))
        np.testing.assert_array_equal(pred[start - 4 : start - 1],
                                      pred_tampered[start - 4 : start - 1])
        assert not np.array_equal(pred, pred_tampered)

    def test_singular_without_ridge(self):
        # Constant series makes all context features identical columns.
        series = LabeledSeries(np.full((40, 2), 1.0))
        with pytest.raises(SingularSystem):
            train_sequence_model(series, gamma=2, delta=1, ridge_lambda=0.0)

    def test_too_short_series(self):
        with pytest.raises(ShapeError):
            train_sequence_model(LabeledSeries(np.ones((5, 2))), gamma=2, delta=2,
                                 ridge_lambda=1e-3)

    def test_delta_wider_than_context_rejected(self):
        with pytest.raises(ConfigError, match=r"^sequence_model\.delta must be at most "
                                              r"2 \* gamma = 4, got 5$"):
            train_sequence_model(random_series(0), gamma=2, delta=5, ridge_lambda=1e-3)


def _normal_equations(design, targets, ridge_lambda):
    """``train_sequence_model``'s left- and right-hand sides, from a given design and targets."""
    penalty = np.eye(design.shape[1])
    penalty[-1, -1] = 0.0
    return design.T @ design + ridge_lambda * penalty, design.T @ targets


class TestSequenceMatchesReference:
    """The gathered design, targets and block tiling against per-row loops, bit for bit."""

    # (gamma, delta, T): the minimal length, grids that end on the right edge
    # ((T - 2*gamma) % delta == 0) and grids that need an anchored last block.
    SHAPES = [(1, 1, 9), (5, 4, 14), (4, 3, 20), (3, 2, 21), (5, 4, 23), (7, 14, 100),
              (25, 6, 400)]

    @pytest.mark.parametrize("gamma, delta, n_times", SHAPES)
    @pytest.mark.parametrize("stride", [None, 1, 5])
    def test_fit_design_and_targets(self, gamma, delta, n_times, stride):
        vals = np.random.default_rng(n_times).standard_normal((n_times, 3))
        model = train_sequence_model(LabeledSeries(vals), gamma, delta, 1e-3, stride)
        starts = _block_grid(gamma, delta, n_times, stride or delta)
        design = reference_design_rows(model, vals, starts)
        targets = reference_targets(vals, starts, delta)
        assert np.array_equal(model._design_rows(vals, starts), design)
        assert np.array_equal(_flat_windows(vals, delta)[starts], targets)
        assert np.array_equal(model.weights,
                              np.linalg.solve(*_normal_equations(design, targets, 1e-3)))
        assert model.weights.flags.c_contiguous

    def test_design_rows_any_starts_and_layout(self):
        # Unsorted, repeated and more than one gather chunk of starts, on a
        # Fortran-ordered input (whose flattening is a copy, not a view).
        gamma, delta, n_times = 3, 2, 700
        vals = np.asfortranarray(np.random.default_rng(7).standard_normal((n_times, 4)))
        model = train_sequence_model(LabeledSeries(vals), gamma, delta, 1e-3)
        starts = np.random.default_rng(8).integers(gamma, n_times - gamma - delta + 1,
                                                   2 * _GATHER_ROWS + 3)
        assert np.array_equal(model._design_rows(vals, starts),
                              reference_design_rows(model, vals, starts))
        assert model._design_rows(vals, starts[:0]).shape == (0, 2 * gamma * 4 + 1)

    @pytest.mark.parametrize("edge", [0, 3])
    @pytest.mark.parametrize("n_blocks", [1, _GATHER_ROWS - 1, _GATHER_ROWS, _GATHER_ROWS + 1,
                                          2 * _GATHER_ROWS + 1, 3 * _GATHER_ROWS - 5])
    def test_reconstruction_in_chunks(self, n_blocks, edge):
        # The benchmark's shape (gamma 25, delta 6, 8 channels): a grid of
        # n_blocks that ends on the edge (0), or that takes an anchored final
        # block (3 rows past it): one chunk, whole chunks, and chunks with an
        # anchored last one that overlaps.
        rng = np.random.default_rng(n_blocks)
        model = train_sequence_model(LabeledSeries(rng.random((600, 8))), 25, 6, 1e-6)
        series = LabeledSeries(rng.random((6 * n_blocks + 50 + edge, 8)))
        assert np.array_equal(reconstruct_sequence(model, series),
                              reference_reconstruct_sequence(model, series))

    def test_reconstruction_wide(self):
        """At 38 channels the chunks agree with the whole product to rounding only.

        A BLAS product need not give a row the same bits at every row count:
        with delta 6 (228 output columns), OpenBLAS 0.3.31 differed from the
        whole product by up to 1.3e-15 in a few rows at every chunk size tried
        (8 to 2 048 rows).
        """
        rng = np.random.default_rng(38)
        model = train_sequence_model(LabeledSeries(rng.random((2000, 38))), 25, 6, 1e-6)
        series = LabeledSeries(rng.random((3000, 38)))
        np.testing.assert_allclose(reconstruct_sequence(model, series),
                                   reference_reconstruct_sequence(model, series),
                                   rtol=0, atol=100 * np.finfo(np.float64).eps)

    @pytest.mark.parametrize("gamma, delta, n_times", SHAPES)
    def test_reconstruction(self, gamma, delta, n_times):
        rng = np.random.default_rng(n_times + 1)
        model = train_sequence_model(LabeledSeries(rng.standard_normal((max(n_times, 60), 3))),
                                     gamma, delta, 1e-3)
        series = LabeledSeries(rng.standard_normal((n_times, 3)))
        assert np.array_equal(reconstruct_sequence(model, series),
                              reference_reconstruct_sequence(model, series))


def test_reconstruct_sequence_memory_is_bounded():
    """Scoring holds one chunk of the design, not all of it, and no copy of the output.

    On 30 000 x 8 rows (gamma 25, delta 6) the whole design is 4 992 x 401
    float64, 16 MB.  The bound allows the output, 4 992 blocks of 6 x 8
    float64 (1.9 MB), one 256-block chunk of the design (0.8 MB) and its
    gather (0.8 MB), 3.56 MB; 3.61 MB peaked here (numpy 2.4).  A second
    block array the size of the output, held next to it, peaked at 3.88 MB,
    and a second design chunk held while the next is gathered at 4.4 MB.
    """
    rng = np.random.default_rng(0)
    model = train_sequence_model(LabeledSeries(rng.random((2000, 8))), 25, 6, 1e-6)
    series = LabeledSeries(rng.random((30000, 8)))
    tracemalloc.start()
    try:
        reconstruct_sequence(model, series)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.75e6


def test_reconstruct_sequence_gathers_from_c_ordered_values(monkeypatch):
    """A series built from a Fortran-ordered array holds C-ordered values, so no chunk's
    ``_flat_windows`` copies the whole series; the output keeps the C-ordered call's bits."""
    rng = np.random.default_rng(0)
    model = train_sequence_model(LabeledSeries(rng.random((2000, 8))), 25, 6, 1e-6)
    vals = rng.random((3000, 8))  # 492 blocks: two chunks
    c_ordered = []

    def spy(values, width):
        c_ordered.append(values.flags.c_contiguous)
        return _flat_windows(values, width)

    monkeypatch.setattr(reconstructors, "_flat_windows", spy)
    out = reconstruct_sequence(model, LabeledSeries(np.asfortranarray(vals)))
    assert c_ordered == [True, True]
    assert np.array_equal(out, reconstruct_sequence(model, LabeledSeries(vals)))


def test_ridge_weights_match_scipy_cholesky():
    """numpy's LU solve agrees with scipy's Cholesky solve on the preset's normal equations.

    The preset's normal matrix (gamma 25, delta 6, 8 channels, lambda 1e-6)
    has condition number about 1.1e8; the two solves differed by at most
    1.2e-9 times the largest weight over preset seeds 0-3. The bound leaves
    headroom over that for other LAPACK builds.
    """
    train = gen_trig(trig_preset(0)).train
    train = minmax_apply(train, minmax_fit(train))
    model = train_sequence_model(train, gamma=25, delta=6, ridge_lambda=1e-6)
    starts = _block_grid(25, 6, train.n_times, 6)
    lhs, rhs = _normal_equations(reference_design_rows(model, train.values, starts),
                                 reference_targets(train.values, starts, 6), 1e-6)
    expected = cho_solve(cho_factor(lhs), rhs)
    assert np.abs(model.weights - expected).max() <= 1e-8 * np.abs(expected).max()


class TestSequenceReconstruction:
    def fit(self, vals, gamma, delta):
        return train_sequence_model(LabeledSeries(vals), gamma, delta, ridge_lambda=1e-6)

    def test_minimal_length_gives_delta_rows(self):
        rng = np.random.default_rng(0)
        gamma, delta = 4, 3
        vals = rng.standard_normal((2 * gamma + delta, 2))
        longer = rng.standard_normal((60, 2))
        model = self.fit(longer, gamma, delta)
        assert reconstruct_sequence(model, LabeledSeries(vals)).shape == (delta, 2)

    def test_interior_tiling_with_right_anchor(self, monkeypatch):
        # T=20, gamma=4, delta=3: the interior [4, 16) is covered by blocks
        # at 4, 7, 10 and a final block anchored at 13.
        starts_seen = []
        model = self.fit(np.random.default_rng(1).standard_normal((60, 2)), 4, 3)
        original = model._design_rows

        def spy(values, starts):
            starts_seen.append(list(starts))
            return original(values, starts)

        monkeypatch.setattr(model, "_design_rows", spy)
        out = reconstruct_sequence(model,
                                   LabeledSeries(np.random.default_rng(2).standard_normal((20, 2))))
        assert starts_seen == [[4, 7, 10, 13]]
        assert out.shape == (12, 2)

    def test_output_rows_always_t_minus_2gamma(self):
        model = self.fit(np.random.default_rng(3).standard_normal((80, 2)), 5, 4)
        for n in (14, 17, 23, 50):
            vals = np.random.default_rng(n).standard_normal((n, 2))
            assert reconstruct_sequence(model, LabeledSeries(vals)).shape == (n - 10, 2)

    @pytest.mark.parametrize("shape", [(40,), (40, 3, 1)])
    def test_input_not_2d_rejected(self, shape):
        """No series, and so no reconstructor input, is other than 2-D."""
        message = f"values must be 2-D (T, D), got shape {shape}"
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            LabeledSeries(np.zeros(shape))

    @pytest.mark.parametrize("reconstruct", [reconstruct_points, reconstruct_sequence])
    def test_channel_count_mismatch_rejected(self, reconstruct):
        models = _trained(6)  # 3 channels
        model = models.point if reconstruct is reconstruct_points else models.sequence
        with pytest.raises(ShapeError, match=r"^expected \(n, 3\) input, got shape \(40, 2\)$"):
            reconstruct(model, LabeledSeries(np.zeros((40, 2))))

    def test_each_point_predicted_once(self):
        # With an anchored final block the overlap is overwritten, so a
        # constant-prediction model yields a fully filled output.
        model = self.fit(np.random.default_rng(4).standard_normal((60, 3)), 3, 2)
        out = reconstruct_sequence(model,
                                   LabeledSeries(np.random.default_rng(5).standard_normal((21, 3))))
        assert np.isfinite(out).all()


class TestMakePair:
    def test_trims_point_reconstruction(self):
        pair = make_pair(LabeledSeries(np.zeros((10, 2))), np.arange(20.0).reshape(10, 2),
                         np.arange(12.0).reshape(6, 2), 2)
        assert pair.valid_range == (2, 8)
        np.testing.assert_array_equal(pair.xc_hat[0], [4.0, 5.0])

    def test_gamma_zero_identity(self):
        point = np.ones((5, 2))
        pair = make_pair(LabeledSeries(point), point, np.zeros((5, 2)), 0)
        assert pair.valid_range == (0, 5)
        np.testing.assert_array_equal(pair.xc_hat, point)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            make_pair(LabeledSeries(np.ones((10, 2))), np.ones((10, 2)), np.ones((5, 2)), 2)


def _trained(seed, channel_names=None):
    """A detector of small fits on a random series, put together as ``fit_models`` does."""
    series = LabeledSeries(random_series(seed).values, channel_names=channel_names)
    point = train_point_model(series, PointHyperparams(d_lat=2, epochs=3, batch_size=16, seed=3))
    seq = train_sequence_model(series, gamma=3, delta=2, ridge_lambda=1e-5)
    nominality = ScoreSeries(np.abs(series.values[3:-3, 0]), 3)
    return TrainedModels(point, seq, minmax_fit(series), nominality, series.channel_names)


class TestPersistence:
    def test_point_roundtrip_bit_exact(self, tmp_path):
        models = _trained(8)
        path = str(tmp_path / "model.json")
        save_model(models, path)
        model, back = models.point, load_model(path).point
        for key in ("enc_w", "enc_b", "dec_w", "dec_b"):
            np.testing.assert_array_equal(getattr(back, key), getattr(model, key))
        assert len(model.epoch_losses) == 3 and back.epoch_losses == []  # history, not the model

    def test_sequence_roundtrip_bit_exact(self, tmp_path):
        models = _trained(9)
        path = str(tmp_path / "model.json")
        save_model(models, path)
        model, back = models.sequence, load_model(path).sequence
        np.testing.assert_array_equal(back.weights, model.weights)
        assert (back.gamma, back.delta, back.n_channels) == (3, 2, 3)
        assert model.fit_residual is not None and back.fit_residual is None  # history

    @pytest.mark.parametrize("names, stored", [(("a", "b", "c"), ("a", "b", "c")),
                                               (None, ("c0", "c1", "c2"))],
                             ids=["names0", "None"])
    def test_stats_nominality_and_names_roundtrip(self, tmp_path, names, stored):
        models = _trained(11, names)
        path = str(tmp_path / "model.json")
        save_model(models, path)
        back = load_model(path)
        np.testing.assert_array_equal(back.stats.mins, models.stats.mins)
        np.testing.assert_array_equal(back.stats.maxs, models.stats.maxs)
        np.testing.assert_array_equal(back.train_nominality.scores, models.train_nominality.scores)
        assert back.train_nominality.time_origin == models.train_nominality.time_origin == 3
        assert back.channel_names == models.channel_names == stored

    def test_save_twice_identical_bytes(self, tmp_path):
        models = _trained(10)
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        save_model(models, p1)
        save_model(models, p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    @pytest.mark.parametrize("key, value", [("gamma", True), ("delta", 7)])  # gamma is 3
    def test_sequence_hyperparams_checked(self, tmp_path, key, value):
        """The sequence block's ``gamma`` and ``delta`` meet their ``sequence_model``
        rules, as the length of ``enc_b`` meets ``point_model.d_lat``'s."""
        path = str(tmp_path / "model.json")
        save_model(_trained(12), path)
        doc = json.loads(Path(path).read_text())
        doc["sequence"][key] = value
        Path(path).write_text(json.dumps(doc))
        with pytest.raises(DataError, match=f"^{re.escape(path)}: cannot decode model: .*"
                                            f"sequence_model.{key} must be "):
            load_model(path)
