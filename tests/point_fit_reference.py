"""Reference point-model fit: the per-array gradient and per-key Adam loop.

``reference_loss_and_grads`` and ``reference_train_point_model`` are the
straightforward forms of ``PointModel.loss_and_grads`` and
``train_point_model``: new arrays for every intermediate, and Adam (or
gradient descent) applied parameter by parameter over three dicts.  The
fast fit in ``nominality.reconstructors`` must give the same weights and
losses bit for bit.  Install ``reference_loss_and_grads`` as
``PointModel.loss_and_grads`` while the reference fit runs, so neither
half of the reference uses the fast code.
"""

import numpy as np

from nominality.config import PointHyperparams
from nominality.errors import ShapeError, TrainingDiverged
from nominality.reconstructors import PointModel, _init_point_model
from nominality.series import LabeledSeries


def reference_loss_and_grads(
    self, batch: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean squared reconstruction error of a batch and its gradients.

    The loss is averaged over all batch elements (rows times channels).
    Gradients are exact; the finite-difference check in the test suite
    validates them against central differences.
    """
    batch = np.asarray(batch, dtype=np.float64)
    n, dim = batch.shape
    pre = batch @ self.enc_w + self.enc_b
    hidden = np.tanh(pre)
    recon = hidden @ self.dec_w + self.dec_b
    resid = recon - batch
    loss = float((resid**2).mean())
    d_recon = 2.0 * resid / (n * dim)
    d_dec_w = hidden.T @ d_recon
    d_dec_b = d_recon.sum(axis=0)
    d_hidden = d_recon @ self.dec_w.T
    d_pre = d_hidden * (1.0 - hidden**2)
    d_enc_w = batch.T @ d_pre
    d_enc_b = d_pre.sum(axis=0)
    return loss, {
        "enc_w": d_enc_w,
        "enc_b": d_enc_b,
        "dec_w": d_dec_w,
        "dec_b": d_dec_b,
    }


def reference_train_point_model(train: LabeledSeries, hp: PointHyperparams) -> PointModel:
    """Fit the point autoencoder on the rows of the training series.

    Training is mini-batch Adam (or plain gradient descent with
    ``optimizer="sgd"``) with seeded shuffling, so identical inputs and seeds give bitwise
    identical models.

    Raises:
        ShapeError: fewer than 2 channels, latent wider than the input, or
            fewer rows than one batch.
        TrainingDiverged: the epoch loss became non-finite.
    """
    if train.n_channels < 2:
        raise ShapeError(
            "point model requires at least 2 channels; univariate input "
            "carries no cross-channel structure to reconstruct"
        )
    if hp.d_lat > train.n_channels:
        raise ShapeError(
            f"d_lat {hp.d_lat} exceeds channel count {train.n_channels}"
        )
    if train.n_times < hp.batch_size:
        raise ShapeError(
            f"need at least batch_size={hp.batch_size} rows, got {train.n_times}"
        )
    model = _init_point_model(train.n_channels, hp)
    rows = train.values
    rng = np.random.default_rng(hp.seed + 1)
    params = {
        "enc_w": model.enc_w,
        "enc_b": model.enc_b,
        "dec_w": model.dec_w,
        "dec_b": model.dec_b,
    }
    adam_m = {k: np.zeros_like(v) for k, v in params.items()}
    adam_v = {k: np.zeros_like(v) for k, v in params.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    for epoch in range(hp.epochs):
        order = rng.permutation(rows.shape[0])
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, rows.shape[0], hp.batch_size):
            batch = rows[order[start : start + hp.batch_size]]
            loss, grads = model.loss_and_grads(batch)
            epoch_loss += loss
            n_batches += 1
            step += 1
            if hp.optimizer == "adam":
                for key, grad in grads.items():
                    adam_m[key] = beta1 * adam_m[key] + (1 - beta1) * grad
                    adam_v[key] = beta2 * adam_v[key] + (1 - beta2) * grad**2
                    m_hat = adam_m[key] / (1 - beta1**step)
                    v_hat = adam_v[key] / (1 - beta2**step)
                    params[key] -= hp.learn_rate * m_hat / (np.sqrt(v_hat) + eps)
            else:
                for key, grad in grads.items():
                    params[key] -= hp.learn_rate * grad
        epoch_loss /= n_batches
        if not np.isfinite(epoch_loss):
            raise TrainingDiverged(
                f"training loss became non-finite at epoch {epoch}", epoch=epoch
            )
        if epoch == 0:
            model.first_epoch_loss = epoch_loss
        model.final_epoch_loss = epoch_loss
    # The epoch loss is computed before each update, so the very last update
    # could still blow up without being seen; keep the finite-weights promise.
    if any(not np.isfinite(p).all() for p in params.values()):
        raise TrainingDiverged(
            f"weights became non-finite at epoch {hp.epochs - 1}", epoch=hp.epochs - 1
        )
    return model
