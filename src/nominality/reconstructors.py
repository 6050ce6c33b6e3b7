"""Point-based and sequence-based reconstruction models.

The point model is a one-hidden-layer tanh autoencoder trained row by row
with mini-batch Adam (or plain gradient descent), so its output at time t
depends only on the input at time t.  Its fit keeps the four weight arrays
as views of one flat float64 buffer and updates the whole buffer with a few
in-place ufuncs per step, in the same operation order as a per-array Adam,
so the weights are the same bits.  The sequence model is a closed-form
ridge regression that predicts the middle ``delta`` points of a window from
the ``gamma`` points on each side, which forces it to learn time-dependent
structure; numpy's LAPACK checks its normal matrix with a Cholesky
factorization and solves it.  Its predictions gather the design and
multiply it by the weights one fixed-size chunk of blocks at a time, so
scoring holds one chunk of the design rather than all of it.  Because the
sequence model cannot reconstruct the first and last ``gamma`` points,
:func:`make_pair` trims the observation and the point reconstruction to the
same interior range, so every covered time point has one observed and
exactly two reconstructed values.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import PointHyperparams
from .errors import ConfigError, DataError, ShapeError, SingularSystem, TrainingDiverged
from .series import LabeledSeries, write_json

MODEL_FORMAT = "nominality-model-v1"
# Design rows per fancy-index copy in SequenceModel._design_rows, and per
# gather-and-multiply chunk in SequenceModel.predict_blocks.
_GATHER_ROWS = 256


@dataclass
class PointModel:
    """tanh autoencoder reconstructing each time point independently.

    The latent dimension is a compression bottleneck (d_lat <= D);
    weights live in plain float64 arrays so reconstruction and persistence
    are exactly reproducible.  ``epoch_losses`` is the mean loss of each
    epoch of the fit that made the model; :func:`save_model` keeps only its
    first and last entries, so it is empty after :func:`load_model`.
    """

    enc_w: np.ndarray
    enc_b: np.ndarray
    dec_w: np.ndarray
    dec_b: np.ndarray
    hp: PointHyperparams
    first_epoch_loss: float | None = None
    final_epoch_loss: float | None = None
    epoch_losses: list[float] = field(default_factory=list)

    @property
    def n_channels(self) -> int:
        return self.enc_w.shape[0]

    def loss_and_grads(
        self, batch: np.ndarray, out: np.ndarray | None = None
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Mean squared reconstruction error of a batch and its gradients.

        The loss is averaged over all batch elements (rows times channels).
        Gradients are exact; the finite-difference check in the test suite
        validates them against central differences.  They are written into
        ``out``, a flat float64 buffer laid out as :func:`_param_views`
        describes (a new one if None), and returned as views of it.
        """
        batch = np.asarray(batch, dtype=np.float64)
        n, dim = batch.shape
        if out is None:
            out = np.empty(2 * self.enc_w.size + self.enc_b.size + self.dec_b.size)
        grads = _param_views(out, *self.enc_w.shape)
        # In place, but one rounding at a time in the order of the plain
        # expressions (tanh(x @ W + b), 2 * resid / (n * D), ...), so the bits match them.
        hidden = batch @ self.enc_w
        hidden += self.enc_b
        np.tanh(hidden, out=hidden)
        resid = hidden @ self.dec_w
        resid += self.dec_b
        resid -= batch
        sq = np.square(resid)
        # np.add.reduce / size is what ndarray.mean computes, without its Python overhead.
        loss = float(np.add.reduce(sq, axis=None) / sq.size)
        d_recon = resid
        d_recon *= 2.0
        d_recon /= n * dim
        np.matmul(hidden.T, d_recon, out=grads["dec_w"])
        np.add.reduce(d_recon, axis=0, out=grads["dec_b"])
        d_pre = d_recon @ self.dec_w.T
        np.square(hidden, out=hidden)
        np.subtract(1.0, hidden, out=hidden)
        d_pre *= hidden
        np.matmul(batch.T, d_pre, out=grads["enc_w"])
        np.add.reduce(d_pre, axis=0, out=grads["enc_b"])
        return loss, grads


def _param_views(flat: np.ndarray, n_channels: int, d_lat: int) -> dict[str, np.ndarray]:
    """``enc_w``, ``enc_b``, ``dec_w`` and ``dec_b`` as reshaped views of one flat buffer.

    The buffer holds them back to back in that order, each row-major, so it
    has 2 * n_channels * d_lat + d_lat + n_channels elements.
    """
    a = n_channels * d_lat
    b = a + d_lat
    c = b + a
    return {
        "enc_w": flat[:a].reshape(n_channels, d_lat),
        "enc_b": flat[a:b],
        "dec_w": flat[b:c].reshape(d_lat, n_channels),
        "dec_b": flat[c:],
    }


def _init_params(n_channels: int, hp: PointHyperparams) -> np.ndarray:
    """The seeded initial weights as one flat buffer (layout: :func:`_param_views`)."""
    rng = np.random.default_rng(hp.seed)
    enc_bound = 1.0 / np.sqrt(n_channels)
    dec_bound = 1.0 / np.sqrt(hp.d_lat)
    return np.concatenate([
        rng.uniform(-enc_bound, enc_bound, (n_channels, hp.d_lat)).ravel(),
        rng.uniform(-enc_bound, enc_bound, hp.d_lat),
        rng.uniform(-dec_bound, dec_bound, (hp.d_lat, n_channels)).ravel(),
        rng.uniform(-dec_bound, dec_bound, n_channels),
    ])


def _init_point_model(n_channels: int, hp: PointHyperparams) -> PointModel:
    flat = _init_params(n_channels, hp)
    return PointModel(**_param_views(flat, n_channels, hp.d_lat), hp=hp)


def train_point_model(train: LabeledSeries, hp: PointHyperparams) -> PointModel:
    """Fit the point autoencoder on the rows of the training series.

    Training is mini-batch Adam (Kingma & Ba, ICLR 2015, Alg. 1) or, with
    ``optimizer="sgd"``, plain gradient descent, with seeded shuffling, so
    identical inputs and seeds give bitwise identical models.  The four
    weight arrays of the returned model are views of one flat float64
    buffer; the gradient, both Adam moments and two scratch arrays are flat
    buffers of the same size, so each step updates every parameter with a
    few in-place ufuncs.  The arithmetic is, element by element and in this
    order, ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and
    ``p -= (lr * (m / (1-b1**t))) / (sqrt(v / (1-b2**t)) + eps)``, which is
    what a per-array update computes.  Each epoch gathers its shuffled rows
    once and takes the batches as contiguous slices of them.

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
    flat = _init_params(train.n_channels, hp)
    model = PointModel(**_param_views(flat, train.n_channels, hp.d_lat), hp=hp)
    rows = train.values
    n_rows, batch_size = rows.shape[0], hp.batch_size
    n_batches = -(-n_rows // batch_size)
    rng = np.random.default_rng(hp.seed + 1)
    grad, adam_m, adam_v, tmp, tmp2 = (np.zeros_like(flat) for _ in range(5))
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    lr = hp.learn_rate
    step = 0
    for epoch in range(hp.epochs):
        shuffled = rows[rng.permutation(n_rows)]
        epoch_loss = 0.0
        for start in range(0, n_rows, batch_size):
            loss, _ = model.loss_and_grads(shuffled[start : start + batch_size], out=grad)
            epoch_loss += loss
            step += 1
            if hp.optimizer == "adam":
                adam_m *= beta1
                np.multiply(grad, 1 - beta1, out=tmp)
                adam_m += tmp
                np.square(grad, out=tmp)
                tmp *= 1 - beta2
                adam_v *= beta2
                adam_v += tmp
                np.divide(adam_m, 1 - beta1**step, out=tmp)
                tmp *= lr
                np.divide(adam_v, 1 - beta2**step, out=tmp2)
                np.sqrt(tmp2, out=tmp2)
                tmp2 += eps
                tmp /= tmp2
            else:
                np.multiply(grad, lr, out=tmp)
            flat -= tmp
        epoch_loss /= n_batches
        if not np.isfinite(epoch_loss):
            raise TrainingDiverged(
                f"training loss became non-finite at epoch {epoch}", epoch=epoch
            )
        model.epoch_losses.append(epoch_loss)
    if model.epoch_losses:
        model.first_epoch_loss = model.epoch_losses[0]
        model.final_epoch_loss = model.epoch_losses[-1]
    # The epoch loss is computed before each update, so the very last update
    # could still blow up without being seen; keep the finite-weights promise.
    if not np.isfinite(flat).all():
        raise TrainingDiverged(
            f"weights became non-finite at epoch {hp.epochs - 1}", epoch=hp.epochs - 1
        )
    return model


def reconstruct_points(
    model: PointModel, series: LabeledSeries | np.ndarray
) -> np.ndarray:
    """Point-wise reconstruction of a whole (n, D) series; row t depends only on row t."""
    values = series.values if isinstance(series, LabeledSeries) else series
    rows = np.asarray(values, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != model.n_channels:
        raise ShapeError(f"expected (n, {model.n_channels}) input, got shape {rows.shape}")
    hidden = np.tanh(rows @ model.enc_w + model.enc_b)
    return hidden @ model.dec_w + model.dec_b


@dataclass
class SequenceModel:
    """Closed-form ridge predictor of the middle delta points from 2*gamma context.

    ``weights`` has one row per context feature (the gamma points before the
    block and the gamma points after, flattened time-major) plus a trailing
    bias row; columns are the flattened delta target points.  The bias row is
    not penalized, so in the large-lambda limit predictions collapse to the
    target column means.
    """

    gamma: int
    delta: int
    ridge_lambda: float
    weights: np.ndarray
    n_channels: int
    fit_residual: float = 0.0

    def _design_rows(self, values: np.ndarray, starts: np.ndarray) -> np.ndarray:
        g, d = self.gamma, self.delta
        n = starts.shape[0]
        rows = np.empty((n, self.weights.shape[0]))
        rows[:, -1] = 1.0
        windows = _flat_windows(values, g)
        contexts = np.stack([starts - g, starts + d], axis=1)  # window before, window after
        body = rows[:, :-1].reshape(n, 2, g * self.n_channels)  # a view; the bias column stays
        # Gathered a chunk at a time, so the fancy index's copy stays small
        # next to the design it fills.
        for lo in range(0, n, _GATHER_ROWS):
            body[lo : lo + _GATHER_ROWS] = windows[contexts[lo : lo + _GATHER_ROWS]]
        return rows

    def predict_blocks(self, values: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Predict the delta-blocks starting at ``starts``; shape (n, delta, D).

        The design is gathered and multiplied by ``weights`` one chunk of
        ``_GATHER_ROWS`` blocks at a time, so only one chunk of it is ever
        held.  Every product has the same row count (``n`` when fewer): the
        last chunk is anchored at ``n - _GATHER_ROWS`` and rewrites the rows
        it shares with the one before, as :func:`reconstruct_sequence`
        anchors its last block.  A BLAS product need not give a row the same
        bits at every row count (1- and 7-row products can differ in the last
        bits), so the count stays fixed.  At 8 channels the tests require the
        whole-design product's bits; at 38 they differ in the last bits.
        """
        n = starts.shape[0]
        out = np.empty((n, self.delta * self.n_channels))
        size = min(n, _GATHER_ROWS)
        for lo in range(0, n, _GATHER_ROWS):
            lo = min(lo, n - size)  # the last chunk ends at n
            design = self._design_rows(values, starts[lo : lo + size])
            np.matmul(design, self.weights, out=out[lo : lo + size])
        return out.reshape(n, self.delta, self.n_channels)


def _flat_windows(values: np.ndarray, width: int) -> np.ndarray:
    """Row j is ``values[j : j + width].ravel()`` (time-major); a view where values is C-ordered."""
    dim = values.shape[1]
    return np.lib.stride_tricks.sliding_window_view(values.ravel(), width * dim)[::dim]


def _block_grid(gamma: int, delta: int, n_times: int, stride: int) -> np.ndarray:
    """Valid target-block starts: a stride grid over [gamma, T - gamma - delta]."""
    return np.arange(gamma, n_times - gamma - delta + 1, stride, dtype=np.int64)


def train_sequence_model(
    train: LabeledSeries,
    gamma: int,
    delta: int,
    ridge_lambda: float,
    stride: int | None = None,
) -> SequenceModel:
    """Solve the context-to-middle ridge regression in closed form.

    Target blocks are sampled on a stride grid (default: stride = delta, so
    training targets do not overlap); the bias row is excluded from the
    penalty.  ``np.linalg.cholesky`` checks that the normal matrix is
    positive definite and ``np.linalg.solve`` (LU with partial pivoting)
    solves the normal equations.

    Raises:
        ShapeError: series shorter than 2*gamma + delta or bad parameters.
        SingularSystem: the normal matrix is not positive definite (use
            ridge_lambda > 0).
    """
    if gamma < 1 or delta < 1:
        raise ShapeError("gamma and delta must be >= 1")
    if delta > 2 * gamma:
        raise ShapeError(f"delta {delta} exceeds context width 2*gamma = {2 * gamma}")
    if ridge_lambda < 0:
        raise ShapeError("ridge_lambda must be >= 0")
    if train.n_times < 2 * gamma + delta:
        raise ShapeError(
            f"series length {train.n_times} is shorter than 2*gamma + delta = "
            f"{2 * gamma + delta}"
        )
    if stride is None:
        stride = delta
    if stride < 1:
        raise ShapeError("stride must be >= 1")
    values = train.values
    dim = train.n_channels
    starts = _block_grid(gamma, delta, train.n_times, stride)
    n_features = 2 * gamma * dim + 1
    model = SequenceModel(gamma, delta, ridge_lambda, np.zeros((n_features, delta * dim)), dim)
    design = model._design_rows(values, starts)
    targets = _flat_windows(values, delta)[starts]

    gram = design.T @ design
    penalty = np.eye(n_features)
    penalty[-1, -1] = 0.0  # leave the bias unpenalized
    lhs = gram + ridge_lambda * penalty
    rhs = design.T @ targets
    try:
        np.linalg.cholesky(lhs)  # raises unless lhs is positive definite
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(
            "normal matrix is singular; refit with ridge_lambda > 0"
        ) from exc
    # C-ordered, so predictions are bitwise identical before and after a
    # save/load round trip (a no-op where solve already returns C order).
    model.weights = np.ascontiguousarray(np.linalg.solve(lhs, rhs))
    model.fit_residual = float(np.abs(lhs @ model.weights - rhs).max())
    return model


def reconstruct_sequence(
    model: SequenceModel, series: LabeledSeries | np.ndarray
) -> np.ndarray:
    """Predict every interior time point exactly once.

    Delta-blocks tile [gamma, T - gamma) starting at gamma; if the grid does
    not land on the right edge, one final block anchored at T - gamma - delta
    is predicted last and overwrites the overlap, so each point keeps a
    single predicted value.

    Returns:
        (T - 2*gamma, D) matrix aligned at offset gamma.
    """
    values = series.values if isinstance(series, LabeledSeries) else np.asarray(series)
    n_times, dim = values.shape
    if dim != model.n_channels:
        raise ShapeError(f"expected {model.n_channels} channels, got {dim}")
    g, d = model.gamma, model.delta
    if n_times < 2 * g + d:
        raise ShapeError(
            f"series length {n_times} is shorter than 2*gamma + delta = {2 * g + d}"
        )
    starts = _block_grid(g, d, n_times, d)
    n_tiled = starts.shape[0]
    if starts[-1] != n_times - g - d:
        starts = np.append(starts, n_times - g - d)
    blocks = model.predict_blocks(values, starts)
    out = np.empty((n_times - 2 * g, dim))
    out[: n_tiled * d] = blocks[:n_tiled].reshape(n_tiled * d, dim)
    # The anchored final block overwrites the overlap; without one this
    # rewrites the last tiled block with itself.
    out[-d:] = blocks[-1]
    return out


@dataclass(frozen=True)
class ReconstructionPair:
    """An observation and its point and sequence reconstructions on one valid range.

    ``valid_range`` is the half-open interval of source indices covered;
    the first and last gamma points are discarded because the sequence
    model cannot produce them.  All three arrays share one (n, D) shape.
    """

    observed: np.ndarray
    xc_hat: np.ndarray
    xstar_hat: np.ndarray
    valid_range: tuple[int, int]

    def __post_init__(self) -> None:
        shapes = (self.observed.shape, self.xc_hat.shape, self.xstar_hat.shape)
        if len(set(shapes)) != 1:
            raise ShapeError(f"observed, point and sequence shapes differ: {shapes}")
        lo, hi = self.valid_range
        if hi - lo != self.xc_hat.shape[0]:
            raise ShapeError(
                f"valid_range {self.valid_range} does not span {self.xc_hat.shape[0]} rows"
            )


def make_pair(
    observed: np.ndarray, point_rec: np.ndarray, seq_rec: np.ndarray, gamma: int
) -> ReconstructionPair:
    """Trim the observation and point reconstruction (T rows) to the sequence one's T - 2*gamma."""
    if gamma < 0:
        raise ShapeError("gamma must be >= 0")
    observed, point_rec, seq_rec = (np.asarray(a, float) for a in (observed, point_rec, seq_rec))
    n_times = observed.shape[0]
    return ReconstructionPair(
        observed[gamma : n_times - gamma],
        point_rec[gamma : point_rec.shape[0] - gamma],
        seq_rec,
        (gamma, n_times - gamma),
    )


def _encode_array(arr: np.ndarray) -> dict:
    data = np.ascontiguousarray(arr, dtype="<f8")
    return {
        "dtype": "<f8",
        "shape": list(arr.shape),
        "data": base64.b64encode(data.tobytes()).decode("ascii"),
    }


def _decode_array(entry: dict) -> np.ndarray:
    raw = base64.b64decode(entry["data"])
    arr = np.frombuffer(raw, dtype=entry["dtype"]).astype(np.float64)
    return arr.reshape(entry["shape"])


def save_model(model: PointModel | SequenceModel, path: str) -> None:
    """Write a model as deterministic JSON (arrays as base64 row-major bytes).

    The file is self-describing (shapes, hyperparameters, seed) and the
    round-trip through :func:`load_model` is bit-exact.
    """
    if isinstance(model, PointModel):
        doc = {
            "format": MODEL_FORMAT,
            "kind": "point",
            "hyperparams": asdict(model.hp),
            "first_epoch_loss": model.first_epoch_loss,
            "final_epoch_loss": model.final_epoch_loss,
            "arrays": {
                "enc_w": _encode_array(model.enc_w),
                "enc_b": _encode_array(model.enc_b),
                "dec_w": _encode_array(model.dec_w),
                "dec_b": _encode_array(model.dec_b),
            },
        }
    elif isinstance(model, SequenceModel):
        doc = {
            "format": MODEL_FORMAT,
            "kind": "sequence",
            "hyperparams": {
                "gamma": model.gamma,
                "delta": model.delta,
                "ridge_lambda": model.ridge_lambda,
                "n_channels": model.n_channels,
            },
            "fit_residual": model.fit_residual,
            "arrays": {"weights": _encode_array(model.weights)},
        }
    else:
        raise ShapeError(f"cannot save object of type {type(model).__name__}")
    write_json(doc, path)


def _checked(path: str, arrays: dict[str, np.ndarray], **shapes: tuple) -> dict[str, np.ndarray]:
    """The named ``arrays``, each required to have its shape and finite entries."""
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise DataError(f"{path}: {name} has shape {arrays[name].shape}, expected {shape}")
        if not np.isfinite(arrays[name]).all():
            raise DataError(f"{path}: {name} holds a non-finite value")
    return {name: arrays[name] for name in shapes}


def load_model(path: str) -> PointModel | SequenceModel:
    """Read a model written by :func:`save_model`.

    Raises:
        DataError: the file is not valid JSON or not a decodable model, or an
            array's shape disagrees with the hyperparameters or holds a
            non-finite value.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("format") != MODEL_FORMAT:
            raise ShapeError(f"{path}: not a {MODEL_FORMAT} file")
        arrays = {name: _decode_array(entry) for name, entry in doc["arrays"].items()}
        if doc["kind"] == "point":
            hp = PointHyperparams(**doc["hyperparams"])
            n_channels, d_lat = arrays["dec_b"].size, hp.d_lat
            return PointModel(
                **_checked(path, arrays, enc_w=(n_channels, d_lat), enc_b=(d_lat,),
                           dec_w=(d_lat, n_channels), dec_b=(n_channels,)),
                hp=hp,
                first_epoch_loss=doc["first_epoch_loss"],
                final_epoch_loss=doc["final_epoch_loss"],
            )
        if doc["kind"] == "sequence":
            hp = doc["hyperparams"]
            gamma, delta, n_channels = hp["gamma"], hp["delta"], hp["n_channels"]
            return SequenceModel(
                gamma=gamma,
                delta=delta,
                ridge_lambda=hp["ridge_lambda"],
                **_checked(path, arrays, weights=(2 * gamma * n_channels + 1, delta * n_channels)),
                n_channels=n_channels,
                fit_residual=doc["fit_residual"],
            )
    except (ValueError, KeyError, TypeError, AttributeError, ConfigError) as exc:
        # JSONDecodeError, bad base64 and bad shapes are ValueErrors; a
        # ConfigError is a hyperparameter outside its range.
        raise DataError(f"{path}: cannot decode model: {exc!r}") from None
    raise ShapeError(f"{path}: unknown model kind {doc['kind']!r}")
