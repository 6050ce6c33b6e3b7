"""Point-based and sequence-based reconstruction models.

The point model is a one-hidden-layer tanh autoencoder trained row by row
with mini-batch Adam, so its output at time t depends only on the input at
time t.  Its fit keeps the four weight arrays as views of one flat float64
buffer and builds every scratch array once, so a step is a fixed list of
``np.dot`` and in-place ufunc calls, each rounding in the order of the plain
expressions and of a per-array Adam, so the weights are the same bits.  The
sequence model is a closed-form ridge regression that predicts the middle
``delta`` points of a window from the ``gamma`` points on each side, which
forces it to learn time-dependent structure; numpy's LAPACK checks its
normal matrix with a Cholesky factorization and solves it.  Its
reconstruction gathers the design and multiplies it by the weights one
fixed-size chunk of blocks at a time, so scoring never holds all of it.
Because the sequence model cannot reconstruct the first and last ``gamma``
points, :func:`make_pair` trims the observation and the point reconstruction
to the same interior range, so every covered time point has one observed and
exactly two reconstructed values.  :class:`TrainedModels` is one trained
detector (both models, the min-max statistics and the training nominality),
and :func:`save_model` writes it as one JSON file, with every array in the
same base64 codec and none of the fit's settings.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field

import numpy as np

from .config import PointHyperparams, SequenceModelConfig
from .errors import ShapeError, SingularSystem, TrainingDiverged, decoding, shown
from .series import LabeledSeries, MinMaxStats, ScoreSeries, write_json

MODEL_FORMAT = "nominality-model-v2"
#: The file ``train`` writes the detector to, and ``score`` and ``sweep`` read.
MODEL_FILE = "model.json"
# Design rows per fancy-index copy in SequenceModel._design_rows, and per
# gather-and-multiply chunk in reconstruct_sequence.
_GATHER_ROWS = 256


@dataclass
class PointModel:
    """tanh autoencoder reconstructing each time point independently.

    The latent dimension, the length of ``enc_b``, is a compression
    bottleneck (d_lat <= D); weights live in plain float64 arrays so
    reconstruction and persistence are exactly reproducible.  Neither the
    fit's settings nor ``epoch_losses``, the mean loss of each epoch of the
    fit that made the model, are part of the model: :func:`save_model` does
    not write them, and ``epoch_losses`` is empty after :func:`load_model`.
    """

    enc_w: np.ndarray
    enc_b: np.ndarray
    dec_w: np.ndarray
    dec_b: np.ndarray
    epoch_losses: list[float] = field(default_factory=list)

    @property
    def n_channels(self) -> int:
        return self.enc_w.shape[0]

    def loss_and_grads(
        self, batch: np.ndarray, buffers: tuple | None = None
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Mean squared reconstruction error of a batch and its gradients.

        The loss is averaged over all batch elements (rows times channels).
        Gradients are exact; the finite-difference check in the test suite
        validates them against central differences.  They are written into
        the gradient buffer of ``buffers``, the scratch :func:`_step_buffers`
        built for this batch's row count (new scratch and a new buffer if
        None), and returned as views of it.  A fit builds ``buffers`` once
        per batch row count, so a step allocates nothing: it is
        5 ``np.dot`` products, 9 ufuncs and 3 reductions, each into a buffer
        and rounding in the order of the plain expressions (tanh(x @ W + b),
        2 * resid / (n * D), ...), so the bits match them.  2 * r / (n * D)
        is the one division r / (n * D / 2): as doubling is exact, both round
        the same quotient (short of overflow, where the loss is infinite).
        """
        if buffers is None:
            batch = np.asarray(batch, dtype=np.float64)
            flat = np.empty(2 * self.enc_w.size + self.enc_b.size + self.dec_b.size)
            buffers = _step_buffers(self, batch.shape[0], flat)
        hidden, resid, sq, d_pre, half_size, one, dec_w_t, grads = buffers
        np.dot(batch, self.enc_w, hidden)
        np.add(hidden, self.enc_b, hidden)
        np.tanh(hidden, hidden)
        np.dot(hidden, self.dec_w, resid)
        np.add(resid, self.dec_b, resid)
        np.subtract(resid, batch, resid)
        np.square(resid, sq)
        # np.add.reduce / size is what ndarray.mean computes, without its Python overhead.
        loss = float(np.add.reduce(sq, None) / sq.size)
        np.divide(resid, half_size, resid)
        np.dot(hidden.T, resid, grads["dec_w"])
        np.add.reduce(resid, 0, None, grads["dec_b"])
        np.dot(resid, dec_w_t, d_pre)
        np.square(hidden, hidden)
        np.subtract(one, hidden, hidden)
        np.multiply(d_pre, hidden, d_pre)
        np.dot(batch.T, d_pre, grads["enc_w"])
        np.add.reduce(d_pre, 0, None, grads["enc_b"])
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


def _step_buffers(model: PointModel, n_rows: int, out: np.ndarray) -> tuple:
    """Scratch for ``model``'s steps on ``n_rows``-row batches, gradients into ``out``,
    a C-contiguous float64 vector laid out as :func:`_param_views` describes.

    In order: hidden layer, residual, its square, pre-activation derivative, n * D / 2
    and 1.0 as 0-d arrays (quicker than floats), ``dec_w.T``, gradient views of ``out``."""
    n_channels, d_lat = model.enc_w.shape
    return (np.empty((n_rows, d_lat)), np.empty((n_rows, n_channels)),
            np.empty((n_rows, n_channels)), np.empty((n_rows, d_lat)),
            np.array(n_rows * n_channels / 2), np.array(1.0), model.dec_w.T,
            _param_views(out, n_channels, d_lat))


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


@np.errstate(over="ignore", invalid="ignore")
def train_point_model(train: LabeledSeries, hp: PointHyperparams) -> PointModel:
    """Fit the point autoencoder on the rows of the training series.

    Training is mini-batch Adam (Kingma & Ba, ICLR 2015, Alg. 1) with seeded
    shuffling, so identical inputs and seeds give bitwise identical models.
    The four weight arrays of the returned model are views of one flat
    float64 buffer.  Every other buffer is built once per fit: the shuffled
    rows, whose slices are the batches, the :func:`_step_buffers` of the full
    and of the short last batch, and (P,) rows for the moments, the gradient
    and its square, the step and its divisor.  A step is one
    :meth:`PointModel.loss_and_grads` call and 11 in-place numpy calls that
    compute, element by element and in this order, ``m = b1*m + (1-b1)*g``,
    ``v = b2*v + (1-b2)*g*g`` and ``p -= (lr * (m / (1-b1**t))) /
    (sqrt(v / (1-b2**t)) + eps)`` with Python-float bias corrections, which
    is what a per-array update computes.  Overflow warns of nothing; the
    checks below report it.

    Raises:
        ShapeError: fewer than 2 channels, latent wider than the input, or
            fewer rows than one batch.
        TrainingDiverged: the epoch loss or the final weights became non-finite.
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
    model = PointModel(**_param_views(flat, train.n_channels, hp.d_lat))
    rows = train.values
    n_rows, batch_size = rows.shape[0], hp.batch_size
    rng = np.random.default_rng(hp.seed + 1)
    beta1, beta2 = 0.9, 0.999
    # Rows 0-1: Adam's two moments; rows 2-3: the gradient and its square.
    # Full-shape factors and 0-d scalars keep each ufunc off numpy's slower broadcast path.
    state = np.zeros((4, flat.size))
    factors = np.repeat([[beta1], [beta2], [1 - beta1], [1 - beta2]], flat.size, axis=1)
    moments, grad = state[:2], state[2:]
    update, divisor = np.empty((2, 2, flat.size))
    (grad_0, grad_1), (update_0, update_1), (divisor_0, divisor_1) = grad, update, divisor
    learn_rate, eps = np.array(hp.learn_rate), np.array(1e-8)
    shuffled = np.empty_like(rows)
    slices = [shuffled[start : start + batch_size] for start in range(0, n_rows, batch_size)]
    scratch = {n: _step_buffers(model, n, grad_0) for n in {batch_size, len(slices[-1])}}
    batches = [(batch, scratch[len(batch)]) for batch in slices]
    step = 0
    for epoch in range(hp.epochs):
        # "clip" writes into ``shuffled`` without a temporary; it never clips a permutation.
        np.take(rows, rng.permutation(n_rows), axis=0, out=shuffled, mode="clip")
        epoch_loss = 0.0
        for batch, buffers in batches:
            loss, _ = model.loss_and_grads(batch, buffers)
            epoch_loss += loss
            step += 1
            np.square(grad_0, grad_1)
            np.multiply(state, factors, state)
            np.add(moments, grad, moments)
            divisor_0.fill(1 - beta1**step)
            divisor_1.fill(1 - beta2**step)
            np.divide(moments, divisor, update)
            np.multiply(update_0, learn_rate, update_0)
            np.sqrt(update_1, update_1)
            np.add(update_1, eps, update_1)
            np.divide(update_0, update_1, update_0)
            np.subtract(flat, update_0, flat)
        epoch_loss /= len(batches)
        if not np.isfinite(epoch_loss):
            raise TrainingDiverged(
                f"training loss became non-finite at epoch {epoch}", epoch=epoch
            )
        model.epoch_losses.append(epoch_loss)
    # The epoch loss is computed before each update, so the very last update
    # could still blow up without being seen; keep the finite-weights promise.
    if not np.isfinite(flat).all():
        raise TrainingDiverged(
            f"weights became non-finite at epoch {hp.epochs - 1}", epoch=hp.epochs - 1
        )
    return model


def reconstruct_points(model: PointModel, series: LabeledSeries) -> np.ndarray:
    """Point-wise reconstruction of a whole (n, D) series; row t depends only on row t."""
    if series.n_channels != model.n_channels:
        raise ShapeError(f"expected (n, {model.n_channels}) input, got shape {series.values.shape}")
    hidden = np.tanh(series.values @ model.enc_w + model.enc_b)
    return hidden @ model.dec_w + model.dec_b


@dataclass
class SequenceModel:
    """Closed-form ridge predictor of the middle delta points from 2*gamma context.

    ``weights`` has one row per context feature (the gamma points before the
    block and the gamma points after, flattened time-major) plus a trailing
    bias row; columns are the flattened delta target points.  The bias row is
    not penalized, so in the large-lambda limit predictions collapse to the
    target column means.  The fit's lambda is not kept, and ``fit_residual``,
    its largest normal-equation residual, is training history like the point
    model's ``epoch_losses``: :func:`save_model` does not write it and it is
    None after :func:`load_model`.
    """

    gamma: int
    delta: int
    weights: np.ndarray
    n_channels: int
    fit_residual: float | None = None

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


def _flat_windows(values: np.ndarray, width: int) -> np.ndarray:
    """Row j is ``values[j : j + width].ravel()`` (time-major); a view where values is C-ordered."""
    dim = values.shape[1]
    return np.lib.stride_tricks.sliding_window_view(values.ravel(), width * dim)[::dim]


def _block_grid(gamma: int, delta: int, n_times: int, stride: int) -> np.ndarray:
    """Valid target-block starts: a stride grid over [gamma, T - gamma - delta].

    A series shorter than one window, 2*gamma + delta, raises :class:`ShapeError`.
    """
    if n_times < 2 * gamma + delta:
        raise ShapeError(
            f"series length {n_times} is shorter than 2*gamma + delta = {2 * gamma + delta}")
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
        ConfigError: gamma, delta or ridge_lambda breaks its ``sequence_model``
            rule (delta at most 2*gamma included), naming the key.
        ShapeError: series shorter than 2*gamma + delta, or stride < 1.
        SingularSystem: the normal matrix is not positive definite (use
            ridge_lambda > 0).
    """
    SequenceModelConfig(gamma, delta, ridge_lambda)
    if stride is None:
        stride = delta
    if stride < 1:
        raise ShapeError("stride must be >= 1")
    values = train.values
    dim = train.n_channels
    starts = _block_grid(gamma, delta, train.n_times, stride)
    n_features = 2 * gamma * dim + 1
    model = SequenceModel(gamma, delta, np.zeros((n_features, delta * dim)), dim)
    design = model._design_rows(values, starts)
    targets = _flat_windows(values, delta)[starts]

    lhs = design.T @ design
    # lambda on the diagonal in place, every entry but the last: the bias stays unpenalized.
    lhs.flat[: -1 : n_features + 1] += ridge_lambda
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


def reconstruct_sequence(model: SequenceModel, series: LabeledSeries) -> np.ndarray:
    """Predict every interior time point exactly once.

    Delta-blocks tile [gamma, T - gamma) starting at gamma; if the grid does
    not land on the right edge, one final block anchored at T - gamma - delta
    overwrites the overlap, so each point keeps a single predicted value.
    The design is gathered and multiplied by ``weights`` into one buffer a
    chunk of ``_GATHER_ROWS`` blocks at a time, so only one chunk of it is
    held.  Every product has the same row count (all blocks when fewer), as
    a BLAS product need not give a row the same bits at every row count
    (products of 1 and 7 rows can differ in the last bits): the last chunk
    is anchored at the end and rewrites the rows it shares with the one before.

    Returns:
        (T - 2*gamma, D) matrix aligned at offset gamma.
    """
    values = series.values  # C-ordered, so each chunk's _flat_windows is a view
    if series.n_channels != model.n_channels:
        raise ShapeError(f"expected (n, {model.n_channels}) input, got shape {values.shape}")
    g, d, n_rows = model.gamma, model.delta, series.n_times - 2 * model.gamma
    starts = _block_grid(g, d, series.n_times, d)
    if starts[-1] != n_rows + g - d:
        starts = np.append(starts, n_rows + g - d)
    n_blocks, size = starts.shape[0], min(starts.shape[0], _GATHER_ROWS)
    blocks = np.empty((n_blocks, d * model.n_channels))
    for lo in range(0, n_blocks, _GATHER_ROWS):
        lo = min(lo, n_blocks - size)  # the last chunk ends at n_blocks
        np.matmul(model._design_rows(values, starts[lo : lo + size]), model.weights,
                  out=blocks[lo : lo + size])
    out = blocks.reshape(n_blocks * d, model.n_channels)
    # The anchored final block overwrites the overlap; without one this
    # rewrites the last tiled block with itself.
    out[n_rows - d : n_rows] = out[-d:]
    return out[:n_rows]


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
    series: LabeledSeries, point_rec: np.ndarray, seq_rec: np.ndarray, gamma: int
) -> ReconstructionPair:
    """Trim the split's values and its point reconstruction (T rows) to the sequence
    reconstruction's T - 2*gamma; both reconstructions are as the reconstructors return them."""
    if gamma < 0:
        raise ShapeError("gamma must be >= 0")
    n_times = series.n_times
    return ReconstructionPair(
        series.values[gamma : n_times - gamma],
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


@dataclass
class TrainedModels:
    """One trained detector: what ``train`` writes to ``model.json`` and ``score`` reads.

    Both models, the min-max statistics, the training nominality that the
    gate's threshold comes from, and the training split's channel names.
    """

    point: PointModel
    sequence: SequenceModel
    stats: MinMaxStats
    train_nominality: ScoreSeries
    channel_names: tuple[str, ...]


_POINT_ARRAYS = ("enc_w", "enc_b", "dec_w", "dec_b")


def save_model(models: TrainedModels, path: str) -> None:
    """Write a trained detector as deterministic JSON (arrays as base64 row-major bytes).

    The file holds what scoring reads and nothing else: the point model's weights, the
    sequence model's ``gamma``, ``delta`` and weights, the min-max statistics, the training
    nominality and the channel names, which give the channel count.  The fit's settings are
    in the config and its history (epoch losses, normal-equation residual) in
    ``manifest_train.json``.  The round-trip through :func:`load_model` is bit-exact.
    """
    point, seq, stats = models.point, models.sequence, models.stats
    doc = {
        "format": MODEL_FORMAT,
        "channel_names": list(models.channel_names),
        "point": {name: _encode_array(getattr(point, name)) for name in _POINT_ARRAYS},
        "sequence": {"gamma": seq.gamma, "delta": seq.delta,
                     "weights": _encode_array(seq.weights)},
        "minmax": {"mins": _encode_array(stats.mins), "maxs": _encode_array(stats.maxs)},
        "train_nominality": _encode_array(models.train_nominality.scores),
    }
    write_json(doc, path)


def _checked(section: dict, **shapes: tuple) -> dict[str, np.ndarray]:
    """The named arrays of ``section``, decoded; each must have its shape and finite entries."""
    arrays = {}
    for name, shape in shapes.items():
        arr = _decode_array(section[name])
        if arr.shape != shape:
            raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} holds a non-finite value")
        arrays[name] = arr
    return arrays


def load_model(path: str) -> TrainedModels:
    """Read a trained detector written by :func:`save_model`.

    Every array's shape follows from ``gamma``, ``delta``, the number of channel
    names and the latent width, the length of ``enc_b``, and every entry must be
    finite.  Other keys, such as the fit's settings or the ``sequence.n_channels``
    that earlier versions wrote, are not read.

    Raises:
        DataError: ``<path>: cannot decode model: ...`` (see :func:`errors.decoding`),
            if it is not valid JSON, nested too deep to decode or not a decodable
            model, ``gamma`` or ``delta`` breaks its ``sequence_model`` rule,
            ``enc_b`` is empty, the channel names are not a non-empty list of
            strings, an array's shape disagrees with these or holds a non-finite
            value, the min-max statistics are null or a channel minimum exceeds its
            maximum, or the training nominality is empty or holds a negative score.
    """
    with decoding(path, "model"), open(path) as fh:
        doc = json.load(fh)
        if doc["format"] != MODEL_FORMAT:
            raise ValueError(f"not a {MODEL_FORMAT} file")
        seq, point = doc["sequence"], doc["point"]
        gamma, delta, names = seq["gamma"], seq["delta"], doc["channel_names"]
        SequenceModelConfig(gamma, delta)
        if not (type(names) is list and names and all(type(name) is str for name in names)):
            raise ValueError(f"channel_names must be a non-empty list of strings, "
                             f"got {shown(names)}")
        dim, d_lat = len(names), PointHyperparams(d_lat=len(_decode_array(point["enc_b"]))).d_lat
        point = PointModel(**_checked(point, enc_w=(dim, d_lat), enc_b=(d_lat,),
                                      dec_w=(d_lat, dim), dec_b=(dim,)))
        weights = _checked(seq, weights=(2 * gamma * dim + 1, delta * dim))["weights"]
        sequence = SequenceModel(gamma, delta, weights, dim)
        if doc["minmax"] is None:  # written only by the retired normalization: none
            raise ValueError("minmax is null; train again")
        stats = MinMaxStats(**_checked(doc["minmax"], mins=(dim,), maxs=(dim,)))
        nominality = ScoreSeries(_decode_array(doc["train_nominality"]), gamma)
        if not (len(nominality) and (nominality.scores >= 0).all()):
            raise ValueError("train_nominality must hold one or more finite scores, all >= 0")
    return TrainedModels(point, sequence, stats, nominality, tuple(names))
