"""The sequence model's per-row loops, kept verbatim as a reference.

``reconstructors.SequenceModel._design_rows``, the ``targets`` stack in
``train_sequence_model`` and the block scatter in ``reconstruct_sequence``
are built with array views and fancy indexing; these are the loops they
replaced.  ``SequenceModel.predict_blocks`` multiplies the design a chunk of
blocks at a time; :func:`reference_predict_blocks` is the whole-design
product it replaced.  The tests require both to give the same bits (the
product at the benchmark's 8 channels only).
"""

import numpy as np

from nominality import LabeledSeries, ShapeError


def reference_design_rows(model, values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    g, d = model.gamma, model.delta
    rows = np.empty((starts.shape[0], model.weights.shape[0]))
    for i, s in enumerate(starts):
        before = values[s - g : s].ravel()
        after = values[s + d : s + d + g].ravel()
        rows[i, :-1] = np.concatenate([before, after])
        rows[i, -1] = 1.0
    return rows


def reference_predict_blocks(model, values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    flat = reference_design_rows(model, values, starts) @ model.weights
    return flat.reshape(starts.shape[0], model.delta, model.n_channels)


def reference_targets(values: np.ndarray, starts: np.ndarray, delta: int) -> np.ndarray:
    return np.stack([values[s : s + delta].ravel() for s in starts])


def reference_reconstruct_sequence(model, series) -> np.ndarray:
    values = series.values if isinstance(series, LabeledSeries) else np.asarray(series)
    n_times, dim = values.shape
    if dim != model.n_channels:
        raise ShapeError(f"expected {model.n_channels} channels, got {dim}")
    g, d = model.gamma, model.delta
    if n_times < 2 * g + d:
        raise ShapeError(
            f"series length {n_times} is shorter than 2*gamma + delta = {2 * g + d}"
        )
    starts = list(range(g, n_times - g - d + 1, d))
    if starts[-1] != n_times - g - d:
        starts.append(n_times - g - d)
    starts = np.asarray(starts, dtype=np.int64)
    blocks = reference_predict_blocks(model, values, starts)
    out = np.empty((n_times - 2 * g, dim))
    for s, block in zip(starts, blocks):
        out[s - g : s - g + d] = block
    return out
