"""Spans around the public functions of each module, recorded from outside.

``Tracer.install`` replaces each listed function with a timing wrapper in
every ``nominality`` module namespace that holds it, so ``cli.load_csv`` is
traced as well as ``series.load_csv``.  A span is ``[name, start, end,
parent]``; spans stay in memory until ``write`` and a span's self time is its
duration minus the durations of its direct children (single-threaded code,
so children never overlap).
"""

from __future__ import annotations

import collections
import functools
import inspect
import json
import os
import sys
import time

# (module, attribute, span name, counter); a counter maps the bound call
# arguments and the result to the counts recorded at that boundary.
INSTRUMENTED = [
    ("cli", "cmd_synth", "cli.cmd_synth", None),
    ("cli", "cmd_train", "cli.cmd_train", None),
    ("cli", "cmd_score", "cli.cmd_score", None),
    ("cli", "cmd_eval", "cli.cmd_eval", None),
    ("cli", "cmd_sweep", "cli.cmd_sweep", None),
    ("cli", "write_score_csv", "cli.write_score_csv", None),
    ("cli", "read_score_csv", "cli.read_score_csv", None),
    ("cli", "write_labels_csv", "cli.labels_csv", None),
    ("cli", "read_labels_csv", "cli.labels_csv", None),
    ("series", "load_csv", "series.load_csv",
     lambda a, r: {"series.load_csv_cells": r.values.size + (0 if r.labels is None else r.labels.size),
                   "series.csv_bytes": os.path.getsize(a["path"])}),
    ("series", "save_csv", "series.save_csv", None),
    ("series", "downsample", "series.preprocess", None),
    ("series", "minmax_fit", "series.preprocess", None),
    ("series", "minmax_apply", "series.preprocess", None),
    ("synthetic", "gen_trig", "synthetic.gen_trig", None),
    ("reconstructors", "train_point_model", "reconstructors.point_fit", None),
    ("reconstructors", "PointModel.loss_and_grads", "reconstructors.point_step",
     lambda a, r: {"reconstructors.point_fit_steps": 1}),
    ("reconstructors", "train_sequence_model", "reconstructors.seq_fit",
     lambda a, r: {"reconstructors.seq_fit_features": r.weights.shape[0],
                   "reconstructors.seq_fit_blocks": len(range(
                       a["gamma"], a["train"].n_times - a["gamma"] - a["delta"] + 1,
                       a["stride"] or a["delta"]))}),
    ("reconstructors", "reconstruct_points", "reconstructors.point_recon", None),
    ("reconstructors", "reconstruct_sequence", "reconstructors.seq_recon",
     lambda a, r: {"reconstructors.seq_recon_blocks": -(-r.shape[0] // a["model"].delta)}),
    ("reconstructors", "save_model", "reconstructors.save_model", None),
    ("reconstructors", "load_model", "reconstructors.load_model", None),
    ("scoring", "anomaly_score", "scoring.scores", None),
    ("scoring", "sequence_anomaly_score", "scoring.scores", None),
    ("scoring", "nominality_score", "scoring.scores", None),
    ("scoring", "resolve_theta", "scoring.resolve_theta", None),
    ("scoring", "induced_anomaly_score", "scoring.induced",
     lambda a, r: {"scoring.induced_calls": 1,
                   "scoring.induced_window_terms": len(r) * (2 * a["cfg"].d + 1)}),
    ("scoring", "smoothed_score", "scoring.smoothed", None),
    ("evaluation", "evaluate", "evaluation.evaluate",
     lambda a, r: {"evaluation.evaluate_calls": 1}),
    ("evaluation", "best_f1", "evaluation.best_f1",
     lambda a, r: {"evaluation.thresholds": r.curve.shape[0]}),
    ("evaluation", "auc", "evaluation.auc", None),
    ("evaluation", "pa_best_f1", "evaluation.pa_best_f1", None),
    ("pipeline", "fit_models", "pipeline.fit_models", None),
    ("pipeline", "score_split", "pipeline.score_split", None),
    ("pipeline", "sweep_table", "pipeline.sweep_table", None),
]

# Per-layer metric -> (unit, better, span name, "total" or "self").
SPAN_METRICS = {
    "series.load_csv_s": ("series.load_csv", "total"),
    "series.save_csv_s": ("series.save_csv", "total"),
    "series.preprocess_s": ("series.preprocess", "total"),
    "synthetic.gen_trig_s": ("synthetic.gen_trig", "total"),
    "cli.write_score_csv_s": ("cli.write_score_csv", "total"),
    "cli.read_score_csv_s": ("cli.read_score_csv", "total"),
    "cli.labels_csv_s": ("cli.labels_csv", "total"),
    "cli.eval_artifacts_s": ("cli.cmd_eval", "self"),
    "reconstructors.point_fit_s": ("reconstructors.point_fit", "total"),
    "reconstructors.seq_fit_s": ("reconstructors.seq_fit", "total"),
    "reconstructors.point_recon_s": ("reconstructors.point_recon", "total"),
    "reconstructors.seq_recon_s": ("reconstructors.seq_recon", "total"),
    "reconstructors.save_model_s": ("reconstructors.save_model", "total"),
    "reconstructors.load_model_s": ("reconstructors.load_model", "total"),
    "scoring.scores_s": ("scoring.scores", "total"),
    "scoring.resolve_theta_s": ("scoring.resolve_theta", "total"),
    "scoring.induced_s": ("scoring.induced", "total"),
    "scoring.smoothed_s": ("scoring.smoothed", "total"),
    "evaluation.evaluate_s": ("evaluation.evaluate", "total"),
    "evaluation.best_f1_s": ("evaluation.best_f1", "self"),
    "evaluation.auc_s": ("evaluation.auc", "total"),
    "evaluation.pa_best_f1_s": ("evaluation.pa_best_f1", "total"),
    "pipeline.fit_models_s": ("pipeline.fit_models", "total"),
    "pipeline.fit_models_self_s": ("pipeline.fit_models", "self"),
    "pipeline.score_split_s": ("pipeline.score_split", "total"),
    "pipeline.score_split_self_s": ("pipeline.score_split", "self"),
    "pipeline.sweep_table_s": ("pipeline.sweep_table", "total"),
    "pipeline.sweep_table_self_s": ("pipeline.sweep_table", "self"),
}

COUNT_METRICS = [
    "series.load_csv_cells",
    "series.csv_bytes",
    "reconstructors.point_fit_steps",
    "reconstructors.seq_fit_features",
    "reconstructors.seq_fit_blocks",
    "reconstructors.seq_recon_blocks",
    "scoring.induced_calls",
    "scoring.induced_window_terms",
    "evaluation.evaluate_calls",
    "evaluation.thresholds",
]


class Tracer:
    """Installs span-recording wrappers and turns the spans into metrics."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts.update(counter(bound.arguments, result))
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "nominality" or key.startswith("nominality."))]
        for module_name, attr, span, counter in INSTRUMENTED:
            owner = sys.modules[f"nominality.{module_name}"]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(span, original, counter)
            holders = [owner] + [m for m in modules if m is not owner]
            for holder in holders:
                if getattr(holder, leaf, None) is original:
                    self._restore.append((holder, leaf, original))
                    setattr(holder, leaf, wrapper)

    def uninstall(self) -> None:
        for holder, leaf, original in reversed(self._restore):
            setattr(holder, leaf, original)
        self._restore.clear()

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per span name."""
        total: dict[str, float] = collections.defaultdict(float)
        children: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                children[parent] += end - start
        own: dict[str, float] = collections.defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, children):
            own[name] += end - start - child
        return total, own

    def metrics(self) -> dict[str, float]:
        total, own = self.times()
        out = {metric: (own if kind == "self" else total).get(span, 0.0)
               for metric, (span, kind) in SPAN_METRICS.items()}
        for name in COUNT_METRICS:
            out[name] = float(self.counts.get(name, 0))
        steps = out["reconstructors.point_fit_steps"]
        out["reconstructors.point_step_us"] = (
            out["reconstructors.point_fit_s"] / steps * 1e6 if steps else 0.0)
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)
