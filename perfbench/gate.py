"""Correctness gate: checks of one chain's artifacts against independent oracles.

Each check returns ``(name, ok, detail)``; a check that raises counts as
failed.  The fast evaluators must equal their brute-force oracles exactly,
except AUC: the rank statistic and the trapezoid sum round differently
(3.6e-15 apart on the preset), so it is held to the test suite's 1e-10.
The induced score must match the double-loop oracle within 1e-12 relative,
the tolerance of acceptance criterion 4.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from nominality.evaluation import (
    auc,
    auc_trapezoid,
    best_f1,
    best_f1_bruteforce,
    pa_best_f1,
    pa_best_f1_bruteforce,
)
from nominality.scoring import GateConfig, induced_anomaly_score_naive

AUC_TOLERANCE = 1e-10
INDUCED_RTOL = 1e-12
ORACLE_MARGIN = 1000  # points kept on each side of the first segment
INDUCED_MARGIN = 150


def read_column(path: str, column: int, dtype=float) -> tuple[np.ndarray, int]:
    """One column of a CSV with a header, and the first row's time index."""
    with open(path) as fh:
        rows = fh.read().split("\n")[1:]
    rows = [r.split(",") for r in rows if r]
    return np.asarray([dtype(r[column]) for r in rows]), int(rows[0][0])


def file_hashes(out_dir: str) -> dict[str, str]:
    hashes = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def _scores(out_dir: str, name: str) -> tuple[np.ndarray, int]:
    return read_column(os.path.join(out_dir, f"{name}.csv"), 1)


def check_labels(out_dir: str) -> tuple[str, bool, str]:
    """labels.csv is the test split's label column on the scored range."""
    labels, origin = read_column(os.path.join(out_dir, "labels.csv"), 1, int)
    with open(os.path.join(out_dir, "test.csv")) as fh:
        lines = fh.read().split("\n")
    truth = [int(r.rsplit(",", 1)[1]) for r in lines[1:] if r]
    truth = np.asarray(truth[origin : origin + labels.shape[0]])
    mismatches = int((truth != labels).sum()) if truth.shape == labels.shape else -1
    return "labels_match_test_split", mismatches == 0, f"{mismatches} mismatched labels"


def _oracle_slice(dataset, origin: int, size: int, margin: int) -> slice:
    """Score-index window around the first contextual segment."""
    start, end = dataset.first_segment
    return slice(max(0, start - margin - origin), min(size, end + margin - origin))


def check_evaluators(out_dir: str, dataset, full: bool) -> list[tuple[str, bool, str]]:
    """Fast evaluators against brute force on the induced score.

    With ``full`` the report's own figures are compared on the whole split;
    otherwise the fast functions are rerun on a label-bearing slice.
    """
    scores, origin = _scores(out_dir, "induced")
    labels, _ = read_column(os.path.join(out_dir, "labels.csv"), 1, int)
    if full:
        with open(os.path.join(out_dir, "eval_report.json")) as fh:
            report = json.load(fh)
        fast_f1, fast_auc, fast_pa = report["best_f1"], report["auc"], report["pa_best_f1"]
    else:
        window = _oracle_slice(dataset, origin, scores.shape[0], ORACLE_MARGIN)
        scores, labels = scores[window], labels[window]
        fast_f1 = best_f1(scores, labels).best_f1
        fast_auc = auc(scores, labels)
        fast_pa = pa_best_f1(scores, labels)
    brute_f1 = best_f1_bruteforce(scores, labels)[0]
    brute_auc = auc_trapezoid(scores, labels)
    brute_pa = pa_best_f1_bruteforce(scores, labels)
    where = "report" if full else f"slice of {scores.shape[0]}"
    return [
        ("best_f1_equals_bruteforce", fast_f1 == brute_f1, f"{where}: {fast_f1!r} vs {brute_f1!r}"),
        ("auc_equals_trapezoid", abs(fast_auc - brute_auc) <= AUC_TOLERANCE,
         f"{where}: {fast_auc!r} vs {brute_auc!r}"),
        ("pa_best_f1_equals_bruteforce", fast_pa == brute_pa, f"{where}: {fast_pa!r} vs {brute_pa!r}"),
    ]


def check_induced(out_dir: str, dataset) -> tuple[str, bool, str]:
    """induced.csv against the double-loop oracle on the interior of a slice."""
    anomaly, origin = _scores(out_dir, "anomaly")
    nominality, _ = _scores(out_dir, "nominality")
    induced, _ = _scores(out_dir, "induced")
    with open(os.path.join(out_dir, "manifest_score.json")) as fh:
        theta = json.load(fh)["resolved_theta"]
    gate = dataset.config["gate"]
    d = gate["d"]
    window = _oracle_slice(dataset, origin, anomaly.shape[0], INDUCED_MARGIN)
    cfg = GateConfig(kind=gate["kind"], theta_n=theta, d=d)
    naive = induced_anomaly_score_naive(anomaly[window], nominality[window], cfg).scores
    interior = slice(d, naive.shape[0] - d)
    got = induced[window][interior]
    want = naive[interior]
    rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-300)
    worst = float(rel.max())
    return "induced_matches_naive", worst <= INDUCED_RTOL, f"worst rel err {worst:.2e} on {want.size} points"


def check_chain(out_dir: str, dataset, full_oracle: bool) -> list[tuple[str, bool, str]]:
    """Every artifact check for one dataset's chain; a raising check fails."""
    results = []
    for name, check in (
        ("labels_match_test_split", lambda: [check_labels(out_dir)]),
        ("evaluators", lambda: check_evaluators(out_dir, dataset, full_oracle)),
        ("induced_matches_naive", lambda: [check_induced(out_dir, dataset)]),
    ):
        try:
            results.extend(check())
        except Exception as exc:  # a missing or unreadable artifact is a failed check
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
    return results


def check_identical(reference: dict[str, str], other: dict[str, str], what: str) -> tuple[str, bool, str]:
    """Two repeats of the same command chain wrote byte-identical artifacts."""
    differ = sorted(k for k in reference.keys() | other.keys() if reference.get(k) != other.get(k))
    return f"identical_{what}", not differ, f"differing files: {differ}" if differ else "ok"
