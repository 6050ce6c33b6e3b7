#!/usr/bin/env python3
"""Self-test of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that ``BENCHMARK.json`` names exactly the workloads and metrics
``run.py`` emits, that a tiny pass of every workload in both modes finishes
in seconds with a well-formed result, that the correctness gate fails on a
corrupted ``induced.csv`` byte and on one flipped label, and that the
benchmark refuses to run without the package source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

sys.path.insert(0, run.SRC)

from gate import check_chain, check_identical, file_hashes  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY_LIMIT_S = 60.0
SELFTEST_WORK = os.path.join(run.WORK_ROOT, "selftest")


def bench(*extra: str, cwd: str = run.ROOT) -> tuple[subprocess.CompletedProcess, float]:
    argv = [sys.executable, os.path.join("perfbench", "run.py"), *extra]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc, time.perf_counter() - start


def check_spec() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}, "workloads differ from workloads.py"
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in spec["end_to_end"])
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.per_layer_units()
    return spec


def check_result(proc: subprocess.CompletedProcess, names: dict[str, str], what: str) -> None:
    assert proc.returncode == 0, f"{what}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    assert result["correct"] is True and result["failed"] == 0, f"{what}: {proc.stderr[-2000:]}"
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names, what
    assert all(isinstance(v["value"], float) for v in result["metrics"].values()), what


def check_tiny_runs(spec: dict) -> None:
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in WORKLOADS:
        for trace, names in (("0", end_to_end), ("1", per_layer)):
            proc, seconds = bench("--workload", name, "--seed", "3", "--seconds", "1",
                                  "--trace", trace, "--tiny")
            check_result(proc, names, f"{name} trace {trace}")
            assert seconds < TINY_LIMIT_S, f"tiny {name} trace {trace} took {seconds:.1f} s"
            print(f"tiny {name} trace {trace}: ok in {seconds:.1f} s")


def _rewrite_line(path: str, time_index: int, edit) -> None:
    with open(path) as fh:
        lines = fh.read().split("\n")
    for i, line in enumerate(lines):
        if line.startswith(f"{time_index},"):
            lines[i] = edit(line)
            break
    else:
        raise AssertionError(f"no row {time_index} in {path}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def _failed(out_dir: str, dataset) -> list[str]:
    return [name for name, ok, _ in check_chain(out_dir, dataset, True) if not ok]


def check_gate_sensitivity() -> None:
    proc, _ = bench("--workload", "preset", "--seed", "3", "--seconds", "1", "--trace", "0",
                    "--tiny", "--keep")
    assert proc.returncode == 0, proc.stderr[-2000:]
    dataset = WORKLOADS["preset"].datasets(3, True)[0]
    source = os.path.join(run.WORK_ROOT, "preset", "setup_0", "s0", "out")
    target = os.path.join(SELFTEST_WORK, "out")
    shutil.rmtree(SELFTEST_WORK, ignore_errors=True)
    shutil.copytree(source, target)
    shutil.rmtree(os.path.join(run.WORK_ROOT, "preset"))
    assert _failed(target, dataset) == [], "gate fails on clean artifacts"
    reference = file_hashes(target)
    row = dataset.first_segment[0] + 10  # inside the checked interior

    # Leading digit of one score: the oracle comparison must catch it.
    induced = os.path.join(target, "induced.csv")
    original = open(induced).read()
    _rewrite_line(induced, row, lambda line: line.replace(",", ",9", 1))
    assert "induced_matches_naive" in _failed(target, dataset), "leading-digit corruption passed"
    with open(induced, "w") as fh:
        fh.write(original)

    # Last digit of one score: below the oracle tolerance, so the repeat
    # comparison has to catch it.
    _rewrite_line(induced, row, lambda line: line[:-1] + ("1" if line[-1] != "1" else "2"))
    assert not check_identical(reference, file_hashes(target), "chain")[1], "last-digit corruption passed"
    with open(induced, "w") as fh:
        fh.write(original)

    labels = os.path.join(target, "labels.csv")
    _rewrite_line(labels, row, lambda line: line[:-1] + ("0" if line.endswith("1") else "1"))
    assert "labels_match_test_split" in _failed(target, dataset), "flipped label passed"
    shutil.rmtree(SELFTEST_WORK)
    print("gate: fails on a corrupted score digit, a last-digit change and a flipped label")


def check_refuses_bare_directory() -> None:
    bare = os.path.join(SELFTEST_WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, _ = bench("--workload", "preset", "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=bare)
    assert proc.returncode != 0, "ran without the package source"
    assert '"metrics"' not in proc.stdout, "printed a result without the package source"
    shutil.rmtree(SELFTEST_WORK)
    print(f"bare directory: exit {proc.returncode}, no result")


def main() -> int:
    spec = check_spec()
    print("spec: BENCHMARK.json matches run.py and workloads.py")
    check_refuses_bare_directory()
    check_gate_sensitivity()
    check_tiny_runs(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
