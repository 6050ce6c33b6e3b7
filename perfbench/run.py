#!/usr/bin/env python3
"""End-to-end benchmark of the nominality CLI on generated workloads.

    python3 perfbench/run.py --workload preset --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.

``--trace 0`` times the real CLI, ``python -m nominality.cli <cmd> --config
...``, one fresh child process per command and one child at a time (a closed
loop of one client), on several datasets generated from ``--seed``. Each
timing metric is the median over the datasets of one command's wall time,
scaled by the host's speed during the run as measured by ``reference.py``
probes; the unscaled medians are printed too.

``--trace 1`` measures a fresh ``import nominality.cli``, runs the chain once
untraced, then once more in-process through ``cli.main`` with spans around
each module's public functions (see ``tracer.py``), and reports per-layer
metrics plus the tracing overhead.

Both modes check every artifact (``gate.py``) and print, as the last line of
standard output, ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

from tracer import COUNT_METRICS, SPAN_METRICS
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

CHAIN = ("train", "score", "eval", "sweep")
# Typical time of one reference.py child on the host the bounds were set on
# (2 vCPU Intel Xeon, shared). Timing metrics are scaled to that speed.
REFERENCE_NOMINAL_S = 0.7
IMPORT_REPEATS = 5
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "score_s": "s",
    "eval_s": "s",
    "sweep_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "best_f1": "ratio",
    "pa_best_f1": "ratio",
    "auc": "ratio",
    "success_rate": "ratio",
}


class Run:
    """Counts attempts and failures, spawns children, enforces the deadline."""

    def __init__(self, work: str) -> None:
        self.work = work
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def record(self, name: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {name}: {detail}", file=sys.stderr)

    def spawn(self, argv: list[str], cwd: str, log_name: str) -> tuple[float, int]:
        """Wall seconds from spawn to exit and ru_maxrss (kB) of one child."""
        os.makedirs(cwd, exist_ok=True)
        log_path = os.path.join(cwd, f"{log_name}.log")
        timeout = self.remaining()
        if timeout <= 0:
            self.record(log_name, False, "skipped: run deadline reached")
            return 0.0, 0
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=log, stderr=subprocess.STDOUT)
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        detail = f"exit {proc.returncode} in {cwd}"
        if proc.returncode != 0:
            with open(log_path, errors="replace") as fh:
                detail += ": " + fh.read()[-400:]
        self.record(log_name, proc.returncode == 0, detail)
        return elapsed, usage.ru_maxrss

    def cli(self, command: str, cwd: str, config_path: str) -> tuple[float, int]:
        argv = [sys.executable, "-m", "nominality.cli", command, "--config", config_path]
        return self.spawn(argv, cwd, command)

    def probe(self) -> float:
        """Seconds of one reference.py child: the host's current speed."""
        cwd = os.path.join(self.work, "reference")
        return self.spawn([sys.executable, os.path.join(HERE, "reference.py")], cwd, "reference")[0]


def openblas_threads() -> int | None:
    """Threads OpenBLAS uses in this process (children inherit the same env)."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def environment() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads the BLAS the CLI uses

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": openblas_threads(),
    }


def write_configs(run: Run, datasets) -> list[str]:
    import yaml

    paths = []
    for q, ds in enumerate(datasets):
        path = os.path.join(run.work, f"config_{q}.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(ds.config, fh, sort_keys=True)
        paths.append(path)
    return paths


def dataset_dir(base: str, q: int) -> str:
    return os.path.join(base, f"s{q}")


def out_hashes(cwd: str) -> dict[str, str]:
    from gate import file_hashes

    return file_hashes(os.path.join(cwd, "out"))


def chain_hashes(base: str, n: int) -> list[dict[str, str]]:
    return [out_hashes(dataset_dir(base, q)) for q in range(n)]


def check_artifacts(run: Run, base: str, datasets, full_oracle_first: bool) -> None:
    from gate import check_chain

    for q, ds in enumerate(datasets):
        out_dir = os.path.join(dataset_dir(base, q), "out")
        for name, ok, detail in check_chain(out_dir, ds, full_oracle_first and q == 0):
            run.record(f"{name}[s{q}]", ok, detail)


def check_repeat(run: Run, reference: list[dict], other: list[dict], what: str) -> None:
    from gate import check_identical

    for q, (ref, oth) in enumerate(zip(reference, other)):
        run.record(*check_identical(ref, oth, f"{what}[s{q}]"))


def artifact_digest(hashes: list[dict[str, str]]) -> str:
    return hashlib.sha256(json.dumps(hashes, sort_keys=True).encode()).hexdigest()


def link_inputs(source: str, target: str, names) -> None:
    os.makedirs(target, exist_ok=True)
    for name in names:
        os.link(os.path.join(source, name), os.path.join(target, name))


def scale_to_reference(events: list[list]) -> list[float]:
    """Each command's seconds at REFERENCE_NOMINAL_S probe speed.

    A command is scaled by the mean of the nearest probes before and after
    it, which removes most of the host's drift over seconds.
    """
    probe_at = [i for i, event in enumerate(events) if event[0] == "probe"]
    scaled = []
    for i, (name, _, _, seconds, _) in enumerate(events):
        if name == "probe":
            continue
        before = max(p for p in probe_at if p < i)
        after = min(p for p in probe_at if p > i)
        speed = (events[before][3] + events[after][3]) / 2.0
        scaled.append(seconds * REFERENCE_NOMINAL_S / speed)
    return scaled


def summarize(events: list[list], seconds: list[float]) -> dict[str, float]:
    """Median per command and median per-dataset chain sum."""
    commands = [event for event in events if event[0] != "probe"]
    out = {"setup_s": statistics.median(t for e, t in zip(commands, seconds) if e[0] == "synth")}
    for command in CHAIN:
        out[f"{command}_s"] = statistics.median(t for e, t in zip(commands, seconds) if e[0] == command)
    chains: dict[tuple[int, int], float] = {}
    for (name, j, q, _, _), t in zip(commands, seconds):
        if name in CHAIN:
            chains[j, q] = chains.get((j, q), 0.0) + t
    out["pipeline_s"] = statistics.median(chains.values())
    return out


def measure(run: Run, workload, datasets, seconds: float) -> dict[str, float]:
    """Untraced run: rounds of the chain until ``seconds`` have passed.

    The first round runs ``synth`` and the chain dataset by dataset; the
    datasets are the set-up repeats. Every timing metric is the median over
    the datasets (and rounds) of one command's wall time, so each samples the
    whole run rather than one stretch of it. Reference probes before each
    dataset, between ``score`` and ``eval``, and at the end measure the
    host's speed; see ``scale_to_reference``.
    """
    configs = write_configs(run, datasets)
    setup_0 = os.path.join(run.work, "setup_0")
    events: list[list] = []  # name, round, dataset, seconds, ru_maxrss (kB); in run order
    synth_hashes: list[dict[str, str]] = []
    round_hashes: list[list[dict[str, str]]] = []
    measure_start = time.perf_counter()

    def timed(command: str, j: int, q: int, cwd: str) -> None:
        elapsed, rss = run.cli(command, cwd, configs[q])
        events.append([command, j, q, elapsed, rss])

    def probe() -> None:
        events.append(["probe", None, None, run.probe(), 0])

    while True:
        j = len(round_hashes)
        base = setup_0 if j == 0 else os.path.join(run.work, f"round_{j}")
        for q in range(len(configs)):
            cwd = dataset_dir(base, q)
            probe()
            if j == 0:
                timed("synth", j, q, cwd)
                synth_hashes.append(out_hashes(cwd))
            else:
                link_inputs(os.path.join(dataset_dir(setup_0, q), "out"),
                            os.path.join(cwd, "out"), list(synth_hashes[q]))
            timed("train", j, q, cwd)
            timed("score", j, q, cwd)
            probe()
            timed("eval", j, q, cwd)
            timed("sweep", j, q, cwd)
        if j == 0:
            # One more set-up of the first dataset, which must repeat byte for byte.
            cwd = dataset_dir(os.path.join(run.work, "setup_1"), 0)
            timed("synth", j, 0, cwd)
            check_repeat(run, synth_hashes[:1], [out_hashes(cwd)], "synth_repeat")
        round_hashes.append(chain_hashes(base, len(configs)))
        if j:
            check_repeat(run, round_hashes[0], round_hashes[j], f"chain_repeat_{j}")
        elapsed = time.perf_counter() - measure_start
        if elapsed >= seconds or run.remaining() < 2 * elapsed / len(round_hashes) + 30:
            break
    probe()

    check_artifacts(run, setup_0, datasets, workload.name == "preset")
    print(f"rounds {len(round_hashes)} datasets {len(datasets)}")
    print("events " + json.dumps([[n, j, q, round(t, 6)] for n, j, q, t, _ in events]))
    print(f"artifacts {artifact_digest(round_hashes[0])}")

    commands = [event for event in events if event[0] != "probe"]
    print("unscaled " + json.dumps(summarize(events, [event[3] for event in commands])))
    metrics = summarize(events, scale_to_reference(events))
    metrics["peak_rss_mb"] = max(
        statistics.median(e[4] for e in commands if e[0] == name) for name in ("synth",) + CHAIN
    ) / 1024.0
    metrics.update(quality(setup_0, len(datasets)))
    return metrics


def quality(base: str, n: int) -> dict[str, float]:
    """Report figures averaged over the datasets (0 when a report is missing)."""
    sums = {"best_f1": 0.0, "pa_best_f1": 0.0, "auc": 0.0}
    for q in range(n):
        path = os.path.join(base, f"s{q}", "out", "eval_report.json")
        if not os.path.exists(path):
            continue
        with open(path) as fh:
            report = json.load(fh)
        for key in sums:
            sums[key] += report[key] / n
    return sums


def traced(run: Run, datasets) -> dict[str, float]:
    """Fresh-import time, one untraced chain, then the same chain traced in-process."""
    import nominality.cli as cli
    from tracer import Tracer

    configs = write_configs(run, datasets)
    commands = ("synth",) + CHAIN
    import_argv = [sys.executable, "-c", "import nominality.cli"]
    import_s = statistics.median(
        run.spawn(import_argv, os.path.join(run.work, "import"), f"import_{i}")[0]
        for i in range(IMPORT_REPEATS))

    probes = [run.probe()]
    untraced_base = os.path.join(run.work, "untraced")
    untraced_s = sum(run.cli(command, dataset_dir(untraced_base, q), config)[0]
                     for q, config in enumerate(configs) for command in commands)

    probes.append(run.probe())
    tracer = Tracer()
    traced_base = os.path.join(run.work, "traced")
    traced_s = 0.0
    tracer.install()
    try:
        for q, config in enumerate(configs):
            cwd = dataset_dir(traced_base, q)
            os.makedirs(cwd)
            for command in commands:
                with open(os.path.join(cwd, f"{command}.log"), "w") as log, \
                        contextlib.redirect_stdout(log), contextlib.chdir(cwd):
                    start = time.perf_counter()
                    code = cli.main([command, "--config", config])
                    traced_s += time.perf_counter() - start
                run.record(f"traced {command}[s{q}]", code == 0, f"exit {code}")
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(WORK_ROOT, f"spans_{os.path.basename(run.work)}.json"))
    probes.append(run.probe())

    reference = chain_hashes(untraced_base, len(datasets))
    check_repeat(run, reference, chain_hashes(traced_base, len(datasets)), "traced_vs_untraced")
    check_artifacts(run, untraced_base, datasets, False)
    print(f"spans {len(tracer.spans)}")
    print(f"artifacts {artifact_digest(reference)}")

    metrics = {"host.reference_s": statistics.median(probes), "cli.import_s": import_s}
    metrics.update(tracer.metrics())
    metrics["trace.overhead_s"] = traced_s - (untraced_s - len(commands) * len(configs) * import_s)
    return metrics


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Unit and better direction of every per-layer metric."""
    units = {"host.reference_s": ("s", "lower"), "cli.import_s": ("s", "lower")}
    units.update({name: ("s", "lower") for name in SPAN_METRICS})
    units.update({name: ("count", "lower") for name in COUNT_METRICS})
    units["series.csv_bytes"] = ("bytes", "lower")
    units["reconstructors.point_step_us"] = ("us", "lower")
    units["trace.overhead_s"] = ("s", "lower")
    return units


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    parser.add_argument("--keep", action="store_true", help="keep the work directory")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nominality", "cli.py")):
        print(f"error: no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workload = WORKLOADS[args.workload]
    datasets = workload.datasets(args.seed, args.tiny)
    print("env " + json.dumps(environment(), sort_keys=True))
    work = os.path.join(WORK_ROOT, workload.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run = Run(work)
    # Untimed warm-up: compiles the package's bytecode and pages the libraries in.
    run.spawn([sys.executable, "-c", "import nominality.cli"], os.path.join(work, "warmup"), "warmup")

    if args.trace:
        metrics = traced(run, datasets)
        units = {name: unit for name, (unit, _) in per_layer_units().items()}
    else:
        metrics = measure(run, workload, datasets, args.seconds)
        metrics["success_rate"] = 1.0 - run.failed / run.attempted
        units = END_TO_END_UNITS
    if not args.keep:
        shutil.rmtree(work, ignore_errors=True)

    for name, unit in units.items():
        print(f"{name:34s} {metrics[name]:>16.6f} {unit}")
    print(f"error_rate {run.failed / run.attempted:.6f} ({run.failed} of {run.attempted})")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
