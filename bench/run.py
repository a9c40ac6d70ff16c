#!/usr/bin/env python3
"""End-to-end benchmark of the `simulate` CLI.

    python3 bench/run.py --workload chart-dicke-n2 --seed 0 --seconds 30 --trace 0

With ``--trace 0`` the benchmark spawns ``python -m dressedlight.cli <task>``
on the workload's generated config, one child at a time, until the time
is used up.  Each child is timed from spawn to exit, and its CPU time and
peak RSS come from ``os.wait4``.  Set-up time is a fresh interpreter that
imports the CLI and parses the config.  With ``--trace 1`` traced and
untraced children alternate; the traced ones run ``bench/spans.py``,
which times each layer's public functions in-process.

Every child's outputs are checked.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (medians).  A results file with every sample, the
environment and, when traced, every span is written under ``bench/out``.
Run from the repository root; the package is taken from ``src``.
"""

import argparse
import ctypes
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import spans
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

SETUP_REPEATS = 5
MIN_CHILDREN = 3
CHILD_TIMEOUT_S = 150.0

SETUP_CODE = ("import sys\n"
              "from dressedlight.cli import parse_config\n"
              "parse_config(sys.argv[1], sys.argv[2])\n")

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, log_path):
    """Run ``argv`` to completion; wall time, rusage CPU time and peak RSS."""
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=log, stderr=log)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6}


def _openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as handle:
            libs = {line.split()[-1] for line in handle
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        # system OpenBLAS, and the 64-bit build bundled with numpy wheels
        for symbol in ("openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment():
    """Machine and library facts recorded in every results file."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _openblas_threads(),
                 "env": {k: os.environ[k] for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                         if k in os.environ}},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


class Run:
    """Children of one benchmark run, their checks and their samples."""

    def __init__(self, workload, seed, run_dir, use_reference=True):
        self.workload = workload
        self.run_dir = run_dir
        self.config = workload.config(seed)
        self.config_path = os.path.join(run_dir, "config.json")
        with open(self.config_path, "w") as handle:
            json.dump(self.config, handle, indent=2)
        self.out_dir = os.path.join(run_dir, "simulate")
        self.reference = None
        if use_reference and seed == workloads.DEFAULT_SEED:
            self.reference = workloads.load_reference(workload.name)
            if self.reference["config"] != self.config:
                raise SystemExit("reference config for %s does not match the "
                                 "generated config" % workload.name)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = None  # compared values of the first child
        self.samples = {"untraced": [], "traced": []}
        self.layers = []
        self.spans = []

    def cli_args(self):
        return [self.workload.task, "--config", self.config_path,
                "--out", self.out_dir]

    def child(self, traced):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        kind = "traced" if traced else "untraced"
        index = len(self.samples[kind])
        tag = "%s-%d" % (kind, index)
        if traced:
            spans_path = os.path.join(self.run_dir, "spans-%d.json" % index)
            argv = [sys.executable, os.path.join(BENCH, "spans.py"),
                    spans_path] + self.cli_args()
        else:
            argv = [sys.executable, "-m", "dressedlight.cli"] + self.cli_args()
        sample = run_child(argv, os.path.join(self.run_dir, tag + ".log"))
        problems = self.check(sample["exit"])
        if traced and sample["exit"] == 0:
            with open(spans_path) as handle:
                record = json.load(handle)
            self.layers.append(spans.layer_metrics(record["spans"],
                                                   record["counters"]))
            self.spans.append(record)
        n_ops = self.workload.operations(self.config)
        self.attempted += n_ops
        if problems:
            self.failed += n_ops
            self.problems.extend("%s: %s" % (tag, p) for p in problems)
        self.samples[kind].append(sample)

    def check(self, exit_code):
        if exit_code != 0:
            return ["simulate exited with code %d" % exit_code]
        task = self.workload.task
        # Later children must repeat the first one's values; the first is
        # held to the stored reference when there is one.
        try:
            outputs = workloads.read_outputs(task, self.out_dir)
            problems = workloads.check_outputs(
                task, self.config, outputs, self.reference or self.first)
            if not problems and self.first is None:
                self.first = workloads.observed_values(task, outputs)
        except (OSError, ValueError, KeyError) as exc:
            return ["unreadable outputs: %s: %s" % (type(exc).__name__, exc)]
        return problems

    def measure_setup(self):
        argv = [sys.executable, "-c", SETUP_CODE, self.config_path,
                self.workload.task]
        times = []
        for k in range(SETUP_REPEATS):
            sample = run_child(argv, os.path.join(self.run_dir,
                                                  "setup-%d.log" % k))
            if sample["exit"] != 0:
                raise SystemExit("set-up child failed; see %s" % self.run_dir)
            times.append(sample["wall_s"])
        return times


def write_reference(workload, run_dir):
    run = Run(workload, workloads.DEFAULT_SEED, run_dir, use_reference=False)
    run.child(traced=False)
    if run.problems:
        print("\n".join(run.problems), file=sys.stderr)
        return 1
    reference = dict(seed=workloads.DEFAULT_SEED, config=run.config,
                     **run.first)
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    with open(workloads.reference_path(workload.name), "w") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")
    print("wrote %s" % workloads.reference_path(workload.name))
    return 0


def _median(samples, key):
    return statistics.median(s[key] for s in samples)


def measure(run, seconds, trace):
    """Run rounds of children until ``seconds`` would be exceeded.

    A round is one untraced child, or with ``trace`` an untraced and a
    traced child.  The next round starts only if a round of the median
    length so far still fits, except that untraced runs always get
    MIN_CHILDREN children, so that their median rejects one slow child.
    """
    start = time.perf_counter()
    rounds = []
    while True:
        t0 = time.perf_counter()
        run.child(traced=False)
        if trace:
            run.child(traced=True)
        rounds.append(time.perf_counter() - t0)
        if not trace and len(rounds) < MIN_CHILDREN:
            continue
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            return


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="run once at the default seed and store its "
                             "outputs as the workload's reference")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dressedlight", "cli.py")):
        print("bench: no dressedlight package under %s" % SRC, file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    run_dir = os.path.join(OUT, workload.name,
                           "seed%d-trace%d" % (args.seed, args.trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    if args.write_reference:
        return write_reference(workload, run_dir)
    run = Run(workload, args.seed, run_dir)
    setup = run.measure_setup()
    measure(run, args.seconds, args.trace)

    untraced = run.samples["untraced"]
    if args.trace:
        traced = run.samples["traced"]
        metrics = spans.median_metrics(run.layers) if run.layers else {}
        units = {k: u for k, (u, _) in spans.LAYER_METRICS.items()}
        overhead = _median(traced, "wall_s") - _median(untraced, "wall_s")
        metrics["trace.overhead_s"] = overhead
        units["trace.overhead_s"] = "s"
        counts = {"traced": len(traced), "untraced": len(untraced)}
    else:
        metrics = {k: _median(untraced, k) for k in ("wall_s", "cpu_s",
                                                      "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(setup)
        units = E2E_UNITS
        counts = {"children": len(untraced), "setup": len(setup)}
    fail_ratio = run.failed / run.attempted

    correct = not run.problems and (not args.trace or bool(run.layers))
    result = {
        "workload": workload.name, "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds, "config": run.config,
        "environment": environment(), "sample_counts": counts,
        "samples": run.samples, "setup_samples_s": setup,
        "metrics": metrics, "fail_ratio": fail_ratio,
        "attempted": run.attempted, "failed": run.failed,
        "problems": run.problems, "spans": run.spans,
    }
    results_path = os.path.join(run_dir, "results.json")
    with open(results_path, "w") as handle:
        json.dump(result, handle, indent=1)

    print("workload %s  seed %d  trace %d  samples %s"
          % (workload.name, args.seed, args.trace, counts))
    for name, value in metrics.items():
        print("  %-40s %14.6g %s" % (name, value, units[name]))
    print("  %-40s %14.6g 1  (%d of %d operations)"
          % ("fail_ratio", fail_ratio, run.failed, run.attempted))
    for problem in run.problems:
        print("  problem: %s" % problem)
    print("results: %s" % os.path.relpath(results_path, ROOT))
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
