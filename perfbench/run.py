"""Benchmark of the noonspec CLI verbs.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

One process calls ``noonspec.cli.main(argv)`` in a closed loop with one
client: each call starts when the previous one returns. The workload
seed generates the scenario JSON and trace CSV; the program sees only
those files. Every call's output is checked (see workloads.py).

``--trace 0`` runs the timed pass and then one call under tracemalloc.
``--trace 1`` runs a timed pass and a traced pass of half the time each
(see tracing.py). The second-to-last stdout line is a report with the
environment, the seed, input digests, per-call times, the failure ratio
and the accuracy figure; the last line is the result object.
"""
from __future__ import annotations

import os

# Cap native thread pools before numpy loads: one compute thread per
# process keeps runs comparable on small machines.
THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(THREAD_CAPS)

import argparse
import contextlib
import gc
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_REPEATS = 3
MIN_CALLS = 3
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import noonspec.cli, noonspec.noise; print(time.perf_counter() - t)"
)


def timed_yardstick(workload) -> float:
    """Wall time of the workload's yardstick kernel.

    Shared virtual machines change speed by 30% or more for seconds to
    minutes at a time; on a 2-vCPU x86-64 VM even a pure Python loop did.
    Raw call times of runs a minute apart are then not comparable, so each
    call's time is divided by the mean of the kernel times measured just
    before and after it.
    """
    start = time.perf_counter()
    workload.yardstick()
    return time.perf_counter() - start


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_caps": THREAD_CAPS,
        "git_commit": git_commit(),
    }


class Runner:
    """Makes verb calls for one workload, checks each and counts failures."""

    def __init__(self, workload, cli_main):
        self.workload = workload
        self.cli_main = cli_main
        self.out = WORK / "out"
        self.argv = workload.argv(self.out)
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def call(self, invoke=None) -> float:
        """One checked verb call; returns its wall time."""
        shutil.rmtree(self.out, ignore_errors=True)
        gc.collect()
        invoke = invoke or (lambda: self.cli_main(self.argv))
        stdout = io.StringIO()
        self.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                rc = invoke()
        except Exception:  # a traceback is a failed call, not a benchmark crash
            self._fail(traceback.format_exc(limit=3))
            return time.perf_counter() - start
        wall = time.perf_counter() - start
        error = self.workload.check(rc, stdout.getvalue(), self.out)
        if error:
            self._fail(error)
        return wall

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)
        print(f"call failed: {message}", file=sys.stderr)

    def closed_loop(self, seconds: float, invoke=None, yardstick=False) -> tuple:
        """Calls back to back for ``seconds`` and at least MIN_CALLS.

        Returns the call walls and, with ``yardstick``, the kernel times
        measured before the first call and after each call.
        """
        walls = []
        sticks = [timed_yardstick(self.workload)] if yardstick else []
        end = time.perf_counter() + seconds
        while len(walls) < MIN_CALLS or time.perf_counter() < end:
            walls.append(self.call(invoke))
            if yardstick:
                sticks.append(timed_yardstick(self.workload))
        return walls, sticks


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter (interpreter start excluded)."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def set_up(workload_cls, seed: int, cli_main) -> tuple:
    """Imports, input generation and a warm-up call, SETUP_REPEATS times.

    Returns the median set-up time and the workload of the last repeat.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        inputs = WORK / "inputs"
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        workload = workload_cls(seed, inputs)
        start = time.perf_counter()
        workload.generate()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(workload.warmup_argv(WORK / "warmup"))
        if rc != 0:
            raise RuntimeError(f"warm-up call exited with {rc}")
        times.append(imported + time.perf_counter() - start)
    return statistics.median(times), workload


def memory_pass(runner: Runner) -> float:
    """tracemalloc peak of one verb call, in MB; the output check is not traced."""
    peak = []

    def invoke():
        tracemalloc.start()
        try:
            return runner.cli_main(runner.argv)
        finally:
            peak.append(tracemalloc.get_traced_memory()[1] / 1e6)
            tracemalloc.stop()

    runner.call(invoke)
    return peak[0]


def traced_pass(runner: Runner, seconds: float) -> tuple:
    """Per-layer medians over traced calls, the median traced wall and the synthesis peak."""
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    per_call = []

    def invoke():
        rc, root, spans = tracer.call(runner.cli_main, runner.argv)
        per_call.append(layer_metrics(spans, root))
        return rc

    tracer.install()
    try:
        walls, _ = runner.closed_loop(seconds, invoke)
    finally:
        tracer.uninstall()
    if not per_call:
        raise RuntimeError("no traced call completed")
    medians = {key: statistics.median(m[key] for m in per_call) for key in per_call[0]}
    return medians, statistics.median(walls), tracer.synth_peak_mb()


def run(args) -> int:
    if not (SRC / "noonspec" / "cli.py").is_file():
        print(f"error: no noonspec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import noonspec.cli
    from workloads import WORKLOADS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload_cls = WORKLOADS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        setup_s, workload = set_up(workload_cls, args.seed, noonspec.cli.main)
        input_digests = workload.input_digests()
        runner = Runner(workload, noonspec.cli.main)
        seconds = args.seconds / 2 if args.trace else args.seconds
        walls, sticks = runner.closed_loop(seconds, yardstick=True)
        wall_s = statistics.median(walls)
        wall_rel = statistics.median(
            wall / (0.5 * (before + after)) for wall, before, after in zip(walls, sticks, sticks[1:])
        )
        if args.trace:
            metrics, traced_wall, synth_peak = traced_pass(runner, seconds)
            metrics["interferometer.synth_peak_mb"] = synth_peak
            metrics["timed_wall_s"] = wall_s
            metrics["trace_overhead_s"] = traced_wall - wall_s
            for other in WORKLOADS.values():
                metrics[other.accuracy_layer] = 0.0
            metrics[workload.accuracy_layer] = workload.accuracy or 0.0
        else:
            peak_mem_mb = memory_pass(runner)
            metrics = {"wall_rel": wall_rel, "setup_s": setup_s, "peak_mem_mb": peak_mem_mb}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    end_to_end = {
        "wall_rel": {"value": wall_rel, "unit": "ratio"},
        "wall_s": {"value": wall_s, "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "fail_ratio": {"value": runner.failed / runner.attempted, "unit": "1"},
        workload.accuracy_name: {"value": workload.accuracy, "unit": workload.accuracy_unit},
    }
    if not args.trace:
        end_to_end["peak_mem_mb"] = {"value": peak_mem_mb, "unit": "MB"}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "loop": "closed, one client",
        "calls": runner.attempted,
        "timed_walls_s": walls,
        "yardstick_s": sticks,
        "inputs_sha256": input_digests,
        "environment": environment(),
        "end_to_end": end_to_end,
        "errors": runner.errors,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared["per_layer" if args.trace else "end_to_end"]
        },
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["simulate-tpa3", "recover-comb5", "noise-study-gauss"])
    parser.add_argument("--seed", type=int, default=0, help="0 reproduces the bundled presets")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
