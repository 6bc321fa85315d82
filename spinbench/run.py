#!/usr/bin/env python3
"""Benchmark of ``spinweave run`` on one workload.

    python3 spinbench/run.py --workload exact_n8 --seed 1 --seconds 25 --trace 0

Run it from the repository root; it benchmarks the package under ``src/``
and writes only under ``.spinbench_work/``.  Every timed run is
``python3 -m spinweave run CONFIG --jobs 1`` in a fresh process with BLAS
pinned to one thread, because a user pays interpreter start, imports, the
lazy ``eigh`` and the cache fills on every run.  The config comes from
``--seed`` (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics (run_s, setup_s, peak_rss_mb,
c_mae); ``--trace 1`` alternates traced and plain runs and reports the
per-layer metrics of ``tracer.py``.  Every run's output is checked (see
``checks.py``) and must be byte-identical to the first run's.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

This process imports no numpy: a child's peak RSS includes the memory of
the parent it was started from, so the parent must stay smaller than any
run it measures.
"""

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".spinbench_work"

# One BLAS thread in every child: the single-threaded baseline.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 120
SETUP_REPEATS = 5
SETUP_CODE = ("import sys, spinweave; spinweave.validate_config(sys.argv[1]); "
              "print(spinweave.__file__)")


@dataclass
class Run:
    kind: str  # "setup", "plain" or "traced"
    code: int
    wall_s: float
    rss_mb: float
    out: Path
    log: Path
    problems: list = field(default_factory=list)
    trace: dict | None = None


def run_child(argv: list, cwd: Path, log: Path) -> tuple:
    """Run ``argv`` to completion: (exit code, wall seconds, peak RSS MiB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_PIN)
    env.pop("SPINWEAVE_OUTPUT_DIR", None)
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            # wait4, unlike Popen.wait, returns this child's own rusage.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def differing_files(a: Path, b: Path) -> list:
    """Names of files that differ between two output directories."""
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    return [name for name in names
            if not ((a / name).is_file() and (b / name).is_file()
                    and (a / name).read_bytes() == (b / name).read_bytes())]


class Bench:
    """Runs of one workload and seed, inside one scratch directory."""

    def __init__(self, tmp: Path, workload, seed: int):
        self.tmp = tmp
        self.workload = workload
        self.cfg = workload.config(seed)
        self.config_path = tmp / "config.json"
        self.config_path.write_text(json.dumps(self.cfg, indent=2) + "\n")
        self.runs: list = []

    def start(self, kind: str) -> Run:
        index = len(self.runs)
        out = self.tmp / f"out{index}"
        trace_path = self.tmp / f"trace{index}.json"
        run_args = ["run", str(self.config_path), "--jobs", "1",
                    "--output-dir", str(out)]
        argv = {
            "setup": [sys.executable, "-c", SETUP_CODE, str(self.config_path)],
            "plain": [sys.executable, "-m", "spinweave"] + run_args,
            "traced": [sys.executable, str(HERE / "tracer.py"), str(trace_path)]
                      + run_args,
        }[kind]
        log = self.tmp / f"log{index}.txt"
        code, wall, rss = run_child(argv, self.tmp, log)
        run = Run(kind, code, wall, rss, out, log)
        if code != 0:
            run.problems.append(f"exit code {code}")
        if kind == "traced" and trace_path.is_file():
            run.trace = json.loads(trace_path.read_text())
        self.runs.append(run)
        return run

    def measure(self, kinds: tuple, minimum: int, seconds: float) -> list:
        """Run ``kinds`` in turn, at least ``minimum`` runs, and no further
        once the next run would end after ``seconds``."""
        start = time.perf_counter()
        done = []
        for kind in itertools.cycle(kinds):
            if len(done) >= minimum and (
                    time.perf_counter() - start + done[-1].wall_s > seconds):
                break
            done.append(self.start(kind))
        return done

    def setup(self) -> list:
        """Fresh-process import and validation.  The first, untimed probe
        fills the bytecode cache, which users do not pay for on every run."""
        probes = [self.start("setup") for _ in range(SETUP_REPEATS + 1)]
        for run in probes:
            lines = run.log.read_text(errors="replace").splitlines()
            if run.code == 0 and not (
                    lines and Path(lines[-1]).resolve().is_relative_to(SRC)):
                run.problems.append("spinweave was not imported from src/")
        return probes[1:]

    def check(self) -> dict:
        """Attach every correctness problem to the run that has it; returns
        the checker's verdict (c_mae per checked run, environment)."""
        outputs = [r for r in self.runs if r.kind != "setup"]
        checked = [r for r in outputs if r.code == 0]
        request = self.tmp / "check_request.json"
        request.write_text(json.dumps({
            "config": self.cfg, "head": self.workload.head,
            "surfaces": [str(r.out / "surface.csv") for r in checked]}))
        verdict_path = self.tmp / "check_verdict.json"
        code, _, _ = run_child(
            [sys.executable, str(HERE / "checks.py"), str(request), str(verdict_path)],
            self.tmp, self.tmp / "check_log.txt")
        if code != 0:
            log = (self.tmp / "check_log.txt").read_text(errors="replace")
            for run in checked:
                run.problems.append(f"checker exited {code}: {log[-500:]}")
            return {"c_mae": [None] * len(checked), "env": {}}
        verdict = json.loads(verdict_path.read_text())
        for run, problems in zip(checked, verdict["problems"]):
            run.problems += problems
        for run in checked[1:]:
            differ = differing_files(checked[0].out, run.out)
            if differ:
                run.problems.append(f"not byte-identical to the first run: {differ}")
        traces = [r.trace for r in outputs if r.trace is not None]
        for run in outputs:
            if run.kind != "traced":
                continue
            if run.trace is None:
                run.problems.append("no trace written")
            elif run.trace["counts"] != traces[0]["counts"]:
                run.problems.append("trace counts differ from the first traced run")
        verdict["c_mae"] = [None if r.problems else m
                            for r, m in zip(checked, verdict["c_mae"])]
        return verdict


def end_to_end(bench: Bench, seconds: float) -> tuple:
    setup = bench.setup()
    plain = bench.measure(("plain",), 3, seconds)
    verdict = bench.check()
    metrics = {
        "run_s": (statistics.median(r.wall_s for r in plain), "s"),
        "setup_s": (statistics.median(r.wall_s for r in setup), "s"),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in plain), "MiB"),
    }
    maes = [m for m in verdict["c_mae"] if m is not None]
    if maes:
        metrics["c_mae"] = (maes[0], "1")
    return metrics, [], verdict["env"]


def traced(bench: Bench, seconds: float) -> tuple:
    runs = bench.measure(("traced", "plain"), 3, seconds)
    verdict = bench.check()
    traces = [r.trace for r in runs if r.kind == "traced" and r.trace is not None]
    metrics, absent = ({}, []) if not traces else layer_metrics(
        traces, bench.cfg["pipeline"])
    walls = {kind: statistics.median(r.wall_s for r in runs if r.kind == kind)
             for kind in ("traced", "plain")}
    metrics["trace_overhead_s"] = (walls["traced"] - walls["plain"], "s")
    print(f"layer split of the traced run ({walls['traced']:.4f} s):")
    for value, name in sorted(((v, k) for k, (v, unit) in metrics.items()
                               if unit == "s" and k != "trace_overhead_s"),
                              reverse=True):
        print(f"  {name:28s} {value:9.4f} s  {100 * value / walls['traced']:5.1f}%")
    return metrics, absent, verdict["env"]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spinweave" / "__init__.py").is_file():
        print(f"error: no spinweave package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name}, seed {args.seed}: {workload.why}")

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{workload.name}-") as tmp:
        bench = Bench(Path(tmp), workload, args.seed)
        print("config " + json.dumps(bench.cfg, sort_keys=True))
        measure = traced if args.trace else end_to_end
        metrics, absent, stack = measure(bench, args.seconds)
        runs = bench.runs

    env = {"workload": workload.name, "seed": args.seed,
           "python": platform.python_version(), **stack, "cpu": cpu_model(),
           "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "blas_pin": BLAS_PIN}
    print("env " + json.dumps(env))
    for number, run in enumerate(runs, 1):
        status = "; ".join(run.problems) or "ok"
        print(f"run {number} ({run.kind}): {run.wall_s:.4f} s, "
              f"{run.rss_mb:.1f} MiB, {status}")
    failed = sum(1 for r in runs if r.problems)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if absent:
        print("absent: " + ", ".join(absent))
    print(f"fail_ratio = {failed / len(runs):.6g} ({failed} of {len(runs)} runs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
