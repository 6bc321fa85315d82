#!/usr/bin/env python3
"""End-to-end metrics of every workload in one table.

    python3 spinbench/report.py --seed 1 --seconds 25

Runs ``run.py --trace 0`` once per workload, one after the other, and
prints run_s, setup_s, peak_rss_mb, c_mae and fail_ratio by name and with
units.  Exits non-zero if a workload produced no result.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args(argv)
    status = 0
    print(f"{'workload':16s} {'metric':12s} {'value':>12s} unit")
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
            print(f"{name:16s} no result (exit {done.returncode}): "
                  f"{done.stderr.strip()[-300:]}")
            status = 1
            continue
        result = json.loads(lines[-1])
        for metric, m in result["metrics"].items():
            print(f"{name:16s} {metric:12s} {m['value']:12.6g} {m['unit']}")
        ratio = result["failed"] / result["attempted"]
        print(f"{name:16s} {'fail_ratio':12s} {ratio:12.6g} "
              f"1 ({result['failed']} of {result['attempted']} runs)")
    return status


if __name__ == "__main__":
    sys.exit(main())
