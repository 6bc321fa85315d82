"""Run every bundled preset and every config of ``tools/ci_configs.py`` at
--jobs 1 and --jobs 2, and fail unless the two output trees are identical.

    python3 tools/sweep.py OUT_DIR [--src SRC]

Each run is ``PYTHONPATH=SRC python3 -W error::RuntimeWarning -W
error::DeprecationWarning -m spinweave run CONFIG --jobs J --output-dir
OUT_DIR/jobsJ/NAME``, so an unconverged TMEM solve, an overflow or a
deprecated call fails it.  SRC defaults to this checkout's ``src``, and its
``spinweave/presets`` supplies the presets; the other configs are written
to ``OUT_DIR/configs``.  The exit status is that of the first run that
fails, else that of ``diff -r OUT_DIR/jobs1 OUT_DIR/jobs2``.

To check that a change keeps every output byte-identical, sweep a copy of
the parent commit too, with ``--src`` set to its ``src``, and ``diff -r``
the two OUT_DIRs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from ci_configs import ROOT, all_configs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args()
    configs = sorted((args.src / "spinweave" / "presets").glob("*.json"))
    config_dir = args.out_dir / "configs"
    config_dir.mkdir(parents=True, exist_ok=True)
    for name, cfg in all_configs().items():
        configs.append(config_dir / f"{name}.json")
        configs[-1].write_text(json.dumps(cfg) + "\n", encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(args.src)}
    for config in configs:
        for jobs in (1, 2):
            command = [sys.executable, "-W", "error::RuntimeWarning",
                       "-W", "error::DeprecationWarning", "-m", "spinweave", "run",
                       str(config), "--jobs", str(jobs),
                       "--output-dir", str(args.out_dir / f"jobs{jobs}" / config.stem)]
            status = subprocess.run(command, env=env, stdout=subprocess.DEVNULL).returncode
            if status:
                print(f"exit {status}: {' '.join(command)}", file=sys.stderr)
                return status
    return subprocess.run(["diff", "-r", str(args.out_dir / "jobs1"),
                           str(args.out_dir / "jobs2")]).returncode


if __name__ == "__main__":
    sys.exit(main())
