"""Command-line entry point.

Subcommands:

* ``run <config.json>``: run the configured experiment, writing
  ``surface.csv``, ``surface.meta.json``, and one ``heatmap_<col>.svg``
  per variant column that holds data.
* ``render <surface.csv> --variant <col>``: re-render one column.
* ``diff <a.csv> <b.csv> --column <col> [--column-b <col>]``: pointwise
  difference surface.
* ``presets list``: bundled figure configurations.

``run`` writes into ``--output-dir``, or into ``./spinweave_out`` when that
flag is absent or empty.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import preset_names, preset_path, validate_config
from .heatmap import render_heatmap
from .otoc import build_surface
from .surface_io import (VALUE_COLUMNS, diff_surfaces, load_surface,
                         write_surface, write_table)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinweave",
        description="Operator-spreading surfaces for a driven Ising chain")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config", help="path to a JSON config file")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_run.add_argument("--output-dir", default=None)
    p_run.add_argument("--jobs", type=int, default=1,
                       help="worker processes for grid evaluation, at most "
                            "ell_max + 1 and the usable CPUs")

    p_render = sub.add_parser("render", help="render a surface column as SVG")
    p_render.add_argument("surface", help="surface CSV path")
    p_render.add_argument("--variant", required=True,
                          help=f"one of {VALUE_COLUMNS}")
    p_render.add_argument("--out", default=None)

    p_diff = sub.add_parser("diff", help="pointwise difference of two surfaces")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    p_diff.add_argument("--column", required=True)
    p_diff.add_argument("--column-b", default=None,
                        help="column taken from the second surface "
                             "(defaults to --column)")
    p_diff.add_argument("--out", default=None)

    p_presets = sub.add_parser("presets", help="bundled figure configurations")
    p_presets.add_argument("action", choices=["list"])
    return parser


def _cmd_run(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    cfg = validate_config(args.config, seed=args.seed)
    out_dir = Path(args.output_dir or "spinweave_out")
    surface = build_surface(cfg, jobs=args.jobs)
    csv_path, meta_path = write_surface(surface, cfg, out_dir)
    print(csv_path)
    print(meta_path)
    # The heatmaps are drawn from the file just written, as `render` would.
    table = load_surface(csv_path)
    for column in VALUE_COLUMNS:
        if not column.startswith("C_") or np.isnan(table.columns[column]).all():
            continue
        svg_path = out_dir / f"heatmap_{column}.svg"
        svg_path.write_bytes(render_heatmap(table, column).encode("utf-8"))
        print(svg_path)
    return 0


def _cmd_render(args) -> int:
    table = load_surface(args.surface)
    svg = render_heatmap(table, args.variant)
    out = Path(args.out) if args.out else (
        Path(args.surface).with_name(f"{Path(args.surface).stem}_{args.variant}.svg"))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_bytes(svg.encode("utf-8"))
    print(out)
    return 0


def _cmd_diff(args) -> int:
    a = load_surface(args.a)
    b = load_surface(args.b)
    table = diff_surfaces(a, b, args.column, args.column_b)
    out = Path(args.out) if args.out else Path(
        f"{Path(args.a).stem}_minus_{Path(args.b).stem}.csv")
    meta = {"format": "spinweave-diff-v1", "a": Path(args.a).name,
            "b": Path(args.b).name, "column": args.column,
            "column_b": args.column_b or args.column}
    write_table(table, out, meta)
    print(out)
    return 0


def _cmd_presets(args) -> int:
    for name in preset_names():
        path = preset_path(name)
        data = json.loads(path.read_text(encoding="utf-8"))
        print(f"{name:10s} {data.get('description', '')}")
        print(f"{'':10s} {path}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "render": _cmd_render,
                "diff": _cmd_diff, "presets": _cmd_presets}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:  # ConfigError and CapacityError too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
