"""Surface files: deterministic CSV plus a JSON metadata sidecar.

CSV schema (stable across pipelines; absent variants are empty fields,
never omitted columns)::

    j,ell,t,C_raw,C_tmem,C_zne,C_corr,C_exact,F_abs,F_phase

Rows are ordered by probe site j (1..n), then time index ell (0..ell_max),
one row per grid point.  Floats are written with 12 significant digits,
LF line endings, UTF-8.  Identical config and seed produce byte-identical
files; the metadata echoes the resolved configuration but never the
output directory or a timestamp, for the same reason.

``F_abs`` and ``F_phase`` always reconstruct the point's commutator as
C = 2 - 2 F_abs cos(F_phase).  Measured pipelines store the raw measured
modulus with the classical fixed-node phase (so the reconstruction is
C_raw); the exact pipeline stores the exact modulus and phase (so the
reconstruction is C_exact).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._version import __version__
from .config import ExperimentConfig, config_echo

# One surface variant each, in CSV column order
VALUE_COLUMNS = ("C_raw", "C_tmem", "C_zne", "C_corr", "C_exact", "F_abs", "F_phase")
CSV_COLUMNS = ("j", "ell", "t") + VALUE_COLUMNS
FORMAT_NAME = "spinweave-surface-v1"


def check_value_column(column: str) -> str:
    """``column`` if it names a value column; ValueError otherwise."""
    if column not in VALUE_COLUMNS:
        raise ValueError(f"unknown column {column!r}; choose a variant "
                         f"from {VALUE_COLUMNS}")
    return column


def format_value(x: float) -> str:
    """12-significant-digit float formatting; NaN becomes the empty field."""
    return "" if math.isnan(x) else f"{x:.12g}"


@dataclass(frozen=True)
class SurfaceTable:
    """A surface as one float array per CSV column, rows in file order."""

    columns: dict

    def __post_init__(self):
        missing = set(CSV_COLUMNS) - set(self.columns)
        if missing:
            raise ValueError(f"surface table missing columns {sorted(missing)}")

    @property
    def n(self) -> int:
        return int(self.columns["j"].max())

    @property
    def ell_max(self) -> int:
        return int(self.columns["ell"].max())

    def __len__(self) -> int:
        return self.columns["j"].size

    def grid(self, column: str) -> np.ndarray:
        """Value column reshaped to (n, ell_max + 1), indexed [j-1, ell]."""
        out = np.full((self.n, self.ell_max + 1), np.nan)
        j = self.columns["j"].astype(int)
        ell = self.columns["ell"].astype(int)
        out[j - 1, ell] = self.columns[check_value_column(column)]
        return out


def render_csv(table: SurfaceTable) -> str:
    lines = [",".join(CSV_COLUMNS)]
    j = table.columns["j"]
    ell = table.columns["ell"]
    for r in range(len(table)):
        row = [str(int(j[r])), str(int(ell[r]))]
        row += [format_value(float(table.columns[c][r])) for c in CSV_COLUMNS[2:]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def write_table(table: SurfaceTable, out_path, meta: dict):
    """Write a table as CSV plus its ``.meta.json`` sidecar; returns
    (csv_path, meta_path)."""
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_bytes(render_csv(table).encode("utf-8"))
    meta_path = out_path.with_suffix(".meta.json")
    meta_path.write_bytes((json.dumps(meta, sort_keys=True, indent=2) + "\n").encode())
    return out_path, meta_path


def write_surface(table: SurfaceTable, cfg: ExperimentConfig, out_dir):
    """Write ``surface.csv`` and its metadata sidecar into ``out_dir``;
    returns (csv_path, meta_path)."""
    meta = {"format": FORMAT_NAME, "version": __version__,
            "columns": list(CSV_COLUMNS), "rows": len(table),
            "config": config_echo(cfg)}
    return write_table(table, Path(out_dir) / "surface.csv", meta)


def _parse_field(text: str, column: str, where: str) -> float:
    """One CSV field as a finite float (the writer writes NaN as the empty
    field, and no other non-finite number); j >= 1, ell >= 0 (whole) and t
    are required."""
    if not text and column not in ("j", "ell", "t"):
        return np.nan
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{where}, column {column}: expected a number, "
                         f"got {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{where}, column {column}: expected a finite number, "
                         f"got {text!r}")
    lowest = {"j": 1, "ell": 0}.get(column)
    if lowest is not None and not (value.is_integer() and value >= lowest):
        raise ValueError(f"{where}, column {column}: expected a whole number "
                         f">= {lowest}, got {text!r}")
    return value


def load_surface(path) -> SurfaceTable:
    """Read a surface CSV back into column arrays (empty fields become NaN);
    a malformed file raises ValueError naming the path, line and column, and
    one that is not UTF-8 or whose rows do not fill the (j, ell) grid names
    the path."""
    try:
        reader = csv.reader(io.StringIO(Path(path).read_bytes().decode("utf-8"),
                                        newline=""))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8: {exc}") from None
    rows, grid = [], set()
    header = next(reader, None)
    if header != list(CSV_COLUMNS):
        raise ValueError(f"{path}: expected columns {CSV_COLUMNS}, got {header}")
    for fields in reader:
        where = f"{path}: line {reader.line_num}"
        if len(fields) != len(CSV_COLUMNS):
            raise ValueError(f"{where}: expected {len(CSV_COLUMNS)} fields, "
                             f"got {len(fields)}")
        rows.append([_parse_field(text, column, where)
                     for column, text in zip(CSV_COLUMNS, fields)])
        if tuple(rows[-1][:2]) in grid:
            raise ValueError(f"{where}: repeats the grid point "
                             f"j={fields[0]}, ell={fields[1]}")
        grid.add(tuple(rows[-1][:2]))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    table = SurfaceTable(dict(zip(CSV_COLUMNS, np.array(rows).T.copy())))
    if len(table) != table.n * (table.ell_max + 1):  # distinct points: a full grid
        raise ValueError(f"{path}: {len(table)} rows do not fill the grid "
                         f"j = 1..{table.n}, ell = 0..{table.ell_max}")
    return table


def diff_surfaces(a: SurfaceTable, b: SurfaceTable, column: str,
                  column_b: str | None = None) -> SurfaceTable:
    """Pointwise difference a[column] - b[column_b or column] on congruent
    grids, returned as a surface table with the difference stored under
    ``column`` and every other variant column empty."""
    check_value_column(column)
    column_b = check_value_column(column_b or column)
    same_grid = (len(a) == len(b)
                 and np.array_equal(a.columns["j"], b.columns["j"])
                 and np.array_equal(a.columns["ell"], b.columns["ell"])
                 and np.allclose(a.columns["t"], b.columns["t"], atol=1e-12, rtol=0))
    if not same_grid:
        raise ValueError("surface grids are not congruent")
    cols = {name: np.full(len(a), np.nan) for name in CSV_COLUMNS}
    for name in ("j", "ell", "t"):
        cols[name] = a.columns[name].copy()
    cols[column] = a.columns[column] - b.columns[column_b]
    return SurfaceTable(cols)
