"""Correctness checks on the surface one ``spinweave run`` writes.

The surface CSV is parsed here with the standard library, not with the
program's own reader, and ``C`` is compared with an oracle built the naive
way: Hamiltonian from explicit Kronecker products, propagator from
``scipy.linalg.expm``, OTOC from dense site operators.  Nothing here shares
a code path with the package under test.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import numpy as np
import scipy
from scipy.linalg import expm

from workloads import couplings

COLUMNS = ("j", "ell", "t", "C_raw", "C_tmem", "C_zne", "C_corr", "C_exact",
           "F_abs", "F_phase")
C_COLUMNS = ("C_raw", "C_tmem", "C_zne", "C_corr", "C_exact")
# Columns each pipeline fills, and the column F_abs/F_phase reconstruct.
FILLED = {"exact": ("C_exact",),
          "sampled": ("C_raw", "C_exact"),
          "mitigated": C_COLUMNS}
RECONSTRUCTED = {"exact": "C_exact", "sampled": "C_raw", "mitigated": "C_raw"}

# The CSV holds 12 significant digits, so values of C (at most 4) are exact
# to about 5e-12; 1e-9 leaves room for that and for the oracle's own error.
TOL = 1e-9

_I2 = np.eye(2, dtype=complex)
_X2 = np.array([[0, 1], [1, 0]], dtype=complex)
_Z2 = np.diag([1.0, -1.0]).astype(complex)


def read_surface(path) -> dict:
    """Columns of a surface CSV as float arrays; empty fields become NaN."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != COLUMNS:
            raise ValueError(f"header {header} is not {COLUMNS}")
        rows = [[float(x) if x else np.nan for x in row] for row in reader]
    data = np.array(rows, dtype=float).reshape(-1, len(COLUMNS))
    return {name: data[:, i] for i, name in enumerate(COLUMNS)}


def _site_op(op, site, n):
    out = np.eye(1, dtype=complex)
    for q in range(1, n + 1):
        out = np.kron(out, op if q == site else _I2)
    return out


def oracle_surface(n: int, j_coupling: float, bx: float, bz: float,
                   tau: float, ell_max: int) -> np.ndarray:
    """C = 2 - 2 Re <0|X_1(t) X_j X_1(t) X_j|0> over the (j, ell) grid,
    indexed [j - 1, ell]."""
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for q in range(1, n):
        h += j_coupling * _site_op(_Z2, q, n) @ _site_op(_Z2, q + 1, n)
    for q in range(1, n + 1):
        h += bz * _site_op(_Z2, q, n) + bx * _site_op(_X2, q, n)
    step = expm(-1j * tau * h)
    x1 = _site_op(_X2, 1, n)
    probes = [_site_op(_X2, j, n) for j in range(1, n + 1)]
    u = np.eye(2 ** n, dtype=complex)
    out = np.empty((n, ell_max + 1))
    for ell in range(ell_max + 1):
        if ell:
            u = u @ step
        x1t = u.conj().T @ x1 @ u
        for j, xj in enumerate(probes):
            # (A A)[0, 0] with A = X_1(t) X_j: first row of A times first column.
            f = (x1t[0, :] @ xj) @ (x1t @ xj[:, 0])
            out[j, ell] = 2.0 - 2.0 * f.real
    return out


def grid(cols: dict, column: str, n: int, ell_max: int) -> np.ndarray:
    return cols[column].reshape(n, ell_max + 1)


def c_mae(cols: dict, column: str, oracle: np.ndarray) -> float:
    """Mean |C_column - C_oracle| over the grid."""
    n, width = oracle.shape
    return float(np.mean(np.abs(grid(cols, column, n, width - 1) - oracle)))


def surface_problems(csv_path, cfg: dict, oracle: np.ndarray) -> list[str]:
    """Every way the surface at ``csv_path`` breaks its documented contract
    for the config ``cfg``; empty when it is correct."""
    try:
        cols = read_surface(csv_path)
    except (OSError, ValueError) as exc:
        return [f"unreadable surface: {exc}"]
    n, ell_max, pipeline = cfg["n"], cfg["ell_max"], cfg["pipeline"]
    rows = n * (ell_max + 1)
    if cols["j"].size != rows:
        return [f"{cols['j'].size} rows, expected n*(ell_max+1) = {rows}"]
    problems = []
    order = (np.repeat(np.arange(1, n + 1), ell_max + 1),
             np.tile(np.arange(ell_max + 1), n))
    if not (np.array_equal(cols["j"], order[0])
            and np.array_equal(cols["ell"], order[1])):
        problems.append("rows are not ordered by j, then ell")
    if np.max(np.abs(cols["t"] - cols["ell"] * cfg["tau"])) > TOL:
        problems.append("t is not ell * tau")
    for column in C_COLUMNS:
        values = cols[column]
        if column not in FILLED[pipeline]:
            if not np.all(np.isnan(values)):
                problems.append(f"{column} should be empty for {pipeline}")
            continue
        if np.any(np.isnan(values)):
            problems.append(f"{column} has empty fields")
        elif np.any(values < -TOL) or np.any(values > 4.0 + TOL):
            problems.append(f"{column} leaves [0, 4]")
    rebuilt = 2.0 - 2.0 * cols["F_abs"] * np.cos(cols["F_phase"])
    target = RECONSTRUCTED[pipeline]
    if not np.max(np.abs(rebuilt - cols[target])) <= TOL:
        problems.append(f"F_abs, F_phase do not reconstruct {target}")
    if problems:
        return problems
    err = np.max(np.abs(grid(cols, "C_exact", n, ell_max) - oracle))
    if not err <= TOL:
        problems.append(f"C_exact is {err:.3g} from the oracle")
    if pipeline == "mitigated":
        corr, raw = c_mae(cols, "C_corr", oracle), c_mae(cols, "C_raw", oracle)
        if not corr < raw:
            problems.append(f"mitigation does not help: c_mae(C_corr) = "
                            f"{corr:.4g} >= c_mae(C_raw) = {raw:.4g}")
    return problems


def environment() -> dict:
    """Versions of the numerical stack the checked runs used."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"numpy": np.__version__, "scipy": scipy.__version__, "blas": blas}


def main(argv: list[str]) -> int:
    """Check surfaces in a process of their own, so that the benchmark's own
    process stays smaller than the runs whose peak memory it measures.

    Reads {"config", "head", "surfaces"} from argv[0] and writes
    {"problems", "c_mae", "env"} to argv[1], one entry per surface.
    """
    request = json.loads(Path(argv[0]).read_text())
    cfg = request["config"]
    j, bx, bz = couplings(cfg)
    oracle = oracle_surface(cfg["n"], j, bx, bz, cfg["tau"], cfg["ell_max"])
    problems, maes = [], []
    for path in request["surfaces"]:
        problems.append(surface_problems(path, cfg, oracle))
        maes.append(None if problems[-1] else
                    c_mae(read_surface(path), request["head"], oracle))
    result = {"problems": problems, "c_mae": maes, "env": environment()}
    Path(argv[1]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
