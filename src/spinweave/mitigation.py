"""Readout and CNOT error mitigation.

Transition-matrix error mitigation (TMEM) inverts the readout confusion
matrix T by constrained least squares: it returns the distribution p
minimizing ||T p - p_noisy||_2^2 over the probability simplex.  The solver
is plain projected gradient with the Lipschitz step 1 / ||T^T T||_2, which
at the dimensions used here (2^n for n <= 8) is deterministic, dependency
free, and converges to the global optimum of the convex problem.

Zero-noise extrapolation (ZNE) takes the readout distributions of the
original circuit (every CNOT once, m=1) and of the CNOT-tripled variant
(m=3), extrapolates each bitstring probability linearly to m=0,

    p0(x) = (3 p1(x) - p3(x)) / 2,

accepts the result when it already lies in [0, 1] everywhere (it then sums
to one automatically), and otherwise returns the Euclidean projection onto
the probability simplex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qsim import BitstringDistribution

TMEM_TOL = 1e-10
TMEM_MAX_ITER = 100_000


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex.

    Standard sort-and-threshold: with u the entries sorted descending and
    S_j their prefix sums, the support size is the largest j with
    u_j + (1 - S_j) / j > 0, and the projection is max(v + lambda, 0) with
    lambda = (1 - S_j) / j.  Idempotent and non-expansive.
    """
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("simplex projection requires finite entries")
    u = np.sort(v)[::-1]
    cumsum = np.cumsum(u)
    j = np.arange(1, v.size + 1)
    support = np.nonzero(u + (1.0 - cumsum) / j > 0)[0][-1]
    lam = (1.0 - cumsum[support]) / (support + 1)
    return np.maximum(v + lam, 0.0)


class TmemSolver:
    """Reusable projected-gradient solver for a fixed confusion matrix.

    Precomputes the step size and condition number once so that surface
    runs can correct hundreds of distributions against the same T.  T must
    be square and column-stochastic.
    """

    def __init__(self, t: np.ndarray):
        t = np.asarray(t, dtype=float)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError(f"T must be square, got shape {t.shape}")
        if np.max(np.abs(t.sum(axis=0) - 1.0)) > 1e-9:
            raise ValueError("T columns must sum to 1")
        self.t = t
        self.gram = self.t.T @ self.t
        self.step = 1.0 / np.linalg.norm(self.gram, 2)
        self.condition_number = float(np.linalg.cond(self.t))

    def solve(self, b: np.ndarray):
        """Minimize ||T x - b||_2^2 over the simplex within TMEM_TOL, in at
        most TMEM_MAX_ITER steps from b projected; returns (x, iters, ok)."""
        b = np.asarray(b, dtype=float)
        if b.shape != self.t.shape[:1]:
            raise ValueError(f"distribution must have {self.t.shape[0]} entries, "
                             f"got shape {b.shape}")
        tb = self.t.T @ b
        x = project_simplex(b)
        for it in range(1, TMEM_MAX_ITER + 1):
            x_new = project_simplex(x - self.step * (self.gram @ x - tb))
            delta = np.max(np.abs(x_new - x))
            x = x_new
            if delta < TMEM_TOL:
                return x, it, True
        return x, TMEM_MAX_ITER, False


@dataclass(frozen=True)
class ZnePair:
    """Readout distributions of the m=1 circuit and its CNOT^3 variant."""

    p1: BitstringDistribution
    p3: BitstringDistribution

    def __post_init__(self):
        if self.p1.n_qubits != self.p3.n_qubits:
            raise ValueError("ZNE pair dimensions differ")


def zne_extrapolate(p1: np.ndarray, p3: np.ndarray) -> np.ndarray:
    """Per-bitstring linear extrapolation to zero CNOT noise, unconstrained."""
    return (3.0 * np.asarray(p1, dtype=float) - np.asarray(p3, dtype=float)) / 2.0


def zne_correct(pair: ZnePair) -> BitstringDistribution:
    """Zero-noise extrapolated distribution, projected back onto the simplex
    only when the raw extrapolation leaves [0, 1]."""
    raw = zne_extrapolate(pair.p1.probabilities, pair.p3.probabilities)
    if np.all(raw >= 0.0) and np.all(raw <= 1.0):
        return BitstringDistribution(pair.p1.n_qubits, raw)
    return BitstringDistribution(pair.p1.n_qubits, project_simplex(raw))
