"""Readout and CNOT error mitigation.

Transition-matrix error mitigation (TMEM) inverts the readout confusion
matrix T by constrained least squares: it returns the distribution p
minimizing ||T p - p_noisy||_2^2 over the probability simplex, exactly and
in finitely many steps, by a primal active-set method as in Lawson-Hanson
NNLS, started from the simplex projection of the least-squares solution
T^+ p_noisy (see :meth:`TmemSolver.solve`).

Zero-noise extrapolation (ZNE) takes the readout distributions at the CNOT
folds :data:`ZNE_FOLDS`, the circuit (m=1) and its CNOT-tripled channel
(m=3), and extrapolates each bitstring probability linearly to m=0 with the
Richardson weights of folds a < b (Temme, Bravyi & Gambetta, PRL 2017),

    p0(x) = (b pa(x) - a pb(x)) / (b - a) = (3 p1(x) - p3(x)) / 2,

accepts the result when it already lies in [0, 1] everywhere (it then sums
to one automatically), and otherwise returns the Euclidean projection onto
the probability simplex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_array
from .qsim import BitstringDistribution

TMEM_TOL = 1e-10
TMEM_MAX_ITER = 1_000
# the CNOT folds that ZNE reads out, in the order zne_extrapolate takes them
ZNE_FOLDS = (1, 3)


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex.

    Standard sort-and-threshold: with u the entries sorted descending and
    S_j their prefix sums, the support size is the largest j with
    u_j + (1 - S_j) / j > 0, and the projection is max(v + lambda, 0) with
    lambda = (1 - S_j) / j.  Idempotent and non-expansive.
    """
    v = np.asarray(check_array(v, "v", 1), dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("simplex projection requires finite entries")
    u = np.sort(v)[::-1]
    cumsum = np.cumsum(u)
    j = np.arange(1, v.size + 1)
    support = np.nonzero(u + (1.0 - cumsum) / j > 0)[0][-1]
    lam = (1.0 - cumsum[support]) / (support + 1)
    return np.maximum(v + lam, 0.0)


class TmemSolver:
    """Active-set TMEM solver for one square, column-stochastic T (possibly
    singular): finite entries in [0, 1], each column summing to 1."""

    def __init__(self, t: np.ndarray):
        t = np.asarray(check_array(t, "T", 2), dtype=float)
        if np.max(np.abs(t.sum(axis=0) - 1.0)) > 1e-9:
            raise ValueError("T columns must sum to 1")
        if not ((t >= 0.0) & (t <= 1.0)).all():
            raise ValueError("T entries must be finite and lie in [0, 1]")
        self.t = t
        self.t_pinv = np.linalg.pinv(t)

    def solve(self, b: np.ndarray):
        """Minimize ||T x - b||_2^2 over the simplex; returns (x, iterations,
        converged).  Starting from the support S of project_simplex(T^+ b),
        with T^+ the pseudo-inverse that the solver builds once, the KKT
        system [G_SS 1; 1^T 0] [z; mu] = [(T^T b)_S; 1], G = T^T T, is
        solved as the least squares min ||T_S z - b|| over z summing to one
        (cond(T) unsquared; a minimizer also for singular T).  While z leaves
        the simplex, x steps to the boundary and the entry that hits zero
        leaves S.  Each iteration ends at x = z: converged if no multiplier
        g_i - x.g, g = T^T (T x - b), is below -TMEM_TOL, else the most
        negative one joins S.  ``iterations`` (<= TMEM_MAX_ITER) counts these.
        """
        if np.shape(b) != self.t.shape[:1]:
            raise ValueError(f"distribution must have {self.t.shape[0]} entries, "
                             f"got shape {np.shape(b)}")
        b = np.asarray(check_array(b, "distribution", 1), dtype=float)
        x = project_simplex(self.t_pinv @ b)
        support = x > 0.0
        for it in range(1, TMEM_MAX_ITER + 1):
            while True:  # each step back shrinks S, so this ends
                idx = np.flatnonzero(support)
                last = self.t[:, idx[-1]]
                y = np.linalg.lstsq(self.t[:, idx[:-1]] - last[:, None], b - last,
                                    rcond=None)[0]
                z = np.append(y, 1.0 - y.sum())
                out = z <= 0.0
                if not out.any():
                    break
                ratios = x[idx[out]] / (x[idx[out]] - z[out])
                x[idx] = np.maximum(x[idx] + ratios.min() * (z - x[idx]), 0.0)
                x[idx[out][np.argmin(ratios)]] = 0.0
                support = x > 0.0
            x[idx] = z  # entries off S are already zero
            grad = self.t.T @ (self.t @ x - b)
            multipliers = np.where(support, np.inf, grad - x @ grad)
            if multipliers.min() >= -TMEM_TOL:
                return x, it, True
            support[np.argmin(multipliers)] = True
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
    a, b = ZNE_FOLDS
    return (b * np.asarray(p1, dtype=float) - a * np.asarray(p3, dtype=float)) / (b - a)


def zne_correct(pair: ZnePair) -> BitstringDistribution:
    """Zero-noise extrapolated distribution, projected back onto the simplex
    only when the raw extrapolation leaves [0, 1]."""
    raw = zne_extrapolate(pair.p1.probabilities, pair.p3.probabilities)
    if np.all(raw >= 0.0) and np.all(raw <= 1.0):
        return BitstringDistribution(pair.p1.n_qubits, raw)
    return BitstringDistribution(pair.p1.n_qubits, project_simplex(raw))
