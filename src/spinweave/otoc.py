"""Out-of-time-ordered correlators, the ancilla-free |F| protocol, and
spacetime spreading surfaces.

The correlator measured throughout is

    F_ij(t) = tr[rho X_i(t) V_j X_i(t) V_j],    X_i(t) = U(t)^dag X_i U(t),

with V_j = X_j by default (Y_j for the alternative probe) and rho one of
the all-zeros projector, the uniform-superposition projector (the all-ones
matrix over its dimension, which factorizes as a pure product state), or
the maximally mixed state.  The squared commutator follows as
C = 2 - 2 Re F because the probe operators are Pauli (unitary and
Hermitian), which pins both time-ordered terms to one; C lies in [0, 4].

|F| can be measured without ancillas: applying the gate sequence

    X_j, U, X_i, U^dag, X_j, U, X_i, U^dag

to |0...0> makes the all-zeros return probability equal |F_ij|^2.  The
fixed-node variant then restores a phase from the classical-Hamiltonian
OTOC, which is exact whenever the transverse field vanishes and remains
accurate outside the spreading lightcone and deep in the scrambled regime.

Exact values come from one kernel, :func:`_otoc_value`, that builds no
2^n x 2^n probe matrix.  X_i U is U with its rows flipped on bit i, so
X_i(t) costs one matrix product.  V_j flips the column index of X_i(t),
times +i or -i per column for Y.  Each state forms only what rho reads of
A_j A_j, A_j = X_i(t) V_j: row 0 times column 0 (all zeros), the column sums
times the row sums over d (uniform superposition), or sum(A_j * A_j^T) / d
(maximally mixed).
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

from .config import PROBES, STATES
from .errors import CapacityError
from .ising import (IsingParams, MAX_OTOC_QUBITS, _check_site,
                    cached_evolution, classical_otoc_phase)
from .mitigation import TmemSolver, ZnePair, zne_correct
from .noise import (build_confusion_matrix, empirical_distribution, fold_cnots,
                    sample_counts, simulate_noisy)
from .qsim import (BitstringDistribution, Circuit, StateVector, apply_circuit,
                   dagger, measurement_distribution, x_gate)
from .surface_io import SurfaceTable
from .weave import weave_circuit

# Surface columns in the order of the value tuples that _surface_row builds.
ROW_COLUMNS = ("C_raw", "C_tmem", "C_zne", "C_corr", "C_exact", "F_abs", "F_phase")


def _heisenberg_x(p: IsingParams, i: int, t: float) -> np.ndarray:
    """X_i(t) = U^dag X_i U; X_i U is U with its rows flipped on bit i."""
    u = cached_evolution(p).unitary(t)
    return u.conj().T @ u[np.arange(2 ** p.n) ^ (1 << (p.n - i))]


def _otoc_value(xit: np.ndarray, state: str, probe: str) -> np.ndarray:
    """F_ij = tr[rho A_j A_j], A_j = X_i(t) V_j, for every probe site j = 1..n.

    V_j flips the column index of X_i(t) on bit j (times +i or -i by that
    bit for the Y probe), and each state forms only what rho reads.
    """
    if state not in STATES:
        raise ValueError(f"unknown state tag {state!r}; choose from {STATES}")
    if probe not in PROBES:
        raise ValueError(f"unknown probe {probe!r}; choose from {PROBES}")
    d = xit.shape[0]
    n = d.bit_length() - 1
    index = np.arange(d)
    out = np.empty(n, dtype=complex)
    for j in range(1, n + 1):
        bit = n - j
        cols = index ^ (1 << bit)
        scale = np.ones(d) if probe == "x" else 1j * (1 - 2 * ((index >> bit) & 1))
        if state == "zeros":  # row 0 of A_j times its column 0
            out[j - 1] = (xit[0, cols] * scale) @ (xit[:, cols[0]] * scale[0])
            continue
        a = xit[:, cols] * scale
        if state == "plus":  # rho = |v><v| with v uniform
            out[j - 1] = a.sum(axis=0) @ a.sum(axis=1) / d
        else:
            out[j - 1] = np.sum(a * a.T) / d
    return out


def otoc_exact(p: IsingParams, i: int, j: int, t: float,
               state: str = "zeros", probe: str = "x") -> complex:
    """F_ij(t) under exact evolution of the full Hamiltonian, with the X_j
    probe or, for ``probe="y"``, the Y_j probe.

    The Hamiltonian is eigendecomposed once per parameter set and cached,
    so sweeps over t and j stay cheap.
    """
    if p.n > MAX_OTOC_QUBITS:
        raise CapacityError(f"exact OTOC limited to n <= {MAX_OTOC_QUBITS}")
    _check_site(p.n, i, "i")
    _check_site(p.n, j, "j")
    return complex(_otoc_value(_heisenberg_x(p, i, t), state, probe)[j - 1])


def commutator_exact(p: IsingParams, i: int, j: int, t: float,
                     state: str = "zeros") -> float:
    """Squared commutator 2 - 2 Re F_ij(t), in [0, 4]."""
    return 2.0 - 2.0 * otoc_exact(p, i, j, t, state).real


def commutator_xy_exact(p: IsingParams, i: int, j: int, t: float) -> float:
    """Squared commutator of X_i(t) against the Y_j probe on the all-zeros
    state.  Nonzero already at t = 0 when i = j, where it equals 4."""
    return 2.0 - 2.0 * otoc_exact(p, i, j, t, probe="y").real


def fabs_measurement_circuit(u: Circuit, i: int, j: int) -> Circuit:
    """Ancilla-free |F| protocol circuit.

    Applies X_j, U, X_i, U^dag, X_j, U, X_i, U^dag (in that order) to the
    all-zeros state; the all-zeros return probability is |F_ij|^2.  The
    circuit contains exactly four copies of U or its inverse, and a global
    phase on U cancels between them.
    """
    n = u.n_qubits
    _check_site(n, i, "i")
    _check_site(n, j, "j")
    udg = dagger(u)
    xi, xj = (x_gate(i - 1),), (x_gate(j - 1),)
    gates = xj + u.gates + xi + udg.gates + xj + u.gates + xi + udg.gates
    return Circuit(n, gates)


def fixed_node_otoc(f_abs: float, p: IsingParams, j: int, t: float) -> complex:
    """Measured modulus combined with the classical-Hamiltonian phase."""
    if not -1e-9 <= f_abs <= 1.0 + 1e-9:
        raise ValueError(f"|F| must lie in [0, 1] (within 1e-9), got {f_abs}")
    return f_abs * np.exp(1j * classical_otoc_phase(p, j, t))


def fixed_node_commutator(f_abs: float, p: IsingParams, j: int, t: float) -> float:
    """2 - 2 |F| cos(classical phase); equals the exact commutator whenever
    the transverse field vanishes."""
    return 2.0 - 2.0 * fixed_node_otoc(f_abs, p, j, t).real


# --- spreading surfaces ----------------------------------------------------

def _point_seed(seed: int, j: int, ell: int, fold: int) -> np.random.SeedSequence:
    """Independent, order-insensitive stream per grid point and fold level."""
    return np.random.SeedSequence(seed, spawn_key=(j, ell, fold))


def _surface_row(cfg, ell: int) -> list[tuple]:
    """All probe sites at one time index.

    Returns one tuple per site holding the values of ``ROW_COLUMNS``, in
    that order; module-level so rows can be dispatched to worker processes.
    """
    p = cfg.params
    n = p.n
    t = ell * cfg.tau
    nan = float("nan")
    f_exact = _otoc_value(_heisenberg_x(p, 1, t), cfg.state, cfg.probe)
    c_exact = 2.0 - 2.0 * f_exact.real
    if cfg.pipeline == "exact":
        return [(nan, nan, nan, nan, c, abs(f), float(np.angle(f)))
                for c, f in zip(c_exact, f_exact)]

    u_circ = weave_circuit(p, cfg.schedule, ell,
                           allow_magic_mismatch=cfg.magic_override)
    mit = cfg.mitigation if cfg.pipeline == "mitigated" else None
    if mit is not None and mit.tmem:
        solver = TmemSolver(build_confusion_matrix(cfg.noise))

    def modulus(dist: BitstringDistribution) -> float:
        return np.sqrt(max(float(dist.probabilities[0]), 0.0))

    out = []
    for j in range(1, n + 1):
        meas = fabs_measurement_circuit(u_circ, 1, j)

        def readout(fold: int) -> BitstringDistribution:
            if cfg.pipeline in ("trotter_exact", "sampled"):
                dist = measurement_distribution(apply_circuit(StateVector.zeros(n), meas))
            else:
                dist = simulate_noisy(fold_cnots(meas, fold), cfg.noise)
            if cfg.pipeline == "trotter_exact":
                return dist
            return empirical_distribution(
                sample_counts(dist, cfg.shots, _point_seed(cfg.seed, j, ell, fold)))

        def tmem(dist: BitstringDistribution, fold: int) -> BitstringDistribution:
            x, iterations, converged = solver.solve(dist.probabilities)
            if not converged:  # fold 0 is the ZNE extrapolation
                warnings.warn(f"TMEM did not converge at j={j}, ell={ell}, fold={fold} "
                              f"after {iterations} iterations", RuntimeWarning)
            return BitstringDistribution(n, x)

        def commutator(dist: BitstringDistribution | None) -> float:
            if dist is None:
                return nan
            return fixed_node_commutator(modulus(dist), p, j, t)

        p1 = readout(1)
        q1 = z = corrected = None
        if mit is not None:
            p3 = readout(3) if mit.zne else None
            q1 = tmem(p1, 1) if mit.tmem else None
            z = zne_correct(ZnePair(p1, p3)) if mit.zne else None
            if mit.tmem and mit.zne:
                corrected = (zne_correct(ZnePair(q1, tmem(p3, 3)))
                             if mit.order == "tmem_then_zne" else tmem(z, 0))
            else:  # the one method applied, or the raw readout
                corrected = q1 or z or p1
        out.append((commutator(p1), commutator(q1), commutator(z),
                    commutator(corrected), c_exact[j - 1], modulus(p1),
                    classical_otoc_phase(p, j, t)))
    return out


def build_surface(cfg, jobs: int = 1) -> SurfaceTable:
    """Evaluate the configured pipeline over the full (j, ell) grid.

    Rows come out in CSV order: probe site j (1..n), then time index ell.
    Grid points are independent; ``jobs > 1`` dispatches time indices to
    worker processes.  Results are identical for any ``jobs`` because every
    sampled point draws from its own derived seed.
    """
    n, l1 = cfg.params.n, cfg.ell_max + 1
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(partial(_surface_row, cfg), range(l1)))
    else:
        rows = [_surface_row(cfg, ell) for ell in range(l1)]

    # rows[ell][j - 1] -> one (n * l1, columns) block, j-major
    values = np.array(rows, dtype=float).transpose(1, 0, 2).reshape(n * l1, -1)
    assert values.shape[1] == len(ROW_COLUMNS)
    ell = np.tile(np.arange(l1), n).astype(float)
    columns = {"j": np.repeat(np.arange(1, n + 1), l1).astype(float),
               "ell": ell, "t": ell * cfg.tau}
    columns.update(zip(ROW_COLUMNS, values.T.copy()))
    return SurfaceTable(columns)
