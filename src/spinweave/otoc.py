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

Exact values come from one kernel, :func:`_otoc_value`, which applies
X_i(t) from the cached eigendecomposition (:class:`~spinweave.ising.ExactEvolution`)
to the columns that each state reads: O(n 4^n) per time for the all-zeros
state and the uniform superposition, O(8^n) for the maximally mixed state.
"""

from __future__ import annotations

import warnings
from functools import partial

import numpy as np

from .config import PIPELINES, PROBES, STATES
from .errors import CapacityError
from .ising import (ExactEvolution, IsingParams, MAX_OTOC_QUBITS, _check_site,
                    cached_evolution, classical_otoc_phase, phase_rate)
from .mitigation import TmemSolver, ZnePair, zne_correct
from .noise import (build_confusion_matrix, empirical_distribution, fold_cnots,
                    sample_counts, simulate_noisy)
from .qsim import (BitstringDistribution, Circuit, StateVector, apply_circuit,
                   dagger, measurement_distribution, x_gate)
from .surface_io import VALUE_COLUMNS, SurfaceTable
from .weave import weave_circuit


def _real_times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for real ``a`` and complex ``b``: one real product on the
    interleaved (re, im) columns of b."""
    return (a @ np.ascontiguousarray(b).view(np.float64)).view(np.complex128)


def _otoc_value(ev: ExactEvolution, i: int, t: float, state: str,
                probe: str) -> np.ndarray:
    """F_ij(t) = tr[rho A_j A_j], A_j = X_i(t) V_j, for every probe site j = 1..n.

    X_i(t) = V e^{iEt} M e^{-iEt} V^T with M = V^T X_i V from the cached
    eigendecomposition, applied only to the columns W that rho reads:
    columns 0 and 2^(n-j) for the all-zeros state (row 0 is the conjugate
    of column 0, as X_i(t) is Hermitian), the all-ones vector and, for the
    Y probe, the n sign vectors of bit j for the uniform superposition, and
    every column for the maximally mixed state.  V_j flips the column index
    on bit j (times +i or -i by that bit for the Y probe).

    F is real by construction for the maximally mixed state (tr ABAB with
    A, B Hermitian) and for the X probe on the uniform superposition (an
    X_j eigenstate, so F is the expectation of a Hermitian operator); there
    the rounding-level imaginary part is dropped, so the phase is exactly 0
    or pi.
    """
    if state not in STATES:
        raise ValueError(f"unknown state tag {state!r}; choose from {STATES}")
    if probe not in PROBES:
        raise ValueError(f"unknown probe {probe!r}; choose from {PROBES}")
    v = ev.eigenvectors
    d = len(v)
    n = d.bit_length() - 1
    index = np.arange(d)
    masks = 1 << (n - np.arange(1, n + 1))  # V_j flips bit n - j
    signs = np.where(index[:, None] & masks, -1.0, 1.0)  # (d, n), by bit j
    if state == "zeros":
        vw = v[np.concatenate(([0], masks))].T
    elif state == "plus":
        vw = v.T @ (np.ones((d, 1)) if probe == "x" else
                    np.hstack((np.ones((d, 1)), signs)))
    else:
        vw = v.T
    phase = np.exp(1j * ev.eigenvalues * t)[:, None]
    m = ev.flip_matrix(1 << (n - i))
    xw = _real_times(v, phase * _real_times(m, phase.conj() * vw))  # X_i(t) W

    if state == "maximally_mixed":
        out = np.empty(n)
        for j in range(1, n + 1):
            a = xw[:, index ^ masks[j - 1]]
            if probe == "y":
                a = a * (1j * signs[:, j - 1])
            out[j - 1] = np.sum(a * a.T).real / d
        return out.astype(complex)
    # F_j = s sum_c conj(w_0[c ^ 2^(n-j)]) (sign_j(c) for Y) (X_i(t) W)[c, col_j],
    # where col_j = 0 for X on the uniform superposition and j otherwise;
    # s = 1/d on the uniform superposition, and on all zeros s = 1 for X and
    # -1 for Y (the +-i of V_j at c and at 0)
    w0 = xw[:, 0].conj()[index[:, None] ^ masks]
    cols = xw[:, :1] if state == "plus" and probe == "x" else xw[:, 1:]
    if probe == "y":
        cols = cols * signs
    s = 1.0 / d if state == "plus" else (-1.0 if probe == "y" else 1.0)
    out = s * np.sum(w0 * cols, axis=0)
    if state == "plus" and probe == "x":
        out.imag = 0.0
    return out


def _check_time(p: IsingParams, t: float):
    if not np.isfinite(phase_rate(p) * t):
        raise ValueError(f"phase_rate * t must be finite, with the rate "
                         f"{phase_rate(p):g} (got t={t!r})")


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
    _check_time(p, t)
    return complex(_otoc_value(cached_evolution(p), i, t, state, probe)[j - 1])


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
    _check_time(p, t)
    return f_abs * np.exp(1j * classical_otoc_phase(p, j, t))


def fixed_node_commutator(f_abs: float, p: IsingParams, j: int, t: float) -> float:
    """2 - 2 |F| cos(classical phase); equals the exact commutator whenever
    the transverse field vanishes."""
    return 2.0 - 2.0 * fixed_node_otoc(f_abs, p, j, t).real


# --- spreading surfaces ----------------------------------------------------

def _point_seed(seed: int, j: int, ell: int, fold: int) -> np.random.SeedSequence:
    """Independent, order-insensitive stream per grid point and fold level."""
    return np.random.SeedSequence(seed, spawn_key=(j, ell, fold))


def _surface_row(cfg, solver: TmemSolver | None, ell: int) -> list[tuple]:
    """All probe sites at one time index.

    Returns one tuple per site holding the values of ``VALUE_COLUMNS``, in
    that order; ``solver`` is None unless TMEM runs.  Module-level so rows
    can be dispatched to worker processes.
    """
    p = cfg.params
    n = p.n
    t = ell * cfg.tau
    nan = float("nan")
    f_exact = _otoc_value(cached_evolution(p), 1, t, cfg.state, cfg.probe)
    c_exact = 2.0 - 2.0 * f_exact.real
    traits = PIPELINES[cfg.pipeline]
    if traits.engine is None:
        phase = np.angle(f_exact)
        phase[phase == -np.pi] = np.pi  # (-pi, pi]: np.angle(-1 - 0j) is -pi
        return [(nan, nan, nan, nan, c, abs(f), a)
                for c, f, a in zip(c_exact, f_exact, phase)]

    u_circ = weave_circuit(p, cfg.tau, cfg.k, ell, cfg.magic)
    mit = cfg.mitigation if traits.mitigates else None

    def modulus(dist: BitstringDistribution) -> float:
        return np.sqrt(max(float(dist.probabilities[0]), 0.0))

    out = []
    for j in range(1, n + 1):
        meas = fabs_measurement_circuit(u_circ, 1, j)

        def readout(fold: int) -> BitstringDistribution:
            if traits.engine == "statevector":
                dist = measurement_distribution(apply_circuit(StateVector.zeros(n), meas))
            else:
                dist = simulate_noisy(fold_cnots(meas, fold), cfg.noise)
            if not traits.shots:
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
    at most ``ell_max + 1`` worker processes.  Results are identical for any
    ``jobs`` because every sampled point draws from its own derived seed.
    """
    n, l1 = cfg.params.n, cfg.ell_max + 1
    solver = (TmemSolver(build_confusion_matrix(cfg.noise))
              if PIPELINES[cfg.pipeline].mitigates and cfg.mitigation.tmem else None)
    workers = min(jobs, l1)
    if workers > 1:
        # imported here: the process-pool modules add about 20 ms to every import
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(partial(_surface_row, cfg, solver), range(l1)))
    else:
        rows = [_surface_row(cfg, solver, ell) for ell in range(l1)]

    # rows[ell][j - 1] -> one (n * l1, columns) block, j-major
    values = np.array(rows, dtype=float).transpose(1, 0, 2).reshape(n * l1, -1)
    assert values.shape[1] == len(VALUE_COLUMNS)
    ell = np.tile(np.arange(l1), n).astype(float)
    columns = {"j": np.repeat(np.arange(1, n + 1), l1).astype(float),
               "ell": ell, "t": ell * cfg.tau}
    columns.update(zip(VALUE_COLUMNS, values.T.copy()))
    return SurfaceTable(columns)
