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

Measured values come from one readout seam, :func:`readout_distributions`,
which runs every probe site's protocol circuit at one time index and
returns a (folds, n, 2^n) array; the surface rows draw shots from it and
apply TMEM and ZNE per site.  Validation sets every field that a pipeline
does not read to None, so both run a stage exactly when its field is set.
Without noise, the statevector engine runs each protocol on the backward
light cone of X_1 in the weave (:func:`_light_cone`), min(n, s + 1) qubits
after s Trotter steps: the gates outside it cancel exactly, and a site
outside it reads |0...0>.  The density engine runs the full weave, whose
every CNOT is noisy.  Each time index inverts its weave once and fuses each
protocol circuit once for all folds.
"""

from __future__ import annotations

import os
import warnings
from functools import partial

import numpy as np

from .config import PROBES, STATES
from .errors import CapacityError, check_integer, check_real
from .ising import (ExactEvolution, IsingParams, MAX_OTOC_QUBITS, _check_site,
                    _check_time, cached_evolution, classical_otoc_phase)
from .mitigation import ZNE_FOLDS, TmemSolver, ZnePair, zne_correct
from .noise import (build_confusion_matrix, empirical_distribution, sample_counts,
                    simulate_noisy)
from .qsim import (BitstringDistribution, Circuit, Gate, StateVector, apply_circuit,
                   measurement_distribution)
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
    udg = u.inverse
    xi, xj = (Gate("X", (i - 1,)),), (Gate("X", (j - 1,)),)
    gates = xj + u.gates + xi + udg.gates + xj + u.gates + xi + udg.gates
    return Circuit(n, gates)


def _light_cone(u: Circuit, qubit: int) -> tuple[Circuit, frozenset[int]]:
    """The gates of ``u`` in the backward light cone of ``qubit``, in order,
    and the qubits they reach: ``qubit`` and every cone gate's qubits.

    One reverse pass: ``reach`` starts as {qubit}, and a gate joins the cone
    when it touches ``reach``, whose qubits then join ``reach``.  Every other
    gate acts on qubits disjoint from ``qubit`` and from every later cone
    gate, so it commutes past them to the end: U = W V as operators, with V
    the cone and W the rest, and W commutes with X_qubit.  Hence

        U^dag X_qubit U = V^dag W^dag X_qubit W V = V^dag X_qubit V,

    and the |F| protocol on V prepares the same state as on U, so every
    readout probability is unchanged, not only |F|^2.  This holds only for
    noiseless gates: a noisy gate outside the cone still acts.
    """
    reach = {qubit}
    cone = []
    for g in reversed(u.gates):
        if not reach.isdisjoint(g.qubits):
            reach.update(g.qubits)
            cone.append(g)
    return Circuit(u.n_qubits, tuple(reversed(cone))), frozenset(reach)


def fixed_node_commutator(f_abs: float, p: IsingParams, j: int, t: float) -> float:
    """2 - 2 |F| cos(classical phase); equals the exact commutator whenever
    the transverse field vanishes."""
    check_real(f_abs, "|F|")
    if not -1e-9 <= f_abs <= 1.0 + 1e-9:
        raise ValueError(f"|F| must lie in [0, 1] (within 1e-9), got {f_abs}")
    return 2.0 - 2.0 * f_abs * np.cos(classical_otoc_phase(p, j, t))


# --- spreading surfaces ----------------------------------------------------

def _point_seed(seed: int, j: int, ell: int, fold: int) -> np.random.SeedSequence:
    """Independent, order-insensitive stream per grid point and fold level."""
    return np.random.SeedSequence(seed, spawn_key=(j, ell, fold))


def readout_distributions(cfg, ell: int) -> np.ndarray:
    """Every probe site's |F| protocol readout distribution before shots at
    time index ``ell``: a (folds, n, 2^n) array whose fold axis holds fold 1
    and, when ``cfg.mitigation`` applies ZNE, fold 3: the channel of the
    CNOT-tripled circuit, which the density engine of ``cfg.noise`` runs as
    each CNOT's noise applied three times.  The weave and each site's
    protocol circuit are built once for all folds (ValueError without ``k``).

    Where ``cfg.noise`` is None, the statevector engine runs each protocol
    on the light cone V of X_1 in the weave, which leaves every probability
    unchanged up to rounding, and :func:`_light_cone` returns V with the
    reach of X_1 (qubit 0 and V's qubits).  No protocol runs for a site j
    whose qubit j - 1 lies outside that reach: X_j commutes with V and with
    X_1, so the protocol prepares (V^dag X_1 V)^2 |0...0> = |0...0>, and the
    site reads exactly the point mass on 0.  The density engine runs the
    full weave at every site, whose CNOTs outside the cone carry noise."""
    if cfg.k is None:
        raise ValueError("a config whose k is None reads out no circuit")
    n = cfg.params.n
    folds = ZNE_FOLDS if cfg.mitigation and cfg.mitigation.zne else ZNE_FOLDS[:1]
    u_circ = weave_circuit(cfg.params, cfg.tau, cfg.k, ell, cfg.magic)
    reach = range(n)
    if cfg.noise is None:
        u_circ, reach = _light_cone(u_circ, 0)
    out = np.zeros((len(folds), n, 2 ** n))
    for j in range(1, n + 1):
        if j - 1 not in reach:
            out[:, j - 1, 0] = 1.0
            continue
        meas = fabs_measurement_circuit(u_circ, 1, j)
        for f, fold in enumerate(folds):
            if cfg.noise is None:
                dist = measurement_distribution(apply_circuit(StateVector.zeros(n), meas))
            else:
                dist = simulate_noisy(meas, cfg.noise, fold)
            out[f, j - 1] = dist.probabilities
    return out


def _tmem(solver: TmemSolver, dist: BitstringDistribution, j: int, ell: int,
          fold: int) -> BitstringDistribution:
    """TMEM-corrected ``dist``, with a RuntimeWarning naming the point if
    the solve did not converge; fold 0 is the ZNE extrapolation."""
    x, iterations, converged = solver.solve(dist.probabilities)
    if not converged:
        warnings.warn(f"TMEM did not converge at j={j}, ell={ell}, fold={fold} "
                      f"after {iterations} iterations", RuntimeWarning)
    return BitstringDistribution(dist.n_qubits, x)


def _surface_row(cfg, solver: TmemSolver | None, ell: int) -> dict:
    """All probe sites at one time index, as {value column: (n,) array over
    j = 1..n} holding only the columns that ``cfg`` computes: C_exact, F_abs
    and F_phase, and with ``k`` set C_raw plus the C_tmem, C_zne and C_corr
    that ``cfg.mitigation`` selects.  Each distribution's modulus is taken
    once, where its column is written.  ``solver`` is None unless TMEM
    runs.  Module-level so rows can be dispatched to workers."""
    p = cfg.params
    n = p.n
    t = ell * cfg.tau
    f_exact = _otoc_value(cached_evolution(p), 1, t, cfg.state, cfg.probe)
    c_exact = 2.0 - 2.0 * f_exact.real
    if cfg.k is None:
        phase = np.angle(f_exact)
        phase[phase == -np.pi] = np.pi  # (-pi, pi]: np.angle(-1 - 0j) is -pi
        return {"C_exact": c_exact, "F_abs": np.abs(f_exact), "F_phase": phase}

    readouts = readout_distributions(cfg, ell)
    mit = cfg.mitigation
    sites = []  # {value column: distribution} per site
    for j in range(1, n + 1):
        dists = [None] * len(ZNE_FOLDS)
        for f, (fold, probs) in enumerate(zip(ZNE_FOLDS, readouts[:, j - 1])):
            dists[f] = BitstringDistribution(n, probs)
            if cfg.shots:
                dists[f] = empirical_distribution(sample_counts(
                    dists[f], cfg.shots, _point_seed(cfg.seed, j, ell, fold)))
        p1, p3 = dists
        site = {"C_raw": p1}
        sites.append(site)
        if mit is not None:
            if mit.tmem:
                site["C_tmem"] = q1 = _tmem(solver, p1, j, ell, ZNE_FOLDS[0])
            if mit.zne:
                site["C_zne"] = z = zne_correct(ZnePair(p1, p3))
            if mit.tmem and mit.zne:
                site["C_corr"] = (
                    zne_correct(ZnePair(q1, _tmem(solver, p3, j, ell, ZNE_FOLDS[1])))
                    if mit.order == "tmem_then_zne" else _tmem(solver, z, j, ell, 0))
            else:  # the one method applied, or the raw readout
                site["C_corr"] = site.get("C_tmem") or site.get("C_zne") or p1

    f_abs = {column: np.sqrt(np.maximum([s[column].probabilities[0] for s in sites], 0.0))
             for column in sites[0]}
    row = {column: np.array([fixed_node_commutator(f, p, j, t) for j, f in enumerate(m, 1)])
           for column, m in f_abs.items()}
    return {**row, "C_exact": c_exact, "F_abs": f_abs["C_raw"],
            "F_phase": np.array([classical_otoc_phase(p, j, t) for j in range(1, n + 1)])}


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_surface(cfg, jobs: int = 1) -> SurfaceTable:
    """Evaluate the configured pipeline over the full (j, ell) grid.

    Rows come out in CSV order: probe site j (1..n), then time index ell; a
    value column that no :func:`_surface_row` computes is empty (NaN).  Grid
    points are independent; ``jobs``, an integer >= 1, dispatches time
    indices to at most that many worker processes, ``ell_max + 1`` and the
    usable CPUs, as the pool starts every worker up front.  Results are the
    same for any ``jobs``: every sampled point draws from its own seed.
    """
    check_integer(jobs, "jobs", 1)
    n, l1 = cfg.params.n, cfg.ell_max + 1
    solver = (TmemSolver(build_confusion_matrix(cfg.noise))
              if cfg.mitigation and cfg.mitigation.tmem else None)
    workers = min(jobs, l1, _usable_cpus())
    if workers > 1:
        # imported here: the process-pool modules add about 20 ms to every import
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(partial(_surface_row, cfg, solver), range(l1)))
    else:
        rows = [_surface_row(cfg, solver, ell) for ell in range(l1)]

    ell = np.tile(np.arange(l1), n).astype(float)
    columns = {"j": np.repeat(np.arange(1, n + 1), l1).astype(float),
               "ell": ell, "t": ell * cfg.tau}
    empty = np.full(n, np.nan)
    for column in VALUE_COLUMNS:  # rows[ell][column][j - 1], written j-major
        columns[column] = np.array([row.get(column, empty) for row in rows]).T.ravel()
    return SurfaceTable(columns)
