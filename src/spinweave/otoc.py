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
from .errors import CapacityError
from .ising import (ExactEvolution, IsingParams, MAX_OTOC_QUBITS, _check_site,
                    cached_evolution, classical_otoc_phase, phase_rate)
from .mitigation import ZNE_FOLDS, TmemSolver, ZnePair, zne_correct
from .noise import (build_confusion_matrix, empirical_distribution, sample_counts,
                    simulate_noisy)
from .qsim import (BitstringDistribution, Circuit, StateVector, apply_circuit,
                   measurement_distribution, x_gate)
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
    udg = u.inverse
    xi, xj = (x_gate(i - 1),), (x_gate(j - 1),)
    gates = xj + u.gates + xi + udg.gates + xj + u.gates + xi + udg.gates
    return Circuit(n, gates)


def _light_cone(u: Circuit, qubit: int) -> Circuit:
    """The gates of ``u`` in the backward light cone of ``qubit``, in order.

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
    return Circuit(u.n_qubits, tuple(reversed(cone)))


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


def readout_distributions(cfg, ell: int) -> np.ndarray:
    """Every probe site's |F| protocol readout distribution before shots at
    time index ``ell``: a (folds, n, 2^n) array whose fold axis holds fold 1
    and, when ``cfg.mitigation`` applies ZNE, fold 3: the channel of the
    CNOT-tripled circuit, which the density engine of ``cfg.noise`` runs as
    each CNOT's noise applied three times.  The weave and each site's
    protocol circuit are built once for all folds (ValueError without ``k``).

    Where ``cfg.noise`` is None, the statevector engine runs each protocol
    on the light cone V of X_1 in the weave (:func:`_light_cone`), which
    leaves every probability unchanged up to rounding.  It runs no protocol
    for a site j whose qubit j - 1 lies outside the reach of X_1 (the cone's
    qubits and qubit 0): there X_j commutes with V and with X_1, so the
    protocol prepares (V^dag X_1 V)^2 |0...0> = |0...0>, and the site reads
    exactly the point mass on 0.  The density engine runs the full weave at
    every site, whose CNOTs outside the cone still carry noise."""
    if cfg.k is None:
        raise ValueError("a config whose k is None reads out no circuit")
    n = cfg.params.n
    folds = ZNE_FOLDS if cfg.mitigation and cfg.mitigation.zne else ZNE_FOLDS[:1]
    u_circ = weave_circuit(cfg.params, cfg.tau, cfg.k, ell, cfg.magic)
    reach = range(n)
    if cfg.noise is None:
        u_circ = _light_cone(u_circ, 0)
        reach = {0}.union(*(g.qubits for g in u_circ.gates))
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


def _modulus(dist: BitstringDistribution) -> float:
    return np.sqrt(max(float(dist.probabilities[0]), 0.0))


def _tmem(solver: TmemSolver, dist: BitstringDistribution, j: int, ell: int,
          fold: int) -> BitstringDistribution:
    """TMEM-corrected ``dist``, with a RuntimeWarning naming the point if
    the solve did not converge; fold 0 is the ZNE extrapolation."""
    x, iterations, converged = solver.solve(dist.probabilities)
    if not converged:
        warnings.warn(f"TMEM did not converge at j={j}, ell={ell}, fold={fold} "
                      f"after {iterations} iterations", RuntimeWarning)
    return BitstringDistribution(dist.n_qubits, x)


def _surface_row(cfg, solver: TmemSolver | None, ell: int) -> list[tuple]:
    """All probe sites at one time index.

    Returns one tuple per site holding the values of ``VALUE_COLUMNS``, in
    that order, NaN in the measured ones without ``k``.  ``solver`` is None
    unless TMEM runs.  Module-level so rows can be dispatched to workers.
    """
    p = cfg.params
    n = p.n
    t = ell * cfg.tau
    nan = float("nan")
    f_exact = _otoc_value(cached_evolution(p), 1, t, cfg.state, cfg.probe)
    c_exact = 2.0 - 2.0 * f_exact.real
    if cfg.k is None:
        phase = np.angle(f_exact)
        phase[phase == -np.pi] = np.pi  # (-pi, pi]: np.angle(-1 - 0j) is -pi
        return [(nan, nan, nan, nan, c, abs(f), a)
                for c, f, a in zip(c_exact, f_exact, phase)]

    readouts = readout_distributions(cfg, ell)
    mit = cfg.mitigation
    out = []
    for j in range(1, n + 1):
        dists = [None] * len(ZNE_FOLDS)
        for f, (fold, probs) in enumerate(zip(ZNE_FOLDS, readouts[:, j - 1])):
            dists[f] = BitstringDistribution(n, probs)
            if cfg.shots:
                dists[f] = empirical_distribution(sample_counts(
                    dists[f], cfg.shots, _point_seed(cfg.seed, j, ell, fold)))
        p1, p3 = dists
        q1 = z = corrected = None
        if mit is not None:
            q1 = _tmem(solver, p1, j, ell, ZNE_FOLDS[0]) if mit.tmem else None
            z = zne_correct(ZnePair(p1, p3)) if mit.zne else None
            if mit.tmem and mit.zne:
                corrected = (zne_correct(ZnePair(q1, _tmem(solver, p3, j, ell, ZNE_FOLDS[1])))
                             if mit.order == "tmem_then_zne"
                             else _tmem(solver, z, j, ell, 0))
            else:  # the one method applied, or the raw readout
                corrected = q1 or z or p1
        commutators = tuple(
            nan if d is None else fixed_node_commutator(_modulus(d), p, j, t)
            for d in (p1, q1, z, corrected))
        out.append(commutators + (c_exact[j - 1], _modulus(p1),
                                  classical_otoc_phase(p, j, t)))
    return out


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_surface(cfg, jobs: int = 1) -> SurfaceTable:
    """Evaluate the configured pipeline over the full (j, ell) grid.

    Rows come out in CSV order: probe site j (1..n), then time index ell.
    Grid points are independent; ``jobs > 1`` dispatches time indices to
    at most ``ell_max + 1`` worker processes, and to no more than the
    usable CPUs, because the pool starts every worker up front.  Results
    are identical for any ``jobs`` because every sampled point draws from
    its own derived seed.
    """
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

    # rows[ell][j - 1] -> one (n * l1, columns) block, j-major
    values = np.array(rows, dtype=float).transpose(1, 0, 2).reshape(n * l1, -1)
    assert values.shape[1] == len(VALUE_COLUMNS)
    ell = np.tile(np.arange(l1), n).astype(float)
    columns = {"j": np.repeat(np.arange(1, n + 1), l1).astype(float),
               "ell": ell, "t": ell * cfg.tau}
    columns.update(zip(VALUE_COLUMNS, values.T.copy()))
    return SurfaceTable(columns)
