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
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache, partial

import numpy as np

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

STATE_TAGS = ("zeros", "plus", "maximally_mixed")
# Surface columns in the order of the value tuples that _surface_row builds.
ROW_COLUMNS = ("C_raw", "C_tmem", "C_zne", "C_corr", "C_exact", "F_abs", "F_phase")

_PAULI = {"x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
          "y": np.array([[0.0, -1.0j], [1.0j, 0.0]])}


@lru_cache(maxsize=128)
def _site_operator(probe: str, site: int, n: int) -> np.ndarray:
    if probe not in _PAULI:
        raise ValueError(f"unknown probe {probe!r}; choose from {tuple(_PAULI)}")
    full = np.kron(np.eye(2 ** (site - 1)), _PAULI[probe])
    full = np.kron(full, np.eye(2 ** (n - site)))
    full.setflags(write=False)
    return full


def _otoc_value(a: np.ndarray, state: str, n: int) -> complex:
    """tr[rho A A] for the supported density operators, A = X_i(t) V_j."""
    if state == "zeros":
        return complex((a @ a)[0, 0])
    if state == "plus":
        v = np.full(2 ** n, 2 ** (-n / 2))
        return complex(v @ (a @ (a @ v)))
    if state == "maximally_mixed":
        return complex(np.trace(a @ a) / 2 ** n)
    raise ValueError(f"unknown state tag {state!r}; choose from {STATE_TAGS}")


def otoc_from_unitary(u: np.ndarray, i: int, j: int, state: str = "zeros",
                      probe: str = "x") -> complex:
    """OTOC evaluated with an explicit evolution unitary substituted for
    exp(-iHt); used both by Trotterized references and as a dense oracle."""
    n = int(np.log2(u.shape[0]))
    _check_site(n, i, "i")
    _check_site(n, j, "j")
    xit = u.conj().T @ _site_operator("x", i, n) @ u
    return _otoc_value(xit @ _site_operator(probe, j, n), state, n)


def otoc_exact(p: IsingParams, i: int, j: int, t: float,
               state: str = "zeros", probe: str = "x") -> complex:
    """F_ij(t) under exact evolution of the full Hamiltonian, with the X_j
    probe or, for ``probe="y"``, the Y_j probe.

    The Hamiltonian is eigendecomposed once per parameter set and cached,
    so sweeps over t and j stay cheap.
    """
    if p.n > MAX_OTOC_QUBITS:
        raise CapacityError(f"exact OTOC limited to n <= {MAX_OTOC_QUBITS}")
    if state not in STATE_TAGS:
        raise ValueError(f"unknown state tag {state!r}; choose from {STATE_TAGS}")
    return otoc_from_unitary(cached_evolution(p).unitary(t), i, j, state, probe)


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
    if not -1e-9 <= f_abs <= 1.0 + 1e-9:
        raise ValueError(f"|F| must lie in [0, 1] (within 1e-9), got {f_abs}")
    return 2.0 - 2.0 * f_abs * np.cos(classical_otoc_phase(p, j, t))


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
    ev = cached_evolution(p)
    u_exact = ev.unitary(t)
    xit_exact = u_exact.conj().T @ _site_operator("x", 1, n) @ u_exact

    if cfg.pipeline == "exact":
        out = []
        for j in range(1, n + 1):
            f = _otoc_value(xit_exact @ _site_operator(cfg.probe, j, n),
                            cfg.state, n)
            c_exact = 2.0 - 2.0 * f.real
            out.append((nan, nan, nan, nan, c_exact, abs(f), float(np.angle(f))))
        return out

    u_circ = weave_circuit(p, cfg.schedule, ell,
                           allow_magic_mismatch=cfg.magic_override)
    solver = None
    if cfg.pipeline == "mitigated" and cfg.mitigation.tmem:
        solver = TmemSolver(build_confusion_matrix(cfg.noise))

    out = []
    for j in range(1, n + 1):
        meas = fabs_measurement_circuit(u_circ, 1, j)
        f_exact = _otoc_value(xit_exact @ _site_operator("x", j, n), "zeros", n)
        c_exact = 2.0 - 2.0 * f_exact.real
        phase = classical_otoc_phase(p, j, t)

        def commutator(p_zero: float) -> float:
            return 2.0 - 2.0 * np.sqrt(max(p_zero, 0.0)) * np.cos(phase)

        if cfg.pipeline == "trotter_exact":
            sv = apply_circuit(StateVector.zeros(n), meas)
            p0 = float(np.abs(sv.amplitudes[0]) ** 2)
            raw = commutator(p0)
            out.append((raw, nan, nan, nan, c_exact, np.sqrt(p0), phase))
            continue

        if cfg.pipeline == "sampled":
            dist = measurement_distribution(apply_circuit(StateVector.zeros(n), meas))
        else:
            dist = simulate_noisy(meas, cfg.noise)
        p1 = empirical_distribution(
            sample_counts(dist, cfg.shots, _point_seed(cfg.seed, j, ell, 1)))
        p0_raw = float(p1.probabilities[0])
        raw = commutator(p0_raw)

        if cfg.pipeline in ("sampled", "noisy"):
            out.append((raw, nan, nan, nan, c_exact, np.sqrt(max(p0_raw, 0.0)), phase))
            continue

        # mitigated pipeline
        c_tmem = c_zne = c_corr = nan
        p3 = None
        if cfg.mitigation.zne:
            dist3 = simulate_noisy(fold_cnots(meas, 3), cfg.noise)
            p3 = empirical_distribution(
                sample_counts(dist3, cfg.shots, _point_seed(cfg.seed, j, ell, 3)))
        q1 = q3 = None
        if cfg.mitigation.tmem:
            q1 = BitstringDistribution(n, solver.solve(p1.probabilities)[0])
            c_tmem = commutator(float(q1.probabilities[0]))
            if p3 is not None:
                q3 = BitstringDistribution(n, solver.solve(p3.probabilities)[0])
        if p3 is not None:
            c_zne = commutator(float(zne_correct(ZnePair(p1, p3)).probabilities[0]))

        if cfg.mitigation.tmem and cfg.mitigation.zne:
            if cfg.mitigation.order == "tmem_then_zne":
                corrected = zne_correct(ZnePair(q1, q3))
            else:
                zc = zne_correct(ZnePair(p1, p3))
                corrected = BitstringDistribution(
                    n, solver.solve(zc.probabilities)[0])
            c_corr = commutator(float(corrected.probabilities[0]))
        elif cfg.mitigation.tmem:
            c_corr = c_tmem
        elif cfg.mitigation.zne:
            c_corr = c_zne
        else:
            c_corr = raw

        out.append((raw, c_tmem, c_zne, c_corr, c_exact,
                    np.sqrt(max(p0_raw, 0.0)), phase))
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
