"""Reference implementations that the package has since replaced.

``ProjectedGradientTmem`` is the package's former TMEM solver, kept
unchanged as an oracle that shares no code path with the active-set solver
except ``project_simplex`` (itself checked against brute-force enumeration
in test_mitigation.py).  Plain projected gradient with the Lipschitz step
1 / ||T^T T||_2 converges to the global optimum of the convex problem,
slowly but surely.

``tensordot_contract`` is the former gate kernel of ``qsim``: numpy's
``tensordot`` against the gate reshaped to a (2,)*2k tensor, then
``moveaxis`` to put the output axes back in place.

``heisenberg_x`` and ``matrix_otoc_value`` are the former exact OTOC
kernel of ``otoc``: the dense propagator U(t), X_i(t) = U^dag (X_i U) as a
second dense product, and F_ij for every j read off that full matrix.

``gatewise_amplitudes`` and ``gatewise_readout`` are the former gate
engines of ``qsim.apply_circuit`` and ``noise.simulate_noisy``: one
``tensordot_contract`` per gate, with no fusion into blocks.
``gatewise_readout`` builds each gate's own channel, a CNOT's with its
depolarizing step right after it, where the engine collects a block's
CNOT noise into one step after the block's unitary; the two agree only
because the pair channel commutes with every unitary on its pair.

``fold_cnots`` is the former ZNE folding of ``noise``: it builds the
circuit with every CNOT repeated m times, whose channel
``simulate_noisy(c, nm, fold=m)`` runs without building it.

``circuit_unitary`` is the former dense unitary of ``qsim``: the full
2^n x 2^n operator of a circuit, which no run needs, composed gate by
gate with ``tensordot_contract``, so it shares no kernel with the engines.
An oracle here runs on ``tensordot_contract``, never on ``qsim._contract``.

``integrable_noisy_readout`` is the density engine's |F| protocol readout
in closed form for a weave without a transverse field (Bx = 0), from the
config's fields alone: it builds no circuit and runs no engine.
"""

import numpy as np

from spinweave.mitigation import project_simplex
from spinweave.noise import build_confusion_matrix
from spinweave.qsim import Circuit, kind_matrix

PG_TOL = 1e-10
PG_MAX_ITER = 100_000


class ProjectedGradientTmem:
    """Reusable projected-gradient solver for a fixed confusion matrix."""

    def __init__(self, t: np.ndarray):
        t = np.asarray(t, dtype=float)
        self.t = t
        self.gram = self.t.T @ self.t
        self.step = 1.0 / np.linalg.norm(self.gram, 2)

    def solve(self, b: np.ndarray):
        """Minimize ||T x - b||_2^2 over the simplex within PG_TOL, in at
        most PG_MAX_ITER steps from b projected; returns (x, iters, ok)."""
        b = np.asarray(b, dtype=float)
        tb = self.t.T @ b
        x = project_simplex(b)
        for it in range(1, PG_MAX_ITER + 1):
            x_new = project_simplex(x - self.step * (self.gram @ x - tb))
            delta = np.max(np.abs(x_new - x))
            x = x_new
            if delta < PG_TOL:
                return x, it, True
        return x, PG_MAX_ITER, False


def tensordot_contract(tensor: np.ndarray, u: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Apply the |axes|-qubit operator ``u`` to the given tensor axes in place
    of forming the embedded dense operator."""
    k = len(axes)
    uk = u.reshape((2,) * (2 * k))
    out = np.tensordot(uk, tensor, axes=(tuple(range(k, 2 * k)), axes))
    return np.moveaxis(out, tuple(range(k)), axes)


def heisenberg_x(ev, n: int, i: int, t: float) -> np.ndarray:
    """X_i(t) = U^dag X_i U; X_i U is U with its rows flipped on bit i."""
    u = ev.unitary(t)
    return u.conj().T @ u[np.arange(2 ** n) ^ (1 << (n - i))]


def matrix_otoc_value(xit: np.ndarray, state: str, probe: str) -> np.ndarray:
    """F_ij = tr[rho A_j A_j], A_j = X_i(t) V_j, for every probe site j = 1..n.

    V_j flips the column index of X_i(t) on bit j (times +i or -i by that
    bit for the Y probe), and each state forms only what rho reads.  The
    rounding-level imaginary part of the real cases (maximally mixed, and
    the X probe on the uniform superposition) is dropped.
    """
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
    if state == "maximally_mixed" or (state == "plus" and probe == "x"):
        out.imag = 0.0
    return out


def gatewise_amplitudes(amplitudes: np.ndarray, c) -> np.ndarray:
    """The state vector after applying the gates of ``c`` one at a time."""
    psi = np.asarray(amplitudes, dtype=complex).reshape((2,) * c.n_qubits)
    for g in c.gates:
        psi = tensordot_contract(psi, kind_matrix(g.kind, g.angle), g.qubits)
    return psi.reshape(-1)


def gate_channel(kind: str, angle, p: float) -> np.ndarray:
    """U (x) conj(U) of one gate, rows then columns, followed by the pair
    depolarizing channel of strength ``p``: rho -> (1 - p) rho + p tr(rho) I/4."""
    u = kind_matrix(kind, angle)
    s = (u[:, None, :, None] * u.conj()[None, :, None, :]).reshape(u.size, u.size)
    if p > 0.0:
        vec_i4 = np.eye(4).reshape(16)
        s = (1.0 - p) * s + (p / 4.0) * np.outer(vec_i4, vec_i4 @ s)
    return s


def gatewise_readout(c, nm) -> np.ndarray:
    """The noisy readout distribution of ``c`` from |0...0>, one gate
    channel at a time, each CNOT's with its edge's depolarizing."""
    n = c.n_qubits
    t = np.zeros((2,) * (2 * n), dtype=complex)
    t[(0,) * (2 * n)] = 1.0
    for g in c.gates:
        p = nm.cnot_error[min(g.qubits)] if g.kind == "CNOT" else 0.0
        t = tensordot_contract(t, gate_channel(g.kind, g.angle, p),
                               g.qubits + tuple(n + q for q in g.qubits))
    d = 2 ** n
    probs = np.clip(np.diag(t.reshape(d, d)).real, 0.0, None)
    return build_confusion_matrix(nm) @ probs


def fold_cnots(c, m: int):
    """Replace every CNOT by ``m`` consecutive copies (m odd, so the
    noiseless unitary is unchanged while CNOT noise scales by m)."""
    if m < 1 or m % 2 == 0:
        raise ValueError(f"fold factor must be odd and positive, got {m}")
    gates = []
    for g in c.gates:
        gates.extend([g] * m if g.kind == "CNOT" else [g])
    return Circuit(c.n_qubits, tuple(gates))


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Dense 2^n x 2^n unitary of a circuit, built gate by gate on an
    identity tensor whose trailing axis indexes its columns."""
    d = 2 ** c.n_qubits
    t = np.eye(d, dtype=complex).reshape((2,) * c.n_qubits + (d,))
    for g in c.gates:
        t = tensordot_contract(t, kind_matrix(g.kind, g.angle), g.qubits)
    return t.reshape(d, d)


def integrable_noisy_readout(cfg, ell: int, fold: int) -> np.ndarray:
    """The (2^n,) readout before shots of every site's |F| protocol at time
    index ``ell`` and CNOT fold ``fold``, on the density engine with the
    noise of ``cfg.noise``, for a config whose transverse field Bx is 0.

    Without RX layers every protocol gate is a permutation of the basis or
    diagonal, magic cell or not (H CNOT H is the diagonal CZ, and each
    CNOT's pair channel commutes past the H on its pair).  So the density
    matrix stays diagonal: a distribution over bitstrings.  The noiseless
    protocol returns |0...0> to itself, as F is a pure phase, and each
    CNOT's channel keeps the distribution with probability 1 - p_q or
    averages it over the bits of its edge (q, q + 1).  These averages
    commute with one another and with every later gate (each ZZ rotation's
    CNOTs undo each other, and an X flip commutes with an average), so the
    readout is the same at every site: from the point mass on 0, each
    edge's average applied with weight 1 - keep, keep = (1 - p_q)^m, for
    its m = 4 fold (2 [ell mod k != 0] + c floor(ell / k)) CNOTs over the
    four copies of U or U^dag (c = 1 on a magic cell, else 2), and then
    the readout confusion of each qubit.
    """
    if cfg.params.Bx != 0.0:
        raise ValueError("the closed form holds only for Bx = 0")
    n, k, nm = cfg.params.n, cfg.k, cfg.noise
    cnots = 4 * fold * (2 * (ell % k != 0) + (1 if cfg.magic else 2) * (ell // k))
    p = np.zeros((2,) * n)
    p[(0,) * n] = 1.0
    for q, rate in enumerate(nm.cnot_error):
        keep = (1.0 - rate) ** cnots
        p = keep * p + (1.0 - keep) * p.mean(axis=(q, q + 1), keepdims=True)
    for q in range(n):
        t10, t01 = nm.t1_given_0[q], nm.t0_given_1[q]
        confusion = np.array([[1.0 - t10, t01], [t10, 1.0 - t01]])
        p = np.moveaxis(np.tensordot(confusion, p, axes=(1, q)), 0, q)
    return p.reshape(-1)
