"""Shared test helpers.

The dense oracles (``embed_dense``, ``kron_site``, ``dense_hamiltonian``,
``dense_otoc``, ``rzz_matrix``) are deliberately naive (bit loops, explicit
kron chains) so that they share no code path with the package internals
they check.  ``commutator``, ``cnot_count``, ``align_global_phase`` and
``load_preset`` are small conveniences over package values.
"""

import numpy as np
import pytest

from spinweave.config import preset_path, validate_config
from spinweave.otoc import otoc_exact

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]])
Z2 = np.diag([1.0, -1.0]).astype(complex)


def embed_dense(u, qubits, n):
    """Dense 2^n x 2^n embedding of a k-qubit operator by explicit bit
    bookkeeping (qubit 0 = most significant bit)."""
    d = 2 ** n
    k = len(qubits)
    out = np.zeros((d, d), dtype=complex)
    for col in range(d):
        bits = [(col >> (n - 1 - q)) & 1 for q in range(n)]
        sub_in = sum(bits[qubits[m]] << (k - 1 - m) for m in range(k))
        for sub_out in range(2 ** k):
            new_bits = list(bits)
            for m in range(k):
                new_bits[qubits[m]] = (sub_out >> (k - 1 - m)) & 1
            row = sum(new_bits[q] << (n - 1 - q) for q in range(n))
            out[row, col] += u[sub_out, sub_in]
    return out


def kron_site(op, site, n):
    """op at 1-based site, identity elsewhere."""
    out = np.eye(1, dtype=complex)
    for q in range(n):
        out = np.kron(out, op if q == site - 1 else I2)
    return out


def dense_hamiltonian(n, j_coupling, bx, bz):
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for q in range(1, n):
        h += j_coupling * kron_site(Z2, q, n) @ kron_site(Z2, q + 1, n)
    for q in range(1, n + 1):
        h += bz * kron_site(Z2, q, n) + bx * kron_site(X2, q, n)
    return h


def dense_otoc(u, i, j, n, state="zeros", probe="x"):
    """tr[rho X_i(t) V_j X_i(t) V_j] from explicit dense matrices."""
    xi = kron_site(X2, i, n)
    vj = kron_site(X2 if probe == "x" else Y2, j, n)
    xit = u.conj().T @ xi @ u
    m = xit @ vj @ xit @ vj
    d = 2 ** n
    if state == "zeros":
        rho = np.zeros((d, d), dtype=complex)
        rho[0, 0] = 1.0
    elif state == "plus":
        rho = np.full((d, d), 1.0 / d, dtype=complex)
    elif state == "maximally_mixed":
        rho = np.eye(d, dtype=complex) / d
    else:
        raise ValueError(state)
    return complex(np.trace(rho @ m))


def rzz_matrix(theta):
    """The ZZ rotation exp(-i theta/2 Z Z) on two qubits."""
    return np.diag(np.exp(-1j * theta / 2 * np.array([1.0, -1.0, -1.0, 1.0])))


def commutator(p, i, j, t, state="zeros", probe="x"):
    """Squared commutator 2 - 2 Re F_ij(t), in [0, 4]."""
    return 2.0 - 2.0 * otoc_exact(p, i, j, t, state, probe).real


def load_preset(name):
    """The validated config of a bundled preset."""
    return validate_config(preset_path(name))


def cnot_count(c):
    return sum(1 for g in c.gates if g.kind == "CNOT")


def align_global_phase(candidate, reference):
    """Rescale ``candidate`` by a unit phase so that its largest-magnitude
    entry has the same argument as the corresponding entry of ``reference``."""
    idx = np.unravel_index(np.argmax(np.abs(candidate)), candidate.shape)
    ref = reference[idx]
    cand = candidate[idx]
    if abs(ref) == 0 or abs(cand) == 0:
        return candidate
    phase = (ref / abs(ref)) * (abs(cand) / cand)
    return candidate * phase


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
