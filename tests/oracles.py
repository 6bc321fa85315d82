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
"""

import numpy as np

from spinweave.mitigation import project_simplex

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
