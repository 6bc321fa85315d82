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
