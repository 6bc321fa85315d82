"""Ising chain Hamiltonian, exact evolution, and the classical-limit OTOC phase.

The model is an open chain of ``n`` spins,

    H = J sum_i Z_i Z_{i+1} + Bz sum_i Z_i + Bx sum_i X_i,

whose diagonal part (``Bx = 0``) is referred to as the classical
Hamiltonian.  Sites are numbered 1..n to match the probe-site convention of
the OTOC surfaces; site ``j`` acts on qubit ``j - 1``.

For the classical Hamiltonian the OTOC of X operators on the all-zeros
state has a closed form: flipping spins only shuffles classical energies,
so the correlator is a pure phase built from the energy differences of the
single- and double-excitation states.  :func:`classical_otoc_phase` gives
that phase for the measured row ``i = 1``; the fixed-node reconstruction
in :mod:`spinweave.otoc` reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (CapacityError, check_array, check_integer, check_real,
                     show_value)
from .qsim import MAX_QUBITS

MAX_OTOC_QUBITS = 10


@dataclass(frozen=True)
class IsingParams:
    """Chain size and couplings, checked and never converted: ``n`` an
    integer >= 3, as the closed-form OTOC needs, and each coupling a finite
    real number, not a bool."""

    n: int
    J: float
    Bx: float
    Bz: float

    def __post_init__(self):
        check_integer(self.n, "n", 3)
        for name in ("J", "Bx", "Bz"):
            check_real(getattr(self, name), name)


REGIME_COUPLINGS = {
    "integrable": (-1.0, 0.0, 1.0),
    "chaotic": (-1.0, 0.7, 1.5),
}


def preset_params(name: str, n: int) -> IsingParams:
    """Bundled parameter sets: 'integrable' (J, Bx, Bz) = (-1, 0, 1) and
    'chaotic' (-1, 0.7, 1.5)."""
    try:
        j, bx, bz = REGIME_COUPLINGS[name]
    except KeyError:
        raise ValueError(
            f"unknown regime {name!r}; choose from {sorted(REGIME_COUPLINGS)}") from None
    return IsingParams(n, j, bx, bz)


def phase_rate(p: IsingParams) -> float:
    """The fastest phase that a run forms, per unit time: the bound
    (n - 1)|J| + n(|Bz| + |Bx|) on ||H||, so on every |E| t of the exact
    evolution, or a rate 4|J + Bz| or 4|J| of :func:`classical_otoc_phase`."""
    return max((p.n - 1) * abs(p.J) + p.n * (abs(p.Bz) + abs(p.Bx)),
               4.0 * abs(p.J + p.Bz), 4.0 * abs(p.J))


def _check_time(p: IsingParams, t: float):
    check_real(t, "t")
    if not np.isfinite(phase_rate(p) * t):
        raise ValueError(f"phase_rate * t must be finite, with the rate "
                         f"{phase_rate(p):g} (got t={t!r})")


def classical_energies(p: IsingParams) -> np.ndarray:
    """Diagonal of the classical Hamiltonian over all classical states."""
    z = 1.0 - 2.0 * ((np.arange(2 ** p.n)[:, None] >> np.arange(p.n - 1, -1, -1)) & 1)
    return p.J * (z[:, :-1] * z[:, 1:]).sum(axis=1) + p.Bz * z.sum(axis=1)


def build_hamiltonian(p: IsingParams) -> np.ndarray:
    """Dense real-symmetric matrix of the full Hamiltonian."""
    if p.n > MAX_QUBITS:
        raise CapacityError(
            f"dense construction limited to n <= {MAX_QUBITS}, got n={p.n}")
    d = 2 ** p.n
    h = np.diag(classical_energies(p))
    if p.Bx != 0.0:
        rows = np.arange(d)
        for q in range(p.n):
            h[rows, rows ^ (1 << (p.n - 1 - q))] += p.Bx
    return h


class ExactEvolution:
    """Exact evolution under a fixed real-symmetric matrix H = V E V^T,
    eigendecomposed once; V is real.  A matrix ``h`` that is complex, not
    square, empty, not of ints or floats, not finite or not symmetric is
    rejected before ``eigh``.

    The surface runs never form the propagator.  They conjugate a bit-flip
    operator X in the eigenbasis once, M = V^T X V (:meth:`flip_matrix`),
    and then X(t) = U^dag X U = V e^{iEt} M e^{-iEt} V^T costs two products
    of V and M with the few columns of X(t) that a state reads: O(n 4^n)
    per time after one O(8^n) factorization.  :meth:`unitary` forms U(t)
    itself for a caller that needs it, at O(8^n) per time.
    """

    def __init__(self, h: np.ndarray):
        if np.iscomplexobj(h):
            raise ValueError("matrix must be real symmetric")
        h = check_array(h, "h", 2)
        if not np.isfinite(h).all():
            raise ValueError("h must hold only finite entries")
        if np.max(np.abs(h - h.T)) > 1e-10:
            raise ValueError("matrix is not Hermitian within tolerance")
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(h)
        self._flips: dict[int, np.ndarray] = {}

    def unitary(self, t: float) -> np.ndarray:
        v = self.eigenvectors
        return (v * np.exp(-1j * self.eigenvalues * t)) @ v.T

    def flip_matrix(self, mask: int) -> np.ndarray:
        """M = V^T X V for X the flip of the index bits in ``mask``, an
        integer in [0, 2^n) for a 2^n-row ``h``; X flips the rows of V, so M
        costs one real product, kept for later calls."""
        check_integer(mask, "mask", 0)
        if mask >= len(self.eigenvectors):
            raise ValueError(f"mask must be < {len(self.eigenvectors)}, "
                             f"got {show_value(mask)}")
        if mask not in self._flips:
            v = self.eigenvectors
            self._flips[mask] = v.T @ v[np.arange(len(v)) ^ mask]
        return self._flips[mask]


@lru_cache(maxsize=32)
def cached_evolution(p: IsingParams) -> ExactEvolution:
    """Shared eigendecomposition for a parameter set; safe because it is
    immutable."""
    return ExactEvolution(build_hamiltonian(p))


def _check_site(n: int, site: int, name: str = "j"):
    check_integer(site, f"site {name}")
    if not 1 <= site <= n:
        raise ValueError(f"site {name}={site} out of range 1..{n}")


def classical_otoc_phase(p: IsingParams, j: int, t: float) -> float:
    """Phase of the classical-Hamiltonian OTOC for the measured row i = 1.

    4(J + Bz)t at the butterfly site, 4Jt at its neighbour, and 0 further
    out (including the far chain end).
    """
    _check_time(p, t)
    _check_site(p.n, j)
    if j == 1:
        return 4.0 * (p.J + p.Bz) * t
    if j == 2:
        return 4.0 * p.J * t
    return 0.0
