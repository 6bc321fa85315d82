"""Hardware-style noise: per-CNOT depolarizing, readout confusion, shot noise.

The error model mirrors what chain-of-qubits calibration data exposes:

* every CNOT is followed by a two-qubit depolarizing channel on its pair,
  with a per-edge strength (single-qubit gates are left noiseless, their
  calibrated error rates being more than an order of magnitude smaller);
* state preparation and measurement errors enter as a classical confusion
  matrix T applied to the final readout distribution, T being the tensor
  product of per-qubit 2x2 column-stochastic matrices;
* finite sampling is a separate, explicitly seeded multinomial draw that
  returns the count vector over basis indices.

Calibration tables usually report only the averaged per-qubit SPAM error
eps = (T(0|1) + T(1|0)) / 2; the bundled defaults split it symmetrically,
T(0|1) = T(1|0) = eps, which callers can override with explicit rates.

Depolarizing strength p means "replace the pair state by I/4 with
probability p", i.e. the error weight is spread uniformly over the 15
non-identity two-qubit Paulis.  :func:`simulate_noisy` is the one
density-matrix engine: it folds that channel into the CNOT's own
superoperator and composes each fused block of at most two qubits
(:func:`~spinweave.qsim.fuse_gates`) into one superoperator, so the
density matrix costs one O(4^n) contraction per block, not per gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from numbers import Real

import numpy as np

from .errors import CapacityError
from .qsim import (BLOCK_CACHE_SIZE, MAX_DM_QUBITS, BitstringDistribution,
                   Circuit, Gate, _block_axes, _compose, _contract, fuse_gates,
                   kind_matrix)

DEFAULT_CNOT_ERRORS = (7.67e-3, 7.00e-3, 7.68e-3)
DEFAULT_SPAM_EPSILON = (0.043, 0.015, 0.017, 0.017)
DEFAULT_SHOTS = 8192


def _rates(value, count: int, name: str) -> tuple[float, ...]:
    """``count`` probabilities from one number (repeated) or a sequence.

    Errors start with ``name`` so that callers can prefix the field path.
    """
    vals = list(value) if isinstance(value, (list, tuple, np.ndarray)) else [value] * count
    if len(vals) != count:
        raise ValueError(f"{name}: needs {count} values, got {len(vals)}")
    if any(isinstance(v, bool) or not isinstance(v, Real) for v in vals):
        raise ValueError(f"{name}: expected numbers (got {value!r})")
    if any(not 0.0 <= v <= 1.0 for v in vals):
        raise ValueError(f"{name}: entries must lie in [0, 1]")
    return tuple(float(v) for v in vals)


@dataclass(frozen=True)
class NoiseModel:
    """Per-edge CNOT depolarizing rates plus per-qubit readout confusion."""

    n_qubits: int
    cnot_error: tuple[float, ...]
    t1_given_0: tuple[float, ...]
    t0_given_1: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "cnot_error",
                           _rates(self.cnot_error, self.n_qubits - 1, "cnot_error"))
        object.__setattr__(self, "t1_given_0",
                           _rates(self.t1_given_0, self.n_qubits, "t1_given_0"))
        object.__setattr__(self, "t0_given_1",
                           _rates(self.t0_given_1, self.n_qubits, "t0_given_1"))

    @classmethod
    def ideal(cls, n_qubits: int) -> "NoiseModel":
        return cls(n_qubits, (0.0,) * (n_qubits - 1), (0.0,) * n_qubits,
                   (0.0,) * n_qubits)

    @classmethod
    def default(cls, n_qubits: int = 4) -> "NoiseModel":
        """Bundled calibration defaults for a 4-qubit chain (repeating the
        last table entry when a longer chain is requested)."""
        def take(table, count):
            return tuple(table[i] if i < len(table) else table[-1] for i in range(count))
        eps = take(DEFAULT_SPAM_EPSILON, n_qubits)
        return cls(n_qubits, take(DEFAULT_CNOT_ERRORS, n_qubits - 1), eps, eps)

    @classmethod
    def symmetric_spam(cls, n_qubits: int, cnot_error, spam_epsilon) -> "NoiseModel":
        eps = _rates(spam_epsilon, n_qubits, "spam_epsilon")
        return cls(n_qubits, cnot_error, eps, eps)

    def qubit_confusion(self, q: int) -> np.ndarray:
        """Column-stochastic 2x2: column = prepared bit, row = observed bit."""
        t10, t01 = self.t1_given_0[q], self.t0_given_1[q]
        return np.array([[1.0 - t10, t01], [t10, 1.0 - t01]])


@lru_cache(maxsize=8)
def build_confusion_matrix(nm: NoiseModel) -> np.ndarray:
    """Tensor-product confusion matrix over all qubits (qubit 0 outermost),
    built once per noise model and returned read-only."""
    t = np.eye(1)
    for q in range(nm.n_qubits):
        t = np.kron(t, nm.qubit_confusion(q))
    t.flags.writeable = False
    return t


# vec(I_4) in the (row, column) order of a pair superoperator's output
_VEC_I4 = np.eye(4).reshape(16)


@lru_cache(maxsize=1024)
def _superoperator(kind: str, angle: float | None, p: float) -> np.ndarray:
    """Read-only U (x) conj(U) of a gate kind at an angle, then the pair
    depolarizing channel of strength ``p``; built once per (kind, angle, p)."""
    u = kind_matrix(kind, angle)
    s = (u[:, None, :, None] * u.conj()[None, :, None, :]).reshape(u.size, u.size)
    if p > 0.0:
        s = (1.0 - p) * s + (p / 4.0) * np.outer(_VEC_I4, _VEC_I4 @ s)
    s.flags.writeable = False
    return s


@lru_cache(maxsize=BLOCK_CACHE_SIZE)
def _block_superoperator(qubits: tuple[int, ...], gates: tuple[Gate, ...],
                         p: float) -> np.ndarray:
    """Read-only superoperator of a fused block on its qubits' row axes,
    then their column axes: each gate's :func:`_superoperator`, a CNOT's
    with the pair depolarizing of strength ``p``, composed in order; built
    once per (qubits, gates, p)."""
    k = len(qubits)
    ops = []
    for g in gates:
        rows = _block_axes(qubits, g)
        ops.append((_superoperator(g.kind, g.angle, p if g.kind == "CNOT" else 0.0),
                    rows + tuple(k + a for a in rows)))
    s = _compose(2 * k, ops)
    s.flags.writeable = False
    return s


def simulate_noisy(c: Circuit, nm: NoiseModel) -> BitstringDistribution:
    """Density-matrix run of a circuit under the noise model.

    Each fused block (:func:`~spinweave.qsim.fuse_gates`) is one
    superoperator on its row and column axes of the (2,)*(2n) density
    tensor: one O(4^n) contraction per block.  A gate's superoperator is
    S = U (x) conj(U); a CNOT's also carries its pair's depolarizing
    channel, (1 - p) S + (p/4) vec(I) vec(I)^T S.  A block spans two
    qubits only through a CNOT, and every CNOT of a block acts on the
    block's pair, so one rate serves the whole block.  The readout
    distribution is the diagonal multiplied by the confusion matrix.
    """
    n = c.n_qubits
    if n > MAX_DM_QUBITS:
        raise CapacityError(
            f"density-matrix simulation limited to n <= {MAX_DM_QUBITS}, got n={n}")
    if nm.n_qubits != n:
        raise ValueError("noise model and circuit qubit counts differ")
    t = np.zeros((2,) * (2 * n), dtype=complex)
    t[(0,) * (2 * n)] = 1.0
    for qubits, gates in fuse_gates(c.gates):
        p = nm.cnot_error[min(qubits)] if len(qubits) == 2 else 0.0
        t = _contract(t, _block_superoperator(qubits, gates, p),
                      qubits + tuple(n + q for q in qubits))
    d = 2 ** n
    probs = np.clip(np.diag(t.reshape(d, d)).real, 0.0, None)
    return BitstringDistribution(n, build_confusion_matrix(nm) @ probs)


def sample_counts(d: BitstringDistribution, shots: int, seed) -> np.ndarray:
    """Deterministic multinomial draw from a distribution: the int64 count
    of each basis index, summing to ``shots``.

    ``seed`` may be anything ``numpy.random.default_rng`` accepts, including
    a ``SeedSequence`` for derived per-point streams.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    p = np.clip(d.probabilities, 0.0, None)
    return np.random.default_rng(seed).multinomial(shots, p / p.sum())


def empirical_distribution(counts: np.ndarray) -> BitstringDistribution:
    """Shot frequencies: the count vector divided by the shot count."""
    return BitstringDistribution(counts.size.bit_length() - 1, counts / counts.sum())


def fold_cnots(c: Circuit, m: int) -> Circuit:
    """Replace every CNOT by ``m`` consecutive copies (m odd, so the
    noiseless unitary is unchanged while CNOT noise scales by m)."""
    if m < 1 or m % 2 == 0:
        raise ValueError(f"fold factor must be odd and positive, got {m}")
    gates: list[Gate] = []
    for g in c.gates:
        gates.extend([g] * m if g.kind == "CNOT" else [g])
    return Circuit(c.n_qubits, tuple(gates))
