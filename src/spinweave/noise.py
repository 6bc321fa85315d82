"""Hardware-style noise: per-CNOT depolarizing, readout confusion, shot noise.

The error model mirrors what chain-of-qubits calibration data exposes:

* every CNOT is followed by a two-qubit depolarizing channel on its pair,
  with a per-edge strength (single-qubit gates are left noiseless, their
  calibrated error rates being more than an order of magnitude smaller);
* state preparation and measurement errors enter as a classical confusion
  matrix T applied to the final readout distribution, T being the tensor
  product of per-qubit 2x2 column-stochastic matrices;
* finite sampling is a separate, explicitly seeded multinomial draw.

Calibration tables usually report only the averaged per-qubit SPAM error
eps = (T(0|1) + T(1|0)) / 2; the bundled defaults split it symmetrically,
T(0|1) = T(1|0) = eps, which callers can override with explicit rates.

Depolarizing strength p means "replace the pair state by I/4 with
probability p", i.e. the error weight is spread uniformly over the 15
non-identity two-qubit Paulis.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from numbers import Real

import numpy as np

from .errors import CapacityError
from .qsim import (MAX_DM_QUBITS, BitstringDistribution, Circuit, Gate,
                   bitstring, gate_matrix, _contract)

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


def build_confusion_matrix(nm: NoiseModel) -> np.ndarray:
    """Tensor-product confusion matrix over all qubits (qubit 0 outermost)."""
    t = np.eye(1)
    for q in range(nm.n_qubits):
        t = np.kron(t, nm.qubit_confusion(q))
    return t


_PAULIS_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}


def depolarizing_kraus(p: float, n_qubits: int = 2) -> list[np.ndarray]:
    """Kraus set of the n-qubit depolarizing channel of strength ``p``:
    identity with weight 1 - p (d^2 - 1) / d^2 and every non-identity Pauli
    with weight p / d^2, realizing rho -> (1 - p) rho + p I/d."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing strength must be in [0, 1], got {p}")
    d2 = 4 ** n_qubits
    ops = []
    for labels in product("IXYZ", repeat=n_qubits):
        mat = np.eye(1, dtype=complex)
        for l in labels:
            mat = np.kron(mat, _PAULIS_1Q[l])
        weight = 1.0 - p * (d2 - 1) / d2 if set(labels) == {"I"} else p / d2
        ops.append(np.sqrt(weight) * mat)
    return ops


def _depolarize_pair(t: np.ndarray, q1: int, q2: int, n: int, p: float) -> np.ndarray:
    """Closed form of the two-qubit depolarizing update on a (2,)*(2n) density
    tensor: (1 - p) rho + p * (I/4 tensor tr_pair rho).  Must agree with
    applying :func:`depolarizing_kraus` through the generic channel (tested)."""
    axes = (q1, q2, n + q1, n + q2)
    moved = np.moveaxis(t, axes, (-4, -3, -2, -1))
    rest = moved.shape[:-4]
    red = np.trace(moved.reshape(rest + (4, 4)), axis1=-2, axis2=-1)
    mixed = np.multiply.outer(red, np.eye(4, dtype=complex) / 4.0)
    mixed = mixed.reshape(rest + (2, 2, 2, 2))
    return np.moveaxis((1.0 - p) * moved + p * mixed, (-4, -3, -2, -1), axes)


def simulate_noisy(c: Circuit, nm: NoiseModel) -> BitstringDistribution:
    """Density-matrix run of a circuit under the noise model.

    Gates apply noiselessly except that each CNOT is followed by the
    two-qubit depolarizing channel on its pair; the final readout
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
    for g in c.gates:
        u = gate_matrix(g)
        t = _contract(t, u, g.qubits)
        t = _contract(t, u.conj(), tuple(n + q for q in g.qubits))
        if g.kind == "CNOT":
            p = nm.cnot_error[min(g.qubits)]
            if p > 0.0:
                t = _depolarize_pair(t, g.qubits[0], g.qubits[1], n, p)
    d = 2 ** n
    probs = np.clip(np.diag(t.reshape(d, d)).real, 0.0, None)
    return BitstringDistribution(n, build_confusion_matrix(nm) @ probs)


@dataclass(frozen=True)
class ShotResult:
    """Multinomial counts over bitstrings; counts sum to ``shots``."""

    n_qubits: int
    shots: int
    counts: dict

    def vector(self) -> np.ndarray:
        v = np.zeros(2 ** self.n_qubits)
        for bits, cnt in self.counts.items():
            v[int(bits, 2)] = cnt
        return v


def sample_counts(d: BitstringDistribution, shots: int, seed) -> ShotResult:
    """Deterministic multinomial draw from a distribution.

    ``seed`` may be anything ``numpy.random.default_rng`` accepts, including
    a ``SeedSequence`` for derived per-point streams.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    p = np.clip(d.probabilities, 0.0, None)
    p = p / p.sum()
    draws = np.random.default_rng(seed).multinomial(shots, p)
    counts = {bitstring(x, d.n_qubits): int(cnt)
              for x, cnt in enumerate(draws) if cnt > 0}
    return ShotResult(d.n_qubits, shots, counts)


def empirical_distribution(sr: ShotResult) -> BitstringDistribution:
    return BitstringDistribution(sr.n_qubits, sr.vector() / sr.shots)


def fold_cnots(c: Circuit, m: int) -> Circuit:
    """Replace every CNOT by ``m`` consecutive copies (m odd, so the
    noiseless unitary is unchanged while CNOT noise scales by m)."""
    if m < 1 or m % 2 == 0:
        raise ValueError(f"fold factor must be odd and positive, got {m}")
    gates: list[Gate] = []
    for g in c.gates:
        gates.extend([g] * m if g.kind == "CNOT" else [g])
    return Circuit(c.n_qubits, tuple(gates))
