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
density-matrix engine.  It runs each fused block of at most two qubits
(:attr:`~spinweave.qsim.Circuit.blocks`) as one channel: the block's cached
unitary U as U (x) conj(U), followed by one depolarizing step for all of
the block's CNOTs.  The density matrix costs one O(4^n) contraction per
block, not per gate.  A ZNE fold m (CNOT-tripled for m = 3) runs the
unfolded circuit's one fusion plan with each CNOT's noise applied m times.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral, Real

import numpy as np

from .errors import CapacityError, check_array, check_integer, show_value
from .qsim import (BLOCK_CACHE_SIZE, BitstringDistribution, Circuit, Gate,
                   _block_unitary, _contract)

# a density tensor holds 4^n amplitudes: 1 MiB at n = 8
MAX_DM_QUBITS = 8
DEFAULT_CNOT_ERRORS = (7.67e-3, 7.00e-3, 7.68e-3)
DEFAULT_SPAM_EPSILON = (0.043, 0.015, 0.017, 0.017)
DEFAULT_SHOTS = 8192
# numpy's multinomial draws int64 counts
MAX_SHOTS = 2 ** 63 - 1


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
        check_integer(self.n_qubits, "n_qubits", 1)
        object.__setattr__(self, "cnot_error",
                           _rates(self.cnot_error, self.n_qubits - 1, "cnot_error"))
        object.__setattr__(self, "t1_given_0",
                           _rates(self.t1_given_0, self.n_qubits, "t1_given_0"))
        object.__setattr__(self, "t0_given_1",
                           _rates(self.t0_given_1, self.n_qubits, "t0_given_1"))

    @classmethod
    def default(cls, n_qubits: int = 4) -> "NoiseModel":
        """Bundled calibration defaults for a 4-qubit chain (repeating the
        last table entry when a longer chain is requested)."""
        check_integer(n_qubits, "n_qubits", 1)
        def take(table, count):
            return tuple(table[i] if i < len(table) else table[-1] for i in range(count))
        eps = take(DEFAULT_SPAM_EPSILON, n_qubits)
        return cls(n_qubits, take(DEFAULT_CNOT_ERRORS, n_qubits - 1), eps, eps)

    @classmethod
    def symmetric_spam(cls, n_qubits: int, cnot_error, spam_epsilon) -> "NoiseModel":
        check_integer(n_qubits, "n_qubits", 1)
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


@lru_cache(maxsize=BLOCK_CACHE_SIZE)
def _block_superoperator(qubits: tuple[int, ...], gates: tuple[Gate, ...],
                         p: float, fold: int) -> np.ndarray:
    """Read-only superoperator of a fused block on its qubits' row axes,
    then their column axes, built once per (qubits, gates, p, fold), so a
    two-qubit block off a chain edge (q, q + 1) is rejected once per
    distinct block.

    It is S = U (x) conj(U) of the block's unitary, followed by one pair
    depolarizing step (1 - q) S + (q/4) vec(I) vec(I)^T S with
    q = 1 - (1 - p)^(fold m) for the block's m CNOTs.  One step serves them
    all because every CNOT of a block acts on the block's pair, and the
    pair channel commutes with every unitary on that pair: channels of
    strength p, wherever they fall among the gates, compose to one step
    after them.  With ``fold`` odd this is the channel of the block with
    every CNOT repeated ``fold`` times, since the repeats compose to one
    CNOT and only add (fold - 1) m channels.
    """
    if len(qubits) == 2 and abs(qubits[0] - qubits[1]) != 1:
        cnot = next(g for g in gates if g.kind == "CNOT")
        raise ValueError(f"c must put each CNOT on a chain edge (q, q + 1), "
                         f"got CNOT on {cnot.qubits}")
    u = _block_unitary(qubits, gates)
    s = (u[:, None, :, None] * u.conj()[None, :, None, :]).reshape(u.size, u.size)
    m = fold * sum(g.kind == "CNOT" for g in gates)
    if p > 0.0 and m:
        q = 1.0 - (1.0 - p) ** m
        s = (1.0 - q) * s + (q / 4.0) * np.outer(_VEC_I4, _VEC_I4 @ s)
    s.flags.writeable = False
    return s


def simulate_noisy(c: Circuit, nm: NoiseModel, fold: int = 1) -> BitstringDistribution:
    """Density-matrix run of a circuit under the noise model, with each
    CNOT's noise applied ``fold`` times (odd and positive): the channel of
    the circuit with every CNOT repeated ``fold`` times.

    Each fused block (:attr:`~spinweave.qsim.Circuit.blocks`) is one
    superoperator (:func:`_block_superoperator`) on its row and column axes
    of the (2,)*(2n) density tensor: one O(4^n) contraction per block.  A
    block spans two qubits only through a CNOT, which must act on a chain
    edge (q, q + 1), so that edge's rate serves the whole block; a CNOT on
    any other pair is rejected.  The readout distribution is the diagonal
    multiplied by the confusion matrix.
    """
    n = c.n_qubits
    if n > MAX_DM_QUBITS:
        raise CapacityError(
            f"density-matrix simulation limited to n <= {MAX_DM_QUBITS}, got n={n}")
    if nm.n_qubits != n:
        raise ValueError("noise model and circuit qubit counts differ")
    if (isinstance(fold, bool) or not isinstance(fold, (int, Integral))
            or fold < 1 or fold % 2 == 0):
        raise ValueError(f"fold must be odd and positive, got {fold!r}")
    fold = int(fold)  # a numpy integer would make the noise rate a numpy power
    t = np.zeros((2,) * (2 * n), dtype=complex)
    t[(0,) * (2 * n)] = 1.0
    for qubits, gates in c.blocks:
        p = nm.cnot_error[min(qubits)] if len(qubits) == 2 else 0.0
        # without CNOT noise a block has one channel, and one cache entry, at every fold
        s = _block_superoperator(qubits, gates, p, fold if p > 0.0 else 1)
        t = _contract(t, s, qubits + tuple(n + q for q in qubits))
    d = 2 ** n
    probs = np.clip(np.diag(t.reshape(d, d)).real, 0.0, None)
    return BitstringDistribution(n, build_confusion_matrix(nm) @ probs)


def sample_counts(d: BitstringDistribution, shots: int, seed) -> np.ndarray:
    """Deterministic multinomial draw from a distribution: the int64 count
    of each basis index, summing to ``shots``.

    ``seed`` may be anything ``numpy.random.default_rng`` accepts, including
    a ``SeedSequence`` for derived per-point streams.  ``d`` must hold a
    positive, finite mass once its negative entries are clipped to 0, and
    ``shots`` may not exceed :data:`MAX_SHOTS`.
    """
    check_integer(shots, "shots", 1)
    if shots > MAX_SHOTS:
        raise ValueError(f"shots must be <= {MAX_SHOTS}, got {show_value(shots)}")
    p = np.clip(d.probabilities, 0.0, None)
    mass = p.sum()
    if not 0.0 < mass < np.inf:
        raise ValueError(f"d must hold a positive, finite probability mass, got {mass}")
    return np.random.default_rng(seed).multinomial(shots, p / mass)


def empirical_distribution(counts: np.ndarray) -> BitstringDistribution:
    """Shot frequencies: the count vector, of non-negative integers, one per
    basis index (so its length is a power of two), divided by the shot count."""
    counts = check_array(counts, "counts", 1, "iu")
    if counts.size & (counts.size - 1):
        raise ValueError(f"counts must have a power-of-two length, got {counts.size}")
    shots = counts.sum()
    if not shots > 0:
        raise ValueError(f"counts must hold at least one shot, got {shots}")
    if counts.min() < 0:
        raise ValueError(f"counts must be non-negative, got {counts.min()}")
    return BitstringDistribution(counts.size.bit_length() - 1, counts / shots)
