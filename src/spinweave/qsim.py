"""Dense pure-state and density-matrix simulation of small qubit chains.

Conventions used throughout the package:

* Qubit 0 is the leftmost label in a bitstring and maps to the most
  significant bit of the basis index, so ``|q0 q1 ... q(n-1)>`` lives at
  index ``sum(q_i << (n - 1 - i))``.  ``|10>`` on two qubits is index 2.
* All values are immutable; every operation returns a new object.
* The gate set is what the weave and the |F| protocol emit (RX, PZ, S, SDG,
  H, X, CNOT) plus RZZ, the reference ZZ rotation the weave expands.
* Gates act in O(2^n) time per gate by contracting the gate tensor against
  the state tensor; the full 2^n x 2^n operator is never formed except in
  :func:`circuit_unitary`, which exists for oracles and diagnostics.
* Equality of circuits is meaningful only up to a global phase (the ZZ and
  phase-gate decompositions used elsewhere introduce one), so comparisons
  should go through :func:`align_global_phase`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ChannelError, MalformedGateError

MAX_QUBITS = 14
MAX_DM_QUBITS = 8

ONE_QUBIT_KINDS = frozenset({"RX", "PZ", "S", "SDG", "H", "X"})
TWO_QUBIT_KINDS = frozenset({"RZZ", "CNOT"})
PARAMETRIC_KINDS = frozenset({"RX", "PZ", "RZZ"})
GATE_KINDS = ONE_QUBIT_KINDS | TWO_QUBIT_KINDS

_SQRT05 = math.sqrt(0.5)


@dataclass(frozen=True)
class Gate:
    """A named gate bound to qubit indices, with an angle where required.

    Two-qubit gates list their qubits in operator order: for CNOT the first
    index is the control and the second the target.
    """

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise MalformedGateError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        expected = 1 if self.kind in ONE_QUBIT_KINDS else 2
        if len(self.qubits) != expected:
            raise MalformedGateError(
                f"{self.kind} takes {expected} qubit(s), got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise MalformedGateError(f"{self.kind} qubit indices must be distinct")
        if any(q < 0 for q in self.qubits):
            raise MalformedGateError("qubit indices must be non-negative")
        if self.kind in PARAMETRIC_KINDS:
            if self.angle is None:
                raise MalformedGateError(f"{self.kind} requires an angle")
            object.__setattr__(self, "angle", float(self.angle))
        elif self.angle is not None:
            raise MalformedGateError(f"{self.kind} takes no angle")


def rx(q: int, theta: float) -> Gate:
    return Gate("RX", (q,), theta)


def pz(q: int, phi: float) -> Gate:
    return Gate("PZ", (q,), phi)


def rzz(i: int, j: int, theta: float) -> Gate:
    return Gate("RZZ", (i, j), theta)


def cnot(control: int, target: int) -> Gate:
    return Gate("CNOT", (control, target))


def s_gate(q: int) -> Gate:
    return Gate("S", (q,))


def sdg_gate(q: int) -> Gate:
    return Gate("SDG", (q,))


def h_gate(q: int) -> Gate:
    return Gate("H", (q,))


def x_gate(q: int) -> Gate:
    return Gate("X", (q,))


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list on ``n_qubits`` qubits; gates apply left to right."""

    n_qubits: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise CapacityError(
                f"n_qubits must be in [1, {MAX_QUBITS}], got {self.n_qubits}")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if max(g.qubits) >= self.n_qubits:
                raise MalformedGateError(
                    f"{g.kind} on {g.qubits} exceeds n_qubits={self.n_qubits}")

    def __len__(self) -> int:
        return len(self.gates)


def gate_matrix(g: Gate) -> np.ndarray:
    """Return the 2x2 or 4x4 unitary of a gate in the basis of its qubit list."""
    kind, theta = g.kind, g.angle
    if kind == "RX":
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "PZ":
        return np.diag([1.0, np.exp(1j * theta)])
    if kind == "RZZ":
        half = theta / 2
        return np.diag(np.exp(-1j * half * np.array([1.0, -1.0, -1.0, 1.0])))
    if kind == "CNOT":
        return np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    if kind == "S":
        return np.diag([1.0, 1j])
    if kind == "SDG":
        return np.diag([1.0, -1j])
    if kind == "H":
        return np.array([[_SQRT05, _SQRT05], [_SQRT05, -_SQRT05]], dtype=complex)
    if kind == "X":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    raise MalformedGateError(f"unknown gate kind {kind!r}")  # pragma: no cover


_INVERSE_KIND = {"S": "SDG", "SDG": "S"}


def inverse_gate(g: Gate) -> Gate:
    if g.kind in PARAMETRIC_KINDS:
        return Gate(g.kind, g.qubits, -g.angle)
    return Gate(_INVERSE_KIND.get(g.kind, g.kind), g.qubits)


def dagger(c: Circuit) -> Circuit:
    """Inverse circuit: gates reversed, each replaced by its inverse."""
    return Circuit(c.n_qubits, tuple(inverse_gate(g) for g in reversed(c.gates)))


def cnot_count(c: Circuit) -> int:
    return sum(1 for g in c.gates if g.kind == "CNOT")


# --- state representations -------------------------------------------------

@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes of a pure n-qubit state, length 2^n."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2 ** self.n_qubits,):
            raise ValueError(
                f"expected {2 ** self.n_qubits} amplitudes, got shape {amps.shape}")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def zeros(cls, n_qubits: int) -> "StateVector":
        amps = np.zeros(2 ** n_qubits, dtype=complex)
        amps[0] = 1.0
        return cls(n_qubits, amps)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian positive 2^n x 2^n matrix with unit trace."""

    n_qubits: int
    entries: np.ndarray

    def __post_init__(self):
        d = 2 ** self.n_qubits
        m = np.asarray(self.entries, dtype=complex)
        if m.shape != (d, d):
            raise ValueError(f"expected {d}x{d} matrix, got shape {m.shape}")
        object.__setattr__(self, "entries", m)

    @classmethod
    def zeros(cls, n_qubits: int) -> "DensityMatrix":
        d = 2 ** n_qubits
        m = np.zeros((d, d), dtype=complex)
        m[0, 0] = 1.0
        return cls(n_qubits, m)


@dataclass(frozen=True)
class BitstringDistribution:
    """Probabilities over classical states, indexed by basis index."""

    n_qubits: int
    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if p.shape != (2 ** self.n_qubits,):
            raise ValueError(
                f"expected {2 ** self.n_qubits} probabilities, got shape {p.shape}")
        object.__setattr__(self, "probabilities", p)


def bitstring(index: int, n_qubits: int) -> str:
    """Basis index to bitstring, qubit 0 leftmost."""
    return format(index, f"0{n_qubits}b")


# --- gate application ------------------------------------------------------

def _contract(tensor: np.ndarray, u: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Apply the |axes|-qubit operator ``u`` to the given tensor axes in place
    of forming the embedded dense operator."""
    k = len(axes)
    uk = u.reshape((2,) * (2 * k))
    out = np.tensordot(uk, tensor, axes=(tuple(range(k, 2 * k)), axes))
    return np.moveaxis(out, tuple(range(k)), axes)


def apply_circuit(state: StateVector, c: Circuit) -> StateVector:
    """Apply all gates of a circuit, in order."""
    if c.n_qubits != state.n_qubits:
        raise ValueError("circuit and state qubit counts differ")
    psi = state.amplitudes.reshape((2,) * state.n_qubits)
    for g in c.gates:
        psi = _contract(psi, gate_matrix(g), g.qubits)
    return StateVector(state.n_qubits, psi.reshape(-1))


def apply_circuit_dm(dm: DensityMatrix, c: Circuit) -> DensityMatrix:
    """Conjugate a density matrix by a circuit, gate by gate:
    rho -> U rho U^dag."""
    if c.n_qubits != dm.n_qubits:
        raise ValueError("circuit and state qubit counts differ")
    n = dm.n_qubits
    t = dm.entries.reshape((2,) * (2 * n))
    for g in c.gates:
        u = gate_matrix(g)
        t = _contract(t, u, g.qubits)
        t = _contract(t, u.conj(), tuple(n + q for q in g.qubits))
    return DensityMatrix(n, t.reshape(2 ** n, 2 ** n))


def apply_channel(dm: DensityMatrix, kraus, qubits) -> DensityMatrix:
    """Apply the channel ``rho -> sum_K K rho K^dag`` on the given qubits.

    The Kraus set must satisfy completeness ``sum_K K^dag K = I`` within
    1e-10, otherwise :class:`ChannelError` is raised.
    """
    qubits = tuple(int(q) for q in qubits)
    if max(qubits) >= dm.n_qubits:
        raise MalformedGateError(f"channel qubits {qubits} out of range")
    kraus = [np.asarray(k, dtype=complex) for k in kraus]
    dim = 2 ** len(qubits)
    total = sum(k.conj().T @ k for k in kraus)
    if np.max(np.abs(total - np.eye(dim))) > 1e-10:
        raise ChannelError("Kraus operators do not satisfy sum K^dag K = I")
    n = dm.n_qubits
    t = dm.entries.reshape((2,) * (2 * n))
    col_axes = tuple(n + q for q in qubits)
    acc = np.zeros_like(t)
    for k in kraus:
        term = _contract(t, k, qubits)
        acc = acc + _contract(term, k.conj(), col_axes)
    return DensityMatrix(n, acc.reshape(2 ** n, 2 ** n))


def measurement_distribution(state: StateVector) -> BitstringDistribution:
    """Born-rule probabilities |amplitude(x)|^2 over classical states."""
    return BitstringDistribution(state.n_qubits, np.abs(state.amplitudes) ** 2)


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Dense 2^n x 2^n unitary of a circuit (for oracles and diagnostics)."""
    n = c.n_qubits
    d = 2 ** n
    t = np.eye(d, dtype=complex).reshape((2,) * n + (d,))
    for g in c.gates:
        t = _contract(t, gate_matrix(g), g.qubits)
    return t.reshape(d, d)


def align_global_phase(candidate: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Rescale ``candidate`` by a unit phase so that its largest-magnitude
    entry has the same argument as the corresponding entry of ``reference``."""
    idx = np.unravel_index(np.argmax(np.abs(candidate)), candidate.shape)
    ref = reference[idx]
    cand = candidate[idx]
    if abs(ref) == 0 or abs(cand) == 0:
        return candidate
    phase = (ref / abs(ref)) * (abs(cand) / cand)
    return candidate * phase
