"""Dense pure-state simulation of small qubit chains, and the gate set.

Conventions used throughout the package:

* Qubit 0 is the leftmost label in a bitstring and maps to the most
  significant bit of the basis index, so ``|q0 q1 ... q(n-1)>`` lives at
  index ``sum(q_i << (n - 1 - i))``.  ``|10>`` on two qubits is index 2.
* All values are immutable; every operation returns a new object.
* The gate set is exactly what the weave and the |F| protocol emit: RX, PZ,
  H, X and CNOT, each its own inverse at the negated angle, one row each of
  the table :data:`GATES`, which validation and both engines read, building
  a matrix once per (kind, angle).  A :class:`Gate` is a tuple, checked (a
  finite angle included) when built and unpickled.
* Both engines run a circuit as its fused blocks, :attr:`Circuit.blocks`:
  :func:`fuse_gates` groups the gates, once per circuit and in one pass,
  into blocks of at most two qubits, and each block costs O(2^n): one
  cached axis plan per (rank, axes), then one transpose copy and one matrix
  product of the block's 2x2 or 4x4 unitary against the state tensor.  A
  block's operator is built once, by running its own gates on an identity
  tensor, and cached.  :func:`spinweave.noise.simulate_noisy` builds each
  block's channel from that cached unitary and applies it with the same
  kernel, :func:`_contract`.  The full 2^n x 2^n operator is never formed.
* The ZZ and phase-gate decompositions the weave uses differ from the
  exact exponentials by a global phase, which cancels in every quantity
  the package measures.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import (CapacityError, MalformedGateError, check_integer, check_kind,
                     check_real, show_value)

MAX_QUBITS = 14
# Operators held by each fused-block cache.  A run needs one per distinct
# block: at most 1,027 on the bundled presets (fig5b, fig6b) and 473 on the
# n=8 sampled benchmark workload.  At the bound a cache holds 8 MiB of 16x16
# superoperators or 0.5 MiB of 4x4 unitaries.
BLOCK_CACHE_SIZE = 2048

_SQRT05 = math.sqrt(0.5)


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


# kind -> (qubit count, matrix).  A parametric kind's matrix is the function
# of the angle that gives it.  Every kind is its own inverse at the negated
# angle: RX and PZ negate theirs, and H, X and CNOT are self-inverse.
GateKind = namedtuple("GateKind", "qubits matrix")
GATES = {
    "RX": GateKind(1, _rx),
    "PZ": GateKind(1, lambda phi: np.diag([1.0, np.exp(1j * phi)])),
    "H": GateKind(1, [[_SQRT05, _SQRT05], [_SQRT05, -_SQRT05]]),
    "X": GateKind(1, [[0, 1], [1, 0]]),
    "CNOT": GateKind(2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
}
# the widest kind: a fused block spans at most this many qubits
BLOCK_QUBITS = max(spec.qubits for spec in GATES.values())
_NO_BLOCK = (-1,) * BLOCK_QUBITS


class Gate(namedtuple("Gate", "kind qubits angle")):
    """A named gate bound to qubit indices, with an angle where required.

    Two-qubit gates list their qubits in operator order: for CNOT the first
    index is the control and the second the target.  A qubit must be an
    integer and an angle a finite real number, not a bool or a string: they
    are checked, never converted.  A gate is the checked tuple ``(kind,
    qubits, angle)`` and equals it; unpickling (protocol >= 2) checks it
    again in ``__new__``, while ``_make`` and ``_replace`` do not.
    """

    __slots__ = ()

    def __new__(cls, kind: str, qubits: tuple[int, ...], angle: float | None = None):
        spec = GATES.get(kind)
        if spec is None:
            raise MalformedGateError(f"unknown gate kind {kind!r}")
        qubits = tuple(qubits)
        # the built-in types come first: isinstance against a numbers ABC is slow
        if any(isinstance(q, bool) or not isinstance(q, (int, Integral)) for q in qubits):
            raise MalformedGateError(
                f"{kind} qubit indices must be integers, got {show_value(qubits)}")
        qubits = tuple(map(int, qubits))
        if len(qubits) != spec.qubits:
            raise MalformedGateError(
                f"{kind} takes {spec.qubits} qubit(s), got {show_value(qubits)}")
        if len(set(qubits)) != len(qubits):
            raise MalformedGateError(f"{kind} qubit indices must be distinct")
        if any(q < 0 for q in qubits):
            raise MalformedGateError("qubit indices must be non-negative")
        if callable(spec.matrix):
            if angle is None:
                raise MalformedGateError(f"{kind} requires an angle")
            check_real(angle, f"{kind} angle", MalformedGateError)
            angle = float(angle)
        elif angle is not None:
            raise MalformedGateError(f"{kind} takes no angle")
        return super().__new__(cls, kind, qubits, angle)


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list on ``n_qubits`` qubits; gates apply left to right."""

    n_qubits: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        check_integer(self.n_qubits, "n_qubits", error=CapacityError)
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise CapacityError(
                f"n_qubits must be in [1, {MAX_QUBITS}], got {show_value(self.n_qubits)}")
        object.__setattr__(self, "gates", tuple(self.gates))
        for i, g in enumerate(self.gates):
            if not isinstance(g, Gate):
                raise MalformedGateError(f"gate {i} is not a Gate, got {show_value(g, repr)}")
            if max(g.qubits) >= self.n_qubits:
                raise MalformedGateError(
                    f"{g.kind} on {show_value(g.qubits)} exceeds n_qubits={self.n_qubits}")

    def __len__(self) -> int:
        return len(self.gates)

    @functools.cached_property
    def blocks(self) -> tuple[tuple[tuple[int, ...], tuple[Gate, ...]], ...]:
        """The :func:`fuse_gates` plan of the gates, built once."""
        return fuse_gates(self.gates)

    @functools.cached_property
    def inverse(self) -> "Circuit":
        """Built once: the gates reversed, each at its negated angle."""
        return Circuit(self.n_qubits, tuple(
            Gate(g.kind, g.qubits, None if g.angle is None else -g.angle)
            for g in reversed(self.gates)))


@functools.lru_cache(maxsize=1024)
def kind_matrix(kind: str, angle: float | None) -> np.ndarray:
    """The read-only unitary of :data:`GATES` ``[kind]`` at ``angle`` (None
    for a fixed kind), built once per (kind, angle)."""
    matrix = GATES[kind].matrix
    matrix = np.array(matrix if angle is None else matrix(angle), dtype=complex)
    matrix.flags.writeable = False
    return matrix


# --- state representations -------------------------------------------------

def _basis_vector(n_qubits: int, values, name: str, dtype: type) -> np.ndarray:
    """The record field ``name``: ``values``, a vector of one entry per basis
    state of ``n_qubits`` qubits (an integer >= 0), as a ``dtype`` array.
    Its entries must be real numbers, or complex ones where ``dtype`` is
    complex; bools, strings and objects are rejected, not converted."""
    check_integer(n_qubits, "n_qubits", 0)
    a = np.asarray(values)
    if a.shape != (2 ** n_qubits,):
        raise ValueError(f"expected {2 ** n_qubits} {name}, got shape {a.shape}")
    check_kind(a, name, "iufc" if dtype is complex else "iuf")
    return a.astype(dtype, copy=False)


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes of a pure n-qubit state, length 2^n."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _basis_vector(
            self.n_qubits, self.amplitudes, "amplitudes", complex))

    @classmethod
    def zeros(cls, n_qubits: int) -> "StateVector":
        check_integer(n_qubits, "n_qubits", 0)
        amps = np.zeros(2 ** n_qubits, dtype=complex)
        amps[0] = 1.0
        return cls(n_qubits, amps)


@dataclass(frozen=True)
class BitstringDistribution:
    """Probabilities over classical states, indexed by basis index."""

    n_qubits: int
    probabilities: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probabilities", _basis_vector(
            self.n_qubits, self.probabilities, "probabilities", float))


# --- gate application ------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _axis_plan(ndim: int, axes: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The permutation that brings ``axes`` to the front, in order, followed
    by the remaining axes in place, and its inverse.  Unbounded: there are
    only as many keys as distinct axis tuples the gates touch, on state
    vectors and on density tensors."""
    perm = axes + tuple(a for a in range(ndim) if a not in axes)
    return perm, tuple(perm.index(a) for a in range(ndim))


def _contract(tensor: np.ndarray, u: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Apply the |axes|-qubit operator ``u`` to the given tensor axes in place
    of forming the embedded dense operator.

    One transpose copy and one matrix product: the gate axes go to the front,
    ``u`` multiplies the (2^k, rest) matrix, and the inverse permutation puts
    them back.  Reshaping the product to ``tensor.shape`` is valid because
    every moved axis, and every axis ahead of one, has length 2.
    """
    perm, inv = _axis_plan(tensor.ndim, axes)
    out = u @ tensor.transpose(perm).reshape(len(u), -1)
    return out.reshape(tensor.shape).transpose(inv)


def fuse_gates(gates) -> tuple[tuple[tuple[int, ...], tuple[Gate, ...]], ...]:
    """Group a gate sequence into blocks of at most ``BLOCK_QUBITS`` qubits,
    in one pass; returns (qubits, gates) per block, in application order.

    A gate joins the latest block on any of its qubits when their union
    spans at most ``BLOCK_QUBITS`` qubits, and otherwise opens a new block.
    No block after the one a gate joins touches the gate's qubits, so the
    blocks applied in order, each as the product of its gates, equal the
    gates applied in order.  A block lists its qubits in order of first use.
    """
    qubits: list[tuple[int, ...]] = []
    members: list[list[Gate]] = []
    latest: dict[int, int] = {}  # qubit -> index of the latest block on it
    for g in gates:
        i = max(map(latest.get, g.qubits, _NO_BLOCK))
        if i >= 0:
            new = [q for q in g.qubits if q not in qubits[i]]
            if len(qubits[i]) + len(new) <= BLOCK_QUBITS:
                if new:
                    qubits[i] += tuple(new)
                    for q in new:
                        latest[q] = i
                members[i].append(g)
                continue
        i = len(qubits)
        qubits.append(g.qubits)
        members.append([g])
        for q in g.qubits:
            latest[q] = i
    return tuple(zip(qubits, map(tuple, members)))


@functools.lru_cache(maxsize=BLOCK_CACHE_SIZE)
def _block_unitary(qubits: tuple[int, ...], gates: tuple[Gate, ...]) -> np.ndarray:
    """Read-only unitary of a fused block on its qubits, in their order,
    built once per (qubits, gates) by applying the gates in order to an
    identity tensor, each on the positions of its qubits in ``qubits``."""
    d = 2 ** len(qubits)
    t = np.eye(d, dtype=complex).reshape((2,) * len(qubits) + (d,))
    for g in gates:
        t = _contract(t, kind_matrix(g.kind, g.angle), tuple(map(qubits.index, g.qubits)))
    u = t.reshape(d, d)
    u.flags.writeable = False
    return u


def apply_circuit(state: StateVector, c: Circuit) -> StateVector:
    """Apply a circuit, one contraction per fused block, in order."""
    if c.n_qubits != state.n_qubits:
        raise ValueError("circuit and state qubit counts differ")
    psi = state.amplitudes.reshape((2,) * state.n_qubits)
    for qubits, gates in c.blocks:
        psi = _contract(psi, _block_unitary(qubits, gates), qubits)
    return StateVector(state.n_qubits, psi.reshape(-1))


def measurement_distribution(state: StateVector) -> BitstringDistribution:
    """Born-rule probabilities |amplitude(x)|^2 over classical states."""
    return BitstringDistribution(state.n_qubits, np.abs(state.amplitudes) ** 2)
