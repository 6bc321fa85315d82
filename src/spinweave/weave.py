"""Trotter step circuits and the k-weave scheduler.

A single step U(dt) is the symmetric splitting

    [RX half layer] [ZZ layer] [phase layer] [RX half layer]

with per-gate angles RX(Bx*dt), RZZ(2J*dt) on every chain edge, and
PZ(2Bz*dt) on every site.  The ZZ rotation is expanded into
CNOT . PZ(theta) . CNOT, so a standard step costs 2(n-1) CNOTs.  That
expansion, and the phase-gate layer, differ from the exact exponentials by
global phases, which cancel in every quantity this package measures.

A k-weave is the operator set {U(tau), U(2 tau), ..., U(k tau)}.  The last
element is the cell; evolution to time index ell applies the shift
U((ell mod k) tau) once and then the cell (ell - ell mod k)/k times,
cutting circuit depth k-fold compared to repeating U(tau).

When the cell's ZZ angle 2*J*k*tau equals +-pi/2 the cell is "magic": each
edge rotation collapses to S_i S_j CZ_ij up to a global phase, and with
CZ written as H CNOT H the ZZ layer needs only one CNOT per edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError
from .ising import IsingParams
from .qsim import Circuit, Gate, cnot, h_gate, pz, rx, s_gate, sdg_gate

MAGIC_ANGLE_TOL = 1e-9


@dataclass(frozen=True)
class WeaveSchedule:
    """Time resolution tau, weave modulus k, maximum time index, magic flag."""

    tau: float
    k: int
    ell_max: int
    magic: bool = False

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.ell_max < 0:
            raise ValueError(f"ell_max must be >= 0, got {self.ell_max}")


def check_magic_constraint(angle: float):
    """A magic cell's ZZ angle 2*J*k*tau must be +-pi/2 within 1e-9."""
    if abs(abs(angle) - math.pi / 2) > MAGIC_ANGLE_TOL:
        raise ConfigError(
            "magic: requires |2*J*k*tau| = pi/2 "
            f"(got 2*J*k*tau = {angle:.6g}); adjust tau or k, or set "
            "magic_override to run with the nominal angle replaced by the "
            "nearest +-pi/2 rotation")


def rzz_decomposition(theta: float, i: int, j: int) -> Circuit:
    """CNOT . PZ(theta) on the target . CNOT, equal to RZZ(theta) up to the
    global phase exp(i theta / 2).

    The phase gate must sit on the target: on the control it commutes with
    the CNOTs and the product degenerates to a local phase.
    """
    n = max(i, j) + 1
    return Circuit(n, (cnot(i, j), pz(j, theta), cnot(i, j)))


def magic_rzz(i: int, j: int, sign: int) -> Circuit:
    """One-CNOT realization of RZZ(sign * pi/2), up to a global phase.

    sign=+1 gives S_i S_j CZ_ij; sign=-1 is its inverse (daggered S gates).
    CZ is written as H_j CNOT_ij H_j so the CNOT cost per edge is 1 instead
    of the 2 used by :func:`rzz_decomposition`.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    phase = s_gate if sign > 0 else sdg_gate
    n = max(i, j) + 1
    return Circuit(n, (phase(i), phase(j), h_gate(j), cnot(i, j), h_gate(j)))


def trotter_step(p: IsingParams, dt: float, magic: bool = False,
                 allow_magic_mismatch: bool = False) -> Circuit:
    """Symmetric Trotter step circuit for evolution time ``dt``.

    With ``magic=True`` the ZZ layer uses :func:`magic_rzz`; the nominal ZZ
    angle 2*J*dt must then be +-pi/2 unless ``allow_magic_mismatch`` is set,
    in which case the layer realizes the +-pi/2 rotation whose sign matches
    the nominal angle (the step is then a deliberate approximation).
    """
    if not math.isfinite(dt):
        raise ValueError("dt must be finite")
    n = p.n
    gates: list[Gate] = []
    half = [rx(q, p.Bx * dt) for q in range(n)]
    gates += half
    theta = 2.0 * p.J * dt
    if magic:
        if not allow_magic_mismatch:
            check_magic_constraint(theta)
        sign = 1 if theta >= 0 else -1
        for q in range(n - 1):
            gates += magic_rzz(q, q + 1, sign).gates
    else:
        for q in range(n - 1):
            gates += rzz_decomposition(theta, q, q + 1).gates
    gates += [pz(q, 2.0 * p.Bz * dt) for q in range(n)]
    gates += half
    return Circuit(n, tuple(gates))


def weave_operators(p: IsingParams, s: WeaveSchedule,
                    allow_magic_mismatch: bool = False) -> list[Circuit]:
    """The k unitaries {U(tau), ..., U(k tau)}; the last is the cell.

    Only the cell uses the magic decomposition when the schedule asks for
    it.  Raises :class:`ConfigError` when the magic angle constraint fails
    and no override is given.
    """
    ops = [trotter_step(p, m * s.tau) for m in range(1, s.k)]
    ops.append(trotter_step(p, s.k * s.tau, magic=s.magic,
                            allow_magic_mismatch=allow_magic_mismatch))
    return ops


def weave_circuit(p: IsingParams, s: WeaveSchedule, ell: int,
                  allow_magic_mismatch: bool = False) -> Circuit:
    """Circuit approximating evolution to time ell * tau under the schedule.

    The shift U((ell mod k) tau) is applied first and the cell
    U(k tau) ** ((ell - ell mod k) / k) after it.  ell = 0 is the empty
    circuit, and ell mod k = 0 uses no shift at all.
    """
    if not 0 <= ell <= s.ell_max:
        raise ValueError(f"ell={ell} out of range 0..{s.ell_max}")
    ops = weave_operators(p, s, allow_magic_mismatch)
    n_cells, shift_steps = divmod(ell, s.k)
    shift = ops[shift_steps - 1].gates if shift_steps else ()
    return Circuit(p.n, shift + ops[-1].gates * n_cells)
