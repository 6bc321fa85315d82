"""Trotter step circuits and the k-weave scheduler.

A single step U(dt) is the symmetric splitting

    [RX half layer] [ZZ layer] [phase layer] [RX half layer]

with per-gate angles RX(Bx*dt), the ZZ rotation
RZZ(2J*dt) = exp(-i J dt Z_i Z_{i+1}) on every chain edge, and PZ(2Bz*dt)
on every site.  The ZZ rotation has no gate of its own; it is expanded into
CNOT . PZ(theta) . CNOT, so a standard step costs 2(n-1) CNOTs.  That
expansion, and the phase-gate layer, differ from the exact exponentials by
global phases, which cancel in every quantity this package measures.

A k-weave is the operator set {U(tau), U(2 tau), ..., U(k tau)}.  The last
element is the cell; evolution to time index ell applies the shift
U((ell mod k) tau) once and then the cell (ell - ell mod k)/k times,
cutting circuit depth k-fold compared to repeating U(tau).

When the cell's ZZ angle 2*J*k*tau equals +-pi/2 the cell is "magic": each
edge rotation collapses to S_i S_j CZ_ij up to a global phase, and with
CZ written as H CNOT H the ZZ layer needs only one CNOT per edge.  The
configuration checks that angle; here a magic cell always takes the
+-pi/2 turn whose sign matches 2*J*k*tau.
"""

from __future__ import annotations

import math

from .ising import IsingParams
from .qsim import Circuit, Gate, cnot, h_gate, pz, rx, s_gate, sdg_gate


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


def trotter_step(p: IsingParams, dt: float, magic: bool = False) -> Circuit:
    """Symmetric Trotter step circuit for evolution time ``dt``.

    With ``magic=True`` the ZZ layer uses :func:`magic_rzz` and always
    realizes the +-pi/2 rotation whose sign matches the nominal angle
    2*J*dt; it equals the nominal layer only when that angle is +-pi/2.
    """
    if not math.isfinite(dt):
        raise ValueError("dt must be finite")
    n = p.n
    gates: list[Gate] = []
    half = [rx(q, p.Bx * dt) for q in range(n)]
    gates += half
    theta = 2.0 * p.J * dt
    sign = 1 if theta >= 0 else -1
    for q in range(n - 1):
        edge = magic_rzz(q, q + 1, sign) if magic else rzz_decomposition(theta, q, q + 1)
        gates += edge.gates
    gates += [pz(q, 2.0 * p.Bz * dt) for q in range(n)]
    gates += half
    return Circuit(n, tuple(gates))


def weave_circuit(p: IsingParams, tau: float, k: int, ell: int,
                  magic: bool = False) -> Circuit:
    """Circuit approximating evolution to time ell * tau under the k-weave.

    The shift U((ell mod k) tau) is applied first and the cell
    U(k tau) ** ((ell - ell mod k) / k) after it.  ell = 0 is the empty
    circuit, and ell mod k = 0 uses no shift at all.  Only the shift and
    the cell are built, and only the cell takes the magic decomposition.
    """
    if ell < 0:
        raise ValueError(f"ell must be >= 0, got {ell}")
    cell = trotter_step(p, k * tau, magic=magic)
    n_cells, shift_steps = divmod(ell, k)
    shift = trotter_step(p, shift_steps * tau).gates if shift_steps else ()
    return Circuit(p.n, shift + cell.gates * n_cells)
