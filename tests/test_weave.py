import math
import re

import numpy as np
import pytest
from scipy.linalg import expm

from spinweave.ising import preset_params
from spinweave.qsim import Circuit, Gate, StateVector, apply_circuit
from spinweave.weave import magic_rzz, rzz_decomposition, trotter_step, weave_circuit

from conftest import (align_global_phase, cnot_count, dense_hamiltonian,
                      rzz_matrix)
from oracles import circuit_unitary

CHAOTIC4 = preset_params("chaotic", 4)
H_CHAOTIC4 = dense_hamiltonian(4, CHAOTIC4.J, CHAOTIC4.Bx, CHAOTIC4.Bz)


def aligned_error(candidate, reference):
    return np.max(np.abs(align_global_phase(candidate, reference) - reference))


class TestTrotterStep:
    def test_dt_zero_acts_as_identity(self, rng):
        c = trotter_step(CHAOTIC4, 0.0)
        for _ in range(3):
            amps = rng.normal(size=16) + 1j * rng.normal(size=16)
            amps /= np.linalg.norm(amps)
            out = apply_circuit(StateVector(4, amps), c)
            assert np.max(np.abs(out.amplitudes - amps)) < 1e-12

    def test_cnot_count_is_two_per_edge(self):
        assert cnot_count(trotter_step(CHAOTIC4, 0.06)) == 6
        assert cnot_count(trotter_step(preset_params("chaotic", 6), 0.06)) == 10

    def test_single_step_local_error_is_third_order(self):
        errs = []
        for dt in (0.2, 0.1, 0.05):
            u = circuit_unitary(trotter_step(CHAOTIC4, dt))
            errs.append(aligned_error(u, expm(-1j * dt * H_CHAOTIC4)))
        orders = [math.log2(errs[k] / errs[k + 1]) for k in range(2)]
        assert errs[0] > errs[1] > errs[2]
        assert min(orders) > 2.5

    def test_infinite_dt_rejected(self):
        with pytest.raises(ValueError):
            trotter_step(CHAOTIC4, float("inf"))

    @pytest.mark.parametrize("name, build", [
        ("dt", lambda t: trotter_step(CHAOTIC4, t)),
        ("tau", lambda t: weave_circuit(CHAOTIC4, t, 2, 3))], ids=["dt", "tau"])
    @pytest.mark.parametrize("value, message", [
        (True, "must be a real number, got True"),
        ("x", "must be a real number, got 'x'"),
        (None, "must be a real number, got None"),
        (0.1 + 0j, "must be a real number, got (0.1+0j)"),
        (float("nan"), "must be finite, got nan")],
        ids=["bool", "string", "none", "complex", "nan"])
    def test_time_step_that_is_not_a_finite_real_rejected(self, name, build, value,
                                                          message):
        # tau=True ran as 1.0, and 'x', None or a complex number raised a bare TypeError
        with pytest.raises(ValueError, match=re.escape(f"{name} {message}")):
            build(value)

    @pytest.mark.parametrize("magic", [False, True])
    @pytest.mark.parametrize("regime", ["integrable", "chaotic"])
    def test_rx_layers_only_where_the_field_turns(self, regime, magic):
        # Bx = 0 makes every RX(Bx dt) the identity: an integrable step
        # leaves them out and keeps its unitary; a chaotic step keeps them
        p, dt = preset_params(regime, 4), 0.06
        step = trotter_step(p, dt, magic)
        zz = (magic_rzz(q, q + 1, 1 if p.J * dt >= 0 else -1) if magic
              else rzz_decomposition(2.0 * p.J * dt, q, q + 1) for q in range(3))
        half = tuple(Gate("RX", (q,), p.Bx * dt) for q in range(4))
        full = Circuit(4, half + sum(zz, ()) + tuple(Gate("PZ", (q,), 2.0 * p.Bz * dt)
                                                      for q in range(4)) + half)
        if regime == "integrable":
            assert p.Bx == 0.0
            assert not any(g.kind == "RX" for g in step.gates)
            assert len(step) == len(full) - 8
            assert np.max(np.abs(circuit_unitary(step) - circuit_unitary(full))) < 1e-12
        else:
            assert step.gates == full.gates


class TestRzzDecomposition:
    def test_zero_angle_identity_up_to_phase(self):
        u = circuit_unitary(Circuit(2, rzz_decomposition(0.0, 0, 1)))
        assert aligned_error(u, np.eye(4)) < 1e-15

    def test_quarter_turn_matches_gate(self):
        ref = rzz_matrix(np.pi / 2)
        u = align_global_phase(circuit_unitary(Circuit(2, rzz_decomposition(np.pi / 2, 0, 1))), ref)
        assert np.max(np.abs(u - ref)) < 1e-12
        # after alignment the |11> entry carries the tabulated quarter phase
        assert u[3, 3] == pytest.approx(np.exp(-1j * np.pi / 4), abs=1e-12)
        assert u[3, 3] / u[1, 1] == pytest.approx(np.exp(-1j * np.pi / 2), abs=1e-12)

    def test_twenty_random_angles(self, rng):
        for theta in rng.uniform(-2 * np.pi, 2 * np.pi, size=20):
            u = circuit_unitary(Circuit(2, rzz_decomposition(float(theta), 0, 1)))
            assert aligned_error(u, rzz_matrix(float(theta))) < 1e-12

    def test_global_phase_factor_value(self):
        # decomposition equals exp(i theta / 2) RZZ(theta) exactly
        theta = 0.73
        u = circuit_unitary(Circuit(2, rzz_decomposition(theta, 0, 1)))
        assert np.max(np.abs(u - np.exp(1j * theta / 2)
                             * rzz_matrix(theta))) < 1e-12

    def test_same_site_rejected(self):
        with pytest.raises(ValueError):
            rzz_decomposition(0.3, 1, 1)


class TestMagicRzz:
    def test_positive_sign_matches_quarter_turn(self):
        u = circuit_unitary(Circuit(2, magic_rzz(0, 1, +1)))
        assert aligned_error(u, rzz_matrix(np.pi / 2)) < 1e-12

    def test_negative_sign_is_dagger_of_positive(self):
        plus = circuit_unitary(Circuit(2, magic_rzz(0, 1, +1)))
        minus = circuit_unitary(Circuit(2, magic_rzz(0, 1, -1)))
        assert np.max(np.abs(minus - plus.conj().T)) < 1e-12
        assert np.max(np.abs(minus
                             - circuit_unitary(Circuit(2, magic_rzz(0, 1, +1)).inverse))) < 1e-12

    def test_negative_sign_matches_negative_quarter_turn(self):
        u = circuit_unitary(Circuit(2, magic_rzz(0, 1, -1)))
        assert aligned_error(u, rzz_matrix(-np.pi / 2)) < 1e-12

    def test_single_cnot(self):
        assert cnot_count(Circuit(2, magic_rzz(0, 1, +1))) == 1

    def test_magic_step_halves_cnots(self):
        p = CHAOTIC4
        dt = np.pi / (4 * abs(p.J))  # 2 J dt = -pi/2
        standard = trotter_step(p, dt)
        magic = trotter_step(p, dt, magic=True)
        assert cnot_count(standard) == 2 * (p.n - 1)
        assert cnot_count(magic) == p.n - 1

    def test_magic_step_matches_standard_step(self):
        p = CHAOTIC4
        dt = np.pi / 4  # 2 J dt = -pi/2 for J = -1
        u_magic = circuit_unitary(trotter_step(p, dt, magic=True))
        u_std = circuit_unitary(trotter_step(p, dt))
        assert aligned_error(u_magic, u_std) < 1e-12

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            magic_rzz(0, 1, 2)

    @pytest.mark.parametrize("sign", [True, 1.0, -1.0, "1"])
    def test_non_integer_sign_rejected(self, sign):
        # True and 1.0 were taken as +1, since both are in (1, -1)
        with pytest.raises(ValueError, match=f"sign must be an integer, got {sign!r}"):
            magic_rzz(0, 1, sign)


class TestWeaveOperators:
    """The operators {U(tau), ..., U(k tau)} as weave_circuit emits them:
    U(m tau) for m < k is the shift at ell = m, and U(k tau) is the cell."""

    def test_k1_single_step(self):
        assert weave_circuit(CHAOTIC4, 0.06, 1, 1).gates == trotter_step(CHAOTIC4, 0.06).gates

    def test_k6_cell_evolution_time(self):
        # element m evolves for m tau; the cell spans 0.36
        for m in range(1, 7):
            expected = trotter_step(CHAOTIC4, m * 0.06).gates
            assert weave_circuit(CHAOTIC4, 0.06, 6, m).gates == expected

    def test_magic_cell_uses_negative_rotation_for_negative_j(self):
        tau = np.pi / 4 / 6  # k tau = pi/4, cell angle 2 J k tau = -pi/2
        def quarter_turns(c):
            return [g for g in c.gates if g.kind == "PZ" and abs(g.angle) == np.pi / 2]

        # PZ(-pi/2) on both qubits of each edge, and no PZ(+pi/2)
        assert quarter_turns(weave_circuit(CHAOTIC4, tau, 6, 6, True)) == [
            Gate("PZ", (q,), -np.pi / 2) for edge in range(3) for q in (edge, edge + 1)]
        # shifts stay standard
        assert quarter_turns(weave_circuit(CHAOTIC4, tau, 6, 1, True)) == []

    def test_magic_constraint_violation(self):
        # the angle is config's to check; off the magic angle the cell takes
        # the sign-matched quarter turn, one CNOT per edge
        cell = weave_circuit(CHAOTIC4, 0.06, 6, 6, magic=True)
        assert cnot_count(cell) == 3


class TestWeaveCircuit:
    def test_ell_zero_is_empty(self):
        assert len(weave_circuit(CHAOTIC4, 0.06, 6, 0)) == 0

    def test_k6_ell14_structure(self):
        # 14 mod 6 = 2 shift steps, then the cell twice
        c = weave_circuit(CHAOTIC4, 0.05, 6, 14)
        shift = trotter_step(CHAOTIC4, 2 * 0.05).gates
        cell = trotter_step(CHAOTIC4, 6 * 0.05).gates
        assert c.gates == shift + cell + cell

    def test_k1_is_standard_trotter_sequence(self):
        c = weave_circuit(CHAOTIC4, 0.06, 1, 5)
        assert c.gates == trotter_step(CHAOTIC4, 0.06).gates * 5

    def test_multiple_of_k_has_no_shift(self):
        c = weave_circuit(CHAOTIC4, 0.05, 6, 12)
        cell = trotter_step(CHAOTIC4, 6 * 0.05).gates
        assert c.gates == cell + cell

    @pytest.mark.parametrize("ell", [0, 7, 20, 39, 40])
    def test_builds_only_the_shift_and_the_cell(self, monkeypatch, ell):
        from spinweave import weave
        calls = []

        def counting_step(p, dt, *args, **kwargs):
            calls.append(dt)
            return trotter_step(p, dt, *args, **kwargs)

        expected = weave_circuit(CHAOTIC4, 0.05, 20, ell)
        monkeypatch.setattr(weave, "trotter_step", counting_step)
        assert weave_circuit(CHAOTIC4, 0.05, 20, ell).gates == expected.gates
        assert len(calls) == (2 if ell % 20 else 1)

    @pytest.mark.parametrize("k", [0, -2])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
            weave_circuit(CHAOTIC4, 0.05, k, 5)

    @pytest.mark.parametrize("k, ell, bad", [(True, 5, "k"), (2.0, 5, "k"),
                                             (2, 2.5, "ell"), (2, True, "ell")])
    def test_non_integer_schedule_rejected(self, k, ell, bad):
        # k=True used to run as k=1, and 2.0 or 2.5 to raise a bare TypeError
        value = {"k": k, "ell": ell}[bad]
        with pytest.raises(ValueError, match=f"{bad} must be an integer, got {value!r}"):
            weave_circuit(CHAOTIC4, 0.05, k, ell)

    @pytest.mark.parametrize("build", [lambda m: trotter_step(CHAOTIC4, 0.05, m),
                                       lambda m: weave_circuit(CHAOTIC4, 0.05, 2, 2, m)],
                             ids=["trotter_step", "weave_circuit"])
    @pytest.mark.parametrize("magic", ["no", 1, None])
    def test_magic_that_is_not_a_bool_rejected(self, build, magic):
        # 'no' and 1 built a magic cell, and None a standard one
        with pytest.raises(ValueError, match=re.escape(f"magic must be a bool, got {magic!r}")):
            build(magic)

    def test_ell_out_of_range(self):
        with pytest.raises(ValueError):
            weave_circuit(CHAOTIC4, 0.06, 6, -1)

    def test_unitary_approaches_exact_under_refinement(self):
        t = 0.72
        errs = []
        for tau in (0.06, 0.03):
            ell = round(t / tau)
            u = circuit_unitary(weave_circuit(CHAOTIC4, tau, 6, ell))
            errs.append(aligned_error(u, expm(-1j * t * H_CHAOTIC4)))
        assert errs[1] < errs[0] / 3  # at least second-order gain

    def test_cnot_count_formula(self):
        per_step = 2 * (CHAOTIC4.n - 1)
        for ell in (0, 3, 6, 11, 14, 24):
            cells, shift = divmod(ell, 6)
            steps = cells + (1 if shift else 0)
            assert cnot_count(weave_circuit(CHAOTIC4, 0.05, 6, ell)) == per_step * steps

    def test_magic_cell_cnot_count(self):
        tau = np.pi / 4 / 6
        n = CHAOTIC4.n
        # ell = 14: one standard shift (2(n-1) CNOTs) + two magic cells (n-1 each)
        c = weave_circuit(CHAOTIC4, tau, 6, 14, magic=True)
        assert cnot_count(c) == 2 * (n - 1) + 2 * (n - 1)
