import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from spinweave import noise, otoc, qsim
from spinweave.config import preset_names
from spinweave.errors import CapacityError, MalformedGateError
from spinweave.noise import NoiseModel, simulate_noisy
from spinweave.otoc import fabs_measurement_circuit
from spinweave.qsim import (BitstringDistribution, Circuit, Gate, StateVector,
                            apply_circuit, cnot, h_gate, kind_matrix,
                            measurement_distribution, pz, rx, s_gate, sdg_gate,
                            x_gate)
from spinweave.ising import preset_params
from spinweave.weave import trotter_step, weave_circuit

from conftest import (align_global_phase, cnot_count, embed_dense, load_preset,
                      rzz_matrix)
from oracles import (circuit_unitary, gatewise_amplitudes, gatewise_readout,
                     tensordot_contract)

ALL_GATES = [
    rx(0, 0.37), pz(0, -1.1), s_gate(0), sdg_gate(0), h_gate(0),
    x_gate(0), cnot(0, 1), cnot(1, 0),
]


def random_state(rng, n):
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return StateVector(n, amps / np.linalg.norm(amps))


def random_circuit(rng, n, depth):
    gates = []
    for _ in range(depth):
        kind = rng.integers(0, 6)
        q = int(rng.integers(0, n))
        if kind == 0:
            gates.append(rx(q, float(rng.uniform(-np.pi, np.pi))))
        elif kind == 1:
            gates.append(pz(q, float(rng.uniform(-np.pi, np.pi))))
        elif kind == 2:
            gates.append(h_gate(q))
        elif kind == 3:
            gates.append(s_gate(q) if rng.random() < 0.5 else sdg_gate(q))
        else:
            q2 = int(rng.integers(0, n))
            while q2 == q:
                q2 = int(rng.integers(0, n))
            if kind == 4:
                gates.append(cnot(q, q2))
            else:  # the ZZ rotation as the weave expands it
                theta = float(rng.uniform(-np.pi, np.pi))
                gates += [cnot(q, q2), pz(q2, theta), cnot(q, q2)]
    return Circuit(n, tuple(gates))


class TestGateMatrix:
    def test_pz_zero_is_identity(self):
        assert np.allclose(kind_matrix("PZ", 0.0), np.eye(2), atol=0)

    def test_rzz_quarter_turn_phases(self):
        # CNOT . PZ(theta) . CNOT is the ZZ rotation times exp(i theta / 2)
        u = circuit_unitary(Circuit(2, (cnot(0, 1), pz(1, np.pi / 2), cnot(0, 1))))
        expected = np.exp(1j * np.pi / 4) * rzz_matrix(np.pi / 2)
        assert np.allclose(u, expected, atol=1e-15)

    def test_rx_pi_is_minus_i_x(self):
        # oracle: matrix exponential of the generator
        oracle = expm(-1j * np.pi / 2 * np.array([[0, 1], [1, 0]]))
        got = kind_matrix("RX", np.pi)
        assert np.max(np.abs(got - oracle)) < 1e-12
        assert np.allclose(got, -1j * np.array([[0, 1], [1, 0]]), atol=1e-12)

    def test_s_is_quarter_phase(self):
        assert np.allclose(kind_matrix("S", None),
                           np.diag([1.0, np.exp(1j * np.pi / 2)]), atol=1e-15)

    @pytest.mark.parametrize("g", ALL_GATES, ids=lambda g: g.kind + str(g.qubits))
    def test_gate_matrices_unitary(self, g):
        u = kind_matrix(g.kind, g.angle)
        assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-12

    @pytest.mark.parametrize("theta", [-2.5, -0.3, 0.0, 0.7, 3.1])
    def test_parametric_gates_unitary(self, theta):
        for g in (rx(0, theta), pz(0, theta)):
            u = kind_matrix(g.kind, g.angle)
            assert np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) < 1e-12

    def test_missing_angle_rejected(self):
        with pytest.raises(MalformedGateError):
            Gate("RX", (0,))

    def test_spurious_angle_rejected(self):
        with pytest.raises(MalformedGateError):
            Gate("CNOT", (0, 1), 0.5)

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(MalformedGateError):
            Gate("CNOT", (1, 1))

    def test_wrong_arity_rejected(self):
        with pytest.raises(MalformedGateError):
            Gate("H", (0, 1))
        with pytest.raises(MalformedGateError):
            Gate("CNOT", (0,))

    @pytest.mark.parametrize("angle", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("kind", ["RX", "PZ"])
    def test_non_finite_angle_rejected(self, kind, angle):
        with pytest.raises(MalformedGateError,
                           match=f"{kind} angle must be finite, got {angle}"):
            Gate(kind, (0,), angle)

    @pytest.mark.parametrize("qubit", [0.7, 1.0, "1", True, np.bool_(False)],
                             ids=["0.7", "1.0", "str", "True", "numpy-bool"])
    def test_non_integer_qubit_rejected(self, qubit):
        # a qubit is checked, never converted: int(0.7) would give qubit 0
        with pytest.raises(MalformedGateError,
                           match=re.escape(f"H qubit indices must be integers, got ({qubit!r},)")):
            Gate("H", (qubit,))
        with pytest.raises(MalformedGateError, match="CNOT qubit indices must be integers"):
            Gate("CNOT", (0, qubit))

    @pytest.mark.parametrize("angle", ["0.3", True, 0.3j])
    def test_non_real_angle_rejected(self, angle):
        with pytest.raises(MalformedGateError,
                           match=re.escape(f"RX angle must be a real number, got {angle!r}")):
            Gate("RX", (0,), angle)

    @pytest.mark.parametrize("angle", [10 ** 400, -(10 ** 400)], ids=["1e400", "-1e400"])
    def test_int_angle_beyond_float_range_rejected(self, angle):
        with pytest.raises(MalformedGateError,
                           match=re.escape(f"PZ angle must be finite, got {angle}")):
            Gate("PZ", (0,), angle)

    # Python prints no int of more than 4300 digits, so each message shows
    # such an int by its sign and bit length (10**5000 has 16610 bits)
    @pytest.mark.parametrize("make, message", [
        (lambda: Gate("RX", (0,), 10 ** 5000), "RX angle must be finite, got <16610-bit int>"),
        (lambda: Gate("RX", (0,), -(10 ** 5000)),
         "RX angle must be finite, got -<16610-bit int>"),
        (lambda: Gate("H", (10 ** 5000, 1)), "H takes 1 qubit(s), got (<16610-bit int>, 1)"),
        (lambda: Gate("H", ("0", 10 ** 5000)),
         "H qubit indices must be integers, got ('0', <16610-bit int>)"),
        (lambda: Circuit(2, [Gate("X", (10 ** 5000,))]),
         "X on (<16610-bit int>,) exceeds n_qubits=2"),
    ], ids=["angle", "negative-angle", "qubit-count", "qubit-type", "circuit-width"])
    def test_int_too_long_to_print_rejected_by_its_size(self, make, message):
        with pytest.raises(MalformedGateError, match=re.escape(message)):
            make()

    def test_circuit_size_too_long_to_print_rejected_by_its_size(self):
        with pytest.raises(CapacityError, match=re.escape(
                "n_qubits must be in [1, 14], got <16610-bit int>")):
            Circuit(10 ** 5000)

    def test_numpy_integers_and_reals_accepted(self):
        g = Gate("RX", (np.int32(1),), np.float32(0.5))
        assert g == ("RX", (1,), 0.5)
        assert type(g.qubits[0]) is int and type(g.angle) is float


class TestApplyGate:
    def test_cnot_control_zero(self):
        out = apply_circuit(StateVector.zeros(2), Circuit(2, (cnot(0, 1),)))
        assert np.allclose(out.amplitudes, [1, 0, 0, 0], atol=0)

    def test_cnot_control_one(self):
        # |10> is index 2 under the qubit-0-most-significant convention
        amps = np.zeros(4, dtype=complex)
        amps[2] = 1.0
        out = apply_circuit(StateVector(2, amps), Circuit(2, (cnot(0, 1),)))
        expected = np.zeros(4)
        expected[3] = 1.0
        assert np.allclose(out.amplitudes, expected, atol=0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_dense_embedding_all_kinds(self, rng, n):
        for base in ALL_GATES:
            if len(base.qubits) == 1:
                qubits = (int(rng.integers(0, n)),)
            else:
                qubits = tuple(rng.choice(n, size=2, replace=False).astype(int))
            g = Gate(base.kind, qubits, base.angle)
            state = random_state(rng, n)
            got = apply_circuit(state, Circuit(n, (g,))).amplitudes
            oracle = embed_dense(kind_matrix(g.kind, g.angle), qubits, n) @ state.amplitudes
            assert np.max(np.abs(got - oracle)) < 1e-10

    def test_out_of_range_raises(self):
        with pytest.raises(MalformedGateError):
            apply_circuit(StateVector.zeros(2), Circuit(2, (x_gate(2),)))

    def test_norm_preserved_long_circuit(self, rng):
        state = StateVector.zeros(4)
        state = apply_circuit(state, random_circuit(rng, 4, 200))
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10


class TestApplyCircuit:
    def test_empty_circuit_unchanged(self, rng):
        state = random_state(rng, 3)
        out = apply_circuit(state, Circuit(3))
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_circuit_then_dagger_is_identity(self, rng):
        c = random_circuit(rng, 3, 40)
        state = random_state(rng, 3)
        out = apply_circuit(apply_circuit(state, c), c.inverse)
        assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-9

    def test_matches_dense_matrix_product(self, rng):
        c = random_circuit(rng, 3, 20)
        state = random_state(rng, 3)
        u = np.eye(8, dtype=complex)
        for g in c.gates:
            u = embed_dense(kind_matrix(g.kind, g.angle), g.qubits, 3) @ u
        assert np.max(np.abs(apply_circuit(state, c).amplitudes
                             - u @ state.amplitudes)) < 1e-10

    def test_split_associativity(self, rng):
        c = random_circuit(rng, 3, 30)
        state = random_state(rng, 3)
        whole = apply_circuit(state, c)
        for cut in (0, 7, 15, 30):
            first = Circuit(3, c.gates[:cut])
            second = Circuit(3, c.gates[cut:])
            split = apply_circuit(apply_circuit(state, first), second)
            assert np.max(np.abs(split.amplitudes - whole.amplitudes)) < 1e-10

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError):
            apply_circuit(StateVector.zeros(2), Circuit(3))

    def test_gate_matrix_built_once_per_distinct_gate(self):
        # every block reads the (qubits, gates) cache, which builds on a
        # miss, and a build reads the (kind, angle) cache once per gate
        cell = (h_gate(0), cnot(0, 2), rx(1, 0.3), pz(2, -0.8), cnot(2, 1), h_gate(0))
        c = Circuit(3, cell * 4 + tuple(Circuit(3, cell).inverse.gates))
        qsim.kind_matrix.cache_clear()
        qsim._block_unitary.cache_clear()
        apply_circuit(StateVector.zeros(3), c)
        info = qsim.kind_matrix.cache_info()
        assert info.misses == len({(g.kind, g.angle) for g in c.gates}) == 6
        blocks = qsim.fuse_gates(c.gates)
        built = qsim._block_unitary.cache_info()
        assert built.misses == len(set(blocks)) < built.hits + built.misses == len(blocks)


def contraction_case(seed, r, axes):
    """A random complex (2,)*r tensor and a random complex operator on ``axes``."""
    rng = np.random.default_rng(seed)
    tensor = rng.normal(size=(2,) * r) + 1j * rng.normal(size=(2,) * r)
    dim = 2 ** len(axes)
    u = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return tensor, u, axes


@st.composite
def contraction_cases(draw):
    """r = 1..8 and k = 1, 2 or 4 distinct axes in drawn order.  For about
    half the even ranks the axes are instead the row and column axes of one
    or two qubits of an (r/2)-qubit density tensor, as the density-matrix
    engine passes them."""
    r = draw(st.integers(1, 8))
    order = draw(st.permutations(range(r)))
    if r % 2 == 0 and draw(st.booleans()):
        n = r // 2
        qubits = tuple(q for q in order if q < n)[:draw(st.integers(1, min(2, n)))]
        axes = qubits + tuple(n + q for q in qubits)
    else:
        axes = tuple(order[:draw(st.sampled_from([k for k in (1, 2, 4) if k <= r]))])
    return contraction_case(draw(st.integers(0, 2 ** 32 - 1)), r, axes)


class TestContract:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(contraction_cases())
    @example(contraction_case(0, 6, (2, 0)))
    @example(contraction_case(1, 6, (1, 5)))
    @example(contraction_case(2, 8, (3, 1, 7, 5)))
    def test_property_matches_tensordot_oracle(self, case):
        tensor, u, axes = case
        got = qsim._contract(tensor, u, axes)
        assert got.shape == tensor.shape
        assert np.max(np.abs(got - tensordot_contract(tensor, u, axes))) <= 1e-12


def fusion_case(n, gates, rates=None, seed=0):
    """A circuit, a noise model with per-edge CNOT rates ``rates`` (zero by
    default) and no readout error, and a random normalized state."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    nm = NoiseModel(n, (0.0,) * (n - 1) if rates is None else rates, 0.0, 0.0)
    return Circuit(n, tuple(gates)), nm, amps / np.linalg.norm(amps)


@st.composite
def fusion_cases(draw):
    """n = 1..6 and up to 40 gates of every kind that fits, each on drawn
    distinct qubits, so CNOTs land on non-adjacent and reversed pairs."""
    n = draw(st.integers(1, 6))
    kinds = sorted(k for k, spec in qsim.GATES.items() if spec.qubits <= n)
    gates = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(kinds))
        spec = qsim.GATES[kind]
        qubits = draw(st.permutations(range(n)))[:spec.qubits]
        angle = draw(st.floats(-np.pi, np.pi)) if callable(spec.matrix) else None
        gates.append(Gate(kind, qubits, angle))
    rates = draw(st.lists(st.floats(0.0, 1.0), min_size=n - 1, max_size=n - 1))
    return fusion_case(n, gates, tuple(rates), draw(st.integers(0, 2 ** 32 - 1)))


class TestFusion:
    """``fuse_gates`` and the two engines that contract its blocks."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(fusion_cases())
    @example(fusion_case(3, ()))
    @example(fusion_case(4, (h_gate(3), cnot(3, 0), pz(0, 0.4), cnot(2, 0), rx(3, 1.1),
                             cnot(0, 3)), (0.1, 0.2, 0.3)))
    def test_property_engines_match_gatewise_oracle(self, case):
        c, nm, amps = case
        fused = apply_circuit(StateVector(c.n_qubits, amps), c).amplitudes
        assert np.max(np.abs(fused - gatewise_amplitudes(amps, c))) <= 1e-12
        noisy = simulate_noisy(c, nm).probabilities
        assert np.max(np.abs(noisy - gatewise_readout(c, nm))) <= 1e-12

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(fusion_cases())
    def test_property_blocks_are_narrow_and_keep_each_qubits_order(self, case):
        c = case[0]
        blocks = qsim.fuse_gates(c.gates)
        for qubits, gates in blocks:
            assert len(set(qubits)) == len(qubits) <= qsim.BLOCK_QUBITS
            assert all(set(g.qubits) <= set(qubits) for g in gates)
        flat = [g for _, gates in blocks for g in gates]
        assert len(flat) == len(c.gates)
        for q in range(c.n_qubits):
            assert [g for g in flat if q in g.qubits] == \
                [g for g in c.gates if q in g.qubits]

    @pytest.mark.parametrize("magic", [False, True])
    @pytest.mark.parametrize("n", [3, 4, 6, 8])
    def test_trotter_steps_fuse_into_one_block_per_edge_and_step(self, n, magic):
        step = trotter_step(preset_params("chaotic", n), 0.1, magic)
        for m in range(1, 7):
            assert len(qsim.fuse_gates(step.gates * m)) <= m * (n - 1) + 1
        if n == 4:
            assert len(qsim.fuse_gates(step.gates * 4)) == 13

    def test_block_superoperator_built_once_per_distinct_block(self):
        u = weave_circuit(preset_params("chaotic", 4), 0.06, 6, 15)
        c = fabs_measurement_circuit(u, 1, 2)
        nm = NoiseModel.default(4)
        noise._block_superoperator.cache_clear()
        simulate_noisy(c, nm)
        blocks = qsim.fuse_gates(c.gates)
        built = noise._block_superoperator.cache_info()
        assert built.misses == len(set(blocks)) < built.hits + built.misses == len(blocks)
        # fold 3 builds again only the blocks that carry CNOT noise
        simulate_noisy(c, nm, fold=3)
        noisy = {b for b in blocks if len(b[0]) == 2}
        assert len(noisy) < len(set(blocks))
        assert noise._block_superoperator.cache_info().misses == built.misses + len(noisy)


class TestLightCone:
    """``otoc._light_cone``: the gates that X_q(t) = U^dag X_q U depends on."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(fusion_cases())
    @example(fusion_case(3, ()))
    @example(fusion_case(3, (x_gate(2), pz(1, 0.3), cnot(1, 2))))
    def test_property_heisenberg_operator_is_unchanged(self, case):
        u = case[0]
        n = u.n_qubits
        full = circuit_unitary(u)
        for q in range(n):
            cone = otoc._light_cone(u, q)
            assert cone.n_qubits == n
            rest = iter(u.gates)  # an order-preserving subsequence of u's gates
            assert all(any(g == h for h in rest) for g in cone.gates)
            x = circuit_unitary(Circuit(n, (x_gate(q),)))
            v = circuit_unitary(cone)
            expected = full.conj().T @ x @ full
            assert np.max(np.abs(v.conj().T @ x @ v - expected)) < 1e-12, q

    def test_gates_off_the_cone_are_dropped(self):
        u = Circuit(3, (x_gate(2), cnot(1, 0), pz(1, 0.3), x_gate(0)))
        assert otoc._light_cone(u, 0).gates == (cnot(1, 0), x_gate(0))
        assert otoc._light_cone(u, 1).gates == (cnot(1, 0), pz(1, 0.3))
        assert otoc._light_cone(Circuit(3), 0).gates == ()


class TestDagger:
    def test_rx_angle_negated(self):
        d = Circuit(1, (rx(0, 0.4),)).inverse
        assert d.gates == (rx(0, -0.4),)

    def test_cnot_self_inverse(self):
        d = Circuit(2, (cnot(0, 1),)).inverse
        assert d.gates == (cnot(0, 1),)

    def test_s_swaps_with_sdg(self):
        assert Circuit(1, (s_gate(0),)).inverse.gates == (sdg_gate(0),)
        assert Circuit(1, (sdg_gate(0),)).inverse.gates == (s_gate(0),)
        assert Circuit(1, (s_gate(0), sdg_gate(0))).inverse.gates == \
            (s_gate(0), sdg_gate(0))

    def test_identity_on_five_random_states(self, rng):
        c = random_circuit(rng, 4, 60)
        inv = c.inverse
        for _ in range(5):
            state = random_state(rng, 4)
            out = apply_circuit(apply_circuit(state, c), inv)
            assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-9


class TestMeasurement:
    def test_zeros_point_mass(self):
        dist = measurement_distribution(StateVector.zeros(4))
        expected = np.zeros(16)
        expected[0] = 1.0
        assert np.array_equal(dist.probabilities, expected)

    def test_plus_uniform_on_one_qubit(self):
        dist = measurement_distribution(StateVector(1, np.full(2, 0.5 ** 0.5)))
        assert np.allclose(dist.probabilities, [0.5, 0.5], atol=1e-15)

    def test_post_circuit_normalization(self, rng):
        state = apply_circuit(StateVector.zeros(4), random_circuit(rng, 4, 80))
        assert abs(measurement_distribution(state).probabilities.sum() - 1.0) < 1e-10


class TestDensityMatrix:
    """The density-matrix engine, ``noise.simulate_noisy``, on its readout."""

    def test_gate_matches_pure_state(self, rng):
        c = random_circuit(rng, 3, 25)
        sv = apply_circuit(StateVector.zeros(3), c)
        dist = simulate_noisy(c, NoiseModel(3, 0.0, 0.0, 0.0))
        assert np.max(np.abs(dist.probabilities - np.abs(sv.amplitudes) ** 2)) < 1e-10

    def test_identity_kraus_unchanged(self):
        # every CNOT sits on edge 1, whose rate 0 is the identity Kraus set;
        # the noisy edge 0 is never touched
        c = Circuit(3, (h_gate(1), cnot(1, 2), rx(2, 0.4), cnot(2, 1), h_gate(2)))
        dist = simulate_noisy(c, NoiseModel(3, (0.5, 0.0), 0.0, 0.0))
        ideal = measurement_distribution(apply_circuit(StateVector.zeros(3), c))
        assert np.max(np.abs(dist.probabilities - ideal.probabilities)) < 1e-14

    def test_full_depolarizing_gives_maximally_mixed_pair(self):
        # |+>|0>|1> entangled by CNOT(0, 2), then p=1 depolarizing on the
        # pair (0, 2): the pair reads uniformly, qubit 1 stays 0
        c = Circuit(3, (h_gate(0), x_gate(2), cnot(0, 2)))
        dist = simulate_noisy(c, NoiseModel(3, (1.0, 0.0), 0.0, 0.0))
        expected = np.array([0.25, 0.25, 0.0, 0.0, 0.25, 0.25, 0.0, 0.0])
        assert np.max(np.abs(dist.probabilities - expected)) < 1e-12


class TestCircuitUnitary:
    def test_matches_columnwise_application(self, rng):
        c = random_circuit(rng, 3, 15)
        u = circuit_unitary(c)
        for col in range(8):
            amps = np.zeros(8, dtype=complex)
            amps[col] = 1.0
            out = apply_circuit(StateVector(3, amps), c)
            assert np.max(np.abs(u[:, col] - out.amplitudes)) < 1e-12

    def test_align_global_phase(self):
        a = np.array([[1j, 0], [0, 1j]])
        aligned = align_global_phase(a, np.eye(2))
        assert np.allclose(aligned, np.eye(2), atol=1e-15)


class TestCapacity:
    def test_circuit_capacity(self):
        with pytest.raises(CapacityError):
            Circuit(15)

    def test_cnot_count(self):
        c = Circuit(3, (cnot(0, 1), h_gate(2), cnot(1, 2), pz(0, 0.3)))
        assert cnot_count(c) == 2

    def test_distribution_shape_validation(self):
        with pytest.raises(ValueError):
            BitstringDistribution(2, np.array([1.0, 0.0]))


class TestGateHash:
    def test_unpickled_gate_hashes_like_a_fresh_one_in_another_process(self):
        # a string's hash differs per process, so an unpickled gate must
        # not carry the hash it was built with
        g = Gate("RX", (2,), 0.25)
        script = ("import pickle, sys; from spinweave.qsim import Gate; "
                  "g = pickle.loads(sys.stdin.buffer.read()); "
                  "fresh = Gate('RX', (2,), 0.25); "
                  "print(g == fresh, hash(g) == hash(fresh), {fresh: 1}.get(g))")
        src = str(Path(qsim.__file__).parents[1])
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            out = subprocess.run([sys.executable, "-c", script], input=pickle.dumps(g),
                                 capture_output=True, env=env, check=True)
            assert out.stdout.split() == [b"True", b"True", b"1"], seed


class TestGateTuple:
    def test_gate_is_the_tuple_of_its_fields(self):
        g = Gate("RX", [np.int64(0)], 1)
        assert isinstance(g, tuple)
        assert g == ("RX", (0,), 1.0) and hash(g) == hash(("RX", (0,), 1.0))
        assert type(g.qubits[0]) is int and type(g.angle) is float
        assert repr(Gate("RX", (0,), 0.3)) == "Gate(kind='RX', qubits=(0,), angle=0.3)"

    def test_unpickling_validates_again(self):
        # _make skips the checks, and unpickling runs them again in __new__
        unchecked = Gate._make(("RX", (0,), None))
        with pytest.raises(MalformedGateError, match="RX requires an angle"):
            pickle.loads(pickle.dumps(unchecked))
        g = Gate("CNOT", (1, 0))
        assert pickle.loads(pickle.dumps(g)) == g


class TestGateSet:
    @pytest.mark.parametrize("kind", sorted(qsim.GATES))
    def test_inverse_times_gate_is_identity(self, kind):
        spec = qsim.GATES[kind]
        g = Gate(kind, tuple(range(spec.qubits)), 0.7 if callable(spec.matrix) else None)
        u, inv = kind_matrix(g.kind, g.angle), qsim.inverse_gate(g)
        assert np.max(np.abs(kind_matrix(inv.kind, inv.angle) @ u
                             - np.eye(len(u)))) < 1e-12
        assert not u.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            u[0, 0] = 2.0

    def test_gate_kinds_are_what_the_circuits_emit(self):
        # every bundled measured preset at ell = k + 1: one shift step, then
        # its plain or magic cell, inside the |F| protocol circuit
        emitted, magic = set(), set()
        for cfg in map(load_preset, preset_names()):
            if cfg.pipeline == "exact":
                continue
            u = weave_circuit(cfg.params, cfg.tau, cfg.k, cfg.k + 1, cfg.magic)
            emitted |= {g.kind for g in fabs_measurement_circuit(u, 1, 2).gates}
            magic.add(cfg.magic)
        assert magic == {False, True}
        assert emitted == set(qsim.GATES)
