import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinweave.errors import CapacityError
from spinweave.ising import preset_params
from spinweave.noise import (MAX_SHOTS, NoiseModel, build_confusion_matrix,
                             empirical_distribution, sample_counts, simulate_noisy)
from spinweave.otoc import fabs_measurement_circuit
from spinweave.qsim import (GATES, BitstringDistribution, Circuit, Gate,
                            StateVector, apply_circuit, fuse_gates, kind_matrix,
                            measurement_distribution)
from spinweave.weave import weave_circuit

from conftest import I2, X2, Y2, Z2, cnot_count, embed_dense
from oracles import circuit_unitary, fold_cnots


def chaotic_fabs_circuit(ell=12, j=2):
    p = preset_params("chaotic", 4)
    u = weave_circuit(p, 0.06, 6, ell)
    return fabs_measurement_circuit(u, 1, j)


def depolarizing_kraus(p):
    """Kraus set of the two-qubit depolarizing channel of strength ``p``:
    the identity with weight 1 - 15p/16 and each of the 15 non-identity
    Pauli pairs with weight p/16, so rho -> (1 - p) rho + p I/4."""
    paulis = (I2, X2, Y2, Z2)
    return [np.sqrt(1 - 15 * p / 16 if a == b == 0 else p / 16)
            * np.kron(paulis[a], paulis[b]) for a in range(4) for b in range(4)]


def kraus_oracle(c, nm):
    """Readout distribution from dense matrices alone: rho -> E rho E^dag
    with E the gate embedded by bit bookkeeping, then, after every CNOT, the
    Kraus sum of depolarizing_kraus on its pair at the rate of the edge
    min(pair)."""
    n = c.n_qubits
    rho = np.zeros((2 ** n, 2 ** n), dtype=complex)
    rho[0, 0] = 1.0
    for g in c.gates:
        e = embed_dense(kind_matrix(g.kind, g.angle), g.qubits, n)
        rho = e @ rho @ e.conj().T
        if g.kind == "CNOT":
            kraus = [embed_dense(k, g.qubits, n)
                     for k in depolarizing_kraus(nm.cnot_error[min(g.qubits)])]
            rho = sum(k @ rho @ k.conj().T for k in kraus)
    return build_confusion_matrix(nm) @ np.diag(rho).real


@st.composite
def noisy_circuits(draw):
    """A random 2- or 3-qubit circuit over every gate kind, with random
    per-edge CNOT rates and per-qubit readout errors."""
    n = draw(st.integers(2, 3))
    qubit = st.integers(0, n - 1)
    angle = st.floats(-np.pi, np.pi)
    gates = []
    for _ in range(draw(st.integers(1, 12))):
        q, theta = draw(qubit), draw(angle)
        # a CNOT acts on a chain edge, either way round
        other = draw(st.sampled_from([r for r in (q - 1, q + 1) if 0 <= r < n]))
        kind = draw(st.sampled_from(sorted(GATES)))
        spec = GATES[kind]
        gates.append(Gate(kind, (q,) if spec.qubits == 1 else (q, other),
                          theta if callable(spec.matrix) else None))
    rate = st.floats(0.0, 1.0)
    nm = NoiseModel(n, draw(st.lists(rate, min_size=n - 1, max_size=n - 1)),
                    draw(st.lists(rate, min_size=n, max_size=n)),
                    draw(st.lists(rate, min_size=n, max_size=n)))
    return Circuit(n, tuple(gates)), nm


class TestNoiseModel:
    def test_defaults_from_calibration_table(self):
        nm = NoiseModel.default(4)
        assert nm.cnot_error == (7.67e-3, 7.00e-3, 7.68e-3)
        assert nm.t1_given_0 == (0.043, 0.015, 0.017, 0.017)
        assert nm.t0_given_1 == nm.t1_given_0  # symmetric split of epsilon

    def test_first_edge_default(self):
        assert NoiseModel.default(4).cnot_error[0] == pytest.approx(7.67e-3)

    def test_scalar_broadcast(self):
        nm = NoiseModel(4, 0.01, 0.0, 0.0)
        assert nm.cnot_error == (0.01, 0.01, 0.01)

    def test_bad_lengths_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(4, (0.01, 0.01), 0.0, 0.0)
        with pytest.raises(ValueError):
            NoiseModel(4, 0.01, (0.0, 0.0), 0.0)

    def test_probability_range_enforced(self):
        with pytest.raises(ValueError):
            NoiseModel(4, 1.5, 0.0, 0.0)

    @pytest.mark.parametrize("build, message", [
        (lambda: NoiseModel(4.0, 0.01, 0.01, 0.01), "n_qubits must be an integer, got 4.0"),
        (lambda: NoiseModel(True, 0.01, 0.01, 0.01), "n_qubits must be an integer, got True"),
        (lambda: NoiseModel.default(True), "n_qubits must be an integer, got True"),
        (lambda: NoiseModel(0, 0.01, 0.01, 0.01), "n_qubits must be >= 1, got 0")],
        ids=["float", "bool", "default-bool", "zero"])
    def test_bad_width_rejected(self, build, message):
        # 4.0 raised a bare TypeError, True built a 1-qubit model, and 0
        # asked for -1 CNOT rates
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize("build", [
        lambda: NoiseModel.default(4.0),
        lambda: NoiseModel.symmetric_spam(4.0, 0.01, 0.01)],
        ids=["default", "symmetric_spam"])
    def test_classmethods_check_width_first(self, build):
        # both raised a bare TypeError before __post_init__ saw the width
        with pytest.raises(ValueError, match="n_qubits must be an integer, got 4.0"):
            build()


class TestConfusionMatrix:
    def test_identity_for_ideal_model(self):
        assert np.array_equal(build_confusion_matrix(NoiseModel(3, 0.0, 0.0, 0.0)), np.eye(8))

    def test_single_qubit_entries(self):
        nm = NoiseModel(3, 0.0, (0.01, 0.0, 0.0), (0.02, 0.0, 0.0))
        assert np.allclose(nm.qubit_confusion(0),
                           [[0.99, 0.02], [0.01, 0.98]], atol=1e-15)

    def test_all_zeros_diagonal_entry(self):
        nm = NoiseModel.default(4)
        t = build_confusion_matrix(nm)
        expected = np.prod([1 - e for e in nm.t1_given_0])
        assert t[0, 0] == pytest.approx(expected, abs=1e-15)

    def test_columns_sum_to_one(self):
        t = build_confusion_matrix(NoiseModel.default(4))
        assert np.max(np.abs(t.sum(axis=0) - 1.0)) < 1e-12

    def test_built_once_per_model_and_read_only(self):
        t = build_confusion_matrix(NoiseModel.default(4))
        assert build_confusion_matrix(NoiseModel.default(4)) is t
        assert not t.flags.writeable
        with pytest.raises(ValueError):
            t[0, 0] = 1.0

    def test_tensor_structure_against_kron_oracle(self):
        nm = NoiseModel(3, 0.0, (0.04, 0.01, 0.02), (0.03, 0.05, 0.0))
        oracle = np.kron(np.kron(nm.qubit_confusion(0), nm.qubit_confusion(1)),
                         nm.qubit_confusion(2))
        assert np.array_equal(build_confusion_matrix(nm), oracle)


class TestDepolarizing:
    def test_kraus_completeness(self):
        for p in (0.0, 0.1, 1.0):
            ops = depolarizing_kraus(p)
            total = sum(k.conj().T @ k for k in ops)
            assert np.max(np.abs(total - np.eye(4))) < 1e-12

    def test_superoperator_matches_kraus_channel_after_each_cnot(self):
        # reversed (1, 0) and (2, 1) pairs take the rate of edge min(pair);
        # the closing rotations turn coherences into populations
        c = Circuit(3, (Gate("H", (0,)), Gate("RX", (1,), 0.4), Gate("CNOT", (1, 0)),
                        Gate("RX", (2,), 0.7), Gate("CNOT", (2, 1)), Gate("H", (2,)),
                        Gate("CNOT", (0, 1)), Gate("RX", (0,), 1.1), Gate("RX", (1,), -0.8),
                        Gate("RX", (2,), 0.3)))
        nm = NoiseModel(3, (0.23, 0.11), 0.0, 0.0)
        oracle = kraus_oracle(c, nm)
        assert np.max(np.abs(simulate_noisy(c, nm).probabilities - oracle)) < 1e-12
        # and the rates matter: the same circuit with the edges swapped differs
        swapped = simulate_noisy(c, NoiseModel(3, (0.11, 0.23), 0.0, 0.0))
        assert np.max(np.abs(swapped.probabilities - oracle)) > 1e-3

    def test_each_cnot_rate_gets_its_own_superoperator(self):
        # one process, one gate list, two rates: a superoperator cached
        # without its rate would hand the first rate's channel to the second
        c = Circuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1)), Gate("RX", (1,), 0.9),
                        Gate("CNOT", (1, 0)), Gate("H", (1,))))
        dists = []
        for p in (0.05, 0.4):
            nm = NoiseModel(2, p, 0.0, 0.0)
            dists.append(simulate_noisy(c, nm).probabilities)
            assert np.max(np.abs(dists[-1] - kraus_oracle(c, nm))) < 1e-12
        assert np.max(np.abs(dists[0] - dists[1])) > 1e-2

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_one_block_collects_the_channels_of_its_cnots(self, m):
        # m CNOTs of one pair fuse into one block, whose single depolarizing
        # step has strength 1 - (1 - p)^m; the oracle applies one per CNOT
        p = 0.3
        base = Circuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1)), Gate("RX", (1,), 0.9),
                           Gate("CNOT", (1, 0)), Gate("H", (1,))))
        c = fold_cnots(base, m)
        assert len(fuse_gates(c.gates)) == 1
        nm = NoiseModel(2, p, 0.0, 0.0)
        assert np.max(np.abs(simulate_noisy(c, nm).probabilities
                             - kraus_oracle(c, nm))) < 1e-12
        # the engine's fold m is the m-folded circuit, bit for bit
        assert np.array_equal(simulate_noisy(base, nm, fold=m).probabilities,
                              simulate_noisy(c, nm).probabilities)
        q = 1.0 - (1.0 - p) ** m
        lone = simulate_noisy(fold_cnots(Circuit(2, (Gate("CNOT", (0, 1)),)), m), nm)
        assert lone.probabilities[0] == pytest.approx(1 - q + q / 4, abs=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(noisy_circuits(), st.sampled_from((1, 3, 5)))
    def test_random_circuits_match_kraus_channel(self, case, fold):
        c, nm = case
        oracle = kraus_oracle(fold_cnots(c, fold), nm)
        assert np.max(np.abs(simulate_noisy(c, nm, fold).probabilities
                             - oracle)) < 1e-12


class TestSimulateNoisy:
    def test_zero_noise_matches_pure_state(self):
        c = chaotic_fabs_circuit(ell=6)
        ideal = measurement_distribution(apply_circuit(StateVector.zeros(4), c))
        noisy = simulate_noisy(c, NoiseModel(4, 0.0, 0.0, 0.0))
        assert np.max(np.abs(noisy.probabilities - ideal.probabilities)) < 1e-10

    def test_single_cnot_hand_value(self):
        # CNOT on |00> leaves the state; depolarizing mixes in I/4, so the
        # all-zeros probability is (1 - p) + p/4
        p = 0.1
        c = Circuit(2, (Gate("CNOT", (0, 1)),))
        dist = simulate_noisy(c, NoiseModel(2, p, 0.0, 0.0))
        assert dist.probabilities[0] == pytest.approx(1 - p + p / 4, abs=1e-12)

    def test_single_cnot_matches_dense_channel_oracle(self):
        p = 0.37
        c = Circuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1))))
        nm = NoiseModel(2, p, 0.0, 0.0)
        oracle = kraus_oracle(c, nm)
        dist = simulate_noisy(c, nm)
        assert np.max(np.abs(dist.probabilities - oracle)) < 1e-12

    def test_valid_distribution_any_strength(self):
        c = chaotic_fabs_circuit(ell=8)
        for p in (0.0, 0.3, 1.0):
            nm = NoiseModel(4, p, 0.02, 0.02)
            dist = simulate_noisy(c, nm)
            assert np.all(dist.probabilities >= 0)
            assert abs(dist.probabilities.sum() - 1.0) < 1e-9

    def test_readout_confusion_applied(self):
        nm = NoiseModel(2, 0.0, (0.25, 0.0), (0.0, 0.0))
        dist = simulate_noisy(Circuit(2), nm)
        # |00> misread as |10> with probability 0.25
        assert dist.probabilities[0] == pytest.approx(0.75)
        assert dist.probabilities[2] == pytest.approx(0.25)

    @pytest.mark.parametrize("pair", [(0, 2), (2, 0), (3, 1)])
    @pytest.mark.parametrize("rate", [0.0, 0.1])
    def test_cnot_off_a_chain_edge_rejected(self, pair, rate):
        # CNOT(0, 2) used to take the rate of edge (0, 1) without a word
        c = Circuit(4, (Gate("H", (0,)), Gate("CNOT", (0, 1)), Gate("CNOT", pair)))
        message = f"c must put each CNOT on a chain edge (q, q + 1), got CNOT on {pair}"
        with pytest.raises(ValueError, match=re.escape(message)):
            simulate_noisy(c, NoiseModel(4, rate, 0.0, 0.0))

    def test_noise_model_of_another_width_rejected(self):
        with pytest.raises(ValueError, match="noise model and circuit qubit counts differ"):
            simulate_noisy(Circuit(3), NoiseModel.default(4))

    def test_capacity(self):
        with pytest.raises(CapacityError):
            simulate_noisy(Circuit(9), NoiseModel(9, 0.0, 0.0, 0.0))


class TestFolding:
    def test_m1_unchanged(self):
        c = chaotic_fabs_circuit(ell=6)
        assert fold_cnots(c, 1).gates == c.gates

    def test_m3_triples_cnots_same_unitary(self):
        c = chaotic_fabs_circuit(ell=6)
        folded = fold_cnots(c, 3)
        assert cnot_count(folded) == 3 * cnot_count(c)
        assert np.max(np.abs(circuit_unitary(folded) - circuit_unitary(c))) < 1e-12

    def test_even_m_rejected(self):
        c = Circuit(2, (Gate("CNOT", (0, 1)),))
        with pytest.raises(ValueError):
            fold_cnots(c, 2)
        for fold in (0, 2, -1):
            with pytest.raises(ValueError, match="fold"):
                simulate_noisy(c, NoiseModel(2, 0.1, 0.0, 0.0), fold)

    def test_bool_fold_rejected(self):
        # True used to run as fold 1
        c = Circuit(2, (Gate("CNOT", (0, 1)),))
        with pytest.raises(ValueError, match="fold must be odd and positive, got True"):
            simulate_noisy(c, NoiseModel(2, 0.1, 0.0, 0.0), fold=True)

    def test_numpy_integer_fold_accepted(self):
        # np.int64(3) was rejected as "fold must be odd and positive"
        c = chaotic_fabs_circuit(ell=12)
        nm = NoiseModel.default(4)
        folded = simulate_noisy(c, nm, np.int64(3)).probabilities
        assert folded.tobytes() == simulate_noisy(c, nm, 3).probabilities.tobytes()

    @pytest.mark.parametrize("fold", [3.0, 0, 4, np.int64(2)])
    def test_bad_fold_message(self, fold):
        c = Circuit(2, (Gate("CNOT", (0, 1)),))
        message = f"fold must be odd and positive, got {fold!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            simulate_noisy(c, NoiseModel(2, 0.1, 0.0, 0.0), fold)

    def test_folding_lowers_all_zeros_probability(self):
        # more noisy CNOTs push the return probability down
        c = chaotic_fabs_circuit(ell=12)
        nm = NoiseModel.default(4)
        p1 = simulate_noisy(c, nm).probabilities[0]
        p3 = simulate_noisy(c, nm, fold=3).probabilities[0]
        assert p3 <= p1


class TestSampling:
    def test_point_mass(self):
        d = BitstringDistribution(2, np.array([0.0, 1.0, 0.0, 0.0]))
        counts = sample_counts(d, 100, 7)
        assert counts.tolist() == [0, 100, 0, 0]
        assert counts.sum() == 100

    def test_binomial_five_sigma(self):
        d = BitstringDistribution(1, np.array([0.5, 0.5]))
        counts = sample_counts(d, 8192, 123)
        sigma = np.sqrt(8192 * 0.25)
        for x in (0, 1):
            assert abs(counts[x] - 4096) < 5 * sigma

    def test_same_seed_is_deterministic(self):
        d = BitstringDistribution(2, np.array([0.4, 0.3, 0.2, 0.1]))
        assert np.array_equal(sample_counts(d, 999, 42), sample_counts(d, 999, 42))

    def test_empirical_distribution_roundtrip(self):
        d = BitstringDistribution(2, np.array([0.4, 0.3, 0.2, 0.1]))
        emp = empirical_distribution(sample_counts(d, 10_000, 3))
        assert emp.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(emp.probabilities - d.probabilities)) < 0.05

    def test_empirical_distribution_of_no_shots_rejected(self):
        # the counts used to divide by 0 into NaN probabilities
        with pytest.raises(ValueError, match="counts must hold at least one shot, got 0"):
            empirical_distribution(np.zeros(4, dtype=int))

    @pytest.mark.parametrize("counts, message", [
        (np.array([3, -1]), "counts must be non-negative, got -1"),
        (np.ones((2, 2), dtype=int), "counts must be a vector, got shape (2, 2)"),
        (np.array([1.0, 3.0]), "counts must hold integers, got dtype float64"),
        (np.array([1, 2, 3]), "counts must have a power-of-two length, got 3")],
        ids=["negative", "matrix", "floats", "three_outcomes"])
    def test_empirical_distribution_rejects_what_is_not_counts(self, counts, message):
        # [3, -1] came back as the probabilities [1.5, -0.5]
        with pytest.raises(ValueError, match=re.escape(message)):
            empirical_distribution(counts)

    def test_shots_validation(self):
        d = BitstringDistribution(1, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            sample_counts(d, 0, 1)

    def test_shots_past_the_int64_limit_rejected(self):
        # 2**63 shots died inside numpy with a bare OverflowError
        d = BitstringDistribution(1, np.array([0.5, 0.5]))
        assert sample_counts(d, MAX_SHOTS, 1).sum() == MAX_SHOTS
        with pytest.raises(ValueError, match=re.escape(
                f"shots must be <= {MAX_SHOTS}, got {MAX_SHOTS + 1}")):
            sample_counts(d, MAX_SHOTS + 1, 1)

    @pytest.mark.parametrize("shots", [True, 10.5, 10.0, "10"])
    def test_non_integer_shots_rejected(self, shots):
        # True used to draw 1 shot and 10.5 to draw 10
        d = BitstringDistribution(1, np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match=f"shots must be an integer, got {shots!r}"):
            sample_counts(d, shots, 1)

    @pytest.mark.parametrize("probs", [[0.0, 0.0], [-0.1, 0.0], [np.nan, 1.0],
                                       [np.inf, 0.0]],
                             ids=["zero", "negative", "nan", "inf"])
    def test_distribution_without_finite_positive_mass_rejected(self, probs):
        # a zero mass used to warn of 0/0, then fail inside numpy's multinomial
        d = BitstringDistribution(1, np.array(probs))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="d must hold a positive, finite"):
                sample_counts(d, 10, 1)
