import numpy as np
import pytest

from spinweave.errors import CapacityError
from spinweave.ising import preset_params
from spinweave.noise import (NoiseModel, build_confusion_matrix,
                             depolarizing_kraus, empirical_distribution,
                             fold_cnots, sample_counts, simulate_noisy)
from spinweave.otoc import fabs_measurement_circuit
from spinweave.qsim import (BitstringDistribution, Circuit, DensityMatrix,
                            StateVector, apply_channel, apply_circuit,
                            apply_circuit_dm, circuit_unitary, cnot,
                            cnot_count, h_gate, measurement_distribution, rx)
from spinweave.weave import WeaveSchedule, weave_circuit


def chaotic_fabs_circuit(ell=12, j=2):
    p = preset_params("chaotic", 4)
    u = weave_circuit(p, WeaveSchedule(0.06, 6, 24), ell)
    return fabs_measurement_circuit(u, 1, j)


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


class TestConfusionMatrix:
    def test_identity_for_ideal_model(self):
        assert np.array_equal(build_confusion_matrix(NoiseModel.ideal(3)), np.eye(8))

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

    def test_tensor_structure_against_kron_oracle(self):
        nm = NoiseModel(3, 0.0, (0.04, 0.01, 0.02), (0.03, 0.05, 0.0))
        oracle = np.kron(np.kron(nm.qubit_confusion(0), nm.qubit_confusion(1)),
                         nm.qubit_confusion(2))
        assert np.array_equal(build_confusion_matrix(nm), oracle)


class TestDepolarizing:
    def test_kraus_completeness(self):
        for p in (0.0, 0.1, 1.0):
            ops = depolarizing_kraus(p, 2)
            total = sum(k.conj().T @ k for k in ops)
            assert np.max(np.abs(total - np.eye(4))) < 1e-12

    def test_closed_form_matches_kraus_channel(self, rng):
        # the fast in-place update must agree with the generic Kraus route
        c = Circuit(3, (h_gate(0), cnot(0, 1), rx(2, 0.7), cnot(1, 2)))
        dm = apply_circuit_dm(DensityMatrix.zeros(3), c)
        p = 0.23
        via_kraus = apply_channel(dm, depolarizing_kraus(p, 2), (0, 2))
        from spinweave.noise import _depolarize_pair
        t = _depolarize_pair(dm.entries.reshape((2,) * 6), 0, 2, 3, p)
        assert np.max(np.abs(t.reshape(8, 8) - via_kraus.entries)) < 1e-12


class TestSimulateNoisy:
    def test_zero_noise_matches_pure_state(self):
        c = chaotic_fabs_circuit(ell=6)
        ideal = measurement_distribution(apply_circuit(StateVector.zeros(4), c))
        noisy = simulate_noisy(c, NoiseModel.ideal(4))
        assert np.max(np.abs(noisy.probabilities - ideal.probabilities)) < 1e-10

    def test_single_cnot_hand_value(self):
        # CNOT on |00> leaves the state; depolarizing mixes in I/4, so the
        # all-zeros probability is (1 - p) + p/4
        p = 0.1
        c = Circuit(2, (cnot(0, 1),))
        dist = simulate_noisy(c, NoiseModel(2, p, 0.0, 0.0))
        assert dist.probabilities[0] == pytest.approx(1 - p + p / 4, abs=1e-12)

    def test_single_cnot_matches_dense_channel_oracle(self):
        p = 0.37
        c = Circuit(2, (h_gate(0), cnot(0, 1)))
        dm = apply_circuit_dm(DensityMatrix.zeros(2), c)
        oracle = apply_channel(dm, depolarizing_kraus(p, 2), (0, 1))
        dist = simulate_noisy(c, NoiseModel(2, p, 0.0, 0.0))
        assert np.max(np.abs(dist.probabilities - np.diag(oracle.entries).real)) < 1e-12

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

    def test_capacity(self):
        with pytest.raises(CapacityError):
            simulate_noisy(Circuit(9), NoiseModel.ideal(9))


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
        with pytest.raises(ValueError):
            fold_cnots(Circuit(2, (cnot(0, 1),)), 2)

    def test_folding_lowers_all_zeros_probability(self):
        # more noisy CNOTs push the return probability down
        c = chaotic_fabs_circuit(ell=12)
        nm = NoiseModel.default(4)
        p1 = simulate_noisy(c, nm).probabilities[0]
        p3 = simulate_noisy(fold_cnots(c, 3), nm).probabilities[0]
        assert p3 <= p1


class TestSampling:
    def test_point_mass(self):
        d = BitstringDistribution(2, np.array([0.0, 1.0, 0.0, 0.0]))
        sr = sample_counts(d, 100, 7)
        assert sr.counts == {"01": 100}
        assert sum(sr.counts.values()) == sr.shots

    def test_binomial_five_sigma(self):
        d = BitstringDistribution(1, np.array([0.5, 0.5]))
        sr = sample_counts(d, 8192, 123)
        sigma = np.sqrt(8192 * 0.25)
        for bits in ("0", "1"):
            assert abs(sr.counts[bits] - 4096) < 5 * sigma

    def test_same_seed_is_deterministic(self):
        d = BitstringDistribution(2, np.array([0.4, 0.3, 0.2, 0.1]))
        assert sample_counts(d, 999, 42).counts == sample_counts(d, 999, 42).counts

    def test_empirical_distribution_roundtrip(self):
        d = BitstringDistribution(2, np.array([0.4, 0.3, 0.2, 0.1]))
        sr = sample_counts(d, 10_000, 3)
        emp = empirical_distribution(sr)
        assert emp.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(emp.probabilities - d.probabilities)) < 0.05

    def test_shots_validation(self):
        d = BitstringDistribution(1, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            sample_counts(d, 0, 1)

