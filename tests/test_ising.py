import re

import numpy as np
import pytest
from scipy.linalg import expm

from spinweave.errors import CapacityError
from spinweave.ising import (ExactEvolution, IsingParams, build_hamiltonian,
                             classical_energies, classical_otoc_phase,
                             preset_params)
from spinweave.otoc import otoc_exact

from conftest import dense_hamiltonian, dense_otoc


def classical_otoc(p, j, t):
    """The closed-form classical OTOC for i = 1, a pure phase."""
    return complex(np.exp(1j * classical_otoc_phase(p, j, t)))


def classical_params(p):
    """The same chain with the transverse field off: its exact OTOC is the
    classical-Hamiltonian OTOC, for any (i, j)."""
    return IsingParams(p.n, p.J, 0.0, p.Bz)


class TestPresets:
    def test_coupling_values(self):
        integrable = preset_params("integrable", 4)
        assert (integrable.J, integrable.Bx, integrable.Bz) == (-1.0, 0.0, 1.0)
        chaotic = preset_params("chaotic", 4)
        assert (chaotic.J, chaotic.Bx, chaotic.Bz) == (-1.0, 0.7, 1.5)

    def test_unknown_regime(self):
        with pytest.raises(ValueError):
            preset_params("thermal", 4)

    def test_chain_too_short(self):
        with pytest.raises(ValueError):
            IsingParams(2, -1.0, 0.0, 1.0)

    @pytest.mark.parametrize("n", [4.0, True, "4"])
    def test_non_integer_chain_size_rejected(self, n):
        # checked, never converted: 4.0 used to fail later inside numpy
        with pytest.raises(ValueError, match=f"n must be an integer, got {n!r}"):
            IsingParams(n, -1.0, 0.7, 1.5)

    @pytest.mark.parametrize("field", ["J", "Bx", "Bz"])
    @pytest.mark.parametrize("value, problem", [
        (True, "must be a real number, got True"),
        ("x", "must be a real number, got 'x'"),
        (None, "must be a real number, got None"),
        (float("nan"), "must be finite, got nan"),
        (float("inf"), "must be finite, got inf"),
        (10 ** 400, "must be finite, got 1000"),
        ([10 ** 5000], "must be a real number, got <list>")],
        ids=["bool", "str", "none", "nan", "inf", "int-past-float", "list-past-digit-limit"])
    def test_bad_coupling_rejected(self, field, value, problem):
        # checked, never converted: True was held as J, "x" failed later in
        # the weave with a bare TypeError, and nan was accepted
        couplings = {"J": -1.0, "Bx": 0.7, "Bz": 1.5, field: value}
        with pytest.raises(ValueError, match=f"{field} {problem}"):
            IsingParams(4, **couplings)


class TestHamiltonian:
    def test_pure_coupling_zero_state_energy(self):
        # two bonds, all spins up: each Z_i Z_{i+1} contributes +1
        h = build_hamiltonian(IsingParams(3, 1.0, 0.0, 0.0))
        assert h[0, 0] == pytest.approx(2.0, abs=0)

    def test_bx_zero_is_diagonal(self):
        h = build_hamiltonian(preset_params("integrable", 4))
        assert np.array_equal(h, np.diag(np.diag(h)))

    def test_chaotic_zero_state_energy(self):
        # (n-1) J + n Bz = -3 + 6
        h = build_hamiltonian(preset_params("chaotic", 4))
        assert h[0, 0] == pytest.approx(3.0, abs=1e-14)

    def test_single_excitation_energies(self):
        p = preset_params("integrable", 4)
        hc = np.diag(classical_energies(p))
        e0 = (p.n - 1) * p.J + p.n * p.Bz
        # edge flip |1000> (index 8) loses one bond, bulk flip |0100>
        # (index 4) loses two
        assert hc[8, 8] == pytest.approx(e0 - 2 * p.J - 2 * p.Bz, abs=1e-14)
        assert hc[4, 4] == pytest.approx(e0 - 4 * p.J - 2 * p.Bz, abs=1e-14)

    def test_classical_equals_full_with_bx_zero(self):
        p = preset_params("chaotic", 5)
        p0 = IsingParams(p.n, p.J, 0.0, p.Bz)
        assert np.array_equal(np.diag(classical_energies(p)), build_hamiltonian(p0))

    def test_full_is_classical_plus_transverse(self):
        p = preset_params("chaotic", 4)
        diff = build_hamiltonian(p) - np.diag(classical_energies(p))
        oracle = dense_hamiltonian(4, 0.0, p.Bx, 0.0)
        assert np.max(np.abs(diff - oracle.real)) < 1e-14

    def test_matches_kron_oracle(self):
        p = preset_params("chaotic", 5)
        oracle = dense_hamiltonian(5, p.J, p.Bx, p.Bz)
        assert np.max(np.abs(build_hamiltonian(p) - oracle.real)) < 1e-12

    def test_symmetric(self):
        h = build_hamiltonian(preset_params("chaotic", 4))
        assert np.array_equal(h, h.T)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            build_hamiltonian(IsingParams(15, -1.0, 0.7, 1.5))


class TestExactUnitary:
    def test_t0_is_identity(self):
        ev = ExactEvolution(build_hamiltonian(preset_params("chaotic", 3)))
        assert np.max(np.abs(ev.unitary(0.0) - np.eye(8))) < 1e-12

    def test_forward_backward_cancel(self):
        ev = ExactEvolution(build_hamiltonian(preset_params("chaotic", 3)))
        u = ev.unitary(0.83) @ ev.unitary(-0.83)
        assert np.max(np.abs(u - np.eye(8))) < 1e-9

    def test_group_property(self):
        h = build_hamiltonian(preset_params("chaotic", 3))
        ev = ExactEvolution(h)
        lhs = ev.unitary(0.31) @ ev.unitary(0.52)
        assert np.max(np.abs(lhs - ev.unitary(0.83))) < 1e-9

    def test_two_site_zz_diagonal(self):
        h = np.diag([1.0, -1.0, -1.0, 1.0])
        t = 0.47
        expected = np.diag(np.exp(-1j * t * np.array([1, -1, -1, 1])))
        assert np.max(np.abs(ExactEvolution(h).unitary(t) - expected)) < 1e-12

    def test_unitarity(self):
        h = build_hamiltonian(preset_params("chaotic", 4))
        u = ExactEvolution(h).unitary(1.7)
        assert np.max(np.abs(u.conj().T @ u - np.eye(16))) < 1e-9

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            ExactEvolution(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_complex_matrix_rejected(self):
        # the eigenbasis kernel relies on real eigenvectors
        with pytest.raises(ValueError, match="real symmetric"):
            ExactEvolution(np.array([[0.0, -1j], [1j, 0.0]]))

    def test_non_square_matrix_rejected(self):
        # numpy failed to broadcast h - h.T
        with pytest.raises(ValueError,
                           match=re.escape("h must be a square matrix, got shape (2, 3)")):
            ExactEvolution(np.ones((2, 3)))

    @pytest.mark.parametrize("h, message", [
        (np.zeros((0, 0)), "h must hold at least one entry, got shape (0, 0)"),
        (np.array([["1", "0"], ["0", "1"]]), "h must hold real numbers, got dtype <U1"),
        (np.eye(2, dtype=bool), "h must hold real numbers, got dtype bool"),
        (np.eye(2, dtype=int).astype(object), "h must hold real numbers, got dtype object")],
        ids=["empty", "strings", "bools", "objects"])
    def test_empty_or_non_numeric_matrix_rejected(self, h, message):
        # numpy failed with its own message, or took bools as numbers
        with pytest.raises(ValueError, match=re.escape(message)):
            ExactEvolution(h)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, entry):
        # NaN passed the symmetry test and came back as a NaN eigenvalue
        with pytest.raises(ValueError, match="h must hold only finite entries"):
            ExactEvolution(np.array([[entry, 0.0], [0.0, 1.0]]))

    def test_size_not_a_power_of_two_rejected(self):
        # a 3-row h passed, and flip_matrix(1) raised numpy's IndexError
        with pytest.raises(ValueError,
                           match=re.escape("h must have a power-of-two size, got 3")):
            ExactEvolution(np.diag([0.0, 1.0, 2.0]))

    def test_flip_matrix_is_the_flip_in_the_eigenbasis(self):
        ev = ExactEvolution(build_hamiltonian(preset_params("chaotic", 3)))
        flip = np.eye(8)[np.arange(8) ^ 0b010]
        v = ev.eigenvectors
        assert np.max(np.abs(ev.flip_matrix(0b010) - v.T @ flip @ v)) < 1e-12
        assert ev.flip_matrix(0b010) is ev.flip_matrix(0b010)

    @pytest.mark.parametrize("mask, message", [
        (-1, "mask must be >= 0, got -1"),
        (8, "mask must be < 8, got 8"),
        (1.5, "mask must be an integer, got 1.5"),
        (True, "mask must be an integer, got True")],
        ids=["negative", "past_the_last_index", "float", "bool"])
    def test_mask_outside_the_index_range_rejected(self, mask, message):
        # -1 returned and cached the flip of every bit, 8 raised numpy's
        # IndexError, 1.5 its TypeError, and True returned the flip of bit 0
        ev = ExactEvolution(build_hamiltonian(preset_params("chaotic", 3)))
        with pytest.raises(ValueError, match=re.escape(message)):
            ev.flip_matrix(mask)


class TestClassicalOtoc:
    @pytest.mark.parametrize("j", [1.5, True, 2.0])
    def test_non_integer_site_rejected(self, j):
        # 1.5 used to fall through to the far-site phase 0.0
        with pytest.raises(ValueError, match=f"site j must be an integer, got {j!r}"):
            classical_otoc_phase(preset_params("chaotic", 4), j, 0.3)

    def test_out_of_range_message_unchanged(self):
        with pytest.raises(ValueError, match=r"^site j=5 out of range 1\.\.4$"):
            classical_otoc_phase(preset_params("chaotic", 4), 5, 0.3)

    @pytest.mark.parametrize("t, message", [
        (float("nan"), "t must be finite, got nan"),
        (1e308, "phase_rate * t must be finite, with the rate 11.8 (got t=1e+308)"),
        (True, "t must be a real number, got True"),
        ("x", "t must be a real number, got 'x'")], ids=["nan", "overflow", "bool", "str"])
    def test_time_checked_as_in_the_exact_otoc(self, t, message):
        # nan and 1e308 came back as nan and inf, True as the phase at t = 1,
        # and 'x' raised a bare TypeError
        with pytest.raises(ValueError, match=re.escape(message)):
            classical_otoc_phase(preset_params("chaotic", 4), 1, t)

    def test_beyond_neighbour_is_one(self):
        p = preset_params("chaotic", 5)
        for t in (0.0, 0.3, 2.1):
            for j in (3, 4, 5):
                assert classical_otoc(p, j, t) == 1.0 + 0.0j

    def test_integrable_butterfly_site_constant(self):
        # J + Bz = 0 for the integrable couplings
        p = preset_params("integrable", 4)
        for t in np.linspace(0, 5, 11):
            assert classical_otoc(p, 1, t) == pytest.approx(1.0 + 0.0j, abs=1e-15)

    def test_chaotic_neighbour_frozen_value(self):
        p = preset_params("chaotic", 4)
        assert classical_otoc(p, 2, 0.03) == pytest.approx(np.exp(-0.12j), abs=1e-15)

    def test_unit_modulus(self):
        p = preset_params("chaotic", 4)
        for j in range(1, 5):
            for t in (0.17, 1.3, 4.9):
                assert abs(abs(classical_otoc(p, j, t)) - 1.0) < 1e-15

    def test_phase_accessor_consistent(self):
        # the phase agrees with the package's own exact OTOC at Bx = 0
        p = preset_params("chaotic", 4)
        for j in range(1, 5):
            f = otoc_exact(classical_params(p), 1, j, 0.4)
            assert classical_otoc(p, j, 0.4) == pytest.approx(f, abs=1e-15)

    def test_site_out_of_range(self):
        p = preset_params("chaotic", 4)
        with pytest.raises(ValueError):
            classical_otoc(p, 0, 0.1)
        with pytest.raises(ValueError):
            classical_otoc(p, 5, 0.1)


class TestBruteforceOracle:
    """The closed form and the package's exact OTOC at Bx = 0 against the
    dense oracle: expm of the kron-built classical Hamiltonian."""

    def test_t0_is_one(self):
        p = classical_params(preset_params("chaotic", 4))
        for i in range(1, 5):
            for j in range(1, 5):
                assert otoc_exact(p, i, j, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_matches_closed_form(self, rng):
        for n in (3, 4, 5):
            for name in ("integrable", "chaotic"):
                p = preset_params(name, n)
                h = dense_hamiltonian(n, p.J, 0.0, p.Bz)
                for t in rng.uniform(-3, 3, size=10):
                    u = expm(-1j * float(t) * h)
                    for j in range(1, n + 1):
                        got = classical_otoc(p, j, float(t))
                        oracle = dense_otoc(u, 1, j, n)
                        assert abs(got - oracle) < 1e-10

    def test_unit_modulus_under_diagonal_evolution(self, rng):
        p = classical_params(preset_params("chaotic", 4))
        for t in rng.uniform(-2, 2, size=10):
            for i in range(1, 5):
                for j in range(1, 5):
                    f = otoc_exact(p, i, j, float(t))
                    assert abs(abs(f) - 1.0) < 1e-10

    def test_capacity(self):
        with pytest.raises(CapacityError):
            otoc_exact(IsingParams(11, -1, 0, 1), 1, 2, 0.1)
