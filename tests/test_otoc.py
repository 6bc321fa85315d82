import functools
import os
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from spinweave import otoc, qsim
from spinweave.config import PIPELINES, config_from_dict
from spinweave.errors import CapacityError
from spinweave.ising import (ExactEvolution, IsingParams, build_hamiltonian,
                             preset_params)
from spinweave.otoc import (_otoc_value, build_surface, fabs_measurement_circuit,
                            fixed_node_commutator, otoc_exact,
                            readout_distributions)
from spinweave.qsim import (Circuit, Gate, StateVector, apply_circuit,
                            measurement_distribution)
from spinweave.surface_io import VALUE_COLUMNS
from spinweave.weave import weave_circuit

from conftest import commutator, dense_hamiltonian, dense_otoc, load_preset
from oracles import (circuit_unitary, fold_cnots, gatewise_amplitudes,
                     gatewise_readout, heisenberg_x, integrable_noisy_readout,
                     matrix_otoc_value)

CHAOTIC4 = preset_params("chaotic", 4)
INTEGRABLE4 = preset_params("integrable", 4)


def expm_unitary(p, t):
    """Evolution operator via scipy's matrix exponential (independent of the
    package's eigendecomposition path)."""
    return expm(-1j * dense_hamiltonian(p.n, p.J, p.Bx, p.Bz) * t)


class TestOtocExact:
    def test_t0_is_one_all_states(self):
        for state in ("zeros", "plus", "maximally_mixed"):
            assert otoc_exact(CHAOTIC4, 1, 3, 0.0, state) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_probe_rejected(self):
        with pytest.raises(ValueError, match="probe"):
            otoc_exact(CHAOTIC4, 1, 2, 0.3, probe="z")

    def test_classical_limit_beyond_neighbour(self):
        # Bx = 0 makes the evolution classical: no spreading past j = 2
        for t in (0.3, 1.1, 2.7):
            assert otoc_exact(INTEGRABLE4, 1, 3, t) == pytest.approx(1.0, abs=1e-10)

    def test_matches_expm_oracle_all_states(self, rng):
        for state in ("zeros", "plus", "maximally_mixed"):
            for t in rng.uniform(0, 2.5, size=4):
                u = expm_unitary(CHAOTIC4, float(t))
                i, j = int(rng.integers(1, 5)), int(rng.integers(1, 5))
                got = otoc_exact(CHAOTIC4, i, j, float(t), state)
                oracle = dense_otoc(u, i, j, 4, state)
                assert abs(got - oracle) < 1e-10

    @pytest.mark.parametrize("state", ["zeros", "plus", "maximally_mixed"])
    @pytest.mark.parametrize("probe", ["x", "y"])
    def test_every_state_and_probe_matches_dense_oracle(self, state, probe):
        p = preset_params("chaotic", 5)
        for t in (0.0, 0.37, 1.9):
            u = expm_unitary(p, t)
            for i, j in ((1, 1), (1, 4), (2, 2), (3, 1), (5, 3), (4, 5)):
                got = otoc_exact(p, i, j, t, state, probe)
                assert abs(got - dense_otoc(u, i, j, 5, state, probe)) < 1e-10

    def test_chaotic_butterfly_site_scrambles(self):
        # |F_11| decays at late times; threshold frozen from this oracle
        # sweep (minimum 0.14 on the grid below), not asserted a priori
        values = [abs(otoc_exact(CHAOTIC4, 1, 1, t)) for t in np.arange(1.5, 4.01, 0.1)]
        assert min(values) < 0.15
        c_at_min = commutator(CHAOTIC4, 1, 1, float(np.arange(1.5, 4.01, 0.1)[np.argmin(values)]))
        assert 0.0 <= c_at_min <= 4.0

    def test_maximally_mixed_value_is_real(self, rng):
        # real part identity must hold numerically; fail loudly otherwise
        for t in rng.uniform(0, 3, size=6):
            for j in range(1, 5):
                f = otoc_exact(CHAOTIC4, 1, j, float(t), "maximally_mixed")
                assert abs(f.imag) < 1e-10

    def test_maximally_mixed_site_swap_symmetry(self, rng):
        for t in rng.uniform(0, 3, size=4):
            for i in range(1, 5):
                for j in range(1, 5):
                    fij = otoc_exact(CHAOTIC4, i, j, float(t), "maximally_mixed")
                    fji = otoc_exact(CHAOTIC4, j, i, float(t), "maximally_mixed")
                    assert abs(fij - np.conj(fji)) < 1e-10

    def test_time_reversal_conjugation(self, rng):
        # with a real-symmetric Hamiltonian, conj(F(t)) = F(-t) on |0...0>
        for t in rng.uniform(0, 3, size=5):
            for j in range(1, 5):
                f_fwd = otoc_exact(CHAOTIC4, 1, j, float(t))
                f_bwd = otoc_exact(CHAOTIC4, 1, j, float(-t))
                assert abs(np.conj(f_fwd) - f_bwd) < 1e-10

    def test_capacity_and_state_validation(self):
        with pytest.raises(CapacityError):
            otoc_exact(preset_params("chaotic", 11), 1, 2, 0.1)
        with pytest.raises(ValueError):
            otoc_exact(CHAOTIC4, 1, 2, 0.1, "thermal")
        with pytest.raises(ValueError):
            otoc_exact(CHAOTIC4, 0, 2, 0.1)

    def test_time_overflowing_the_phase_rejected(self):
        with pytest.raises(ValueError, match="t must be finite"):
            otoc_exact(CHAOTIC4, 1, 2, 1e308)
        assert np.isfinite(otoc_exact(CHAOTIC4, 1, 2, 1e306))

    @pytest.mark.parametrize("t, message", [
        ("1", "t must be a real number, got '1'"),
        (True, "t must be a real number, got True"),
        (float("inf"), "t must be finite, got inf")], ids=["str", "bool", "inf"])
    def test_non_real_time_rejected(self, t, message):
        # the string raised a bare TypeError, and True ran as t = 1
        with pytest.raises(ValueError, match=re.escape(message)):
            otoc_exact(CHAOTIC4, 1, 2, t)

    # True used to read F_11, 2.0 to raise a bare IndexError and 1.5 a
    # bare TypeError
    @pytest.mark.parametrize("i, j, bad", [(1, True, "j"), (1, 2.0, "j"),
                                           (1.5, 2, "i"), (True, 2, "i")])
    def test_non_integer_site_rejected(self, i, j, bad):
        value = {"i": i, "j": j}[bad]
        with pytest.raises(ValueError,
                           match=f"site {bad} must be an integer, got {value!r}"):
            otoc_exact(CHAOTIC4, i, j, 0.3)


COUPLING = st.floats(-2.0, 2.0, allow_nan=False)


class TestEigenbasisKernel:
    """The eigenbasis kernel against the former dense-propagator kernel."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(3, 7), j_coupling=COUPLING,
           bx=st.one_of(st.just(0.0), COUPLING), bz=COUPLING,
           t=st.one_of(st.sampled_from([0.0, 50.0]), st.floats(0.0, 55.0)))
    @example(n=3, j_coupling=-1.0, bx=0.7, bz=1.5, t=0.0)
    @example(n=7, j_coupling=-1.0, bx=0.0, bz=1.0, t=50.3)
    @example(n=5, j_coupling=1.3, bx=-0.4, bz=0.2, t=49.7)
    def test_matches_matrix_oracle_every_state_probe_and_row(
            self, n, j_coupling, bx, bz, t):
        ev = ExactEvolution(build_hamiltonian(IsingParams(n, j_coupling, bx, bz)))
        for i in range(1, n + 1):
            xit = heisenberg_x(ev, n, i, t)
            for state in ("zeros", "plus", "maximally_mixed"):
                for probe in ("x", "y"):
                    got = _otoc_value(ev, i, t, state, probe)
                    oracle = matrix_otoc_value(xit, state, probe)
                    assert got.shape == (n,)
                    assert np.max(np.abs(got - oracle)) < 1e-12
                    if state == "maximally_mixed" or (state, probe) == ("plus", "x"):
                        assert np.all(got.imag == 0.0)

    @pytest.mark.parametrize("data", [
        {"pipeline": "exact", "state": state, "probe": probe}
        for state in ("zeros", "plus", "maximally_mixed") for probe in ("x", "y")
    ] + [{"pipeline": "sampled", "k": 3, "shots": 64}])
    def test_no_run_path_builds_the_propagator(self, monkeypatch, data):
        def refuse(self, t):
            raise AssertionError("ExactEvolution.unitary called on a run path")

        monkeypatch.setattr(ExactEvolution, "unitary", refuse)
        cfg = config_from_dict({"regime": "chaotic", "n": 4, "ell_max": 6, **data})
        surface = build_surface(cfg)
        assert np.all(np.isfinite(surface.columns["C_exact"]))


class TestCommutator:
    def test_t0_is_zero(self):
        assert commutator(CHAOTIC4, 1, 2, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_integrable_beyond_neighbour_is_zero(self):
        for t in np.linspace(0, 1.44, 25):
            for j in (3, 4):
                assert abs(commutator(INTEGRABLE4, 1, j, float(t))) < 1e-10

    def test_integrable_neighbour_closed_form(self):
        # F = exp(4iJt) with J = -1, so C = 2 - 2 cos(4t)
        for t in np.linspace(0, 1.44, 25):
            got = commutator(INTEGRABLE4, 1, 2, float(t))
            assert abs(got - (2 - 2 * np.cos(4 * t))) < 1e-10

    def test_bounded_by_four(self, rng):
        for t in rng.uniform(0, 4, size=8):
            for j in range(1, 5):
                c = commutator(CHAOTIC4, 1, j, float(t))
                assert -1e-9 <= c <= 4 + 1e-9


class TestXYCommutator:
    def test_disjoint_supports_commute_at_t0(self):
        assert commutator(CHAOTIC4, 1, 3, 0.0, probe="y") == pytest.approx(0.0, abs=1e-12)

    def test_same_site_t0_is_four(self):
        # [X, Y] = 2iZ and tr(rho |2iZ|^2) = 4 on any state
        assert commutator(CHAOTIC4, 1, 1, 0.0, probe="y") == pytest.approx(4.0, abs=1e-10)

    def test_surface_matches_expm_oracle(self, rng):
        for t in rng.uniform(0, 2, size=4):
            u = expm_unitary(CHAOTIC4, float(t))
            for j in range(1, 5):
                got = commutator(CHAOTIC4, 1, j, float(t), probe="y")
                oracle = 2 - 2 * dense_otoc(u, 1, j, 4, "zeros", "y").real
                assert abs(got - oracle) < 1e-10


class TestFabsProtocol:
    def test_empty_evolution_returns_all_zeros(self):
        c = fabs_measurement_circuit(Circuit(4), 1, 3)
        out = apply_circuit(StateVector.zeros(4), c)
        assert measurement_distribution(out).probabilities[0] == pytest.approx(1.0, abs=1e-12)

    def test_contains_four_copies_of_evolution(self):
        u = weave_circuit(CHAOTIC4, 0.06, 6, 7)
        c = fabs_measurement_circuit(u, 1, 2)
        assert len(c) == 4 * len(u) + 4

    def test_matches_dense_oracle_with_same_unitary(self, rng):
        for _ in range(6):
            j = int(rng.integers(1, 5))
            ell = int(rng.integers(1, 25))
            u_circ = weave_circuit(CHAOTIC4, 0.06, 6, ell)
            meas = fabs_measurement_circuit(u_circ, 1, j)
            p0 = measurement_distribution(
                apply_circuit(StateVector.zeros(4), meas)).probabilities[0]
            f_oracle = dense_otoc(circuit_unitary(u_circ), 1, j, 4)
            assert abs(np.sqrt(p0) - abs(f_oracle)) < 1e-9

    def test_global_phase_invariance(self):
        u = weave_circuit(CHAOTIC4, 0.06, 6, 9)
        # X PZ(phi) X PZ(phi) multiplies the unitary by exp(i phi)
        phi = 0.917
        shifted = Circuit(u.n_qubits,
                          u.gates + (Gate("X", (0,)), Gate("PZ", (0,), phi),
                                     Gate("X", (0,)), Gate("PZ", (0,), phi)))
        ref = circuit_unitary(u)
        assert np.max(np.abs(circuit_unitary(shifted) - np.exp(1j * phi) * ref)) < 1e-12
        p_ref = measurement_distribution(apply_circuit(
            StateVector.zeros(4), fabs_measurement_circuit(u, 1, 2))).probabilities[0]
        p_shift = measurement_distribution(apply_circuit(
            StateVector.zeros(4), fabs_measurement_circuit(shifted, 1, 2))).probabilities[0]
        assert abs(p_ref - p_shift) < 1e-12

    def test_opposite_ordering_gives_conjugate_amplitude(self):
        # the protocol applies the probe first; the opposite operator
        # ordering (evolved operator first) is the adjoint circuit and
        # measures the conjugate correlator, indistinguishable in |F|.
        # Pinned deliberately to document which ordering is implemented.
        u = weave_circuit(CHAOTIC4, 0.06, 6, 9)
        forward = fabs_measurement_circuit(u, 1, 2)
        opposite = forward.inverse
        amp_fwd = apply_circuit(StateVector.zeros(4), forward).amplitudes[0]
        amp_opp = apply_circuit(StateVector.zeros(4), opposite).amplitudes[0]
        assert abs(amp_fwd.imag) > 1e-3  # orderings genuinely differ here
        assert abs(amp_opp - np.conj(amp_fwd)) < 1e-12
        assert abs(abs(amp_opp) - abs(amp_fwd)) < 1e-12

    def test_site_out_of_range(self):
        with pytest.raises(ValueError):
            fabs_measurement_circuit(Circuit(4), 1, 5)

    @pytest.mark.parametrize("i, j, bad", [(1, True, "j"), (1.0, 2, "i")])
    def test_non_integer_site_rejected(self, i, j, bad):
        # True used to build site 1's protocol
        with pytest.raises(ValueError, match=f"site {bad} must be an integer"):
            fabs_measurement_circuit(weave_circuit(CHAOTIC4, 0.06, 1, 2), i, j)


def cone_qubits(u: Circuit, qubit: int) -> set[int]:
    """``qubit`` and every qubit of a gate in its light cone in ``u``."""
    return {qubit}.union(*(g.qubits for g in otoc._light_cone(u, qubit)[0].gates))


class TestLightCone:
    @pytest.mark.parametrize("magic", [False, True])
    @pytest.mark.parametrize("k", [1, 6])
    def test_cone_of_x1_spreads_one_site_per_trotter_step(self, k, magic):
        # the paper's lightcone: after s steps X_1(t) is supported on the
        # first min(n, s + 1) sites of the chaotic weave
        n = 8
        p = preset_params("chaotic", n)
        for ell in range(10 * k + 1):
            u = weave_circuit(p, 0.03, k, ell, magic)
            s = -(-ell // k)  # the cells, plus the shift when k does not divide ell
            assert cone_qubits(u, 0) == set(range(min(n, s + 1))), ell

    @pytest.mark.parametrize("magic", [False, True])
    @pytest.mark.parametrize("k", [1, 6])
    def test_sites_off_the_cone_read_exactly_zeros_and_build_no_protocol(
            self, monkeypatch, k, magic):
        # X_j off the reach of X_1 commutes with the cone V and with X_1, so
        # the protocol returns |0...0>: the engine writes that without a run,
        # and the gate-by-gate oracle on the full protocol circuit agrees
        cfg = config_from_dict({"regime": "chaotic", "n": 8, "tau": 0.03, "k": k,
                                "ell_max": 7 * k, "pipeline": "trotter_exact",
                                "magic": magic, "magic_override": magic})
        n = cfg.params.n
        zeros = np.zeros(2 ** n, dtype=complex)
        zeros[0] = 1.0
        built = []
        protocol = otoc.fabs_measurement_circuit

        def counting_protocol(u, i, j):
            built.append(j)
            return protocol(u, i, j)

        monkeypatch.setattr(otoc, "fabs_measurement_circuit", counting_protocol)
        # every cone width from 1 to 8, through cells alone and shift plus cells
        for ell in sorted({*range(0, 7 * k + 1, k), *range(1, 7 * k + 1, k)}):
            u = weave_circuit(cfg.params, cfg.tau, cfg.k, ell, cfg.magic)
            reach = cone_qubits(u, 0)
            built.clear()
            got = readout_distributions(cfg, ell)
            assert built == [j for j in range(1, n + 1) if j - 1 in reach], ell
            for j in range(1, n + 1):
                if j - 1 not in reach:
                    assert np.array_equal(got[0, j - 1], zeros.real), (ell, j)
                expected = np.abs(gatewise_amplitudes(zeros, protocol(u, 1, j))) ** 2
                assert np.max(np.abs(got[0, j - 1] - expected)) < 1e-12, (ell, j)


class TestFixedNode:
    def test_outside_cone_reduces_to_modulus_formula(self):
        for f_abs in (0.0, 0.4, 1.0):
            c = fixed_node_commutator(f_abs, CHAOTIC4, 4, 0.7)
            assert c == pytest.approx(2 - 2 * f_abs, abs=1e-12)

    def test_scrambled_limit_is_two(self):
        for j in range(1, 5):
            assert fixed_node_commutator(0.0, CHAOTIC4, j, 1.3) == pytest.approx(2.0, abs=0)

    def test_polar_reconstruction(self):
        c = fixed_node_commutator(0.62, CHAOTIC4, 2, 0.4)
        assert c == pytest.approx(2 - 2 * 0.62 * np.cos(4 * CHAOTIC4.J * 0.4), abs=1e-12)

    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            fixed_node_commutator(1.1, CHAOTIC4, 2, 0.1)
        with pytest.raises(ValueError):
            fixed_node_commutator(-0.2, CHAOTIC4, 2, 0.1)

    @pytest.mark.parametrize("fn", [fixed_node_commutator])
    @pytest.mark.parametrize("t", [1e308, float("nan")])
    def test_time_overflowing_the_phase_rejected(self, fn, t):
        with pytest.raises(ValueError, match="t must be finite"):
            fn(0.5, CHAOTIC4, 1, t)

    @pytest.mark.parametrize("fn", [fixed_node_commutator])
    def test_non_integer_site_rejected(self, fn):
        # 2.5 used to take the far-site phase 0, so the commutator read 1.0
        with pytest.raises(ValueError, match="site j must be an integer, got 2.5"):
            fn(0.5, CHAOTIC4, 2.5, 0.3)

    @pytest.mark.parametrize("f_abs, t, message", [
        (0.5, "0.1", "t must be a real number, got '0.1'"),
        ("0.5", 0.1, "|F| must be a real number, got '0.5'"),
        (True, 0.1, "|F| must be a real number, got True"),
        (float("nan"), 0.1, "|F| must be finite, got nan")],
        ids=["str-time", "str-modulus", "bool-modulus", "nan-modulus"])
    def test_non_real_argument_rejected(self, f_abs, t, message):
        # each string raised a bare TypeError, and True ran as |F| = 1
        with pytest.raises(ValueError, match=re.escape(message)):
            fixed_node_commutator(f_abs, CHAOTIC4, 2, t)

    def test_integrable_fixed_node_equals_exact(self):
        # with Bx = 0 the classical phase is the exact phase
        for t in np.linspace(0, 1.44, 13):
            for j in range(1, 5):
                f = otoc_exact(INTEGRABLE4, 1, j, float(t))
                fn = fixed_node_commutator(abs(f), INTEGRABLE4, j, float(t))
                exact = 2 - 2 * f.real
                assert abs(fn - exact) < 1e-10

    def test_causality_surrogate_chaotic_chain_end(self):
        # the far-end commutator stays tiny before the spreading front
        # arrives, and the fixed-node value tracks it there
        tau = 0.03
        cs = np.array([commutator(CHAOTIC4, 1, 4, ell * tau) for ell in range(73)])
        front = int(np.argmax(cs > 0.2))
        assert front > 0
        pre = front // 2
        assert cs[:pre].max() <= 0.05
        for ell in range(pre):
            f = otoc_exact(CHAOTIC4, 1, 4, ell * tau)
            fn = fixed_node_commutator(abs(f), CHAOTIC4, 4, ell * tau)
            assert abs(fn - cs[ell]) <= 0.05


class TestBuildSurface:
    def test_exact_integrable_far_column_zero(self):
        cfg = config_from_dict({"regime": "integrable", "n": 4, "tau": 0.06,
                                "ell_max": 24, "pipeline": "exact"})
        surf = build_surface(cfg)
        assert np.max(np.abs(surf.grid("C_exact")[3])) < 1e-10

    def test_chaotic_t0_row_is_zero(self):
        cfg = config_from_dict({"regime": "chaotic", "n": 4, "tau": 0.06,
                                "ell_max": 4, "pipeline": "exact"})
        surf = build_surface(cfg)
        assert np.max(np.abs(surf.grid("C_exact")[:, 0])) < 1e-10

    @pytest.mark.parametrize("pipeline", list(PIPELINES))
    def test_the_fields_not_the_pipeline_name_decide_the_run(self, pipeline):
        # validation sets every field that a pipeline does not read to None,
        # and the surface loop runs each stage exactly when its field is set
        cfg = config_from_dict({**READOUT_BASE, "n": 3, "pipeline": pipeline})
        want = build_surface(cfg).columns
        for other in set(PIPELINES) - {pipeline}:
            got = build_surface(replace(cfg, pipeline=other)).columns
            for column in want:
                assert np.array_equal(got[column], want[column], equal_nan=True), (
                    other, column)

    def test_point_reconstruction_invariant(self):
        cfg = config_from_dict({"regime": "chaotic", "n": 4, "tau": 0.06,
                                "ell_max": 6, "k": 6, "pipeline": "trotter_exact"})
        surf = build_surface(cfg)
        f_abs, f_phase = surf.columns["F_abs"], surf.columns["F_phase"]
        assert np.max(np.abs(
            surf.columns["C_raw"] - (2 - 2 * f_abs * np.cos(f_phase)))) < 1e-12
        assert np.all((-1e-9 <= f_abs) & (f_abs <= 1 + 1e-9))

    def test_sampled_matches_noiseless_within_three_sigma(self):
        shots = 100_000
        base = {"regime": "chaotic", "n": 4, "tau": 0.06, "k": 6, "ell_max": 8}
        exact_surf = build_surface(config_from_dict({**base, "pipeline": "trotter_exact"}))
        sampled_surf = build_surface(config_from_dict(
            {**base, "pipeline": "sampled", "shots": shots, "seed": 5}))
        for j in range(4):
            for ell in range(9):
                p_true = exact_surf.grid("F_abs")[j, ell] ** 2
                p_hat = sampled_surf.grid("F_abs")[j, ell] ** 2
                sigma = np.sqrt(max(p_true * (1 - p_true), 1e-12) / shots)
                assert abs(p_hat - p_true) <= 3 * sigma + 3 / shots

    def test_parallel_jobs_match_serial(self, monkeypatch):
        # two usable CPUs, so that real workers start on a one-CPU host too
        monkeypatch.setattr(otoc, "_usable_cpus", lambda: 2)
        cfg = config_from_dict({"regime": "chaotic", "n": 4, "tau": 0.06, "k": 2,
                                "ell_max": 4, "pipeline": "sampled",
                                "shots": 512, "seed": 9})
        serial = build_surface(cfg, jobs=1)
        parallel = build_surface(cfg, jobs=2)
        for name in serial.columns:
            assert np.array_equal(serial.columns[name], parallel.columns[name],
                                  equal_nan=True)

    @staticmethod
    def _workers_started(monkeypatch, jobs, ell_max, cpus):
        """The max_workers of every pool that build_surface starts with
        ``cpus`` usable CPUs, each pool replaced by an inline map."""
        import concurrent.futures
        started = []

        class InlineExecutor:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # build_surface imports the executor from here when it starts workers
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
        monkeypatch.setattr(otoc, "_usable_cpus", lambda: cpus)
        cfg = config_from_dict({"regime": "chaotic", "ell_max": ell_max})
        surface = build_surface(cfg, jobs=jobs)
        assert np.array_equal(surface.columns["C_exact"],
                              build_surface(cfg).columns["C_exact"])
        return started

    @pytest.mark.parametrize("jobs, ell_max, workers", [
        (1, 4, None), (2, 4, 2), (64, 4, 5), (64, 0, None), (3, 1, 2)])
    def test_workers_capped_by_time_indices(self, monkeypatch, jobs, ell_max,
                                            workers):
        started = self._workers_started(monkeypatch, jobs, ell_max, cpus=8)
        assert started == ([] if workers is None else [workers])

    @pytest.mark.parametrize("jobs, ell_max, cpus, workers", [
        (64, 4, 3, 3), (500, 499, 2, 2), (4, 4, 1, None), (3, 4, 4, 3)])
    def test_workers_capped_by_usable_cpus(self, monkeypatch, jobs, ell_max,
                                           cpus, workers):
        started = self._workers_started(monkeypatch, jobs, ell_max, cpus)
        assert started == ([] if workers is None else [workers])

    @pytest.mark.parametrize("jobs, message", [
        (0, "jobs must be >= 1, got 0"), (-3, "jobs must be >= 1, got -3"),
        (True, "jobs must be an integer, got True"),
        ("2", "jobs must be an integer, got '2'"), (2.0, "jobs must be an integer")])
    def test_bad_jobs_rejected(self, jobs, message):
        # 0, -3 and True used to run serially, and "2" to raise a bare TypeError
        cfg = config_from_dict({"regime": "chaotic", "n": 3, "ell_max": 1})
        with pytest.raises(ValueError, match=message):
            build_surface(cfg, jobs=jobs)

    @pytest.mark.parametrize("pipeline", ["exact", "sampled"])
    def test_unmitigated_rows_leave_the_mitigated_columns_empty(self, pipeline):
        columns = build_surface(config_from_dict(
            {**READOUT_BASE, "n": 3, "pipeline": pipeline})).columns
        empty = {"C_tmem", "C_zne", "C_corr"} | ({"C_raw"} if pipeline == "exact" else set())
        for name in VALUE_COLUMNS:
            nan = np.isnan(columns[name])
            assert nan.all() if name in empty else not nan.any(), name

    def test_usable_cpus_without_an_affinity_set(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert otoc._usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert otoc._usable_cpus() == 1

    def test_mitigated_point_recomputed_by_hand(self):
        # rebuild one grid point outside build_surface, drawing the same
        # derived seeds, and compare every variant column
        import numpy as np
        from spinweave.mitigation import TmemSolver, ZnePair, zne_correct
        from spinweave.noise import (build_confusion_matrix,
                                     empirical_distribution, sample_counts,
                                     simulate_noisy)
        from spinweave.qsim import BitstringDistribution

        cfg = config_from_dict({"regime": "chaotic", "n": 4, "tau": 0.06,
                                "k": 3, "ell_max": 5, "pipeline": "mitigated",
                                "shots": 512, "seed": 77})
        surf = build_surface(cfg)
        j, ell = 2, 5
        t = ell * cfg.tau
        meas = fabs_measurement_circuit(
            weave_circuit(cfg.params, cfg.tau, cfg.k, ell), 1, j)
        d1 = simulate_noisy(meas, cfg.noise)
        d3 = simulate_noisy(fold_cnots(meas, 3), cfg.noise)
        p1 = empirical_distribution(sample_counts(
            d1, cfg.shots, np.random.SeedSequence(cfg.seed, spawn_key=(j, ell, 1))))
        p3 = empirical_distribution(sample_counts(
            d3, cfg.shots, np.random.SeedSequence(cfg.seed, spawn_key=(j, ell, 3))))
        solver = TmemSolver(build_confusion_matrix(cfg.noise))
        q1 = BitstringDistribution(4, solver.solve(p1.probabilities)[0])
        q3 = BitstringDistribution(4, solver.solve(p3.probabilities)[0])

        def c_of(p0):
            return fixed_node_commutator(np.sqrt(p0), cfg.params, j, t)

        assert surf.grid("C_raw")[j - 1, ell] == pytest.approx(
            c_of(p1.probabilities[0]), abs=1e-12)
        assert surf.grid("C_tmem")[j - 1, ell] == pytest.approx(
            c_of(q1.probabilities[0]), abs=1e-12)
        assert surf.grid("C_zne")[j - 1, ell] == pytest.approx(
            c_of(zne_correct(ZnePair(p1, p3)).probabilities[0]), abs=1e-12)
        assert surf.grid("C_corr")[j - 1, ell] == pytest.approx(
            c_of(zne_correct(ZnePair(q1, q3)).probabilities[0]), abs=1e-12)

    def test_mitigation_order_is_configurable(self):
        import numpy as np
        from spinweave.mitigation import TmemSolver, ZnePair, zne_correct
        from spinweave.noise import (build_confusion_matrix,
                                     empirical_distribution, sample_counts,
                                     simulate_noisy)

        base = {"regime": "chaotic", "n": 4, "tau": 0.06, "k": 3,
                "ell_max": 3, "pipeline": "mitigated", "shots": 512, "seed": 13}
        surf = build_surface(config_from_dict(
            {**base, "mitigation": {"order": "zne_then_tmem"}}))
        cfg = config_from_dict({**base, "mitigation": {"order": "zne_then_tmem"}})
        j, ell = 1, 3
        meas = fabs_measurement_circuit(
            weave_circuit(cfg.params, cfg.tau, cfg.k, ell), 1, j)
        p1 = empirical_distribution(sample_counts(
            simulate_noisy(meas, cfg.noise), cfg.shots,
            np.random.SeedSequence(cfg.seed, spawn_key=(j, ell, 1))))
        p3 = empirical_distribution(sample_counts(
            simulate_noisy(fold_cnots(meas, 3), cfg.noise), cfg.shots,
            np.random.SeedSequence(cfg.seed, spawn_key=(j, ell, 3))))
        solver = TmemSolver(build_confusion_matrix(cfg.noise))
        zc = zne_correct(ZnePair(p1, p3))
        expected = fixed_node_commutator(
            np.sqrt(solver.solve(zc.probabilities)[0][0]),
            cfg.params, j, ell * cfg.tau)
        assert surf.grid("C_corr")[j - 1, ell] == pytest.approx(expected, abs=1e-12)

    def test_trotter_exact_raw_matches_fixed_node_of_circuit(self):
        cfg = config_from_dict({"regime": "chaotic", "n": 4, "tau": 0.06, "k": 6,
                                "ell_max": 6, "pipeline": "trotter_exact"})
        surf = build_surface(cfg)
        for j in (1, 3):
            for ell in (2, 5):
                u = circuit_unitary(weave_circuit(CHAOTIC4, cfg.tau, cfg.k, ell))
                f = dense_otoc(u, 1, j, 4)
                expected = fixed_node_commutator(abs(f), CHAOTIC4, j, ell * cfg.tau)
                assert abs(surf.grid("C_raw")[j - 1, ell] - expected) < 1e-9


READOUT_BASE = {"regime": "chaotic", "n": 4, "tau": 0.06, "k": 3, "ell_max": 3,
                "seed": 5}
# (pipeline, mitigation, number of CNOT folds read out)
READOUT_CASES = [("mitigated", None, 2), ("mitigated", {"zne": False}, 1),
                 ("noisy", None, 1), ("sampled", None, 1),
                 ("trotter_exact", None, 1)]


class TestReadoutDistributions:
    @pytest.mark.parametrize("pipeline, mitigation, folds", READOUT_CASES)
    @pytest.mark.parametrize("ell", [0, 3])
    def test_rows_match_the_gatewise_oracle(self, pipeline, mitigation, folds, ell):
        """Every engine against the gate-by-gate oracles on the full circuit.

        The ``noisy`` and ``mitigated`` cases pin the density engine to the
        full weave: at ell=3 (one cell) the light cone of X_1 is qubits
        {0, 1}, so running the density engine on the cone would miss the
        CNOT noise on edges (1, 2) and (2, 3).
        """
        cfg = config_from_dict({**READOUT_BASE, "pipeline": pipeline,
                                "mitigation": mitigation})
        n = cfg.params.n
        got = readout_distributions(cfg, ell)
        assert got.shape == (folds, n, 2 ** n)
        assert np.max(np.abs(got.sum(axis=2) - 1.0)) < 1e-12
        zeros = np.zeros(2 ** n, dtype=complex)
        zeros[0] = 1.0
        u = weave_circuit(cfg.params, cfg.tau, cfg.k, ell, cfg.magic)
        for j in range(1, n + 1):
            meas = fabs_measurement_circuit(u, 1, j)
            for f, fold in enumerate((1, 3)[:folds]):
                if pipeline in ("sampled", "trotter_exact"):
                    expected = np.abs(gatewise_amplitudes(zeros, meas)) ** 2
                else:
                    expected = gatewise_readout(fold_cnots(meas, fold), cfg.noise)
                assert np.max(np.abs(got[f, j - 1] - expected)) < 1e-12, (j, fold)

    @pytest.mark.parametrize("pipeline", ["trotter_exact", "sampled"])
    @pytest.mark.parametrize("ell, width", [(3, 3), (14, 8)])
    def test_statevector_rows_at_n8_match_the_full_circuit(self, pipeline, ell, width):
        # the engine runs the light cone of X_1: partial at ell=3 (a shift
        # and a cell), saturated at ell=14 (seven cells); the oracle runs
        # the full protocol circuit gate by gate
        cfg = config_from_dict({"regime": "chaotic", "n": 8, "tau": 0.03, "k": 2,
                                "ell_max": 14, "seed": 5, "pipeline": pipeline})
        n = cfg.params.n
        u = weave_circuit(cfg.params, cfg.tau, cfg.k, ell, cfg.magic)
        assert len(cone_qubits(u, 0)) == width
        got = readout_distributions(cfg, ell)
        assert got.shape == (1, n, 2 ** n)
        zeros = np.zeros(2 ** n, dtype=complex)
        zeros[0] = 1.0
        for j in range(1, n + 1):
            meas = fabs_measurement_circuit(u, 1, j)
            expected = np.abs(gatewise_amplitudes(zeros, meas)) ** 2
            assert np.max(np.abs(got[0, j - 1] - expected)) < 1e-12, j

    def test_exact_pipeline_reads_out_nothing(self):
        with pytest.raises(ValueError, match="reads out no circuit"):
            readout_distributions(config_from_dict(READOUT_BASE), 1)

    def test_weave_built_once_per_ell_and_circuit_once_per_site(self, monkeypatch):
        # fold 3 reuses fold 1's weave and protocol circuits
        from spinweave import otoc
        calls = []
        weave, protocol = otoc.weave_circuit, otoc.fabs_measurement_circuit

        def counting_weave(p, tau, k, ell, magic=False):
            calls.append(("weave", ell))
            return weave(p, tau, k, ell, magic)

        def counting_protocol(u, i, j):
            calls.append(("protocol", j))
            return protocol(u, i, j)

        monkeypatch.setattr(otoc, "weave_circuit", counting_weave)
        monkeypatch.setattr(otoc, "fabs_measurement_circuit", counting_protocol)
        cfg = config_from_dict({**READOUT_BASE, "pipeline": "mitigated"})
        assert cfg.mitigation.zne
        build_surface(cfg)
        n = cfg.params.n
        assert calls == [call for ell in range(cfg.ell_max + 1)
                         for call in [("weave", ell)]
                         + [("protocol", j) for j in range(1, n + 1)]]

    def test_each_protocol_circuit_fused_once_for_both_folds(self, monkeypatch):
        fused = []
        fuse = qsim.fuse_gates

        def counting_fuse(gates):
            fused.append(len(gates))
            return fuse(gates)

        monkeypatch.setattr(qsim, "fuse_gates", counting_fuse)
        cfg = config_from_dict({**READOUT_BASE, "pipeline": "mitigated"})
        assert cfg.mitigation.zne
        build_surface(cfg)
        assert len(fused) == cfg.params.n * (cfg.ell_max + 1)

    @pytest.mark.parametrize("pipeline", ["trotter_exact", "sampled", "noisy",
                                          "mitigated"])
    def test_weave_inverted_once_per_time_index(self, monkeypatch, pipeline):
        inverted = []
        inverse = qsim.Circuit.__dict__["inverse"].func

        def counting_inverse(c):
            inverted.append(len(c))
            return inverse(c)

        counted = functools.cached_property(counting_inverse)
        counted.__set_name__(qsim.Circuit, "inverse")
        monkeypatch.setattr(qsim.Circuit, "inverse", counted)
        cfg = config_from_dict({**READOUT_BASE, "pipeline": pipeline})
        build_surface(cfg)
        assert len(inverted) == cfg.ell_max + 1


MITIGATION_FLAGS = [(tmem, zne, order) for tmem in (True, False)
                    for zne in (True, False)
                    for order in ("tmem_then_zne", "zne_then_tmem")]
COMBINER_BASE = {"regime": "chaotic", "n": 3, "tau": 0.2, "k": 2, "ell_max": 2,
                 "shots": 256, "seed": 21}


@pytest.fixture(scope="module")
def combiner_surfaces():
    """The noisy surface and every mitigated variant of one tiny grid."""
    out = {"noisy": build_surface(config_from_dict(
        {**COMBINER_BASE, "pipeline": "noisy"}))}
    for tmem, zne, order in MITIGATION_FLAGS:
        out[tmem, zne, order] = build_surface(config_from_dict(
            {**COMBINER_BASE, "pipeline": "mitigated",
             "mitigation": {"tmem": tmem, "zne": zne, "order": order}}))
    return out


# integrable density configs beyond the presets: n=6 with its own rate per
# edge and per qubit, at fold 1 and 3 through a shift, a cell and both; and
# an n=8 magic cell (2 J k tau = -pi/2) on the unmitigated path
CLOSED_FORM_CONFIGS = {
    "n6_edge_rates": {
        "regime": "integrable", "n": 6, "tau": 0.06, "k": 3, "ell_max": 5,
        "pipeline": "mitigated", "shots": 64, "seed": 1,
        "noise": {"cnot_error": [0.004, 0.006, 0.008, 0.01, 0.012],
                  "t1_given_0": [0.01, 0.02, 0.03, 0.04, 0.05, 0.06],
                  "t0_given_1": [0.06, 0.05, 0.04, 0.03, 0.02, 0.01]}},
    "n8_magic": {"regime": "integrable", "n": 8, "tau": np.pi / 8, "k": 2, "ell_max": 2,
                 "magic": True, "pipeline": "noisy", "shots": 64, "seed": 1},
}


class TestIntegrableReadoutClosedForm:
    """The density engine's readout against ``integrable_noisy_readout``,
    which builds no circuit: without a transverse field every site reads
    the same closed form."""

    @pytest.mark.parametrize("name", ["fig4", "fig5a", "fig6a", *CLOSED_FORM_CONFIGS])
    def test_every_site_reads_the_closed_form(self, name):
        cfg = (config_from_dict(CLOSED_FORM_CONFIGS[name]) if name in CLOSED_FORM_CONFIGS
               else load_preset(name))
        for ell in range(cfg.ell_max + 1):
            got = readout_distributions(cfg, ell)
            for fold, sites in zip((1, 3), got):
                expected = integrable_noisy_readout(cfg, ell, fold)
                assert np.max(np.abs(sites - expected)) <= 1e-12, (ell, fold)

    def test_chaotic_sites_read_apart(self):
        # the closed form's site independence is the integrable regime's, not
        # the engine's: fig5's sites differ by up to 0.25
        cfg = load_preset("fig5")
        spread = max(np.max(np.abs(got[0] - got[0, 0]))
                     for got in map(functools.partial(readout_distributions, cfg),
                                    range(cfg.ell_max + 1)))
        assert spread > 0.1


class TestMitigationCombiner:
    def test_tmem_solver_built_once_per_surface(self, monkeypatch):
        from spinweave import otoc
        built = []

        class CountingSolver(otoc.TmemSolver):
            def __init__(self, t):
                built.append(t.shape)
                super().__init__(t)

        monkeypatch.setattr(otoc, "TmemSolver", CountingSolver)
        for pipeline, mitigation, count in (("mitigated", {"tmem": True}, 1),
                                            ("mitigated", {"tmem": False}, 0),
                                            ("noisy", None, 0)):
            built.clear()
            build_surface(config_from_dict({**COMBINER_BASE, "pipeline": pipeline,
                                            "mitigation": mitigation}))
            assert len(built) == count, (pipeline, mitigation)

    def test_nan_pattern(self, combiner_surfaces):
        noisy = combiner_surfaces["noisy"].columns
        for name in ("C_tmem", "C_zne", "C_corr"):
            assert np.isnan(noisy[name]).all(), name
        for tmem, zne, order in MITIGATION_FLAGS:
            columns = combiner_surfaces[tmem, zne, order].columns
            assert (np.isnan(columns["C_tmem"]) == (not tmem)).all()
            assert (np.isnan(columns["C_zne"]) == (not zne)).all()
            for name in ("C_raw", "C_corr", "C_exact", "F_abs", "F_phase"):
                assert not np.isnan(columns[name]).any(), name

    def test_corrected_column_with_one_method_or_none(self, combiner_surfaces):
        for tmem, zne, order in MITIGATION_FLAGS:
            if tmem and zne:
                continue
            columns = combiner_surfaces[tmem, zne, order].columns
            source = "C_tmem" if tmem else "C_zne" if zne else "C_raw"
            assert np.array_equal(columns["C_corr"], columns[source])

    def test_raw_and_single_method_columns_shared_by_all_variants(
            self, combiner_surfaces):
        reference = combiner_surfaces["noisy"].columns
        for flags in MITIGATION_FLAGS:
            columns = combiner_surfaces[flags].columns
            for name in ("C_raw", "C_exact", "F_abs", "F_phase"):
                assert np.array_equal(columns[name], reference[name]), name
        for order in ("tmem_then_zne", "zne_then_tmem"):
            both = combiner_surfaces[True, True, order].columns
            assert np.array_equal(both["C_tmem"],
                                  combiner_surfaces[True, False, order].columns["C_tmem"])
            assert np.array_equal(both["C_zne"],
                                  combiner_surfaces[False, True, order].columns["C_zne"])

    @pytest.mark.parametrize("order", ["tmem_then_zne", "zne_then_tmem"])
    def test_corrected_point_recomputed_by_hand(self, combiner_surfaces, order):
        from spinweave.mitigation import TmemSolver, ZnePair, zne_correct
        from spinweave.noise import (build_confusion_matrix,
                                     empirical_distribution, sample_counts,
                                     simulate_noisy)
        from spinweave.qsim import BitstringDistribution

        cfg = config_from_dict({**COMBINER_BASE, "pipeline": "mitigated",
                                "mitigation": {"order": order}})
        j, ell = 2, 2
        meas = fabs_measurement_circuit(
            weave_circuit(cfg.params, cfg.tau, cfg.k, ell), 1, j)
        p1, p3 = (empirical_distribution(sample_counts(
            simulate_noisy(fold_cnots(meas, fold), cfg.noise), cfg.shots,
            np.random.SeedSequence(cfg.seed, spawn_key=(j, ell, fold))))
            for fold in (1, 3))
        solver = TmemSolver(build_confusion_matrix(cfg.noise))

        def tmem(dist):
            return BitstringDistribution(3, solver.solve(dist.probabilities)[0])

        if order == "tmem_then_zne":
            corrected = zne_correct(ZnePair(tmem(p1), tmem(p3)))
        else:
            corrected = tmem(zne_correct(ZnePair(p1, p3)))
        expected = fixed_node_commutator(np.sqrt(corrected.probabilities[0]),
                                         cfg.params, j, ell * cfg.tau)
        got = combiner_surfaces[True, True, order].grid("C_corr")[j - 1, ell]
        assert got == pytest.approx(expected, abs=1e-12)


    def test_high_readout_error_surface_builds_without_warning(self):
        # under the suite's error::RuntimeWarning filter an unconverged TMEM
        # solve fails this test; 45% readout error makes T nearly singular
        surf = build_surface(config_from_dict(
            {**COMBINER_BASE, "ell_max": 1, "shots": 8192,
             "pipeline": "mitigated", "noise": {"spam_epsilon": 0.45}}))
        assert np.isfinite(surf.columns["C_tmem"]).all()
        assert np.isfinite(surf.columns["C_corr"]).all()

    @pytest.mark.parametrize("order,folds", [("tmem_then_zne", (1, 3)),
                                             ("zne_then_tmem", (1, 0))],
                             ids=["tmem_then_zne", "zne_then_tmem"])
    def test_unconverged_tmem_warns_naming_point_and_fold(
            self, monkeypatch, order, folds):
        from spinweave import mitigation
        monkeypatch.setattr(mitigation, "TMEM_MAX_ITER", 0)
        cfg = config_from_dict({**COMBINER_BASE, "ell_max": 1,
                                "pipeline": "mitigated",
                                "mitigation": {"order": order}})
        with pytest.warns(RuntimeWarning) as record:
            build_surface(cfg)
        assert {str(w.message) for w in record} == {
            f"TMEM did not converge at j={j}, ell={ell}, fold={fold} "
            "after 0 iterations"
            for j in (1, 2, 3) for ell in (0, 1) for fold in folds}

class TestAlternativeStateSurfaces:
    def test_infinite_temperature_matches_oracle(self, rng):
        cfg = config_from_dict({"regime": "chaotic", "n": 4, "tau": 0.06,
                                "ell_max": 6, "pipeline": "exact",
                                "state": "maximally_mixed"})
        surf = build_surface(cfg)
        for ell in (1, 4, 6):
            u = expm_unitary(CHAOTIC4, ell * 0.06)
            for j in range(1, 5):
                oracle = 2 - 2 * dense_otoc(u, 1, j, 4, "maximally_mixed").real
                assert abs(surf.grid("C_exact")[j - 1, ell] - oracle) < 1e-10

    def test_uniform_superposition_matches_oracle(self):
        cfg = config_from_dict({"regime": "chaotic", "n": 4, "tau": 0.06,
                                "ell_max": 4, "pipeline": "exact", "state": "plus"})
        surf = build_surface(cfg)
        for ell in (2, 4):
            u = expm_unitary(CHAOTIC4, ell * 0.06)
            for j in range(1, 5):
                oracle = 2 - 2 * dense_otoc(u, 1, j, 4, "plus").real
                assert abs(surf.grid("C_exact")[j - 1, ell] - oracle) < 1e-10

    def test_y_probe_matches_oracle(self):
        cfg = config_from_dict({"regime": "chaotic", "n": 4, "tau": 0.06,
                                "ell_max": 4, "pipeline": "exact", "probe": "y"})
        surf = build_surface(cfg)
        for ell in (0, 3):
            u = expm_unitary(CHAOTIC4, ell * 0.06)
            for j in range(1, 5):
                oracle = 2 - 2 * dense_otoc(u, 1, j, 4, "zeros", "y").real
                assert abs(surf.grid("C_exact")[j - 1, ell] - oracle) < 1e-10

    @pytest.mark.parametrize("state, probe", [
        ("maximally_mixed", "x"), ("maximally_mixed", "y"), ("plus", "x")])
    def test_real_by_construction_has_zero_imaginary_part(self, state, probe):
        for p in (CHAOTIC4, INTEGRABLE4, preset_params("chaotic", 6)):
            values = [otoc_exact(p, 1, j, 0.05 * ell, state, probe)
                      for j in range(1, p.n + 1) for ell in range(0, 30, 3)]
            assert all(f.imag == 0.0 and not np.signbit(f.imag) for f in values)

    @pytest.mark.parametrize("state, probe", [("zeros", "x"), ("zeros", "y"), ("plus", "y")])
    def test_complex_cases_keep_their_imaginary_part(self, state, probe):
        values = [otoc_exact(CHAOTIC4, 1, j, 0.05 * ell, state, probe)
                  for j in range(1, 5) for ell in range(0, 30, 3)]
        assert max(abs(f.imag) for f in values) > 0.1

    def test_phase_of_a_real_negative_value_is_plus_pi(self, monkeypatch, tmp_path):
        # np.angle(complex(-1.0, -0.0)) is -pi
        from spinweave import otoc
        from spinweave.surface_io import write_surface
        monkeypatch.setattr(otoc, "_otoc_value", lambda *args: np.full(4, complex(-1.0, -0.0)))
        cfg = config_from_dict({"regime": "chaotic", "n": 4, "ell_max": 1})
        csv_path, _ = write_surface(build_surface(cfg), cfg, tmp_path)
        rows = csv_path.read_text().splitlines()
        phase = rows[0].split(",").index("F_phase")
        assert {row.split(",")[phase] for row in rows[1:]} == {"3.14159265359"}

    @pytest.mark.parametrize("preset", ["s7", "s8"])
    def test_real_surfaces_have_phase_zero_or_pi(self, preset):
        phase = build_surface(load_preset(preset)).columns["F_phase"]
        assert set(np.unique(phase)) <= {0.0, np.pi}
