"""Acceptance checklist for the full pipeline.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.  Each test also prints an ``ACCEPTANCE <id>`` line with the
measured numbers (visible with ``-s`` or ``-rA``, and in failure reports).

Two assertions are marked ``xfail(strict=True)``: they encode expectations
that the model's own closed-form phases rule out.  Their docstrings carry
the derivation; the assertions themselves are implemented exactly as
stated, so they will start passing (and flag XPASS) only if the physics
they test ever changes.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from spinweave.cli import main as cli_main
from spinweave.config import config_from_dict, preset_path
from spinweave.ising import classical_otoc_phase, preset_params
from spinweave.mitigation import TmemSolver, ZnePair, zne_correct, zne_extrapolate
from spinweave.noise import NoiseModel, build_confusion_matrix, simulate_noisy
from spinweave.otoc import (build_surface, fabs_measurement_circuit,
                            fixed_node_commutator)
from spinweave.qsim import (BitstringDistribution, Circuit, StateVector,
                            apply_circuit, measurement_distribution)
from spinweave.weave import magic_rzz, rzz_decomposition, trotter_step, weave_circuit

from conftest import (align_global_phase, cnot_count, commutator, dense_otoc,
                      dense_hamiltonian, load_preset, rzz_matrix)
from oracles import circuit_unitary, fold_cnots
from scipy.linalg import expm

CHAOTIC4 = preset_params("chaotic", 4)


def report(tag, ok, detail):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}")


# --- 1: analytic classical OTOC against its dense oracle -------------------

def test_criterion_01_classical_otoc_closed_form():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for n in (3, 4, 5, 6):
        for regime in ("integrable", "chaotic"):
            p = preset_params(regime, n)
            h = dense_hamiltonian(n, p.J, 0.0, p.Bz)
            for j in range(1, n + 1):
                for t in rng.uniform(-3.0, 3.0, size=50):
                    dev = abs(np.exp(1j * classical_otoc_phase(p, j, float(t)))
                              - dense_otoc(expm(-1j * float(t) * h), 1, j, n))
                    worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    report(1, worst < 1e-10 and elapsed < 10,
           f"max deviation {worst:.2e}, runtime {elapsed:.1f}s")
    assert worst < 1e-10
    assert elapsed < 10.0


# --- 2: integrable localization --------------------------------------------

def test_criterion_02_integrable_localization():
    start = time.perf_counter()
    cfg = config_from_dict({"regime": "integrable", "n": 6, "tau": 0.06,
                            "ell_max": 24, "pipeline": "exact"})
    surf = build_surface(cfg)
    c = surf.grid("C_exact")
    far = np.max(np.abs(c[2:, :]))
    t_grid = 0.06 * np.arange(25)
    neighbour_dev = np.max(np.abs(c[1] - (2 - 2 * np.cos(4 * t_grid))))
    elapsed = time.perf_counter() - start
    report(2, far < 1e-10 and neighbour_dev < 1e-10 and elapsed < 30,
           f"far-column max {far:.2e}, neighbour dev {neighbour_dev:.2e}, "
           f"runtime {elapsed:.1f}s")
    assert far < 1e-10
    assert neighbour_dev < 1e-10
    assert elapsed < 30.0


# --- 3: chaotic spreading ---------------------------------------------------

def _chaotic_exact_surface():
    cfg = config_from_dict({"regime": "chaotic", "n": 6, "tau": 0.03,
                            "ell_max": 72, "pipeline": "exact"})
    return build_surface(cfg), cfg


def _first_crossings(grid, threshold=0.2, sites=4):
    fronts = []
    for j in range(sites):
        idx = np.where(grid[j] > threshold)[0]
        fronts.append(int(idx[0]) if len(idx) else None)
    return fronts


@pytest.mark.xfail(strict=True, reason=(
    "the closed-form classical phases make the neighbour commutator rise "
    "faster than the butterfly-site one: C_11 ~ 2-2cos(4(J+Bz)t) rotates at "
    "rate 2 while C_12 ~ 2-2cos(4Jt) rotates at rate 4 for the chaotic "
    "couplings, so the 0.2-crossing at j=2 (ell=4) precedes j=1 (ell=8); "
    "strict increase holds only from j=2 on (4 < 24 < 50)"))
def test_criterion_03_front_strictly_increasing_from_site_one():
    surf, _ = _chaotic_exact_surface()
    fronts = _first_crossings(surf.grid("C_exact"))
    ok = (None not in fronts
          and all(a < b for a, b in zip(fronts, fronts[1:])))
    report("3-front", ok, f"first 0.2-crossings for j=1..4: {fronts}")
    assert ok, f"fronts {fronts} are not strictly increasing over j=1..4"


@pytest.mark.xfail(strict=True, reason=(
    "a large exact commutator does not imply a scrambled (small-|F|) point: "
    "on the j=1,2 columns the commutator reaches 1.9+ through phase rotation "
    "while |F| is still ~0.7, where the fixed-node phase has drifted from "
    "the exact one; deviations reach ~0.73 on the C>=1.9 mask (the C<=0.1 "
    "part of the mask does hold, see the companion test)"))
def test_criterion_03_fixed_node_agreement_on_both_masks():
    surf, cfg = _chaotic_exact_surface()
    exact = surf.grid("C_exact")
    fixed = np.empty_like(exact)
    for j in range(1, 7):
        for ell in range(73):
            fixed[j - 1, ell] = fixed_node_commutator(
                surf.grid("F_abs")[j - 1, ell], cfg.params, j, ell * cfg.tau)
    mask = (exact <= 0.1) | (exact >= 1.9)
    dev = np.max(np.abs(fixed - exact)[mask])
    report("3-fixed-node", dev <= 0.05,
           f"max |fixed-node - exact| on the (<=0.1 or >=1.9) mask: {dev:.3f}")
    assert dev <= 0.05


def test_criterion_03_verified_spreading_properties():
    """The defensible parts of the spreading criterion, all of which hold:
    a front exists and moves ballistically outward from the neighbour on,
    the fixed-node surface is accurate outside the lightcone, and the whole
    computation fits the runtime budget."""
    start = time.perf_counter()
    surf, cfg = _chaotic_exact_surface()
    exact = surf.grid("C_exact")
    fronts = _first_crossings(exact)
    outward = fronts[1] < fronts[2] < fronts[3]
    fixed = np.empty_like(exact)
    for j in range(1, 7):
        for ell in range(73):
            fixed[j - 1, ell] = fixed_node_commutator(
                surf.grid("F_abs")[j - 1, ell], cfg.params, j, ell * cfg.tau)
    low_mask = exact <= 0.1
    low_dev = np.max(np.abs(fixed - exact)[low_mask])
    elapsed = time.perf_counter() - start
    report("3-verified", outward and low_dev <= 0.05 and elapsed < 120,
           f"fronts {fronts} (outward from neighbour), low-mask dev "
           f"{low_dev:.4f}, runtime {elapsed:.1f}s")
    assert outward
    assert low_dev <= 0.05
    assert elapsed < 120.0


# --- 4: trotter-weave convergence -------------------------------------------

def test_criterion_04_weave_refinement_order():
    start = time.perf_counter()
    h = dense_hamiltonian(4, CHAOTIC4.J, CHAOTIC4.Bx, CHAOTIC4.Bz)
    t_phys = 24 * 0.06
    u_ref = expm(-1j * t_phys * h)
    errors = []
    for tau in (0.12, 0.06, 0.03):
        ell = round(t_phys / tau)
        u = circuit_unitary(weave_circuit(CHAOTIC4, tau, 6, ell))
        errors.append(float(np.max(np.abs(align_global_phase(u, u_ref) - u_ref))))
    orders = [float(np.log2(errors[i] / errors[i + 1])) for i in range(2)]
    elapsed = time.perf_counter() - start
    ok = errors[0] > errors[1] > errors[2] and min(orders) >= 1.8 and elapsed < 60
    report(4, ok, f"errors {['%.3g' % e for e in errors]}, "
                  f"orders {['%.2f' % o for o in orders]}, runtime {elapsed:.1f}s")
    assert errors[0] > errors[1] > errors[2]
    assert min(orders) >= 1.8
    assert elapsed < 60.0


# --- 5: decomposition identities and CNOT accounting ------------------------

def test_criterion_05_decompositions_and_cnot_counts():
    rng = np.random.default_rng(5)
    worst = 0.0
    for theta in rng.uniform(-2 * np.pi, 2 * np.pi, size=20):
        ref = rzz_matrix(float(theta))
        u = circuit_unitary(Circuit(2, rzz_decomposition(float(theta), 0, 1)))
        worst = max(worst, float(np.max(np.abs(align_global_phase(u, ref) - ref))))
    for sign in (+1, -1):
        ref = rzz_matrix(sign * np.pi / 2)
        u = circuit_unitary(Circuit(2, magic_rzz(0, 1, sign)))
        worst = max(worst, float(np.max(np.abs(align_global_phase(u, ref) - ref))))

    n = CHAOTIC4.n
    step_cnots = cnot_count(trotter_step(CHAOTIC4, 0.06))
    magic_step_cnots = cnot_count(trotter_step(CHAOTIC4, np.pi / 4, magic=True))
    otoc_counts = []
    for ell in (8, 11, 12):  # one shift + one cell, or two cells
        meas = fabs_measurement_circuit(weave_circuit(CHAOTIC4, 0.06, 6, ell), 1, 2)
        otoc_counts.append(cnot_count(meas))
    ok = (worst < 1e-12 and step_cnots == 2 * (n - 1)
          and magic_step_cnots == n - 1 and otoc_counts == [48, 48, 48])
    report(5, ok, f"max decomposition deviation {worst:.2e}, per-step CNOTs "
                  f"{step_cnots}, magic {magic_step_cnots}, OTOC circuits "
                  f"{otoc_counts}")
    assert worst < 1e-12
    assert step_cnots == 2 * (n - 1)
    assert magic_step_cnots == n - 1
    assert otoc_counts == [48, 48, 48]


# --- 6: ancilla-free |F| protocol -------------------------------------------

def test_criterion_06_fabs_protocol_matches_dense_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(20):
        j = int(rng.integers(1, 5))
        ell = int(rng.integers(0, 25))
        u_circ = weave_circuit(CHAOTIC4, 0.06, 6, ell)
        meas = fabs_measurement_circuit(u_circ, 1, j)
        p0 = measurement_distribution(
            apply_circuit(StateVector.zeros(4), meas)).probabilities[0]
        f_oracle = dense_otoc(circuit_unitary(u_circ), 1, j, 4)
        worst = max(worst, abs(float(np.sqrt(p0)) - abs(f_oracle)))
    elapsed = time.perf_counter() - start
    report(6, worst < 1e-9 and elapsed < 30,
           f"max | sqrt(p0) - |F| | = {worst:.2e}, runtime {elapsed:.1f}s")
    assert worst < 1e-9
    assert elapsed < 30.0


# --- 7: transition-matrix error mitigation ----------------------------------

def test_criterion_07_tmem_recovery():
    rng = np.random.default_rng(7)
    t = build_confusion_matrix(NoiseModel.default(4))
    solver = TmemSolver(t)
    worst_exact = 0.0
    worst_sigma_ratio = 0.0
    for _ in range(10):
        p_true = rng.dirichlet(np.full(16, 5.0))
        p_noisy = t @ p_true
        exact_rec, _, _ = solver.solve(p_noisy)
        worst_exact = max(worst_exact, float(np.max(np.abs(exact_rec - p_true))))
        assert np.all(exact_rec >= 0) and abs(exact_rec.sum() - 1) < 1e-9
        counts = rng.multinomial(8192, p_noisy) / 8192
        shot_rec, _, _ = solver.solve(counts)
        sigma = np.sqrt(p_true * (1 - p_true) / 8192)
        worst_sigma_ratio = max(worst_sigma_ratio,
                                float(np.max(np.abs(shot_rec - p_true) / sigma)))
        assert np.all(shot_rec >= 0) and abs(shot_rec.sum() - 1) < 1e-9
    ok = worst_exact < 1e-7 and worst_sigma_ratio < 5.0
    report(7, ok, f"noiseless recovery {worst_exact:.2e}, finite-shot "
                  f"worst error {worst_sigma_ratio:.2f} sigma")
    assert worst_exact < 1e-7
    assert worst_sigma_ratio < 5.0


# --- 8: zero-noise extrapolation --------------------------------------------

def test_criterion_08_zne_linear_regime():
    nm = NoiseModel(4, 1e-3, 0.0, 0.0)
    wins = total = 0
    for j in (1, 2, 3, 4):
        for ell in range(1, 11):
            meas = fabs_measurement_circuit(weave_circuit(CHAOTIC4, 0.06, 6, ell), 1, j)
            ideal = measurement_distribution(
                apply_circuit(StateVector.zeros(4), meas)).probabilities[0]
            d1 = simulate_noisy(meas, nm)
            d3 = simulate_noisy(fold_cnots(meas, 3), nm)
            z = zne_correct(ZnePair(d1, d3)).probabilities[0]
            total += 1
            if abs(z - ideal) < abs(d1.probabilities[0] - ideal):
                wins += 1

    accepted = zne_correct(ZnePair(BitstringDistribution(1, np.array([0.9, 0.1])),
                                   BitstringDistribution(1, np.array([0.7, 0.3]))))
    raw = zne_extrapolate(np.array([0.95, 0.05]), np.array([0.6, 0.4]))
    projected = zne_correct(ZnePair(BitstringDistribution(1, np.array([0.95, 0.05])),
                                    BitstringDistribution(1, np.array([0.6, 0.4]))))
    hand_ok = (np.allclose(accepted.probabilities, [1.0, 0.0], atol=1e-12)
               and np.allclose(raw, [1.125, -0.125], atol=1e-12)
               and np.allclose(projected.probabilities, [1.0, 0.0], atol=1e-12))
    ok = wins >= int(np.ceil(0.95 * total)) and hand_ok
    report(8, ok, f"ZNE closer to noiseless in {wins}/{total} circuits; "
                  f"hand-derived cases {'match' if hand_ok else 'differ'}")
    assert wins >= int(np.ceil(0.95 * total))
    assert hand_ok


# --- 9: qualitative reproduction of the measured-figure insets ---------------

def _inset_surface(preset):
    cfg = replace(load_preset(preset), pipeline="trotter_exact")
    return build_surface(cfg), cfg


def test_criterion_09_integrable_insets_localized():
    worst = 0.0
    for preset in ("fig4", "fig6a"):
        surf, _ = _inset_surface(preset)
        worst = max(worst, float(np.max(np.abs(surf.grid("C_raw")[2:, :]))))
    report("9-localization", worst < 1e-10,
           f"integrable insets: max C beyond the neighbour {worst:.2e}")
    assert worst < 1e-10


@pytest.mark.xfail(strict=True, reason=(
    "inherits the front-ordering defect of criterion 3 (j=2 crosses 0.2 "
    "before j=1 in every chaotic surface of this model), and the 30-step "
    "magic-cell window ends before the front reaches the far chain end"))
def test_criterion_09_chaotic_insets_front_strictly_increasing():
    results = {}
    ok = True
    for preset in ("fig5", "fig6b"):
        surf, _ = _inset_surface(preset)
        fronts = _first_crossings(surf.grid("C_raw"))
        results[preset] = fronts
        ok = ok and None not in fronts and all(
            a < b for a, b in zip(fronts, fronts[1:]))
    report("9-front", ok, f"inset 0.2-crossings {results}")
    assert ok, f"inset fronts not strictly increasing: {results}"


def test_criterion_09_chaotic_insets_spread_outward():
    """Verified spreading content of the insets: the front moves strictly
    outward from the neighbour site, and in the short magic-cell window the
    far end stays quiet because the front has not arrived yet."""
    surf5, _ = _inset_surface("fig5")
    fronts5 = _first_crossings(surf5.grid("C_raw"))
    surf6, _ = _inset_surface("fig6b")
    fronts6 = _first_crossings(surf6.grid("C_raw"))
    ok = (fronts5[1] < fronts5[2] < fronts5[3]
          and fronts6[1] < fronts6[2] and fronts6[3] is None)
    report("9-spreading", ok, f"fig5 inset {fronts5}, fig6b inset {fronts6}")
    assert fronts5[1] < fronts5[2] < fronts5[3]
    assert fronts6[1] < fronts6[2]


def test_criterion_09_byte_determinism(tmp_path):
    import json
    cfg_data = json.loads(preset_path("fig4").read_text())
    cfg_data["pipeline"] = "trotter_exact"
    del cfg_data["shots"]  # trotter_exact draws no shots
    cfg_path = tmp_path / "fig4_inset.json"
    cfg_path.write_text(json.dumps(cfg_data))
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", str(cfg_path), "--output-dir", str(a)]) == 0
    assert cli_main(["run", str(cfg_path), "--output-dir", str(b)]) == 0
    names = ["surface.csv", "surface.meta.json", "heatmap_C_raw.svg",
             "heatmap_C_exact.svg"]
    same = all((a / nm).read_bytes() == (b / nm).read_bytes() for nm in names)
    report("9-determinism", same,
           f"two identical runs compared over {names}: "
           f"{'byte-identical' if same else 'differ'}")
    assert same


# --- 10: alternative states and probes ---------------------------------------

def test_criterion_10_alternative_commutators_match_oracles():
    start = time.perf_counter()
    h = dense_hamiltonian(4, CHAOTIC4.J, CHAOTIC4.Bx, CHAOTIC4.Bz)
    worst = 0.0
    cases = [("maximally_mixed", "x"), ("plus", "x"), ("zeros", "y")]
    for state, probe in cases:
        cfg = config_from_dict({"regime": "chaotic", "n": 4, "tau": 0.06,
                                "ell_max": 24, "pipeline": "exact",
                                "state": state, "probe": probe})
        surf = build_surface(cfg)
        for ell in range(25):
            u = expm(-1j * h * ell * 0.06)
            for j in range(1, 5):
                oracle = 2 - 2 * dense_otoc(u, 1, j, 4, state, probe).real
                dev = abs(surf.grid("C_exact")[j - 1, ell] - oracle)
                worst = max(worst, dev)
    xy_t0 = commutator(CHAOTIC4, 2, 2, 0.0, probe="y")
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and abs(xy_t0 - 4.0) < 1e-10
    report(10, ok, f"max oracle deviation {worst:.2e}, same-site XY at t=0: "
                   f"{xy_t0:.12f}, runtime {elapsed:.1f}s")
    assert worst < 1e-10
    assert abs(xy_t0 - 4.0) < 1e-10
