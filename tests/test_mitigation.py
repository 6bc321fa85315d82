from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from oracles import ProjectedGradientTmem
from spinweave import mitigation
from spinweave.mitigation import (TMEM_TOL, TmemSolver, ZnePair, project_simplex,
                                  zne_correct, zne_extrapolate)
from spinweave.noise import NoiseModel, build_confusion_matrix
from spinweave.qsim import BitstringDistribution


def simplex_projection_bruteforce(v):
    """Exact oracle by KKT support enumeration: on the active support S the
    projection is v_S + (1 - sum v_S)/|S|, zero elsewhere; among feasible
    candidates the closest one wins."""
    v = np.asarray(v, dtype=float)
    best, best_dist = None, np.inf
    for size in range(1, v.size + 1):
        for support in combinations(range(v.size), size):
            idx = list(support)
            shift = (1.0 - v[idx].sum()) / size
            x = np.zeros_like(v)
            x[idx] = v[idx] + shift
            if np.any(x[idx] < -1e-12):
                continue
            dist = np.sum((x - v) ** 2)
            if dist < best_dist - 1e-15:
                best, best_dist = x, dist
    return best


def dist(vec):
    vec = np.asarray(vec, dtype=float)
    n = int(np.log2(vec.size))
    return BitstringDistribution(n, vec)


PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)
entries = st.floats(-10.0, 10.0)


@st.composite
def vector_pairs(draw):
    size = draw(st.integers(1, 16))
    vec = st.lists(entries, min_size=size, max_size=size).map(np.array)
    return draw(vec), draw(vec)


@st.composite
def zne_pairs(draw):
    """p1 and p3 = (1 - lam) p1 + lam q over 2^n outcomes, n = 1..3; small
    lam keeps the raw extrapolation feasible, large lam leaves [0, 1]."""
    size = 2 ** draw(st.integers(1, 3))
    weights = st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size).filter(
        lambda w: sum(w) > 0).map(lambda w: np.array(w) / sum(w))
    p1, q, lam = draw(weights), draw(weights), draw(st.floats(0.0, 1.0))
    return dist(p1), dist((1.0 - lam) * p1 + lam * q)


@st.composite
def tensored_readouts(draw):
    """T = T_0 (x) ... (x) T_{n-1}, n = 1..4, each T_q column-stochastic with
    both flip rates in [0, 0.5] (0.5 makes T singular), and a distribution b
    over 2^n outcomes: arbitrary, or T applied to one.  Rates near 0.5 make
    T ill-conditioned."""
    rate = st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 0.5),
                     st.floats(0.45, 0.5))
    t = np.eye(1)
    for _ in range(draw(st.integers(1, 4))):
        a, c = draw(rate), draw(rate)
        t = np.kron(t, np.array([[1.0 - a, c], [a, 1.0 - c]]))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=t.shape[0],
                            max_size=t.shape[0]).filter(lambda w: sum(w) > 0))
    b = np.array(weights) / sum(weights)
    return t, t @ b if draw(st.booleans()) else b


def objective(t, x, b):
    return float(np.sum((t @ x - b) ** 2))


def assert_on_simplex(x):
    assert np.all(x >= 0.0) and np.all(x <= 1.0)
    assert abs(x.sum() - 1.0) < 1e-12


class TestProjectSimplex:
    def test_identity_on_simplex(self):
        v = np.array([0.25, 0.5, 0.0, 0.25])
        assert np.array_equal(project_simplex(v), v)

    def test_hand_kkt_two_dim(self):
        assert np.allclose(project_simplex(np.array([1.2, -0.2])), [1.0, 0.0],
                           atol=1e-15)

    def test_matches_bruteforce_enumeration_small(self, rng):
        for size in (2, 3, 4):
            for _ in range(40):
                v = rng.normal(scale=2.0, size=size)
                got = project_simplex(v)
                oracle = simplex_projection_bruteforce(v)
                assert np.max(np.abs(got - oracle)) < 1e-9

    def test_matches_bruteforce_enumeration_dim16(self, rng):
        v = rng.normal(scale=1.5, size=16)
        got = project_simplex(v)
        oracle = simplex_projection_bruteforce(v)
        assert np.max(np.abs(got - oracle)) < 1e-9

    def test_matches_qp_solver_dim16(self, rng):
        v = rng.normal(scale=1.5, size=16)
        res = minimize(
            lambda x: np.sum((x - v) ** 2), np.full(16, 1 / 16),
            jac=lambda x: 2 * (x - v), method="SLSQP",
            bounds=[(0, 1)] * 16,
            constraints=[{"type": "eq", "fun": lambda x: x.sum() - 1}],
            options={"ftol": 1e-12, "maxiter": 500})
        got = project_simplex(v)
        assert np.max(np.abs(got - res.x)) < 1e-6
        assert np.sum((got - v) ** 2) <= np.sum((res.x - v) ** 2) + 1e-9

    def test_idempotent(self, rng):
        for _ in range(20):
            v = rng.normal(scale=2.0, size=8)
            once = project_simplex(v)
            assert np.max(np.abs(project_simplex(once) - once)) < 1e-12

    def test_non_expansive(self, rng):
        for _ in range(20):
            u = rng.normal(scale=2.0, size=8)
            v = rng.normal(scale=2.0, size=8)
            pu, pv = project_simplex(u), project_simplex(v)
            assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            project_simplex(np.array([np.nan, 0.5]))

    @PROPERTY
    @given(vector_pairs())
    def test_property_idempotent_onto_simplex(self, pair):
        once = project_simplex(pair[0])
        assert_on_simplex(once)
        assert np.max(np.abs(project_simplex(once) - once)) < 1e-12

    @PROPERTY
    @given(vector_pairs())
    def test_property_non_expansive(self, pair):
        u, v = pair
        pu, pv = project_simplex(u), project_simplex(v)
        assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12


class TestTmem:
    def test_identity_matrix_is_fixed_point(self):
        p = np.array([0.4, 0.1, 0.3, 0.2])
        x, _, _ = TmemSolver(np.eye(4)).solve(p)
        assert np.max(np.abs(x - p)) < 1e-9

    def test_roundtrip_recovers_interior_truth(self, rng):
        t = build_confusion_matrix(NoiseModel.default(4))
        p_true = rng.dirichlet(np.full(16, 5.0))
        x, _, _ = TmemSolver(t).solve(t @ p_true)
        assert np.max(np.abs(x - p_true)) < 1e-8

    def test_boundary_case_against_grid_search(self):
        t = np.array([[0.99, 0.02], [0.01, 0.98]])
        b = np.array([1.0, 0.0])
        xs = np.linspace(0.0, 1.0, 1_000_001)  # 1e-6 grid over the 1-simplex
        objs = (t[0, 0] * xs + t[0, 1] * (1 - xs) - 1) ** 2 \
            + (t[1, 0] * xs + t[1, 1] * (1 - xs)) ** 2
        x_grid = xs[np.argmin(objs)]
        x, _, _ = TmemSolver(t).solve(b)
        assert abs(x[0] - x_grid) < 1.5e-6
        assert np.sum((t @ x - b) ** 2) <= objs.min() + 1e-12
        # the minimizer sits on the simplex boundary
        assert x[1] == pytest.approx(0.0, abs=1e-12)

    def test_objective_not_worse_than_input(self, rng):
        t = build_confusion_matrix(NoiseModel.default(4))
        p_noisy = rng.dirichlet(np.ones(16))
        x, _, _ = TmemSolver(t).solve(p_noisy)
        assert np.sum((t @ x - p_noisy) ** 2) <= np.sum((t @ p_noisy - p_noisy) ** 2) + 1e-15

    def test_output_always_a_distribution(self, rng):
        t = build_confusion_matrix(NoiseModel.default(4))
        solver = TmemSolver(t)
        for _ in range(5):
            p_noisy = project_simplex(rng.normal(size=16))
            x, _, _ = solver.solve(p_noisy)
            assert np.all(x >= 0)
            assert x.sum() == pytest.approx(1.0, abs=1e-9)

    def test_condition_number_reported(self):
        solver = TmemSolver(build_confusion_matrix(NoiseModel.default(4)))
        assert solver.condition_number >= 1.0
        assert np.isfinite(solver.condition_number)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="square"):
            TmemSolver(np.full((4, 2), 0.25))
        with pytest.raises(ValueError, match="4 entries"):
            TmemSolver(np.eye(4)).solve(np.array([1.0, 0.0]))

    def test_non_stochastic_matrix_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            TmemSolver(2 * np.eye(2))

    def test_singular_matrix_returns_minimizer(self):
        # a 50% readout error on qubit 1 hides that bit entirely
        t = build_confusion_matrix(NoiseModel(2, 0.0, (0.02, 0.5), (0.03, 0.5)))
        b = np.array([0.5, 0.2, 0.1, 0.2])
        x, _, converged = TmemSolver(t).solve(b)
        assert converged
        assert_on_simplex(x)
        # only the marginal of qubit 0 is identifiable; its best fit is exact
        marginal = np.linalg.solve(t[::2, ::2] + t[1::2, ::2], [0.7, 0.3])
        assert np.allclose([x[:2].sum(), x[2:].sum()], marginal, atol=1e-12)

    def test_iteration_cap_returns_simplex_point_unconverged(self, monkeypatch):
        # column 1 fits b = e_0 better than column 0, so the start support
        # {0} is left in the second iteration
        t = np.array([[0.6, 0.9], [0.4, 0.1]])
        b = np.array([1.0, 0.0])
        x, iterations, converged = TmemSolver(t).solve(b)
        assert (iterations, converged) == (2, True)
        assert np.allclose(x, [0.0, 1.0], atol=1e-15)
        for cap, expected in ((1, [1.0, 0.0]), (0, project_simplex(b))):
            monkeypatch.setattr(mitigation, "TMEM_MAX_ITER", cap)
            x, iterations, converged = TmemSolver(t).solve(b)
            assert (iterations, converged) == (cap, False)
            assert_on_simplex(x)
            assert np.array_equal(x, expected)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(tensored_readouts())
    def test_property_kkt_on_the_simplex(self, case):
        t, b = case
        x, _, converged = TmemSolver(t).solve(b)
        assert converged
        assert_on_simplex(x)
        # stationary on the support, no descent off it: grad_i - lambda is 0
        # where x_i > 0 and >= 0 elsewhere, lambda the equality multiplier
        grad = t.T @ (t @ x - b)
        multipliers = grad - x @ grad
        assert multipliers.min() >= -TMEM_TOL
        assert np.abs(multipliers[x > 0]).max() <= TMEM_TOL

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(tensored_readouts())
    def test_property_not_worse_than_projected_gradient(self, case):
        t, b = case
        x, _, _ = TmemSolver(t).solve(b)
        reference, _, _ = ProjectedGradientTmem(t).solve(b)
        assert objective(t, x, b) <= objective(t, reference, b) + 1e-12


class TestZne:
    def test_equal_inputs_pass_through(self):
        p = np.array([0.7, 0.2, 0.1, 0.0])
        out = zne_correct(ZnePair(dist(p), dist(p)))
        assert np.max(np.abs(out.probabilities - p)) < 1e-15

    def test_hand_case_accepted(self):
        out = zne_correct(ZnePair(dist([0.9, 0.1]), dist([0.7, 0.3])))
        assert np.allclose(out.probabilities, [1.0, 0.0], atol=1e-12)

    def test_hand_case_projected(self):
        raw = zne_extrapolate(np.array([0.95, 0.05]), np.array([0.6, 0.4]))
        assert np.allclose(raw, [1.125, -0.125], atol=1e-12)
        out = zne_correct(ZnePair(dist([0.95, 0.05]), dist([0.6, 0.4])))
        assert np.allclose(out.probabilities, [1.0, 0.0], atol=1e-12)

    def test_feasible_extrapolation_sums_to_one(self, rng):
        for _ in range(20):
            p1 = rng.dirichlet(np.full(8, 8.0))
            p3 = 0.9 * p1 + 0.1 / 8  # mild extra depolarization
            out = zne_correct(ZnePair(dist(p1), dist(p3)))
            assert out.probabilities.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(out.probabilities >= 0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ZnePair(dist([1.0, 0.0]), dist([1.0, 0.0, 0.0, 0.0]))

    @PROPERTY
    @given(zne_pairs())
    def test_property_output_on_simplex(self, pair):
        p1, p3 = pair
        assert_on_simplex(zne_correct(ZnePair(p1, p3)).probabilities)

    def test_sampled_recovery_within_three_sigma_in_linear_regime(self, rng):
        # small CNOT error keeps the decay linear in the fold factor, so the
        # extrapolated all-zeros probability lands on the noiseless value up
        # to the propagated sampling error of the (3 p1 - p3)/2 estimator
        from spinweave.ising import preset_params
        from spinweave.noise import (NoiseModel, fold_cnots, sample_counts,
                                     empirical_distribution, simulate_noisy)
        from spinweave.otoc import fabs_measurement_circuit
        from spinweave.qsim import (StateVector, apply_circuit,
                                    measurement_distribution)
        from spinweave.weave import weave_circuit

        p = preset_params("chaotic", 4)
        meas = fabs_measurement_circuit(
            weave_circuit(p, 0.06, 6, 8), 1, 2)
        ideal = measurement_distribution(
            apply_circuit(StateVector.zeros(4), meas)).probabilities[0]
        nm = NoiseModel(4, 1e-3, 0.0, 0.0)
        shots = 8192
        d1 = simulate_noisy(meas, nm)
        d3 = simulate_noisy(fold_cnots(meas, 3), nm)
        p1 = empirical_distribution(sample_counts(d1, shots, 101))
        p3 = empirical_distribution(sample_counts(d3, shots, 102))
        z0 = zne_correct(ZnePair(p1, p3)).probabilities[0]
        var = (9 * d1.probabilities[0] * (1 - d1.probabilities[0])
               + d3.probabilities[0] * (1 - d3.probabilities[0])) / (4 * shots)
        assert abs(z0 - ideal) <= 3 * np.sqrt(var) + 1e-4  # linearity residue
