import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import beambook as bb
from beambook.oracle import RandomInstanceSpec, brute_force_b3, random_instance


def cophased_gain_bound(M):
    """Per-element power optimum for rank-one M: (sum |m_i|)^2 / L."""
    lam, v = bb.max_eigenpair(M)
    m = math.sqrt(lam) * np.abs(v)
    return float(m.sum() ** 2 / m.size)


class TestQuantizePhase:
    def test_examples(self):
        assert_allclose(bb.quantize_phase(1.0, 2), math.pi / 2)
        assert_allclose(bb.quantize_phase(6.1, 2), 0.0)
        assert_allclose(bb.quantize_phase(math.pi / 2, 2), math.pi / 2)

    def test_ties_round_down(self):
        assert_allclose(bb.quantize_phase(math.pi / 4, 2), 0.0)
        assert_allclose(bb.quantize_phase(3 * math.pi / 4, 2), math.pi / 2)

    def test_idempotent_and_onto_lattice(self):
        rng = np.random.default_rng(0)
        for bits in (1, 2, 3, 5):
            phases = rng.uniform(0, 2 * math.pi, 500)
            q = bb.quantize_phase(phases, bits)
            assert_allclose(bb.quantize_phase(q, bits), q, atol=1e-15)
            lattice = np.unique(np.round(q / (2 * math.pi / 2**bits)).astype(int))
            assert lattice.size <= 2**bits
            assert np.all(q >= 0) and np.all(q < 2 * math.pi)
        # every lattice value is reachable
        q = bb.quantize_phase(np.linspace(0, 2 * math.pi, 64, endpoint=False), 2)
        assert np.unique(np.round(q, 12)).size == 4


class TestMaxEigenpair:
    def test_diagonal(self):
        lam, v = bb.max_eigenpair(np.diag([2.0, 1.0, 0.0, 0.0]).astype(complex))
        assert_allclose(lam, 2.0)
        assert_allclose(np.abs(v), [1, 0, 0, 0], atol=1e-12)
        assert v[0].real > 0 and abs(v[0].imag) < 1e-12

    def test_rank_one_ones(self):
        m = np.ones(4, dtype=complex)
        lam, v = bb.max_eigenpair(np.outer(m, m.conj()))
        assert_allclose(lam, 4.0)
        assert_allclose(v, m / 2.0, atol=1e-12)

    def test_residual_on_random_instances(self):
        for seed in range(20):
            M = random_instance(RandomInstanceSpec(5, 2, seed))
            lam, v = bb.max_eigenpair(M)
            assert_allclose(np.linalg.norm(v), 1.0, atol=1e-12)
            residual = np.linalg.norm(M @ v - lam * v)
            assert residual <= 1e-9 * max(lam, float(np.real(np.trace(M))))

    def test_zero_matrix(self):
        lam, v = bb.max_eigenpair(np.zeros((3, 3), dtype=complex))
        assert lam == 0.0
        assert_allclose(v, [1, 0, 0])


class TestBeamWeights:
    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            bb.BeamWeights(np.array([1.0, 0.0], dtype=complex), bb.PhaseSpec.continuous())

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            bb.BeamWeights(np.array([np.nan, 1.0 + 0.0j]), bb.PhaseSpec.continuous())

    def test_rejects_off_lattice_phase(self):
        w = np.exp(1j * np.array([0.0, 0.3])) / math.sqrt(2)
        with pytest.raises(ValueError):
            bb.BeamWeights(w, bb.PhaseSpec.discrete(2))

    def test_from_phases_quantizes(self):
        beam = bb.BeamWeights.from_phases(np.array([0.0, 1.0]), bb.PhaseSpec.discrete(2))
        assert_allclose(np.angle(beam.weights), [0.0, math.pi / 2])

    def test_copies_the_callers_array(self):
        w = np.full(4, 0.5 + 0.0j)
        beam = bb.BeamWeights(w, bb.PhaseSpec.discrete(2))
        assert not np.shares_memory(beam.weights, w)
        assert w.flags.writeable and not beam.weights.flags.writeable
        w[0] = -0.5
        assert beam.weights[0] == 0.5

    def test_value_equality_and_hash(self):
        continuous = bb.PhaseSpec.continuous()
        w = np.exp(1j * np.array([0.0, 0.4, -1.3, 2.9])) / 2.0
        a, b = bb.BeamWeights(w, continuous), bb.BeamWeights(w.copy(), continuous)
        assert a == b and hash(a) == hash(b)
        nudged = w.copy()
        nudged[2] = complex(np.nextafter(nudged[2].real, 1.0), nudged[2].imag)  # one ulp, still feasible
        assert a != bb.BeamWeights(nudged, continuous)
        lattice = np.full(4, 0.5 + 0.0j)
        assert bb.BeamWeights(lattice, continuous) != bb.BeamWeights(lattice, bb.PhaseSpec.discrete(2))
        signed_zero = bb.BeamWeights(np.full(4, complex(0.5, -0.0)), continuous)
        assert signed_zero == bb.BeamWeights(lattice, continuous)
        assert hash(signed_zero) == hash(bb.BeamWeights(lattice, continuous))
        assert a != "beam"
        assert len({a, b, bb.BeamWeights(nudged, continuous)}) == 2

    def test_codebooks_compare_by_value(self):
        spec = bb.PhaseSpec.discrete(2)
        beam = lambda: bb.BeamWeights(np.full(4, 0.5 + 0.0j), spec)  # noqa: E731
        assert bb.Codebook([bb.CodebookEntry("x", beam())]) == bb.Codebook([bb.CodebookEntry("x", beam())])
        assert bb.Codebook([bb.CodebookEntry("x", beam())]) != bb.Codebook([bb.CodebookEntry("y", beam())])
        assert len({bb.CodebookEntry("x", beam()), bb.CodebookEntry("x", beam())}) == 1

    def test_phase_spec_validation(self):
        with pytest.raises(ValueError):
            bb.PhaseSpec.discrete(0)
        with pytest.raises(ValueError):
            bb.PhaseSpec.discrete(17)
        with pytest.raises(ValueError):
            bb.PhaseSpec("discrete")


class TestSolveSdr:
    def test_cophasable_rank_one_attains_eigen_bound(self):
        m = np.exp(1j * np.array([0.1, 1.2, -2.0, 0.7]))  # equal magnitudes
        M = np.outer(m, m.conj())
        sol = bb.solve_sdr(M)
        assert_allclose(sol.objective, np.linalg.eigvalsh(M)[-1], rtol=1e-12)
        assert sol.rank == 1

    def test_scaled_identity_objective_is_constant(self):
        c = 3.7
        sol = bb.solve_sdr(c * np.eye(5, dtype=complex))
        assert_allclose(sol.objective, c, rtol=1e-12)

    def test_diagonal_constraint_and_psd(self):
        for seed in range(10):
            M = random_instance(RandomInstanceSpec(4, 2, seed))
            sol = bb.solve_sdr(M)
            assert_allclose(np.real(np.diag(sol.W)), 0.25, atol=1e-8)
            assert np.max(np.abs(np.imag(np.diag(sol.W)))) < 1e-10
            vals = np.linalg.eigvalsh(sol.W)
            assert vals[0] >= -1e-10 * np.trace(sol.W).real

    def test_objective_between_discrete_optimum_and_eigen_bound(self):
        for seed in range(10):
            M = random_instance(RandomInstanceSpec(4, 2, seed + 50))
            sol = bb.solve_sdr(M)
            b3 = brute_force_b3(M, 5).gain
            lam = np.linalg.eigvalsh(M)[-1]
            slack = 1e-8 * np.trace(M).real
            assert b3 - slack <= sol.objective <= lam + slack

    def test_matches_reference_solver(self):
        cp = pytest.importorskip("cvxpy")
        for seed, L in ((0, 3), (1, 4), (2, 6), (3, 8)):
            M = random_instance(RandomInstanceSpec(L, 2, seed + 500))
            sol = bb.solve_sdr(M)
            W = cp.Variable((L, L), hermitian=True)
            constraints = [W >> 0] + [cp.real(W[i, i]) == 1.0 / L for i in range(L)]
            problem = cp.Problem(cp.Maximize(cp.real(cp.trace(M @ W))), constraints)
            problem.solve(solver=cp.CLARABEL)
            assert abs(sol.objective - problem.value) <= 1e-5 * np.trace(M).real

    def test_matches_reference_solver_at_design_envelope(self):
        cp = pytest.importorskip("cvxpy")
        L = 16
        M = random_instance(RandomInstanceSpec(L, 2, 60))
        sol = bb.solve_sdr(M)
        W = cp.Variable((L, L), hermitian=True)
        constraints = [W >> 0] + [cp.real(W[i, i]) == 1.0 / L for i in range(L)]
        problem = cp.Problem(cp.Maximize(cp.real(cp.trace(M @ W))), constraints)
        problem.solve(solver=cp.CLARABEL)
        assert abs(sol.objective - problem.value) <= 1e-5 * np.trace(M).real

    @pytest.mark.parametrize(
        "spec",
        [RandomInstanceSpec(L, 2, seed + 500) for seed, L in ((0, 3), (1, 4), (2, 6), (3, 8))]
        + [RandomInstanceSpec(16, 2, 60)],
        ids=lambda spec: f"L{spec.num_elements}-seed{spec.seed}",
    )
    def test_dual_certificate_proves_near_optimality(self, spec):
        # The instances of the two cvxpy reference tests, checked without cvxpy:
        # the certified bound caps the relaxation optimum, so a small
        # certified gap proves the objective is within the same tolerance.
        M = random_instance(spec)
        sol = bb.solve_sdr(M)
        trace = np.trace(M).real
        lam = np.linalg.eigvalsh(M)[-1]
        assert sol.objective <= sol.bound <= lam + 1e-8 * trace
        assert sol.bound - sol.objective <= 1e-5 * trace

    def test_shortcut_certificates(self):
        zero = bb.solve_sdr(np.zeros((3, 3)))
        assert zero.bound == zero.objective == 0.0
        m = np.exp(1j * np.array([0.1, 1.2, -2.0, 0.7]))
        rank_one = bb.solve_sdr(np.outer(m, m.conj()))
        assert rank_one.objective <= rank_one.bound <= rank_one.objective + 1e-12 * 4.0
        single = bb.solve_sdr(np.array([[2.5]]))
        assert single.objective == single.bound == 2.5

    def test_stack_returns_batch_with_slowest_member_sweeps(self):
        M = np.stack([random_instance(RandomInstanceSpec(5, r, 40 + r)) for r in (1, 2, 5)])
        batch = bb.solve_sdr(M)
        assert isinstance(batch, bb.SdrBatch) and len(batch.solutions) == 3
        assert batch.solutions[0].iterations == 0  # rank-one shortcut
        assert batch.iterations == max(s.iterations for s in batch.solutions) > 0
        empty = bb.solve_sdr(np.zeros((0, 3, 3)))
        assert empty.solutions == () and empty.iterations == 0

    def test_sweep_cap_raises_with_best_iterate(self):
        from beambook.beamopt import SdrConvergenceError

        M = random_instance(RandomInstanceSpec(6, 3, 5))
        with pytest.raises(SdrConvergenceError) as excinfo:
            bb.solve_sdr(M, max_sweeps=1)
        best = excinfo.value.solution
        assert_allclose(np.real(np.diag(best.W)), 1.0 / 6.0, atol=1e-10)
        assert best.residual > 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            bb.solve_sdr(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian
        with pytest.raises(ValueError):
            bb.solve_sdr(np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])]))  # one member not Hermitian
        with pytest.raises(ValueError):
            bb.solve_sdr(np.stack([np.eye(2), -np.eye(2)]))  # one member not PSD
        with pytest.raises(ValueError):
            bb.solve_sdr(np.ones((2, 3)))  # not square
        with pytest.raises(ValueError):
            bb.solve_sdr(np.ones(3))  # neither a matrix nor a stack
        with pytest.raises(ValueError):
            bb.solve_sdr(-np.eye(2))  # not PSD
        with pytest.raises(ValueError):
            bb.solve_sdr(np.eye(2), tol=0.0)

    @pytest.mark.parametrize("kwargs", [{"tol": math.nan}, {"tol": -1e-9}, {"max_sweeps": 0}, {"max_sweeps": -1}])
    def test_rejects_bad_solver_settings(self, kwargs):
        # Unchecked, a NaN tol runs all 5000 sweeps and returns a barrier-biased W
        # (objective 2.9802 against a bound of 3), and a cap below 1 raises
        # SdrConvergenceError after no sweep at all.
        M = np.array([[2.0, 1.0], [1.0, 2.0]])
        with pytest.raises(ValueError, match="tol|max_sweeps"):
            bb.solve_sdr(M, **kwargs)
        with pytest.raises(ValueError, match="tol|max_sweeps"):
            bb.solve_sdr(np.stack([M, np.eye(2)]), **kwargs)


class TestGaussianRandomization:
    def test_rank_one_continuous_reaches_cophasing(self):
        rng = np.random.default_rng(4)
        m = rng.uniform(0.5, 2.0, 4) * np.exp(1j * rng.uniform(0, 2 * math.pi, 4))
        M = np.outer(m, m.conj())
        sol = bb.solve_sdr(M)
        beam = bb.gaussian_randomization(sol, M, 100, bb.PhaseSpec.continuous(), seed=0)
        assert_allclose(beam.gain(M), cophased_gain_bound(M), rtol=1e-12)

    def test_lattice_aligned_discrete_is_exact(self):
        m = np.array([1.0, 1.0j, -1.0, -1.0j])
        M = np.outer(m, m.conj())
        sol = bb.solve_sdr(M)
        beam = bb.gaussian_randomization(sol, M, 1000, bb.PhaseSpec.discrete(2), seed=1)
        assert_allclose(beam.gain(M), 4.0, rtol=1e-12)

    def test_deterministic_given_seed(self):
        M = random_instance(RandomInstanceSpec(4, 2, 11))
        sol = bb.solve_sdr(M)
        a = bb.gaussian_randomization(sol, M, 200, bb.PhaseSpec.discrete(3), seed=42)
        b = bb.gaussian_randomization(sol, M, 200, bb.PhaseSpec.discrete(3), seed=42)
        assert np.array_equal(a.weights, b.weights)

    def test_mean_approximation_ratio(self):
        # sample-mean of achieved/SDP-objective across instances clears the
        # (2^b sin(pi/2^b))^2 / (4 pi) guarantee with margin
        bits = 2
        ratio_bound = (2**bits * math.sin(math.pi / 2**bits)) ** 2 / (4 * math.pi)
        ratios = []
        for seed in range(40):
            M = random_instance(RandomInstanceSpec(4, 2, seed + 900))
            sol = bb.solve_sdr(M)
            beam = bb.gaussian_randomization(sol, M, 1000, bb.PhaseSpec.discrete(bits), seed=seed)
            ratios.append(beam.gain(M) / sol.objective)
        assert np.mean(ratios) >= ratio_bound


class TestCoordinateDescent:
    def test_rank_one_converges_to_cophasing(self):
        rng = np.random.default_rng(5)
        m = rng.uniform(0.5, 2.0, 5) * np.exp(1j * rng.uniform(0, 2 * math.pi, 5))
        M = np.outer(m, m.conj())
        _, v = bb.max_eigenpair(M)
        init = bb.BeamWeights(np.exp(1j * np.angle(v)) / math.sqrt(5), bb.PhaseSpec.continuous())
        result = bb.coordinate_descent(M, init, bb.PhaseSpec.continuous())
        assert_allclose(result.objectives[-1], cophased_gain_bound(M), rtol=1e-12)

    def test_optimal_input_is_fixed_point(self):
        m = np.exp(1j * np.array([0.0, 0.5, 1.0, 1.5]))
        M = np.outer(m, m.conj())
        w = m / 2.0
        init = bb.BeamWeights(w, bb.PhaseSpec.continuous())
        result = bb.coordinate_descent(M, init, bb.PhaseSpec.continuous())
        assert_allclose(result.weights.weights, w, atol=1e-12)
        assert result.objectives.size == 2  # one sweep confirms convergence

    def test_monotone_and_bounded(self):
        for seed in range(20):
            M = random_instance(RandomInstanceSpec(4, 2, seed + 100))
            _, v = bb.max_eigenpair(M)
            init = bb.BeamWeights(np.exp(1j * np.angle(v)) / 2.0, bb.PhaseSpec.continuous())
            result = bb.coordinate_descent(M, init, bb.PhaseSpec.continuous())
            assert np.all(np.diff(result.objectives) >= -1e-12 * np.trace(M).real)
            assert result.objectives[-1] >= result.objectives[0]
            assert result.objectives[-1] <= np.linalg.eigvalsh(M)[-1] + 1e-8

    def test_discrete_requires_lattice_init(self):
        M = random_instance(RandomInstanceSpec(3, 2, 0))
        init = bb.BeamWeights(np.exp(1j * np.array([0.0, 0.3, 0.9])) / math.sqrt(3), bb.PhaseSpec.continuous())
        with pytest.raises(ValueError):
            bb.coordinate_descent(M, init, bb.PhaseSpec.discrete(2))

    def test_zero_coupling_leaves_element_unchanged(self):
        M = np.diag([1.0, 2.0]).astype(complex)  # off-diagonal contributions vanish
        init = bb.BeamWeights(np.exp(1j * np.array([0.4, 1.1])) / math.sqrt(2), bb.PhaseSpec.continuous())
        result = bb.coordinate_descent(M, init, bb.PhaseSpec.continuous())
        assert np.array_equal(result.weights.weights, init.weights)


class TestDesignBeam:
    def test_strategies_agree_on_lattice_aligned_broadside(self):
        grid, _ = bb.generate_ula_efield(bb.SyntheticUlaSpec(4, 0.5))
        M = bb.coherence_sum(grid, [bb.Direction(90.0, 0.0)])
        spec = bb.PhaseSpec.discrete(5)
        gains = {}
        for strategy in ("eigen", "sdr_grp", "sdr_grp_cd"):
            beam = bb.design_beam(M, spec, strategy, seed=3)
            gains[strategy] = beam.gain(M) / np.trace(M).real * 4  # normalize to element count
            assert_allclose(
                bb.design_beam(M, spec, strategy, seed=3).weights, beam.weights
            )  # deterministic
        for g in gains.values():
            assert_allclose(g, 4.0, rtol=1e-10)

    def test_eigen_never_beats_full_pipeline(self):
        spec = bb.PhaseSpec.discrete(2)
        for seed in range(60):
            M = random_instance(RandomInstanceSpec(4, 2, seed + 300))
            slack = 1e-8 * np.trace(M).real
            ge = bb.design_beam(M, spec, "eigen").gain(M)
            gc = bb.design_beam(M, spec, "sdr_grp_cd", seed=seed, n_rand=300).gain(M)
            assert ge <= gc + slack

    def test_feasible_gain_chain(self):
        # every feasible design sits below its constraint-level optimum
        for seed in range(15):
            M = random_instance(RandomInstanceSpec(4, 2, seed + 700))
            slack = 1e-8 * np.trace(M).real
            lam = np.linalg.eigvalsh(M)[-1]
            sdr = bb.solve_sdr(M)
            b3 = brute_force_b3(M, 2).gain
            beam = bb.design_beam(M, bb.PhaseSpec.discrete(2), "sdr_grp_cd", seed=seed)
            assert beam.gain(M) <= b3 + slack
            assert b3 <= sdr.objective + slack <= lam + 2 * slack

    def test_stack_takes_one_seed_per_member(self):
        M = np.stack([random_instance(RandomInstanceSpec(4, 2, seed)) for seed in (1, 2)])
        beams = bb.design_beam(M, bb.PhaseSpec.discrete(3), seed=[7, 8], n_rand=50)
        assert len(beams) == 2 and all(isinstance(b, bb.BeamWeights) for b in beams)
        for seed in ([7], 7):
            with pytest.raises(ValueError):
                bb.design_beam(M, bb.PhaseSpec.discrete(3), seed=seed, n_rand=50)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            bb.design_beam(np.eye(2), bb.PhaseSpec.continuous(), "annealing")

    def test_canonical_global_phase(self):
        M = random_instance(RandomInstanceSpec(4, 2, 77))
        beam = bb.design_beam(M, bb.PhaseSpec.discrete(3), "sdr_grp_cd", seed=5)
        assert abs(np.angle(beam.weights[0])) < 1e-12
