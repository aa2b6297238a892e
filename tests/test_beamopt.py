import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import beambook as bb
import beambook.beamopt as beamopt_module
from beambook.beamopt import _max_eigenpairs
from beambook.efield import field_coherence
from beambook.oracle import RandomInstanceSpec, brute_force_b3, random_instance


def top_eigenpair(M):
    """Largest eigenvalue and pinned unit eigenvector of one Hermitian matrix, as a one-member stack."""
    (lam,), (v,) = _max_eigenpairs(np.asarray(M, dtype=complex)[None])
    return lam, v


def cophased_gain_bound(M):
    """Per-element power optimum for rank-one M: (sum |m_i|)^2 / L."""
    lam, v = top_eigenpair(M)
    m = math.sqrt(lam) * np.abs(v)
    return float(m.sum() ** 2 / m.size)


def snapped_indices(phases, bits):
    """Lattice index k of every weight of from_phases(phases): its phase is k * 2pi/2^b."""
    w = bb.BeamWeights.from_phases(phases, bb.PhaseSpec(bits)).weights
    return np.round(np.angle(w) / (2 * math.pi / 2**bits)).astype(int) % 2**bits


class TestQuantizePhase:
    """Phase quantization: BeamWeights.from_phases in discrete mode."""

    def test_examples(self):
        assert snapped_indices([1.0, 6.1, math.pi / 2, -0.5], 2).tolist() == [1, 0, 1, 0]

    def test_ties_round_down(self):
        assert snapped_indices([math.pi / 4, 3 * math.pi / 4, 7 * math.pi / 4], 2).tolist() == [0, 1, 3]

    def test_idempotent_and_onto_lattice(self):
        rng = np.random.default_rng(0)
        for bits in (1, 2, 3, 5):
            spec = bb.PhaseSpec(bits)
            beam = bb.BeamWeights.from_phases(rng.uniform(0, 2 * math.pi, 500), spec)
            k = snapped_indices(np.angle(beam.weights), bits)
            assert bb.BeamWeights.from_phases(k * (2 * math.pi / 2**bits), spec) == beam
        # every lattice value is reachable
        assert np.unique(snapped_indices(np.linspace(0, 2 * math.pi, 64, endpoint=False), 2)).size == 4


class TestMaxEigenpair:
    def test_diagonal(self):
        lam, v = top_eigenpair(np.diag([2.0, 1.0, 0.0, 0.0]))
        assert_allclose(lam, 2.0)
        assert_allclose(np.abs(v), [1, 0, 0, 0], atol=1e-12)
        assert v[0].real > 0 and abs(v[0].imag) < 1e-12

    def test_rank_one_ones(self):
        m = np.ones(4, dtype=complex)
        lam, v = top_eigenpair(np.outer(m, m.conj()))
        assert_allclose(lam, 4.0)
        assert_allclose(v, m / 2.0, atol=1e-12)

    def test_residual_on_random_instances(self):
        for seed in range(20):
            M = random_instance(RandomInstanceSpec(5, 2, seed))
            lam, v = top_eigenpair(M)
            assert_allclose(np.linalg.norm(v), 1.0, atol=1e-12)
            residual = np.linalg.norm(M @ v - lam * v)
            assert residual <= 1e-9 * max(lam, float(np.real(np.trace(M))))

    def test_zero_matrix(self):
        lam, v = top_eigenpair(np.zeros((3, 3)))
        assert lam == 0.0
        assert_allclose(v, [1, 0, 0])


class TestBeamWeights:
    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            bb.BeamWeights(np.array([1.0, 0.0], dtype=complex), bb.PhaseSpec())

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            bb.BeamWeights(np.array([np.nan, 1.0 + 0.0j]), bb.PhaseSpec())
        for bits in (None, 3):  # a NaN or infinite phase never snaps to a lattice point
            for bad in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match="finite"):
                    bb.BeamWeights.from_phases(np.array([0.0, bad]), bb.PhaseSpec(bits))

    def test_rejects_off_lattice_phase(self):
        w = np.exp(1j * np.array([0.0, 0.3])) / math.sqrt(2)
        with pytest.raises(ValueError):
            bb.BeamWeights(w, bb.PhaseSpec(2))

    def test_from_phases_quantizes(self):
        beam = bb.BeamWeights.from_phases(np.array([0.0, 1.0]), bb.PhaseSpec(2))
        assert_allclose(np.angle(beam.weights), [0.0, math.pi / 2])

    def test_copies_the_callers_array(self):
        w = np.full(4, 0.5 + 0.0j)
        beam = bb.BeamWeights(w, bb.PhaseSpec(2))
        assert not np.shares_memory(beam.weights, w)
        assert w.flags.writeable and not beam.weights.flags.writeable
        w[0] = -0.5
        assert beam.weights[0] == 0.5

    def test_value_equality_and_hash(self):
        continuous = bb.PhaseSpec()
        w = np.exp(1j * np.array([0.0, 0.4, -1.3, 2.9])) / 2.0
        a, b = bb.BeamWeights(w, continuous), bb.BeamWeights(w.copy(), continuous)
        assert a == b and hash(a) == hash(b)
        nudged = w.copy()
        nudged[2] = complex(np.nextafter(nudged[2].real, 1.0), nudged[2].imag)  # one ulp, still feasible
        assert a != bb.BeamWeights(nudged, continuous)
        lattice = np.full(4, 0.5 + 0.0j)
        assert bb.BeamWeights(lattice, continuous) != bb.BeamWeights(lattice, bb.PhaseSpec(2))
        signed_zero = bb.BeamWeights(np.full(4, complex(0.5, -0.0)), continuous)
        assert signed_zero == bb.BeamWeights(lattice, continuous)
        assert hash(signed_zero) == hash(bb.BeamWeights(lattice, continuous))
        assert a != "beam"
        assert len({a, b, bb.BeamWeights(nudged, continuous)}) == 2

    def test_codebooks_compare_by_value(self):
        spec = bb.PhaseSpec(2)
        beam = lambda: bb.BeamWeights(np.full(4, 0.5 + 0.0j), spec)  # noqa: E731
        assert bb.Codebook([bb.CodebookEntry("x", beam())]) == bb.Codebook([bb.CodebookEntry("x", beam())])
        assert bb.Codebook([bb.CodebookEntry("x", beam())]) != bb.Codebook([bb.CodebookEntry("y", beam())])
        assert len({bb.CodebookEntry("x", beam()), bb.CodebookEntry("x", beam())}) == 1

    def test_phase_spec_validation(self):
        with pytest.raises(ValueError):
            bb.PhaseSpec(0)
        with pytest.raises(ValueError):
            bb.PhaseSpec(17)
        for bits in (2.5, 3.0, True, False, np.True_, "3", np.float64(3.0)):
            with pytest.raises(ValueError, match="integer"):
                bb.PhaseSpec(bits)
        spec = bb.PhaseSpec(np.int64(3))
        assert type(spec.bits) is int and spec == bb.PhaseSpec(3) and repr(spec) == "PhaseSpec(bits=3)"


@pytest.mark.parametrize("stage", ["solve_sdr", "gaussian_randomization", "coordinate_descent", "design_beam"])
def test_every_stage_rejects_a_single_matrix(stage):
    M = random_instance(RandomInstanceSpec(3, 2, 1))
    spec = bb.PhaseSpec(2)
    (solution,) = bb.solve_sdr(M[None])
    init = bb.BeamWeights(np.full(3, 1 / math.sqrt(3), dtype=complex), spec)
    calls = {
        "solve_sdr": bb.solve_sdr,
        "gaussian_randomization": lambda m: bb.gaussian_randomization([solution], m, 10, spec, seed=[0]),
        "coordinate_descent": lambda m: bb.coordinate_descent(m, [init], spec),
        "design_beam": lambda m: bb.design_beam(m, spec, seed=[0], n_rand=10),
    }
    assert len(calls[stage](M[None])) == 1
    with pytest.raises(ValueError, match=r"stack \(B, L, L\)"):
        calls[stage](M)


class TestSolveSdr:
    def test_cophasable_rank_one_attains_eigen_bound(self):
        m = np.exp(1j * np.array([0.1, 1.2, -2.0, 0.7]))  # equal magnitudes
        M = np.outer(m, m.conj())
        (sol,) = bb.solve_sdr(M[None])
        assert_allclose(sol.objective, np.linalg.eigvalsh(M)[-1], rtol=1e-12)
        assert sol.rank == 1

    def test_scaled_identity_objective_is_constant(self):
        c = 3.7
        (sol,) = bb.solve_sdr(c * np.eye(5, dtype=complex)[None])
        assert_allclose(sol.objective, c, rtol=1e-12)

    def test_diagonal_constraint_and_psd(self):
        for seed in range(10):
            M = random_instance(RandomInstanceSpec(4, 2, seed))
            (sol,) = bb.solve_sdr(M[None])
            assert_allclose(np.real(np.diag(sol.W)), 0.25, atol=1e-8)
            assert np.max(np.abs(np.imag(np.diag(sol.W)))) < 1e-10
            vals = np.linalg.eigvalsh(sol.W)
            assert vals[0] >= -1e-10 * np.trace(sol.W).real

    def test_objective_between_discrete_optimum_and_eigen_bound(self):
        for seed in range(10):
            M = random_instance(RandomInstanceSpec(4, 2, seed + 50))
            (sol,) = bb.solve_sdr(M[None])
            b3 = brute_force_b3(M, 5).gain
            lam = np.linalg.eigvalsh(M)[-1]
            slack = 1e-8 * np.trace(M).real
            assert b3 - slack <= sol.objective <= lam + slack

    def test_matches_reference_solver(self):
        cp = pytest.importorskip("cvxpy")
        for seed, L in ((0, 3), (1, 4), (2, 6), (3, 8)):
            M = random_instance(RandomInstanceSpec(L, 2, seed + 500))
            (sol,) = bb.solve_sdr(M[None])
            W = cp.Variable((L, L), hermitian=True)
            constraints = [W >> 0] + [cp.real(W[i, i]) == 1.0 / L for i in range(L)]
            problem = cp.Problem(cp.Maximize(cp.real(cp.trace(M @ W))), constraints)
            problem.solve(solver=cp.CLARABEL)
            assert abs(sol.objective - problem.value) <= 1e-5 * np.trace(M).real

    def test_matches_reference_solver_at_design_envelope(self):
        cp = pytest.importorskip("cvxpy")
        L = 16
        M = random_instance(RandomInstanceSpec(L, 2, 60))
        (sol,) = bb.solve_sdr(M[None])
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
        (sol,) = bb.solve_sdr(M[None])
        trace = np.trace(M).real
        lam = np.linalg.eigvalsh(M)[-1]
        assert sol.objective <= sol.bound <= lam + 1e-8 * trace
        assert sol.bound - sol.objective <= 1e-5 * trace

    def test_shortcut_certificates(self):
        (zero,) = bb.solve_sdr(np.zeros((1, 3, 3)))
        assert zero.bound == zero.objective == 0.0
        m = np.exp(1j * np.array([0.1, 1.2, -2.0, 0.7]))
        (rank_one,) = bb.solve_sdr(np.outer(m, m.conj())[None])
        assert rank_one.objective <= rank_one.bound <= rank_one.objective + 1e-12 * 4.0
        (single,) = bb.solve_sdr(np.array([[[2.5]]]))
        assert single.objective == single.bound == 2.5

    def test_stack_returns_batch_with_slowest_member_sweeps(self):
        M = np.stack([random_instance(RandomInstanceSpec(5, r, 40 + r)) for r in (1, 2, 5)])
        solutions = bb.solve_sdr(M)
        assert isinstance(solutions, tuple) and len(solutions) == 3
        assert all(isinstance(s, bb.SdrSolution) for s in solutions)
        assert solutions[0].iterations == 0  # rank-one shortcut
        # The sweeps of the slowest member, read off the members: the benchmark's tracer reads them.
        assert solutions.iterations == max(s.iterations for s in solutions) > 0
        empty = bb.solve_sdr(np.zeros((0, 3, 3)))
        assert empty == () and empty.iterations == 0

    def test_sweep_cap_raises_with_best_iterate(self):
        from beambook.beamopt import SdrConvergenceError

        M = random_instance(RandomInstanceSpec(6, 3, 5))
        with pytest.raises(SdrConvergenceError, match="relaxation 0 of 1 did not settle") as excinfo:
            bb.solve_sdr(M[None], max_sweeps=1)
        (best,) = excinfo.value.solution
        assert_allclose(np.real(np.diag(best.W)), 1.0 / 6.0, atol=1e-10)
        assert best.residual > 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            bb.solve_sdr(np.array([[[0.0, 1.0], [0.0, 0.0]]]))  # not Hermitian
        with pytest.raises(ValueError):
            bb.solve_sdr(np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])]))  # one member not Hermitian
        with pytest.raises(ValueError):
            bb.solve_sdr(np.stack([np.eye(2), -np.eye(2)]))  # one member not PSD
        with pytest.raises(ValueError):
            bb.solve_sdr(np.ones((1, 2, 3)))  # not square
        with pytest.raises(ValueError):
            bb.solve_sdr(np.ones(3))  # not a stack
        with pytest.raises(ValueError):
            bb.solve_sdr(-np.eye(2)[None])  # not PSD

    @pytest.mark.parametrize(
        "kwargs", [{"max_sweeps": 0.5}, {"max_sweeps": np.int64(0)}, {"max_sweeps": 0}, {"max_sweeps": -1}]
    )
    def test_rejects_bad_solver_settings(self, kwargs):
        # Unchecked, a cap below 1 raises SdrConvergenceError after no sweep at all;
        # a fractional cap or a NumPy integer is held to the same rule.
        M = np.array([[2.0, 1.0], [1.0, 2.0]])
        with pytest.raises(ValueError, match="max_sweeps"):
            bb.solve_sdr(M[None], **kwargs)
        with pytest.raises(ValueError, match="max_sweeps"):
            bb.solve_sdr(np.stack([M, np.eye(2)]), **kwargs)


class TestGaussianRandomization:
    def test_rank_one_continuous_reaches_cophasing(self):
        rng = np.random.default_rng(4)
        m = rng.uniform(0.5, 2.0, 4) * np.exp(1j * rng.uniform(0, 2 * math.pi, 4))
        M = np.outer(m, m.conj())
        (beam,) = bb.gaussian_randomization(bb.solve_sdr(M[None]), M[None], 100, bb.PhaseSpec(), seed=[0])
        assert_allclose(beam.gain(M), cophased_gain_bound(M), rtol=1e-12)

    def test_lattice_aligned_discrete_is_exact(self):
        m = np.array([1.0, 1.0j, -1.0, -1.0j])
        M = np.outer(m, m.conj())
        (beam,) = bb.gaussian_randomization(bb.solve_sdr(M[None]), M[None], 1000, bb.PhaseSpec(2), seed=[1])
        assert_allclose(beam.gain(M), 4.0, rtol=1e-12)

    def test_deterministic_given_seed(self):
        M = random_instance(RandomInstanceSpec(4, 2, 11))[None]
        sol = bb.solve_sdr(M)
        (a,) = bb.gaussian_randomization(sol, M, 200, bb.PhaseSpec(3), seed=[42])
        (b,) = bb.gaussian_randomization(sol, M, 200, bb.PhaseSpec(3), seed=[42])
        assert np.array_equal(a.weights, b.weights)

    def test_a_bare_solution_is_rejected_and_any_sequence_reads_as_a_stack(self):
        # An SdrSolution is a tuple itself; it must never be read as a sequence of solutions.
        M = np.stack([random_instance(RandomInstanceSpec(4, 2, s)) for s in (11, 12, 13)])
        spec = bb.PhaseSpec(3)
        solutions = bb.solve_sdr(M)
        with pytest.raises(ValueError, match="sequence of SdrSolution records"):
            bb.gaussian_randomization(solutions[0], M[:1], 200, spec, seed=[42])
        (one,) = bb.gaussian_randomization(solutions[:1], M[:1], 200, spec, seed=[42])
        assert isinstance(one, bb.BeamWeights)
        stacked = bb.gaussian_randomization(solutions, M, 200, spec, seed=[42, 43, 44])
        assert bb.gaussian_randomization(tuple(solutions), M, 200, spec, seed=[42, 43, 44]) == stacked
        assert bb.gaussian_randomization(list(solutions), M, 200, spec, seed=[42, 43, 44]) == stacked
        assert stacked[0] == one
        # Lattice indices of the beams, as the stacked call picked them before its solutions became a tuple.
        expected = [[6, 1, 7, 4], [6, 1, 0, 2], [6, 2, 5, 7]]
        assert stacked == tuple(bb.BeamWeights.from_phases(np.array(k) * math.pi / 4, spec) for k in expected)

    def test_mean_approximation_ratio(self):
        # sample-mean of achieved/SDP-objective across instances clears the
        # (2^b sin(pi/2^b))^2 / (4 pi) guarantee with margin
        bits = 2
        ratio_bound = (2**bits * math.sin(math.pi / 2**bits)) ** 2 / (4 * math.pi)
        ratios = []
        for seed in range(40):
            M = random_instance(RandomInstanceSpec(4, 2, seed + 900))
            (sol,) = bb.solve_sdr(M[None])
            (beam,) = bb.gaussian_randomization([sol], M[None], 1000, bb.PhaseSpec(bits), seed=[seed])
            ratios.append(beam.gain(M) / sol.objective)
        assert np.mean(ratios) >= ratio_bound


class TestCoordinateDescent:
    def test_rank_one_converges_to_cophasing(self):
        rng = np.random.default_rng(5)
        m = rng.uniform(0.5, 2.0, 5) * np.exp(1j * rng.uniform(0, 2 * math.pi, 5))
        M = np.outer(m, m.conj())
        _, v = top_eigenpair(M)
        init = bb.BeamWeights(np.exp(1j * np.angle(v)) / math.sqrt(5), bb.PhaseSpec())
        (result,) = bb.coordinate_descent(M[None], [init], bb.PhaseSpec())
        assert_allclose(result.objectives[-1], cophased_gain_bound(M), rtol=1e-12)

    def test_optimal_input_is_fixed_point(self):
        m = np.exp(1j * np.array([0.0, 0.5, 1.0, 1.5]))
        M = np.outer(m, m.conj())
        w = m / 2.0
        init = bb.BeamWeights(w, bb.PhaseSpec())
        (result,) = bb.coordinate_descent(M[None], [init], bb.PhaseSpec())
        assert_allclose(result.weights.weights, w, atol=1e-12)
        assert result.objectives.size == 2  # one sweep confirms convergence

    def test_monotone_and_bounded(self):
        for seed in range(20):
            M = random_instance(RandomInstanceSpec(4, 2, seed + 100))
            _, v = top_eigenpair(M)
            init = bb.BeamWeights(np.exp(1j * np.angle(v)) / 2.0, bb.PhaseSpec())
            (result,) = bb.coordinate_descent(M[None], [init], bb.PhaseSpec())
            assert np.all(np.diff(result.objectives) >= -1e-12 * np.trace(M).real)
            assert result.objectives[-1] >= result.objectives[0]
            assert result.objectives[-1] <= np.linalg.eigvalsh(M)[-1] + 1e-8

    def test_discrete_requires_lattice_init(self):
        M = random_instance(RandomInstanceSpec(3, 2, 0))
        init = bb.BeamWeights(np.exp(1j * np.array([0.0, 0.3, 0.9])) / math.sqrt(3), bb.PhaseSpec())
        with pytest.raises(ValueError):
            bb.coordinate_descent(M[None], [init], bb.PhaseSpec(2))

    def test_a_bare_init_is_rejected(self):
        M = random_instance(RandomInstanceSpec(3, 2, 0))[None]
        init = bb.BeamWeights(np.ones(3) / math.sqrt(3), bb.PhaseSpec(2))
        with pytest.raises(ValueError, match="sequence of BeamWeights"):
            bb.coordinate_descent(M, init, bb.PhaseSpec(2))
        (result,) = bb.coordinate_descent(M, [init], bb.PhaseSpec(2))
        assert isinstance(result.weights, bb.BeamWeights)

    def test_zero_coupling_leaves_element_unchanged(self):
        M = np.diag([1.0, 2.0]).astype(complex)  # off-diagonal contributions vanish
        init = bb.BeamWeights(np.exp(1j * np.array([0.4, 1.1])) / math.sqrt(2), bb.PhaseSpec())
        (result,) = bb.coordinate_descent(M[None], [init], bb.PhaseSpec())
        assert np.array_equal(result.weights.weights, init.weights)


class TestDesignBeam:
    def test_strategies_agree_on_lattice_aligned_broadside(self):
        grid, _ = bb.generate_ula_efield(bb.SyntheticUlaSpec(4, 0.5))
        M = field_coherence(*grid.fields_at(bb.DirectionSet([90.0], [0.0], [1.0])))
        spec = bb.PhaseSpec(5)
        gains = {}
        for strategy in ("eigen", "sdr_grp_cd"):
            (beam,) = bb.design_beam(M[None], spec, strategy, seed=[3])
            gains[strategy] = beam.gain(M) / np.trace(M).real * 4  # normalize to element count
            assert bb.design_beam(M[None], spec, strategy, seed=[3]) == (beam,)  # deterministic
        for g in gains.values():
            assert_allclose(g, 4.0, rtol=1e-10)

    def test_eigen_never_beats_full_pipeline(self):
        spec = bb.PhaseSpec(2)
        for seed in range(60):
            M = random_instance(RandomInstanceSpec(4, 2, seed + 300))
            slack = 1e-8 * np.trace(M).real
            ge = bb.design_beam(M[None], spec, "eigen", seed=[0])[0].gain(M)
            gc = bb.design_beam(M[None], spec, "sdr_grp_cd", seed=[seed], n_rand=300)[0].gain(M)
            assert ge <= gc + slack

    def test_feasible_gain_chain(self):
        # every feasible design sits below its constraint-level optimum
        for seed in range(15):
            M = random_instance(RandomInstanceSpec(4, 2, seed + 700))
            slack = 1e-8 * np.trace(M).real
            lam = np.linalg.eigvalsh(M)[-1]
            (sdr,) = bb.solve_sdr(M[None])
            b3 = brute_force_b3(M, 2).gain
            (beam,) = bb.design_beam(M[None], bb.PhaseSpec(2), "sdr_grp_cd", seed=[seed])
            assert beam.gain(M) <= b3 + slack
            assert b3 <= sdr.objective + slack <= lam + 2 * slack

    def test_stack_takes_one_seed_per_member(self):
        M = np.stack([random_instance(RandomInstanceSpec(4, 2, seed)) for seed in (1, 2)])
        beams = bb.design_beam(M, bb.PhaseSpec(3), seed=[7, 8], n_rand=50)
        assert len(beams) == 2 and all(isinstance(b, bb.BeamWeights) for b in beams)
        for seed in ([7], 7):
            with pytest.raises(ValueError):
                bb.design_beam(M, bb.PhaseSpec(3), seed=seed, n_rand=50)

    def test_unknown_strategy_rejected(self):
        for strategy in ("annealing", "sdr_grp"):
            with pytest.raises(ValueError, match="unknown strategy"):
                bb.design_beam(np.eye(2)[None], bb.PhaseSpec(), strategy, seed=[0])

    @pytest.mark.parametrize("strategy", ["sdr_grp_cd"])
    def test_relaxation_at_the_sweep_cap_degrades_instead_of_aborting(self, strategy):
        # This instance's relaxation is still improving by 1.4e-08 per sweep at the 5000-sweep cap.
        capped = random_instance(RandomInstanceSpec(3, 3, 238))
        with pytest.raises(bb.SdrConvergenceError) as excinfo:
            bb.solve_sdr(capped[None])
        (best,) = excinfo.value.solution
        assert best.iterations == 5000 and 0.0 < best.bound - best.objective < 1e-4
        assert excinfo.value.members == (0,)
        spec = bb.PhaseSpec(3)
        gap = f"certified gap {best.bound - best.objective:.3e}"
        with pytest.warns(UserWarning) as fallbacks:
            (beam,) = bb.design_beam(capped[None], spec, strategy, seed=[5])
        assert [str(w.message) for w in fallbacks] == [
            f"relaxation 0 of 1 did not settle within 5000 sweeps; designing from its best iterate ({gap})"
        ]
        assert beam.gain(capped) <= best.bound
        assert beam.gain(capped) == pytest.approx(brute_force_b3(capped, 3).gain, rel=1e-12)
        # Inside a stack the capped member gets the same beam, and every other member its beam of a stack of one.
        others = [random_instance(RandomInstanceSpec(3, rank, seed)) for rank, seed in ((1, 1), (3, 2), (2, 3))]
        with pytest.warns(UserWarning) as fallbacks:
            stacked = bb.design_beam(np.stack([others[0], capped, *others[1:]]), spec, strategy, seed=[1, 5, 2, 3])
        assert [str(w.message) for w in fallbacks] == [
            f"relaxation 1 of 4 did not settle within 5000 sweeps; designing from its best iterate ({gap})"
        ]
        assert stacked[1] == beam
        for member, seed, got in zip(others, (1, 2, 3), (stacked[0], *stacked[2:])):
            assert (got,) == bb.design_beam(member[None], spec, strategy, seed=[seed])

    def test_canonical_global_phase(self):
        M = random_instance(RandomInstanceSpec(4, 2, 77))
        (beam,) = bb.design_beam(M[None], bb.PhaseSpec(3), "sdr_grp_cd", seed=[5])
        assert abs(np.angle(beam.weights[0])) < 1e-12

    @pytest.mark.parametrize("bits", [1, 2, 3, 5])
    def test_every_rotation_of_a_lattice_beam_gives_one_byte_pattern(self, bits):
        spec = bb.PhaseSpec(bits)
        step = 2 * math.pi / 2**bits
        index = np.random.default_rng(bits).integers(0, 2**bits, 6)
        canonical = bb.BeamWeights.from_phases((index - index[0]) % 2**bits * step, spec)
        for strategy in ("eigen", "sdr_grp_cd"):
            designed = []
            for r in range(2**bits):
                w = bb.BeamWeights.from_phases((index + r) * step, spec).weights
                designed += bb.design_beam(np.outer(w, w.conj())[None], spec, strategy, seed=[r])
            assert {beam.weights.tobytes() for beam in designed} == {canonical.weights.tobytes()}
            assert all(beam == canonical for beam in designed) and len(set(designed)) == 1

    @pytest.mark.parametrize("bits", [1, 3, 5])
    def test_rank_one_discrete_members_are_exact_for_any_seed(self, bits, monkeypatch):
        spec = bb.PhaseSpec(bits)
        stack = np.stack([random_instance(RandomInstanceSpec(5, 1, seed)) for seed in range(8)])
        beams = bb.design_beam(stack, spec, seed=list(range(8)))

        def no_draws(*args, **kwargs):
            raise AssertionError("a rank-one member drew a randomization")

        monkeypatch.setattr(beamopt_module, "gaussian_randomization", no_draws)
        assert bb.design_beam(stack, spec, seed=[10**6 + i for i in range(8)], n_rand=1) == beams
        for m, beam in zip(stack, beams):
            (alone,) = bb.design_beam(m[None], spec, seed=[99])
            assert np.array_equal(alone.weights, beam.weights)

    @pytest.mark.parametrize(
        "v, bits, first, tied",
        [
            # arg v_1 = -pi/4 sits halfway between two 2-bit lattice points; the first midpoint gives (0, 3).
            ([2, 1 - 1j], 2, (0, 0), (0, 3)),
            # v^H w is 2 + 2j for (0, 0, 0) and 2 - 2j for (0, 1, 1); the first midpoint gives (0, 1, 1).
            ([2, -1j, -1j], 1, (0, 0, 0), (0, 1, 1)),
        ],
    )
    def test_a_tie_goes_to_the_lexicographically_first_canonical_beam(self, v, bits, first, tied):
        M = np.outer(v, np.conj(v))
        spec = bb.PhaseSpec(bits)
        step = 2 * math.pi / 2**bits
        winner, loser = (bb.BeamWeights.from_phases(np.array(k) * step, spec) for k in (first, tied))
        assert winner.gain(M) == loser.gain(M) == brute_force_b3(M, bits).gain
        (exact,) = beamopt_module._rank_one_lattice_beams(M[None], bits)
        assert np.array_equal(exact, winner.weights)
