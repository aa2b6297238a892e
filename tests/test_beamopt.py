import functools
import math
import re

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


def gain(w, M):
    """w^H M w of one beam's weights w (L,)."""
    return float(np.real(w.conj() @ M @ w))


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


@pytest.mark.parametrize(
    "stage", ["solve_sdr", "gaussian_randomization", "coordinate_descent", "design_beam", "eigen_beams"]
)
def test_every_stage_rejects_a_single_matrix(stage):
    M = random_instance(RandomInstanceSpec(3, 2, 1))
    spec = bb.PhaseSpec(2)
    (solution,) = bb.solve_sdr(M[None])
    init = np.full((1, 3), 1 / math.sqrt(3), dtype=complex)
    calls = {
        "solve_sdr": bb.solve_sdr,
        "gaussian_randomization": lambda m: bb.gaussian_randomization([solution], m, 10, spec, seed=[0]),
        "coordinate_descent": lambda m: bb.coordinate_descent(m, init, spec).weights,
        "design_beam": lambda m: bb.design_beam(m, spec, seed=[0], n_rand=10),
        "eigen_beams": lambda m: bb.eigen_beams(m, spec),
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
        # A rank-one M, a relaxation the phase ascent certifies, and one it does not.
        M = np.stack([random_instance(RandomInstanceSpec(5, r, seed)) for r, seed in ((1, 41), (2, 42), (3, 205))])
        solutions = bb.solve_sdr(M)
        assert isinstance(solutions, tuple) and len(solutions) == 3
        assert all(isinstance(s, bb.SdrSolution) for s in solutions)
        assert solutions[0].iterations == solutions[1].iterations == 0  # rank-one shortcut, certified
        assert solutions[2].iterations == 1749  # the barrier ascent
        # The sweeps of the slowest member, read off the members: the benchmark's tracer reads them.
        assert solutions.iterations == max(s.iterations for s in solutions) > 0
        empty = bb.solve_sdr(np.zeros((0, 3, 3)))
        assert empty == () and empty.iterations == 0

    def test_sweep_cap_warns_and_keeps_best_iterate(self):
        M = random_instance(RandomInstanceSpec(5, 3, 205))  # uncertified: the barrier ascent takes 1749 sweeps
        with pytest.warns(UserWarning, match="relaxation 0 of 1 did not settle within 1 sweeps; keeping its best"):
            (best,) = bb.solve_sdr(M[None], max_sweeps=1)
        assert_allclose(np.real(np.diag(best.W)), 1.0 / 5.0, atol=1e-10)
        assert best.residual > 0.0 and best.iterations == 1

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
        "kwargs", [{"max_sweeps": 0.5}, {"max_sweeps": np.int64(0)}, {"max_sweeps": 0}, {"max_sweeps": -1},
                   {"max_sweeps": True}, {"max_sweeps": 2.5}]
    )
    def test_rejects_bad_solver_settings(self, kwargs):
        # Unchecked, a cap below 1 returns the start I/L with a warning, after no sweep at all;
        # a fractional cap, a NumPy integer or a bool (which would run one sweep) is held to the same rule.
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
        assert_allclose(gain(beam, M), cophased_gain_bound(M), rtol=1e-12)

    def test_lattice_aligned_discrete_is_exact(self):
        m = np.array([1.0, 1.0j, -1.0, -1.0j])
        M = np.outer(m, m.conj())
        (beam,) = bb.gaussian_randomization(bb.solve_sdr(M[None]), M[None], 1000, bb.PhaseSpec(2), seed=[1])
        assert_allclose(gain(beam, M), 4.0, rtol=1e-12)

    def test_deterministic_given_seed(self):
        M = random_instance(RandomInstanceSpec(4, 2, 308))[None]  # a rank-2 relaxation: the beam is drawn
        sol = bb.solve_sdr(M)
        (a,) = bb.gaussian_randomization(sol, M, 200, bb.PhaseSpec(3), seed=[42])
        (b,) = bb.gaussian_randomization(sol, M, 200, bb.PhaseSpec(3), seed=[42])
        assert np.array_equal(a, b)

    def test_a_bare_solution_is_rejected_and_any_sequence_reads_as_a_stack(self):
        # An SdrSolution is a tuple itself; it must never be read as a sequence of solutions.
        # Three rank-2 relaxations, so every beam is drawn.
        M = np.stack([random_instance(RandomInstanceSpec(4, 2, s)) for s in (70, 249, 308)])
        spec = bb.PhaseSpec(3)
        solutions = bb.solve_sdr(M)
        with pytest.raises(ValueError, match="sequence of SdrSolution records"):
            bb.gaussian_randomization(solutions[0], M[:1], 200, spec, seed=[42])
        one = bb.gaussian_randomization(solutions[:1], M[:1], 200, spec, seed=[42])
        assert isinstance(one, np.ndarray) and one.shape == (1, 4)
        stacked = bb.gaussian_randomization(solutions, M, 200, spec, seed=[42, 43, 44])
        assert np.array_equal(bb.gaussian_randomization(tuple(solutions), M, 200, spec, seed=[42, 43, 44]), stacked)
        assert np.array_equal(bb.gaussian_randomization(list(solutions), M, 200, spec, seed=[42, 43, 44]), stacked)
        assert np.array_equal(stacked[:1], one)
        # Lattice indices of the beams, as scoring every draw of each member alone picks them.
        expected = [[7, 2, 6, 5], [4, 7, 4, 5], [0, 6, 5, 4]]
        assert np.array_equal(stacked, [bb.BeamWeights.from_phases(np.array(k) * math.pi / 4, spec).weights
                                        for k in expected])

    @pytest.mark.parametrize("n_rand", [True, 2.5, 0])
    def test_n_rand_is_a_count(self, n_rand):
        # Checked before any route: a rank-one relaxation, which draws nothing, rejects it too.
        M = np.ones((1, 2, 2), dtype=complex)
        with pytest.raises(ValueError, match="n_rand must be an integer >= 1"):
            bb.gaussian_randomization(bb.solve_sdr(M), M, n_rand, bb.PhaseSpec(), seed=[0])
        with pytest.raises(ValueError, match="n_rand must be an integer >= 1"):
            bb.design_beam(M, bb.PhaseSpec(2), seed=[0], n_rand=n_rand)

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
            ratios.append(gain(beam, M) / sol.objective)
        assert np.mean(ratios) >= ratio_bound


class TestCoordinateDescent:
    def test_rank_one_converges_to_cophasing(self):
        rng = np.random.default_rng(5)
        m = rng.uniform(0.5, 2.0, 5) * np.exp(1j * rng.uniform(0, 2 * math.pi, 5))
        M = np.outer(m, m.conj())
        _, v = top_eigenpair(M)
        init = np.exp(1j * np.angle(v)) / math.sqrt(5)
        result = bb.coordinate_descent(M[None], init[None], bb.PhaseSpec())
        assert_allclose(result.objectives[-1, 0], cophased_gain_bound(M), rtol=1e-12)

    def test_optimal_input_is_fixed_point(self):
        m = np.exp(1j * np.array([0.0, 0.5, 1.0, 1.5]))
        M = np.outer(m, m.conj())
        w = m / 2.0
        result = bb.coordinate_descent(M[None], w[None], bb.PhaseSpec())
        assert_allclose(result.weights[0], w, atol=1e-12)
        assert result.objectives.shape == (2, 1) and result.sweeps.tolist() == [1]  # one sweep confirms convergence

    @pytest.mark.parametrize("bits", [1, 3, 5])
    def test_a_discrete_fixed_point_reports_its_sweep_without_running_it(self, bits, monkeypatch):
        spec = bb.PhaseSpec(bits)
        M = np.stack([random_instance(RandomInstanceSpec(16, r, 3)) for r in (1, 16)])
        start = np.stack([bb.BeamWeights.from_phases(np.zeros(16), spec).weights] * 2)
        fixed = bb.coordinate_descent(M, start, spec).weights
        objectives = beamopt_module._quadratic_forms(M, fixed)
        feasible, snapped = beamopt_module._feasible, []
        monkeypatch.setattr(beamopt_module, "_feasible", lambda p, *args: snapped.append(np.shape(p)) or feasible(p, *args))
        result = bb.coordinate_descent(M, fixed, spec)
        assert snapped == [(2, 16)] * 2  # the input's lattice check and the stationary test, and no sweep
        assert result.weights.tobytes() == fixed.tobytes() and result.sweeps.tolist() == [1, 1]
        assert result.objectives.tobytes() == np.stack([objectives] * 2).tobytes()

    def test_monotone_and_bounded(self):
        for seed in range(20):
            M = random_instance(RandomInstanceSpec(4, 2, seed + 100))
            _, v = top_eigenpair(M)
            init = np.exp(1j * np.angle(v)) / 2.0
            trace = bb.coordinate_descent(M[None], init[None], bb.PhaseSpec()).objectives[:, 0]
            assert np.all(np.diff(trace) >= 0.0)
            assert trace[-1] >= trace[0]
            assert trace[-1] <= np.linalg.eigvalsh(M)[-1] + 1e-8

    def test_a_sweep_that_lowers_the_objective_is_undone(self):
        # At b=1 the one sweep on (0, 1) rounds to (0, 0), whose gain 0.9999999999999998 is below 1.0.
        v = np.array([1.0, 1.0j])
        M = np.outer(v, v.conj())
        spec = bb.PhaseSpec(1)
        init = bb.BeamWeights.from_phases(np.array([0.0, math.pi]), spec)
        assert init.gain(M) == 1.0
        result = bb.coordinate_descent(M[None], init.weights[None], spec)
        assert result.objectives.tolist() == [[1.0], [1.0]]
        assert np.array_equal(result.weights, init.weights[None])

    def test_discrete_requires_lattice_init(self):
        M = random_instance(RandomInstanceSpec(3, 2, 0))
        init = np.exp(1j * np.array([[0.0, 0.3, 0.9]])) / math.sqrt(3)
        bb.coordinate_descent(M[None], init, bb.PhaseSpec())  # feasible for continuous phases
        with pytest.raises(ValueError, match="lattice"):
            bb.coordinate_descent(M[None], init, bb.PhaseSpec(2))

    def test_a_bare_init_is_rejected(self):
        M = random_instance(RandomInstanceSpec(3, 2, 0))[None]
        init = np.ones(3, dtype=complex) / math.sqrt(3)
        with pytest.raises(ValueError, match=r"\(B, L\) array"):
            bb.coordinate_descent(M, init, bb.PhaseSpec(2))
        result = bb.coordinate_descent(M, init[None], bb.PhaseSpec(2))
        assert isinstance(result, bb.CoordinateDescentResult) and result.weights.shape == (1, 3)

    @pytest.mark.parametrize("shape", [(1, 4), (2, 3), (1, 1, 3)])
    def test_an_init_of_another_shape_is_rejected(self, shape):
        M = random_instance(RandomInstanceSpec(3, 2, 0))[None]
        with pytest.raises(ValueError, match=r"\(B, L\) array"):
            bb.coordinate_descent(M, np.ones(shape, dtype=complex) / math.sqrt(shape[-1]), bb.PhaseSpec())

    def test_a_continuous_init_off_the_element_magnitude_is_rejected(self):
        # A unit-norm beam whose entries are not all 1/sqrt(L): no wrapper type checks an array first.
        M = random_instance(RandomInstanceSpec(3, 2, 0))[None]
        init = np.array([[0.8, 0.6, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="per-element magnitude"):
            bb.coordinate_descent(M, init, bb.PhaseSpec())

    def test_zero_coupling_leaves_element_unchanged(self):
        M = np.diag([1.0, 2.0]).astype(complex)  # off-diagonal contributions vanish
        init = np.exp(1j * np.array([0.4, 1.1])) / math.sqrt(2)
        result = bb.coordinate_descent(M[None], init[None], bb.PhaseSpec())
        assert np.array_equal(result.weights[0], init)


class TestDesignBeam:
    def test_strategies_agree_on_lattice_aligned_broadside(self):
        grid, _ = bb.generate_ula_efield(bb.SyntheticUlaSpec(4, 0.5))
        M = field_coherence(*grid.fields_at(bb.DirectionSet([90.0], [0.0], [1.0])))
        spec = bb.PhaseSpec(5)
        for design in (lambda: bb.eigen_beams(M[None], spec), lambda: bb.design_beam(M[None], spec, seed=[3])):
            (beam,) = design()
            assert_allclose(beam.gain(M) / np.trace(M).real * 4, 4.0, rtol=1e-10)  # normalized to element count
            assert design() == (beam,)  # deterministic

    def test_eigen_never_beats_full_pipeline(self):
        spec = bb.PhaseSpec(2)
        for seed in range(60):
            M = random_instance(RandomInstanceSpec(4, 2, seed + 300))
            slack = 1e-8 * np.trace(M).real
            ge = bb.eigen_beams(M[None], spec)[0].gain(M)
            gc = bb.design_beam(M[None], spec, seed=[seed], n_rand=300)[0].gain(M)
            assert ge <= gc + slack

    def test_feasible_gain_chain(self):
        # every feasible design sits below its constraint-level optimum
        for seed in range(15):
            M = random_instance(RandomInstanceSpec(4, 2, seed + 700))
            slack = 1e-8 * np.trace(M).real
            lam = np.linalg.eigvalsh(M)[-1]
            (sdr,) = bb.solve_sdr(M[None])
            b3 = brute_force_b3(M, 2).gain
            (beam,) = bb.design_beam(M[None], bb.PhaseSpec(2), seed=[seed])
            assert beam.gain(M) <= b3 + slack
            assert b3 <= sdr.objective + slack <= lam + 2 * slack

    def test_stack_takes_one_seed_per_member(self):
        M = np.stack([random_instance(RandomInstanceSpec(4, 2, seed)) for seed in (1, 2)])
        beams = bb.design_beam(M, bb.PhaseSpec(3), seed=[7, 8], n_rand=50)
        assert len(beams) == 2 and all(isinstance(b, bb.BeamWeights) for b in beams)
        for seed in ([7], 7):
            with pytest.raises(ValueError):
                bb.design_beam(M, bb.PhaseSpec(3), seed=seed, n_rand=50)

    def test_relaxation_at_the_sweep_cap_degrades_instead_of_aborting(self, monkeypatch):
        # The phase ascent does not certify this instance, and its barrier ascent settles after 1749
        # sweeps.  Capped at 1300, it is still improving by more than ten times its stage tolerance.
        capped = random_instance(RandomInstanceSpec(5, 3, 205))
        cap = 1300
        with pytest.warns(UserWarning) as fallbacks:
            (best,) = bb.solve_sdr(capped[None], max_sweeps=cap)
        assert best.iterations == cap and 0.0 < best.bound - best.objective < 1e-4
        gap = f"certified gap {best.bound - best.objective:.3e}"
        assert [str(w.message) for w in fallbacks] == [
            f"relaxation 0 of 1 did not settle within {cap} sweeps; keeping its best iterate ({gap})"
        ]
        spec = bb.PhaseSpec(3)
        (settled,) = bb.design_beam(capped[None], spec, seed=[5])
        # design_beam relaxes with the default cap; here every relaxation it solves is capped at 1300.
        monkeypatch.setattr(beamopt_module, "solve_sdr", functools.partial(bb.solve_sdr, max_sweeps=cap))
        with pytest.warns(UserWarning) as fallbacks:
            (beam,) = bb.design_beam(capped[None], spec, seed=[5])
        assert [str(w.message) for w in fallbacks] == [
            f"relaxation 0 of 1 did not settle within {cap} sweeps; keeping its best iterate ({gap})"
        ]
        assert beam.gain(capped) <= best.bound
        assert beam.gain(capped) == pytest.approx(brute_force_b3(capped, 3).gain, rel=1e-12)
        # The beam's lattice indices, pinned: keeping the best iterate must not change the design.
        assert beam == settled == bb.BeamWeights.from_phases(np.array([0, 5, 2, 5, 6]) * math.pi / 4, spec)
        # Inside a stack the capped member gets the same beam, and every other member its beam of a stack of one.
        others = [random_instance(RandomInstanceSpec(5, rank, seed)) for rank, seed in ((1, 1), (3, 2), (2, 3))]
        with pytest.warns(UserWarning) as fallbacks:
            stacked = bb.design_beam(np.stack([others[0], capped, *others[1:]]), spec, seed=[1, 5, 2, 3])
        assert [str(w.message) for w in fallbacks] == [
            f"relaxation 1 of 4 did not settle within {cap} sweeps; keeping its best iterate ({gap})"
        ]
        assert stacked[1] == beam
        for member, seed, got in zip(others, (1, 2, 3), (stacked[0], *stacked[2:])):
            assert (got,) == bb.design_beam(member[None], spec, seed=[seed])

    def test_canonical_global_phase(self):
        M = random_instance(RandomInstanceSpec(4, 2, 77))
        (beam,) = bb.design_beam(M[None], bb.PhaseSpec(3), seed=[5])
        assert abs(np.angle(beam.weights[0])) < 1e-12

    @pytest.mark.parametrize("bits", [1, 2, 3, 5])
    def test_every_rotation_of_a_lattice_beam_gives_one_byte_pattern(self, bits):
        spec = bb.PhaseSpec(bits)
        step = 2 * math.pi / 2**bits
        index = np.random.default_rng(bits).integers(0, 2**bits, 6)
        canonical = bb.BeamWeights.from_phases((index - index[0]) % 2**bits * step, spec)
        for design in (lambda M, r: bb.eigen_beams(M, spec), lambda M, r: bb.design_beam(M, spec, seed=[r])):
            designed = []
            for r in range(2**bits):
                w = bb.BeamWeights.from_phases((index + r) * step, spec).weights
                designed += design(np.outer(w, w.conj())[None], r)
            assert {beam.weights.tobytes() for beam in designed} == {canonical.weights.tobytes()}
            assert all(beam == canonical for beam in designed) and len(set(designed)) == 1

    @pytest.mark.parametrize("bits", [1, 3, 5])
    def test_rank_one_discrete_members_are_exact_for_any_seed(self, bits, monkeypatch):
        # Eight rank-one M, then two full-rank M whose relaxations the phase ascent certifies as rank one.
        spec = bb.PhaseSpec(bits)
        instances = [RandomInstanceSpec(5, 1, seed) for seed in range(8)] + [RandomInstanceSpec(5, 5, s) for s in (0, 45)]
        stack = np.stack([random_instance(instance) for instance in instances])
        beams = bb.design_beam(stack, spec, seed=list(range(10)))

        def no_draws(*args, **kwargs):
            raise AssertionError("a rank-one member drew a randomization")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        assert bb.design_beam(stack, spec, seed=[10**6 + i for i in range(10)], n_rand=1) == beams
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
        # Fed v itself or M's pinned eigenvector, which differ by a global phase and a scale.
        for u in (np.array(v, dtype=complex), top_eigenpair(M)[1]):
            (exact,) = beamopt_module._rank_one_lattice_beams(u[None], M[None], bits)
            assert np.array_equal(exact, winner.weights)


def forbid_draws(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("a randomization was drawn")

    monkeypatch.setattr(np.random, "default_rng", no_draws)


def record_draws(monkeypatch) -> list:
    """Patch np.random.default_rng to record each seed it is given; returns that list."""
    seeds, default_rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: seeds.append(seed) or default_rng(seed))
    return seeds


class TestRoutes:
    """Each route from a coherence matrix to a beam: a rank-one M, a certified relaxation, a rank-one W, draws."""

    def test_a_rank_one_matrix_takes_the_closed_form(self, monkeypatch):
        M = random_instance(RandomInstanceSpec(5, 1, 3))
        w = beamopt_module._cophase(top_eigenpair(M)[1])
        monkeypatch.setattr(beamopt_module, "coordinate_descent", None)  # no phase ascent in solve_sdr
        (solution,) = bb.solve_sdr(M[None])
        assert (solution.iterations, solution.rank, solution.residual) == (0, 1, 0.0)
        assert np.array_equal(solution.W, np.outer(w, w.conj()))
        monkeypatch.undo()
        forbid_draws(monkeypatch)
        (beam,) = bb.design_beam(M[None], bb.PhaseSpec(3), seed=[0])
        assert beam.gain(M) == pytest.approx(brute_force_b3(M, 3).gain, rel=1e-12)

    def test_a_certified_relaxation_skips_the_barrier_ascent(self, monkeypatch):
        M = random_instance(RandomInstanceSpec(5, 5, 0))  # full rank
        trace = np.trace(M).real
        ascend = beamopt_module._ascend
        monkeypatch.setattr(beamopt_module, "_ascend", None)
        (solution,) = bb.solve_sdr(M[None])
        assert (solution.iterations, solution.rank, solution.residual) == (0, 1, 0.0)
        assert 0.0 <= solution.bound - solution.objective <= 1e-11 * trace
        # W = w w^H for a beam w: unit-modulus entries scaled to 1/sqrt(L).
        w = solution.W[:, 0] / solution.W[0, 0] / math.sqrt(5)
        assert_allclose(solution.W, np.outer(w, w.conj()), atol=1e-15)
        assert_allclose(np.abs(w), 1 / math.sqrt(5), rtol=1e-12)
        # The barrier ascent reaches no higher objective than the certified one.
        _, objective, sweeps, _, _ = ascend(M[None], np.array([trace]), beamopt_module._SDR_TOL, 5000)
        assert sweeps[0] > 0 and objective[0] <= solution.bound + 1e-12 * trace
        forbid_draws(monkeypatch)
        (beam,) = bb.design_beam(M[None], bb.PhaseSpec(3), seed=[0])
        assert beam.gain(M) <= solution.bound

    def test_the_certificate_runs_the_phase_ascent_kernel_not_the_public_stage(self, monkeypatch):
        # Full rank: the power method certifies (5, 5, 0); only coordinate descent from the same start
        # certifies (5, 5, 45).
        M = np.stack([random_instance(RandomInstanceSpec(5, 5, seed)) for seed in (0, 45)])
        H = beamopt_module._hermitian_stack(M)
        start = beamopt_module._cophase(beamopt_module._max_eigenpairs(H)[1])
        power = beamopt_module._coordinate_descent(H, start.copy(), bb.PhaseSpec(), power=True)[0]
        cyclic = beamopt_module._coordinate_descent(H, start.copy(), bb.PhaseSpec())[0]

        def public_stage(*args, **kwargs):
            raise AssertionError("solve_sdr called the public coordinate_descent")

        monkeypatch.setattr(beamopt_module, "coordinate_descent", public_stage)
        solutions = bb.solve_sdr(M)
        assert [(s.iterations, s.rank) for s in solutions] == [(0, 1), (0, 1)]
        for solution, w in zip(solutions, (power[0], cyclic[1])):
            assert solution.W.tobytes() == np.outer(w, w.conj()).tobytes()  # the private kernel's beam, bit for bit

    def test_a_rank_one_solution_is_rounded_by_rotation_without_draws(self, monkeypatch):
        # A hand-built W = v v^H, unrelated to the full-rank M it is scored against.
        M = random_instance(RandomInstanceSpec(4, 4, 1))
        v = np.exp(1j * np.array([0.3, 2.9, 4.4, 5.1])) / 2.0
        solution = bb.SdrSolution(np.outer(v, v.conj()), 0.0, 0, 0.0, 1, 0.0)
        forbid_draws(monkeypatch)
        bits = 3
        (beam,) = bb.gaussian_randomization([solution], M[None], 1000, bb.PhaseSpec(bits), seed=[0])
        # Reference: every rotation of v on a fine grid of angles, snapped to the lattice.
        psi = np.linspace(0.0, 2 * math.pi / 2**bits, 20001)
        index = beamopt_module._lattice_index(np.mod(np.angle(v) - psi[:, None], 2 * math.pi), bits)
        rotations = beamopt_module._lattice_phasors(bits, 4)[index]
        best = np.max(np.real(np.einsum("nl,lk,nk->n", rotations.conj(), M, rotations)))
        assert gain(beam, M) == pytest.approx(best, rel=1e-12)
        (continuous,) = bb.gaussian_randomization([solution], M[None], 1000, bb.PhaseSpec(), seed=[0])
        assert abs(np.vdot(continuous, v)) == pytest.approx(1.0, rel=1e-12)  # v up to a global phase

    @pytest.mark.parametrize("bits", [None, 3])
    def test_certified_and_rank_one_relaxations_are_rounded_without_eigh(self, bits, monkeypatch):
        # A rank-one M, two certified full-rank M, then a rank-two relaxation: only the last reaches eigh.
        stack = np.stack([random_instance(RandomInstanceSpec(5, r, s)) for r, s in ((1, 3), (5, 0), (5, 45), (3, 205))])
        solutions = bb.solve_sdr(stack)
        assert [(s.iterations, s.rank) for s in solutions] == [(0, 1), (0, 1), (0, 1), (1749, 2)]
        spec = bb.PhaseSpec() if bits is None else bb.PhaseSpec(bits)
        eighs, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda W: eighs.append(len(W)) or eigh(W))
        drew = []
        beams = bb.gaussian_randomization(solutions[:3], stack[:3], 100, spec, seed=[1, 2, 3], drew=drew)
        assert eighs == [] and drew == [False] * 3
        beamopt_module._check_beams(beams, spec)
        bb.gaussian_randomization(solutions, stack, 100, spec, seed=[1, 2, 3, 4], drew=drew)
        assert eighs == [1] and drew == [False] * 6 + [True]  # one eigh, of the drawing member alone

    @pytest.mark.parametrize("bits", [None, 3])
    def test_a_rank_two_relaxation_draws(self, bits, monkeypatch):
        M = random_instance(RandomInstanceSpec(5, 3, 205))
        (solution,) = bb.solve_sdr(M[None])
        assert (solution.iterations, solution.rank) == (1749, 2)
        seeds = record_draws(monkeypatch)
        spec = bb.PhaseSpec() if bits is None else bb.PhaseSpec(bits)
        bb.gaussian_randomization([solution], M[None], 200, spec, seed=[7])
        bb.design_beam(M[None], spec, seed=[8])
        assert seeds == [7, 8]

    def test_a_single_element_relaxation_is_the_rank_one_closed_form(self, monkeypatch):
        # A 1x1 M is rank one: W = [[1]], and a live member's objective and bound are its trace.
        monkeypatch.setattr(beamopt_module, "_ascend", None)
        live = bb.SdrSolution(np.ones((1, 1), dtype=complex), 2.5, 0, 0.0, 1, 2.5)
        zero = bb.SdrSolution(np.ones((1, 1), dtype=complex), 0.0, 0, 0.0, 1, 0.0)
        stack = np.array([[[2.5]], [[0.0]], [[2.5]]])
        for M, expected in ((stack[:1], [live]), (stack[1:2], [zero]), (stack, [live, zero, live])):
            solutions = bb.solve_sdr(M)
            assert solutions.iterations == 0
            for got, want in zip(solutions, expected, strict=True):
                assert got.W.dtype == complex and np.array_equal(got.W, want.W)
                assert (got.objective, got.iterations, got.residual, got.rank, got.bound) == want[1:]

    @pytest.mark.parametrize("bits", [None, 1, 3])
    def test_a_single_element_stack_gets_the_one_canonical_beam(self, bits, monkeypatch):
        forbid_draws(monkeypatch)
        spec = bb.PhaseSpec() if bits is None else bb.PhaseSpec(bits)
        stack = np.array([[[2.5]], [[0.0]], [[1e-3 + 0j]]])
        one = np.ones(1, dtype=complex).tobytes()  # +0.0 imaginary part included
        rounded = bb.gaussian_randomization(bb.solve_sdr(stack), stack, 1, spec, seed=[1, 2, 3])
        assert [w.tobytes() for w in rounded] == [one] * 3
        for beams in (
            bb.design_beam(stack, spec, seed=[1, 2, 3]),
            bb.design_beam(stack[1:2], spec, seed=[2]) * 3,
            bb.eigen_beams(stack, spec),
        ):
            assert [(beam.weights.tobytes(), beam.phase_spec) for beam in beams] == [(one, spec)] * 3

    @pytest.mark.parametrize("bits", [None, 1, 3])
    def test_a_mixed_stack_designs_every_member_as_alone(self, bits):
        # Zero, rank-one M, certified, and drawn: every route in one stack.
        stack = np.stack([np.zeros((5, 5))] + [random_instance(RandomInstanceSpec(5, r, s)) for r, s in
                                               ((1, 3), (5, 0), (3, 205))])
        assert [(s.iterations, s.rank) for s in bb.solve_sdr(stack)] == [(0, 5), (0, 1), (0, 1), (1749, 2)]
        spec = bb.PhaseSpec() if bits is None else bb.PhaseSpec(bits)
        beams = bb.design_beam(stack, spec, seed=[1, 2, 3, 4])
        for m, seed, beam in zip(stack, (1, 2, 3, 4), beams):
            (alone,) = bb.design_beam(m[None], spec, seed=[seed])
            assert beam.weights.tobytes() == alone.weights.tobytes()


class TestCertificate:
    """The power method certifies first; a member it leaves uncertified runs coordinate descent from the same start."""

    @pytest.mark.parametrize("L", [4, 5, 8, 16])
    def test_every_member_that_coordinate_descent_certifies_is_certified(self, L):
        M = np.stack([random_instance(RandomInstanceSpec(L, rank, seed)) for rank in (2, L) for seed in range(200)])
        H = beamopt_module._hermitian_stack(M)
        start = beamopt_module._cophase(beamopt_module._max_eigenpairs(H)[1])
        tol = 1e-11 * np.maximum(np.real(np.trace(H, axis1=1, axis2=2)), 1.0)
        W, certified = {}, {}
        for power in (True, False):
            w = beamopt_module._coordinate_descent(H, start.copy(), bb.PhaseSpec(), power=power)[0]
            W[power] = w[:, :, None] * w[:, None, :].conj()
            objective = beamopt_module._objectives(H, W[power])
            certified[power] = beamopt_module._dual_bounds(H, W[power], objective) - objective <= tol
        solutions = bb.solve_sdr(M)
        shortcut = np.array([s.iterations == 0 for s in solutions])
        assert shortcut[certified[False]].all()
        assert np.array_equal(shortcut, certified[True] | certified[False])
        assert (certified[False] & ~certified[True]).any()  # some member needs coordinate descent
        for b in np.flatnonzero(shortcut):
            assert solutions[b].rank == 1
            assert solutions[b].W.tobytes() == W[bool(certified[True][b])][b].tobytes()


def record_seed_sequences(monkeypatch) -> list:
    """Patch np.random.SeedSequence to record the entropy of each one built; returns that list."""
    built, seed_sequence = [], np.random.SeedSequence
    monkeypatch.setattr(np.random, "SeedSequence", lambda entropy: built.append(entropy) or seed_sequence(entropy))
    return built


# A zero-trace member keeps W = I/L and draws; a rank-one and a certified member take the exact routes.
DRAWING = np.zeros((1, 5, 5))
EXACT = np.stack([random_instance(RandomInstanceSpec(5, 1, 3)), random_instance(RandomInstanceSpec(5, 5, 0))])

# (member seed, the part reported): a member seed is an integer >= 0 or a nonempty key tuple of them.
BAD_MEMBER_SEEDS = [(-1, -1), (1.5, 1.5), (True, True), (np.float64(2.0), np.float64(2.0)), ("3", "3"),
                    ([0, 1], [0, 1]), ((0, -3, 1), -3), ((0, 1.5), 1.5), ((False, 0), False), ((), ())]


class TestSeeds:
    """A member seed is an integer >= 0 or a key tuple of them, and only a drawing member hashes its key."""

    @pytest.mark.parametrize("bits", [None, 3])
    def test_key_seeds_give_the_beams_of_their_hashed_integers(self, bits, monkeypatch):
        stack = np.concatenate([DRAWING, EXACT[:1], DRAWING, EXACT[1:]])
        keys = [(7, 0, i) for i in range(4)]
        hashed = [beamopt_module._child_seed(*key) for key in keys]
        spec = bb.PhaseSpec() if bits is None else bb.PhaseSpec(bits)
        by_key = bb.design_beam(stack, spec, seed=keys, n_rand=50)
        by_int = bb.design_beam(stack, spec, seed=hashed, n_rand=50)
        assert [b.weights.tobytes() for b in by_key] == [b.weights.tobytes() for b in by_int]
        assert by_key[0] != by_key[2]  # the two drawing members read their own seeds
        seeds = record_draws(monkeypatch)
        rounded = bb.gaussian_randomization(bb.solve_sdr(stack), stack, 50, spec, seed=keys)
        assert seeds == [hashed[0], hashed[2]]  # the drawing members, and only they
        assert rounded.tobytes() == bb.gaussian_randomization(bb.solve_sdr(stack), stack, 50, spec, hashed).tobytes()

    def test_a_stack_on_exact_routes_hashes_no_seed(self, monkeypatch):
        built = record_seed_sequences(monkeypatch)
        bb.design_beam(EXACT, bb.PhaseSpec(3), seed=[(0, 0, 0), (0, 0, 1)])
        assert built == []
        bb.design_beam(np.concatenate([EXACT, DRAWING]), bb.PhaseSpec(3), seed=[(0, 0, 0), (0, 0, 1), (0, 0, 2)],
                       n_rand=10)
        assert built == [[0, 0, 2]]  # the drawing member's key, hashed once

    @pytest.mark.parametrize("numpy_seed, seed", [(np.int64(5), 5), ((np.uint8(1), np.int64(5)), (1, 5))])
    def test_a_numpy_integer_seeds_as_its_python_value(self, numpy_seed, seed):
        def design(s):
            return bb.design_beam(DRAWING, bb.PhaseSpec(2), seed=[s], n_rand=10)

        assert design(numpy_seed) == design(seed)

    @pytest.mark.parametrize("seed, reported", BAD_MEMBER_SEEDS)
    @pytest.mark.parametrize("stack", [DRAWING, EXACT], ids=["drawing", "exact"])
    @pytest.mark.parametrize("stage", ["design_beam", "gaussian_randomization"])
    def test_a_bad_member_seed_is_rejected_whether_or_not_its_member_draws(self, stage, stack, seed, reported):
        # Unchecked, -1 and 1.5 reached NumPy's own errors, True drew as seed 1, and a
        # member on an exact route took any seed silently.
        seeds = [seed] + [0] * (len(stack) - 1)
        calls = {
            "design_beam": lambda: bb.design_beam(stack, bb.PhaseSpec(3), seed=seeds, n_rand=10),
            "gaussian_randomization": lambda: bb.gaussian_randomization(bb.solve_sdr(stack), stack, 10,
                                                                        bb.PhaseSpec(3), seeds),
        }
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer >= 0, got {reported!r}")):
            calls[stage]()
