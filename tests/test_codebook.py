import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import beambook as bb
import beambook.codebook as codebook_module
from beambook.metrics import field_gains


@pytest.fixture(scope="module")
def iso_grid():
    return bb.generate_ula_efield(bb.SyntheticUlaSpec(4, 0.5))


@pytest.fixture(scope="module")
def directional_grid():
    return bb.generate_ula_efield(bb.SyntheticUlaSpec(4, 0.5, element_pattern_q=2))


def benchmark_aims(size):
    """Peak-gain theta of each continuous-phase benchmark beam on the 4-element half-wavelength sweep."""
    spec = bb.SyntheticUlaSpec(4, 0.5)
    grid, dirs = bb.generate_ula_efield(spec)
    cb = bb.benchmark_codebook(spec, size, bb.PhaseSpec.continuous())
    gains = field_gains(np.array([e.weights.weights for e in cb.entries]), *grid.fields_at(dirs))
    return dirs.theta[np.argmax(gains, axis=1)]


class TestBenchmarkCodebook:
    def test_aim_directions(self):
        # Beam k of K aims where cos(theta) = -1 + (2k - 1) / K; the sweep has those nodes for K = 4.
        assert_allclose(benchmark_aims(4), [138.59, 104.48, 75.52, 41.41], atol=0.01)

    def test_single_beam_is_broadside_all_zero_phases(self):
        spec = bb.SyntheticUlaSpec(4, 0.5)
        cb = bb.benchmark_codebook(spec, 1, bb.PhaseSpec.discrete(5))
        assert_allclose(benchmark_aims(1), [90.0])
        assert_allclose(np.angle(cb.entries[0].weights.weights), 0.0, atol=1e-12)

    def test_first_beam_phases_match_formula(self):
        spec = bb.SyntheticUlaSpec(4, 0.5)
        cb = bb.benchmark_codebook(spec, 4, bb.PhaseSpec.discrete(5))
        expected = bb.quantize_phase(np.mod(2 * math.pi * 0.5 * np.arange(4) * -0.75, 2 * math.pi), 5)
        assert_allclose(np.mod(np.angle(cb.entries[0].weights.weights), 2 * math.pi), expected, atol=1e-12)

    def test_replication_across_arrays(self):
        spec = bb.SyntheticUlaSpec(4, 0.5)
        cb = bb.benchmark_codebook(spec, 2, bb.PhaseSpec.discrete(5), array_ids=["a", "b"])
        assert cb.size == 4
        assert [e.array_id for e in cb.entries] == ["a", "a", "b", "b"]
        assert np.array_equal(cb.entries[0].weights.weights, cb.entries[2].weights.weights)

    def test_deterministic(self):
        spec = bb.SyntheticUlaSpec(4, 0.65)
        a = bb.benchmark_codebook(spec, 4, bb.PhaseSpec.discrete(5))
        b = bb.benchmark_codebook(spec, 4, bb.PhaseSpec.discrete(5))
        assert bb.codebook_to_dict(a) == bb.codebook_to_dict(b)


class Test802153c:
    def test_two_bit_first_beam(self):
        cb = bb.codebook_802_15_3c(4, 4, 2)
        w = cb.entries[0].weights.weights
        assert_allclose(w, np.array([1, -1, 1, -1]) / 2.0, atol=1e-12)

    def test_third_beam_all_zero_phases(self):
        cb = bb.codebook_802_15_3c(4, 4, 2)
        assert_allclose(np.angle(cb.entries[2].weights.weights), 0.0, atol=1e-12)

    def test_phases_on_lattice(self):
        for L, size, bits in ((4, 4, 2), (3, 6, 3), (5, 8, 5), (4, 4, 5)):
            cb = bb.codebook_802_15_3c(L, size, bits)
            step = 2 * math.pi / 2**bits
            for e in cb.entries:
                ph = np.mod(np.angle(e.weights.weights), 2 * math.pi)
                assert_allclose(ph / step, np.round(ph / step), atol=1e-9)

    def test_fine_resolution_reduces_to_coarse_family(self):
        # when the beam count divides the phase-state count the floor is exact,
        # so higher-resolution shifters reproduce the classic 2-bit beams
        a = bb.codebook_802_15_3c(4, 4, 2)
        b = bb.codebook_802_15_3c(4, 4, 5)
        for ea, eb in zip(a.entries, b.entries):
            assert_allclose(ea.weights.weights, eb.weights.weights, atol=1e-12)


class TestRestrictRegion:
    def test_full_sphere_identity(self):
        ds = bb.fibonacci_directions(100)
        out = bb.restrict_region(ds, bb.CoverageRegion())
        assert np.array_equal(out.theta, ds.theta)
        assert np.array_equal(out.weights, ds.weights)

    def test_upper_half_on_symmetric_lattice(self):
        ds = bb.fibonacci_directions(100)
        out = bb.restrict_region(ds, bb.CoverageRegion(theta_range=(0.0, 90.0)))
        assert len(out) == 50
        assert np.all(out.theta <= 90.0)
        assert_allclose(out.weights.sum(), 1.0, atol=1e-12)

    def test_empty_region_rejected(self):
        ds = bb.fibonacci_directions(16)
        with pytest.raises(ValueError, match="region contains no sample directions"):
            bb.restrict_region(ds, bb.CoverageRegion(theta_range=(89.99, 90.0), phi_range=(1.0, 1.1)))


class TestCandidates:
    def test_count_per_array(self, iso_grid):
        grid, _ = iso_grid
        grids = {"a": grid, "b": grid, "c": grid}
        cands = bb.generate_candidates(grids, 11, "eigen", bb.PhaseSpec.discrete(5))
        assert len(cands) == 33
        assert {c.array_id for c in cands} == {"a", "b", "c"}

    def test_aims_on_mesh(self, iso_grid):
        grid, _ = iso_grid
        cands = bb.generate_candidates(grid, 17, "eigen", bb.PhaseSpec.discrete(5))
        for c in cands:
            grid.index_of(c.aim.theta, c.aim.phi)  # raises if off mesh

    def test_single_element_trivial_codeword(self):
        grid, _ = bb.generate_ula_efield(bb.SyntheticUlaSpec(1, 0.5))
        cands = bb.generate_candidates(grid, 1, "iterative", bb.PhaseSpec.discrete(2), seed=0)
        assert_allclose(cands[0].weights.weights, [1.0 + 0j], atol=1e-12)

    def test_eigen_and_iterative_agree_on_lattice_aligned(self):
        grid, _ = bb.generate_ula_efield(bb.SyntheticUlaSpec(4, 0.5))
        # broadside: progressive phases are all zero, exactly on any lattice
        ds = bb.DirectionSet(np.array([90.0]), np.array([0.0]), np.array([1.0]))
        M = bb.coherence_sum(grid, [bb.Direction(90.0, 0.0)])
        eig = bb.design_beam(M, bb.PhaseSpec.discrete(5), "eigen")
        it = bb.design_beam(M, bb.PhaseSpec.discrete(5), "sdr_grp_cd", seed=9)
        assert_allclose(eig.weights, it.weights, atol=1e-12)

    def test_quasi_uniform_spacing(self):
        ds = bb.fibonacci_directions(363)
        xyz = np.stack(
            [
                np.sin(np.radians(ds.theta)) * np.cos(np.radians(ds.phi)),
                np.sin(np.radians(ds.theta)) * np.sin(np.radians(ds.phi)),
                np.cos(np.radians(ds.theta)),
            ],
            axis=1,
        )
        dots = np.clip(xyz @ xyz.T, -1, 1)
        np.fill_diagonal(dots, -1)
        nearest = np.degrees(np.arccos(dots.max(axis=1)))
        assert 8.0 < nearest.mean() < 13.0  # around ten degrees apart


class TestGreedy:
    def test_size_one_picks_best_mean_candidate(self, directional_grid):
        grid, dirs = directional_grid
        cands = bb.generate_candidates(grid, 24, "eigen", bb.PhaseSpec.discrete(5))
        result = bb.greedy_codebook(cands, grid, bb.MeanGainCriterion(), 1, dirs)
        resolved = bb.resolve_directions(grid, dirs)
        means = []
        for c in cands:
            cb = bb.Codebook((bb.CodebookEntry(c.array_id, c.weights),))
            means.append(float(np.dot(dirs.weights, bb.composite_gains_linear(bb.entry_gains_linear(resolved, cb)))))
        selected = bb.entry_gains_linear(resolved, result.codebook)
        selected_mean = float(np.dot(dirs.weights, bb.composite_gains_linear(selected)))
        assert selected_mean == pytest.approx(max(means), rel=1e-12)

    def test_utility_strictly_increases(self, directional_grid):
        grid, dirs = directional_grid
        cands = bb.generate_candidates(grid, 64, "eigen", bb.PhaseSpec.discrete(5))
        result = bb.greedy_codebook(cands, grid, bb.MeanGainCriterion(), 5, dirs)
        assert result.codebook.size == 5
        assert np.all(np.diff(result.utilities_db) > 0)
        assert result.stop_reason == "stopping rule satisfied"

    def test_unreachable_threshold_exhausts_pool(self, directional_grid):
        grid, dirs = directional_grid
        cands = bb.generate_candidates(grid, 8, "eigen", bb.PhaseSpec.discrete(5))
        bound_mean = float(np.dot(dirs.weights, bb.upper_bound_gains_linear(bb.resolve_directions(grid, dirs))))
        stop = (bb.MeanGainCriterion(), bb.db_from_linear(bound_mean) + 3.0)
        result = bb.greedy_codebook(cands, grid, bb.MeanGainCriterion(), 9, dirs, stop)
        assert result.stop_reason == "pool exhausted"
        assert result.codebook.size == 8

    def test_size_caps_an_unreachable_threshold(self, directional_grid):
        grid, dirs = directional_grid
        cands = bb.generate_candidates(grid, 8, "eigen", bb.PhaseSpec.discrete(5))
        stop = (bb.PercentileMixCriterion(((50.0, 1.0),)), 50.0)
        result = bb.greedy_codebook(cands, grid, bb.MeanGainCriterion(), 3, dirs, stop)
        assert result.codebook.size == 3
        assert result.stop_reason == "size reached before the stop threshold"

    def test_threshold_stop_triggers(self, directional_grid):
        grid, dirs = directional_grid
        cands = bb.generate_candidates(grid, 32, "eigen", bb.PhaseSpec.discrete(5))
        result = bb.greedy_codebook(
            cands, grid, bb.MeanGainCriterion(), 32, dirs, (bb.MeanGainCriterion(), -10.0)
        )
        assert result.stop_reason == "stopping rule satisfied"
        assert result.codebook.size < 32

    def test_duplicate_candidates_tie_to_lower_index(self, iso_grid):
        grid, dirs = iso_grid
        one = bb.generate_candidates(grid, 1, "eigen", bb.PhaseSpec.discrete(5))
        result = bb.greedy_codebook(one + one, grid, bb.MeanGainCriterion(), 1, dirs)
        assert result.codebook.size == 1  # picked index 0, not 1

    @pytest.mark.parametrize("criterion", [bb.MeanGainCriterion(),
                                           bb.PercentileMixCriterion(((10.0, 1.0), (50.0, 1.0)))])
    def test_picks_equal_rescoring_the_whole_pool_every_round(self, directional_grid, criterion):
        # The in-place pool composite against max(best, G[pool]) rebuilt each
        # round, on a pool of many tied candidates.
        grid, dirs = directional_grid
        cands = bb.generate_candidates(grid, 150, "eigen", bb.PhaseSpec.discrete(5))
        result = bb.greedy_codebook(cands, grid, criterion, 10, dirs)
        G = codebook_module._candidate_gain_matrix(cands, grid, dirs)
        pool, best, picks = list(range(len(cands))), np.zeros(len(dirs)), []
        for _ in range(10):
            picks.append(pool.pop(int(np.argmax(criterion.scores(np.maximum(best, G[pool]), dirs)))))
            np.maximum(best, G[picks[-1]], out=best)
        assert result.codebook.size == len(picks)
        assert all(entry.weights is cands[i].weights for entry, i in zip(result.codebook.entries, picks))

    def test_percentile_criterion_runs(self, directional_grid):
        grid, dirs = directional_grid
        cands = bb.generate_candidates(grid, 16, "eigen", bb.PhaseSpec.discrete(5))
        crit = bb.PercentileMixCriterion(((50.0, 1.0),))
        result = bb.greedy_codebook(cands, grid, crit, 3, dirs)
        assert result.codebook.size == 3
        assert np.all(np.diff(result.utilities_db) >= 0)


class TestKMeans:
    def test_configs_compare_by_value(self, iso_grid):
        _, dirs = iso_grid
        same_dirs = bb.DirectionSet(dirs.theta.copy(), dirs.phi.copy(), dirs.weights.copy())
        beam = bb.BeamWeights.from_phases(np.zeros(4), bb.PhaseSpec.discrete(5))
        init = bb.Codebook([bb.CodebookEntry("ula", beam)])

        def make(direction_set=dirs, **kwargs):
            return bb.KMeansConfig(num_beams=1, direction_set=direction_set, phase_spec=bb.PhaseSpec.discrete(5),
                                   init=init, **kwargs)

        a, b = make(), make(same_dirs)
        assert a == b and hash(a) == hash(b)
        assert make(seed=1) != a
        assert make(bb.DirectionSet(np.array([90.0]), np.array([0.0]), np.array([1.0]))) != a
        assert len({a, b, make(n_rand=10)}) == 2

    def test_single_beam_converges_immediately(self, iso_grid):
        grid, dirs = iso_grid
        cfg = bb.KMeansConfig(
            num_beams=1, direction_set=dirs, phase_spec=bb.PhaseSpec.discrete(5), seed=0
        )
        result = bb.kmeans_codebook(cfg, grid)
        assert result.iterations <= 2
        assert np.all(result.assignments == 0)

    def test_uniform_init_monotone_and_fast(self, directional_grid):
        grid, dirs = directional_grid
        cfg = bb.KMeansConfig(
            num_beams=5, direction_set=dirs, phase_spec=bb.PhaseSpec.discrete(5),
            n_rand=200, seed=3,
        )
        result = bb.kmeans_codebook(cfg, grid)
        assert result.iterations < 20
        assert np.all(np.diff(result.mean_gain_trace_db) >= -1e-12)

    def test_assignment_partitions_directions(self, directional_grid):
        grid, dirs = directional_grid
        cfg = bb.KMeansConfig(
            num_beams=3, direction_set=dirs, phase_spec=bb.PhaseSpec.discrete(5),
            n_rand=100, seed=1,
        )
        result = bb.kmeans_codebook(cfg, grid)
        assert result.assignments.shape == (len(dirs),)
        assert set(np.unique(result.assignments)).issubset(set(range(3)))

    def test_explicit_initial_codebook_never_degrades(self, iso_grid):
        grid, dirs = iso_grid
        spec = bb.SyntheticUlaSpec(4, 0.5)
        init = bb.benchmark_codebook(spec, 4, bb.PhaseSpec.discrete(5), array_ids=[grid.array_id])
        resolved = bb.resolve_directions(grid, dirs)
        init_mean = float(np.dot(dirs.weights, bb.composite_gains_linear(bb.entry_gains_linear(resolved, init))))
        cfg = bb.KMeansConfig(
            num_beams=4, direction_set=dirs, phase_spec=bb.PhaseSpec.discrete(5),
            init=init, n_rand=500, seed=5,
        )
        result = bb.kmeans_codebook(cfg, grid)
        final = bb.entry_gains_linear(resolved, result.codebook)
        final_mean = float(np.dot(dirs.weights, bb.composite_gains_linear(final)))
        assert final_mean >= init_mean - 1e-12

    def test_greedy_init(self, directional_grid):
        grid, dirs = directional_grid
        cands = bb.generate_candidates(grid, 24, "eigen", bb.PhaseSpec.discrete(5))
        init = bb.greedy_codebook(cands, grid, bb.MeanGainCriterion(), 3, dirs).codebook
        cfg = bb.KMeansConfig(
            num_beams=3, direction_set=dirs, phase_spec=bb.PhaseSpec.discrete(5),
            init=init, n_rand=100, seed=2,
        )
        result = bb.kmeans_codebook(cfg, grid)
        assert result.codebook.size == 3

    def test_zero_weight_cluster_leaves_its_beam_untouched(self, iso_grid):
        # Beam 0 serves only the zero-weight direction at 120 degrees, so its
        # cluster matrix is zero; any beam ties that cluster's objective.
        grid, _ = iso_grid
        spec = bb.PhaseSpec.discrete(5)
        init = bb.benchmark_codebook(bb.SyntheticUlaSpec(4, 0.5), 2, spec, array_ids=[grid.array_id])
        dirs = bb.DirectionSet(np.array([60.0, 70.0, 120.0]), np.zeros(3), np.array([0.5, 0.5, 0.0]))
        cfg = bb.KMeansConfig(num_beams=2, direction_set=dirs, phase_spec=spec, init=init,
                              n_rand=50, max_iterations=1, seed=0)
        result = bb.kmeans_codebook(cfg, grid)
        assert result.assignments.tolist() == [1, 1, 0]
        assert np.array_equal(result.codebook.entries[0].weights.weights, init.entries[0].weights.weights)

    def test_stacked_designs_equal_per_beam_designs_on_mixed_element_counts(self, monkeypatch):
        # Two arrays of 4 and 6 elements: one stacked design call per element
        # count and iteration, with the same beams as one call per beam.
        theta_axis = np.arange(0.0, 180.1, 15.0)
        phi_axis = np.arange(0.0, 359.9, 15.0)
        grids = {
            f"ula{L}": bb.oriented_ula_efield(bb.SyntheticUlaSpec(L, 0.5, element_pattern_q=1), axis,
                                              theta_axis, phi_axis, f"ula{L}")
            for L, axis in ((4, (0, 1, 0)), (6, (1, 0, 0)))
        }
        bits3 = bb.PhaseSpec.discrete(3)
        init = bb.Codebook(tuple(
            entry
            for L in (4, 6)
            for entry in bb.benchmark_codebook(bb.SyntheticUlaSpec(L, 0.5), 2, bits3, [f"ula{L}"]).entries
        ))
        cfg = bb.KMeansConfig(num_beams=4, direction_set=bb.mesh_directions(grids["ula4"]), phase_spec=bits3,
                              init=init, n_rand=100, seed=4)
        design_beam = codebook_module.design_beam
        stack_sizes = []

        def spy(M, *args, **kwargs):
            stack_sizes.append(np.shape(M)[:2])
            return design_beam(M, *args, **kwargs)

        def one_by_one(M, *args, seed, **kwargs):
            return tuple(design_beam(m, *args, seed=s, **kwargs) for m, s in zip(M, seed))

        monkeypatch.setattr(codebook_module, "design_beam", spy)
        stacked = bb.kmeans_codebook(cfg, grids)
        monkeypatch.setattr(codebook_module, "design_beam", one_by_one)
        looped = bb.kmeans_codebook(cfg, grids)

        assert {L for _, L in stack_sizes} == {4, 6}
        assert len(stack_sizes) <= 2 * stacked.iterations
        assert np.array_equal(stacked.mean_gain_trace_db, looped.mean_gain_trace_db)
        for a, b in zip(stacked.codebook.entries, looped.codebook.entries):
            assert a.array_id == b.array_id and np.array_equal(a.weights.weights, b.weights.weights)
        assert np.all(np.diff(stacked.mean_gain_trace_db) >= -1e-12)

    def test_too_many_beams_rejected(self, iso_grid):
        grid, _ = iso_grid
        tiny = bb.DirectionSet(np.array([90.0]), np.array([0.0]), np.array([1.0]))
        cfg = bb.KMeansConfig(num_beams=2, direction_set=tiny, phase_spec=bb.PhaseSpec.discrete(5))
        with pytest.raises(ValueError):
            bb.kmeans_codebook(cfg, grid)


class TestUniformInit:
    def test_single_array_single_beam(self, iso_grid):
        grid, _ = iso_grid
        cb = bb.uniform_init(1, grid, bb.PhaseSpec.discrete(5))
        assert cb.size == 1
        assert cb.entries[0].array_id == grid.array_id

    def test_dominant_array_wins_every_beam(self):
        # identical geometry, one array with uniformly stronger response:
        # the per-direction eigen-bound rule must route all beams to it
        spec = bb.SyntheticUlaSpec(4, 0.5, element_pattern_q=1)
        theta_axis = np.arange(0.0, 180.1, 15.0)
        phi_axis = np.arange(0.0, 359.9, 15.0)
        weak = bb.oriented_ula_efield(spec, (0, 0, 1), theta_axis, phi_axis, "weak")
        strong = bb.EFieldGrid("strong", theta_axis, phi_axis, 2.0 * weak.e_theta, weak.e_phi)
        cb = bb.uniform_init(5, {"weak": weak, "strong": strong}, bb.PhaseSpec.discrete(5))
        assert all(e.array_id == "strong" for e in cb.entries)

    @pytest.mark.parametrize("order", [("a", "b"), ("b", "a")])
    def test_ties_go_to_the_first_array(self, order):
        grid, _ = bb.generate_ula_efield(bb.SyntheticUlaSpec(4, 0.5))
        grids = {name: bb.EFieldGrid(name, grid.theta_axis, grid.phi_axis, grid.e_theta, grid.e_phi)
                 for name in order}
        cb = bb.uniform_init(6, grids, bb.PhaseSpec.discrete(5))
        assert all(e.array_id == order[0] for e in cb.entries)

    def test_multi_array_attribution_by_eigen_bound(self):
        spec = bb.SyntheticUlaSpec(4, 0.5, element_pattern_q=2)
        theta_axis = np.arange(0.0, 180.1, 10.0)
        phi_axis = np.arange(0.0, 359.9, 10.0)
        grids = {
            "y": bb.oriented_ula_efield(spec, (0, 1, 0), theta_axis, phi_axis, "y"),
            "x": bb.oriented_ula_efield(spec, (1, 0, 0), theta_axis, phi_axis, "x"),
        }
        cb = bb.uniform_init(12, grids, bb.PhaseSpec.discrete(5))
        fib = bb.fibonacci_directions(12)
        for entry, d in zip(cb.entries, fib):
            lams = {}
            for name, grid in grids.items():
                ds = bb.snap_to_grid(
                    bb.DirectionSet(np.array([d.theta]), np.array([d.phi]), np.array([1.0])), grid
                )
                lams[name] = bb.upper_bound_gains_linear(bb.resolve_directions(grid, ds))[0]
            best = max(lams, key=lambda n: lams[n])
            if abs(lams["x"] - lams["y"]) > 1e-9:  # skip exact ties, order-dependent
                assert entry.array_id == best


class TestCodebookJson:
    def test_round_trip_exact(self, iso_grid, tmp_path):
        grid, dirs = iso_grid
        spec = bb.SyntheticUlaSpec(4, 0.5)
        cb = bb.benchmark_codebook(spec, 4, bb.PhaseSpec.discrete(5))
        path = tmp_path / "cb.json"
        bb.save_codebook(cb, path)
        back = bb.load_codebook(path)
        assert back.phase_bits == 5
        assert back == cb

    def test_round_trip_exact_continuous(self, iso_grid, tmp_path):
        grid, _ = iso_grid
        rng = np.random.default_rng(3)
        beams = [bb.BeamWeights(np.exp(1j * rng.uniform(-math.pi, math.pi, 4)) / 2.0, bb.PhaseSpec.continuous())
                 for _ in range(3)]
        cb = bb.Codebook(tuple(bb.CodebookEntry(grid.array_id, w) for w in beams))
        path = tmp_path / "cb.json"
        bb.save_codebook(cb, path)
        assert bb.load_codebook(path) == cb

    def test_continuous_phase_bits_null(self, iso_grid, tmp_path):
        grid, _ = iso_grid
        w = bb.BeamWeights(np.ones(4, dtype=complex) / 2.0, bb.PhaseSpec.continuous())
        cb = bb.Codebook((bb.CodebookEntry(grid.array_id, w),))
        path = tmp_path / "cb.json"
        bb.save_codebook(cb, path)
        assert bb.load_codebook(path).phase_bits is None

    def test_summary_lists_aims_and_peaks(self, iso_grid):
        grid, dirs = iso_grid
        spec = bb.SyntheticUlaSpec(4, 0.5)
        cb = bb.benchmark_codebook(spec, 2, bb.PhaseSpec.discrete(5), array_ids=[grid.array_id])
        resolved = bb.resolve_directions(grid, dirs)
        text = bb.codebook_summary(cb, resolved, bb.entry_gains_linear(resolved, cb))
        assert text.count("beam ") == 2
        assert "peak=" in text and "aim=" in text
