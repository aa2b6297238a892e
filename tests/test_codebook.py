import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import beambook as bb
import beambook.beamopt as beamopt_module
import beambook.codebook as codebook_module
import beambook.metrics as metrics_module
from beambook.efield import field_coherence, top_eigenvalues
from beambook.metrics import field_gains
from beambook.oracle import RandomInstanceSpec, brute_force_b3, random_instance


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
    cb = bb.benchmark_codebook(spec, size, bb.PhaseSpec())
    gains = field_gains(np.array([e.weights.weights for e in cb.entries]), *grid.fields_at(dirs))
    return dirs.theta[np.argmax(gains, axis=1)]


@pytest.fixture
def two_meshes():
    """Two arrays on different meshes and element counts, with two 3-bit benchmark beams on each."""
    specs = {"a": bb.SyntheticUlaSpec(4, 0.5, sampling_factor=20),
             "b": bb.SyntheticUlaSpec(6, 0.65, sampling_factor=31)}
    grids = {k: bb.generate_ula_efield(s, array_id=k)[0] for k, s in specs.items()}
    init = bb.Codebook(tuple(entry for k, s in specs.items()
                             for entry in bb.benchmark_codebook(s, 2, bb.PhaseSpec(3), [k]).entries))
    return grids, init


@pytest.fixture
def lookups(monkeypatch):
    """Counts of mesh snaps and field lookups made while the test runs."""
    calls = {"snap_to_grid": 0, "fields_at": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(metrics_module, "snap_to_grid", counted("snap_to_grid", metrics_module.snap_to_grid))
    monkeypatch.setattr(bb.EFieldGrid, "fields_at", counted("fields_at", bb.EFieldGrid.fields_at))
    return calls


class TestBenchmarkCodebook:
    def test_aim_directions(self):
        # Beam k of K aims where cos(theta) = -1 + (2k - 1) / K; the sweep has those nodes for K = 4.
        assert_allclose(benchmark_aims(4), [138.59, 104.48, 75.52, 41.41], atol=0.01)

    def test_single_beam_is_broadside_all_zero_phases(self):
        spec = bb.SyntheticUlaSpec(4, 0.5)
        cb = bb.benchmark_codebook(spec, 1, bb.PhaseSpec(5))
        assert_allclose(benchmark_aims(1), [90.0])
        assert_allclose(np.angle(cb.entries[0].weights.weights), 0.0, atol=1e-12)

    def test_first_beam_phases_match_formula(self):
        spec = bb.SyntheticUlaSpec(4, 0.5)
        cb = bb.benchmark_codebook(spec, 4, bb.PhaseSpec(5))
        step = 2 * math.pi / 32
        phases = np.mod(2 * math.pi * 0.5 * np.arange(4) * -0.75, 2 * math.pi)
        expected = np.mod(np.ceil(phases / step - 0.5), 32) * step  # the nearest 5-bit lattice phase, ties to the lower
        assert_allclose(np.mod(np.angle(cb.entries[0].weights.weights), 2 * math.pi), expected, atol=1e-12)

    def test_replication_across_arrays(self):
        spec = bb.SyntheticUlaSpec(4, 0.5)
        cb = bb.benchmark_codebook(spec, 2, bb.PhaseSpec(5), array_ids=["a", "b"])
        assert cb.size == 4
        assert [e.array_id for e in cb.entries] == ["a", "a", "b", "b"]
        assert np.array_equal(cb.entries[0].weights.weights, cb.entries[2].weights.weights)

    def test_deterministic(self):
        spec = bb.SyntheticUlaSpec(4, 0.65)
        a = bb.benchmark_codebook(spec, 4, bb.PhaseSpec(5))
        b = bb.benchmark_codebook(spec, 4, bb.PhaseSpec(5))
        assert a == b

    @pytest.mark.parametrize("size", [2.5, 3.0, True, np.True_, 0, -1])
    def test_size_must_be_a_positive_integer(self, size):
        # Unchecked, size 2.5 builds 3 beams and size True builds 1.
        ula, spec = bb.SyntheticUlaSpec(4, 0.5), bb.PhaseSpec(5)
        with pytest.raises(ValueError, match=f"size must be an integer >= 1, got {size!r}"):
            bb.benchmark_codebook(ula, size, spec)
        assert bb.benchmark_codebook(ula, np.int64(2), spec) == bb.benchmark_codebook(ula, 2, spec)


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

    def test_continuous_phases_rejected(self):
        with pytest.raises(ValueError):
            bb.codebook_802_15_3c(4, 4, None)

    @pytest.mark.parametrize("num_elements, size", [(4.5, 2.5), (4.5, 2), (4, 2.5), (True, 2), (4, True), (0, 2), (4, 0)])
    def test_counts_must_be_positive_integers(self, num_elements, size):
        # Unchecked, (4.5, 2.5) builds 3 beams of 5 elements.
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            bb.codebook_802_15_3c(num_elements, size, 2)
        assert bb.codebook_802_15_3c(np.int64(4), np.int64(2), 2) == bb.codebook_802_15_3c(4, 2, 2)


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

    @pytest.mark.parametrize("theta_range", [(100.0, 180.0), (89.99, 90.0)], ids=["zero-weight", "empty"])
    def test_the_mean_criterion_rejects_a_region_as_restrict_region_does(self, theta_range):
        ds = bb.DirectionSet([30.0, 60.0, 120.0], [0.0, 0.0, 0.0], [0.5, 0.5, 0.0])
        region = bb.CoverageRegion(theta_range=theta_range)
        with pytest.raises(ValueError) as restricted:
            bb.restrict_region(ds, region)
        with pytest.raises(ValueError) as scored:
            bb.MeanGainCriterion(region).scores(np.ones(3), ds)
        assert str(scored.value) == str(restricted.value) == "region contains no sample directions of positive weight"

    def test_the_mean_criterion_weighs_the_directions_restrict_region_keeps(self):
        ds = bb.fibonacci_directions(100)
        region = bb.CoverageRegion(theta_range=(0.0, 90.0), phi_range=(300.0, 40.0))
        mask, weights = codebook_module._region_weights(ds, region)
        restricted = bb.restrict_region(ds, region)
        assert weights[mask].tobytes() == restricted.weights.tobytes() and not weights[~mask].any()
        gains = np.random.default_rng(0).uniform(size=(3, 100))
        assert_allclose(bb.MeanGainCriterion(region).scores(gains, ds), gains[:, mask] @ restricted.weights, rtol=1e-14)


class TestCandidates:
    def test_count_per_array(self, iso_grid):
        grid, _ = iso_grid
        grids = {"a": grid, "b": grid, "c": grid}
        cands = bb.generate_candidates(grids, 11, "eigen", bb.PhaseSpec(5))
        assert len(cands) == 33
        assert type(cands) is tuple and all(type(c) is bb.CodebookEntry for c in cands)
        assert {c.array_id for c in cands} == {"a", "b", "c"}

    def test_one_lookup_per_array(self, two_meshes, lookups):
        grids, _ = two_meshes
        cands = bb.generate_candidates(grids, 12, "eigen", bb.PhaseSpec(3))
        assert len(cands) == 24
        assert lookups == {"snap_to_grid": 2, "fields_at": 2}

    def test_single_element_trivial_codeword(self):
        grid, _ = bb.generate_ula_efield(bb.SyntheticUlaSpec(1, 0.5))
        cands = bb.generate_candidates(grid, 1, "iterative", bb.PhaseSpec(2), seed=0)
        assert_allclose(cands[0].weights.weights, [1.0 + 0j], atol=1e-12)

    def test_eigen_and_iterative_agree_on_lattice_aligned(self):
        grid, _ = bb.generate_ula_efield(bb.SyntheticUlaSpec(4, 0.5))
        # broadside: progressive phases are all zero, exactly on any lattice
        ds = bb.DirectionSet(np.array([90.0]), np.array([0.0]), np.array([1.0]))
        M = field_coherence(*grid.fields_at(ds))
        (eig,) = bb.eigen_beams(M[None], bb.PhaseSpec(5))
        (it,) = bb.design_beam(M[None], bb.PhaseSpec(5), seed=[9])
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
        cands = bb.generate_candidates(grid, 24, "eigen", bb.PhaseSpec(5))
        result = bb.greedy_codebook(cands, grid, bb.MeanGainCriterion(), 1, dirs)
        resolved = bb.resolve_directions(grid, dirs)
        means = []
        for c in cands:
            means.append(float(np.dot(dirs.weights, bb.composite_gains_linear(bb.entry_gains_linear(resolved, (c,))))))
        selected = bb.entry_gains_linear(resolved, result.codebook.entries)
        selected_mean = float(np.dot(dirs.weights, bb.composite_gains_linear(selected)))
        assert selected_mean == pytest.approx(max(means), rel=1e-12)

    def test_utility_strictly_increases(self, directional_grid):
        grid, dirs = directional_grid
        cands = bb.generate_candidates(grid, 64, "eigen", bb.PhaseSpec(5))
        result = bb.greedy_codebook(cands, grid, bb.MeanGainCriterion(), 5, dirs)
        assert result.codebook.size == 5
        assert np.all(np.diff(result.utilities_db) > 0)
        assert result.stop_reason == "stopping rule satisfied"

    def test_unreachable_threshold_exhausts_pool(self, directional_grid):
        grid, dirs = directional_grid
        cands = bb.generate_candidates(grid, 8, "eigen", bb.PhaseSpec(5))
        bound_mean = float(np.dot(dirs.weights, bb.upper_bound_gains_linear(bb.resolve_directions(grid, dirs))))
        stop = (bb.MeanGainCriterion(), bb.db_from_linear(bound_mean) + 3.0)
        result = bb.greedy_codebook(cands, grid, bb.MeanGainCriterion(), 9, dirs, stop)
        assert result.stop_reason == "pool exhausted"
        assert result.codebook.size == 8

    def test_size_caps_an_unreachable_threshold(self, directional_grid):
        grid, dirs = directional_grid
        cands = bb.generate_candidates(grid, 8, "eigen", bb.PhaseSpec(5))
        stop = (bb.PercentileMixCriterion(((50.0, 1.0),)), 50.0)
        result = bb.greedy_codebook(cands, grid, bb.MeanGainCriterion(), 3, dirs, stop)
        assert result.codebook.size == 3
        assert result.stop_reason == "size reached before the stop threshold"

    def test_threshold_stop_triggers(self, directional_grid):
        grid, dirs = directional_grid
        cands = bb.generate_candidates(grid, 32, "eigen", bb.PhaseSpec(5))
        result = bb.greedy_codebook(
            cands, grid, bb.MeanGainCriterion(), 32, dirs, (bb.MeanGainCriterion(), -10.0)
        )
        assert result.stop_reason == "stopping rule satisfied"
        assert result.codebook.size < 32

    def test_duplicate_candidates_tie_to_lower_index(self, iso_grid):
        grid, dirs = iso_grid
        one = bb.generate_candidates(grid, 1, "eigen", bb.PhaseSpec(5))
        result = bb.greedy_codebook(one + one, grid, bb.MeanGainCriterion(), 1, dirs)
        assert result.codebook.size == 1  # picked index 0, not 1

    @pytest.mark.parametrize("criterion", [bb.MeanGainCriterion(),
                                           bb.PercentileMixCriterion(((10.0, 1.0), (50.0, 1.0)))])
    def test_picks_equal_rescoring_the_whole_pool_every_round(self, directional_grid, criterion):
        # The in-place pool composite against max(best, G[pool]) rebuilt each
        # round, on a pool of many tied candidates.
        grid, dirs = directional_grid
        cands = bb.generate_candidates(grid, 150, "eigen", bb.PhaseSpec(5))
        result = bb.greedy_codebook(cands, grid, criterion, 10, dirs)
        rows, G = codebook_module._candidate_gain_matrix(cands, grid, dirs)
        pool, best, picks = list(range(len(rows))), np.zeros(len(dirs)), []
        for _ in range(10):
            picks.append(pool.pop(int(np.argmax(criterion.scores(np.maximum(best, G[pool]), dirs)))))
            np.maximum(best, G[picks[-1]], out=best)
        assert result.codebook.size == len(picks)
        assert all(entry.weights is cands[rows[r]].weights for entry, r in zip(result.codebook.entries, picks))

    @pytest.mark.parametrize("array_id, elements", [("ula", 8), ("other", 4)])
    def test_candidate_that_fits_no_array_rejected(self, iso_grid, array_id, elements):
        grid, dirs = iso_grid
        cands = bb.generate_candidates(grid, 3, "eigen", bb.PhaseSpec(3))
        misfit = bb.CodebookEntry(array_id, bb.BeamWeights(np.ones(elements) / np.sqrt(elements),
                                                           bb.PhaseSpec(3)))
        with pytest.raises(ValueError, match=f"candidate 3: a beam with {elements} weights on array '{array_id}'"):
            bb.greedy_codebook(cands + (misfit,), grid, bb.MeanGainCriterion(), 2, dirs)

    def test_percentile_criterion_runs(self, directional_grid):
        grid, dirs = directional_grid
        cands = bb.generate_candidates(grid, 16, "eigen", bb.PhaseSpec(5))
        crit = bb.PercentileMixCriterion(((50.0, 1.0),))
        result = bb.greedy_codebook(cands, grid, crit, 3, dirs)
        assert result.codebook.size == 3
        assert np.all(np.diff(result.utilities_db) >= 0)


def distinct_beams(entries):
    """The first entry of each (array, weight bytes) pair, in pool order."""
    first = {}
    for entry in entries:
        first.setdefault((entry.array_id, entry.weights.weights.tobytes()), entry)
    return tuple(first.values())


def copy_of(entry):
    return bb.CodebookEntry(entry.array_id, bb.BeamWeights(entry.weights.weights, entry.weights.phase_spec))


class TestGreedyOverDistinctBeams:
    """Copies of a beam on one array are scored once, as their first occurrence."""

    @pytest.fixture(scope="class")
    def pools(self, directional_grid):
        grid, dirs = directional_grid
        generated = bb.generate_candidates(grid, 60, "eigen", bb.PhaseSpec(3))
        distinct = distinct_beams(generated)
        assert len(distinct) < len(generated)  # neighbouring directions snap to one 3-bit beam
        interleaved = []
        for i, entry in enumerate(distinct):  # each beam, then copies of an earlier beam and of itself
            interleaved += [entry, copy_of(distinct[i // 2]), copy_of(entry)]
        return grid, dirs, distinct, (generated, tuple(interleaved))

    @pytest.mark.parametrize("criterion", [bb.MeanGainCriterion(),
                                           bb.PercentileMixCriterion(((5.0, 1.0), (50.0, 1.0)))])
    @pytest.mark.parametrize("size", [6, 30])
    def test_a_pool_with_copies_gives_the_result_of_its_distinct_beams(self, pools, criterion, size):
        grid, dirs, distinct, with_copies = pools
        want = bb.greedy_codebook(distinct, grid, criterion, size, dirs)
        for pool in with_copies:
            got = bb.greedy_codebook(pool, grid, criterion, size, dirs)
            assert got.codebook == want.codebook
            assert got.utilities_db.tobytes() == want.utilities_db.tobytes()
            assert got.stop_reason == want.stop_reason

    def test_a_size_above_the_distinct_count_exhausts_the_pool_without_copies(self, pools):
        grid, dirs, distinct, (generated, _) = pools
        result = bb.greedy_codebook(generated, grid, bb.MeanGainCriterion(), len(distinct) + 3, dirs)
        assert result.stop_reason == "pool exhausted"
        assert result.codebook.size == len(distinct)
        assert set(distinct_beams(result.codebook.entries)) == set(distinct)

    def test_a_beam_that_fits_no_array_is_named_by_its_index_among_the_copies(self, iso_grid):
        grid, dirs = iso_grid
        cands = bb.generate_candidates(grid, 3, "eigen", bb.PhaseSpec(3))
        misfit = bb.CodebookEntry("ula", bb.BeamWeights(np.ones(8) / np.sqrt(8), bb.PhaseSpec(3)))
        with pytest.raises(ValueError, match="candidate 6: a beam with 8 weights on array 'ula'"):
            bb.greedy_codebook(cands + cands + (misfit,), grid, bb.MeanGainCriterion(), 2, dirs)

    @pytest.mark.parametrize("bits", [None, 3])
    def test_field_gains_of_any_sub_stack_or_single_beam_are_those_rows_bit_for_bit(self, directional_grid, bits):
        grid, dirs = directional_grid
        spec = bb.PhaseSpec() if bits is None else bb.PhaseSpec(bits)
        W = np.stack([e.weights.weights for e in bb.generate_candidates(grid, 60, "iterative", spec, n_rand=20)])
        et, ep = grid.fields_at(dirs)
        full = field_gains(W, et, ep)
        picks = np.random.default_rng(0).permutation(len(W))
        for rows in ([0, len(W) - 1], [5, 2], np.sort(picks[:17]), picks[:31], np.arange(1, len(W), 2), [0], [7]):
            assert field_gains(W[rows], et, ep).tobytes() == full[rows].tobytes()
        for row in (0, len(W) - 1):
            assert field_gains(W[row], et, ep).tobytes() == full[row].tobytes()


class TestDesignerOptimalAtPaperSize:
    """Every beam the paper's L = 4, b = 5 designs ask of ``design_beam`` is the exhaustive 5-bit optimum."""

    @pytest.fixture
    def members(self, monkeypatch):
        """(M, beam) for every ``design_beam`` member that codebook synthesis designs while the test runs."""
        recorded = []

        def recording(M, phase_spec, **kwargs):
            beams = bb.design_beam(M, phase_spec, **kwargs)
            recorded.extend(zip(M, beams))
            return beams

        monkeypatch.setattr(codebook_module, "design_beam", recording)
        return recorded

    def test_kmeans_and_iterative_candidates_on_the_paper_arrays(self, members):
        bits5 = bb.PhaseSpec(5)
        for spacing, q in ((0.65, 0), (0.5, 1), (0.5, 3)):
            spec = bb.SyntheticUlaSpec(4, spacing, element_pattern_q=q, sampling_factor=20)
            grid, dirs = bb.generate_ula_efield(spec)
            bb.kmeans_codebook(grid, 4, dirs, bits5, init=bb.benchmark_codebook(spec, 4, bits5), n_rand=50, seed=1)
        kmeans_members = len(members)
        grid, _ = bb.generate_ula_efield(bb.SyntheticUlaSpec(4, 0.65, sampling_factor=20))
        bb.generate_candidates(grid, 24, "iterative", bits5, seed=1, n_rand=50)
        assert kmeans_members >= 12 and len(members) == kmeans_members + 24
        for M, beam in members:
            assert beam.gain(M) == pytest.approx(brute_force_b3(M, 5).gain, rel=1e-12, abs=0.0)


class TestKMeans:
    def test_single_beam_converges_immediately(self, iso_grid):
        grid, dirs = iso_grid
        result = bb.kmeans_codebook(grid, num_beams=1, direction_set=dirs, phase_spec=bb.PhaseSpec(5), seed=0)
        assert result.iterations <= 2
        assert np.all(result.assignments == 0)

    def test_uniform_init_monotone_and_fast(self, directional_grid):
        grid, dirs = directional_grid
        result = bb.kmeans_codebook(
            grid, num_beams=5, direction_set=dirs, phase_spec=bb.PhaseSpec(5), n_rand=200, seed=3
        )
        assert result.iterations < 20
        assert np.all(np.diff(result.mean_gain_trace_db) >= -1e-12)

    @pytest.mark.parametrize("q, num_beams, max_iterations, stop_reason, iterations", [
        (0, 1, 50, "assignments unchanged", 1),
        (2, 4, 50, "mean gain converged", 6),
        (2, 4, 1, "max iterations", 1),
    ])
    def test_iterations_are_the_trace_entries_after_the_first(self, monkeypatch, q, num_beams, max_iterations,
                                                              stop_reason, iterations):
        # Counted apart: the gains are computed once up front and once per re-design.
        grid, dirs = bb.generate_ula_efield(bb.SyntheticUlaSpec(4, 0.5, element_pattern_q=q))
        calls = []
        gains = codebook_module.entry_gains_linear

        def counted(*args):
            calls.append(args)
            return gains(*args)

        monkeypatch.setattr(codebook_module, "entry_gains_linear", counted)
        result = bb.kmeans_codebook(grid, num_beams=num_beams, direction_set=dirs, phase_spec=bb.PhaseSpec(5),
                                    n_rand=100, max_iterations=max_iterations, seed=0)
        assert result.stop_reason == stop_reason
        assert result.iterations == len(result.mean_gain_trace_db) - 1 == len(calls) - 1 == iterations

    def test_assignment_partitions_directions(self, directional_grid):
        grid, dirs = directional_grid
        result = bb.kmeans_codebook(
            grid, num_beams=3, direction_set=dirs, phase_spec=bb.PhaseSpec(5), n_rand=100, seed=1
        )
        assert result.assignments.shape == (len(dirs),)
        assert set(np.unique(result.assignments)).issubset(set(range(3)))

    def test_explicit_initial_codebook_never_degrades(self, iso_grid):
        grid, dirs = iso_grid
        spec = bb.SyntheticUlaSpec(4, 0.5)
        init = bb.benchmark_codebook(spec, 4, bb.PhaseSpec(5), array_ids=[grid.array_id])
        resolved = bb.resolve_directions(grid, dirs)
        init_mean = float(np.dot(dirs.weights, bb.composite_gains_linear(bb.entry_gains_linear(resolved, init.entries))))
        result = bb.kmeans_codebook(
            grid, num_beams=4, direction_set=dirs, phase_spec=bb.PhaseSpec(5), init=init, n_rand=500, seed=5
        )
        final = bb.entry_gains_linear(resolved, result.codebook.entries)
        final_mean = float(np.dot(dirs.weights, bb.composite_gains_linear(final)))
        assert final_mean >= init_mean - 1e-12

    def test_greedy_init(self, directional_grid):
        grid, dirs = directional_grid
        cands = bb.generate_candidates(grid, 24, "eigen", bb.PhaseSpec(5))
        init = bb.greedy_codebook(cands, grid, bb.MeanGainCriterion(), 3, dirs).codebook
        result = bb.kmeans_codebook(
            grid, num_beams=3, direction_set=dirs, phase_spec=bb.PhaseSpec(5), init=init, n_rand=100, seed=2
        )
        assert result.codebook.size == 3

    def test_zero_weight_cluster_leaves_its_beam_untouched(self, iso_grid):
        # Beam 0 serves only the zero-weight direction at 120 degrees, so its
        # cluster matrix is zero; any beam ties that cluster's objective.
        grid, _ = iso_grid
        spec = bb.PhaseSpec(5)
        init = bb.benchmark_codebook(bb.SyntheticUlaSpec(4, 0.5), 2, spec, array_ids=[grid.array_id])
        dirs = bb.DirectionSet(np.array([60.0, 70.0, 120.0]), np.zeros(3), np.array([0.5, 0.5, 0.0]))
        result = bb.kmeans_codebook(grid, num_beams=2, direction_set=dirs, phase_spec=spec, init=init,
                                    n_rand=50, max_iterations=1, seed=0)
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
        bits3 = bb.PhaseSpec(3)
        init = bb.Codebook(tuple(
            entry
            for L in (4, 6)
            for entry in bb.benchmark_codebook(bb.SyntheticUlaSpec(L, 0.5), 2, bits3, [f"ula{L}"]).entries
        ))
        run = dict(num_beams=4, direction_set=bb.mesh_directions(grids["ula4"]), phase_spec=bits3,
                   init=init, n_rand=100, seed=4)
        design_beam = codebook_module.design_beam
        stack_sizes = []

        def spy(M, *args, **kwargs):
            stack_sizes.append(np.shape(M)[:2])
            return design_beam(M, *args, **kwargs)

        def one_by_one(M, *args, seed, **kwargs):
            return tuple(design_beam(m[None], *args, seed=[s], **kwargs)[0] for m, s in zip(M, seed))

        monkeypatch.setattr(codebook_module, "design_beam", spy)
        stacked = bb.kmeans_codebook(grids, **run)
        monkeypatch.setattr(codebook_module, "design_beam", one_by_one)
        looped = bb.kmeans_codebook(grids, **run)

        assert {L for _, L in stack_sizes} == {4, 6}
        assert len(stack_sizes) <= 2 * stacked.iterations
        assert np.array_equal(stacked.mean_gain_trace_db, looped.mean_gain_trace_db)
        for a, b in zip(stacked.codebook.entries, looped.codebook.entries):
            assert a.array_id == b.array_id and np.array_equal(a.weights.weights, b.weights.weights)
        assert np.all(np.diff(stacked.mean_gain_trace_db) >= -1e-12)

    def test_too_many_beams_rejected(self, iso_grid):
        grid, _ = iso_grid
        tiny = bb.DirectionSet(np.array([90.0]), np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="num_beams exceeds the number of directions"):
            bb.kmeans_codebook(grid, num_beams=2, direction_set=tiny, phase_spec=bb.PhaseSpec(5))

    @pytest.mark.parametrize("bad, message", [({"num_beams": 0}, "num_beams must be an integer >= 1, got 0"),
                                              ({"max_iterations": 0}, "max_iterations must be an integer >= 1, got 0")])
    def test_nonpositive_counts_rejected(self, iso_grid, bad, message):
        grid, dirs = iso_grid
        run = {"num_beams": 1, "direction_set": dirs, "phase_spec": bb.PhaseSpec(5), **bad}
        with pytest.raises(ValueError, match=message):
            bb.kmeans_codebook(grid, **run)

    @pytest.mark.parametrize("given_init, lookups_per_array", [(True, 1), (False, 2)])
    def test_lookups_per_array(self, two_meshes, lookups, given_init, lookups_per_array):
        # One lookup per array for the run's directions, and one more for uniform_init's.
        grids, init = two_meshes
        bb.kmeans_codebook(grids, num_beams=4, direction_set=bb.fibonacci_directions(60),
                           phase_spec=bb.PhaseSpec(3), init=init if given_init else None, n_rand=20, seed=1)
        assert lookups == {"snap_to_grid": 2 * lookups_per_array, "fields_at": 2 * lookups_per_array}

    @pytest.mark.parametrize("array_id, elements", [("ula", 8), ("other", 4)])
    def test_start_that_fits_no_array_rejected(self, iso_grid, array_id, elements):
        grid, dirs = iso_grid
        init = bb.Codebook([bb.CodebookEntry("ula", bb.BeamWeights(np.full(4, 0.5), bb.PhaseSpec(2))),
                            bb.CodebookEntry(array_id, bb.BeamWeights(np.ones(elements) / np.sqrt(elements),
                                                                      bb.PhaseSpec(2)))])
        with pytest.raises(ValueError, match=f"initial beam 1: a beam with {elements} weights on array '{array_id}'"):
            bb.kmeans_codebook(grid, num_beams=2, direction_set=dirs, phase_spec=bb.PhaseSpec(2), init=init)

    def test_start_off_the_phase_lattice_rejected_before_any_design(self, iso_grid, monkeypatch):
        # A continuous start whose phases miss the 2-bit lattice: K-Means would
        # replace this lone beam, so only an up-front check catches it.
        grid, dirs = iso_grid
        init = bb.Codebook([bb.CodebookEntry(grid.array_id, bb.BeamWeights.from_phases(
            np.array([0.0, 0.3, 0.6, 0.9]), bb.PhaseSpec()))])
        design_beam, designs = codebook_module.design_beam, []
        monkeypatch.setattr(codebook_module, "design_beam",
                            lambda *args, **kwargs: designs.append(args) or design_beam(*args, **kwargs))
        with pytest.raises(ValueError, match="lattice"):
            bb.kmeans_codebook(grid, num_beams=1, direction_set=dirs, phase_spec=bb.PhaseSpec(2), init=init)
        assert designs == []


class _ArgmaxSpy:
    """Stands in for ``np`` in the codebook module and keeps a copy of every matrix whose column argmax it takes."""

    def __init__(self, seen: list):
        self.seen = seen

    def __getattr__(self, name):
        return getattr(np, name)

    def argmax(self, a, axis=None):
        if axis == 0:
            self.seen.append(np.array(a))
        return np.argmax(a, axis=axis)


class TestKMeansSkipsUnchangedClusters:
    """A beam whose cluster kept the members of its last design, which drew nothing, is not re-designed."""

    @pytest.fixture(scope="class")
    def ula8(self):
        spec = bb.SyntheticUlaSpec(8, 0.5, element_pattern_q=2, sampling_factor=60)
        grid, dirs = bb.generate_ula_efield(spec)
        bits3 = bb.PhaseSpec(3)
        return grid, dirs, dict(num_beams=8, direction_set=dirs, phase_spec=bits3,
                                init=bb.benchmark_codebook(spec, 8, bits3), n_rand=50, seed=2)

    @staticmethod
    def spied_run(monkeypatch, grid, run):
        """The run, each design call's (keys, drew) and the (K, N) gains at the start of every iteration."""
        design_beam, calls, seen = codebook_module.design_beam, [], []

        def spy(M, phase_spec, *, seed, drew=None, **kwargs):
            beams = design_beam(M, phase_spec, seed=seed, drew=drew, **kwargs)
            calls.append((list(seed), list(drew)))
            return beams

        monkeypatch.setattr(codebook_module, "design_beam", spy)
        monkeypatch.setattr(codebook_module, "np", _ArgmaxSpy(seen))
        result = bb.kmeans_codebook(grid, **run)
        monkeypatch.undo()
        return result, calls, seen

    @staticmethod
    def clusters(grid, dirs, gains):
        """Beam -> (member indices, has field) under the assignment that ``gains`` gives."""
        et, ep = grid.fields_at(bb.snap_to_grid(dirs, grid))
        assignments = np.argmax(gains, axis=0)
        out = {}
        for k in range(len(gains)):
            members = np.flatnonzero(assignments == k)
            out[k] = members, np.trace(field_coherence(et[:, members], ep[:, members], dirs.weights[members])).real > 0
        return out

    def test_unchanged_clusters_get_no_design_call_when_nothing_draws(self, ula8, monkeypatch):
        grid, dirs, run = ula8
        result, calls, seen = self.spied_run(monkeypatch, grid, run)
        assert not any(drawn for _, drew in calls for drawn in drew)
        designed = {}  # (iteration, beam) -> members, for every design
        skipped = 0
        for t in range(result.iterations):
            keys = {key for seed, _ in calls for key in seed if key[1] == t}
            for k, (members, field) in self.clusters(grid, dirs, seen[t]).items():
                if (run["seed"], t, k) in keys:
                    designed[t, k] = members
                elif field:  # skipped: the members of its last design
                    skipped += 1
                    last = max(s for s, beam in designed if beam == k)
                    assert np.array_equal(members, designed[last, k])
        assert skipped > 0 and sum(len(seed) for seed, _ in calls) == len(designed)

    def test_a_member_that_draws_is_redesigned_in_every_iteration(self, ula8, monkeypatch):
        # Beam 0's relaxation is mixed with I/L, which keeps its diagonal: full rank, so it draws.
        grid, dirs, run = ula8
        solve_sdr, keys_now = beamopt_module.solve_sdr, []

        def beam0_draws(M):
            return tuple(s._replace(W=0.5 * s.W + 0.5 * np.eye(len(s.W)) / len(s.W)) if key[2] == 0 else s
                         for s, key in zip(solve_sdr(M), keys_now[-1]))

        design_beam = codebook_module.design_beam

        def keys_first(M, spec, *, seed, **kwargs):
            keys_now.append(seed)
            return design_beam(M, spec, seed=seed, **kwargs)

        monkeypatch.setattr(beamopt_module, "solve_sdr", beam0_draws)
        monkeypatch.setattr(codebook_module, "design_beam", keys_first)
        result, calls, seen = self.spied_run(monkeypatch, grid, run)
        assert result.iterations > 2
        for t in range(result.iterations):
            (drawn,) = [d for seed, drew in calls for key, d in zip(seed, drew) if key == (run["seed"], t, 0)]
            assert drawn
        others = sum(field for t in range(result.iterations)
                     for k, (_, field) in self.clusters(grid, dirs, seen[t]).items() if k)
        assert sum(len(seed) for seed, _ in calls) < result.iterations + others  # other beams still skip

    def test_gains_equal_a_full_recompute_after_every_iteration(self, ula8, monkeypatch):
        grid, dirs, run = ula8
        result, _, seen = self.spied_run(monkeypatch, grid, run)
        resolved = bb.resolve_directions(grid, dirs)
        for t in range(1, result.iterations + 1):
            after = bb.kmeans_codebook(grid, **{**run, "max_iterations": t})
            gains = bb.entry_gains_linear(resolved, after.codebook.entries)
            if t < len(seen):
                assert gains.tobytes() == seen[t].tobytes()
            assert bb.MeanGainCriterion().value(gains.max(axis=0), dirs) == result.mean_gain_trace_db[t]

    def test_design_beam_returns_the_same_bytes_with_and_without_drew(self):
        # Zero (draws), rank-one M, certified, and a rank-two relaxation (draws).
        stack = np.stack([np.zeros((5, 5))] + [random_instance(RandomInstanceSpec(5, r, s)) for r, s in
                                               ((1, 3), (5, 0), (3, 205))])
        for spec in (bb.PhaseSpec(), bb.PhaseSpec(3)):
            drew = []
            recorded = bb.design_beam(stack, spec, seed=[1, 2, 3, 4], n_rand=50, drew=drew)
            assert drew == [True, False, False, True]
            plain = bb.design_beam(stack, spec, seed=[1, 2, 3, 4], n_rand=50)
            assert [b.weights.tobytes() for b in recorded] == [b.weights.tobytes() for b in plain]


class TestUniformInit:
    def test_single_array_single_beam(self, iso_grid):
        grid, _ = iso_grid
        cb = bb.uniform_init(1, grid, bb.PhaseSpec(5))
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
        cb = bb.uniform_init(5, {"weak": weak, "strong": strong}, bb.PhaseSpec(5))
        assert all(e.array_id == "strong" for e in cb.entries)

    @pytest.mark.parametrize("order", [("a", "b"), ("b", "a")])
    def test_ties_go_to_the_first_array(self, order):
        grid, _ = bb.generate_ula_efield(bb.SyntheticUlaSpec(4, 0.5))
        grids = {name: bb.EFieldGrid(name, grid.theta_axis, grid.phi_axis, grid.e_theta, grid.e_phi)
                 for name in order}
        cb = bb.uniform_init(6, grids, bb.PhaseSpec(5))
        assert all(e.array_id == order[0] for e in cb.entries)

    def test_multi_array_attribution_by_eigen_bound(self):
        spec = bb.SyntheticUlaSpec(4, 0.5, element_pattern_q=2)
        theta_axis = np.arange(0.0, 180.1, 10.0)
        phi_axis = np.arange(0.0, 359.9, 10.0)
        grids = {
            "y": bb.oriented_ula_efield(spec, (0, 1, 0), theta_axis, phi_axis, "y"),
            "x": bb.oriented_ula_efield(spec, (1, 0, 0), theta_axis, phi_axis, "x"),
        }
        cb = bb.uniform_init(12, grids, bb.PhaseSpec(5))
        fib = bb.fibonacci_directions(12)
        for entry, theta, phi in zip(cb.entries, fib.theta, fib.phi):
            lams = {}
            for name, grid in grids.items():
                ds = bb.snap_to_grid(bb.DirectionSet([theta], [phi], [1.0]), grid)
                lams[name] = bb.upper_bound_gains_linear(bb.resolve_directions(grid, ds))[0]
            best = max(lams, key=lambda n: lams[n])
            if abs(lams["x"] - lams["y"]) > 1e-9:  # skip exact ties, order-dependent
                assert entry.array_id == best

    @pytest.mark.parametrize("bits", [5, None])
    @pytest.mark.parametrize("terminal", ["ula", "standin3"])
    def test_picks_the_eigen_candidate_of_the_array_with_the_largest_bound(self, request, terminal, bits):
        grids = request.getfixturevalue("iso_grid")[0] if terminal == "ula" else request.getfixturevalue(terminal).grids
        spec, K = bb.PhaseSpec(bits), 12
        pool = bb.generate_candidates(grids, K, "eigen", spec)  # K beams per array, array by array
        resolved = bb.resolve_directions(grids, bb.fibonacci_directions(K))
        best = np.argmax([top_eigenvalues(et, ep) for _, et, ep in resolved.values()], axis=0)
        expected = [pool[a * K + i] for i, a in enumerate(best)]
        got = bb.uniform_init(K, grids, spec).entries
        assert [e.array_id for e in got] == [e.array_id for e in expected]
        assert all(g.weights.weights.tobytes() == e.weights.weights.tobytes() for g, e in zip(got, expected))
        assert terminal == "ula" or len(set(best.tolist())) > 1  # the picks span arrays


# Every library argument held to the count rule: site -> (argument name, call with that count on the
# count_inputs fixture's grid, directions and candidate pool).
COUNT_SITES = {
    "greedy size": ("size", lambda c, n: bb.greedy_codebook(
        c.pool, c.grid, bb.MeanGainCriterion(), n, c.dirs).codebook),
    "kmeans num_beams": ("num_beams", lambda c, n: bb.kmeans_codebook(
        c.grid, n, c.dirs, bb.PhaseSpec(5), max_iterations=1).codebook),
    "kmeans max_iterations": ("max_iterations", lambda c, n: bb.kmeans_codebook(
        c.grid, 2, c.dirs, bb.PhaseSpec(5), max_iterations=n).codebook),
    "uniform_init num_beams": ("num_beams", lambda c, n: bb.uniform_init(n, c.grid, bb.PhaseSpec(5))),
    "candidates count_per_sphere": ("count_per_sphere", lambda c, n: bb.generate_candidates(
        c.grid, n, "eigen", bb.PhaseSpec(5))),
    "fibonacci count": ("count", lambda c, n: bb.fibonacci_directions(n)),
    "benchmark size": ("size", lambda c, n: bb.benchmark_codebook(bb.SyntheticUlaSpec(4, 0.5), n, bb.PhaseSpec(5))),
    "802.15.3c size": ("size", lambda c, n: bb.codebook_802_15_3c(4, n, 2)),
    "802.15.3c num_elements": ("num_elements", lambda c, n: bb.codebook_802_15_3c(n, 2, 2)),
    "ula num_elements": ("num_elements", lambda c, n: bb.SyntheticUlaSpec(n, 0.5)),
    "ula sampling_factor": ("sampling_factor", lambda c, n: bb.SyntheticUlaSpec(4, 0.5, sampling_factor=n)),
}


@pytest.fixture(scope="module")
def count_inputs(iso_grid):
    grid, dirs = iso_grid
    return SimpleNamespace(grid=grid, dirs=dirs, pool=bb.generate_candidates(grid, 40, "eigen", bb.PhaseSpec(5)))


class TestCountRule:
    @pytest.mark.parametrize("value", [2.5, True, np.float64(2.0), 0, -1])
    @pytest.mark.parametrize("site", COUNT_SITES)
    def test_a_count_that_is_not_a_positive_integer_is_rejected_by_name(self, count_inputs, site, value):
        # Unchecked, greedy builds the whole 40-beam pool for size 2.5 and one beam for size True,
        # K-Means runs one iteration for max_iterations True, and 2.5 reaches NumPy's TypeError.
        name, call = COUNT_SITES[site]
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer >= 1, got {value!r}")):
            call(count_inputs, value)

    @pytest.mark.parametrize("site", COUNT_SITES)
    def test_a_numpy_integer_counts_as_its_python_value(self, count_inputs, site):
        _, call = COUNT_SITES[site]
        assert call(count_inputs, np.int64(2)) == call(count_inputs, 2)


# Every library seed argument held to the seed rule: site -> call with that seed on the count_inputs fixture.
SEED_SITES = {
    "candidates eigen": lambda c, s: bb.generate_candidates(c.grid, 4, "eigen", bb.PhaseSpec(3), seed=s),
    "candidates iterative": lambda c, s: bb.generate_candidates(c.grid, 4, "iterative", bb.PhaseSpec(3), seed=s,
                                                                n_rand=10),
    "kmeans": lambda c, s: bb.kmeans_codebook(c.grid, 2, c.dirs, bb.PhaseSpec(5), n_rand=10, seed=s).codebook,
}


class TestSeedRule:
    @pytest.mark.parametrize("value", [-1, 1.5, True, np.float64(2.0), None, (0, 1)])
    @pytest.mark.parametrize("site", SEED_SITES)
    def test_a_seed_that_is_not_a_nonnegative_integer_is_rejected(self, count_inputs, site, value):
        # Unchecked, -1 and 1.5 reached NumPy's own errors only where a member drew, and True seeded as 1.
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer >= 0, got {value!r}")):
            SEED_SITES[site](count_inputs, value)

    @pytest.mark.parametrize("site", SEED_SITES)
    def test_a_numpy_integer_seeds_as_its_python_value(self, count_inputs, site):
        assert SEED_SITES[site](count_inputs, np.int64(3)) == SEED_SITES[site](count_inputs, 3)


class TestCodebookJson:
    def test_codebook_without_beams_rejected(self):
        with pytest.raises(ValueError, match="at least one beam"):
            bb.Codebook(())
        with pytest.raises(ValueError, match="at least one beam"):
            bb.Codebook(iter([]))

    def test_codebook_mixing_phase_specs_rejected(self):
        beams = [bb.BeamWeights(np.full(4, 0.5 + 0.0j), bb.PhaseSpec(bits)) for bits in (2, 3)]
        with pytest.raises(ValueError, match="codebook mixes phase constraints"):
            bb.Codebook(bb.CodebookEntry("ula", w) for w in beams)

    def test_round_trip_exact(self, iso_grid, tmp_path):
        grid, dirs = iso_grid
        spec = bb.SyntheticUlaSpec(4, 0.5)
        cb = bb.benchmark_codebook(spec, 4, bb.PhaseSpec(5))
        path = tmp_path / "cb.json"
        bb.save_codebook(cb, path)
        back = bb.load_codebook(path)
        assert back.phase_bits == 5
        assert back == cb

    def test_round_trip_exact_continuous(self, iso_grid, tmp_path):
        grid, _ = iso_grid
        rng = np.random.default_rng(3)
        beams = [bb.BeamWeights(np.exp(1j * rng.uniform(-math.pi, math.pi, 4)) / 2.0, bb.PhaseSpec())
                 for _ in range(3)]
        cb = bb.Codebook(tuple(bb.CodebookEntry(grid.array_id, w) for w in beams))
        path = tmp_path / "cb.json"
        bb.save_codebook(cb, path)
        assert bb.load_codebook(path) == cb

    def test_continuous_phase_bits_null(self, iso_grid, tmp_path):
        grid, _ = iso_grid
        w = bb.BeamWeights(np.ones(4, dtype=complex) / 2.0, bb.PhaseSpec())
        cb = bb.Codebook((bb.CodebookEntry(grid.array_id, w),))
        path = tmp_path / "cb.json"
        bb.save_codebook(cb, path)
        assert bb.load_codebook(path).phase_bits is None

    def test_summary_lists_aims_and_peaks(self, iso_grid):
        grid, dirs = iso_grid
        spec = bb.SyntheticUlaSpec(4, 0.5)
        cb = bb.benchmark_codebook(spec, 2, bb.PhaseSpec(5), array_ids=[grid.array_id])
        resolved = bb.resolve_directions(grid, dirs)
        text = bb.codebook_summary(cb, resolved, bb.entry_gains_linear(resolved, cb.entries))
        assert text.count("beam ") == 2
        assert "peak=" in text and "aim=" in text
