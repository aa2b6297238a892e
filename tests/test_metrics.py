import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import beambook as bb
from beambook.efield import GAIN_FACTOR
from beambook.metrics import db_from_linear, linear_from_db


def unimodular(phases):
    return bb.BeamWeights(np.exp(1j * np.asarray(phases)) / math.sqrt(len(phases)), bb.PhaseSpec.continuous())


@pytest.fixture(scope="module")
def iso_grid():
    return bb.generate_ula_efield(bb.SyntheticUlaSpec(4, 0.5))


class TestBeamGain:
    def test_single_isotropic_element_unit_gain(self):
        grid, dirs = bb.generate_ula_efield(bb.SyntheticUlaSpec(1, 0.5))
        w = bb.BeamWeights(np.array([1.0 + 0j]), bb.PhaseSpec.continuous())
        gains = [bb.beam_gain(grid, w, d) for d in list(dirs)[::40]]
        assert_allclose(gains, 1.0, rtol=1e-12)

    def test_cophased_coherent_combining(self, iso_grid):
        grid, _ = iso_grid
        w = unimodular([0.0, 0.0, 0.0, 0.0])
        assert_allclose(bb.beam_gain(grid, w, bb.Direction(90.0, 0.0)), 4.0, rtol=1e-10)

    def test_two_path_consistency(self):
        # production path (field superposition) against the explicit
        # quadratic form of the coherence matrix
        rng = np.random.default_rng(12)
        theta = np.linspace(5, 175, 6)
        phi = np.linspace(0, 300, 5)
        e = lambda: rng.standard_normal((3, 6, 5)) + 1j * rng.standard_normal((3, 6, 5))
        grid = bb.EFieldGrid("g", theta, phi, e(), e())
        for _ in range(20):
            w = unimodular(rng.uniform(0, 2 * math.pi, 3))
            d = bb.Direction(float(theta[rng.integers(6)]), float(phi[rng.integers(5)]))
            M = bb.coherence_matrix(grid, d)
            expected = GAIN_FACTOR * float(np.real(w.weights.conj() @ M @ w.weights))
            assert_allclose(bb.beam_gain(grid, w.weights, d), expected, rtol=1e-12)

    def test_off_mesh_raises(self, iso_grid):
        grid, _ = iso_grid
        with pytest.raises(KeyError):
            bb.beam_gain(grid, unimodular([0, 0, 0, 0]), bb.Direction(90.01, 0.0))


class TestCompositePattern:
    def test_singleton_codebook_equals_beam_pattern(self, iso_grid):
        grid, dirs = iso_grid
        w = unimodular([0.0, 1.0, 2.0, 3.0])
        cb = bb.Codebook((bb.CodebookEntry(grid.array_id, w),))
        comp = bb.composite_pattern(grid, cb, dirs)
        single = bb.beam_pattern(grid, w, dirs)
        assert_allclose(comp.gains_db, single.gains_db, atol=1e-12)

    def test_adding_a_beam_never_decreases(self, iso_grid):
        grid, dirs = iso_grid
        w1 = unimodular([0.0, 0.5, 1.0, 1.5])
        w2 = unimodular([0.0, -0.8, -1.6, -2.4])
        cb1 = bb.Codebook((bb.CodebookEntry(grid.array_id, w1),))
        cb2 = bb.Codebook((bb.CodebookEntry(grid.array_id, w1), bb.CodebookEntry(grid.array_id, w2)))
        g1 = bb.composite_gains_linear(grid, cb1, dirs)
        g2 = bb.composite_gains_linear(grid, cb2, dirs)
        assert np.all(g2 >= g1 - 1e-15)

    def test_empty_codebook_rejected(self, iso_grid):
        grid, dirs = iso_grid
        with pytest.raises(ValueError):
            bb.composite_pattern(grid, bb.Codebook(()), dirs)


class TestUpperBound:
    def test_isotropic_single_element_is_flat_zero_db(self):
        grid, dirs = bb.generate_ula_efield(bb.SyntheticUlaSpec(1, 0.5))
        bound = bb.upper_bound_pattern(grid, dirs)
        assert_allclose(bound.gains_db, 0.0, atol=1e-10)

    def test_rank_one_bound_is_field_norm(self, iso_grid):
        grid, dirs = iso_grid
        d = bb.Direction(90.0, 0.0)
        M = bb.coherence_matrix(grid, d)
        expected = GAIN_FACTOR * np.linalg.eigvalsh(M)[-1]
        ds = bb.DirectionSet(np.array([d.theta]), np.array([d.phi]), np.array([1.0]))
        bound = bb.upper_bound_pattern(grid, ds)
        assert_allclose(linear_from_db(bound.gains_db[0]), expected, rtol=1e-12)

    def test_matches_dense_eigensolve(self):
        rng = np.random.default_rng(21)
        theta = np.linspace(5, 175, 7)
        phi = np.linspace(0, 300, 4)
        e = lambda: rng.standard_normal((4, 7, 4)) + 1j * rng.standard_normal((4, 7, 4))
        grid = bb.EFieldGrid("g", theta, phi, e(), e())
        dirs = bb.mesh_directions(grid)
        bound = bb.upper_bound_gains_linear(grid, dirs)
        for k, d in enumerate(dirs):
            lam = np.linalg.eigvalsh(bb.coherence_matrix(grid, d))[-1]
            assert_allclose(bound[k], GAIN_FACTOR * lam, rtol=1e-10)

    def test_composite_below_bound_for_random_codebooks(self, iso_grid):
        grid, dirs = iso_grid
        rng = np.random.default_rng(31)
        entries = tuple(
            bb.CodebookEntry(grid.array_id, unimodular(rng.uniform(0, 2 * math.pi, 4))) for _ in range(6)
        )
        comp = bb.composite_pattern(grid, bb.Codebook(entries), dirs)
        bound = bb.upper_bound_pattern(grid, dirs)
        assert np.all(comp.gains_db <= bound.gains_db + 1e-9)


class TestGapMap:
    def test_zero_gap_at_achieved_aims(self, iso_grid):
        # with equal element magnitudes, co-phasing attains the eigen bound
        grid, dirs = iso_grid
        d = list(dirs)[60]
        M = bb.coherence_matrix(grid, d)
        beam = bb.design_beam(M, bb.PhaseSpec.continuous(), "eigen")
        cb = bb.Codebook((bb.CodebookEntry(grid.array_id, beam),))
        gap = bb.gap_map(bb.composite_pattern(grid, cb, dirs), bb.upper_bound_pattern(grid, dirs))
        assert gap.gains_db[60] < 1e-9
        assert np.all(gap.gains_db >= 0.0)

    def test_mismatched_sets_rejected(self, iso_grid):
        grid, dirs = iso_grid
        cb = bb.Codebook((bb.CodebookEntry(grid.array_id, unimodular([0, 0, 0, 0])),))
        comp = bb.composite_pattern(grid, cb, dirs)
        other = bb.snap_to_grid(bb.fibonacci_directions(10), grid)
        bound = bb.upper_bound_pattern(grid, other)
        with pytest.raises(ValueError):
            bb.gap_map(comp, bound)

    def test_swapped_arguments_rejected(self, iso_grid):
        grid, dirs = iso_grid
        cb = bb.Codebook((bb.CodebookEntry(grid.array_id, unimodular([0, 1, 2, 3])),))
        comp = bb.composite_pattern(grid, cb, dirs)
        bound = bb.upper_bound_pattern(grid, dirs)
        with pytest.raises(ValueError):
            bb.gap_map(bound, comp)  # negative gaps are a contract violation


class TestGapDistribution:
    def test_five_beam_codebook_covers_most_strong_directions(self):
        # greedy codebooks close the gap to the bound almost everywhere the
        # bound is strong, leaving isolated holes that extra beams remove
        # (fractions below are frozen from this exact computation)
        grid, dirs = bb.generate_ula_efield(bb.SyntheticUlaSpec(4, 0.5, element_pattern_q=2))
        cands = bb.generate_candidates(grid, 64, "eigen", bb.PhaseSpec.discrete(5))
        bound = bb.upper_bound_pattern(grid, dirs)
        strong = bound.gains_db > bound.gains_db.max() - 10.0
        w = dirs.weights

        def covered_fraction(size):
            cb = bb.greedy_codebook(cands, grid, bb.MeanGainCriterion(), size, dirs).codebook
            gap = bb.gap_map(bb.composite_pattern(grid, cb, dirs), bound).gains_db
            return float((w * ((gap < 2.0) & strong)).sum() / (w * strong).sum())

        assert covered_fraction(5) >= 0.75
        assert covered_fraction(8) >= 0.95


class TestCoverageStats:
    def constant_pattern(self, value_db, n=10):
        dirs = bb.fibonacci_directions(n)
        return bb.GainPattern(dirs, np.full(n, value_db))

    def test_constant_pattern(self):
        stats = bb.coverage_stats(self.constant_pattern(3.0), [20, 50, 80])
        assert_allclose(stats.mean_db, 3.0, atol=1e-12)
        for v in stats.percentiles.values():
            assert_allclose(v, 3.0, atol=1e-12)

    def test_two_sample_step_convention(self):
        dirs = bb.DirectionSet(np.array([10.0, 20.0]), np.array([0.0, 0.0]), np.array([0.5, 0.5]))
        pattern = bb.GainPattern(dirs, db_from_linear(np.array([1.0, 3.0])))
        stats = bb.coverage_stats(pattern, [50])
        assert_allclose(linear_from_db(stats.mean_db), 2.0, rtol=1e-12)
        assert_allclose(stats.median_db, 0.0, atol=1e-12)

    def test_cdf_shape_and_percentile_consistency(self):
        rng = np.random.default_rng(3)
        dirs = bb.fibonacci_directions(200)
        pattern = bb.GainPattern(dirs, rng.uniform(-5, 5, 200))
        stats = bb.coverage_stats(pattern, [10, 50, 90])
        cum = stats.cdf[:, 1]
        assert np.all(np.diff(cum) >= -1e-15)
        assert_allclose(cum[-1], 1.0, atol=1e-12)
        p10, p50, p90 = (stats.percentiles[x] for x in (10.0, 50.0, 90.0))
        assert p10 <= p50 <= p90
        assert stats.mean_db <= stats.cdf[-1, 0] and stats.mean_db >= stats.cdf[0, 0]
        # median agrees with the CDF within one sample step
        k = int(np.searchsorted(cum, 0.5))
        assert_allclose(stats.percentiles[50.0], stats.cdf[k, 0], atol=1e-12)

    def test_percentile_range_validation(self):
        with pytest.raises(ValueError):
            bb.coverage_stats(self.constant_pattern(0.0), [0.0])


class TestPatternCsv:
    def test_one_repr_row_per_direction(self, tmp_path):
        dirs = bb.fibonacci_directions(7)
        pattern = bb.GainPattern(dirs, np.linspace(-3.3, 4.1, 7))
        bb.write_pattern_csv(pattern, tmp_path / "p.csv")
        rows = zip(dirs.theta.tolist(), dirs.phi.tolist(), dirs.weights.tolist(), pattern.gains_db.tolist())
        expected = ["theta_deg,phi_deg,weight,gain_db"] + [f"{t!r},{p!r},{w!r},{g!r}" for t, p, w, g in rows]
        assert (tmp_path / "p.csv").read_bytes() == ("\n".join(expected) + "\n").encode()


class TestDbConversions:
    def test_round_trip(self):
        x = np.linspace(-199.0, 30.0, 1000)
        assert_allclose(db_from_linear(linear_from_db(x)), x, atol=1e-12)

    def test_floor(self):
        assert db_from_linear(0.0) == -200.0


class TestConservation:
    def test_x_uniform_mean_is_unit_for_random_unimodular_beams(self, iso_grid):
        grid, dirs = iso_grid
        rng = np.random.default_rng(99)
        for _ in range(50):
            w = unimodular(rng.uniform(0, 2 * math.pi, 4))
            cb = bb.Codebook((bb.CodebookEntry(grid.array_id, w),))
            mean = float(np.dot(dirs.weights, bb.composite_gains_linear(grid, cb, dirs)))
            assert abs(mean - 1.0) <= 0.02
