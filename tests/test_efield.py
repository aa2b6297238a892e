import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import beambook as bb
from beambook.cli import main
from beambook.efield import GAIN_FACTOR, GridFormatError, field_coherence
from beambook.metrics import write_pattern_csv


def small_grid(L=2, nt=3, np_=3, seed=0):
    rng = np.random.default_rng(seed)
    theta = np.linspace(10.0, 170.0, nt)
    phi = np.linspace(0.0, 240.0, np_)
    e = lambda: rng.standard_normal((L, nt, np_)) + 1j * rng.standard_normal((L, nt, np_))
    return bb.EFieldGrid("g", theta, phi, e(), e())


class TestGridCsv:
    def test_round_trip_identity(self, tmp_path):
        grid = small_grid()
        path = tmp_path / "g.csv"
        bb.save_efield(grid, path)
        back = bb.load_efield(path)
        assert np.array_equal(back.theta_axis, grid.theta_axis)
        assert np.array_equal(back.phi_axis, grid.phi_axis)
        assert np.array_equal(back.e_theta, grid.e_theta)
        assert np.array_equal(back.e_phi, grid.e_phi)
        # byte-identical on re-save
        bb.save_efield(back, tmp_path / "g2.csv")
        assert (tmp_path / "g.csv").read_bytes() == (tmp_path / "g2.csv").read_bytes()

    def test_missing_cell_is_incomplete_grid(self, tmp_path):
        grid = small_grid()
        path = tmp_path / "g.csv"
        bb.save_efield(grid, path)
        lines = path.read_text().splitlines()
        del lines[5]  # drop one (elem, theta, phi) cell
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(GridFormatError, match="incomplete grid"):
            bb.load_efield(path)

    def test_nan_sample_rejected_with_line_number(self, tmp_path):
        grid = small_grid()
        path = tmp_path / "g.csv"
        bb.save_efield(grid, path)
        lines = path.read_text().splitlines()
        parts = lines[4].split(",")
        parts[3] = "NaN"
        lines[4] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(GridFormatError, match=r":5: non-finite sample"):
            bb.load_efield(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text(bb.efield.GRID_CSV_HEADER + "\n0,0.0,0.0,1.0,0.0\n")
        with pytest.raises(GridFormatError, match=r":2: malformed row"):
            bb.load_efield(path)

    # Python's int and float read these as 10 and 1; np.loadtxt, the reader's one number grammar, does not.
    @pytest.mark.parametrize("cell", ["1_0", "\u0661", "\uff11"])
    @pytest.mark.parametrize("column", [0, 3])
    def test_cells_outside_the_number_grammar_name_their_line(self, tmp_path, cell, column):
        grid = small_grid()
        path = tmp_path / "g.csv"
        bb.save_efield(grid, path)
        lines = path.read_text().splitlines()
        parts = lines[4].split(",")
        parts[column] = cell
        lines[4] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(GridFormatError, match=f":5: malformed row; could not convert string '{cell}' .* column {column + 1}"):
            bb.load_efield(path)


class TestSyntheticUla:
    def test_broadside_phases_and_magnitudes(self):
        grid, _ = bb.generate_ula_efield(bb.SyntheticUlaSpec(2, 0.5))
        (it,), (ip,) = grid.resolve(bb.DirectionSet([90.0], [0.0], [1.0]), tol=1e-9)
        e = grid.e_theta[:, it, ip]
        # per-element realized gain is the element pattern (1 for isotropic)
        assert_allclose(GAIN_FACTOR * np.abs(e) ** 2, [1.0, 1.0], atol=1e-12)
        assert_allclose(np.angle(e), [0.0, 0.0], atol=1e-12)

    def test_endfire_half_wavelength_is_antiphase(self):
        grid, _ = bb.generate_ula_efield(bb.SyntheticUlaSpec(2, 0.5))
        (it,), (ip,) = grid.resolve(bb.DirectionSet([0.0], [0.0], [1.0]), tol=1e-9)
        e = grid.e_theta[:, it, ip]
        ratio = e[1] / e[0]
        assert_allclose(ratio, -1.0, atol=1e-12)

    def test_default_sampling_factor_and_lattice(self):
        spec = bb.SyntheticUlaSpec(4, 0.5)
        assert spec.sampling_factor == 120
        grid, dirs = bb.generate_ula_efield(spec)
        assert len(dirs) == 241
        assert grid.theta_axis[0] == 0.0 and grid.theta_axis[-1] == 180.0
        x = np.cos(np.radians(grid.theta_axis))
        assert_allclose(np.diff(x), -1.0 / 120.0, atol=1e-12)
        assert_allclose(dirs.weights, 1.0 / 241.0)

    def test_element_pattern_magnitude_and_zero_phi_component(self):
        spec = bb.SyntheticUlaSpec(3, 0.5, element_pattern_q=2.0)
        grid, _ = bb.generate_ula_efield(spec)
        sin_theta = np.sin(np.radians(grid.theta_axis))
        gains = GAIN_FACTOR * np.abs(grid.e_theta[:, :, 0]) ** 2
        assert_allclose(gains, np.broadcast_to(sin_theta**2, gains.shape), atol=1e-12)
        assert np.all(grid.e_phi == 0)

    @pytest.mark.parametrize("L, spacing", [(4, 0.65), (16, 0.5)])
    @pytest.mark.parametrize("q", [0, 1, 2, 3])
    def test_oriented_along_z_matches_the_generator(self, L, spacing, q):
        # One element model: the two differ only in cos psi, which the oriented array rebuilds
        # from the theta axis, by at most 2.2e-14 of the peak field here.
        spec = bb.SyntheticUlaSpec(L, spacing, element_pattern_q=q)
        grid, _ = bb.generate_ula_efield(spec)
        oriented = bb.oriented_ula_efield(spec, (0, 0, 1), grid.theta_axis, grid.phi_axis, "ula")
        assert np.abs(oriented.e_theta - grid.e_theta).max() <= 1e-13 * np.abs(grid.e_theta).max()
        assert oriented.e_phi.shape == grid.e_phi.shape and not oriented.e_phi.any()

    @pytest.mark.parametrize("L, spacing, q, a", [(4, 0.5, 1, 120), (4, 0.5, 3, 120), (16, 0.5, 2, 480),
                                                  (4, 0.65, 0, 120), (3, 0.37, 1.5, 17)])
    def test_the_sweep_is_mirror_symmetric_and_zero_at_both_poles(self, L, spacing, q, a):
        # cos(theta) at sweep index 2a - i is minus that at index i, so the field there is
        # exactly the conjugate (a zero's sign aside); with q > 0 the pattern vanishes on the axis.
        grid, _ = bb.generate_ula_efield(bb.SyntheticUlaSpec(L, spacing, element_pattern_q=q, sampling_factor=a))
        e = grid.e_theta[:, :, 0]
        assert e.shape == (L, 2 * a + 1)
        assert np.array_equal(e[:, ::-1], np.conj(e))
        if q > 0:
            assert not e[:, 0].any() and not e[:, -1].any()


class TestFibonacci:
    def test_single_point_is_equatorial(self):
        ds = bb.fibonacci_directions(1)
        assert_allclose(ds.theta, [90.0])
        assert_allclose(ds.weights, [1.0])

    def test_four_point_lattice(self):
        ds = bb.fibonacci_directions(4)
        assert_allclose(np.cos(np.radians(ds.theta)), [0.75, 0.25, -0.25, -0.75], atol=1e-12)

    def test_large_set_is_balanced(self):
        ds = bb.fibonacci_directions(1000)
        z = np.cos(np.radians(ds.theta))
        assert abs(z.mean()) < 1e-9
        assert_allclose(ds.weights.sum(), 1.0, atol=1e-12)
        assert np.all(ds.weights == ds.weights[0])


class TestSnap:
    @pytest.fixture()
    def degree_grid(self):
        theta = np.arange(0.0, 180.1, 1.0)
        phi = np.arange(0.0, 359.1, 1.0)
        L = 1
        e = np.ones((L, theta.size, phi.size), dtype=complex)
        return bb.EFieldGrid("m", theta, phi, e, np.zeros_like(e))

    def test_on_mesh_point_unchanged(self, degree_grid):
        ds = bb.DirectionSet(np.array([42.0]), np.array([17.0]), np.array([1.0]))
        out = bb.snap_to_grid(ds, degree_grid)
        assert out.theta[0] == 42.0 and out.phi[0] == 17.0

    def test_nearest_node_rounding(self, degree_grid):
        ds = bb.DirectionSet(np.array([89.4]), np.array([10.0]), np.array([1.0]))
        assert bb.snap_to_grid(ds, degree_grid).theta[0] == 89.0

    def test_phi_wraparound(self, degree_grid):
        ds = bb.DirectionSet(np.array([90.0]), np.array([359.7]), np.array([1.0]))
        assert bb.snap_to_grid(ds, degree_grid).phi[0] == 0.0

    def test_tie_resolves_to_lower_index(self, degree_grid):
        ds = bb.DirectionSet(np.array([89.5]), np.array([0.5]), np.array([1.0]))
        out = bb.snap_to_grid(ds, degree_grid)
        assert out.theta[0] == 89.0 and out.phi[0] == 0.0

    def test_weights_and_duplicates_retained(self, degree_grid):
        ds = bb.DirectionSet(np.array([10.2, 10.4]), np.array([0.0, 0.0]), np.array([0.25, 0.75]))
        out = bb.snap_to_grid(ds, degree_grid)
        assert np.array_equal(out.theta, [10.0, 10.0])
        assert np.array_equal(out.weights, ds.weights)


class TestCoherence:
    def test_all_ones_outer_product(self):
        theta = np.array([90.0])
        phi = np.array([0.0])
        et = np.ones((2, 1, 1), dtype=complex)
        grid = bb.EFieldGrid("g", theta, phi, et, np.zeros_like(et))
        M = field_coherence(*grid.fields_at(bb.DirectionSet([90.0], [0.0], [1.0])))
        assert_allclose(M, np.ones((2, 2)), atol=1e-15)

    def test_orthogonal_components_sum_to_identity(self):
        theta = np.array([90.0])
        phi = np.array([0.0])
        et = np.array([[[1.0]], [[0.0]]], dtype=complex)
        ep = np.array([[[0.0]], [[1.0]]], dtype=complex)
        grid = bb.EFieldGrid("g", theta, phi, et, ep)
        M = field_coherence(*grid.fields_at(bb.DirectionSet([90.0], [0.0], [1.0])))
        assert_allclose(M, np.eye(2), atol=1e-15)

    def test_synthetic_direction_is_rank_one(self):
        grid, dirs = bb.generate_ula_efield(bb.SyntheticUlaSpec(4, 0.65))
        et, ep = grid.fields_at(dirs)
        M = field_coherence(et[:, 100:101], ep[:, 100:101])
        vals = np.linalg.eigvalsh(M)
        assert vals[-2] <= 1e-9 * vals[-1]

    def test_off_mesh_lookup_raises(self):
        grid, _ = bb.generate_ula_efield(bb.SyntheticUlaSpec(2, 0.5))
        with pytest.raises(KeyError):
            grid.fields_at(bb.DirectionSet([90.05], [0.0], [1.0]))

    def test_singleton_sum_equals_single_matrix(self):
        grid, dirs = bb.generate_ula_efield(bb.SyntheticUlaSpec(3, 0.5))
        one = bb.DirectionSet([dirs.theta[7]], [dirs.phi[7]], [1.0])
        (it,), (ip,) = grid.resolve(one, tol=1e-9)
        et, ep = grid.e_theta[:, it, ip], grid.e_phi[:, it, ip]
        expected = np.outer(et, et.conj()) + np.outer(ep, ep.conj())
        M = field_coherence(*grid.fields_at(one))
        assert_allclose(M, expected, rtol=1e-14, atol=1e-15 * np.abs(expected).max())

    def test_sum_matches_bruteforce_accumulation(self):
        grid = small_grid(L=4, nt=6, np_=5, seed=3)
        rng = np.random.default_rng(1)
        it, ip = rng.integers(0, 6, 10), rng.integers(0, 5, 10)
        dirs = bb.DirectionSet(grid.theta_axis[it], grid.phi_axis[ip], np.full(10, 0.1))
        expected = np.zeros((4, 4), dtype=complex)
        for i, j in zip(it, ip):
            et, ep = grid.e_theta[:, i, j], grid.e_phi[:, i, j]
            expected = expected + np.outer(et, et.conj()) + np.outer(ep, ep.conj())
        assert_allclose(field_coherence(*grid.fields_at(dirs)), expected, atol=1e-12)

    @pytest.mark.parametrize("L", [1, 4, 16])
    def test_column_stack_equals_per_column_calls_bit_for_bit(self, L):
        rng = np.random.default_rng(L)
        et, ep = (rng.normal(size=(L, 50)) + 1j * rng.normal(size=(L, 50)) for _ in range(2))
        stacked = field_coherence(et.T[:, :, None], ep.T[:, :, None])
        looped = np.stack([field_coherence(et[:, i : i + 1], ep[:, i : i + 1]) for i in range(50)])
        assert stacked.shape == (50, L, L)
        assert np.array_equal(stacked.view(np.int64), looped.view(np.int64))

    def test_invariants_over_random_directions(self):
        grid = small_grid(L=5, nt=8, np_=7, seed=9)
        rng = np.random.default_rng(2)
        for _ in range(50):
            theta, phi = float(grid.theta_axis[rng.integers(0, 8)]), float(grid.phi_axis[rng.integers(0, 7)])
            one = bb.DirectionSet([theta], [phi], [1.0])
            M = field_coherence(*grid.fields_at(one))
            assert np.max(np.abs(M - M.conj().T)) <= 1e-12 * max(np.max(np.abs(M)), 1.0)
            vals = np.linalg.eigvalsh(M)
            trace = float(np.real(np.trace(M)))
            assert vals[0] >= -1e-10 * trace
            assert np.sum(vals > 1e-9 * vals[-1]) <= 2
            (it,), (ip,) = grid.resolve(one, tol=1e-9)
            expected_trace = np.sum(np.abs(grid.e_theta[:, it, ip]) ** 2) + np.sum(
                np.abs(grid.e_phi[:, it, ip]) ** 2
            )
            assert_allclose(trace, expected_trace, rtol=1e-12)


class TestDirectionSetsAndRegions:
    def test_value_equality_and_hash(self):
        def make(phi0=0.0, weights=(0.25, 0.75)):
            return bb.DirectionSet(np.array([10.0, 20.0]), np.array([phi0, 30.0]), np.array(weights))

        a, b = make(), make()
        assert a == b and hash(a) == hash(b)
        assert make(phi0=-0.0) == a and hash(make(phi0=-0.0)) == hash(a)
        assert make(phi0=360.0) == a  # phi is stored modulo 360
        assert make(phi0=np.nextafter(0.0, 1.0)) != a
        assert make(weights=(0.75, 0.25)) != a
        assert bb.DirectionSet(np.array([10.0]), np.array([0.0]), np.array([1.0])) != a  # another length
        assert a != (a.theta, a.phi, a.weights)
        assert len({a, b, make(weights=(0.5, 0.5))}) == 2

    def test_tiny_negative_phi_wraps_into_range(self, tmp_path):
        # np.mod rounds a negative phi within half an ulp of 360 up to 360.0, outside [0, 360).
        ds = bb.DirectionSet([90.0, 90.0, 90.0], [-1e-300, -1e-14, -1.0], np.full(3, 1.0 / 3.0))
        assert ds.phi.tolist() == [0.0, 0.0, 359.0]
        assert ds == bb.DirectionSet([90.0, 90.0, 90.0], [0.0, 0.0, 359.0], np.full(3, 1.0 / 3.0))
        grid, _ = bb.generate_ula_efield(bb.SyntheticUlaSpec(2, 0.5))
        beam = bb.BeamWeights(np.full(2, math.sqrt(0.5)), bb.PhaseSpec())
        near_zero = bb.DirectionSet([90.0, 90.0], [-1e-300, -1e-14], [0.5, 0.5])
        pattern = bb.composite_pattern(grid, bb.Codebook([bb.CodebookEntry(grid.array_id, beam)]), near_zero)
        write_pattern_csv(pattern, tmp_path / "pattern.csv")
        assert main(["selfcheck", str(tmp_path / "pattern.csv")]) == 0

    def test_weights_must_normalize(self):
        with pytest.raises(ValueError):
            bb.DirectionSet(np.array([10.0]), np.array([0.0]), np.array([0.5]))

    def test_copies_the_callers_arrays(self):
        theta, phi, weights = np.array([10.0]), np.array([0.0]), np.array([1.0])
        ds = bb.DirectionSet(theta, phi, weights)
        assert theta.flags.writeable and phi.flags.writeable and weights.flags.writeable
        theta[0], weights[0] = 20.0, 0.0
        assert ds.theta[0] == 10.0 and ds.weights[0] == 1.0
        with pytest.raises(ValueError):
            ds.theta[0] = 30.0

    @pytest.mark.parametrize("theta, phi, weights", [
        ([np.nan], [0.0], [1.0]),
        ([np.inf], [0.0], [1.0]),
        ([10.0], [np.nan], [1.0]),
        ([10.0], [np.inf], [1.0]),
        ([10.0], [-np.inf], [1.0]),
        ([10.0], [0.0], [np.nan]),
        ([10.0, 20.0], [0.0, 0.0], [1.0, np.nan]),
        ([10.0, 20.0], [0.0, 0.0], [np.inf, 0.0]),
    ])
    def test_rejects_non_finite_values(self, theta, phi, weights):
        with pytest.raises(ValueError):
            bb.DirectionSet(np.array(theta), np.array(phi), np.array(weights))

    def test_mesh_directions_sin_theta_weights(self):
        grid = small_grid(L=1, nt=5, np_=4)
        ds = bb.mesh_directions(grid)
        w = np.sin(np.radians(ds.theta))
        assert_allclose(ds.weights, w / w.sum(), atol=1e-15)

    def test_region_wraparound_membership(self):
        region = bb.CoverageRegion(theta_range=(0.0, 90.0), phi_range=(300.0, 60.0))
        assert region.contains(45.0, 350.0)
        assert region.contains(45.0, 30.0)
        assert not region.contains(45.0, 180.0)
        assert not region.contains(120.0, 30.0)

    @pytest.mark.parametrize("phi_range", [(0.0, 360.0), (-180.0, 180.0), (-10.0, 350.0), (10.0, 370.0),
                                           (-360.0, 0.0), (90.0, 450.5), (0.0, 720.0)])
    def test_a_phi_span_of_360_degrees_or_more_is_the_full_circle(self, phi_range):
        phi = np.array([0.0, 1e-9, 10.0, 90.0, 179.5, 180.0, 270.0, 350.0, 359.0, 359.999])
        assert bb.CoverageRegion(phi_range=phi_range).contains(np.full(phi.size, 45.0), phi).all()

    @pytest.mark.parametrize("phi_range, inside", [
        ((350.0, 10.0), [0.0, 10.0, 350.0, 359.0]),
        ((-10.0, 10.0), [0.0, 10.0, 350.0, 359.0]),
        ((300.0, 60.0), [0.0, 10.0, 350.0, 359.0]),
        ((0.0, 180.0), [0.0, 10.0, 90.0, 179.5, 180.0]),
        ((10.0, 360.0), [10.0, 90.0, 179.5, 180.0, 270.0, 350.0, 359.0]),
        ((-180.0, 179.0), [0.0, 10.0, 90.0, 180.0, 270.0, 350.0, 359.0]),
    ])
    def test_a_phi_span_below_360_degrees_keeps_its_arc(self, phi_range, inside):
        phi = np.array([0.0, 10.0, 90.0, 179.5, 180.0, 270.0, 350.0, 359.0])
        got = bb.CoverageRegion(phi_range=phi_range).contains(np.full(phi.size, 45.0), phi)
        assert phi[got].tolist() == inside

    @pytest.mark.parametrize("phi_range", [(np.nan, 90.0), (0.0, np.nan), (-np.inf, 90.0), (0.0, np.inf)])
    def test_region_rejects_non_finite_phi(self, phi_range):
        with pytest.raises(ValueError, match="phi_range bounds must be finite"):
            bb.CoverageRegion(phi_range=phi_range)

    @pytest.mark.parametrize("phi_range", [(0.0,), (0.0, 90.0, 180.0)])
    def test_region_rejects_a_phi_range_not_a_pair(self, phi_range):
        with pytest.raises(ValueError, match="phi_range must be a"):
            bb.CoverageRegion(phi_range=phi_range)

    @pytest.mark.parametrize("theta_range", [(0.0,), (0.0, 90.0, 100.0)])
    def test_region_rejects_a_theta_range_not_a_pair(self, theta_range):
        with pytest.raises(ValueError, match=r"theta_range must be a \(lo, hi\) pair"):
            bb.CoverageRegion(theta_range)

    @pytest.mark.parametrize("elements, factor",
                             [(4.5, None), (True, None), (0, None), (4, 2.5), (4, True), (4, 0)])
    def test_ula_spec_rejects_non_integer_counts(self, elements, factor):
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            bb.SyntheticUlaSpec(elements, 0.5, sampling_factor=factor)

    @pytest.mark.parametrize("spacing, q", [(np.nan, 0.0), (np.inf, 0.0), (0.5, np.nan)])
    def test_ula_spec_rejects_non_finite_geometry(self, spacing, q):
        with pytest.raises(ValueError):
            bb.SyntheticUlaSpec(4, spacing, element_pattern_q=q)

    def test_grid_is_immutable(self):
        grid = small_grid()
        with pytest.raises(ValueError):
            grid.e_theta[0, 0, 0] = 0.0
