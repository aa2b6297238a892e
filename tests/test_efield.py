import numpy as np
import pytest
from numpy.testing import assert_allclose

import beambook as bb
from beambook.efield import GAIN_FACTOR, GridFormatError


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


class TestSyntheticUla:
    def test_broadside_phases_and_magnitudes(self):
        grid, _ = bb.generate_ula_efield(bb.SyntheticUlaSpec(2, 0.5))
        it, ip = grid.index_of(90.0, 0.0)
        e = grid.e_theta[:, it, ip]
        # per-element realized gain is the element pattern (1 for isotropic)
        assert_allclose(GAIN_FACTOR * np.abs(e) ** 2, [1.0, 1.0], atol=1e-12)
        assert_allclose(np.angle(e), [0.0, 0.0], atol=1e-12)

    def test_endfire_half_wavelength_is_antiphase(self):
        grid, _ = bb.generate_ula_efield(bb.SyntheticUlaSpec(2, 0.5))
        it, ip = grid.index_of(0.0, 0.0)
        e = grid.e_theta[:, it, ip]
        ratio = e[1] / e[0]
        assert_allclose(ratio, -1.0, atol=1e-12)

    def test_default_sampling_factor_and_lattice(self):
        spec = bb.SyntheticUlaSpec(4, 0.5)
        assert spec.effective_sampling_factor == 120
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
        M = bb.coherence_sum(grid, [bb.Direction(90.0, 0.0)])
        assert_allclose(M, np.ones((2, 2)), atol=1e-15)

    def test_orthogonal_components_sum_to_identity(self):
        theta = np.array([90.0])
        phi = np.array([0.0])
        et = np.array([[[1.0]], [[0.0]]], dtype=complex)
        ep = np.array([[[0.0]], [[1.0]]], dtype=complex)
        grid = bb.EFieldGrid("g", theta, phi, et, ep)
        M = bb.coherence_sum(grid, [bb.Direction(90.0, 0.0)])
        assert_allclose(M, np.eye(2), atol=1e-15)

    def test_synthetic_direction_is_rank_one(self):
        grid, dirs = bb.generate_ula_efield(bb.SyntheticUlaSpec(4, 0.65))
        M = bb.coherence_sum(grid, [dirs.directions[100]])
        vals = np.linalg.eigvalsh(M)
        assert vals[-2] <= 1e-9 * vals[-1]

    def test_off_mesh_lookup_raises(self):
        grid, _ = bb.generate_ula_efield(bb.SyntheticUlaSpec(2, 0.5))
        with pytest.raises(KeyError):
            bb.coherence_sum(grid, [bb.Direction(90.05, 0.0)])

    def test_singleton_sum_equals_single_matrix(self):
        grid, dirs = bb.generate_ula_efield(bb.SyntheticUlaSpec(3, 0.5))
        d = dirs.directions[7]
        it, ip = grid.index_of(d.theta, d.phi)
        et, ep = grid.e_theta[:, it, ip], grid.e_phi[:, it, ip]
        expected = np.outer(et, et.conj()) + np.outer(ep, ep.conj())
        assert_allclose(bb.coherence_sum(grid, [d]), expected, rtol=1e-14, atol=1e-15 * np.abs(expected).max())

    def test_sum_matches_bruteforce_accumulation(self):
        grid = small_grid(L=4, nt=6, np_=5, seed=3)
        rng = np.random.default_rng(1)
        dirs = [
            bb.Direction(float(grid.theta_axis[i]), float(grid.phi_axis[j]))
            for i, j in zip(rng.integers(0, 6, 10), rng.integers(0, 5, 10))
        ]
        expected = np.zeros((4, 4), dtype=complex)
        for d in dirs:
            expected = expected + bb.coherence_sum(grid, [d])
        assert_allclose(bb.coherence_sum(grid, dirs), expected, atol=1e-12)

    def test_invariants_over_random_directions(self):
        grid = small_grid(L=5, nt=8, np_=7, seed=9)
        rng = np.random.default_rng(2)
        for _ in range(50):
            d = bb.Direction(
                float(grid.theta_axis[rng.integers(0, 8)]),
                float(grid.phi_axis[rng.integers(0, 7)]),
            )
            M = bb.coherence_sum(grid, [d])
            assert np.max(np.abs(M - M.conj().T)) <= 1e-12 * max(np.max(np.abs(M)), 1.0)
            vals = np.linalg.eigvalsh(M)
            trace = float(np.real(np.trace(M)))
            assert vals[0] >= -1e-10 * trace
            assert np.sum(vals > 1e-9 * vals[-1]) <= 2
            it, ip = grid.index_of(d.theta, d.phi)
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

    def test_grid_is_immutable(self):
        grid = small_grid()
        with pytest.raises(ValueError):
            grid.e_theta[0, 0, 0] = 0.0
