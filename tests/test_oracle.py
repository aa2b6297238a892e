import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import beambook as bb
from beambook.oracle import RandomInstanceSpec, brute_force_b3, random_instance


class TestRandomInstance:
    def test_requested_rank(self):
        for rank in (1, 2, 3):
            M = random_instance(RandomInstanceSpec(4, rank, 0))
            vals = np.linalg.eigvalsh(M)
            assert np.sum(vals > 1e-9 * vals[-1]) == rank

    def test_deterministic(self):
        spec = RandomInstanceSpec(5, 2, 123)
        assert np.array_equal(random_instance(spec), random_instance(spec))

    def test_invariant_sweep(self):
        for seed in range(1000):
            M = random_instance(RandomInstanceSpec(3, 2, seed))
            scale = max(float(np.max(np.abs(M))), 1.0)
            assert np.max(np.abs(M - M.conj().T)) <= 1e-12 * scale
            assert np.linalg.eigvalsh(M)[0] >= -1e-10 * np.trace(M).real

    def test_unit_magnitude_variant(self):
        M = random_instance(RandomInstanceSpec(4, 1, 7, magnitude="unit"))
        assert_allclose(np.abs(np.diag(M)), 1.0, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomInstanceSpec(2, 3, 0)
        with pytest.raises(ValueError):
            RandomInstanceSpec(2, 1, 0, magnitude="cauchy")


class TestBruteForce:
    def test_two_element_cophasing(self):
        M = np.ones((2, 2), dtype=complex)
        result = brute_force_b3(M, 1)
        assert_allclose(result.gain, 2.0, rtol=1e-12)
        assert_allclose(result.weights.weights, np.array([1.0, 1.0]) / math.sqrt(2), atol=1e-12)

    def test_enumeration_count_after_phase_fixing(self):
        M = random_instance(RandomInstanceSpec(4, 2, 0))
        assert brute_force_b3(M, 2).n_evaluated == 64

    @pytest.mark.parametrize("bits", [True, 2.5, 0])
    def test_bits_is_a_count(self, bits):
        with pytest.raises(ValueError, match="bits must be an integer >= 1"):
            brute_force_b3(np.eye(2, dtype=complex), bits)

    def test_size_cap(self):
        with pytest.raises(ValueError, match="cap"):
            brute_force_b3(np.eye(5, dtype=complex), 5)

    def test_global_phase_invariance(self):
        M = random_instance(RandomInstanceSpec(4, 2, 3))
        alpha = np.exp(1j * 1.234)
        # rotating the generating vectors leaves M (and hence the optimum) unchanged
        assert_allclose(brute_force_b3((alpha * np.eye(4)) @ M @ (alpha * np.eye(4)).conj().T, 2).gain,
                        brute_force_b3(M, 2).gain, rtol=1e-12)

    def test_dominates_feasible_designs(self):
        spec = bb.PhaseSpec(2)
        for seed in range(25):
            M = random_instance(RandomInstanceSpec(4, 2, seed + 40))
            opt = brute_force_b3(M, 2).gain
            slack = 1e-9 * max(opt, 1.0)
            for beam in (*bb.eigen_beams(M[None], spec), *bb.design_beam(M[None], spec, seed=[seed], n_rand=100)):
                assert beam.gain(M) <= opt + slack

    def test_matches_quantized_scan_on_rank_one(self):
        # independent cross-check: for rank-one M the discrete optimum is the
        # best lattice rounding of the co-phasing solution scanned over a
        # global offset
        rng = np.random.default_rng(8)
        bits = 3
        for _ in range(10):
            m = rng.uniform(0.2, 2.0, 3) * np.exp(1j * rng.uniform(0, 2 * math.pi, 3))
            M = np.outer(m, m.conj())
            best = 0.0
            for offset in np.linspace(0, 2 * math.pi / 2**bits, 257):
                w = bb.BeamWeights.from_phases(np.angle(m) + offset, bb.PhaseSpec(bits)).weights
                best = max(best, float(np.abs(w.conj() @ m) ** 2))
            result = brute_force_b3(M, bits)
            assert result.gain >= best - 1e-12
            assert_allclose(result.gain, best, rtol=1e-9)
