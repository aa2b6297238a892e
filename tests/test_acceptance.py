"""Acceptance suite: one test per criterion, each printing its outcome.

Run with ``pytest tests/test_acceptance.py -v``; the terminal summary adds
one ACCEPTANCE <n> PASS/FAIL line per criterion (see conftest).
"""

import math
import time

import numpy as np
import pytest

import beambook as bb
from beambook.beamopt import _max_eigenpairs
from beambook.oracle import RandomInstanceSpec, brute_force_b3, random_instance


def median_db(grids, codebook, dirs):
    return bb.coverage_stats(bb.composite_pattern(grids, codebook, dirs), [50.0]).median_db


def test_criterion_1_irregular_spacing_medians(irregular_spacing):
    assert abs(irregular_spacing.benchmark_median - 4.76) <= 0.2
    assert abs(irregular_spacing.c3_median - 5.09) <= 0.2
    assert irregular_spacing.proposed_median >= 5.2
    gap = irregular_spacing.proposed_median - irregular_spacing.benchmark_median
    assert abs(gap - 0.62) <= 0.3
    assert irregular_spacing.design_seconds < 60.0
    # worst-direction coverage: the refined codebook lifts the benchmark's
    # weakest directions (computed floor of the benchmark composite: -1.1 dB)
    bench_min = bb.composite_pattern(irregular_spacing.grid, irregular_spacing.benchmark, irregular_spacing.dirs).gains_db.min()
    prop_min = bb.composite_pattern(irregular_spacing.grid, irregular_spacing.kmeans.codebook, irregular_spacing.dirs).gains_db.min()
    assert bench_min == pytest.approx(-1.09, abs=0.05)
    assert prop_min > bench_min
    print(
        f"criterion 1: benchmark {irregular_spacing.benchmark_median:.2f} dB, 802.15.3c {irregular_spacing.c3_median:.2f} dB, "
        f"proposed {irregular_spacing.proposed_median:.2f} dB, gap {gap:.2f} dB, {irregular_spacing.design_seconds:.1f}s"
    )


def test_criterion_2_directional_elements(directional_q1, directional_q3):
    gap1 = directional_q1.proposed_median - directional_q1.benchmark_median
    gap3 = directional_q3.proposed_median - directional_q3.benchmark_median
    assert abs(gap1 - 0.33) <= 0.3
    assert abs(gap3 - 1.67) <= 0.5
    # absolute medians only loosely pinned (element-pattern normalization is
    # a free choice; gaps above are normalization invariant)
    assert abs(directional_q1.benchmark_median - 4.06) <= 0.5
    assert abs(directional_q1.proposed_median - 4.39) <= 0.5
    assert abs(directional_q3.benchmark_median - 1.91) <= 0.5
    assert abs(directional_q3.proposed_median - 3.58) <= 0.5
    print(
        f"criterion 2: q=1 gap {gap1:.2f} dB (medians {directional_q1.benchmark_median:.2f} / "
        f"{directional_q1.proposed_median:.2f}), q=3 gap {gap3:.2f} dB "
        f"(medians {directional_q3.benchmark_median:.2f} / {directional_q3.proposed_median:.2f})"
    )


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    bits = 2
    spec = bb.PhaseSpec(bits)
    hits = 0
    worst_ratio = 1.0
    sdr_ratios = []
    for seed in range(200):
        M = random_instance(RandomInstanceSpec(4, 2, seed))
        (beam,) = bb.design_beam(M[None], spec, seed=[seed], n_rand=1000)
        achieved = beam.gain(M)
        optimum = brute_force_b3(M, bits).gain
        relaxation = bb.solve_sdr(M[None])[0].objective
        if achieved >= optimum - 1e-9 * max(optimum, 1.0):
            hits += 1
        worst_ratio = min(worst_ratio, achieved / optimum)
        sdr_ratios.append(achieved / relaxation)
    elapsed = time.perf_counter() - t0
    ratio_bound = (2**bits * math.sin(math.pi / 2**bits)) ** 2 / (4 * math.pi)
    assert hits >= 190  # >= 95% of 200
    assert worst_ratio >= 0.90
    assert float(np.mean(sdr_ratios)) >= ratio_bound
    assert elapsed < 30.0
    print(
        f"criterion 3: optimum attained {hits}/200, worst ratio {worst_ratio:.3f}, "
        f"mean achieved/relaxation {np.mean(sdr_ratios):.3f} >= {ratio_bound:.3f}, {elapsed:.1f}s"
    )


def test_criterion_4_bound_chain():
    count = 0
    for L in (2, 4, 8):
        for rank in (1, 2):
            n = 84 if L == 2 else 83  # 2*84 + 4*83 = 500
            for k in range(n):
                count += 1
                M = random_instance(RandomInstanceSpec(L, rank, 10_000 + count))
                trace = float(np.real(np.trace(M)))
                slack = 1e-8 * max(trace, 1.0)
                (lam,), (v,) = _max_eigenpairs(M[None])
                (sdr,) = bb.solve_sdr(M[None])
                b3 = brute_force_b3(M, 2).gain
                assert b3 <= sdr.objective + slack
                assert sdr.objective <= lam + slack
                init = np.exp(1j * np.where(np.abs(v) > 0, np.angle(v), 0.0)) / math.sqrt(L)
                cd = bb.coordinate_descent(M[None], init[None], bb.PhaseSpec()).objectives[:, 0]
                assert np.all(np.diff(cd) >= -1e-12 * max(trace, 1.0))
                assert b3 <= cd[-1] + slack <= lam + 2 * slack
                if rank == 1:
                    magnitudes = math.sqrt(lam) * np.abs(v)
                    cophased = float(magnitudes.sum() ** 2 / L)
                    assert abs(sdr.objective - cophased) <= 1e-9
    assert count == 500
    print(f"criterion 4: bound chain, descent monotonicity and rank-1 exactness on {count} instances")


def test_criterion_5_codebook_monotonicity(irregular_spacing, greedy_irregular):
    assert greedy_irregular.codebook.size == 8
    assert np.all(np.diff(greedy_irregular.utilities_db) > 0)  # strict for K = 1..8
    trace = irregular_spacing.kmeans.mean_gain_trace_db
    assert np.all(np.diff(trace) >= -1e-12)
    assert irregular_spacing.kmeans.iterations < 20
    print(
        f"criterion 5: greedy utilities strictly increase over {greedy_irregular.codebook.size} additions; "
        f"K-Means monotone, {irregular_spacing.kmeans.iterations} iterations"
    )


def test_criterion_6_pointwise_bound(irregular_spacing, directional_q1, directional_q3, greedy_irregular, standin3):
    cases = [
        ("irregular benchmark", irregular_spacing.grid, irregular_spacing.benchmark, irregular_spacing.dirs),
        ("irregular 802.15.3c", irregular_spacing.grid, irregular_spacing.c3, irregular_spacing.dirs),
        ("irregular kmeans", irregular_spacing.grid, irregular_spacing.kmeans.codebook, irregular_spacing.dirs),
        ("irregular greedy", irregular_spacing.grid, greedy_irregular.codebook, irregular_spacing.dirs),
        ("directional q=1 kmeans", directional_q1.grid, directional_q1.kmeans.codebook, directional_q1.dirs),
        ("directional q=3 kmeans", directional_q3.grid, directional_q3.kmeans.codebook, directional_q3.dirs),
        ("standin benchmark", standin3.grids, standin3.benchmark, standin3.dirs),
        ("standin kmeans", standin3.grids, standin3.kmeans.codebook, standin3.dirs),
    ]
    for name, grids, cb, dirs in cases:
        comp = bb.composite_pattern(grids, cb, dirs)
        bound = bb.upper_bound_pattern(grids, dirs)
        worst = float(np.max(comp.gains_db - bound.gains_db))
        assert worst <= 1e-9, name
    print(f"criterion 6: composite <= upper bound pointwise for {len(cases)} synthesized codebooks")


def test_criterion_7_conservation():
    grid, dirs = bb.generate_ula_efield(bb.SyntheticUlaSpec(4, 0.5))
    rng = np.random.default_rng(2024)
    worst = 0.0
    resolved = bb.resolve_directions(grid, dirs)
    for _ in range(50):
        w = bb.BeamWeights(np.exp(1j * rng.uniform(0, 2 * math.pi, 4)) / 2.0, bb.PhaseSpec())
        entries = (bb.CodebookEntry(grid.array_id, w),)
        mean = float(np.dot(dirs.weights, bb.composite_gains_linear(bb.entry_gains_linear(resolved, entries))))
        worst = max(worst, abs(mean - 1.0))
        assert abs(mean - 1.0) <= 0.02
    print(f"criterion 7: x-uniform mean within {worst:.4f} of unity for 50 random unimodular beams")


def test_criterion_8_multi_array_standin(standin3):
    assert standin3.kmeans.iterations < 20
    assert np.all(np.diff(standin3.kmeans.mean_gain_trace_db) >= -1e-12)
    assert standin3.proposed_mean >= standin3.benchmark_mean
    print(
        f"criterion 8: joint design mean {standin3.proposed_mean:.2f} dB >= replicated "
        f"benchmark {standin3.benchmark_mean:.2f} dB at K=12 "
        f"({standin3.kmeans.iterations} iterations)"
    )
