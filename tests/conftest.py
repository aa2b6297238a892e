"""Shared fixtures for the synthesis scenarios reused across the test suite."""

import time
from types import SimpleNamespace

import numpy as np
import pytest

import beambook as bb

ACCEPTANCE_DESCRIPTIONS = {
    1: "irregular-spacing reproduction: benchmark/802.15.3c medians, proposed gain, runtime",
    2: "directional-element reproduction: median gaps for q=1 and q=3",
    3: "oracle equivalence of the relax-randomize-polish pipeline at L=4, b=2",
    4: "bound chain and coordinate-descent monotonicity over 500 random instances",
    5: "greedy utility strictly increases; K-Means trace monotone, < 20 iterations",
    6: "composite pattern pointwise below the eigenvalue upper bound",
    7: "x-uniform mean gain conservation for the isotropic half-wavelength array",
    8: "three-array stand-in: joint design beats the replicated benchmark at K=12",
}


def _reproduction(spacing: float, q: float, seed: int) -> SimpleNamespace:
    """Benchmark/802.15.3c/K-Means trio on a 4-element array, b=5, a=120."""
    spec = bb.SyntheticUlaSpec(4, spacing, element_pattern_q=q, sampling_factor=120)
    grid, dirs = bb.generate_ula_efield(spec)
    bits5 = bb.PhaseSpec.discrete(5)
    bench = bb.benchmark_codebook(spec, 4, bits5)
    c3 = bb.codebook_802_15_3c(4, 4, 5)
    t0 = time.perf_counter()
    result = bb.kmeans_codebook(
        bb.KMeansConfig(
            num_beams=4, direction_set=dirs, phase_spec=bits5,
            init=bench, n_rand=1000, max_iterations=50, seed=12345,
        ),
        grid,
    )
    design_seconds = time.perf_counter() - t0

    def median(cb):
        return bb.coverage_stats(bb.composite_pattern(grid, cb, dirs), [50.0]).median_db

    return SimpleNamespace(
        spec=spec,
        grid=grid,
        dirs=dirs,
        benchmark=bench,
        c3=c3,
        kmeans=result,
        design_seconds=design_seconds,
        benchmark_median=median(bench),
        c3_median=median(c3),
        proposed_median=median(result.codebook),
    )


@pytest.fixture(scope="session")
def irregular_spacing():
    return _reproduction(0.65, 0.0, seed=12345)


@pytest.fixture(scope="session")
def directional_q1():
    return _reproduction(0.5, 1.0, seed=12345)


@pytest.fixture(scope="session")
def directional_q3():
    return _reproduction(0.5, 3.0, seed=12345)


@pytest.fixture(scope="session")
def greedy_irregular(irregular_spacing):
    candidates = bb.generate_candidates(irregular_spacing.grid, 64, "eigen", bb.PhaseSpec.discrete(5))
    return bb.greedy_codebook(
        candidates, irregular_spacing.grid, bb.MeanGainCriterion(), 8, irregular_spacing.dirs
    )


@pytest.fixture(scope="session")
def standin3():
    """Three orthogonal directional linear arrays on a shared 5-degree mesh."""
    spec = bb.SyntheticUlaSpec(4, 0.5, element_pattern_q=2)
    theta_axis = np.arange(0.0, 180.1, 5.0)
    phi_axis = np.arange(0.0, 359.9, 5.0)
    grids = {
        name: bb.oriented_ula_efield(spec, axis, theta_axis, phi_axis, name)
        for name, axis in (("left", (0, -1, 0)), ("right", (0, 1, 0)), ("back", (-1, 0, 0)))
    }
    dirs = bb.mesh_directions(grids["left"])
    bench = bb.benchmark_codebook(spec, 4, bb.PhaseSpec.discrete(5), array_ids=list(grids))
    result = bb.kmeans_codebook(
        bb.KMeansConfig(
            num_beams=12, direction_set=dirs, phase_spec=bb.PhaseSpec.discrete(5),
            init=bench, n_rand=1000, max_iterations=50, seed=7,
        ),
        grids,
    )

    def mean_db(cb):
        return bb.coverage_stats(bb.composite_pattern(grids, cb, dirs), [50.0]).mean_db

    return SimpleNamespace(
        spec=spec,
        grids=grids,
        dirs=dirs,
        benchmark=bench,
        kmeans=result,
        benchmark_mean=mean_db(bench),
        proposed_mean=mean_db(result.codebook),
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    outcomes = {}
    for status in ("passed", "failed", "skipped"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in nodeid:
                continue
            if getattr(report, "when", "call") != "call" and status != "skipped":
                continue
            number = int(nodeid.split("test_criterion_")[1].split("[")[0].split("_")[0])
            label = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}[status]
            if outcomes.get(number) != "FAIL":
                outcomes[number] = label
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(outcomes):
        description = ACCEPTANCE_DESCRIPTIONS.get(number, "")
        terminalreporter.write_line(f"ACCEPTANCE {number} {outcomes[number]}  {description}")
