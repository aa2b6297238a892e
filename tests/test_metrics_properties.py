"""Property tests of the gain metrics: composite below the bound, stacked percentiles."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import beambook as bb
from beambook.metrics import weighted_percentiles

THETA = np.array([0.0, 30.0, 60.0, 90.0, 120.0, 150.0, 180.0])
PHI = np.array([0.0, 60.0, 120.0, 180.0, 240.0, 300.0])


@settings(max_examples=100, deadline=None)
@given(
    elements=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    beams=st.integers(1, 6),
    scale=st.integers(-3, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(elements=[1], beams=1, scale=0, seed=0)  # L = 1: every beam reaches the bound
def test_composite_never_exceeds_the_bound(elements, beams, scale, seed):
    # Random rank-2 fields (independent e_T, e_P per element and direction)
    # on 1-3 arrays, and beams with random unit-modulus weights on random arrays.
    rng = np.random.default_rng(seed)
    grids = {}
    for a, L in enumerate(elements):
        shape = (L, THETA.size, PHI.size)
        et, ep = (10.0**scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) for _ in "TP")
        grids[f"a{a}"] = bb.EFieldGrid(f"a{a}", THETA, PHI, et, ep)
    entries = []
    for _ in range(beams):
        array_id = f"a{rng.integers(len(elements))}"
        phases = rng.uniform(0.0, 2.0 * np.pi, grids[array_id].num_elements)
        entries.append(bb.CodebookEntry(array_id, bb.BeamWeights.from_phases(phases, bb.PhaseSpec.continuous())))
    dirs = bb.mesh_directions(grids["a0"])
    composite = bb.composite_gains_linear(grids, bb.Codebook(tuple(entries)), dirs)
    bound = bb.upper_bound_gains_linear(grids, dirs)
    assert np.all(composite <= bound * (1.0 + 1e-12))


def left_inverse_1d(gains, weights, percentiles):
    """The one-sample left inverse with searchsorted: smallest gain whose cumulative weight reaches X/100."""
    order = np.argsort(gains, kind="stable")
    cum = np.cumsum(weights[order])
    cum /= cum[-1]
    k = np.minimum(np.searchsorted(cum, np.asarray(percentiles, dtype=float) / 100.0), gains.size - 1)
    return gains[order][k]


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(1, 6),
    n=st.integers(1, 40),
    levels=st.integers(1, 8),
    percentiles=st.lists(st.floats(0.5, 99.5), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_percentiles_equal_row_by_row_left_inverse(rows, n, levels, percentiles, seed):
    # Few distinct levels, so rows carry ties; every row shares the weights.
    rng = np.random.default_rng(seed)
    gains = rng.integers(0, levels, size=(rows, n)) * rng.uniform(0.5, 2.0)
    weights = rng.uniform(0.0, 1.0, n) + 1e-3
    values, g_sorted, cum = weighted_percentiles(gains, weights, percentiles)
    assert values.shape == (rows, len(percentiles))
    for r in range(rows):
        assert np.array_equal(values[r], left_inverse_1d(gains[r], weights, percentiles))
        one = weighted_percentiles(gains[r], weights, percentiles)
        assert np.array_equal(one[0], values[r])
        assert np.array_equal(one[1], g_sorted[r]) and np.array_equal(one[2], cum[r])
