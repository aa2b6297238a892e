"""Property tests of the gain metrics: composite below the bound, stacked and chunked percentiles, blocked gains."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import beambook as bb
import beambook.metrics as metrics_module
from beambook.metrics import field_gains, weighted_percentiles

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
        entries.append(bb.CodebookEntry(array_id, bb.BeamWeights.from_phases(phases, bb.PhaseSpec())))
    dirs = bb.mesh_directions(grids["a0"])
    resolved = bb.resolve_directions(grids, dirs)
    composite = bb.composite_gains_linear(bb.entry_gains_linear(resolved, entries))
    bound = bb.upper_bound_gains_linear(resolved)
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
    values = weighted_percentiles(gains, weights, percentiles)
    assert values.shape == (rows, len(percentiles))
    for r in range(rows):
        assert np.array_equal(values[r], left_inverse_1d(gains[r], weights, percentiles))
        assert np.array_equal(weighted_percentiles(gains[r], weights, percentiles), values[r])


def tied_pool(rows: int, n: int, seed: int) -> tuple[np.ndarray, bb.DirectionSet]:
    """A (rows, n) gain pool with many ties, and n directions of random weight."""
    rng = np.random.default_rng(seed)
    gains = rng.integers(1, 6, size=(rows, n)) * rng.uniform(0.5, 2.0)
    weights = rng.uniform(0.0, 1.0, n) + 1e-3
    dirs = bb.DirectionSet(np.full(n, 90.0), np.zeros(n), weights / weights.sum())
    return gains, dirs


def test_chunked_percentile_scores_equal_one_shot_scores(monkeypatch):
    rows = 2 * metrics_module._PERCENTILE_CHUNK_ROWS + 37  # three chunks, the last one partial
    gains, dirs = tied_pool(rows, 61, seed=5)
    criterion = bb.PercentileMixCriterion(((5.0, 1.0), (50.0, 2.0), (90.0, 0.5)))
    chunked = weighted_percentiles(gains, dirs.weights, [5.0, 50.0, 90.0])
    chunked_scores = criterion.scores(gains, dirs)
    monkeypatch.setattr(metrics_module, "_PERCENTILE_CHUNK_ROWS", rows)
    assert np.array_equal(chunked, weighted_percentiles(gains, dirs.weights, [5.0, 50.0, 90.0]))
    assert np.array_equal(chunked_scores, criterion.scores(gains, dirs))


@settings(max_examples=60, deadline=None)
@given(
    elements=st.integers(1, 16),
    rows=st.integers(1, 100),
    extra=st.integers(1, 64),
    zero_ep=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(elements=4, rows=1, extra=1, zero_ep=False, seed=0)
@example(elements=4, rows=60, extra=1, zero_ep=True, seed=1)
def test_a_beams_gains_are_the_same_bytes_in_every_stack(elements, rows, extra, zero_ep, seed):
    # N is chosen so that the whole stack spans more than one block of squared magnitudes.
    N = metrics_module._POWER_BLOCK // rows + extra
    assert rows * N > metrics_module._POWER_BLOCK
    rng = np.random.default_rng(seed)
    et, ep = (rng.standard_normal((elements, N)) + 1j * rng.standard_normal((elements, N)) for _ in "TP")
    if zero_ep:
        ep = np.zeros_like(ep)
    W = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (rows, elements))) / np.sqrt(elements)
    full = field_gains(W, et, ep)
    for size in (1, int(rng.integers(1, rows + 1)), rows):
        subset = rng.choice(rows, size, replace=False)
        assert field_gains(W[subset], et, ep).tobytes() == full[subset].tobytes()
    k = int(rng.integers(rows))
    assert field_gains(W[k], et, ep).tobytes() == full[k].tobytes()


def test_blocked_field_gains_equal_the_one_line_formula():
    # A stack larger than one block of squared magnitudes, ending in a partial block.
    rng = np.random.default_rng(9)
    L, n, N = 4, 70, 1000
    assert n * N > metrics_module._POWER_BLOCK
    et, ep = (rng.standard_normal((L, N)) + 1j * rng.standard_normal((L, N)) for _ in "TP")
    W = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (n, L))) / 2.0
    expected = bb.GAIN_FACTOR * (np.abs(W.conj() @ et) ** 2 + np.abs(W.conj() @ ep) ** 2)
    assert np.array_equal(field_gains(W, et, ep), expected)
    assert np.array_equal(field_gains(W[3], et, ep), bb.GAIN_FACTOR * (np.abs(W[3].conj() @ et) ** 2
                                                                     + np.abs(W[3].conj() @ ep) ** 2))
