"""Property tests of the stacked relaxation solver, stacked beam design and the dual certificate."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import beambook as bb
from beambook.oracle import RandomInstanceSpec, brute_force_b3, random_instance

KINDS = ("zero", "rank-one", "full")


def member(L: int, kind: str, seed: int) -> np.ndarray:
    """A zero, rank-one or full-rank (rank L) Hermitian PSD matrix."""
    if kind == "zero":
        return np.zeros((L, L), dtype=complex)
    return random_instance(RandomInstanceSpec(L, 1 if kind == "rank-one" else L, seed))


@st.composite
def stacks(draw, min_elements=1, max_elements=6, max_members=5):
    """(L, stack) with a mix of zero, rank-one and full-rank members."""
    L = draw(st.integers(min_value=min_elements, max_value=max_elements))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=max_members))
    seeds = draw(st.lists(st.integers(0, 10_000), min_size=len(kinds), max_size=len(kinds)))
    return L, np.stack([member(L, kind, seed) for kind, seed in zip(kinds, seeds)])


def assert_same_solution(a: bb.SdrSolution, b: bb.SdrSolution) -> None:
    assert np.array_equal(a.W, b.W)
    assert (a.objective, a.iterations, a.bound, a.residual, a.rank) == (
        b.objective, b.iterations, b.bound, b.residual, b.rank)


def solve_alone(M: np.ndarray, **kwargs) -> bb.SdrSolution:
    """One member's solution, also when its solve hits the sweep cap."""
    try:
        return bb.solve_sdr(M, **kwargs)
    except bb.SdrConvergenceError as exc:
        return exc.solution


@settings(max_examples=60, deadline=None)
@given(case=stacks())
@example(case=(16, np.stack([member(16, kind, seed) for kind, seed in
                             (("full", 1), ("zero", 0), ("rank-one", 2), ("full", 3))])))
def test_stacked_solve_equals_member_solves_bit_for_bit(case):
    _, M = case
    batch = bb.solve_sdr(M)
    assert isinstance(batch, bb.SdrBatch) and len(batch.solutions) == len(M)
    for m, solution in zip(M, batch.solutions):
        assert_same_solution(solution, bb.solve_sdr(m))
    assert batch.iterations == max(s.iterations for s in batch.solutions)


@settings(max_examples=30, deadline=None)
@given(
    case=stacks(max_elements=5, max_members=4),
    strategy=st.sampled_from(("eigen", "sdr_grp", "sdr_grp_cd")),
    bits=st.sampled_from((None, 1, 2, 3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_design_equals_member_designs_bit_for_bit(case, strategy, bits, seed):
    _, M = case
    spec = bb.PhaseSpec.continuous() if bits is None else bb.PhaseSpec.discrete(bits)
    seeds = [seed + i for i in range(len(M))]
    beams = bb.design_beam(M, spec, strategy, seed=seeds, n_rand=40)
    assert len(beams) == len(M)
    for m, s, beam in zip(M, seeds, beams):
        assert np.array_equal(beam.weights, bb.design_beam(m, spec, strategy, seed=s, n_rand=40).weights)


@settings(max_examples=60, deadline=None)
@given(
    L=st.integers(min_value=2, max_value=5),
    rank=st.integers(min_value=1, max_value=5),
    bits=st.sampled_from((1, 2, 3)),
    seed=st.integers(0, 10_000),
)
def test_bound_chain_brute_force_sdr_certificate_eigenvalue(L, rank, bits, seed):
    M = random_instance(RandomInstanceSpec(L, min(rank, L), seed))
    trace = np.trace(M).real
    best = brute_force_b3(M, bits).gain
    sol = bb.solve_sdr(M)
    lam = np.linalg.eigvalsh(M)[-1]
    slack = 1e-8 * trace
    assert best <= sol.bound + 1e-12 * trace  # certified: holds up to rounding alone
    assert best <= sol.objective + slack
    assert sol.objective <= sol.bound <= lam + slack


@settings(max_examples=30, deadline=None)
@given(case=stacks(min_elements=2, max_members=4), full_seed=st.integers(0, 10_000))
def test_sweep_cap_on_a_stack_carries_every_member(case, full_seed):
    L, M = case
    M = np.concatenate([M, member(L, "full", full_seed)[None]])  # at least one member needs sweeps
    with pytest.raises(bb.SdrConvergenceError) as excinfo:
        bb.solve_sdr(M, max_sweeps=1)
    batch = excinfo.value.solution
    assert isinstance(batch, bb.SdrBatch) and len(batch.solutions) == len(M)
    for m, solution in zip(M, batch.solutions):
        assert_same_solution(solution, solve_alone(m, max_sweeps=1))
        assert np.allclose(np.real(np.diag(solution.W)), 1.0 / L, atol=1e-10)
        # The certificate of an early iterate already caps the converged optimum.
        assert solution.bound >= bb.solve_sdr(m).objective - 1e-12 * np.trace(m).real
