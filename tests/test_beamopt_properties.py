"""Property tests of the stacked pipeline stages, phase quantization and the dual certificate."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import beambook as bb
import beambook.beamopt as beamopt_module
from beambook.oracle import RandomInstanceSpec, brute_force_b3, random_instance

KINDS = ("zero", "rank-one", "full")
# Continuous phases (None) and every supported bit count.
RESOLUTIONS = (None,) + tuple(range(1, 17))


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


def phase_spec(bits: int | None) -> bb.PhaseSpec:
    return bb.PhaseSpec.continuous() if bits is None else bb.PhaseSpec.discrete(bits)


@settings(max_examples=50, deadline=None)
@given(case=stacks(max_elements=16, max_members=4), bits=st.sampled_from(RESOLUTIONS), seed=st.integers(0, 2**32 - 1))
@example(case=(1, np.stack([member(1, kind, seed) for kind, seed in (("full", 1), ("zero", 0))])), bits=None, seed=0)
@example(case=(1, np.stack([member(1, kind, seed) for kind, seed in (("full", 1), ("zero", 0))])), bits=16, seed=0)
@example(case=(16, np.stack([member(16, kind, seed) for kind, seed in
                             (("full", 1), ("zero", 0), ("rank-one", 2))])), bits=16, seed=3)
def test_stacked_randomization_and_polish_equal_member_calls_bit_for_bit(case, bits, seed):
    _, M = case
    spec = phase_spec(bits)
    seeds = [seed + i for i in range(len(M))]
    batch = bb.solve_sdr(M)
    beams = bb.gaussian_randomization(batch, M, 30, spec, seeds)
    assert isinstance(beams, tuple) and len(beams) == len(M)
    from_tuple = bb.gaussian_randomization(batch.solutions, M, 30, spec, seeds)
    for m, solution, s, beam, other in zip(M, batch.solutions, seeds, beams, from_tuple):
        alone = bb.gaussian_randomization(solution, m, 30, spec, s)
        assert np.array_equal(beam.weights, alone.weights) and np.array_equal(other.weights, alone.weights)

    polished = bb.coordinate_descent(M, beams, spec)
    assert isinstance(polished, bb.CoordinateDescentBatch) and len(polished.results) == len(M)
    rows = max(result.objectives.size for result in polished.results)
    assert polished.objectives.shape == (rows, len(M))
    for b, (m, beam, result) in enumerate(zip(M, beams, polished.results)):
        alone = bb.coordinate_descent(m, beam, spec)
        assert np.array_equal(result.weights.weights, alone.weights.weights)
        assert np.array_equal(result.objectives, alone.objectives)
        n = alone.objectives.size
        assert np.array_equal(polished.objectives[:n, b], alone.objectives)
        assert np.all(polished.objectives[n:, b] == alone.objectives[-1])  # a stopped member repeats its last value


@settings(max_examples=200, deadline=None)
@given(
    phase=st.floats(-100.0, 100.0, allow_nan=False),
    bits=st.integers(1, 16),
)
@example(phase=math.pi / 4, bits=3)  # a lattice point
@example(phase=math.pi / 8, bits=2)  # a midpoint: ties go to the lower lattice value
@example(phase=-1e-300, bits=5)
def test_quantize_phase_is_idempotent_and_nearest_on_the_circle(phase, bits):
    step = 2.0 * math.pi / (1 << bits)
    q = bb.quantize_phase(phase, bits)
    assert 0.0 <= q < 2.0 * math.pi
    k = round(q / step)
    assert q == k * step  # exactly a lattice point
    assert bb.quantize_phase(q, bits) == q
    gap = abs(phase - q) % (2.0 * math.pi)
    assert min(gap, 2.0 * math.pi - gap) <= step / 2.0 + 1e-12 * max(1.0, abs(phase))


@settings(max_examples=100, deadline=None)
@given(bits=st.integers(1, 16), L=st.integers(1, 32), seed=st.integers(0, 2**32 - 1))
def test_lattice_phasors_equal_quantize_then_exp(bits, L, seed):
    # The table lookup must give the very floats of exp(1j * quantize_phase(.)) / sqrt(L),
    # on random phases, on lattice midpoints and next to 2pi.
    step = 2.0 * math.pi / (1 << bits)
    rng = np.random.default_rng(seed)
    k = rng.integers(0, 1 << bits, 64)
    phases = np.concatenate([rng.uniform(0.0, 2.0 * math.pi, 64), (k + 0.5) * step,
                             [0.0, 2.0 * math.pi, np.nextafter(2.0 * math.pi, 0.0)]])
    reference = np.exp(1j * bb.quantize_phase(phases, bits)) / math.sqrt(L)
    table = beamopt_module._lattice_phasors(bits, L)
    assert np.array_equal(table[beamopt_module._lattice_index(phases, bits)], reference)


@settings(max_examples=60, deadline=None)
@given(case=stacks(max_elements=8, max_members=3), bits=st.sampled_from((None, 1, 2, 3, 5, 8)),
       seed=st.integers(0, 2**32 - 1))
def test_coordinate_descent_objectives_never_decrease(case, bits, seed):
    L, M = case
    spec = phase_spec(bits)
    rng = np.random.default_rng(seed)
    inits = tuple(bb.BeamWeights.from_phases(p, spec) for p in rng.uniform(0.0, 2.0 * math.pi, (len(M), L)))
    batch = bb.coordinate_descent(M, inits, spec)
    for m, result in zip(M, batch.results):
        slack = 1e-12 * max(np.trace(m).real, 1e-300)
        assert np.all(np.diff(result.objectives) >= -slack)
    assert np.all(np.diff(batch.objectives, axis=0) >= -1e-12 * np.maximum(np.trace(M, axis1=1, axis2=2).real, 1e-300))


def test_phase_is_mod_of_angle_bit_for_bit():
    rng = np.random.default_rng(0)
    special = [complex(re, im) for re in (1.0, -1.0, 0.0, -0.0) for im in (0.0, -0.0, 1e-300, -1e-300)]
    z = np.concatenate([special, rng.standard_normal(1000) + 1j * rng.standard_normal(1000)])
    assert beamopt_module._phase(z).tobytes() == np.mod(np.angle(z), 2.0 * math.pi).tobytes()


def randomize_every_draw(solution: bb.SdrSolution, M: np.ndarray, n_rand: int, spec: bb.PhaseSpec, seed: int):
    """Reference: score every one of the n_rand draws, repeats included, and keep the first best draw."""
    M = beamopt_module._hermitian_stack(M)[0]
    L = M.shape[0]
    vals, vecs = np.linalg.eigh(solution.W[None])
    vals = np.clip(vals, 0.0, None)
    factors = (vecs * np.sqrt(vals)[:, None, :])[0]
    vals, vecs = vals[0], vecs[0]
    if not spec.is_discrete and (L == 1 or vals[-2] <= 1e-9 * max(vals[-1], 1e-300)):
        return beamopt_module._cophase(vecs[:, -1])
    rng = np.random.default_rng(seed)
    xi = np.empty((n_rand, L), dtype=complex)
    xi.real = rng.standard_normal((n_rand, L))
    xi.imag = rng.standard_normal((n_rand, L))
    xi *= math.sqrt(0.5)
    phases = np.mod(np.angle(factors @ xi.T), 2.0 * math.pi)
    if spec.is_discrete:
        feas = beamopt_module._lattice_phasors(spec.bits, L)[beamopt_module._lattice_index(phases, spec.bits)]
    else:
        feas = np.exp(1j * phases) / math.sqrt(L)
    gains = np.real(np.einsum("ln,lk,kn->n", feas.conj(), M, feas))
    return feas[:, int(np.argmax(gains))]


@settings(max_examples=100, deadline=None)
@given(
    L=st.integers(1, 16),
    kind=st.sampled_from(KINDS),
    instance=st.integers(0, 10_000),
    bits=st.sampled_from(RESOLUTIONS),
    n_rand=st.integers(1, 2000),
    seed=st.integers(0, 2**32 - 1),
)
# L * bits > 63: the columns are keyed by their bytes, not packed into an int64.
@example(L=16, kind="full", instance=1, bits=4, n_rand=500, seed=5)
@example(L=8, kind="rank-one", instance=2, bits=16, n_rand=2000, seed=6)
@example(L=5, kind="full", instance=3, bits=13, n_rand=1, seed=7)
# Rank-one W with n_rand far above L * 2^b: almost every draw repeats an earlier beam.
@example(L=2, kind="rank-one", instance=4, bits=1, n_rand=2000, seed=8)
@example(L=16, kind="rank-one", instance=5, bits=3, n_rand=2000, seed=9)
@example(L=1, kind="full", instance=6, bits=2, n_rand=2000, seed=10)
# A compact (L, distinct) copy of the distinct beams changes the last bits of a gain here.
@example(L=2, kind="full", instance=44, bits=1, n_rand=7, seed=44)
def test_randomization_equals_scoring_every_draw_bit_for_bit(L, kind, instance, bits, n_rand, seed):
    M = member(L, kind, instance)
    spec = phase_spec(bits)
    solution = bb.solve_sdr(M)
    beam = bb.gaussian_randomization(solution, M, n_rand, spec, seed)
    assert beam.weights.tobytes() == randomize_every_draw(solution, M, n_rand, spec, seed).tobytes()


@settings(max_examples=100, deadline=None)
@given(L=st.integers(1, 16), bits=st.integers(1, 16), n=st.integers(1, 300), pool=st.integers(1, 20),
       seed=st.integers(0, 2**32 - 1))
@example(L=16, bits=1, n=300, pool=20, seed=0)  # 16-bit keys
@example(L=16, bits=4, n=300, pool=20, seed=1)  # 64 bits: byte keys
def test_first_distinct_columns_are_the_first_occurrences(L, bits, n, pool, seed):
    rng = np.random.default_rng(seed)
    columns = rng.integers(0, 1 << bits, (pool, L))  # few distinct columns, so most repeat
    index = columns[rng.integers(0, pool, n)].T.astype(np.intp)
    seen, first = set(), []
    for j, column in enumerate(map(tuple, index.T)):
        if column not in seen:
            seen.add(column)
            first.append(j)
    assert beamopt_module._first_distinct_columns(index, bits).tolist() == first


def max_eigenpair_alone(M: np.ndarray) -> tuple[float, np.ndarray]:
    """Reference: one eigh per matrix, the eigenvector's first non-negligible entry rotated to real positive."""
    if np.max(np.abs(M)) == 0.0:
        return 0.0, np.eye(1, len(M), dtype=complex)[0]
    vals, vecs = np.linalg.eigh(M)
    v = vecs[:, -1]
    nz = np.flatnonzero(np.abs(v) > 1e-12 * np.max(np.abs(v)))
    return float(vals[-1]), v * np.exp(-1j * np.angle(v[nz[0]]))


@settings(max_examples=60, deadline=None)
@given(case=stacks(max_elements=16, max_members=6))
# A rank-one member whose first entry is small but not negligible: the phase pin is on entry 0.
@example(case=(3, np.stack([np.outer(v, v.conj()) for v in (np.array([1e-6, 1.0, 1j]), np.array([0.0, 2.0, 1.0 - 1j]))])))
def test_stacked_eigenpairs_equal_one_eigh_per_matrix_bit_for_bit(case):
    _, M = case
    H = beamopt_module._hermitian_stack(M)
    lam, V = beamopt_module._max_eigenpairs(H)
    for m, lam_b, v in zip(H, lam, V):
        lam_ref, v_ref = max_eigenpair_alone(m)
        assert lam_b == lam_ref and v.tobytes() == v_ref.tobytes()
        lam_one, v_one = bb.max_eigenpair(m)
        assert lam_one == lam_ref and v_one.tobytes() == v_ref.tobytes()


def ascend_reference(M: np.ndarray, trace: np.ndarray, tol: float, max_sweeps: int):
    """Reference: the barrier row-by-row ascent with one np.where per branch on every row, as first written."""
    B, L, _ = M.shape
    gamma = 1.0 / L
    W = np.broadcast_to(np.eye(L, dtype=complex) / L, (B, L, L)).copy()
    obj = np.real(np.einsum("bij,bji->b", M, W))
    sweeps = np.zeros(B, dtype=int)
    stage = np.zeros(B, dtype=int)
    improvement = np.full(B, math.inf)
    stage_tol = max(tol, 1e-14) * np.maximum(trace, 1.0) * 0.1
    schedule = beamopt_module._BARRIER_SCHEDULE
    active = np.flatnonzero(sweeps < max_sweeps)
    Ma, Wa = M[active], W[active]
    while active.size:
        sigma = schedule[stage[active]] * trace[active]
        sigma_gamma = sigma * gamma
        barrier = sigma > 0.0
        for i in range(L):
            Wa[:, i, :] = 0.0
            Wa[:, :, i] = 0.0
            c = Ma[:, :, i]
            u = (Wa @ c[:, :, None])[:, :, 0]
            s = np.real((c.conj()[:, None, :] @ u[:, :, None])[:, 0, 0])
            positive = s > 0.0
            s_safe = np.where(positive, s, 1.0)
            t = np.where(
                barrier,
                (-sigma_gamma + np.sqrt(sigma_gamma**2 + 4.0 * s_safe * gamma)) / (2.0 * s_safe),
                np.sqrt(gamma / s_safe),
            )
            y = np.where(positive, t, 0.0)[:, None] * u
            Wa[:, :, i] = y
            Wa[:, i, :] = y.conj()
            Wa[:, i, i] = gamma
        new_obj = np.real(np.einsum("bij,bji->b", Ma, Wa))
        improvement[active] = new_obj - obj[active]
        obj[active] = new_obj
        sweeps[active] += 1
        stage[active] += improvement[active] < stage_tol[active]
        done = (stage[active] == schedule.size) | (sweeps[active] >= max_sweeps)
        if done.any():
            W[active[done]] = Wa[done]
            keep = ~done
            active, Ma, Wa = active[keep], Ma[keep], Wa[keep]
    return W, obj, sweeps, improvement, stage_tol


ASCENT_KINDS = ("full", "rank-deficient", "diagonal")


def ascent_member(L: int, kind: str, seed: int, scale_exp: int) -> np.ndarray:
    """A full-rank, rank-deficient (rank about L/2) or diagonal PSD matrix with trace near L * 10**scale_exp."""
    if kind == "diagonal":  # every row has s = 0: the t = 0 path
        M = np.diag(np.random.default_rng(seed).uniform(0.5, 2.0, L)).astype(complex)
    else:
        M = random_instance(RandomInstanceSpec(L, L if kind == "full" else max(1, L // 2), seed))
    return M * 10.0**scale_exp


@st.composite
def ascent_stacks(draw):
    """(stack, trace) with mixed member kinds and trace scales from 1e-13 to 1e3."""
    L = draw(st.integers(2, 6))
    n = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from(ASCENT_KINDS), min_size=n, max_size=n))
    seeds = draw(st.lists(st.integers(0, 10_000), min_size=n, max_size=n))
    scales = draw(st.lists(st.integers(-13, 3), min_size=n, max_size=n))
    return ascent_case(L, list(zip(kinds, seeds, scales)))


def ascent_case(L: int, members) -> tuple[np.ndarray, np.ndarray]:
    M = beamopt_module._hermitian_stack(np.stack([ascent_member(L, *m) for m in members]))
    return M, np.real(np.trace(M, axis1=1, axis2=2))


# A member whose trace is far below tol leaves a barrier stage after every
# sweep and reaches the barrier-free last stage at sweep 8; a member of trace
# about L is still in a barrier stage then.  With a loose tol every member
# leaves a stage after every sweep.
@settings(max_examples=80, deadline=None)
@given(case=ascent_stacks(), tol=st.sampled_from((1e-9, 1e-3, 10.0)), max_sweeps=st.sampled_from((1, 2, 3, 10)))
# Every sweep in a barrier stage.
@example(case=ascent_case(4, [("full", 1, 0), ("rank-deficient", 2, 2)]), tol=1e-9, max_sweeps=3)
# Sweeps 8 to 10 barrier-free for every member.
@example(case=ascent_case(5, [("full", 3, 0), ("rank-deficient", 4, -2)]), tol=10.0, max_sweeps=10)
# Sweeps 8 to 10 mix a barrier-free member with barrier members.
@example(case=ascent_case(6, [("full", 5, 0), ("full", 6, -12), ("rank-deficient", 7, 3)]), tol=1e-9, max_sweeps=10)
# s = 0 on every row of the diagonal member, beside members with s > 0.
@example(case=ascent_case(3, [("diagonal", 8, 0), ("full", 9, 1)]), tol=1e-9, max_sweeps=2)
def test_ascent_equals_the_reference_row_loop_bit_for_bit(case, tol, max_sweeps):
    M, trace = case
    got = beamopt_module._ascend(M, trace, tol, max_sweeps)
    want = ascend_reference(M, trace, tol, max_sweeps)
    for name, a, b in zip(("W", "objective", "sweeps", "improvement", "stage_tol"), got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
