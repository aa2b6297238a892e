"""Property tests of the stacked pipeline stages, phase quantization and the dual certificate.

A member's call alone is a call on a stack of one: every stage takes only (B, L, L) stacks.
"""

import functools
import math
import warnings
from unittest import mock

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


# Per element count, instances whose relaxation the phase ascent does not certify: the
# barrier ascent runs, and its W has rank 2 or 3.
UNCERTIFIED = {
    4: (RandomInstanceSpec(4, 2, 308), RandomInstanceSpec(4, 2, 70), RandomInstanceSpec(4, 4, 8)),
    5: (RandomInstanceSpec(5, 3, 205), RandomInstanceSpec(5, 5, 29), RandomInstanceSpec(5, 3, 11)),
    6: (RandomInstanceSpec(6, 6, 11), RandomInstanceSpec(6, 6, 43), RandomInstanceSpec(6, 6, 52)),
    8: (RandomInstanceSpec(8, 8, 1), RandomInstanceSpec(8, 8, 2), RandomInstanceSpec(8, 8, 3)),
    16: (RandomInstanceSpec(16, 16, 0), RandomInstanceSpec(16, 16, 7), RandomInstanceSpec(16, 16, 9)),
}


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
    """One member's solution from a stack of one; at the sweep cap, its best iterate, without the warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        (solution,) = bb.solve_sdr(M[None], **kwargs)
    return solution


@functools.cache
def uncertified_relaxation(spec: RandomInstanceSpec) -> tuple[np.ndarray, bb.SdrSolution]:
    """The instance and its converged relaxation, computed once per session: each takes a barrier ascent."""
    M = random_instance(spec)
    solution = solve_alone(M)
    M.setflags(write=False)  # shared by every caller
    solution.W.setflags(write=False)
    return M, solution


@settings(max_examples=60, deadline=None)
@given(case=stacks())
@example(case=(16, np.stack([member(16, kind, seed) for kind, seed in
                             (("full", 1), ("zero", 0), ("rank-one", 2), ("full", 3))])))
def test_stacked_solve_equals_member_solves_bit_for_bit(case):
    _, M = case
    solutions = bb.solve_sdr(M)
    assert isinstance(solutions, tuple) and len(solutions) == len(M)
    for m, solution in zip(M, solutions):
        (alone,) = bb.solve_sdr(m[None])
        assert_same_solution(solution, alone)
    assert solutions.iterations == max(s.iterations for s in solutions)


DESIGNERS = {
    "eigen_beams": lambda M, spec, seeds: bb.eigen_beams(M, spec),
    "design_beam": lambda M, spec, seeds: bb.design_beam(M, spec, seed=seeds, n_rand=40),
}


@settings(max_examples=30, deadline=None)
@given(
    case=stacks(max_elements=5, max_members=4),
    designer=st.sampled_from(sorted(DESIGNERS)),
    bits=st.sampled_from((None, 1, 2, 3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_design_equals_member_designs_bit_for_bit(case, designer, bits, seed):
    _, M = case
    spec = bb.PhaseSpec() if bits is None else bb.PhaseSpec(bits)
    seeds = [seed + i for i in range(len(M))]
    beams = DESIGNERS[designer](M, spec, seeds)
    assert len(beams) == len(M)
    for m, s, beam in zip(M, seeds, beams):
        (alone,) = DESIGNERS[designer](m[None], spec, [s])
        assert np.array_equal(beam.weights, alone.weights)


def eigen_beams_row_by_row(M: np.ndarray, spec: bb.PhaseSpec) -> np.ndarray:
    """Reference: each dominant eigenvector's phases (0 at a zero entry) through BeamWeights.from_phases, then the canonical phase."""
    _, V = beamopt_module._max_eigenpairs(beamopt_module._hermitian_stack(M))
    rows = [bb.BeamWeights.from_phases(np.where(np.abs(v) > 0.0, np.angle(v), 0.0), spec).weights for v in V]
    return beamopt_module._canonical_global_phase(np.stack(rows), spec)


@settings(max_examples=100, deadline=None)
@given(case=stacks(max_elements=8), zero=st.lists(st.booleans(), min_size=8, max_size=8),
       bits=st.sampled_from((None, 1, 2, 3, 5)))
# Element 0 has no field; its eigenvector entry is -0.0, whose angle is pi.
@example(case=(4, random_instance(RandomInstanceSpec(4, 2, 108))[None]), zero=[True] + [False] * 7, bits=1)
def test_eigen_beams_equal_row_by_row_reference_bit_for_bit(case, zero, bits):
    L, M = case
    M = M.copy()
    elements = np.array(zero[:L])  # elements without field: zero rows and columns
    M[:, elements, :] = 0.0
    M[:, :, elements] = 0.0
    spec = phase_spec(bits)
    beams = bb.eigen_beams(M, spec)
    assert np.stack([beam.weights for beam in beams]).tobytes() == eigen_beams_row_by_row(M, spec).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    L=st.integers(min_value=2, max_value=5),
    rank=st.integers(min_value=1, max_value=5),
    bits=st.sampled_from((1, 2, 3)),
    seed=st.integers(0, 10_000),
)
# The barrier ascent reaches its sweep cap on this instance (certified gap 9.0e-5); the
# phase ascent certifies it instead.
@example(L=3, rank=3, bits=1, seed=238)
@example(L=3, rank=3, bits=2, seed=238)
@example(L=3, rank=3, bits=3, seed=238)
# Not certified: the barrier ascent settles after 1749 sweeps at rank 2.
@example(L=5, rank=3, bits=3, seed=205)
def test_bound_chain_brute_force_sdr_certificate_eigenvalue(L, rank, bits, seed):
    M = random_instance(RandomInstanceSpec(L, min(rank, L), seed))
    trace = np.trace(M).real
    best = brute_force_b3(M, bits).gain
    sol = solve_alone(M)  # at the sweep cap the chain holds on the iterate it carries too
    lam = np.linalg.eigvalsh(M)[-1]
    slack = 1e-8 * trace
    assert best <= sol.bound + 1e-12 * trace  # certified: holds up to rounding alone
    assert best <= sol.objective + slack
    assert sol.objective <= sol.bound <= lam + slack


@settings(max_examples=80, deadline=None)
@given(
    L=st.integers(min_value=2, max_value=4),
    bits=st.integers(min_value=1, max_value=4),
    seed=st.integers(0, 10_000),
    magnitude=st.sampled_from(("gaussian", "unit")),
)
def test_rank_one_exact_beam_equals_brute_force(L, bits, seed, magnitude):
    M = random_instance(RandomInstanceSpec(L, 1, seed, magnitude))
    best = brute_force_b3(M, bits).gain  # over all 2^(b(L-1)) canonical lattice beams
    _, v = beamopt_module._max_eigenpairs(M[None])
    (exact,) = beamopt_module._rank_one_lattice_beams(v, M[None], bits)
    (designed,) = bb.design_beam(M[None], bb.PhaseSpec(bits), seed=[seed])
    assert np.real(exact.conj() @ M @ exact) == pytest.approx(best, rel=1e-12)
    assert designed.gain(M) == pytest.approx(best, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(case=stacks(min_elements=4, max_members=4), uncertified=st.integers(0, 2))
def test_sweep_cap_on_a_stack_carries_every_member(case, uncertified):
    L, M = case
    instance, converged = uncertified_relaxation(UNCERTIFIED[L][uncertified])
    M = np.concatenate([M, instance[None]])  # at least one member needs sweeps
    with pytest.warns(UserWarning) as unsettled:
        solutions = bb.solve_sdr(M, max_sweeps=1)
    assert isinstance(solutions, tuple) and len(solutions) == len(M)
    # One warning per unsettled member, in stack order, each naming its member and certified gap.
    warned = [int(str(w.message).split()[1]) for w in unsettled]
    assert warned == sorted(set(warned)) and len(M) - 1 in warned
    for b, w in zip(warned, unsettled):
        s = solutions[b]
        assert s.iterations == 1 and str(w.message) == (
            f"relaxation {b} of {len(M)} did not settle within 1 sweeps; "
            f"keeping its best iterate (certified gap {s.bound - s.objective:.3e})")
    assert all(isinstance(solution, bb.SdrSolution) for solution in solutions)
    optima = [bb.solve_sdr(m[None])[0] for m in M[:-1]] + [converged]
    for m, solution, optimum in zip(M, solutions, optima, strict=True):
        assert_same_solution(solution, solve_alone(m, max_sweeps=1))
        assert np.allclose(np.real(np.diag(solution.W)), 1.0 / L, atol=1e-10)
        # The certificate of an early iterate already caps the converged optimum.
        assert solution.bound >= optimum.objective - 1e-12 * np.trace(m).real


def phase_spec(bits: int | None) -> bb.PhaseSpec:
    return bb.PhaseSpec() if bits is None else bb.PhaseSpec(bits)


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
    solutions = bb.solve_sdr(M)
    beams = bb.gaussian_randomization(solutions, M, 30, spec, seeds)
    assert isinstance(beams, np.ndarray) and beams.shape == M.shape[:2]
    beamopt_module._check_beams(beams, spec)  # every row is a feasible beam
    from_list = bb.gaussian_randomization(list(solutions), M, 30, spec, seeds)
    for m, solution, s, beam, other in zip(M, solutions, seeds, beams, from_list):
        (alone,) = bb.gaussian_randomization([solution], m[None], 30, spec, [s])
        assert np.array_equal(beam, alone) and np.array_equal(other, alone)

    polished = bb.coordinate_descent(M, beams, spec)
    assert isinstance(polished, bb.CoordinateDescentResult)
    assert polished.weights.shape == M.shape[:2] and polished.sweeps.shape == (len(M),)
    # The traces held at their last values to the slowest member, one column per member: the
    # benchmark's tracer reads the slowest member's sweeps off their length.
    assert polished.objectives.shape == (polished.sweeps.max() + 1, len(M))
    for b, (m, beam) in enumerate(zip(M, beams)):
        alone = bb.coordinate_descent(m[None], beam[None], spec)
        assert np.array_equal(polished.weights[b], alone.weights[0])
        n = alone.sweeps[0] + 1
        assert polished.sweeps[b] == alone.sweeps[0] and alone.objectives.shape == (n, 1)
        assert np.array_equal(polished.objectives[:n, b], alone.objectives[:, 0])
        assert np.all(polished.objectives[n:, b] == alone.objectives[-1, 0])  # a stopped member repeats its last value


@settings(max_examples=200, deadline=None)
@given(
    phase=st.floats(-100.0, 100.0, allow_nan=False),
    bits=st.integers(1, 16),
)
@example(phase=math.pi / 4, bits=3)  # a lattice point
@example(phase=math.pi / 8, bits=3)  # a midpoint: ties go to the lower lattice value
@example(phase=-1e-300, bits=5)
def test_quantize_phase_is_idempotent_and_nearest_on_the_circle(phase, bits):
    # Phase quantization is BeamWeights.from_phases in discrete mode; one element shows one phase.
    step = 2.0 * math.pi / (1 << bits)
    spec = bb.PhaseSpec(bits)
    (w,) = bb.BeamWeights.from_phases([phase], spec).weights
    k = round(float(np.angle(w)) / step) % (1 << bits)
    assert w == np.exp(1j * (np.arange(1 << bits) * step))[k]  # exactly a lattice point
    assert bb.BeamWeights.from_phases([k * step], spec).weights[0] == w
    gap = abs(phase - k * step) % (2.0 * math.pi)
    assert min(gap, 2.0 * math.pi - gap) <= step / 2.0 + 1e-12 * max(1.0, abs(phase))
    position = float(np.mod(phase, 2.0 * math.pi)) / step
    if position % 1.0 == 0.5:  # a midpoint: ties go to the lower lattice value
        assert k == math.floor(position) % (1 << bits)


@settings(max_examples=100, deadline=None)
@given(bits=st.integers(1, 16), L=st.integers(1, 32), seed=st.integers(0, 2**32 - 1))
def test_lattice_phasors_equal_quantize_then_exp(bits, L, seed):
    # The table lookup must give the very floats of exp(1j * k * step) / sqrt(L) for the
    # nearest lattice index k (ties to the lower), on random phases, on lattice midpoints and next to 2pi.
    step = 2.0 * math.pi / (1 << bits)
    rng = np.random.default_rng(seed)
    k = rng.integers(0, 1 << bits, 64)
    phases = np.concatenate([rng.uniform(0.0, 2.0 * math.pi, 64), (k + 0.5) * step,
                             [0.0, 2.0 * math.pi, np.nextafter(2.0 * math.pi, 0.0)]])
    reference = np.exp(1j * (np.mod(np.ceil(phases / step - 0.5), 1 << bits) * step)) / math.sqrt(L)
    table = beamopt_module._lattice_phasors(bits, L)
    assert np.array_equal(table[beamopt_module._lattice_index(phases, bits)], reference)


@settings(max_examples=60, deadline=None)
@given(case=stacks(max_elements=8, max_members=3), bits=st.sampled_from((None, 1, 2, 3, 5, 8)),
       seed=st.integers(0, 2**32 - 1))
def test_coordinate_descent_objectives_never_decrease(case, bits, seed):
    L, M = case
    spec = phase_spec(bits)
    rng = np.random.default_rng(seed)
    inits = np.stack([bb.BeamWeights.from_phases(p, spec).weights for p in rng.uniform(0.0, 2.0 * math.pi, (len(M), L))])
    results = bb.coordinate_descent(M, inits, spec)
    for b, sweeps in enumerate(results.sweeps):
        assert np.all(np.diff(results.objectives[: sweeps + 1, b]) >= 0.0)
    assert np.all(np.diff(results.objectives, axis=0) >= 0.0)


@settings(max_examples=60, deadline=None)
@given(case=stacks(max_elements=16, max_members=4), seed=st.integers(0, 2**32 - 1), cophased=st.booleans())
def test_power_method_objectives_never_decrease_and_members_equal_their_stacks_of_one(case, seed, cophased):
    # From random phases or, as in solve_sdr, from the co-phased dominant eigenvector.
    L, M = case
    H = beamopt_module._hermitian_stack(M)
    start = (beamopt_module._cophase(beamopt_module._max_eigenpairs(H)[1]) if cophased
             else np.exp(1j * np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, (len(M), L))) / math.sqrt(L))
    W, objectives, sweeps = beamopt_module._coordinate_descent(H, start.copy(), bb.PhaseSpec(), power=True)
    assert np.all(np.diff(objectives, axis=0) >= 0.0)
    for b in range(len(M)):
        alone = beamopt_module._coordinate_descent(H[b : b + 1], start[b : b + 1].copy(), bb.PhaseSpec(), power=True)
        assert alone[0].tobytes() == W[b : b + 1].tobytes()
        assert alone[1][:, 0].tobytes() == objectives[: sweeps[b] + 1, b].tobytes()
        assert alone[2][0] == sweeps[b]


@settings(max_examples=100, deadline=None)
@given(L=st.integers(1, 24), B=st.integers(1, 40), bits=st.sampled_from((None, 1, 3, 16)),
       seed=st.integers(0, 2**32 - 1))
@example(L=1, B=1, bits=None, seed=0)
@example(L=24, B=40, bits=3, seed=1)
# The stacks of kmeans_codebook's accept guard, which scores each element-count group in one call.
@example(L=4, B=1, bits=3, seed=2)
@example(L=4, B=2, bits=3, seed=3)
@example(L=16, B=16, bits=None, seed=4)
@example(L=16, B=16, bits=3, seed=5)
def test_a_beams_gain_is_its_row_of_the_stacked_quadratic_forms_bit_for_bit(L, B, bits, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((B, L, L)) + 1j * rng.standard_normal((B, L, L))
    M = X @ X.conj().transpose(0, 2, 1)
    beams = [bb.BeamWeights.from_phases(p, phase_spec(bits)) for p in rng.uniform(0.0, 2.0 * math.pi, (B, L))]
    forms = beamopt_module._quadratic_forms(M, np.stack([beam.weights for beam in beams]))
    for b, beam in enumerate(beams):
        assert beam.gain(M[b]) == forms[b]
        assert beam.gain(M[b]) == beamopt_module._quadratic_forms(M[b : b + 1], beam.weights[None])[0]


def test_phase_is_mod_of_angle_bit_for_bit():
    rng = np.random.default_rng(0)
    special = [complex(re, im) for re in (1.0, -1.0, 0.0, -0.0) for im in (0.0, -0.0, 1e-300, -1e-300)]
    z = np.concatenate([special, rng.standard_normal(1000) + 1j * rng.standard_normal(1000)])
    assert beamopt_module._phase(z).tobytes() == np.mod(np.angle(z), 2.0 * math.pi).tobytes()


def randomize_every_draw(solution: bb.SdrSolution, M: np.ndarray, n_rand: int, spec: bb.PhaseSpec, seed: int):
    """Reference: score every one of the n_rand draws, repeats included, and keep the first best draw."""
    M = beamopt_module._hermitian_stack(M[None])[0]
    L = M.shape[0]
    vals, vecs = np.linalg.eigh(solution.W[None])
    vals = np.clip(vals, 0.0, None)
    factors = (vecs * np.sqrt(vals)[:, None, :])[0]
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


def spread_relaxation(L: int, kind: str, instance: int, spread: float) -> tuple[np.ndarray, bb.SdrSolution]:
    """A relaxation moved toward I/L: (1 - spread) W + spread I/L is feasible and, for spread > 0, of full rank."""
    M = member(L, kind, instance)
    solution = solve_alone(M)
    return M, solution._replace(W=(1.0 - spread) * solution.W + spread * np.eye(L) / L)


@st.composite
def drawn_relaxations(draw):
    """(M, solution) whose W has rank 2 or more, so that randomization draws."""
    if draw(st.booleans()):
        return uncertified_relaxation(draw(st.sampled_from([s for specs in UNCERTIFIED.values() for s in specs])))
    return spread_relaxation(draw(st.integers(2, 16)), draw(st.sampled_from(KINDS)), draw(st.integers(0, 10_000)),
                             draw(st.floats(1e-6, 1.0)))


@settings(max_examples=100, deadline=None)
@given(
    relaxation=drawn_relaxations(),
    bits=st.sampled_from(RESOLUTIONS),
    n_rand=st.integers(1, 2000),
    seed=st.integers(0, 2**32 - 1),
)
@example(relaxation=uncertified_relaxation(RandomInstanceSpec(5, 3, 205)), bits=3, n_rand=1000, seed=0)
@example(relaxation=uncertified_relaxation(RandomInstanceSpec(16, 16, 7)), bits=2, n_rand=1000, seed=1)
@example(relaxation=spread_relaxation(16, "full", 1, 0.5), bits=4, n_rand=500, seed=5)
@example(relaxation=spread_relaxation(5, "full", 3, 0.5), bits=13, n_rand=1, seed=7)
# Nearly rank-one W with n_rand far above L * 2^b: almost every draw repeats an earlier beam.
@example(relaxation=spread_relaxation(2, "rank-one", 4, 1e-6), bits=1, n_rand=2000, seed=8)
@example(relaxation=spread_relaxation(8, "rank-one", 2, 1e-6), bits=16, n_rand=2000, seed=6)
# Scoring a compact (L, distinct) copy of the distinct beams would change the last bits of a gain here.
@example(relaxation=spread_relaxation(2, "full", 3, 1e-3), bits=1, n_rand=5, seed=2)
def test_randomization_equals_scoring_every_draw_bit_for_bit(relaxation, bits, n_rand, seed):
    M, solution = relaxation
    vals = np.linalg.eigvalsh(solution.W)
    assert vals[-2] > 1e-9 * vals[-1]  # not the rank-one route
    spec = phase_spec(bits)
    beams = bb.gaussian_randomization([solution], M[None], n_rand, spec, [seed])
    beamopt_module._check_beams(beams, spec)  # a feasible beam
    assert beams[0].tobytes() == randomize_every_draw(solution, M, n_rand, spec, seed).tobytes()


def zero_corner_relaxation(L: int, seed: int) -> tuple[np.ndarray, bb.SdrSolution]:
    """A rank-one W = v v^H with v_0 = 0, so W_00 = 0, against a full-rank M."""
    rng = np.random.default_rng(seed)
    v = np.concatenate([[0.0], rng.standard_normal(L - 1) + 1j * rng.standard_normal(L - 1)])
    v /= np.linalg.norm(v)
    return member(L, "full", seed), bb.SdrSolution(np.outer(v, v.conj()), 0.0, 0, 0.0, 1, 0.0)


@st.composite
def near_rank_one_relaxations(draw):
    """(M, solution) on either side of the rank-one test: W spread by 1e-16 to 1e-6, W_00 = 0, or uncertified."""
    kind = draw(st.sampled_from(("spread", "zero corner", "uncertified")))
    if kind == "uncertified":
        return uncertified_relaxation(draw(st.sampled_from([s for specs in UNCERTIFIED.values() for s in specs])))
    if kind == "zero corner":
        return zero_corner_relaxation(draw(st.integers(2, 16)), draw(st.integers(0, 10_000)))
    return spread_relaxation(draw(st.integers(2, 16)), draw(st.sampled_from(KINDS[1:])), draw(st.integers(0, 10_000)),
                             10.0 ** draw(st.floats(-16.0, -6.0)))


@settings(max_examples=100, deadline=None)
@given(relaxation=near_rank_one_relaxations(), bits=st.sampled_from(RESOLUTIONS), seed=st.integers(0, 2**32 - 1))
@example(relaxation=spread_relaxation(16, "full", 1, 1e-16), bits=3, seed=0)
@example(relaxation=spread_relaxation(4, "rank-one", 2, 4e-9), bits=None, seed=1)  # next to the eigenvalue test
@example(relaxation=zero_corner_relaxation(3, 5), bits=2, seed=2)
def test_randomization_draws_exactly_where_the_eigenvalue_test_says(relaxation, bits, seed):
    M, solution = relaxation
    spec = phase_spec(bits)
    drew = []
    (beam,) = bb.gaussian_randomization([solution], M[None], 20, spec, [seed], drew)
    vals, vecs = np.linalg.eigh(solution.W[None])
    exact = vals[0, :-1].max() <= 1e-9 * max(vals[0, -1], 1e-300)
    assert drew == [not exact]
    if exact and spec.is_discrete:  # the best lattice rotation of the eigenvector, bit for bit
        H = beamopt_module._hermitian_stack(M[None])
        assert beam.tobytes() == beamopt_module._rank_one_lattice_beams(vecs[:, :, -1], H, bits)[0].tobytes()
    elif exact:  # the co-phased eigenvector, up to a global phase and rounding
        assert abs(np.vdot(beamopt_module._cophase(vecs[0, :, -1]), beam)) == pytest.approx(1.0, abs=1e-9)


def sweeps_without_stationary_stop(M: np.ndarray, W: np.ndarray, spec: bb.PhaseSpec):
    """Reference: coordinate descent's cyclic sweeps on a Hermitian stack, every member running its first sweep."""
    B, L, _ = M.shape
    thresholds = 1e-12 * np.maximum(np.real(np.trace(M, axis1=1, axis2=2)), 1e-300)
    W = W.copy()
    obj = beamopt_module._quadratic_forms(M, W)
    rows, sweeps, active = [obj.copy()], np.zeros(B, dtype=int), np.arange(B)
    Ma, Wa = M, W.copy()
    for _ in range(10 * L * (1 << spec.bits) if spec.is_discrete else 1000):
        if not active.size:
            break
        before = Wa.copy()
        for i in range(L):
            c = (Ma[:, i, None, :] @ Wa[:, :, None])[:, 0, 0] - Ma[:, i, i] * Wa[:, i]
            moved = c != 0.0
            Wa[moved, i] = beamopt_module._feasible(beamopt_module._phase(c[moved]), spec, L)
        new_obj = beamopt_module._quadratic_forms(Ma, Wa)
        lowered = new_obj < obj[active]
        Wa[lowered], new_obj[lowered] = before[lowered], obj[active[lowered]]
        done = new_obj - obj[active] < thresholds[active]
        obj[active] = new_obj
        sweeps[active] += 1
        rows.append(obj.copy())
        W[active[done]] = Wa[done]
        active, Ma, Wa = active[~done], Ma[~done], Wa[~done]
    W[active] = Wa
    return W, np.array(rows), sweeps


def near_tie(w: np.ndarray, bits: int, i: int, offset: float) -> np.ndarray:
    """A Hermitian M (L, L), L >= 3, whose fields at the lattice beam w (L,) sit on w's own lattice points,
    except element i's field, which sits ``offset`` rad from the midpoint above w_i."""
    L = len(w)
    M = np.outer(w, w.conj())
    M[i, :] = M[:, i] = 0.0
    m = (i + 1) % L
    M[i, m] = 1e-3 * np.exp(1j * (np.angle(w[i]) + math.pi / (1 << bits) + offset - np.angle(w[m])))
    M[m, i] = np.conj(M[i, m])
    return M


@st.composite
def polish_cases(draw):
    """(M, W, spec, ties), member by member: a random lattice beam, a coordinate descent fixed point, or a near-tie."""
    L, M = draw(stacks(min_elements=3, max_elements=16, max_members=4))
    bits = draw(st.sampled_from((1, 2, 3, 5, 8)))
    spec = bb.PhaseSpec(bits)
    H = beamopt_module._hermitian_stack(M)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    W = beamopt_module._feasible(rng.uniform(0.0, 2.0 * math.pi, (len(M), L)), spec, L)
    ties = []
    for b in range(len(M)):
        start = draw(st.sampled_from(("random", "fixed point", "near tie")))
        if start == "fixed point":
            W[b] = sweeps_without_stationary_stop(H[b : b + 1], W[b : b + 1], spec)[0][0]
        elif start == "near tie":
            H[b] = near_tie(W[b], bits, draw(st.integers(0, L - 1)), draw(st.floats(-1e-15, 1e-15)))
            ties.append(b)
    return H, W, spec, ties


def sweep_ran(M: np.ndarray, W: np.ndarray, spec: bb.PhaseSpec) -> bool:
    """Whether coordinate_descent ran a sweep: only a sweep snaps the fields of one element at a time (a 1-D call)."""
    feasible, ndims = beamopt_module._feasible, []
    with mock.patch.object(beamopt_module, "_feasible", lambda p, *args: ndims.append(np.ndim(p)) or feasible(p, *args)):
        bb.coordinate_descent(M, W, spec)
    return 1 in ndims


@settings(max_examples=150, deadline=None)
@given(case=polish_cases())
def test_coordinate_descent_equals_its_sweeps_without_the_stationary_stop_bit_for_bit(case):
    M, W, spec, ties = case
    got = bb.coordinate_descent(M, W, spec)
    want = sweeps_without_stationary_stop(beamopt_module._hermitian_stack(M), W, spec)
    for name, a, b in zip(("weights", "objectives", "sweeps"), got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    for b in ties:  # a field within rounding of a decision boundary: the member takes its sweep
        assert sweep_ran(M[b : b + 1], W[b : b + 1], spec)


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
        lam_one, v_one = beamopt_module._max_eigenpairs(m[None])
        assert lam_one[0] == lam_ref and v_one[0].tobytes() == v_ref.tobytes()


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
def test_ascent_keeps_the_constraints_and_each_member_as_alone(case, tol, max_sweeps):
    M, trace = case
    got = beamopt_module._ascend(M, trace, tol, max_sweeps)
    W, objective, sweeps, _, _ = got
    assert np.all(np.diagonal(W, axis1=1, axis2=2) == 1.0 / M.shape[-1])
    assert np.array_equal(W, W.conj().transpose(0, 2, 1))
    assert np.array_equal(objective, beamopt_module._objectives(M, W))
    assert np.all(sweeps <= max_sweeps)
    for b in range(len(M)):
        alone = beamopt_module._ascend(M[b : b + 1], trace[b : b + 1], tol, max_sweeps)
        for name, stacked, one in zip(("W", "objective", "sweeps", "improvement", "stage_tol"), got, alone):
            assert stacked[b].tobytes() == one[0].tobytes(), name
