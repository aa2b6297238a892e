"""Single-beam design under per-element power and phase constraints.

Given a Hermitian PSD coherence matrix ``M`` the goal is to maximize the
quadratic form ``w^H M w`` over unit-norm weight vectors whose entries all
have magnitude 1/sqrt(L) (analog phase shifters), optionally with phases
restricted to a b-bit lattice.  Three reference quantities bracket every
design:

* sum-power optimum: the largest eigenvalue of ``M``;
* per-element power optimum: upper-bounded by the semidefinite relaxation
  solved by :func:`solve_sdr`;
* discrete-phase optimum: the best b-bit beam (see ``oracle`` for the
  exhaustive version at small sizes).

The production pipeline is relax -> randomize -> polish: solve the SDR,
round candidates drawn from the solution covariance to feasible beams
(:func:`gaussian_randomization`), then run cyclic coordinate descent on
the phases (:func:`coordinate_descent`).
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Sequence

import numpy as np

from ._frozen import Frozen

__all__ = [
    "PhaseSpec",
    "BeamWeights",
    "SdrSolution",
    "SdrConvergenceError",
    "CoordinateDescentResult",
    "quantize_phase",
    "max_eigenpair",
    "solve_sdr",
    "gaussian_randomization",
    "coordinate_descent",
    "design_beam",
]

_TWO_PI = 2.0 * math.pi


class PhaseSpec(Frozen):
    """Phase-shifter resolution: continuous, or discrete with b bits."""

    def __init__(self, mode: str, bits: int | None = None):
        if mode not in ("continuous", "discrete"):
            raise ValueError("mode must be 'continuous' or 'discrete'")
        if mode == "discrete":
            if bits is None or not (1 <= bits <= 16):
                raise ValueError("discrete phase bits must be in 1..16")
        elif bits is not None:
            raise ValueError("continuous mode takes no bit count")
        self.__dict__.update(mode=mode, bits=bits)

    @classmethod
    def continuous(cls) -> "PhaseSpec":
        return cls("continuous")

    @classmethod
    def discrete(cls, bits: int) -> "PhaseSpec":
        return cls("discrete", bits)

    @property
    def is_discrete(self) -> bool:
        return self.mode == "discrete"


def quantize_phase(phase, bits: int):
    """Snap phases to the nearest point of the {k * 2pi/2^b} lattice.

    Distance is circular, ties resolve to the lower lattice value, and
    the result lies in [0, 2pi).  Idempotent on lattice points.
    """
    if bits < 1:
        raise ValueError("bits must be >= 1")
    step = _TWO_PI / (1 << bits)
    k = np.ceil(np.asarray(phase, dtype=float) / step - 0.5)  # round half down
    out = np.mod(k, 1 << bits) * step
    if np.isscalar(phase):
        return float(out)
    return out


def _phase(z) -> np.ndarray:
    """Angle of z in [0, 2pi): bit for bit np.mod(np.angle(z), 2pi), -0.0 and +-pi included, at a fraction of its cost."""
    a = np.angle(z)
    return np.where(a < 0.0, a + _TWO_PI, a + 0.0)


def _lattice_index(phase: np.ndarray, bits: int) -> np.ndarray:
    """Index k of the lattice point k * 2pi/2^b that :func:`quantize_phase` picks, for phases in [0, 2pi]."""
    step = _TWO_PI / (1 << bits)
    return np.ceil(phase / step - 0.5).astype(np.intp) & ((1 << bits) - 1)


def _first_distinct_columns(index: np.ndarray, bits: int) -> np.ndarray:
    """Column numbers, in increasing order, of the first occurrence of each distinct column of lattice indices (L, n)."""
    L = index.shape[0]
    if L * bits <= 63:
        # Each column's L indices packed into the bits of one int64.
        keys = (index.astype(np.int64, copy=False) << (bits * np.arange(L, dtype=np.int64))[:, None]).sum(axis=0)
    else:
        keys = np.ascontiguousarray(index.T).view(np.dtype((np.void, L * index.itemsize)))[:, 0]
    first = np.unique(keys, return_index=True)[1]
    first.sort()
    return first


@functools.lru_cache(maxsize=16)
def _lattice_phasors(bits: int, L: int) -> np.ndarray:
    """Read-only table of the 2^b feasible entries exp(1j * k * 2pi/2^b) / sqrt(L).

    Entry k is bit for bit the entry built from the quantized phase k * step,
    so indexing it by :func:`_lattice_index` replaces quantize, exp and scale.
    """
    step = _TWO_PI / (1 << bits)
    table = np.exp(1j * (np.arange(1 << bits) * step)) / math.sqrt(L)
    table.setflags(write=False)
    return table


def _check_beams(w: np.ndarray, phase_spec: PhaseSpec) -> None:
    """Raise unless every row of ``w`` (B, L) is a feasible beam for ``phase_spec``."""
    magnitude = np.abs(w)
    # Written as "not <=" so that a NaN entry fails too.
    if not np.abs((magnitude * magnitude).sum(axis=-1) - 1.0).max() <= 1e-10:
        raise ValueError("weights must be finite with unit norm")
    if np.abs(magnitude - 1.0 / math.sqrt(w.shape[-1])).max() > 1e-10:
        raise ValueError("per-element magnitude must be 1/sqrt(L)")
    if phase_spec.is_discrete:
        ph = _phase(w)
        snapped = quantize_phase(ph, phase_spec.bits)
        if np.abs(np.exp(1j * ph) - np.exp(1j * snapped)).max() > 1e-9:
            raise ValueError("phases are off the discrete lattice")


class BeamWeights(Frozen):
    """Unit-norm analog beamforming weights with constraint metadata.

    Every entry has magnitude 1/sqrt(L); in discrete mode the phases sit
    on the 2pi/2^b lattice.  Violations raise at construction.  The
    weights are a read-only copy: the caller's array is neither shared
    nor frozen.
    """

    def __init__(self, weights, phase_spec: PhaseSpec):
        w = np.array(weights, dtype=complex)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a nonempty 1-D vector")
        _check_beams(w, phase_spec)
        w.setflags(write=False)
        self.__dict__.update(weights=w, phase_spec=phase_spec)

    @classmethod
    def _rows(cls, W: np.ndarray, phase_spec: PhaseSpec) -> tuple["BeamWeights", ...]:
        """One beam per row of a (B, L) stack, validated in one pass over the stack."""
        W = np.array(W, dtype=complex)
        _check_beams(W, phase_spec)
        W.setflags(write=False)
        beams = []
        for w in W:
            beam = object.__new__(cls)
            beam.__dict__.update(weights=w, phase_spec=phase_spec)
            beams.append(beam)
        return tuple(beams)

    def __eq__(self, other):
        """Equal when the phase specs match and the weights are exactly equal, entry by entry."""
        if not isinstance(other, BeamWeights):
            return NotImplemented
        return self.phase_spec == other.phase_spec and np.array_equal(self.weights, other.weights)

    def __hash__(self):
        # Python numbers that compare equal hash equal (0.0 and -0.0 too), as array_equal needs.
        return hash((self.phase_spec, tuple(self.weights.tolist())))

    @property
    def num_elements(self) -> int:
        return self.weights.size

    def gain(self, M: np.ndarray) -> float:
        """Quadratic form w^H M w (real for Hermitian M)."""
        return float(np.real(self.weights.conj() @ M @ self.weights))

    @classmethod
    def from_phases(cls, phases: np.ndarray, phase_spec: PhaseSpec) -> "BeamWeights":
        phases = np.asarray(phases, dtype=float)
        if phase_spec.is_discrete:
            phases = quantize_phase(np.mod(phases, _TWO_PI), phase_spec.bits)
        w = np.exp(1j * phases) / math.sqrt(phases.size)
        return cls(w, phase_spec)


class SdrSolution(NamedTuple):
    """Solution of the diagonally constrained semidefinite relaxation.

    ``bound`` is a dual certificate: no feasible W, and so no beam, has a
    larger objective (up to rounding).  It sits between ``objective`` and
    the largest eigenvalue of M.
    """

    W: np.ndarray
    objective: float
    iterations: int
    residual: float
    rank: int
    bound: float


class _Members(tuple):
    """The per-member results of a stacked call, in stack order: a tuple in every respect.

    ``iterations`` (the sweeps of the slowest relaxation) and ``objectives``
    (the coordinate-descent traces, each padded with its final value to the
    slowest member's length, one column per member) are read off the
    members; the benchmark's tracer (``bench/tracing.py``) reads them from
    a stacked return value.
    """

    __slots__ = ()

    @property
    def iterations(self) -> int:
        return max((solution.iterations for solution in self), default=0)

    @property
    def objectives(self) -> np.ndarray:
        rows = max(len(result.objectives) for result in self)
        return np.column_stack([np.pad(r.objectives, (0, rows - len(r.objectives)), "edge") for r in self])


class SdrConvergenceError(RuntimeError):
    """Relaxation solver hit its sweep cap; carries the best iterate: one solution, or a tuple of one per member."""

    def __init__(self, message: str, solution: SdrSolution | tuple[SdrSolution, ...]):
        super().__init__(message)
        self.solution = solution


def _hermitian_stack(M) -> np.ndarray:
    """Validate one square Hermitian matrix or a stack (B, L, L) of them; return the Hermitian part as a stack."""
    M = np.asarray(M, dtype=complex)
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2] or M.shape[-1] < 1:
        raise ValueError("M must be square or a stack of square matrices")
    stack = M.reshape((-1,) + M.shape[-2:])
    H = stack.conj().transpose(0, 2, 1)
    scale = np.maximum(np.abs(stack).max(axis=(1, 2)), 1.0)
    if np.any(np.abs(stack - H).max(axis=(1, 2)) > 1e-12 * scale):
        raise ValueError("M must be Hermitian")
    return 0.5 * (stack + H)


def _check_square_hermitian(M: np.ndarray) -> np.ndarray:
    if np.ndim(M) != 2:
        raise ValueError("M must be square")
    return _hermitian_stack(M)[0]


def max_eigenpair(M: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and unit eigenvector of a Hermitian PSD matrix.

    The eigenvector's first entry of non-negligible magnitude is rotated
    to be real positive, which fixes the otherwise arbitrary global phase.
    """
    lam, v = _max_eigenpairs(_check_square_hermitian(M)[None])
    return float(lam[0]), v[0]


def _max_eigenpairs(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`max_eigenpair` of every member of a Hermitian stack (B, L, L), from one stacked ``eigh``.

    Returns the (B,) eigenvalues and the (B, L) pinned eigenvectors; a zero
    member gets eigenvalue 0 and the first unit vector.
    """
    vals, vecs = np.linalg.eigh(M)
    lam = vals[:, -1].copy()
    v = vecs[:, :, -1]
    magnitude = np.abs(v)
    first = np.argmax(magnitude > 1e-12 * magnitude.max(axis=1, keepdims=True), axis=1)
    v = v * np.exp(-1j * np.angle(v[np.arange(len(v)), first]))[:, None]
    zero = np.abs(M).max(axis=(1, 2)) == 0.0
    lam[zero] = 0.0
    v[zero] = np.eye(1, M.shape[-1], dtype=complex)
    return lam, v


def _cophase(v: np.ndarray) -> np.ndarray:
    """Unimodular vectors aligned with the phases of v (..., L); zero entries get phase 0."""
    phases = np.where(np.abs(v) > 0.0, np.angle(v), 0.0)
    return np.exp(1j * phases) / math.sqrt(v.shape[-1])


def _objectives(M: np.ndarray, W: np.ndarray) -> np.ndarray:
    """tr(M W) of every member of a stack."""
    return np.real(np.einsum("bij,bji->b", M, W))


def _numerical_ranks(psd: np.ndarray, rel_tol: float = 1e-9) -> np.ndarray:
    vals = np.linalg.eigvalsh(psd)
    return np.sum(vals > rel_tol * np.maximum(vals[:, -1:], 0.0), axis=1)


def _dual_bounds(M: np.ndarray, W: np.ndarray, objective: np.ndarray) -> np.ndarray:
    """Certified upper bounds on the relaxation optima of a stack.

    For any y, the shifted y + t with t = max(0, -lambda_min(Diag(y) - M))
    is dual feasible, so sum(y)/L + t bounds tr(M W) over every feasible W
    (weak duality).  With y_i = L Re(MW)_ii, sum(y)/L is the objective and
    t vanishes at the optimum (complementary slackness).
    """
    L = M.shape[-1]
    y = L * np.real(np.einsum("bij,bji->bi", M, W))
    lam_min = np.linalg.eigvalsh(y[:, :, None] * np.eye(L) - M)[:, 0]
    return objective + np.maximum(0.0, -lam_min)


# Barrier weights relative to trace(M), so the schedule is scale free; the
# final zero stage is pure ascent.
_BARRIER_SCHEDULE = np.array([1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10, 0.0])


def _ascend(M: np.ndarray, trace: np.ndarray, tol: float, max_sweeps: int):
    """Barrier row-by-row ascent over a stack of relaxations.

    Every sweep updates each row of every active member: with the other
    rows fixed, the optimal off-diagonal row is t * B c, where B is W with
    row and column i removed and c the off-diagonal part of column i of M;
    t keeps the Schur complement at the barrier's optimum (or on its
    boundary once the barrier is zero).  Zeroing row and column i of W
    gives B c, padded with a zero at i, as one product.  A member moves to
    its next barrier stage when a sweep improves its objective by less than
    its stage tolerance, and leaves the stack after the last stage or at
    the sweep cap; a member's arithmetic never involves another member.

    The row update makes as few NumPy calls as it can, but each call keeps
    the operands, and their order, of the plain formulas u = B c,
    s = Re(c^H u), and t = (-sigma gamma + sqrt((sigma gamma)^2 + 4 s gamma)) / (2 s)
    in a barrier stage or t = sqrt(gamma / s) in the last stage, with t = 0
    where s <= 0.  So every member's iterates are bit for bit those of the
    plain formulas.  The one regrouping, (4 s) gamma computed as
    s (4 gamma), scales by a power of two and is exact.

    Returns W, objective, sweeps, last improvement and stage tolerance per member.
    """
    B, L, _ = M.shape
    gamma = 1.0 / L
    four_gamma = 4.0 * gamma
    W = np.broadcast_to(np.eye(L, dtype=complex) / L, (B, L, L)).copy()
    obj = _objectives(M, W)
    sweeps = np.zeros(B, dtype=int)
    stage = np.zeros(B, dtype=int)
    improvement = np.full(B, math.inf)
    stage_tol = max(tol, 1e-14) * np.maximum(trace, 1.0) * 0.1
    active = np.flatnonzero(sweeps < max_sweeps)
    Ma, Wa = M[active], W[active]
    views = None
    while active.size:
        if views is None:
            # Per row i: column i of every active M as a contiguous (Ba, L, 1)
            # block and its conjugate as a (Ba, 1, L) row, then column i, row i
            # and entry (i, i) of Wa as views.  Rebuilt when members leave.
            columns = np.ascontiguousarray(Ma.transpose(0, 2, 1))
            c_cols, c_rows = columns[:, :, :, None], columns.conj()[:, :, None, :]
            views = [(c_cols[:, i], c_rows[:, i], Wa[:, :, i, None], Wa[:, i, :, None], Wa[:, i, i]) for i in range(L)]
        sigma = _BARRIER_SCHEDULE[stage[active]] * trace[active]
        barrier = (sigma > 0.0)[:, None, None]
        sigma_gamma = (sigma * gamma)[:, None, None]
        sigma_gamma_sq, neg_sigma_gamma = sigma_gamma**2, -sigma_gamma
        all_barrier = barrier.all()
        mixed = not all_barrier and barrier.any()
        for c_col, c_row, w_col, w_row, w_diag in views:
            w_row.fill(0.0)
            w_col.fill(0.0)
            u = Wa @ c_col
            s = (c_row @ u).real
            all_positive = s.min() > 0.0
            if not all_positive:
                positive = s > 0.0
                s = np.where(positive, s, 1.0)
            if all_barrier or mixed:
                t = (neg_sigma_gamma + np.sqrt(sigma_gamma_sq + s * four_gamma)) / (2.0 * s)
                if mixed:
                    t = np.where(barrier, t, np.sqrt(gamma / s))
            else:
                t = np.sqrt(gamma / s)
            if not all_positive:
                t = np.where(positive, t, 0.0)
            y = t * u
            w_col[...] = y
            w_row[...] = y.conj()
            w_diag.fill(gamma)
        new_obj = _objectives(Ma, Wa)
        improvement[active] = new_obj - obj[active]
        obj[active] = new_obj
        sweeps[active] += 1
        stage[active] += improvement[active] < stage_tol[active]
        done = (stage[active] == _BARRIER_SCHEDULE.size) | (sweeps[active] >= max_sweeps)
        if done.any():
            W[active[done]] = Wa[done]
            keep = ~done
            active, Ma, Wa = active[keep], Ma[keep], Wa[keep]
            views = None
    return W, obj, sweeps, improvement, stage_tol


def solve_sdr(M: np.ndarray, tol: float = 1e-9, max_sweeps: int = 5000) -> SdrSolution | tuple[SdrSolution, ...]:
    """Maximize tr(M W) over PSD W with every diagonal entry fixed to 1/L.

    Solved with a row-by-row block coordinate ascent: with all other rows
    fixed, the optimal off-diagonal row/column has a closed form through
    the Schur complement.  A logarithmic barrier on the complement keeps
    iterates strictly feasible and is driven to zero on a fixed schedule,
    after which plain ascent polishes the solution.  Designed for the
    small dense matrices of beam design (L <= 16 or so).

    ``M`` is one matrix, which gives an :class:`SdrSolution`, or a stack
    of shape (B, L, L), which gives a tuple of B solutions.  A stack runs one
    ascent over all its members at once; each member keeps its own barrier
    stage, sweep count and stop test, so its solution is bit for bit the
    one it gets alone.  Every solution carries a dual certificate
    (``bound``).

    Rank-one inputs short-circuit to the exact analytic optimum (the
    co-phased rank-one W).  Raises :class:`SdrConvergenceError`, carrying
    every member's best iterate, if the sweep budget is exhausted before
    some member's objective settles, and ``ValueError`` unless ``tol`` is
    positive (NaN is not) and ``max_sweeps`` is at least 1.
    """
    # Written as "not >" so that a NaN tol fails too.
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    single = np.ndim(M) == 2
    M = _hermitian_stack(M)
    B, L, _ = M.shape
    trace = np.real(np.trace(M, axis1=1, axis2=2))

    vals = np.linalg.eigvalsh(M)
    if np.any(vals[:, 0] < -1e-10 * np.maximum(trace, 1.0)):
        raise ValueError("M must be positive semidefinite")

    # A zero-trace member keeps W = I/L with objective 0 and rank L.
    W = np.broadcast_to(np.eye(L, dtype=complex) / L, (B, L, L)).copy()
    objective = np.zeros(B)
    sweeps = np.zeros(B, dtype=int)
    improvement = np.zeros(B)
    rank = np.full(B, L)
    failed = np.zeros(B, dtype=bool)
    live = trace > 0.0
    if L == 1:
        objective[live] = trace[live]
        rank[live] = 1
    else:
        # Rank-one M: the co-phased rank-one W attains the relaxation optimum
        # (Cauchy-Schwarz over the rows of any feasible factor).
        rank_one = live & (vals[:, -2] <= 1e-12 * vals[:, -1])
        if rank_one.any():
            w = _cophase(_max_eigenpairs(M[rank_one])[1])
            W[rank_one] = w[:, :, None] * w.conj()[:, None, :]
        objective[rank_one] = _objectives(M[rank_one], W[rank_one])
        rank[rank_one] = 1
        ascend = live & ~rank_one
        if ascend.any():
            W[ascend], objective[ascend], sweeps[ascend], improvement[ascend], stage_tol = _ascend(
                M[ascend], trace[ascend], tol, max_sweeps
            )
            rank[ascend] = _numerical_ranks(W[ascend])
            failed[ascend] = (sweeps[ascend] >= max_sweeps) & (improvement[ascend] >= 10.0 * stage_tol)

    bound = _dual_bounds(M, W, objective)
    solutions = tuple(
        SdrSolution(W[b], float(objective[b]), int(sweeps[b]), abs(float(improvement[b])), int(rank[b]), float(bound[b]))
        for b in range(B)
    )
    result = solutions[0] if single else _Members(solutions)
    if failed.any():
        b = int(np.argmax(failed))
        member = "" if single else f" {b} of {B}"
        raise SdrConvergenceError(
            f"relaxation{member} did not settle within {max_sweeps} sweeps (last improvement {improvement[b]:.3e})",
            result,
        )
    return result


def _member_seeds(seed: int | Sequence[int], members: int) -> tuple[int, ...]:
    seeds = (seed,) if np.ndim(seed) == 0 else tuple(seed)
    if len(seeds) != members:
        raise ValueError("a stack of matrices takes one seed per member")
    return seeds


def _covariances(solution) -> np.ndarray:
    """The W of one solution (or matrix), or of every solution of a sequence, as a (B, L, L) stack."""
    if isinstance(solution, SdrSolution):  # a tuple itself, so tested before the sequences
        solution = solution.W
    elif isinstance(solution, (tuple, list)):
        return np.stack([s.W for s in solution])
    W = np.asarray(solution, dtype=complex)
    return W.reshape((-1,) + W.shape[-2:])


def gaussian_randomization(
    solution: SdrSolution | Sequence[SdrSolution] | np.ndarray,
    M: np.ndarray,
    n_rand: int,
    phase_spec: PhaseSpec,
    seed: int | Sequence[int],
) -> BeamWeights | tuple[BeamWeights, ...]:
    """Round a relaxation solution to a feasible beam by randomized trials.

    Draws ``n_rand`` vectors from the zero-mean complex Gaussian with
    covariance W, projects each onto the feasible set (unit magnitudes,
    quantized phases in discrete mode), and keeps the best quadratic form.
    In continuous mode a numerically rank-one W needs no randomization:
    the co-phased dominant eigenvector is already optimal.  In discrete
    mode each distinct beam among the draws is scored once, at its first
    draw; the result is bit for bit the first best of all draws.
    Deterministic for a given seed (NumPy PCG64 stream).

    ``M`` may also be a stack of shape (B, L, L), with a sequence of B
    solutions (a stacked :func:`solve_sdr` result), and one seed per member; the result is
    then a tuple of B beams.  The stack shares one
    ``eigh`` and one factor product; each member keeps its own stream and
    its own (L, n_rand) draws, so its beam is bit for bit the one it gets
    alone.
    """
    if n_rand < 1:
        raise ValueError("n_rand must be >= 1")
    single = np.ndim(M) == 2
    M = _hermitian_stack(M)
    W = _covariances(solution)
    if W.shape != M.shape:
        raise ValueError("solutions and matrices must have the same stack shape")
    seeds = _member_seeds(seed, len(M))
    B, L, _ = M.shape
    vals, vecs = np.linalg.eigh(W)
    vals = np.clip(vals, 0.0, None)
    factors = vecs * np.sqrt(vals)[:, None, :]
    if phase_spec.is_discrete:
        phasors = _lattice_phasors(phase_spec.bits, L)
        distinct = np.empty((L, n_rand), dtype=complex)

    beams = np.empty((B, L), dtype=complex)
    for b in range(B):
        if not phase_spec.is_discrete and (L == 1 or vals[b, -2] <= 1e-9 * max(vals[b, -1], 1e-300)):
            beams[b] = _cophase(vecs[b, :, -1])
            continue
        # Unit-variance circular complex normals: the real and imaginary
        # parts are two consecutive standard_normal blocks, scaled by sqrt(1/2).
        rng = np.random.default_rng(seeds[b])
        xi = np.empty((n_rand, L), dtype=complex)
        xi.real = rng.standard_normal((n_rand, L))
        xi.imag = rng.standard_normal((n_rand, L))
        xi *= math.sqrt(0.5)
        phases = _phase(factors[b] @ xi.T)  # (L, n_rand)
        # The gain of a draw is einsum("ln,lk,kn->n", feas.conj(), M, feas)
        # over the (L, n_rand) array of feasible draws, and the beam is the
        # first draw of largest gain.  Keep that exact formula: lattice
        # rotations of one beam tie up to rounding, and another summation
        # order breaks those ties differently.  In discrete mode the draws
        # repeat (a rank-one W gives at most L 2^b distinct beams), so the
        # formula runs once per distinct beam, on its first draw, in draw
        # order.  Those beams fill the first columns of a full (L, n_rand)
        # buffer: NumPy orders the summation by the strides, and a compact
        # copy changes the last bits.
        if phase_spec.is_discrete:
            index = _lattice_index(phases, phase_spec.bits)
            first = _first_distinct_columns(index, phase_spec.bits)
            feas = distinct[:, : first.size]
            feas[...] = phasors[index[:, first]]
        else:
            feas = np.exp(1j * phases) / math.sqrt(L)
        gains = np.real(np.einsum("ln,lk,kn->n", feas.conj(), M[b], feas))
        beams[b] = feas[:, int(np.argmax(gains))]
    designed = BeamWeights._rows(beams, phase_spec)
    return designed[0] if single else designed


class CoordinateDescentResult(NamedTuple):
    """Polished beam plus the per-sweep objective trace (first entry = input)."""

    weights: BeamWeights
    objectives: np.ndarray


def _quadratic_forms(M: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w_b^H M_b w_b of every member: the same products as w.conj() @ M @ w on one member."""
    return np.real((w.conj()[:, None, :] @ M @ w[:, :, None])[:, 0, 0])


def coordinate_descent(
    M: np.ndarray,
    init: BeamWeights | Sequence[BeamWeights],
    phase_spec: PhaseSpec,
) -> CoordinateDescentResult | tuple[CoordinateDescentResult, ...]:
    """Cyclic phase updates; each step sets one phase to its conditional optimum.

    Element i is re-phased to align with the field contribution of the
    others, quantized in discrete mode; the objective is therefore
    nondecreasing step by step.  Stops when a full sweep improves the
    objective by less than 1e-12 * trace(M).  A vanishing off-diagonal
    contribution leaves that element untouched for the step.

    ``M`` may also be a stack of shape (B, L, L) with one init per member;
    the result is then a tuple of B results.  Each step
    re-phases element i of every member still running; each member keeps
    its own stop test and sweep cap, so its result is bit for bit the one
    it gets alone.
    """
    single = np.ndim(M) == 2
    M = _hermitian_stack(M)
    inits = (init,) if single else tuple(init)
    B, L, _ = M.shape
    if len(inits) != B:
        raise ValueError("a stack of matrices takes one init per member")
    if any(beam.num_elements != L for beam in inits):
        raise ValueError("init length does not match M")
    W = np.stack([beam.weights for beam in inits])
    if phase_spec.is_discrete:
        # Re-validates the lattice precondition for the given resolution.
        _check_beams(W, phase_spec)
        phasors = _lattice_phasors(phase_spec.bits, L)
    thresholds = np.array([1e-12 * max(float(np.real(np.trace(m))), 1e-300) for m in M])
    max_sweeps = 10 * L * (1 << phase_spec.bits) if phase_spec.is_discrete else 1000

    obj = _quadratic_forms(M, W)
    rows = [obj.copy()]
    sweeps = np.zeros(B, dtype=int)
    active = np.arange(B)
    Ma, Wa = M, W.copy()
    for _ in range(max_sweeps):
        if not active.size:
            break
        for i in range(L):
            c = (Ma[:, i, None, :] @ Wa[:, :, None])[:, 0, 0] - Ma[:, i, i] * Wa[:, i]
            moved = c != 0.0
            phase = _phase(c[moved])
            if phase_spec.is_discrete:
                Wa[moved, i] = phasors[_lattice_index(phase, phase_spec.bits)]
            else:
                Wa[moved, i] = np.exp(1j * phase) / math.sqrt(L)
        new_obj = _quadratic_forms(Ma, Wa)
        done = new_obj - obj[active] < thresholds[active]
        obj[active] = new_obj
        sweeps[active] += 1
        rows.append(obj.copy())
        if done.any():
            W[active[done]] = Wa[done]
            keep = ~done
            active, Ma, Wa = active[keep], Ma[keep], Wa[keep]
    W[active] = Wa
    objectives = np.array(rows)
    beams = BeamWeights._rows(W, phase_spec)
    results = tuple(
        CoordinateDescentResult(beam, objectives[: sweeps[b] + 1, b].copy()) for b, beam in enumerate(beams)
    )
    return results[0] if single else _Members(results)


def _canonical_global_phase(W: np.ndarray) -> np.ndarray:
    # A beam is physically invariant to a global phase; pin element 0 of
    # every row of W (B, L) to phase zero so identical designs compare equal.
    # In discrete mode the rotation is by a lattice phase, so lattice
    # membership is preserved.
    return W * np.exp(-1j * np.angle(W[:, :1]))


def design_beam(
    M: np.ndarray,
    phase_spec: PhaseSpec,
    strategy: str = "sdr_grp_cd",
    seed: int | Sequence[int] = 0,
    n_rand: int = 1000,
    sdr_tol: float = 1e-9,
) -> BeamWeights | tuple[BeamWeights, ...]:
    """Design one beam for a coherence matrix under the given phase constraint.

    Strategies:

    * ``eigen``: magnitude-normalize (and quantize) the dominant
      eigenvector; cheapest, no randomness.
    * ``sdr_grp``: semidefinite relaxation followed by Gaussian
      randomization.
    * ``sdr_grp_cd``: additionally polish with coordinate descent.

    The result is deterministic in (M, phase_spec, strategy, seed) and is
    normalized to a zero phase on element 0.

    ``M`` may also be a stack of shape (B, L, L) with one seed per member.
    Every stage then runs once over the whole stack: one :func:`solve_sdr`,
    one :func:`gaussian_randomization` (each member on its own seed) and
    one :func:`coordinate_descent` call.  The result is a tuple of B beams,
    each equal to the beam of a single call with that member and seed.
    """
    if strategy not in ("eigen", "sdr_grp", "sdr_grp_cd"):
        raise ValueError(f"unknown strategy '{strategy}'")
    single = np.ndim(M) == 2
    stack = _hermitian_stack(M)
    seeds = _member_seeds(seed, len(stack))
    if strategy == "eigen":
        _, V = _max_eigenpairs(stack)
        beams = [BeamWeights.from_phases(np.where(np.abs(v) > 0.0, np.angle(v), 0.0), phase_spec) for v in V]
    else:
        beams = gaussian_randomization(solve_sdr(stack, tol=sdr_tol), stack, n_rand, phase_spec, seeds)
        if strategy == "sdr_grp_cd":
            beams = [result.weights for result in coordinate_descent(stack, beams, phase_spec)]
    W = np.stack([beam.weights for beam in beams])
    designed = BeamWeights._rows(_canonical_global_phase(W), phase_spec)
    return designed[0] if single else designed
