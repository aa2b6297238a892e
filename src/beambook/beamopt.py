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
the phases (:func:`coordinate_descent`).  In discrete mode a rank-one
``M`` skips the draws: its best lattice beam is one of L candidates.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import NamedTuple, Sequence

import numpy as np

from ._frozen import Frozen

__all__ = [
    "PhaseSpec",
    "BeamWeights",
    "SdrSolution",
    "SdrConvergenceError",
    "CoordinateDescentResult",
    "solve_sdr",
    "gaussian_randomization",
    "coordinate_descent",
    "design_beam",
]

_TWO_PI = 2.0 * math.pi


class PhaseSpec(Frozen):
    """Phase-shifter resolution: ``bits``-bit phase shifters, or continuous ones when ``bits`` is None."""

    def __init__(self, bits: int | None = None):
        integer = isinstance(bits, (int, np.integer)) and not isinstance(bits, bool)
        if bits is not None and not (integer and 1 <= bits <= 16):
            raise ValueError(f"discrete phase bits must be an integer in 1..16, got {bits!r}")
        self.__dict__.update(bits=None if bits is None else int(bits))

    @property
    def is_discrete(self) -> bool:
        return self.bits is not None


def _phase(z) -> np.ndarray:
    """Angle of z in [0, 2pi): bit for bit np.mod(np.angle(z), 2pi), -0.0 and +-pi included, at a fraction of its cost."""
    a = np.angle(z)
    return np.where(a < 0.0, a + _TWO_PI, a + 0.0)


def _lattice_index(phase: np.ndarray, bits: int) -> np.ndarray:
    """Index k of the lattice point k * 2pi/2^b nearest to each phase in [0, 2pi], ties to the lower k."""
    step = _TWO_PI / (1 << bits)
    return np.ceil(phase / step - 0.5).astype(np.intp) & ((1 << bits) - 1)


@functools.lru_cache(maxsize=16)
def _column_weights(bits: int, L: int, draw_bits: int) -> np.ndarray:
    """Read-only int64 weights 2^(b l + draw_bits): ``weights @ index`` packs each column above ``draw_bits`` free bits."""
    weights = np.left_shift(1, bits * np.arange(L, dtype=np.int64) + draw_bits)
    weights.setflags(write=False)
    return weights


def _first_distinct_columns(index: np.ndarray, bits: int) -> np.ndarray:
    """Column numbers, in increasing order, of the first occurrence of each distinct column of lattice indices (L, n)."""
    L, n = index.shape
    draw_bits = (n - 1).bit_length()
    if L * bits + draw_bits > 63:
        keys = np.ascontiguousarray(index.T).view(np.dtype((np.void, L * index.itemsize)))[:, 0]
        first = np.unique(keys, return_index=True)[1]
    else:
        # Column above, draw number below: after one sort the head of each
        # run of equal columns is its first draw.
        keys = _column_weights(bits, L, draw_bits) @ index | np.arange(n)
        keys.sort()
        column = keys >> draw_bits
        first = np.concatenate((keys[:1], keys[1:][column[1:] != column[:-1]])) & ((1 << draw_bits) - 1)
    first.sort()
    return first


@functools.lru_cache(maxsize=16)
def _lattice_phasors(bits: int, L: int) -> np.ndarray:
    """Read-only table of the 2^b feasible entries exp(1j * k * 2pi/2^b) / sqrt(L).

    Indexed by :func:`_lattice_index`, it snaps phases to the lattice:
    every rounding of a phase to the lattice goes through this table.
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
        snapped = _lattice_phasors(phase_spec.bits, 1)[_lattice_index(ph, phase_spec.bits)]
        if np.abs(np.exp(1j * ph) - snapped).max() > 1e-9:
            raise ValueError("phases are off the discrete lattice")


class BeamWeights(Frozen):
    """Unit-norm analog beamforming weights with constraint metadata.

    Every entry has magnitude 1/sqrt(L); in discrete mode the phases sit
    on the 2pi/2^b lattice.  Violations raise at construction.  The
    weights are a read-only copy: the caller's array is neither shared
    nor frozen.
    """

    def __init__(self, weights, phase_spec: PhaseSpec):
        w = np.asarray(weights, dtype=complex)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a nonempty 1-D vector")
        self.__dict__.update(vars(self._rows(w[None], phase_spec)[0]))

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
        """exp(1j * phases) / sqrt(L); in discrete mode each phase snaps to its nearest lattice point, ties to the lower."""
        phases = np.asarray(phases, dtype=float)
        if not np.isfinite(phases).all():
            raise ValueError("phases must be finite")
        if not phase_spec.is_discrete:
            return cls(np.exp(1j * phases) / math.sqrt(phases.size), phase_spec)
        index = _lattice_index(np.mod(phases, _TWO_PI), phase_spec.bits)
        return cls(_lattice_phasors(phase_spec.bits, phases.size)[index], phase_spec)


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
    """Relaxation solver hit its sweep cap; ``solution`` carries every member's best iterate, in stack order.

    ``members`` holds the stack positions of the relaxations that did not settle.
    """

    def __init__(self, message: str, solution: tuple[SdrSolution, ...], members: tuple[int, ...]):
        super().__init__(message)
        self.solution = solution
        self.members = members


def _hermitian_stack(M) -> np.ndarray:
    """Validate a stack (B, L, L) of square Hermitian matrices; return their Hermitian parts."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 3 or M.shape[1] != M.shape[2] or M.shape[2] < 1:
        raise ValueError(f"M must be a stack (B, L, L) of square matrices, got shape {M.shape}")
    H = M.conj().transpose(0, 2, 1)
    scale = np.maximum(np.abs(M).max(axis=(1, 2)), 1.0)
    if np.any(np.abs(M - H).max(axis=(1, 2)) > 1e-12 * scale):
        raise ValueError("M must be Hermitian")
    return 0.5 * (M + H)


def _max_eigenpairs(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest eigenvalue and unit eigenvector of every member of a Hermitian stack (B, L, L), from one ``eigh``.

    Returns the (B,) eigenvalues and the (B, L) eigenvectors.  Each
    eigenvector's first entry of non-negligible magnitude is rotated to be
    real positive, which fixes the otherwise arbitrary global phase; a zero
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
# solve_sdr's stage tolerance, relative to max(trace(M), 1) / 10: see _ascend.
_SDR_TOL = 1e-9


def _ascend(M: np.ndarray, trace: np.ndarray, tol: float, max_sweeps: int):
    """Barrier row-by-row ascent over a stack of relaxations.

    Every sweep updates each row of every active member: with the other
    rows fixed, the optimal off-diagonal row is t * B c, where B is W with
    row and column i removed and c the off-diagonal part of column i of M;
    t keeps the Schur complement at the barrier's optimum (or on its
    boundary once the barrier is zero).  With entry i of c zeroed, one
    product W c gives B c in every entry but i, whose leftover value the
    reset of the diagonal to 1/L overwrites.  A member moves to
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
            # Per row i: column i of every active M, entry i zeroed, as a contiguous
            # (Ba, L, 1) block and its conjugate as a (Ba, 1, L) row, then column i,
            # row i and entry (i, i) of Wa as views.  Rebuilt when members leave.
            columns = Ma.transpose(0, 2, 1).copy()
            columns[:, range(L), range(L)] = 0.0
            c_cols, c_rows = columns[:, :, :, None], columns.conj()[:, :, None, :]
            views = [(c_cols[:, i], c_rows[:, i], Wa[:, :, i, None], Wa[:, i, :, None], Wa[:, i, i]) for i in range(L)]
        sigma = _BARRIER_SCHEDULE[stage[active]] * trace[active]
        barrier = (sigma > 0.0)[:, None, None]
        sigma_gamma = (sigma * gamma)[:, None, None]
        sigma_gamma_sq, neg_sigma_gamma = sigma_gamma**2, -sigma_gamma
        all_barrier = barrier.all()
        mixed = not all_barrier and barrier.any()
        for c_col, c_row, w_col, w_row, w_diag in views:
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


def solve_sdr(M: np.ndarray, max_sweeps: int = 5000) -> tuple[SdrSolution, ...]:
    """Maximize tr(M W) over PSD W with every diagonal entry fixed to 1/L.

    Solved with a row-by-row block coordinate ascent: with all other rows
    fixed, the optimal off-diagonal row/column has a closed form through
    the Schur complement.  A logarithmic barrier on the complement keeps
    iterates strictly feasible and is driven to zero on a fixed schedule,
    after which plain ascent polishes the solution.  Designed for the
    small dense matrices of beam design (L <= 16 or so).

    ``M`` is a stack of shape (B, L, L); the result is a tuple of B
    :class:`SdrSolution` records.  One ascent runs over all members at once;
    each member keeps its own barrier stage, sweep count and stop test, so
    its solution is bit for bit the one it gets in a stack of one.  Every
    solution carries a dual certificate (``bound``).

    Rank-one inputs short-circuit to the exact analytic optimum (the
    co-phased rank-one W).  Raises :class:`SdrConvergenceError`, carrying
    every member's best iterate, if the sweep budget is exhausted before
    some member's objective settles, and ``ValueError`` unless ``max_sweeps`` is at least 1.
    """
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
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
                M[ascend], trace[ascend], _SDR_TOL, max_sweeps
            )
            rank[ascend] = _numerical_ranks(W[ascend])
            failed[ascend] = (sweeps[ascend] >= max_sweeps) & (improvement[ascend] >= 10.0 * stage_tol)

    bound = _dual_bounds(M, W, objective)
    solutions = _Members(
        SdrSolution(W[b], float(objective[b]), int(sweeps[b]), abs(float(improvement[b])), int(rank[b]), float(bound[b]))
        for b in range(B)
    )
    if failed.any():
        b = int(np.argmax(failed))
        raise SdrConvergenceError(
            f"relaxation {b} of {B} did not settle within {max_sweeps} sweeps (last improvement {improvement[b]:.3e})",
            solutions,
            tuple(np.flatnonzero(failed).tolist()),
        )
    return solutions


def _member_seeds(seed: Sequence[int], members: int) -> tuple[int, ...]:
    if np.ndim(seed) != 1 or len(seed) != members:
        raise ValueError("a stack of matrices takes one seed per member")
    return tuple(seed)


def gaussian_randomization(
    solution: Sequence[SdrSolution],
    M: np.ndarray,
    n_rand: int,
    phase_spec: PhaseSpec,
    seed: Sequence[int],
) -> tuple[BeamWeights, ...]:
    """Round each relaxation solution of a stack to a feasible beam by randomized trials.

    Draws ``n_rand`` vectors from the zero-mean complex Gaussian with
    covariance W, projects each onto the feasible set (unit magnitudes,
    quantized phases in discrete mode), and keeps the best quadratic form.
    In continuous mode a numerically rank-one W needs no randomization:
    the co-phased dominant eigenvector is already optimal.  In discrete
    mode each distinct beam among the draws is scored once, at its first
    draw; the result is bit for bit the first best of all draws.
    Deterministic for a given seed (NumPy PCG64 stream).

    ``M`` is a stack of shape (B, L, L), ``solution`` a sequence of B
    solutions (a :func:`solve_sdr` result) and ``seed`` one seed per
    member; the result is a tuple of B beams.  The stack shares one
    ``eigh`` and one factor product; each member keeps its own stream and
    its own (L, n_rand) draws, so its beam is bit for bit the one it gets
    in a stack of one.
    """
    if n_rand < 1:
        raise ValueError("n_rand must be >= 1")
    M = _hermitian_stack(M)
    if isinstance(solution, SdrSolution):
        raise ValueError("solution must be a sequence of SdrSolution records, one per member, not one record")
    W = np.stack([s.W for s in solution])
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
    xi = np.empty((n_rand, L), dtype=complex)
    for b in range(B):
        if not phase_spec.is_discrete and (L == 1 or vals[b, -2] <= 1e-9 * max(vals[b, -1], 1e-300)):
            beams[b] = _cophase(vecs[b, :, -1])
            continue
        # Unit-variance circular complex normals: the real and imaginary
        # parts are two consecutive standard_normal blocks, scaled by sqrt(1/2).
        rng = np.random.default_rng(seeds[b])
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
    return BeamWeights._rows(beams, phase_spec)


class CoordinateDescentResult(NamedTuple):
    """Polished beam plus the per-sweep objective trace (first entry = input)."""

    weights: BeamWeights
    objectives: np.ndarray


def _quadratic_forms(M: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w^H M w over the leading axes of w (..., L) and M (..., L, L): the products of w.conj() @ M @ w on one beam."""
    return np.real((w.conj()[..., None, :] @ M @ w[..., :, None])[..., 0, 0])


def coordinate_descent(
    M: np.ndarray,
    init: Sequence[BeamWeights],
    phase_spec: PhaseSpec,
) -> tuple[CoordinateDescentResult, ...]:
    """Cyclic phase updates; each step sets one phase to its conditional optimum.

    Element i is re-phased to align with the field contribution of the
    others, quantized in discrete mode; the objective is therefore
    nondecreasing step by step.  Stops when a full sweep improves the
    objective by less than 1e-12 * trace(M).  A vanishing off-diagonal
    contribution leaves that element untouched for the step.

    ``M`` is a stack of shape (B, L, L) with one init per member; the
    result is a tuple of B results.  Each step re-phases element i of every
    member still running; each member keeps its own stop test and sweep
    cap, so its result is bit for bit the one it gets in a stack of one.
    """
    M = _hermitian_stack(M)
    if isinstance(init, BeamWeights):
        raise ValueError("init must be a sequence of BeamWeights, one per member, not one beam")
    inits = tuple(init)
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
    thresholds = 1e-12 * np.maximum(np.real(np.trace(M, axis1=1, axis2=2)), 1e-300)
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
    return _Members(
        CoordinateDescentResult(beam, objectives[: sweeps[b] + 1, b].copy()) for b, beam in enumerate(beams)
    )


def _canonical_global_phase(W: np.ndarray, phase_spec: PhaseSpec) -> np.ndarray:
    # A beam is physically invariant to a global phase; pin element 0 of
    # every row of W (B, L) to phase zero so identical designs compare equal.
    # In discrete mode the rotation subtracts lattice indices and reads the
    # phasor table, so all 2^b rotations of a lattice beam give one byte pattern.
    if not phase_spec.is_discrete:
        return W * np.exp(-1j * np.angle(W[:, :1]))
    index = _lattice_index(_phase(W), phase_spec.bits)
    return _lattice_phasors(phase_spec.bits, W.shape[1])[(index - index[:, :1]) & ((1 << phase_spec.bits) - 1)]


def _rank_one_lattice_beams(M: np.ndarray, bits: int) -> np.ndarray:
    """Best b-bit beam of every rank-one member of a stack (B, L, L), in canonical form, with no draws.

    For M = v v^H the gain depends on a rotation psi of the beam
    quantize(arg v - psi) only through the breakpoints
    mod(arg v_l - step/2, step) that psi crosses, so the midpoints between
    neighbouring breakpoints give L candidates, one of them optimal
    (Kyrillidis & Karystinos, IEEE Trans. Commun. 2014).  The candidates
    are scored in lexicographic order of their canonical index vectors, and
    the first maximum wins.  Returns the (B, L) weights.
    """
    B, L, _ = M.shape
    step = _TWO_PI / (1 << bits)
    theta = _phase(_max_eigenpairs(M)[1])
    breaks = np.sort(np.mod(theta - 0.5 * step, step), axis=1)
    mids = 0.5 * (breaks + np.concatenate((breaks[:, 1:], breaks[:, :1] + step), axis=1))
    # (B, candidate, L); the index mask wraps the negative phases.
    index = _lattice_index(theta[:, None, :] - mids[:, :, None], bits)
    index = (index - index[:, :, :1]) & ((1 << bits) - 1)
    order = np.lexsort(index.transpose(2, 0, 1)[::-1], axis=-1)
    feas = _lattice_phasors(bits, L)[np.take_along_axis(index, order[:, :, None], axis=1)]
    return feas[np.arange(B), np.argmax(_quadratic_forms(M[:, None], feas), axis=1)]


def design_beam(
    M: np.ndarray,
    phase_spec: PhaseSpec,
    strategy: str = "sdr_grp_cd",
    *,
    seed: Sequence[int],
    n_rand: int = 1000,
) -> tuple[BeamWeights, ...]:
    """Design one beam for each coherence matrix of a stack under the given phase constraint.

    Strategies:

    * ``eigen``: magnitude-normalize (and quantize) the dominant
      eigenvector; cheapest, no randomness.
    * ``sdr_grp_cd``: semidefinite relaxation, Gaussian randomization,
      then a coordinate-descent polish.

    ``M`` is a stack of shape (B, L, L) and ``seed`` holds one seed per
    member.  Every stage runs once over the whole stack: one
    :func:`solve_sdr`, one :func:`gaussian_randomization` (each member on
    its own seed) and one :func:`coordinate_descent` call.  In discrete
    mode a member that took the relaxation's rank-one shortcut skips the
    randomization: its exact lattice beam (see
    :func:`_rank_one_lattice_beams`) goes to the polish, whatever its
    seed and ``n_rand``.  The result is a tuple of B beams, each
    deterministic in (member, phase_spec, strategy, seed), equal to the
    beam of a stack of one, and normalized to a zero phase on element 0
    (in discrete mode by lattice index, so every global rotation of a
    lattice beam gives the same bytes).

    A relaxation that hits :func:`solve_sdr`'s sweep cap does not abort the
    design: randomization starts from the best iterate the
    :class:`SdrConvergenceError` carries, and a ``UserWarning`` names the
    member and the certified gap (bound minus objective) of that iterate.
    """
    if strategy not in ("eigen", "sdr_grp_cd"):
        raise ValueError(f"unknown strategy '{strategy}'")
    stack = _hermitian_stack(M)
    seeds = _member_seeds(seed, len(stack))
    if strategy == "eigen":
        _, V = _max_eigenpairs(stack)
        beams = [BeamWeights.from_phases(np.where(np.abs(v) > 0.0, np.angle(v), 0.0), phase_spec) for v in V]
    else:
        try:
            relaxed = solve_sdr(stack)
        except SdrConvergenceError as exc:  # a member at the sweep cap goes on from its best iterate
            relaxed = exc.solution
            for b in exc.members:
                best = relaxed[b]
                warnings.warn(
                    f"relaxation {b} of {len(stack)} did not settle within {best.iterations} sweeps; "
                    f"designing from its best iterate (certified gap {best.bound - best.objective:.3e})",
                    stacklevel=2,
                )
        exact = np.array([phase_spec.is_discrete and s.rank == 1 and s.iterations == 0 for s in relaxed])
        drawn = np.flatnonzero(~exact)
        W = np.empty(stack.shape[:2], dtype=complex)
        if exact.any():
            W[exact] = _rank_one_lattice_beams(stack[exact], phase_spec.bits)
        if drawn.size:
            rounded = gaussian_randomization(
                [relaxed[b] for b in drawn], stack[drawn], n_rand, phase_spec, [seeds[b] for b in drawn]
            )
            W[drawn] = [beam.weights for beam in rounded]
        beams = [result.weights for result in coordinate_descent(stack, BeamWeights._rows(W, phase_spec), phase_spec)]
    W = np.stack([beam.weights for beam in beams])
    return BeamWeights._rows(_canonical_global_phase(W, phase_spec), phase_spec)
