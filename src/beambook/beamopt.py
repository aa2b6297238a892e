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
round its solution to a feasible beam (:func:`gaussian_randomization`),
then run cyclic coordinate descent on the phases
(:func:`coordinate_descent`).  Most relaxations come out rank one: a
rank-one ``M`` in closed form, any other ``M`` when a phase ascent's
w w^H carries a dual certificate, which spares the barrier ascent.  A
rank-one solution W = v v^H is rounded with no draws: co-phased in
continuous mode, and in discrete mode the best of the L lattice rotations
of v.  Only a higher-rank W draws from its covariance.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import NamedTuple, Sequence

import numpy as np

from ._frozen import Frozen, check_count, is_integer

_TWO_PI = 2.0 * math.pi


class PhaseSpec(Frozen):
    """Phase-shifter resolution: ``bits``-bit phase shifters, or continuous ones when ``bits`` is None."""

    def __init__(self, bits: int | None = None):
        if bits is not None and not (is_integer(bits) and 1 <= bits <= 16):
            raise ValueError(f"discrete phase bits must be an integer in 1..16, got {bits!r}")
        self._set(bits=None if bits is None else int(bits))

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
def _lattice_phasors(bits: int, L: int) -> np.ndarray:
    """Read-only table of the 2^b feasible entries exp(1j * k * 2pi/2^b) / sqrt(L).

    Indexed by :func:`_lattice_index`, it snaps phases to the lattice:
    every rounding of a phase to the lattice goes through this table.
    """
    step = _TWO_PI / (1 << bits)
    table = np.exp(1j * (np.arange(1 << bits) * step)) / math.sqrt(L)
    table.setflags(write=False)
    return table


def _feasible(phases: np.ndarray, phase_spec: PhaseSpec, L: int) -> np.ndarray:
    """The feasible entries exp(1j * phases) / sqrt(L); in discrete mode each phase, in [0, 2pi], snaps to its nearest lattice point, ties to the lower."""
    if phase_spec.is_discrete:
        return _lattice_phasors(phase_spec.bits, L)[_lattice_index(phases, phase_spec.bits)]
    return np.exp(1j * phases) / math.sqrt(L)


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
        if np.abs(np.exp(1j * ph) - _feasible(ph, phase_spec, 1)).max() > 1e-9:
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
        self._set(**vars(self._rows(w[None], phase_spec)[0]))

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

    @property
    def num_elements(self) -> int:
        return self.weights.size

    def gain(self, M: np.ndarray) -> float:
        """Quadratic form w^H M w (real for Hermitian M): the bits of this beam's row of :func:`_quadratic_forms`."""
        return float(_quadratic_forms(M, self.weights))

    @classmethod
    def from_phases(cls, phases: np.ndarray, phase_spec: PhaseSpec) -> "BeamWeights":
        """exp(1j * phases) / sqrt(L); in discrete mode each phase snaps to its nearest lattice point, ties to the lower."""
        phases = np.asarray(phases, dtype=float)
        if not np.isfinite(phases).all():
            raise ValueError("phases must be finite")
        if phase_spec.is_discrete:
            phases = np.mod(phases, _TWO_PI)
        return cls(_feasible(phases, phase_spec, phases.size), phase_spec)


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
    """The per-member solutions of a stacked :func:`solve_sdr` call, in stack order: a tuple in every respect.

    The benchmark's tracer (``bench/tracing.py``) reads ``iterations``, the
    sweeps of the slowest relaxation, off the return value.
    """

    __slots__ = ()

    @property
    def iterations(self) -> int:
        return max((solution.iterations for solution in self), default=0)


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


def _max_eigenpairs(M: np.ndarray, eig=None) -> tuple[np.ndarray, np.ndarray]:
    """Largest eigenvalue and unit eigenvector of every member of a Hermitian stack (B, L, L), from one ``eigh``.

    Returns the (B,) eigenvalues and (B, L) eigenvectors, from ``eig`` (the
    caller's ``eigh(M)``) if given.  Each eigenvector's first entry of
    non-negligible magnitude is rotated to be real positive, which fixes the
    arbitrary global phase; a zero member gets 0 and the first unit vector.
    """
    vals, vecs = np.linalg.eigh(M) if eig is None else eig
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

    Each sweep sets row i of every active member to t * B c, where B is W
    with row and column i zeroed and c is column i of M; t puts the Schur
    complement at the barrier's optimum, on its boundary once the barrier
    is zero, and is 0 where c^H B c <= 0.  A member takes its next barrier
    stage when a sweep gains less than its stage tolerance, and stops after
    the last stage or at the sweep cap; no member's arithmetic involves
    another's.  Returns W, objective, sweeps, last improvement and stage
    tolerance per member.
    """
    B, L, _ = M.shape
    gamma = 1.0 / L
    W = np.broadcast_to(np.eye(L, dtype=complex) / L, (B, L, L)).copy()
    obj = _objectives(M, W)
    sweeps = np.zeros(B, dtype=int)
    stage = np.zeros(B, dtype=int)
    improvement = np.full(B, math.inf)
    stage_tol = max(tol, 1e-14) * np.maximum(trace, 1.0) * 0.1
    active = np.flatnonzero(sweeps < max_sweeps)
    Ma, Wa = M[active], W[active]
    while active.size:
        sigma = _BARRIER_SCHEDULE[stage[active]] * trace[active]
        sigma_gamma = sigma * gamma
        barrier = sigma > 0.0
        for i in range(L):
            Wa[:, i, :] = 0.0
            Wa[:, :, i] = 0.0
            c = Ma[:, :, i]
            u = (Wa @ c[:, :, None])[:, :, 0]
            s = np.real((c.conj()[:, None, :] @ u[:, :, None])[:, 0, 0])
            positive = s > 0.0
            s = np.where(positive, s, 1.0)
            t = np.where(
                barrier,
                (-sigma_gamma + np.sqrt(sigma_gamma**2 + 4.0 * s * gamma)) / (2.0 * s),
                np.sqrt(gamma / s),
            )
            y = np.where(positive, t, 0.0)[:, None] * u
            Wa[:, :, i] = y
            Wa[:, i, :] = y.conj()
            Wa[:, i, i] = gamma
        new_obj = _objectives(Ma, Wa)
        improvement[active] = new_obj - obj[active]
        obj[active] = new_obj
        sweeps[active] += 1
        stage[active] += improvement[active] < stage_tol[active]
        done = (stage[active] == _BARRIER_SCHEDULE.size) | (sweeps[active] >= max_sweeps)
        if done.any():
            W[active[done]] = Wa[done]
            active, Ma, Wa = active[~done], Ma[~done], Wa[~done]
    return W, obj, sweeps, improvement, stage_tol


def solve_sdr(M: np.ndarray, max_sweeps: int = 5000) -> tuple[SdrSolution, ...]:
    """Maximize tr(M W) over PSD W with every diagonal entry fixed to 1/L.

    Where no route below applies, solved by a row-by-row block coordinate
    ascent with a logarithmic barrier on the Schur complement, driven to
    zero on a fixed schedule and then dropped for a plain ascent.  Designed
    for the small dense matrices of beam design (L <= 16 or so).

    ``M`` is a stack of shape (B, L, L); the result is a tuple of B
    :class:`SdrSolution` records.  Each ascent runs over all its members at
    once; each member keeps its own stop test (and barrier stage and sweep
    count), so its solution is bit for bit the one it gets in a stack of one.  Every
    solution carries a dual certificate (``bound``).

    Two routes skip the ascent and report ``rank`` 1 and ``iterations`` 0.
    A rank-one M, every 1x1 M included, short-circuits to the exact
    analytic optimum, the co-phased rank-one W.  Any other M first runs the
    generalized power method w <- phase(M w) from the co-phased dominant
    eigenvector of M, then, where that is not certified, the rank-1 mixing
    method (Wang, Chang & Kolter, arXiv:1706.00476), continuous-phase
    :func:`coordinate_descent`, from the same start.  A W = w w^H whose dual
    bound exceeds its objective by at most 1e-11 max(trace, 1) is certified
    as the optimum.  Only an uncertified member ascends, and its ``iterations``
    counts the barrier sweeps.  A member still unsettled at the sweep cap
    keeps its best iterate, and a ``UserWarning`` names it and its certified
    gap (bound minus objective).  Raises ``ValueError`` unless
    ``max_sweeps`` is an integer >= 1.
    """
    check_count("max_sweeps", max_sweeps)
    M = _hermitian_stack(M)
    B, L, _ = M.shape
    trace = np.real(np.trace(M, axis1=1, axis2=2))

    vals, vecs = np.linalg.eigh(M)
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
    # The co-phased dominant eigenvector w gives a rank-one M, every 1x1 M
    # included, its optimum W = w w^H (Cauchy-Schwarz over the rows of any
    # feasible factor); any other M keeps the first certified w w^H of two ascents from w.
    start = _cophase(_max_eigenpairs(M, (vals, vecs))[1])
    mixed = live & (vals[:, :-1].max(axis=1, initial=0.0) > 1e-12 * vals[:, -1])
    tol = 1e-11 * np.maximum(trace, 1.0)
    bound, pending = np.zeros(B), live
    for power in (True, False):
        if not pending.any():
            break
        w = start[pending]
        w[mixed[pending]] = _coordinate_descent(M[pending & mixed], w[mixed[pending]], PhaseSpec(), power=power)[0]
        W[pending] = w[:, :, None] * w[:, None, :].conj()
        objective[pending] = _objectives(M[pending], W[pending])
        bound[pending] = _dual_bounds(M[pending], W[pending], objective[pending])
        pending = mixed & (bound - objective > tol)
    rank[live & ~pending] = 1
    if pending.any():
        W[pending], objective[pending], sweeps[pending], improvement[pending], stage_tol = _ascend(
            M[pending], trace[pending], _SDR_TOL, max_sweeps
        )
        bound[pending] = _dual_bounds(M[pending], W[pending], objective[pending])
        rank_vals = np.linalg.eigvalsh(W[pending])
        rank[pending] = np.sum(rank_vals > 1e-9 * np.maximum(rank_vals[:, -1:], 0.0), axis=1)
        failed[pending] = (sweeps[pending] >= max_sweeps) & (improvement[pending] >= 10.0 * stage_tol)

    for b in np.flatnonzero(failed):
        warnings.warn(
            f"relaxation {b} of {B} did not settle within {max_sweeps} sweeps; "
            f"keeping its best iterate (certified gap {bound[b] - objective[b]:.3e})",
            stacklevel=2,
        )
    return _Members(
        SdrSolution(W[b], float(objective[b]), int(sweeps[b]), abs(float(improvement[b])), int(rank[b]), float(bound[b]))
        for b in range(B)
    )


def _child_seed(*key: int) -> int:
    """The seed of a key tuple, from one SeedSequence hash: stable, and independent of call order."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def gaussian_randomization(
    solution: Sequence[SdrSolution],
    M: np.ndarray,
    n_rand: int,
    phase_spec: PhaseSpec,
    seed: Sequence[int | tuple[int, ...]],
    drew: list | None = None,
) -> np.ndarray:
    """Round each relaxation solution of a stack to a feasible beam.

    A numerically rank-one W (second eigenvalue at most 1e-9 of the first;
    a 1x1 W has none) takes the exact route, whatever its seed and
    ``n_rand``: random draws could only rotate its principal eigenvector v,
    read with no ``eigh`` as v = W[:, 0] / sqrt(W_00) where W is within
    1e-12 tr W of v v^H (then W passes that test, by Weyl's inequality).
    In continuous mode the beam is the co-phased v; in discrete mode it is
    the best of the L lattice rotations of v, scored against M
    (:func:`_rank_one_lattice_beams`).
    Every other W draws ``n_rand`` vectors from the zero-mean complex
    Gaussian with covariance W, projects each onto the feasible set (unit
    magnitudes, quantized phases in discrete mode), and keeps the first
    draw of largest quadratic form.  Deterministic for a given seed (NumPy
    PCG64 stream).

    ``M`` is a stack of shape (B, L, L), ``solution`` a sequence of B
    solutions (a :func:`solve_sdr` result) and ``seed`` one seed per
    member, an integer >= 0 or a key tuple of them that only a drawing member
    hashes (``_child_seed``); the result is a (B, L) array, one beam per row.
    Members not read off their column share one ``eigh`` and factor product,
    exact members one exact-route call; a drawing member keeps its own
    stream and (L, n_rand) draws, so every beam is the bits of a stack of one.
    A list ``drew`` gets one bool per member, in stack order: True if it drew.
    """
    check_count("n_rand", n_rand)
    M = _hermitian_stack(M)
    if isinstance(solution, SdrSolution):
        raise ValueError("solution must be a sequence of SdrSolution records, one per member, not one record")
    W = np.stack([s.W for s in solution])
    if W.shape != M.shape:
        raise ValueError("solutions and matrices must have the same stack shape")
    if not isinstance(seed, (Sequence, np.ndarray)) or len(seed) != len(M):
        raise ValueError("a stack of matrices takes one seed per member")
    for key in seed:
        for part in key if isinstance(key, tuple) and key else (key,):
            check_count("seed", part, 0)
    B, L, _ = M.shape
    d = np.real(W[:, 0, 0])
    v = W[:, :, 0] / np.sqrt(np.where(d > 0.0, d, 1.0))[:, None]
    residual = np.linalg.norm(W - v[:, :, None] * v[:, None, :].conj(), axis=(1, 2))
    exact = (d > 0.0) & (residual <= 1e-12 * np.real(np.trace(W, axis1=1, axis2=2)))
    factors, rest = np.empty_like(W), np.flatnonzero(~exact)
    if rest.size:
        vals, vecs = np.linalg.eigh(W[rest])
        factors[rest], v[rest] = vecs * np.sqrt(np.clip(vals, 0.0, None))[:, None, :], vecs[:, :, -1]
        exact[rest] = vals[:, :-1].max(axis=1, initial=0.0) <= 1e-9 * np.maximum(vals[:, -1], 1e-300)
    beams = np.empty((B, L), dtype=complex)
    if drew is not None:
        drew.extend((~exact).tolist())
    if exact.any():
        v = v[exact]
        beams[exact] = _rank_one_lattice_beams(v, M[exact], phase_spec.bits) if phase_spec.is_discrete else _cophase(v)
    xi = np.empty((n_rand, L), dtype=complex)
    for b in np.flatnonzero(~exact):
        # Unit-variance circular complex normals: the real and imaginary
        # parts are two consecutive standard_normal blocks, scaled by sqrt(1/2).
        rng = np.random.default_rng(_child_seed(*seed[b]) if isinstance(seed[b], tuple) else seed[b])
        xi.real = rng.standard_normal((n_rand, L))
        xi.imag = rng.standard_normal((n_rand, L))
        xi *= math.sqrt(0.5)
        phases = _phase(factors[b] @ xi.T)  # (L, n_rand)
        # The beam is the first draw of largest gain.  Keep the one gain
        # formula over the (L, n_rand) array of feasible draws: lattice
        # rotations of one beam tie up to rounding, and another summation
        # order breaks those ties differently.
        feas = _feasible(phases, phase_spec, L)
        gains = np.real(np.einsum("ln,lk,kn->n", feas.conj(), M[b], feas))
        beams[b] = feas[:, int(np.argmax(gains))]
    return beams


class CoordinateDescentResult(NamedTuple):
    """Polished beams (B, L), the per-sweep objectives (S + 1, B) and each member's sweeps (B,).

    Row 0 of ``objectives`` holds the inputs' and row s the objectives after
    sweep s, a column per member; a member that stopped holds its final
    value, so column b's first ``sweeps[b] + 1`` entries are its own trace.
    """

    weights: np.ndarray
    objectives: np.ndarray
    sweeps: np.ndarray


def _quadratic_forms(M: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w^H M w over the leading axes of w (..., L) and M (..., L, L): the products of w.conj() @ M @ w on one beam."""
    return np.real((w.conj()[..., None, :] @ M @ w[..., :, None])[..., 0, 0])


def _coordinate_descent(M: np.ndarray, W: np.ndarray, phase_spec: PhaseSpec, power: bool = False):
    """:func:`coordinate_descent`'s sweeps on a Hermitian stack M (B, L, L) from feasible beams W (B, L), in place.

    With ``power`` a sweep is one generalized power step w <- phase(M w) instead, under the same stop
    test and undo.  Returns W, the per-sweep objectives (a column per member, held once it stops) and
    each member's sweeps.
    """
    B, L, _ = M.shape
    thresholds = 1e-12 * np.maximum(np.real(np.trace(M, axis1=1, axis2=2)), 1e-300)
    max_sweeps = 10 * L * (1 << phase_spec.bits) if phase_spec.is_discrete else 1000

    obj = _quadratic_forms(M, W)
    rows = [obj.copy()]
    sweeps = np.zeros(B, dtype=int)
    active = np.arange(B)
    if phase_spec.is_discrete and not power:
        # A member whose every field c_i snaps to w_i bit for bit, its phase over 2 e_i / |c_i| + 1e-12 from a decision
        # boundary (e_i bounds two summation orders' difference), moves no element: it reports that sweep unrun.
        c = (M @ W[:, :, None])[:, :, 0] - np.diagonal(M, axis1=1, axis2=2) * W
        e = 8 * (L + 1) * 2.0**-53 * (np.abs(M) @ np.abs(W)[:, :, None])[:, :, 0]  # unit roundoff 2^-53
        p, r, step = _phase(c), np.abs(c), _TWO_PI / (1 << phase_spec.bits)
        clear = step * np.abs(p / step - np.floor(p / step) - 0.5) * r > 2.0 * e + 1e-12 * r
        settled = clear.all(axis=1) & (_feasible(p, phase_spec, L).view(np.int64) == W.view(np.int64)).all(axis=1)
        sweeps[settled], active = 1, np.flatnonzero(~settled)
        rows += [obj.copy()] * bool(B and settled.all())
    Ma, Wa = M[active], W[active]
    for _ in range(max_sweeps):
        if not active.size:
            break
        before = Wa.copy()
        if power:  # a monotone ascent for PSD M (Journee, Nesterov, Richtarik & Sepulchre, JMLR 2010)
            Wa = _feasible(_phase((Ma @ Wa[:, :, None])[:, :, 0]), phase_spec, L)
        else:
            for i in range(L):
                c = (Ma[:, i, None, :] @ Wa[:, :, None])[:, 0, 0] - Ma[:, i, i] * Wa[:, i]
                moved = c != 0.0
                Wa[moved, i] = _feasible(_phase(c[moved]), phase_spec, L)
        new_obj = _quadratic_forms(Ma, Wa)
        # A sweep that rounding left below its input is undone, and that member stops.
        lowered = new_obj < obj[active]
        Wa[lowered], new_obj[lowered] = before[lowered], obj[active[lowered]]
        done = new_obj - obj[active] < thresholds[active]
        obj[active] = new_obj
        sweeps[active] += 1
        rows.append(obj.copy())
        if done.any():
            W[active[done]] = Wa[done]
            active, Ma, Wa = active[~done], Ma[~done], Wa[~done]
    W[active] = Wa
    return W, np.array(rows), sweeps


def coordinate_descent(M: np.ndarray, init: np.ndarray, phase_spec: PhaseSpec) -> CoordinateDescentResult:
    """Cyclic phase updates; each step sets one phase to its conditional optimum.

    Element i is re-phased to align with the field contribution of the
    others, quantized in discrete mode; the objective is therefore
    nondecreasing, and a sweep that rounding leaves below its start is
    undone.  Stops when a full sweep improves the objective by less than
    1e-12 * trace(M).  A vanishing off-diagonal contribution leaves that
    element untouched for the step.  A discrete member whose every element
    snaps to itself, beyond rounding, reports that sweep without running it.

    ``M`` is a stack of shape (B, L, L) and ``init`` a (B, L) array of
    feasible beams, one per member.  Each step re-phases element i of every
    member still running; each member keeps its own stop test and sweep
    cap, so its result is bit for bit the one it gets in a stack of one.
    """
    M = _hermitian_stack(M)
    W = np.array(init, dtype=complex)
    if W.shape != M.shape[:2]:
        raise ValueError(f"init must be a (B, L) array of one beam per member of M {M.shape}, got shape {W.shape}")
    _check_beams(W, phase_spec)
    return CoordinateDescentResult(*_coordinate_descent(M, W, phase_spec))


def _canonical_global_phase(W: np.ndarray, phase_spec: PhaseSpec) -> np.ndarray:
    # A beam is physically invariant to a global phase; pin element 0 of
    # every row of W (B, L) to phase zero so identical designs compare equal.
    # In discrete mode the rotation subtracts lattice indices and reads the
    # phasor table, so all 2^b rotations of a lattice beam give one byte pattern.
    if not phase_spec.is_discrete:
        return W * np.exp(-1j * np.angle(W[:, :1]))
    index = _lattice_index(_phase(W), phase_spec.bits)
    return _lattice_phasors(phase_spec.bits, W.shape[1])[(index - index[:, :1]) & ((1 << phase_spec.bits) - 1)]


def _rank_one_lattice_beams(v: np.ndarray, M: np.ndarray, bits: int) -> np.ndarray:
    """Best b-bit rotation of each vector of v (B, L) for its member of M (B, L, L), in canonical form, with no draws.

    For M = v v^H the gain depends on a rotation psi of the beam
    quantize(arg v - psi) only through the breakpoints
    mod(arg v_l - step/2, step) that psi crosses, so the midpoints between
    neighbouring breakpoints give L candidates, one of them optimal
    (Kyrillidis & Karystinos, IEEE Trans. Commun. 2014).  The candidates
    are scored against M in lexicographic order of their canonical index
    vectors, and the first maximum wins.  Returns the (B, L) weights.
    """
    B, L, _ = M.shape
    step = _TWO_PI / (1 << bits)
    theta = _phase(v)
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
    *,
    seed: Sequence[int | tuple[int, ...]],
    n_rand: int = 1000,
    drew: list | None = None,
) -> tuple[BeamWeights, ...]:
    """Design one beam for each coherence matrix of a stack: relax, randomize, then polish.

    ``M`` is a stack of shape (B, L, L) and ``seed`` holds one seed per
    member, an integer >= 0 or a key tuple of them hashed only if the
    member draws.  Every stage runs once over the whole stack: one
    :func:`solve_sdr`, one :func:`gaussian_randomization` (each member on
    its own seed) and one :func:`coordinate_descent` call.  A member whose
    relaxed W is rank one (a rank-one M, a certified relaxation, or an
    ascent that ends at rank one) takes the randomization's exact route,
    whatever its seed and ``n_rand``; only a higher-rank W draws.  A
    relaxation that hits the sweep cap goes on from its best iterate, with
    :func:`solve_sdr`'s warning.  The result is a tuple of B beams, each
    deterministic in (member, phase_spec, seed), equal to the beam of a
    stack of one, and normalized to a zero phase on element 0 (in discrete
    mode by lattice index, so every global rotation of a lattice beam gives
    the same bytes).  ``drew`` goes to :func:`gaussian_randomization`: a
    member that did not draw gets the same beam on any seed.
    """
    rounded = gaussian_randomization(solve_sdr(M), M, n_rand, phase_spec, seed, drew)
    polished = coordinate_descent(M, rounded, phase_spec).weights
    return BeamWeights._rows(_canonical_global_phase(polished, phase_spec), phase_spec)


def eigen_beams(M: np.ndarray, phase_spec: PhaseSpec) -> tuple[BeamWeights, ...]:
    """The co-phased dominant eigenvector of each member of a stack (B, L, L), snapped to the lattice in discrete mode.

    The cheapest beam for a matrix, with no randomness: one ``eigh`` and
    one array expression for the whole stack.  A zero entry gets phase 0,
    and every beam is normalized as :func:`design_beam`'s are.
    """
    V = _max_eigenpairs(_hermitian_stack(M))[1]
    if phase_spec.is_discrete:
        W = _feasible(np.where(np.abs(V) > 0.0, _phase(V), 0.0), phase_spec, V.shape[-1])  # a signed zero's angle can be pi
    else:
        W = _cophase(V)
    return BeamWeights._rows(_canonical_global_phase(W, phase_spec), phase_spec)
