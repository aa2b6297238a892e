"""Codebook synthesis: greedy selection, K-Means refinement, reference designs.

A codebook is an ordered set of beams, each bound to one antenna array of
the terminal.  Synthesis maximizes a spherical-coverage utility of the
composite (max-over-beams) pattern:

* :func:`greedy_codebook` grows the codebook one beam at a time from a
  candidate pool, picking whichever candidate improves the utility most;
* :func:`kmeans_codebook` alternates assigning directions to their best
  beam and re-optimizing each beam for its assigned cluster;
* :func:`benchmark_codebook` and :func:`codebook_802_15_3c` build the
  closed-form progressive-phase references used for comparison.

All synthesis is deterministic given the configuration seed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import NamedTuple, Sequence, Union

import numpy as np

from ._frozen import Frozen
from .beamopt import BeamWeights, PhaseSpec, design_beam, quantize_phase
from .efield import (CoverageRegion, Direction, DirectionSet, SyntheticUlaSpec, field_coherence, fibonacci_directions,
                     snap_to_grid, top_eigenvalues, write_json)
from .metrics import _as_grid_map, db_from_linear, field_gains, resolve_directions, weighted_percentiles

_TWO_PI = 2.0 * math.pi


class CodebookEntry(NamedTuple):
    array_id: str
    weights: BeamWeights


class Codebook(Frozen):
    """Ordered beams, each tagged with the array it drives."""

    def __init__(self, entries: Sequence[CodebookEntry]):
        self.__dict__.update(entries=tuple(entries))

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def phase_bits(self) -> int | None:
        specs = {e.weights.phase_spec for e in self.entries}
        if len(specs) != 1:
            raise ValueError("codebook mixes phase constraints")
        spec = next(iter(specs))
        return spec.bits


def codebook_to_dict(codebook: Codebook) -> dict:
    return {
        "phase_bits": codebook.phase_bits,
        "entries": [
            {
                "array": e.array_id,
                "weights": [[float(w.real), float(w.imag)] for w in e.weights.weights],
            }
            for e in codebook.entries
        ],
    }


def codebook_from_dict(data) -> Codebook:
    """Inverse of :func:`codebook_to_dict`; any schema violation is a ValueError naming it."""
    raw = data.get("entries") if isinstance(data, dict) else None
    if not isinstance(raw, list) or not raw or "phase_bits" not in data:
        raise ValueError("a codebook is a JSON object with 'phase_bits' and a nonempty 'entries' list")
    bits = data["phase_bits"]
    if bits is not None and (isinstance(bits, bool) or not isinstance(bits, int)):
        raise ValueError(f"'phase_bits' must be an integer or null, got {bits!r}")
    spec = PhaseSpec.continuous() if bits is None else PhaseSpec.discrete(bits)
    entries = []
    for i, e in enumerate(raw):
        try:
            w = np.array([complex(re, im) for re, im in e["weights"]])
            entries.append(CodebookEntry(str(e["array"]), BeamWeights(w, spec)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"entry {i}: {exc!r}") from None
    return Codebook(tuple(entries))


def save_codebook(codebook: Codebook, path) -> None:
    write_json(codebook_to_dict(codebook), path)


def load_codebook(path) -> Codebook:
    """Read a codebook JSON file; OSError if unreadable, ValueError if malformed."""
    return codebook_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def codebook_summary(codebook: Codebook, resolved, gains: np.ndarray) -> str:
    """Per beam: array, aim (argmax of its ``entry_gains_linear`` row on its ``resolved`` directions), peak gain."""
    lines = []
    for k, (entry, g) in enumerate(zip(codebook.entries, gains)):
        ds, i = resolved[entry.array_id][0], int(np.argmax(g))
        lines.append(
            f"beam {k}: array={entry.array_id} aim=(theta={ds.theta[i]:.1f}, phi={ds.phi[i]:.1f}) "
            f"peak={db_from_linear(float(g[i])):.2f} dB"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Selection criteria
# ---------------------------------------------------------------------------


class MeanGainCriterion(Frozen):
    """Mean composite gain (linear average, reported in dB) over a region."""

    def __init__(self, region: CoverageRegion | None = None):
        self.__dict__.update(region=region)

    def scores(self, gains_linear: np.ndarray, dirs: DirectionSet) -> np.ndarray:
        """Linear weighted mean over the region of each (..., N) gain row."""
        w = dirs.weights
        if self.region is not None:
            mask = self.region.contains(dirs.theta, dirs.phi)
            total = float(w[mask].sum())
            if total <= 0.0:
                raise ValueError("region contains no sample directions of positive weight")
            w = np.where(mask, w, 0.0) / total
        return gains_linear @ w

    def value(self, gains_linear: np.ndarray, dirs: DirectionSet) -> float:
        return db_from_linear(float(self.scores(gains_linear, dirs)))


class PercentileMixCriterion(Frozen):
    """Weighted average of gain percentiles (dB), e.g. [(50, 1.0)] for the median."""

    def __init__(self, points: Sequence[tuple[float, float]]):
        pts = tuple((float(x), float(b)) for x, b in points)
        if not pts:
            raise ValueError("at least one percentile point required")
        if any(not (0.0 < x < 100.0) for x, _ in pts):
            raise ValueError("percentiles must lie in (0, 100)")
        if any(b < 0.0 for _, b in pts) or all(b == 0.0 for _, b in pts):
            raise ValueError("percentile weights must be nonnegative and not all zero")
        self.__dict__.update(points=pts)

    def scores(self, gains_linear: np.ndarray, dirs: DirectionSet) -> np.ndarray:
        """The percentile mix in dB of each (..., N) gain row."""
        values = weighted_percentiles(gains_linear, dirs.weights, [x for x, _ in self.points])
        total = 0.0
        wsum = 0.0
        for j, (_, beta) in enumerate(self.points):
            total = total + beta * db_from_linear(values[..., j])
            wsum += beta
        return total / wsum

    def value(self, gains_linear: np.ndarray, dirs: DirectionSet) -> float:
        return float(self.scores(gains_linear, dirs))


SelectionCriterion = Union[MeanGainCriterion, PercentileMixCriterion]


# ---------------------------------------------------------------------------
# Candidate generation
# ---------------------------------------------------------------------------


class Candidate(NamedTuple):
    array_id: str
    weights: BeamWeights
    aim: Direction


def _child_seed(*key: int) -> int:
    # Stable per-task seed derivation; keeps parallelizable subtasks
    # decoupled from call order.
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def generate_candidates(
    grids,
    count_per_sphere: int,
    method: str,
    phase_spec: PhaseSpec,
    seed: int = 0,
    n_rand: int = 1000,
) -> tuple[Candidate, ...]:
    """Candidate beams aimed at a quasi-uniform set of on-mesh directions.

    For every array, ``count_per_sphere`` Fibonacci directions are snapped
    to that array's mesh and one beam is designed per direction: the
    quantized dominant eigenvector (``method='eigen'``) or the full
    relax-randomize-polish pipeline (``method='iterative'``).  Each array's
    beams come from one stacked :func:`design_beam` call, every beam on its
    own seed.
    """
    if count_per_sphere < 1:
        raise ValueError("count_per_sphere must be >= 1")
    if method not in ("eigen", "iterative"):
        raise ValueError("method must be 'eigen' or 'iterative'")
    grid_map = _as_grid_map(grids)
    fib = fibonacci_directions(count_per_sphere)
    strategy = "eigen" if method == "eigen" else "sdr_grp_cd"
    out: list[Candidate] = []
    for a_index, (array_id, grid) in enumerate(grid_map.items()):
        snapped = snap_to_grid(fib, grid)
        et_all, ep_all = grid.fields_at(snapped)
        n = len(snapped)
        stack = np.stack([field_coherence(et_all[:, i : i + 1], ep_all[:, i : i + 1]) for i in range(n)])
        seeds = [_child_seed(seed, a_index, i) for i in range(n)]
        beams = design_beam(stack, phase_spec, strategy, seed=seeds, n_rand=n_rand)
        for i, beam in enumerate(beams):
            out.append(Candidate(array_id, beam, Direction(float(snapped.theta[i]), float(snapped.phi[i]))))
    return tuple(out)


# ---------------------------------------------------------------------------
# Greedy synthesis
# ---------------------------------------------------------------------------


class GreedyResult(NamedTuple):
    codebook: Codebook
    utilities_db: np.ndarray
    stop_reason: str


def _candidate_gain_matrix(candidates: Sequence[Candidate], grids, eval_set: DirectionSet) -> np.ndarray:
    """Linear gains of every candidate at every evaluation direction, one stacked call per array."""
    resolved = resolve_directions(grids, eval_set)
    G = np.empty((len(candidates), len(eval_set)))
    for array_id in dict.fromkeys(cand.array_id for cand in candidates):
        idxs = [i for i, cand in enumerate(candidates) if cand.array_id == array_id]
        G[idxs, :] = field_gains(np.stack([candidates[i].weights.weights for i in idxs]), *resolved[array_id][1:])
    return G


def _drop_row(C: np.ndarray, row: int, rows: int) -> None:
    """Shift rows row+1 .. rows-1 of C up by one, in place.

    One overlapping slice assignment would copy its whole source first;
    64 rows per copy keep that temporary small.
    """
    for start in range(row, rows - 1, 64):
        stop = min(start + 64, rows - 1)
        C[start:stop] = C[start + 1 : stop + 1]


def greedy_codebook(
    candidates: Sequence[Candidate],
    grids,
    criterion: SelectionCriterion,
    size: int,
    eval_set: DirectionSet,
    stop: tuple[SelectionCriterion, float] | None = None,
) -> GreedyResult:
    """Grow a codebook of at most ``size`` beams, adding the utility-maximizing candidate each round.

    ``stop = (stop_criterion, threshold_db)`` ends the run earlier, as soon
    as the stop criterion's value of the codebook exceeds the threshold.
    ``stop_reason`` is ``"stopping rule satisfied"`` when the threshold, or
    ``size`` without a threshold, ended the run; ``"size reached before the
    stop threshold"`` when ``size`` capped a run whose threshold was never
    exceeded; ``"pool exhausted"`` when the pool emptied first, with the
    best-so-far codebook.  The composite gain is maintained incrementally,
    so each round scores the remaining pool in one call.  Ties resolve to
    the lowest candidate index and selected candidates leave the pool.
    """
    if len(candidates) == 0:
        raise ValueError("candidate set is empty")
    if size < 1:
        raise ValueError("size must be >= 1")
    # Row r of C is the composite of the codebook plus candidate pool[r]:
    # max(best, G[pool[r]]), kept in place as best grows and picks leave.
    C = _candidate_gain_matrix(candidates, grids, eval_set)
    pool = list(range(len(candidates)))
    best = np.zeros(len(eval_set))
    selected: list[int] = []
    utilities: list[float] = []

    while True:
        if stop and selected and stop[0].value(best, eval_set) > stop[1]:
            stop_reason = "stopping rule satisfied"
            break
        if len(selected) == size:
            stop_reason = "size reached before the stop threshold" if stop else "stopping rule satisfied"
            break
        if not pool:
            stop_reason = "pool exhausted"
            break
        rows = C[: len(pool)]
        np.maximum(rows, best, out=rows)
        row = int(np.argmax(criterion.scores(rows, eval_set)))
        selected.append(pool.pop(row))
        best = rows[row].copy()
        _drop_row(C, row, rows.shape[0])
        utilities.append(criterion.value(best, eval_set))

    entries = tuple(CodebookEntry(candidates[i].array_id, candidates[i].weights) for i in selected)
    return GreedyResult(codebook=Codebook(entries), utilities_db=np.array(utilities), stop_reason=stop_reason)


# ---------------------------------------------------------------------------
# K-Means synthesis
# ---------------------------------------------------------------------------


class KMeansConfig(Frozen):
    """A K-Means run: ``init`` None starts from :func:`uniform_init`."""

    def __init__(self, num_beams: int, direction_set: DirectionSet, phase_spec: PhaseSpec,
                 init: Codebook | None = None, n_rand: int = 1000, max_iterations: int = 50, seed: int = 0):
        if num_beams < 1:
            raise ValueError("num_beams must be >= 1")
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        self.__dict__.update(num_beams=num_beams, direction_set=direction_set, phase_spec=phase_spec, init=init,
                             n_rand=n_rand, max_iterations=max_iterations, seed=seed)


class KMeansResult(NamedTuple):
    codebook: Codebook
    mean_gain_trace_db: np.ndarray
    iterations: int
    stop_reason: str
    assignments: np.ndarray


def uniform_init(num_beams: int, grids, phase_spec: PhaseSpec) -> Codebook:
    """Beams aimed at uniformly spread directions, each on its best array.

    For every Fibonacci direction the array with the largest per-direction
    eigenvalue bound wins the beam, which is then the quantized dominant
    eigenvector there.
    """
    if num_beams < 1:
        raise ValueError("num_beams must be >= 1")
    per_array = list(resolve_directions(grids, fibonacci_directions(num_beams)).items())
    best = np.argmax([top_eigenvalues(et, ep) for _, (_, et, ep) in per_array], axis=0)  # ties -> first array
    entries = []
    for i, a in enumerate(best):
        array_id, (_, et, ep) = per_array[a]
        M = field_coherence(et[:, i : i + 1], ep[:, i : i + 1])
        entries.append(CodebookEntry(array_id, design_beam(M, phase_spec, "eigen")))
    return Codebook(tuple(entries))


def kmeans_codebook(config: KMeansConfig, grids) -> KMeansResult:
    """Alternate direction-to-beam assignment and per-cluster beam updates.

    The run starts from ``config.init``, or from :func:`uniform_init` when
    that is None.  Each direction joins the beam serving it best (ties to the lowest beam
    index); each beam is then re-designed for the weighted field sum of
    its cluster on its own array (one stacked :func:`design_beam` call per
    element count, every beam on its own seed), and the new beam is kept
    only if it does not lower the cluster objective.  With that guard the
    weighted mean composite gain never decreases, so the loop terminates:
    it stops when assignments repeat, the mean gain improves by less than
    1e-9 dB, or ``max_iterations`` is hit.  Beams stay bound to the array
    they were initialized on.  A cluster without field, that is an empty
    one or one whose directions all have zero weight or zero field, gets
    no design call and leaves its beam untouched: any beam ties its zero
    objective, so a new design would only replace the beam at random.
    """
    grid_map = _as_grid_map(grids)
    dirs = config.direction_set
    K = config.num_beams
    if K > len(dirs):
        raise ValueError("num_beams exceeds the number of directions")

    codebook = uniform_init(K, grid_map, config.phase_spec) if config.init is None else config.init
    if codebook.size != K:
        raise ValueError("initial codebook size does not match num_beams")

    fields = {array_id: grid.fields_at(snap_to_grid(dirs, grid)) for array_id, grid in grid_map.items()}
    beams = [(e.array_id, np.array(e.weights.weights)) for e in codebook.entries]

    gains = np.stack([field_gains(w, *fields[a]) for a, w in beams])  # (K, N)
    mean_db = db_from_linear(float(np.dot(dirs.weights, gains.max(axis=0))))
    trace = [mean_db]
    assignments = np.full(len(dirs), -1)
    stop_reason = "max iterations"
    iterations = 0

    for iteration in range(config.max_iterations):
        new_assignments = np.argmax(gains, axis=0)  # ties -> lowest beam index
        if np.array_equal(new_assignments, assignments):
            stop_reason = "assignments unchanged"
            break
        assignments = new_assignments
        iterations += 1

        # Every cluster's matrix, then one stacked design per element count
        # over the clusters with field (an empty cluster's matrix is zero).
        clusters: dict[int, np.ndarray] = {}
        by_size: dict[int, list[int]] = {}
        for k, (array_id, _) in enumerate(beams):
            members = np.flatnonzero(assignments == k)
            et, ep = fields[array_id]
            Mk = field_coherence(et[:, members], ep[:, members], dirs.weights[members])
            if np.real(np.trace(Mk)) > 0.0:
                clusters[k] = Mk
                by_size.setdefault(et.shape[0], []).append(k)
        designed = {}
        for ks in by_size.values():
            stack = np.stack([clusters[k] for k in ks])
            seeds = [_child_seed(config.seed, iteration, k) for k in ks]
            designed.update(zip(ks, design_beam(stack, config.phase_spec, seed=seeds, n_rand=config.n_rand)))

        for k, Mk in clusters.items():
            array_id, w = beams[k]
            new_beam = designed[k]
            old_obj = float(np.real(w.conj() @ Mk @ w))
            new_obj = new_beam.gain(Mk)
            if new_obj >= old_obj:  # keep monotone under the approximate solver
                beams[k] = (array_id, np.array(new_beam.weights))
                gains[k] = field_gains(beams[k][1], *fields[array_id])

        new_mean_db = db_from_linear(float(np.dot(dirs.weights, gains.max(axis=0))))
        trace.append(new_mean_db)
        if new_mean_db - mean_db < 1e-9:
            mean_db = new_mean_db
            stop_reason = "mean gain converged"
            break
        mean_db = new_mean_db

    entries = tuple(
        CodebookEntry(array_id, BeamWeights(w, config.phase_spec)) for array_id, w in beams
    )
    return KMeansResult(
        codebook=Codebook(entries),
        mean_gain_trace_db=np.array(trace),
        iterations=iterations,
        stop_reason=stop_reason,
        assignments=assignments,
    )


# ---------------------------------------------------------------------------
# Reference codebooks
# ---------------------------------------------------------------------------


def benchmark_codebook(
    ula: SyntheticUlaSpec,
    size: int,
    phase_spec: PhaseSpec,
    array_ids: Sequence[str] = ("ula",),
) -> Codebook:
    """Progressive-phase beams aimed uniformly in cos(theta).

    Beam k of K' points at arccos(-1 + (2k-1)/K'); element l (0-based)
    gets the quantized progressive phase 2*pi*(d/lambda)*l*cos(aim).  For
    multi-array terminals the same per-array codebook is replicated on
    every array.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    L = ula.num_elements
    ks = np.arange(1, size + 1)
    x = -1.0 + (2.0 * ks - 1.0) / size
    ell = np.arange(L)
    phases = np.mod(_TWO_PI * ula.spacing_over_lambda * ell[None, :] * x[:, None], _TWO_PI)
    if phase_spec.is_discrete:
        phases = quantize_phase(phases, phase_spec.bits)
    entries = []
    for array_id in array_ids:
        for k in range(size):
            entries.append(CodebookEntry(array_id, BeamWeights.from_phases(phases[k], phase_spec)))
    return Codebook(tuple(entries))


def codebook_802_15_3c(
    num_elements: int,
    size: int,
    bits: int,
    array_ids: Sequence[str] = ("ula",),
) -> Codebook:
    """Closed-form sector codebook generalized to 2^b phase states.

    Beam k (1-based) gives element l (1-based) the phase
    (2*pi/2^b) * floor((l-1) * mod(k-1 + K'/2, K') / (K'/2^b)); phases
    always land on the 2^b lattice.  When K' divides 2^b the floor is
    exact, so finer shifters reproduce the codebook built at
    b = log2(K') (the classic 2-bit construction for K' = 4).
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    if num_elements < 1:
        raise ValueError("num_elements must be >= 1")
    spec = PhaseSpec.discrete(bits)
    n_states = 1 << bits
    ell = np.arange(1, num_elements + 1)
    entries = []
    phases_all = []
    for k in range(1, size + 1):
        m = math.fmod(k - 1 + size / 2.0, size)
        phases = (_TWO_PI / n_states) * np.floor((ell - 1) * m / (size / n_states))
        phases_all.append(np.mod(phases, _TWO_PI))
    for array_id in array_ids:
        for phases in phases_all:
            entries.append(CodebookEntry(array_id, BeamWeights.from_phases(phases, spec)))
    return Codebook(tuple(entries))


def restrict_region(dirs: DirectionSet, region: CoverageRegion) -> DirectionSet:
    """Drop directions outside the region and renormalize the weights."""
    mask = region.contains(dirs.theta, dirs.phi)
    w = dirs.weights[mask]
    if not w.sum() > 0.0:
        raise ValueError("region contains no sample directions of positive weight")
    if np.all(mask):
        return dirs
    return DirectionSet(dirs.theta[mask], dirs.phi[mask], w / w.sum())
