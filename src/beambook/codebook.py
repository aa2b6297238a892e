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
from .beamopt import BeamWeights, PhaseSpec, design_beam
from .efield import (CoverageRegion, DirectionSet, SyntheticUlaSpec, field_coherence, fibonacci_directions,
                     top_eigenvalues, write_json)
from .metrics import db_from_linear, entry_gains_linear, field_gains, resolve_directions, weighted_percentiles

_TWO_PI = 2.0 * math.pi


class CodebookEntry(NamedTuple):
    array_id: str
    weights: BeamWeights


class Codebook(Frozen):
    """Ordered beams, each tagged with the array it drives."""

    def __init__(self, entries: Sequence[CodebookEntry]):
        entries = tuple(entries)
        if not entries:
            raise ValueError("a codebook needs at least one beam")
        self.__dict__.update(entries=entries)

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
    spec = PhaseSpec(bits)
    entries = []
    for i, e in enumerate(raw):
        try:
            w = np.array([complex(re, im) for re, im in e["weights"]])
            entries.append(CodebookEntry(str(e["array"]), BeamWeights(w, spec)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"entry {i}: {exc!r}") from None
    return Codebook(entries)


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
        # Written as "not <" so that a NaN weight fails too.
        if any(not (0.0 <= b < math.inf) for _, b in pts) or all(b == 0.0 for _, b in pts):
            raise ValueError("percentile weights must be finite, nonnegative and not all zero")
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
# Pools of candidate beams
# ---------------------------------------------------------------------------


def _child_seed(*key: int) -> int:
    # Stable per-task seed derivation; keeps parallelizable subtasks
    # decoupled from call order.
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def _check_fit(entries: Sequence[CodebookEntry], elements: dict[str, int], what: str) -> None:
    """Raise a ValueError naming the first beam on an array id missing from ``elements`` or with another element count."""
    for k, (array_id, beam) in enumerate(entries):
        if elements.get(array_id) != beam.num_elements:
            raise ValueError(f"{what} {k}: a beam with {beam.num_elements} weights on array '{array_id}' fits no array")


def generate_candidates(
    grids,
    count_per_sphere: int,
    method: str,
    phase_spec: PhaseSpec,
    seed: int = 0,
    n_rand: int = 1000,
) -> tuple[CodebookEntry, ...]:
    """A pool of candidate beams aimed at a quasi-uniform set of on-mesh directions.

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
    resolved = resolve_directions(grids, fibonacci_directions(count_per_sphere))
    beams = _direction_beams(resolved, phase_spec, "eigen" if method == "eigen" else "sdr_grp_cd", seed, n_rand)
    return tuple(CodebookEntry(array_id, beam) for array_id, row in beams.items() for beam in row)


def _direction_beams(resolved, phase_spec: PhaseSpec, strategy: str, seed: int = 0, n_rand: int = 1000) -> dict:
    """Array id -> one beam per direction of ``resolved``, from one stacked :func:`design_beam` call on its own seeds."""
    out = {}
    for a_index, (array_id, (_, et, ep)) in enumerate(resolved.items()):
        stack = field_coherence(et.T[:, :, None], ep.T[:, :, None])  # one (L, L) matrix per direction
        # eigen draws nothing and reads no seed, so it gets no derived ones.
        seeds = [0] * len(stack) if strategy == "eigen" else [_child_seed(seed, a_index, i) for i in range(len(stack))]
        out[array_id] = design_beam(stack, phase_spec, strategy, seed=seeds, n_rand=n_rand)
    return out


# ---------------------------------------------------------------------------
# Greedy synthesis
# ---------------------------------------------------------------------------


class GreedyResult(NamedTuple):
    codebook: Codebook
    utilities_db: np.ndarray
    stop_reason: str


def _candidate_gain_matrix(candidates: Sequence[CodebookEntry], grids, eval_set: DirectionSet) -> np.ndarray:
    """Linear gains of every candidate at every evaluation direction, one stacked call per array."""
    resolved = resolve_directions(grids, eval_set)
    _check_fit(candidates, {a: len(et) for a, (_, et, _) in resolved.items()}, "candidate")
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
    candidates: Sequence[CodebookEntry],
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

    return GreedyResult(Codebook(candidates[i] for i in selected), np.array(utilities), stop_reason)


# ---------------------------------------------------------------------------
# K-Means synthesis
# ---------------------------------------------------------------------------


class KMeansResult(NamedTuple):
    codebook: Codebook
    mean_gain_trace_db: np.ndarray
    iterations: int
    stop_reason: str
    assignments: np.ndarray


def uniform_init(num_beams: int, grids, phase_spec: PhaseSpec) -> Codebook:
    """Beams aimed at uniformly spread directions, each on its best array.

    For every Fibonacci direction the array with the largest per-direction
    eigenvalue bound wins the beam, which is then that array's ``eigen``
    candidate there (see :func:`generate_candidates`).
    """
    if num_beams < 1:
        raise ValueError("num_beams must be >= 1")
    resolved = resolve_directions(grids, fibonacci_directions(num_beams))
    beams = _direction_beams(resolved, phase_spec, "eigen")
    ids = list(beams)
    best = np.argmax([top_eigenvalues(et, ep) for _, et, ep in resolved.values()], axis=0)  # ties -> first array
    return Codebook(CodebookEntry(ids[a], beams[ids[a]][i]) for i, a in enumerate(best))


def kmeans_codebook(
    grids,
    num_beams: int,
    direction_set: DirectionSet,
    phase_spec: PhaseSpec,
    init: Codebook | None = None,
    n_rand: int = 1000,
    max_iterations: int = 50,
    seed: int = 0,
) -> KMeansResult:
    """Alternate direction-to-beam assignment and per-cluster beam updates.

    The run starts from ``init``, a codebook of ``num_beams`` beams on the
    ``phase_spec`` lattice, or from :func:`uniform_init` when that is None.
    Each direction joins the beam serving it best (ties to the lowest beam
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
    if num_beams < 1:
        raise ValueError("num_beams must be >= 1")
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    dirs = direction_set
    if num_beams > len(dirs):
        raise ValueError("num_beams exceeds the number of directions")

    codebook = uniform_init(num_beams, grids, phase_spec) if init is None else init
    if codebook.size != num_beams:
        raise ValueError("initial codebook size does not match num_beams")
    resolved = resolve_directions(grids, dirs)
    _check_fit(codebook.entries, {a: len(et) for a, (_, et, _) in resolved.items()}, "initial beam")
    # Every beam on the run's lattice from the start (raises if one is off it).
    entries = [CodebookEntry(e.array_id, BeamWeights(e.weights.weights, phase_spec)) for e in codebook.entries]
    gains = entry_gains_linear(resolved, Codebook(entries))  # (K, N)
    mean_db = db_from_linear(float(np.dot(dirs.weights, gains.max(axis=0))))
    trace = [mean_db]
    assignments = np.full(len(dirs), -1)
    stop_reason = "max iterations"
    iterations = 0

    for iteration in range(max_iterations):
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
        for k, entry in enumerate(entries):
            members = np.flatnonzero(assignments == k)
            _, et, ep = resolved[entry.array_id]
            Mk = field_coherence(et[:, members], ep[:, members], dirs.weights[members])
            if np.real(np.trace(Mk)) > 0.0:
                clusters[k] = Mk
                by_size.setdefault(et.shape[0], []).append(k)
        designed = {}
        for ks in by_size.values():
            stack = np.stack([clusters[k] for k in ks])
            seeds = [_child_seed(seed, iteration, k) for k in ks]
            designed.update(zip(ks, design_beam(stack, phase_spec, seed=seeds, n_rand=n_rand)))

        for k, Mk in clusters.items():
            array_id, old_beam = entries[k]
            new_beam = designed[k]
            if new_beam.gain(Mk) >= old_beam.gain(Mk):  # keep monotone under the approximate solver
                entries[k] = CodebookEntry(array_id, new_beam)
                gains[k] = field_gains(new_beam.weights, *resolved[array_id][1:])

        new_mean_db = db_from_linear(float(np.dot(dirs.weights, gains.max(axis=0))))
        trace.append(new_mean_db)
        if new_mean_db - mean_db < 1e-9:
            mean_db = new_mean_db
            stop_reason = "mean gain converged"
            break
        mean_db = new_mean_db

    return KMeansResult(Codebook(entries), np.array(trace), iterations, stop_reason, assignments)


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
    return Codebook(CodebookEntry(a, BeamWeights.from_phases(p, phase_spec)) for a in array_ids for p in phases)


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
    if bits is None:
        raise ValueError("the 802.15.3c codebook needs a phase bit count")
    spec = PhaseSpec(bits)
    n_states = 1 << bits
    m = np.fmod(np.arange(size) + size / 2.0, size)[:, None]  # row k - 1 holds mod(k - 1 + K'/2, K') of beam k
    phases = (_TWO_PI / n_states) * np.floor(np.arange(num_elements) * m / (size / n_states))
    return Codebook(CodebookEntry(a, BeamWeights.from_phases(p, spec)) for a in array_ids for p in phases)


def restrict_region(dirs: DirectionSet, region: CoverageRegion) -> DirectionSet:
    """Drop directions outside the region and renormalize the weights."""
    mask = region.contains(dirs.theta, dirs.phi)
    w = dirs.weights[mask]
    if not w.sum() > 0.0:
        raise ValueError("region contains no sample directions of positive weight")
    if np.all(mask):
        return dirs
    return DirectionSet(dirs.theta[mask], dirs.phi[mask], w / w.sum())
