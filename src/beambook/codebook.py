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

from ._frozen import Frozen, check_count
from .beamopt import BeamWeights, PhaseSpec, _quadratic_forms, design_beam, eigen_beams
from .efield import (CoverageRegion, DirectionSet, SyntheticUlaSpec, field_coherence, fibonacci_directions,
                     top_eigenvalues, write_json)
from .metrics import db_from_linear, entry_gains_linear, resolve_directions, weighted_percentiles

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
        if len({e.weights.phase_spec for e in entries}) != 1:
            raise ValueError("codebook mixes phase constraints")
        self._set(entries=entries)

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def phase_bits(self) -> int | None:
        return self.entries[0].weights.phase_spec.bits


def save_codebook(codebook: Codebook, path) -> None:
    write_json({
        "phase_bits": codebook.phase_bits,
        "entries": [
            {
                "array": e.array_id,
                "weights": [[float(w.real), float(w.imag)] for w in e.weights.weights],
            }
            for e in codebook.entries
        ],
    }, path)


def load_codebook(path) -> Codebook:
    """Read a codebook JSON file; OSError if unreadable, ValueError if malformed, naming the schema violation."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
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
        self._set(region=region)

    def scores(self, gains_linear: np.ndarray, dirs: DirectionSet) -> np.ndarray:
        """Linear weighted mean over the region of each (..., N) gain row."""
        w = dirs.weights if self.region is None else _region_weights(dirs, self.region)[1]
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
        self._set(points=pts)

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
    quantized dominant eigenvector (``method='eigen'``, :func:`eigen_beams`)
    or the full relax-randomize-polish pipeline (``method='iterative'``,
    :func:`design_beam`, beam i of array a on the seed key ``(seed, a, i)``;
    ``seed`` is an integer >= 0).  Each array's beams come from one call.
    """
    check_count("count_per_sphere", count_per_sphere)
    check_count("seed", seed, 0)
    if method not in ("eigen", "iterative"):
        raise ValueError("method must be 'eigen' or 'iterative'")
    resolved = resolve_directions(grids, fibonacci_directions(count_per_sphere))
    beams = _direction_beams(resolved, phase_spec, method, seed, n_rand)
    return tuple(CodebookEntry(array_id, beam) for array_id, row in beams.items() for beam in row)


def _direction_beams(resolved, phase_spec: PhaseSpec, method: str, seed: int = 0, n_rand: int = 1000) -> dict:
    """Array id -> one beam per direction of ``resolved``, from one stacked call of the ``method``'s designer."""
    out = {}
    for a_index, (array_id, (_, et, ep)) in enumerate(resolved.items()):
        stack = field_coherence(et.T[:, :, None], ep.T[:, :, None])  # one (L, L) matrix per direction
        if method == "eigen":
            out[array_id] = eigen_beams(stack, phase_spec)
        else:
            keys = [(seed, a_index, i) for i in range(len(stack))]
            out[array_id] = design_beam(stack, phase_spec, seed=keys, n_rand=n_rand)
    return out


# ---------------------------------------------------------------------------
# Greedy synthesis
# ---------------------------------------------------------------------------


class GreedyResult(NamedTuple):
    codebook: Codebook
    utilities_db: np.ndarray
    stop_reason: str


def _candidate_gain_matrix(candidates: Sequence[CodebookEntry], grids, eval_set: DirectionSet):
    """The index of each distinct candidate's first occurrence, in order, and its ``entry_gains_linear`` row of
    linear gains at every evaluation direction; a copy (one array, equal weight bytes) gets no row."""
    resolved = resolve_directions(grids, eval_set)
    _check_fit(candidates, {a: len(et) for a, (_, et, _) in resolved.items()}, "candidate")
    first: dict = {}
    rows = [i for i, c in enumerate(candidates) if first.setdefault((c.array_id, c.weights.weights.tobytes()), i) == i]
    return rows, entry_gains_linear(resolved, [candidates[i] for i in rows])


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
    best-so-far codebook, once every distinct beam is picked: copies of a
    beam on one array (equal weight bytes) are scored once, as the first.
    The composite gain is maintained incrementally, so each round scores
    every distinct beam in one call.  Ties resolve to the lowest candidate
    index, and a selected beam is never picked again.
    """
    if len(candidates) == 0:
        raise ValueError("candidate set is empty")
    check_count("size", size)
    # Row r of C is the composite of the codebook plus candidate rows[r]:
    # max(best, G[r]), kept in place as best grows.
    rows, C = _candidate_gain_matrix(candidates, grids, eval_set)
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
        if len(selected) == len(rows):
            stop_reason = "pool exhausted"
            break
        np.maximum(C, best, out=C)
        scores = criterion.scores(C, eval_set)
        scores[selected] = -np.inf  # scores are finite: gains are >= 0 and dB values floored
        row = int(np.argmax(scores))
        selected.append(row)
        best = C[row].copy()
        utilities.append(criterion.value(best, eval_set))

    return GreedyResult(Codebook(candidates[rows[r]] for r in selected), np.array(utilities), stop_reason)


# ---------------------------------------------------------------------------
# K-Means synthesis
# ---------------------------------------------------------------------------


class KMeansResult(NamedTuple):
    codebook: Codebook
    mean_gain_trace_db: np.ndarray
    stop_reason: str
    assignments: np.ndarray

    @property
    def iterations(self) -> int:
        """Iterations that re-designed the beams: one per trace entry after the first."""
        return len(self.mean_gain_trace_db) - 1


def uniform_init(num_beams: int, grids, phase_spec: PhaseSpec) -> Codebook:
    """Beams aimed at uniformly spread directions, each on its best array.

    For every Fibonacci direction the array with the largest per-direction
    eigenvalue bound wins the beam, which is then that array's ``eigen``
    candidate there (see :func:`generate_candidates`).
    """
    check_count("num_beams", num_beams)
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
    element count, every beam on its own seed key ``(seed, iteration,
    beam index)``), and the new beam is kept only if it does not lower the
    cluster objective.  With that guard the weighted mean composite gain
    never decreases, so the loop terminates: it stops when assignments
    repeat, the mean gain improves by less than 1e-9 dB, or
    ``max_iterations`` is hit.  ``seed`` must be an integer >= 0.  Beams
    stay bound to the array they were initialized on.  Two clusters get no
    design call and keep their beam: one without field (empty, or all its
    directions of zero weight or field), whose zero objective any beam
    ties, and one with the members of its beam's last design if that drew
    no randomization, which would design the same beam again.
    """
    check_count("num_beams", num_beams)
    check_count("max_iterations", max_iterations)
    check_count("seed", seed, 0)
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
    gains = entry_gains_linear(resolved, entries)  # (K, N)
    trace = [MeanGainCriterion().value(gains.max(axis=0), dirs)]
    assignments = np.full(len(dirs), -1)
    last_members: dict[int, np.ndarray | None] = {}  # beam -> its cluster at its last design; None if that drew
    stop_reason = "max iterations"

    for iteration in range(max_iterations):
        new_assignments = np.argmax(gains, axis=0)  # ties -> lowest beam index
        if np.array_equal(new_assignments, assignments):
            stop_reason = "assignments unchanged"
            break
        assignments = new_assignments

        # The matrix of every cluster that changed, then one stacked design per
        # element count over those with field (an empty cluster's matrix is zero).
        clusters: dict[int, np.ndarray] = {}
        by_size: dict[int, list[int]] = {}
        for k, entry in enumerate(entries):
            members = np.flatnonzero(assignments == k)
            if last_members.get(k) is not None and np.array_equal(members, last_members[k]):
                continue  # the matrix of its last design, which drew nothing: the same beam
            _, et, ep = resolved[entry.array_id]
            Mk = field_coherence(et[:, members], ep[:, members], dirs.weights[members])
            if np.real(np.trace(Mk)) > 0.0:
                clusters[k] = Mk
                last_members[k] = members
                by_size.setdefault(et.shape[0], []).append(k)
        designed, kept = {}, []
        for ks in by_size.values():
            stack = np.stack([clusters[k] for k in ks])
            keys, drew = [(seed, iteration, k) for k in ks], []
            designed.update(zip(ks, design_beam(stack, phase_spec, seed=keys, n_rand=n_rand, drew=drew)))
            last_members.update((k, None) for k, drawn in zip(ks, drew) if drawn)
            # Keep monotone under the approximate solver (BeamWeights.gain's bits); only kept beams' rows change.
            new = _quadratic_forms(stack, np.stack([designed[k].weights for k in ks]))
            old = _quadratic_forms(stack, np.stack([entries[k].weights.weights for k in ks]))
            kept += [k for k, a, b in zip(ks, new, old) if a >= b]
        for k in kept:
            entries[k] = CodebookEntry(entries[k].array_id, designed[k])
        gains[kept] = entry_gains_linear(resolved, [entries[k] for k in kept])

        trace.append(MeanGainCriterion().value(gains.max(axis=0), dirs))
        if trace[-1] - trace[-2] < 1e-9:
            stop_reason = "mean gain converged"
            break

    return KMeansResult(Codebook(entries), np.array(trace), stop_reason, assignments)


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
    check_count("size", size)
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
    check_count("size", size)
    check_count("num_elements", num_elements)
    if bits is None:
        raise ValueError("the 802.15.3c codebook needs a phase bit count")
    spec = PhaseSpec(bits)
    n_states = 1 << bits
    m = np.fmod(np.arange(size) + size / 2.0, size)[:, None]  # row k - 1 holds mod(k - 1 + K'/2, K') of beam k
    phases = (_TWO_PI / n_states) * np.floor(np.arange(num_elements) * m / (size / n_states))
    return Codebook(CodebookEntry(a, BeamWeights.from_phases(p, spec)) for a in array_ids for p in phases)


def _region_weights(dirs: DirectionSet, region: CoverageRegion) -> tuple[np.ndarray, np.ndarray]:
    """The region's mask over ``dirs`` and the weights renormalized inside it, zero outside it."""
    mask = region.contains(dirs.theta, dirs.phi)
    total = float(dirs.weights[mask].sum())
    if not total > 0.0:  # a NaN total fails too
        raise ValueError("region contains no sample directions of positive weight")
    return mask, np.where(mask, dirs.weights, 0.0) / total


def restrict_region(dirs: DirectionSet, region: CoverageRegion) -> DirectionSet:
    """Drop directions outside the region and renormalize the weights."""
    mask, weights = _region_weights(dirs, region)
    if np.all(mask):
        return dirs
    return DirectionSet(dirs.theta[mask], dirs.phi[mask], weights[mask])
