"""Gain evaluation: beam patterns, composite coverage, CDF statistics, bounds.

The realized gain of a beam ``w`` at a direction is ``(2 pi / eta0) *
w^H M w`` with ``M`` the coherence matrix of the stored fields; a
codebook's composite pattern takes the per-direction maximum over all its
beams (and, for multi-array terminals, over all arrays, since only one
array is ever active).  The per-direction largest eigenvalue of ``M``
upper-bounds every codebook and serves as the coverage reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .efield import GAIN_FACTOR, DirectionSet, EFieldGrid, snap_to_grid, top_eigenvalues, write_csv_columns, write_json

DB_FLOOR = -200.0

PATTERN_CSV_HEADER = "theta_deg,phi_deg,weight,gain_db"


def db_from_linear(gain):
    """10*log10 with a -200 dB floor so zero gains stay finite."""
    gain = np.asarray(gain, dtype=float)
    floor = 10.0 ** (DB_FLOOR / 10.0)
    out = 10.0 * np.log10(np.maximum(gain, floor))
    return float(out) if out.ndim == 0 else out


def linear_from_db(gain_db):
    gain_db = np.asarray(gain_db, dtype=float)
    out = 10.0 ** (gain_db / 10.0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class GainPattern:
    """Gain in dB per direction of a weighted direction set."""

    directions: DirectionSet
    gains_db: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gains_db, dtype=float)
        if g.shape != (len(self.directions),):
            raise ValueError("gains must align with the direction set")
        if not np.all(np.isfinite(g)):
            raise ValueError("non-finite gain")
        g.setflags(write=False)
        object.__setattr__(self, "gains_db", g)

    @property
    def gains_linear(self) -> np.ndarray:
        return linear_from_db(self.gains_db)


@dataclass(frozen=True)
class CoverageStats:
    """Weighted distribution summary of a gain pattern.

    ``mean_db`` is the dB value of the linear-domain weighted mean.  The
    CDF is the right-continuous weighted empirical step function over
    linear gains, stored as sorted (gain_db, cumulative weight) pairs;
    percentile X is its left inverse (smallest gain with coverage >= X%).
    """

    mean_db: float
    percentiles: dict[float, float]
    cdf: np.ndarray

    @property
    def median_db(self) -> float:
        return self.percentiles[50.0]


def field_gains(weights, et: np.ndarray, ep: np.ndarray) -> np.ndarray:
    """GAIN_FACTOR * (|w^H e_T|^2 + |w^H e_P|^2) against (L, N) field matrices.

    One beam (L,) gives N gains, a stack (n, L) an (n, N) matrix; every
    realized gain of the package is computed here.
    """
    w = np.asarray(getattr(weights, "weights", weights), dtype=complex)
    return GAIN_FACTOR * (np.abs(w.conj() @ et) ** 2 + np.abs(w.conj() @ ep) ** 2)


def beam_gain(grid: EFieldGrid, weights, direction) -> float:
    """Realized linear gain of one beam at one on-mesh direction."""
    ds = DirectionSet(np.array([direction.theta]), np.array([direction.phi]), np.array([1.0]))
    return float(field_gains(weights, *grid.fields_at(ds))[0])


def beam_pattern(grid: EFieldGrid, weights, dirs: DirectionSet) -> GainPattern:
    """Gain pattern of a single beam over a direction set (snapped to the mesh)."""
    gains = field_gains(weights, *grid.fields_at(snap_to_grid(dirs, grid)))
    return GainPattern(dirs, db_from_linear(gains))


def _as_grid_map(grids) -> Mapping[str, EFieldGrid]:
    if isinstance(grids, EFieldGrid):
        return {grids.array_id: grids}
    return grids


def entry_gains_linear(grids, codebook, dirs: DirectionSet) -> Iterator[tuple[DirectionSet, np.ndarray]]:
    """Per entry, the directions snapped to its array's mesh and its gains; one lookup per array."""
    grid_map = _as_grid_map(grids)
    resolved: dict[str, tuple[DirectionSet, np.ndarray, np.ndarray]] = {}
    for entry in codebook.entries:
        if entry.array_id not in resolved:
            grid = grid_map[entry.array_id]
            snapped = snap_to_grid(dirs, grid)
            resolved[entry.array_id] = (snapped, *grid.fields_at(snapped))
        snapped, et, ep = resolved[entry.array_id]
        yield snapped, field_gains(entry.weights.weights, et, ep)


def composite_gains_linear(grids, codebook, dirs: DirectionSet) -> np.ndarray:
    """Per-direction max gain over all codebook entries, linear scale.

    Each entry is evaluated on its own array's grid; directions are
    snapped to each mesh involved.
    """
    if codebook.size == 0:
        raise ValueError("codebook is empty")
    return np.max([g for _, g in entry_gains_linear(grids, codebook, dirs)], axis=0)


def composite_pattern(grids, codebook, dirs: DirectionSet) -> GainPattern:
    """Composite (max-over-beams) radiation pattern of a codebook, in dB."""
    return GainPattern(dirs, db_from_linear(composite_gains_linear(grids, codebook, dirs)))


def upper_bound_gains_linear(grids, dirs: DirectionSet) -> np.ndarray:
    """Per-direction largest eigenvalue of the coherence matrix, max over arrays, times GAIN_FACTOR."""
    grid_map = _as_grid_map(grids)
    best = np.zeros(len(dirs))
    for grid in grid_map.values():
        lam = top_eigenvalues(*grid.fields_at(snap_to_grid(dirs, grid)))
        np.maximum(best, GAIN_FACTOR * lam, out=best)
    return best


def upper_bound_pattern(grids, dirs: DirectionSet) -> GainPattern:
    return GainPattern(dirs, db_from_linear(upper_bound_gains_linear(grids, dirs)))


def gap_map(composite: GainPattern, bound: GainPattern) -> GainPattern:
    """Pointwise (bound - composite) in dB, clamped at zero.

    The clamp only absorbs floating-point dust: a composite genuinely
    above the bound is a bug elsewhere and is rejected.
    """
    a, b = composite.directions, bound.directions
    if len(a) != len(b) or np.max(np.abs(a.theta - b.theta)) > 1e-9 or np.max(np.abs(a.phi - b.phi)) > 1e-9:
        raise ValueError("patterns are defined on different direction sets")
    diff = bound.gains_db - composite.gains_db
    if np.min(diff) < -1e-6:
        raise ValueError("composite exceeds the upper bound; inconsistent inputs")
    return GainPattern(composite.directions, np.maximum(diff, 0.0))


def weighted_percentiles(gains: np.ndarray, weights: np.ndarray, percentiles) -> tuple[np.ndarray, ...]:
    """(gain at each percentile, sorted gains, normalized cumulative weights) of weighted samples.

    ``gains`` is one sample (N,) or a stack (..., N) of samples sharing the
    N weights; each row is sorted and inverted on its own.  The gain at X%
    is the left inverse of the CDF: the smallest gain whose cumulative
    weight reaches X/100.
    """
    order = np.argsort(gains, axis=-1, kind="stable")
    g_sorted = np.take_along_axis(gains, order, axis=-1)
    cum = np.cumsum(weights[order], axis=-1)
    cum /= cum[..., -1:]
    p = np.asarray(percentiles, dtype=float)[:, None] / 100.0
    k = np.minimum(np.count_nonzero(cum[..., None, :] < p, axis=-1), gains.shape[-1] - 1)
    return np.take_along_axis(g_sorted, k, axis=-1), g_sorted, cum


def coverage_stats(pattern: GainPattern, percentiles: Sequence[float] = (50.0,)) -> CoverageStats:
    """Weighted mean, percentiles, and empirical CDF of a gain pattern."""
    if any(not (0.0 < x < 100.0) for x in percentiles):
        raise ValueError("percentiles must lie in (0, 100)")
    w = pattern.directions.weights
    g = pattern.gains_linear
    values, g_sorted, cum = weighted_percentiles(g, w, percentiles)
    mean_db = db_from_linear(float(np.dot(w, g)))
    pct = {float(x): db_from_linear(v) for x, v in zip(percentiles, values)}
    cdf = np.column_stack([db_from_linear(g_sorted), cum])
    return CoverageStats(mean_db=mean_db, percentiles=pct, cdf=cdf)


def write_pattern_csv(pattern: GainPattern, path) -> None:
    d = pattern.directions
    write_csv_columns(path, PATTERN_CSV_HEADER, [d.theta, d.phi, d.weights, pattern.gains_db])


def stats_to_dict(stats: CoverageStats) -> dict:
    return {
        "mean_db": stats.mean_db,
        "percentiles": {f"{x:g}": v for x, v in sorted(stats.percentiles.items())},
        "cdf": [[float(g), float(c)] for g, c in stats.cdf],
    }


def write_stats_json(stats: CoverageStats, path) -> None:
    write_json(stats_to_dict(stats), path)
