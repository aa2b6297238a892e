"""Gain evaluation: beam patterns, composite coverage, CDF statistics, bounds.

The realized gain of a beam ``w`` at a direction is ``(2 pi / eta0) *
w^H M w`` with ``M`` the coherence matrix of the stored fields; a
codebook's composite pattern takes the per-direction maximum over all its
beams (and, for multi-array terminals, over all arrays, since only one
array is ever active).  The per-direction largest eigenvalue of ``M``
upper-bounds every codebook and serves as the coverage reference.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from ._frozen import Frozen
from .efield import (GAIN_FACTOR, DirectionSet, EFieldGrid, repr_cells, snap_to_grid, top_eigenvalues, write_csv_cells,
                     write_json)

DB_FLOOR = -200.0

PATTERN_CSV_HEADER = "theta_deg,phi_deg,weight,gain_db"


def db_from_linear(gain):
    """10*log10 with a -200 dB floor so zero gains stay finite."""
    gain = np.asarray(gain, dtype=float)
    floor = 10.0 ** (DB_FLOOR / 10.0)
    out = 10.0 * np.log10(np.maximum(gain, floor))
    return float(out) if out.ndim == 0 else out


def linear_from_db(gain_db):
    """10**(dB/10); a gain above about 3083 dB is ``inf``, without a warning."""
    gain_db = np.asarray(gain_db, dtype=float)
    with np.errstate(over="ignore"):
        out = 10.0 ** (gain_db / 10.0)
    return float(out) if out.ndim == 0 else out


class GainPattern(Frozen):
    """Gain in dB per direction of a weighted direction set."""

    def __init__(self, directions: DirectionSet, gains_db):
        g = np.array(gains_db, dtype=float)
        if g.shape != (len(directions),):
            raise ValueError("gains must align with the direction set")
        if not np.all(np.isfinite(g)):
            raise ValueError("non-finite gain")
        self._set(directions=directions, gains_db=g)

    @cached_property
    def csv_cells(self) -> tuple[np.ndarray, ...]:
        """``repr_cells`` of the theta, phi, weight and gain columns, formatted once per pattern."""
        return *self.directions.csv_cells, repr_cells(self.gains_db)


class CoverageStats(NamedTuple):
    """Weighted distribution summary of a gain pattern.

    ``mean_db`` is the dB value of the linear-domain weighted mean.  The
    CDF is the right-continuous weighted empirical step function over
    linear gains, stored as sorted (gain_db, cumulative weight) pairs;
    percentile X is its left inverse (smallest gain with coverage >= X%).
    ``order`` is the pattern direction of each CDF row.
    """

    mean_db: float
    percentiles: dict[float, float]
    cdf: np.ndarray
    order: np.ndarray

    @property
    def median_db(self) -> float:
        return self.percentiles[50.0]


# Entries per block of the second squared magnitude in field_gains: a
# multiple of every SIMD width, so blocking splits no vector loop differently.
_POWER_BLOCK = 1 << 15


def field_gains(weights, et: np.ndarray, ep: np.ndarray) -> np.ndarray:
    """GAIN_FACTOR * (|w^H e_T|^2 + |w^H e_P|^2) against (L, N) field matrices.

    One beam (L,) gives N gains, a stack (n, L) an (n, N) matrix; every
    realized gain of the package is computed here, and a beam's gains are
    the same bytes alone and in any stack (one row is padded to two, so it
    never takes NumPy's matrix-vector product).  The second squared
    magnitude is added a block at a time, so a large stack holds one
    complex product and no float temporary of its size.
    """
    beams = np.asarray(getattr(weights, "weights", weights), dtype=complex).conj()
    w = np.stack([beams.reshape(-1)] * 2) if beams.ndim == 1 or len(beams) == 1 else beams
    gains = np.abs(w @ et)
    np.square(gains, out=gains)
    flat, field = gains.reshape(-1), (w @ ep).reshape(-1)
    for start in range(0, flat.size, _POWER_BLOCK):
        block = np.abs(field[start : start + _POWER_BLOCK])
        flat[start : start + _POWER_BLOCK] += np.square(block, out=block)
    gains *= GAIN_FACTOR
    return gains[0] if beams.ndim == 1 else gains[: len(beams)]


def resolve_directions(grids, dirs: DirectionSet) -> dict[str, tuple[DirectionSet, np.ndarray, np.ndarray]]:
    """Per array id of ``grids`` (a grid or a mapping): the directions snapped to its mesh, its (L, N) fields there."""
    resolved = {}
    for array_id, grid in ({grids.array_id: grids} if isinstance(grids, EFieldGrid) else grids).items():
        snapped = snap_to_grid(dirs, grid)
        resolved[array_id] = (snapped, *grid.fields_at(snapped))
    return resolved


def entry_gains_linear(resolved, entries) -> np.ndarray:
    """(K, N) gains of K ``CodebookEntry`` beams (a codebook's ``.entries`` or a candidate pool), each on its own
    array's ``resolve_directions`` entry, from one ``field_gains`` call per array."""
    gains = np.empty((len(entries), len(next(iter(resolved.values()))[0])))
    for array_id in dict.fromkeys(entry.array_id for entry in entries):
        rows = [k for k, entry in enumerate(entries) if entry.array_id == array_id]
        gains[rows] = field_gains(np.stack([entries[k].weights.weights for k in rows]), *resolved[array_id][1:])
    return gains


def composite_gains_linear(gains: np.ndarray) -> np.ndarray:
    """Per-direction max over the rows of a (K, N) ``entry_gains_linear`` matrix."""
    if len(gains) == 0:
        raise ValueError("codebook is empty")
    return gains.max(axis=0)


def composite_pattern(grids, codebook, dirs: DirectionSet) -> GainPattern:
    """Composite (max-over-beams) radiation pattern of a codebook, in dB."""
    gains = entry_gains_linear(resolve_directions(grids, dirs), codebook.entries)
    return GainPattern(dirs, db_from_linear(composite_gains_linear(gains)))


def upper_bound_gains_linear(resolved) -> np.ndarray:
    """Per-direction largest eigenvalue of the coherence matrix, max over the resolved arrays, times GAIN_FACTOR."""
    best = np.zeros(len(next(iter(resolved.values()))[0]))
    for _, et, ep in resolved.values():
        np.maximum(best, GAIN_FACTOR * top_eigenvalues(et, ep), out=best)
    return best


def upper_bound_pattern(grids, dirs: DirectionSet) -> GainPattern:
    return GainPattern(dirs, db_from_linear(upper_bound_gains_linear(resolve_directions(grids, dirs))))


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


# Rows of a stack that weighted_percentiles sorts at once: the sort order,
# the gathered weights and their cumsum then take a few MB at any stack size.
_PERCENTILE_CHUNK_ROWS = 128


def _weighted_cdf(gains: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable sort order of each (..., N) row and its normalized cumulative weights."""
    order = np.argsort(gains, axis=-1, kind="stable")
    cum = np.cumsum(weights[order], axis=-1)
    cum /= cum[..., -1:]
    return order, cum


def _percentile_ranks(cum: np.ndarray, percentiles) -> np.ndarray:
    """Sorted position of each percentile in each row: the first cumulative weight reaching X/100."""
    ranks = np.stack([np.count_nonzero(cum < float(x) / 100.0, axis=-1) for x in percentiles], axis=-1)
    return np.minimum(ranks, cum.shape[-1] - 1)


def weighted_percentiles(gains: np.ndarray, weights: np.ndarray, percentiles) -> np.ndarray:
    """Gain at each percentile of weighted samples.

    ``gains`` is one sample (N,), which gives (P,) values, or a stack
    (..., N) of samples sharing the N weights, which gives (..., P).  Each
    row is sorted and inverted on its own, a fixed number of rows at a
    time.  The gain at X% is the left inverse of the CDF: the
    smallest gain whose cumulative weight reaches X/100.
    """
    gains = np.asarray(gains, dtype=float)
    rows = gains.reshape(-1, gains.shape[-1])
    values = np.empty((rows.shape[0], len(percentiles)))
    for start in range(0, rows.shape[0], _PERCENTILE_CHUNK_ROWS):
        chunk = rows[start : start + _PERCENTILE_CHUNK_ROWS]
        order, cum = _weighted_cdf(chunk, weights)
        picks = np.take_along_axis(order, _percentile_ranks(cum, percentiles), axis=-1)
        values[start : start + _PERCENTILE_CHUNK_ROWS] = np.take_along_axis(chunk, picks, axis=-1)
    return values.reshape(gains.shape[:-1] + (len(percentiles),))


def coverage_stats(pattern: GainPattern, percentiles: Sequence[float] = (50.0,)) -> CoverageStats:
    """Weighted mean, percentiles, and empirical CDF of a gain pattern."""
    if any(not (0.0 < x < 100.0) for x in percentiles):
        raise ValueError("percentiles must lie in (0, 100)")
    w = pattern.directions.weights
    g = linear_from_db(pattern.gains_db)
    order, cum = _weighted_cdf(g, w)
    values = g[order[_percentile_ranks(cum, percentiles)]]
    mean_db = db_from_linear(float(np.dot(w, g)))
    pct = {float(x): db_from_linear(v) for x, v in zip(percentiles, values)}
    cdf = np.column_stack([db_from_linear(g[order]), cum])
    return CoverageStats(mean_db=mean_db, percentiles=pct, cdf=cdf, order=order)


def write_pattern_csv(pattern: GainPattern, path) -> None:
    """One row per direction; its cells are formatted once per direction set and once per pattern."""
    write_csv_cells(path, PATTERN_CSV_HEADER, pattern.csv_cells)


def _cdf_cells(stats: CoverageStats, pattern: GainPattern) -> np.ndarray:
    """The CDF as (n, 2) ``float.__repr__`` cells; a gain equal bit for bit to its pattern gain reuses that cell."""
    gains, cum = stats.cdf.T
    shared = gains.view(np.int64) == pattern.gains_db[stats.order].view(np.int64)
    cells = np.empty(stats.cdf.shape, dtype=object)
    cells[shared, 0] = pattern.csv_cells[-1][stats.order[shared]]
    cells[~shared, 0] = list(map(float.__repr__, gains[~shared].tolist()))
    cells[:, 1] = list(map(float.__repr__, cum.tolist()))
    return cells


def write_stats_json(stats: CoverageStats, pattern: GainPattern, path) -> None:
    """Write the stats of ``pattern`` (see :func:`coverage_stats`) as JSON; a finite CDF goes to the writer as cells."""
    write_json({
        "mean_db": stats.mean_db,
        "percentiles": {f"{x:g}": v for x, v in sorted(stats.percentiles.items())},
        "cdf": _cdf_cells(stats, pattern) if np.isfinite(stats.cdf).all() else stats.cdf.tolist(),
    }, path)
