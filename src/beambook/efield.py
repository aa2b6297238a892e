"""Per-element E-field data: grids, direction sets, and coherence matrices.

An antenna array is described by the complex E-field response of each
element, sampled on a (theta, phi) mesh and split into the two transverse
polarization components.  Everything downstream (beam design, codebook
synthesis, coverage evaluation) consumes this data only through the
coherence matrix ``M = e_T e_T^H + e_P e_P^H`` and its quadratic forms,
so the data source (EM simulation export, measurement, or the synthetic
linear-array generator below) is interchangeable.

All angles are degrees: theta (zenith) in [0, 180], phi (azimuth) in
[0, 360).  Grids and direction sets are immutable after construction and
all functions here except the file readers and writers are pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

# Impedance of free space, ohms.
FREE_SPACE_IMPEDANCE_OHMS = 376.730313668

# Realized gain = GAIN_FACTOR * w^H M w for fields stored in volts.
GAIN_FACTOR = 2.0 * math.pi / FREE_SPACE_IMPEDANCE_OHMS

GRID_CSV_HEADER = "elem,theta_deg,phi_deg,re_etheta,im_etheta,re_ephi,im_ephi"


class GridFormatError(ValueError):
    """Raised when an E-field CSV file does not conform to the grid schema."""


class Direction(NamedTuple):
    """A single far-field direction, degrees."""

    theta: float
    phi: float


def _normalize_phi(phi):
    return np.mod(phi, 360.0)


@dataclass(frozen=True)
class DirectionSet:
    """A weighted set of directions used for sphere averages.

    Weights are nonnegative quadrature weights summing to one; a uniform
    weighting corresponds to equal-area sampling of the sphere.
    """

    theta: np.ndarray
    phi: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        theta = np.array(self.theta, dtype=float)
        phi = np.array(self.phi, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if not (theta.shape == phi.shape == weights.shape) or theta.ndim != 1:
            raise ValueError("theta, phi and weights must be 1-D arrays of equal length")
        if theta.size == 0:
            raise ValueError("direction set is empty")
        # Written as "not <=" so that NaN fails every check.
        if not np.all((0.0 <= theta) & (theta <= 180.0)):
            raise ValueError("theta out of [0, 180]")
        if not np.all(np.abs(phi) < np.inf):
            raise ValueError("non-finite phi")
        phi = _normalize_phi(phi)
        if not np.all(weights >= 0.0):
            raise ValueError("negative or NaN quadrature weight")
        if not abs(weights.sum() - 1.0) <= 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        for name, arr in (("theta", theta), ("phi", phi), ("weights", weights)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __eq__(self, other):
        """Equal when theta, phi and weights are exactly equal, entry by entry."""
        if not isinstance(other, DirectionSet):
            return NotImplemented
        return (
            np.array_equal(self.theta, other.theta)
            and np.array_equal(self.phi, other.phi)
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self):
        # Python floats that compare equal hash equal (0.0 and -0.0 too), as array_equal needs.
        return hash((tuple(self.theta.tolist()), tuple(self.phi.tolist()), tuple(self.weights.tolist())))

    def __len__(self) -> int:
        return self.theta.size

    def __iter__(self) -> Iterator[Direction]:
        for t, p in zip(self.theta, self.phi):
            yield Direction(float(t), float(p))

    @property
    def directions(self) -> list[Direction]:
        return list(self)

    @cached_property
    def csv_cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``repr_cells`` of theta, phi and weights, formatted once per set."""
        return repr_cells(self.theta), repr_cells(self.phi), repr_cells(self.weights)


@dataclass(frozen=True)
class CoverageRegion:
    """A (theta, phi) box on the sphere; the phi range may wrap through 0."""

    theta_range: tuple[float, float] = (0.0, 180.0)
    phi_range: tuple[float, float] = (0.0, 360.0)

    def __post_init__(self):
        lo, hi = self.theta_range
        if not (0.0 <= lo <= hi <= 180.0):
            raise ValueError("theta_range must satisfy 0 <= lo <= hi <= 180")

    def contains(self, theta, phi) -> np.ndarray:
        """Vectorized membership test; phi wraparound handled."""
        theta = np.asarray(theta, dtype=float)
        phi = _normalize_phi(np.asarray(phi, dtype=float))
        tlo, thi = self.theta_range
        in_theta = (theta >= tlo) & (theta <= thi)
        plo, phi_hi = self.phi_range
        if plo == 0.0 and phi_hi >= 360.0:
            return in_theta
        plo = float(np.mod(plo, 360.0))
        phi_hi = float(phi_hi if phi_hi == 360.0 else np.mod(phi_hi, 360.0))
        if plo <= phi_hi:
            in_phi = (phi >= plo) & (phi <= phi_hi)
        else:  # wraps through 0
            in_phi = (phi >= plo) | (phi <= phi_hi)
        return in_theta & in_phi


@dataclass(frozen=True)
class SyntheticUlaSpec:
    """Parameters of the synthetic uniform-linear-array field model.

    ``element_pattern_q`` is the exponent of the sin^q(theta) per-element
    power pattern (0 = isotropic).  ``sampling_factor`` sets the density
    of the cosine-uniform theta sweep: 2a+1 points with cos(theta) on a
    uniform lattice over [-1, 1]; default a = 30 * num_elements.
    """

    num_elements: int
    spacing_over_lambda: float
    element_pattern_q: float = 0.0
    sampling_factor: int | None = None

    def __post_init__(self):
        if self.num_elements < 1:
            raise ValueError("num_elements must be >= 1")
        if self.spacing_over_lambda <= 0.0:
            raise ValueError("spacing_over_lambda must be positive")
        if self.element_pattern_q < 0.0:
            raise ValueError("element_pattern_q must be >= 0")
        if self.sampling_factor is not None and self.sampling_factor < 1:
            raise ValueError("sampling_factor must be >= 1")

    @property
    def effective_sampling_factor(self) -> int:
        return self.sampling_factor if self.sampling_factor is not None else 30 * self.num_elements


@dataclass(frozen=True)
class EFieldGrid:
    """Complex per-element E-field samples on a (theta, phi) mesh.

    ``e_theta`` and ``e_phi`` have shape (num_elements, len(theta_axis),
    len(phi_axis)) and hold the two polarization components in volts
    (distance-normalized response for 1 W incident power).
    """

    array_id: str
    theta_axis: np.ndarray
    phi_axis: np.ndarray
    e_theta: np.ndarray
    e_phi: np.ndarray

    def __post_init__(self):
        theta_axis = np.asarray(self.theta_axis, dtype=float)
        phi_axis = np.asarray(self.phi_axis, dtype=float)
        e_theta = np.asarray(self.e_theta, dtype=complex)
        e_phi = np.asarray(self.e_phi, dtype=complex)
        if theta_axis.ndim != 1 or phi_axis.ndim != 1:
            raise ValueError("axes must be 1-D")
        if np.any(np.diff(theta_axis) <= 0) or np.any(np.diff(phi_axis) <= 0):
            raise ValueError("axes must be strictly increasing")
        if np.any(theta_axis < 0) or np.any(theta_axis > 180):
            raise ValueError("theta_axis out of [0, 180]")
        if np.any(phi_axis < 0) or np.any(phi_axis >= 360):
            raise ValueError("phi_axis out of [0, 360)")
        expected = (e_theta.shape[0], theta_axis.size, phi_axis.size)
        if e_theta.shape != expected or e_phi.shape != e_theta.shape:
            raise ValueError(f"field tensors must have shape {expected}")
        if e_theta.shape[0] < 1:
            raise ValueError("grid must contain at least one element")
        if not (np.all(np.isfinite(e_theta)) and np.all(np.isfinite(e_phi))):
            raise ValueError("non-finite field sample")
        for name, arr in (
            ("theta_axis", theta_axis),
            ("phi_axis", phi_axis),
            ("e_theta", e_theta),
            ("e_phi", e_phi),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_elements(self) -> int:
        return self.e_theta.shape[0]

    def resolve(self, theta, phi, tol: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays (it, ip) of the mesh node nearest to each direction.

        Theta and phi are rounded independently; phi distance wraps at
        360.  Equidistant nodes resolve to the lower index.  With ``tol``
        the lookup is exact: the first direction farther than ``tol`` from
        its node raises KeyError.
        """
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        it, d_theta = _nearest_node(self.theta_axis, theta, circular=False)
        ip, d_phi = _nearest_node(self.phi_axis, _normalize_phi(phi), circular=True)
        off = (d_theta > tol) | (d_phi > tol) if tol is not None else False
        if np.any(off):
            k = int(np.argmax(off))
            raise KeyError(f"direction (theta={float(theta.flat[k])}, phi={float(phi.flat[k])}) "
                           f"is not on the mesh of '{self.array_id}'")
        return it, ip

    def index_of(self, theta: float, phi: float, tol: float = 1e-9) -> tuple[int, int]:
        """Exact mesh lookup of one direction; raises KeyError off the mesh."""
        it, ip = self.resolve([theta], [phi], tol)
        return int(it[0]), int(ip[0])

    def fields_at(self, dirs: DirectionSet) -> tuple[np.ndarray, np.ndarray]:
        """Field matrices (num_elements, len(dirs)) at on-mesh directions."""
        it, ip = self.resolve(dirs.theta, dirs.phi, tol=1e-9)
        return self.e_theta[:, it, ip], self.e_phi[:, it, ip]


def _nearest_node(axis: np.ndarray, x: np.ndarray, circular: bool) -> tuple[np.ndarray, np.ndarray]:
    """Index of the axis node nearest to each x (lowest on ties) and its distance.

    Only the two nodes ``searchsorted`` brackets x with (wrapping round a
    circular axis) can be nearest, so memory stays O(len(x)).
    """
    n = axis.size
    j = np.searchsorted(axis, x)
    lo, hi = ((j - 1) % n, j % n) if circular else (np.maximum(j - 1, 0), np.minimum(j, n - 1))
    d_lo, d_hi = np.abs(axis[lo] - x), np.abs(axis[hi] - x)
    if circular:
        d_lo, d_hi = np.minimum(d_lo, 360.0 - d_lo), np.minimum(d_hi, 360.0 - d_hi)
    pick_hi = (d_hi < d_lo) | ((d_hi == d_lo) & (hi < lo))
    return np.where(pick_hi, hi, lo), np.where(pick_hi, d_hi, d_lo)


def field_coherence(et: np.ndarray, ep: np.ndarray, weights=None) -> np.ndarray:
    """Sum of w_n (e_T e_T^H + e_P e_P^H) over the columns of (L, N) field matrices (w_n = 1 if None)."""
    if weights is not None:
        sq = np.sqrt(weights)
        et, ep = et * sq, ep * sq
    return et @ et.conj().T + ep @ ep.conj().T


def top_eigenvalues(et: np.ndarray, ep: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of e_T e_T^H + e_P e_P^H per column of (L, N) field matrices, in closed form."""
    ntt = np.sum(np.abs(et) ** 2, axis=0)
    npp = np.sum(np.abs(ep) ** 2, axis=0)
    cross = np.abs(np.sum(et.conj() * ep, axis=0)) ** 2
    half_tr = 0.5 * (ntt + npp)
    det = ntt * npp - cross
    return half_tr + np.sqrt(np.maximum(half_tr**2 - det, 0.0))


def coherence_sum(grid: EFieldGrid, directions: Iterable[Direction], weights=None) -> np.ndarray:
    """Sum of coherence matrices over a set of on-mesh directions.

    The coherence matrix of one direction is the sum of the outer products
    of its two polarization field vectors: Hermitian PSD, rank <= 2, and
    its quadratic form gives the realized field power.  Optional
    nonnegative per-direction weights scale each term (used for
    quadrature-weighted accumulation); the plain sum is the default.
    """
    dirs = list(directions)
    it, ip = grid.resolve([d.theta for d in dirs], [d.phi for d in dirs], tol=1e-9)
    return field_coherence(grid.e_theta[:, it, ip], grid.e_phi[:, it, ip], weights)


def fibonacci_directions(count: int) -> DirectionSet:
    """Quasi-uniform sphere sampling on a Fibonacci lattice, uniform weights.

    Point i of n sits at cos(theta) = 1 - (2i+1)/n with azimuth advancing
    by the golden angle.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    i = np.arange(count)
    z = 1.0 - (2.0 * i + 1.0) / count
    theta = np.degrees(np.arccos(np.clip(z, -1.0, 1.0)))
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    phi = np.mod(360.0 * i / golden, 360.0)
    return DirectionSet(theta, phi, np.full(count, 1.0 / count))


def mesh_directions(grid: EFieldGrid) -> DirectionSet:
    """All mesh nodes of a uniform (theta, phi) lattice, sin(theta)-weighted.

    The weights realize the sin(theta) dtheta dphi sphere measure for
    uniformly spaced axes; use the generator's own direction set for
    cosine-uniform synthetic grids instead.
    """
    tt, pp = np.meshgrid(grid.theta_axis, grid.phi_axis, indexing="ij")
    w = np.sin(np.radians(tt)).ravel()
    total = w.sum()
    if total <= 0.0:
        raise ValueError("mesh has no interior nodes; all weights vanish")
    return DirectionSet(tt.ravel(), pp.ravel(), w / total)


def snap_to_grid(dirs: DirectionSet, grid: EFieldGrid) -> DirectionSet:
    """Replace each direction by its nearest mesh node; weights unchanged.

    Duplicates are retained so that quadrature weights keep their meaning.
    """
    it, ip = grid.resolve(dirs.theta, dirs.phi)
    return DirectionSet(grid.theta_axis[it], grid.phi_axis[ip], dirs.weights)


def generate_ula_efield(spec: SyntheticUlaSpec, array_id: str = "ula") -> tuple[EFieldGrid, DirectionSet]:
    """Synthesize the E-field grid of an ideal uniform linear array.

    The sweep runs over 2a+1 directions with cos(theta) uniform on
    [-1, 1] (all at phi = 0), which makes the uniform-weight average the
    exact sphere measure for this axially symmetric model.  Element l
    (0-based) responds with sqrt(p(theta)) * exp(j*2*pi*(d/lambda)*
    cos(theta)*l) in the theta polarization and zero in phi.  Stored
    fields carry the sqrt(eta0 / 2 pi) factor so the standard gain
    formula returns |w^H e|^2 of the model directly.

    Returns the grid together with its natural direction set (uniform
    weights 1/(2a+1)).
    """
    a = spec.effective_sampling_factor
    L = spec.num_elements
    x = (a - np.arange(2 * a + 1)) / a  # descending 1 .. -1 => ascending theta
    theta = np.degrees(np.arccos(np.clip(x, -1.0, 1.0)))
    p = np.sin(np.arccos(np.clip(x, -1.0, 1.0))) ** spec.element_pattern_q if spec.element_pattern_q else np.ones_like(x)
    ell = np.arange(L)
    phase = 2.0 * math.pi * spec.spacing_over_lambda * x[None, :] * ell[:, None]
    scale = math.sqrt(1.0 / GAIN_FACTOR)
    e_theta = (scale * np.sqrt(p))[None, :] * np.exp(1j * phase)
    grid = EFieldGrid(
        array_id=array_id,
        theta_axis=theta,
        phi_axis=np.array([0.0]),
        e_theta=e_theta[:, :, None],
        e_phi=np.zeros((L, theta.size, 1), dtype=complex),
    )
    dirs = DirectionSet(theta, np.zeros_like(theta), np.full(theta.size, 1.0 / theta.size))
    return grid, dirs


def oriented_ula_efield(
    spec: SyntheticUlaSpec,
    axis: Sequence[float],
    theta_axis: np.ndarray,
    phi_axis: np.ndarray,
    array_id: str,
) -> EFieldGrid:
    """Synthetic linear array with an arbitrary axis on a full (theta, phi) mesh.

    The progressive phase and element pattern are evaluated against the
    angle between the look direction and the array axis; used to stand in
    for multi-array terminals where each panel points a different way.
    """
    ax = np.asarray(axis, dtype=float)
    ax = ax / np.linalg.norm(ax)
    theta_axis = np.asarray(theta_axis, dtype=float)
    phi_axis = np.asarray(phi_axis, dtype=float)
    tt, pp = np.meshgrid(np.radians(theta_axis), np.radians(phi_axis), indexing="ij")
    n_hat = np.stack(
        [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
    )
    cos_psi = np.clip(n_hat @ ax, -1.0, 1.0)
    sin_psi = np.sqrt(np.clip(1.0 - cos_psi**2, 0.0, None))
    p = sin_psi**spec.element_pattern_q if spec.element_pattern_q else np.ones_like(cos_psi)
    ell = np.arange(spec.num_elements)
    phase = 2.0 * math.pi * spec.spacing_over_lambda * cos_psi[None, :, :] * ell[:, None, None]
    scale = math.sqrt(1.0 / GAIN_FACTOR)
    e_theta = (scale * np.sqrt(p))[None, :, :] * np.exp(1j * phase)
    return EFieldGrid(
        array_id=array_id,
        theta_axis=theta_axis,
        phi_axis=phi_axis,
        e_theta=e_theta,
        e_phi=np.zeros_like(e_theta),
    )


# One structured row per CSV line: integer element index, six float64 samples.
_GRID_ROW = np.dtype([("elem", np.int64)] + [(name, np.float64) for name in GRID_CSV_HEADER.split(",")[1:]])


def save_efield(grid: EFieldGrid, path) -> None:
    """Write a grid to CSV (one row per element and mesh node, LF endings).

    Values are written with full round-trip precision; ``load_efield`` of
    the result reproduces the grid bit for bit.
    """
    elem, it, ip = np.indices(grid.e_theta.shape).reshape(3, -1)
    columns = [elem, grid.theta_axis[it], grid.phi_axis[ip]]
    columns += [part.ravel() for field in (grid.e_theta, grid.e_phi) for part in (field.real, field.imag)]
    write_csv_columns(path, GRID_CSV_HEADER, columns)


def repr_cells(column) -> np.ndarray:
    """The ``repr`` of each value as an object array; each distinct value is formatted once.

    Floats are told apart by bit pattern, so -0.0 keeps its sign.
    """
    values, inverse = np.asarray(column), slice(None)
    if values.dtype == np.float64 or values.dtype.kind in "iu":
        keys = values.view(np.int64) if values.dtype == np.float64 else values
        keys, inverse = np.unique(keys, return_inverse=True)
        values = keys.view(values.dtype)
    return np.array(list(map(repr, values.tolist())), dtype=object)[inverse]


def write_csv_cells(path, header: str, cells) -> None:
    """Write a header plus one row per index of equal-length columns of formatted cells (LF)."""
    lines = [header, *map(",".join, zip(*(column.tolist() for column in cells)))]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_csv_columns(path, header: str, columns) -> None:
    """Write a header plus one row per index of the equal-length columns, each value as its ``repr`` (LF)."""
    write_csv_cells(path, header, [repr_cells(column) for column in columns])


def _json_number_items(values, indent: str) -> list[str] | None:
    """Item texts of a list of finite floats or of finite float pairs, by ``float.__repr__``; else None.

    An object array of shape (n,) or (n, 2) holds such texts already formatted.
    """
    if isinstance(values, np.ndarray):
        pairs, items = values.ndim == 2, values.ravel().tolist()
    else:
        pairs = all(isinstance(v, (list, tuple)) and len(v) == 2 for v in values)
        flat = [x for pair in values for x in pair] if pairs else values
        try:
            items = list(map(float.__repr__, flat))
        except TypeError:
            return None
        if not all(map(math.isfinite, flat)):
            return None
    if not pairs:
        return items
    inner, it = indent + "  ", iter(items)
    return [f"[\n{inner}{a},\n{inner}{b}\n{indent}]" for a, b in zip(it, it)]


def _json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` with every line after the first indented by ``indent``."""
    inner = indent + "  "
    if isinstance(value, (list, tuple, np.ndarray)) and len(value):
        items = _json_number_items(value, inner) or [_json_text(v, inner) for v in value]
    elif isinstance(value, dict) and value and all(isinstance(key, str) for key in value):
        items = [f"{json.dumps(key)}: {_json_text(v, inner)}" for key, v in sorted(value.items())]
    else:
        return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)
    brackets = "{}" if isinstance(value, dict) else "[]"
    return brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + indent + brackets[1]


def write_json(data, path) -> None:
    """Write a JSON artifact: ``json.dumps`` with two-space indent and sorted keys, trailing LF."""
    Path(path).write_text(_json_text(data) + "\n", encoding="utf-8", newline="\n")


def _parse_rows(body: list[str]) -> tuple[np.ndarray, tuple[int, str] | None]:
    """Slow path for rows ``np.loadtxt`` rejects: parse cell by cell up to the first malformed row.

    Returns the rows before that one and its (row index, message).
    """
    parsed = []
    for i, line in enumerate(body):
        parts = line.split(",")
        if len(parts) != 7:
            return np.array(parsed, dtype=_GRID_ROW), (i, f"malformed row; expected 7 fields, got {len(parts)}")
        try:
            parsed.append((int(parts[0]), *(float(v) for v in parts[1:])))
        except ValueError as exc:
            return np.array(parsed, dtype=_GRID_ROW), (i, f"malformed row; {exc}")
    return np.array(parsed, dtype=_GRID_ROW), None


def load_efield(path, array_id: str | None = None) -> EFieldGrid:
    """Read a grid CSV; raises GridFormatError naming the offending line.

    The file must contain the full Cartesian product of elements and mesh
    nodes; missing or duplicate cells and non-finite samples are rejected.
    Of several defective lines the first one is reported.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].strip() != GRID_CSV_HEADER:
        raise GridFormatError(f"{path}:1: bad header; expected '{GRID_CSV_HEADER}'")
    body = [line for line in lines[1:] if line.strip()]
    if not body:
        raise GridFormatError(f"{path}: empty grid")
    try:
        rows, malformed = np.loadtxt(body, delimiter=",", comments=None, dtype=_GRID_ROW, ndmin=1), None
    except ValueError:
        rows, malformed = _parse_rows(body)
    elem, theta, phi = rows["elem"], rows["theta_deg"], rows["phi_deg"]

    # Row defects as (row, rank of the check within a row, message); the least is reported.
    defects = [(malformed[0], 0, malformed[1])] if malformed else []
    samples = np.column_stack([rows[name] for name in _GRID_ROW.names[1:]])
    for rank, bad, message in (
        (1, ~np.all(np.isfinite(samples), axis=1), "non-finite sample"),
        (2, elem < 0, "negative element index"),
    ):
        if bad.any():
            defects.append((int(np.argmax(bad)), rank, message))
    order = np.lexsort((phi, theta, elem))
    repeat = np.logical_and.reduce([key[order][1:] == key[order][:-1] for key in (elem, theta, phi)])
    if repeat.any():
        i = int(order[1:][repeat].min())
        cell = f"elem={int(elem[i])}, theta={float(theta[i])}, phi={float(phi[i])}"
        defects.append((i, 3, f"duplicate sample for {cell}"))
    if defects:
        row, _, message = min(defects)
        lineno = [n for n, line in enumerate(lines[1:], start=2) if line.strip()][row]
        raise GridFormatError(f"{path}:{lineno}: {message}")

    L = int(elem.max()) + 1
    if np.unique(elem).size != L:
        raise GridFormatError(f"{path}: incomplete grid; element indices must be contiguous from 0")
    theta_axis, phi_axis = np.unique(theta), np.unique(phi)
    shape = (L, theta_axis.size, phi_axis.size)
    # Rows in (elem, theta, phi) order hold distinct cells, so the product is
    # complete iff cell k sits at sorted position k for every k.
    cell = np.ravel_multi_index(
        (elem[order], np.searchsorted(theta_axis, theta[order]), np.searchsorted(phi_axis, phi[order])), shape
    )
    misplaced = cell != np.arange(cell.size)
    if misplaced.any() or cell.size != math.prod(shape):
        l, it, ip = np.unravel_index(int(np.argmax(misplaced)) if misplaced.any() else cell.size, shape)
        raise GridFormatError(
            f"{path}: incomplete grid; missing sample for elem={int(l)}, "
            f"theta={float(theta_axis[it])}, phi={float(phi_axis[ip])}"
        )
    fields = np.empty((2, *shape), dtype=complex)  # parts set apart, so every bit (and -0.0) survives
    fields.real = np.stack([rows["re_etheta"], rows["re_ephi"]])[:, order].reshape(fields.shape)
    fields.imag = np.stack([rows["im_etheta"], rows["im_ephi"]])[:, order].reshape(fields.shape)
    try:
        return EFieldGrid(array_id if array_id is not None else path.stem, theta_axis, phi_axis, *fields)
    except ValueError as exc:
        raise GridFormatError(f"{path}: {exc}") from None
