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

import contextlib
import json
import math
import os
import zlib
from functools import cached_property, partial
from pathlib import Path
from typing import Sequence

import numpy as np

from ._frozen import Frozen, check_count

# Impedance of free space, ohms.
FREE_SPACE_IMPEDANCE_OHMS = 376.730313668

# Realized gain = GAIN_FACTOR * w^H M w for fields stored in volts.
GAIN_FACTOR = 2.0 * math.pi / FREE_SPACE_IMPEDANCE_OHMS

GRID_CSV_HEADER = "elem,theta_deg,phi_deg,re_etheta,im_etheta,re_ephi,im_ephi"


class GridFormatError(ValueError):
    """Raised when an E-field CSV file does not conform to the grid schema."""


class DirectionSet(Frozen):
    """A weighted set of directions used for sphere averages.

    Weights are nonnegative quadrature weights summing to one; a uniform
    weighting corresponds to equal-area sampling of the sphere.
    """

    def __init__(self, theta, phi, weights):
        theta = np.array(theta, dtype=float)
        phi = np.array(phi, dtype=float)
        weights = np.array(weights, dtype=float)
        if not (theta.shape == phi.shape == weights.shape) or theta.ndim != 1:
            raise ValueError("theta, phi and weights must be 1-D arrays of equal length")
        if theta.size == 0:
            raise ValueError("direction set is empty")
        # Written as "not <=" so that NaN fails every check.
        if not np.all((0.0 <= theta) & (theta <= 180.0)):
            raise ValueError("theta out of [0, 180]")
        if not np.all(np.abs(phi) < np.inf):
            raise ValueError("non-finite phi")
        phi = np.mod(phi, 360.0)
        phi[phi == 360.0] = 0.0  # np.mod rounds a tiny negative phi up to 360.0
        if not np.all(weights >= 0.0):
            raise ValueError("negative or NaN quadrature weight")
        if not abs(weights.sum() - 1.0) <= 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        self._set(theta=theta, phi=phi, weights=weights)

    def __len__(self) -> int:
        return self.theta.size

    @cached_property
    def csv_cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``repr_cells`` of theta, phi and weights, formatted once per set."""
        return repr_cells(self.theta), repr_cells(self.phi), repr_cells(self.weights)


class CoverageRegion(Frozen):
    """A (theta, phi) box on the sphere; the phi range may wrap through 0."""

    def __init__(self, theta_range: tuple[float, float] = (0.0, 180.0), phi_range: tuple[float, float] = (0.0, 360.0)):
        for name, pair in (("theta_range", theta_range), ("phi_range", phi_range)):
            if len(pair) != 2:
                raise ValueError(f"{name} must be a (lo, hi) pair, got {pair!r}")
        lo, hi = theta_range
        if not (0.0 <= lo <= hi <= 180.0):
            raise ValueError("theta_range must satisfy 0 <= lo <= hi <= 180")
        if not all(-math.inf < bound < math.inf for bound in phi_range):
            raise ValueError("phi_range bounds must be finite")
        self._set(theta_range=(float(lo), float(hi)), phi_range=tuple(map(float, phi_range)))

    def contains(self, theta, phi) -> np.ndarray:
        """Vectorized membership test; phi wraps through 0, and a phi span of 360 degrees or more is the full circle."""
        theta = np.asarray(theta, dtype=float)
        phi = np.mod(np.asarray(phi, dtype=float), 360.0)
        tlo, thi = self.theta_range
        in_theta = (theta >= tlo) & (theta <= thi)
        plo, phi_hi = self.phi_range
        if phi_hi - plo >= 360.0:
            return in_theta
        plo = float(np.mod(plo, 360.0))
        phi_hi = float(phi_hi if phi_hi == 360.0 else np.mod(phi_hi, 360.0))
        if plo <= phi_hi:
            in_phi = (phi >= plo) & (phi <= phi_hi)
        else:  # wraps through 0
            in_phi = (phi >= plo) | (phi <= phi_hi)
        return in_theta & in_phi


class SyntheticUlaSpec(Frozen):
    """Parameters of the synthetic uniform-linear-array field model.

    ``element_pattern_q`` is the exponent of the sin^q(theta) per-element
    power pattern (0 = isotropic).  ``sampling_factor`` sets the density
    of the cosine-uniform theta sweep: 2a+1 points with cos(theta) on a
    uniform lattice over [-1, 1]; None stores the default a = 30 * num_elements.
    """

    def __init__(self, num_elements: int, spacing_over_lambda: float, element_pattern_q: float = 0.0,
                 sampling_factor: int | None = None):
        check_count("num_elements", num_elements)
        # Written as "not <" and "not >=" so that NaN fails too.
        if not (0.0 < spacing_over_lambda < math.inf):
            raise ValueError("spacing_over_lambda must be positive and finite")
        if not (element_pattern_q >= 0.0):
            raise ValueError("element_pattern_q must be >= 0")
        sampling_factor = 30 * num_elements if sampling_factor is None else sampling_factor
        check_count("sampling_factor", sampling_factor)
        self._set(num_elements=int(num_elements), spacing_over_lambda=spacing_over_lambda,
                  element_pattern_q=element_pattern_q, sampling_factor=int(sampling_factor))


class EFieldGrid(Frozen):
    """Complex per-element E-field samples on a (theta, phi) mesh.

    ``e_theta`` and ``e_phi`` have shape (num_elements, len(theta_axis),
    len(phi_axis)) and hold the two polarization components in volts
    (distance-normalized response for 1 W incident power).
    """

    def __init__(self, array_id: str, theta_axis, phi_axis, e_theta, e_phi):
        theta_axis = np.array(theta_axis, dtype=float)
        phi_axis = np.array(phi_axis, dtype=float)
        e_theta = np.array(e_theta, dtype=complex)
        e_phi = np.array(e_phi, dtype=complex)
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
        self._set(array_id=array_id, theta_axis=theta_axis, phi_axis=phi_axis, e_theta=e_theta, e_phi=e_phi)

    @property
    def num_elements(self) -> int:
        return self.e_theta.shape[0]

    def resolve(self, dirs: DirectionSet, tol: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays (it, ip) of the mesh node nearest to each direction of ``dirs``.

        Theta and phi are rounded independently; phi distance wraps at
        360.  Equidistant nodes resolve to the lower index.  Where every
        value is a node (a snapped set) an axis costs one ``searchsorted``.
        With ``tol`` the lookup is exact: the first direction farther than
        ``tol`` from its node raises KeyError.
        """
        it, d_theta = _nearest_node(self.theta_axis, dirs.theta, circular=False)
        ip, d_phi = _nearest_node(self.phi_axis, dirs.phi, circular=True)
        off = (d_theta > tol) | (d_phi > tol) if tol is not None else False
        if np.any(off):
            k = int(np.argmax(off))
            raise KeyError(f"direction (theta={float(dirs.theta[k])}, phi={float(dirs.phi[k])}) "
                           f"is not on the mesh of '{self.array_id}'")
        return it, ip

    def fields_at(self, dirs: DirectionSet) -> tuple[np.ndarray, np.ndarray]:
        """Field matrices (num_elements, len(dirs)) at on-mesh directions."""
        it, ip = self.resolve(dirs, tol=1e-9)
        return self.e_theta[:, it, ip], self.e_phi[:, it, ip]


def _nearest_node(axis: np.ndarray, x: np.ndarray, circular: bool) -> tuple[np.ndarray, np.ndarray]:
    """Index of the axis node nearest to each x (lowest on ties) and its distance.

    Only the two nodes ``searchsorted`` brackets x with (wrapping round a
    circular axis) can be nearest, so memory stays O(len(x)).
    """
    n = axis.size
    j = np.searchsorted(axis, x)
    on = np.minimum(j, n - 1)
    if np.array_equal(axis[on], x):  # every x a node: on a strictly increasing axis it is its own nearest
        return on, np.zeros(x.shape)
    lo, hi = ((j - 1) % n, j % n) if circular else (np.maximum(j - 1, 0), on)
    d_lo, d_hi = np.abs(axis[lo] - x), np.abs(axis[hi] - x)
    if circular:
        d_lo, d_hi = np.minimum(d_lo, 360.0 - d_lo), np.minimum(d_hi, 360.0 - d_hi)
    pick_hi = (d_hi < d_lo) | ((d_hi == d_lo) & (hi < lo))
    return np.where(pick_hi, hi, lo), np.where(pick_hi, d_hi, d_lo)


def field_coherence(et: np.ndarray, ep: np.ndarray, weights=None) -> np.ndarray:
    """Sum of w_n (e_T e_T^H + e_P e_P^H) over the columns of (L, N) fields, or of each (..., L, N) stack entry."""
    if weights is not None:
        sq = np.sqrt(weights)
        et, ep = et * sq, ep * sq
    return et @ np.swapaxes(et.conj(), -1, -2) + ep @ np.swapaxes(ep.conj(), -1, -2)


def top_eigenvalues(et: np.ndarray, ep: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of e_T e_T^H + e_P e_P^H per column of (L, N) field matrices, in closed form."""
    ntt = np.sum(np.abs(et) ** 2, axis=0)
    npp = np.sum(np.abs(ep) ** 2, axis=0)
    cross = np.abs(np.sum(et.conj() * ep, axis=0)) ** 2
    half_tr = 0.5 * (ntt + npp)
    det = ntt * npp - cross
    return half_tr + np.sqrt(np.maximum(half_tr**2 - det, 0.0))


def fibonacci_directions(count: int) -> DirectionSet:
    """Quasi-uniform sphere sampling on a Fibonacci lattice, uniform weights.

    Point i of n sits at cos(theta) = 1 - (2i+1)/n with azimuth advancing
    by the golden angle.
    """
    check_count("count", count)
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
    it, ip = grid.resolve(dirs)
    return DirectionSet(grid.theta_axis[it], grid.phi_axis[ip], dirs.weights)


def _ula_element_fields(spec: SyntheticUlaSpec, cos_psi: np.ndarray) -> np.ndarray:
    """Theta-polarized field (L, *cos_psi.shape) of every element at angles psi off the array axis.

    Element l (0-based) responds with sqrt(sin^q psi) * exp(j*2*pi*(d/lambda)*
    cos(psi)*l), scaled by sqrt(eta0 / 2 pi); sin psi = sqrt(1 - cos^2 psi) is 0 on the axis.
    """
    sin_psi = np.sqrt(np.clip(1.0 - cos_psi**2, 0.0, None))
    p = sin_psi**spec.element_pattern_q if spec.element_pattern_q else np.ones_like(cos_psi)
    ell = np.arange(spec.num_elements).reshape((-1,) + (1,) * cos_psi.ndim)
    phase = 2.0 * math.pi * spec.spacing_over_lambda * cos_psi[None] * ell
    return (math.sqrt(1.0 / GAIN_FACTOR) * np.sqrt(p))[None] * np.exp(1j * phase)


def generate_ula_efield(spec: SyntheticUlaSpec, array_id: str = "ula") -> tuple[EFieldGrid, DirectionSet]:
    """Synthesize the E-field grid of an ideal uniform linear array.

    The sweep runs over 2a+1 directions with cos(theta) uniform on
    [-1, 1] (all at phi = 0), both poles at full weight (the sphere
    measure's trapezoid rule halves them): the x-uniform mean gain of a unimodular
    beam on the isotropic 4-element sweep (a = 120) is off by up to 0.054 dB.  Element l
    (0-based) responds with sqrt(p(theta)) * exp(j*2*pi*(d/lambda)*
    cos(theta)*l) in the theta polarization and zero in phi.  Stored
    fields carry the sqrt(eta0 / 2 pi) factor so the standard gain
    formula returns |w^H e|^2 of the model directly.

    Returns the grid together with its natural direction set (uniform
    weights 1/(2a+1)).
    """
    a = spec.sampling_factor
    x = (a - np.arange(2 * a + 1)) / a  # descending 1 .. -1 => ascending theta
    theta = np.degrees(np.arccos(np.clip(x, -1.0, 1.0)))
    e_theta = _ula_element_fields(spec, x)[:, :, None]
    grid = EFieldGrid(array_id=array_id, theta_axis=theta, phi_axis=np.array([0.0]), e_theta=e_theta,
                      e_phi=np.zeros_like(e_theta))
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
    e_theta = _ula_element_fields(spec, cos_psi)
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
    write_csv_cells(path, GRID_CSV_HEADER, [repr_cells(column) for column in columns])


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


def write_text(path, text: str) -> None:
    """Write an artifact's text as UTF-8 with LF line ends, on every platform."""
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def write_csv_cells(path, header: str, cells) -> str:
    """Write a header plus one row per index of equal-length columns of formatted cells (LF); return the text."""
    text = "\n".join([header, *map(",".join, zip(*(column.tolist() for column in cells)))]) + "\n"
    write_text(path, text)
    return text


def _json_number_items(values, indent: str) -> list[str] | None:
    """Item texts of a list of finite floats or of finite float pairs, by ``float.__repr__``; else None.

    An object array of shape (n,) or (n, 2) holds such texts already formatted.
    """
    if isinstance(values, np.ndarray):
        pairs, items = values.ndim == 2, values.ravel().tolist()
    else:
        # Exact types: a record (NamedTuple) is a tuple too, but not a pair.
        pairs = all(type(v) in (list, tuple) and len(v) == 2 for v in values)
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
    write_text(path, _json_text(data) + "\n")


def _parse_rows(body: list[str]) -> tuple[np.ndarray, tuple[int, str] | None]:
    """The rows of ``body``, parsed by one ``np.loadtxt`` call, and None.

    If that call rejects a row, the same call runs row by row to find the
    first one it rejects, so both passes read one number grammar; then the
    result is the rows before that one and its (row index, message).
    """
    load = partial(np.loadtxt, delimiter=",", comments=None, dtype=_GRID_ROW, ndmin=1)
    try:
        return load(body), None
    except ValueError:
        for i, line in enumerate(body):
            fields = line.count(",") + 1
            try:
                if fields != 7:
                    raise ValueError(f"expected 7 fields, got {fields}")
                load([line])
            except ValueError as exc:
                message = str(exc).replace(" at row 0, column", " in column")  # the caller names the file line
                return load(body[:i]) if i else np.empty(0, _GRID_ROW), (i, f"malformed row; {message}")
        raise


# Parsed grids are kept in this directory beside their CSV, one ``<csv name>.grid`` record
# each: a header line ``<format tag> <SHA-256 of the CSV's bytes> <CRC-32> <L> <T> <P>``, padded
# with spaces to a multiple of 8 bytes, then the bytes of _GRID_ARRAYS; the CRC-32 covers
# ``<L> <T> <P>`` and those bytes.  A hit skips the reader, so the tag is bumped whenever the
# reader changes (a test pins each tag to the reader's source).
GRID_CACHE_DIR = ".beambook-cache"
_GRID_CACHE_FORMAT = "beambook-grid-3"
_GRID_ARRAYS = (("theta_axis", "<f8"), ("phi_axis", "<f8"), ("e_theta", "<c16"), ("e_phi", "<c16"))


def load_efield(path, array_id: str | None = None) -> EFieldGrid:
    """Read a grid CSV; raises GridFormatError naming the offending line.

    The file must contain the full Cartesian product of elements and mesh
    nodes; missing or duplicate cells and non-finite samples are rejected.
    Of several defective lines the first one is reported.

    A successful parse is cached in ``GRID_CACHE_DIR`` beside the file and
    reused while the file's bytes keep the same SHA-256; a cache that
    cannot be read is ignored, and one that cannot be written is skipped.
    """
    import hashlib  # only grid files pay for the import

    path = Path(path)
    data = path.read_bytes()
    key = f"{_GRID_CACHE_FORMAT} {hashlib.sha256(data).hexdigest()}"
    cache = path.parent / GRID_CACHE_DIR / f"{path.name}.grid"
    array_id = array_id if array_id is not None else path.stem
    try:
        record = cache.read_bytes()
        start = record.index(b"\n") + 1
        tag, digest, crc, *dims = record[:start].split()
        L, T, P = map(int, dims)
        if (b"%s %s" % (tag, digest) == key.encode() and len(record) - start == 8 * (T + P + 4 * L * T * P)
                and int(crc) == zlib.crc32(memoryview(record)[start:], zlib.crc32(b" ".join(dims)))):
            fields = np.frombuffer(record, "<c16", 2 * L * T * P, start + 8 * (T + P)).reshape(2, L, T, P)
            axes = np.frombuffer(record, "<f8", T + P, start)
            return EFieldGrid(array_id, axes[:T], axes[T:], *fields)
    except Exception:  # noqa: BLE001 - a missing, truncated or foreign cache is a miss
        pass
    grid = _parse_grid(path, data.decode("utf-8"), array_id)
    _write_grid_cache(cache, key, grid, path)
    return grid


def _write_grid_cache(cache: Path, key: str, grid: EFieldGrid, source: Path) -> None:
    """Store the grid parsed from ``source`` at ``cache`` through a temp file and a rename.

    The cache gets the read and write permissions of ``source``, as a
    ``__pycache__`` file gets those of its module.  Any OSError skips the
    write and leaves no temp file behind.
    """
    import tempfile

    dims = " ".join(map(str, grid.e_theta.shape)).encode()
    body = b"".join(np.ascontiguousarray(getattr(grid, name), dtype) for name, dtype in _GRID_ARRAYS)
    head = f"{key} {zlib.crc32(body, zlib.crc32(dims))} ".encode() + dims
    try:
        cache.parent.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=cache.name, suffix=".tmp", dir=cache.parent)
    except OSError:
        return
    try:
        with os.fdopen(fd, "wb") as file:
            file.writelines((head.ljust(len(head) | 7) + b"\n", body))
        os.chmod(tmp, source.stat().st_mode & 0o666)
        os.replace(tmp, cache)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _parse_grid(path: Path, text: str, array_id: str) -> EFieldGrid:
    """The grid written in ``text``, the decoded content of the CSV at ``path``."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != GRID_CSV_HEADER:
        raise GridFormatError(f"{path}:1: bad header; expected '{GRID_CSV_HEADER}'")
    body = [line for line in lines[1:] if line.strip()]
    if not body:
        raise GridFormatError(f"{path}: empty grid")
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
        return EFieldGrid(array_id, theta_axis, phi_axis, *fields)
    except ValueError as exc:
        raise GridFormatError(f"{path}: {exc}") from None
