"""Property tests of the vectorised mesh resolve and the grid CSV reader/writer."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import beambook as bb


def brute_nearest(axis: np.ndarray, x: np.ndarray, circular: bool) -> np.ndarray:
    """Full (N, len(axis)) distance matrix and argmin: lowest index on ties."""
    d = np.abs(axis[None, :] - x[:, None])
    if circular:
        d = np.minimum(d, 360.0 - d)
    return np.argmin(d, axis=1)


def directions(theta, phi) -> bb.DirectionSet:
    """Equally weighted directions."""
    return bb.DirectionSet(theta, phi, np.full(len(theta), 1.0 / len(theta)))


def make_grid(theta_axis, phi_axis, num_elements=1) -> bb.EFieldGrid:
    shape = (num_elements, len(theta_axis), len(phi_axis))
    return bb.EFieldGrid("g", np.asarray(theta_axis, float), np.asarray(phi_axis, float),
                         np.zeros(shape, complex), np.zeros(shape, complex))


def axis_strategy(upper: float, closed: bool):
    """Strictly increasing axes in [0, upper] (or [0, upper)), nodes at least 1e-3 apart."""
    def build(args):
        start, gaps = args
        axis = start + np.concatenate([[0.0], np.cumsum(gaps)])
        return axis[(axis <= upper) if closed else (axis < upper)]

    gaps = st.lists(st.floats(min_value=1e-3, max_value=upper / 2), max_size=12)
    return st.tuples(st.floats(min_value=0.0, max_value=upper / 4), gaps).map(build).filter(len)


def midpoints(axis: np.ndarray, circular: bool) -> np.ndarray:
    """Points halfway between neighbours, plus the wrap-around one on a circle."""
    mids = (axis[:-1] + axis[1:]) / 2.0
    if circular:
        mids = np.append(mids, np.mod((axis[-1] + axis[0] + 360.0) / 2.0, 360.0))
    return mids


@settings(max_examples=200, deadline=None)
@given(
    theta_axis=axis_strategy(180.0, closed=True),
    phi_axis=axis_strategy(360.0, closed=False),
    theta=st.lists(st.floats(min_value=0.0, max_value=180.0), min_size=1, max_size=20),
    phi=st.lists(st.floats(min_value=-720.0, max_value=720.0), min_size=1, max_size=20),
)
@example(theta_axis=np.array([90.0]), phi_axis=np.array([0.0]), theta=[0.0, 180.0], phi=[180.0, -0.0])
@example(theta_axis=np.array([0.0, 2.0]), phi_axis=np.array([10.0, 350.0]), theta=[1.0], phi=[0.0, 180.0, 360.0])
def test_resolve_equals_brute_force_argmin(theta_axis, phi_axis, theta, phi):
    grid = make_grid(theta_axis, phi_axis)
    n = min(len(theta), len(phi))
    # random points, every node, and the exact midpoints (ties) including the phi wrap at 0/360
    thetas = np.concatenate([theta[:n], theta_axis, midpoints(theta_axis, False)])
    phis = np.concatenate([phi[:n], phi_axis, midpoints(phi_axis, True)])
    for t, p in ((thetas, np.resize(phis, thetas.size)), (np.resize(thetas, phis.size), phis)):
        dirs = directions(t, p)
        it, ip = grid.resolve(dirs)
        assert np.array_equal(it, brute_nearest(grid.theta_axis, dirs.theta, circular=False))
        assert np.array_equal(ip, brute_nearest(grid.phi_axis, dirs.phi, circular=True))


@settings(max_examples=50, deadline=None)
@given(
    elements=st.integers(min_value=1, max_value=8),
    a=st.integers(min_value=1, max_value=60),
    theta=st.lists(st.floats(min_value=0.0, max_value=180.0), min_size=1, max_size=50),
)
def test_resolve_on_the_ula_sweep(elements, a, theta):
    grid, dirs = bb.generate_ula_efield(bb.SyntheticUlaSpec(elements, 0.5, sampling_factor=a))
    it, ip = grid.resolve(dirs, tol=1e-9)
    assert np.array_equal(it, np.arange(len(dirs))) and not ip.any()
    t = np.asarray(theta)
    assert np.array_equal(grid.resolve(directions(t, np.zeros_like(t)))[0], brute_nearest(grid.theta_axis, t, False))
    et, _ = grid.fields_at(dirs)
    assert np.array_equal(et, grid.e_theta[:, :, 0])


def test_fields_at_names_the_first_off_mesh_direction():
    grid = make_grid([0.0, 10.0], [0.0, 10.0])
    dirs = bb.DirectionSet(np.array([0.0, 5.0, 7.0]), np.array([10.0, 0.0, 0.0]), np.full(3, 1 / 3))
    with pytest.raises(KeyError, match=r"theta=5\.0, phi=0\.0"):
        grid.fields_at(dirs)


def brute_distance(axis: np.ndarray, x: np.ndarray, circular: bool) -> np.ndarray:
    d = np.abs(axis[None, :] - x[:, None])
    return np.min(np.minimum(d, 360.0 - d) if circular else d, axis=1)


# One query: a theta node and a phi node (indices taken modulo the axis length), the form phi node 0.0 is
# given in, a nudge off the theta node (0: none; 2e-9 and 1e-6 are off the mesh but within np.isclose of
# the node), and an off-node theta and phi that replace the nodes where their flag is set.
QUERY = st.tuples(st.integers(0, 99), st.integers(0, 99), st.sampled_from([0.0, -0.0, 360.0]),
                  st.sampled_from([0.0, 0.0, 0.0, 2e-9, -2e-9, 1e-6]),
                  st.booleans(), st.floats(0.0, 180.0), st.booleans(), st.floats(0.0, 360.0, exclude_max=True))


@settings(max_examples=300, deadline=None)
@given(
    theta_axis=axis_strategy(180.0, closed=True),
    phi_axis=axis_strategy(360.0, closed=False),
    queries=st.lists(QUERY, min_size=1, max_size=20),
)
@example(theta_axis=np.array([0.0, 90.0]), phi_axis=np.array([0.0, 270.0]),
         queries=[(0, 0, -0.0, 0.0, False, 0.0, False, 0.0), (1, 0, 360.0, 0.0, False, 0.0, False, 0.0),
                  (0, 1, 0.0, 0.0, False, 0.0, False, 0.0)])
@example(theta_axis=np.array([0.0, 90.0]), phi_axis=np.array([0.0, 270.0]),
         queries=[(1, 1, 0.0, 0.0, False, 0.0, False, 0.0), (0, 0, 360.0, 0.0, False, 0.0, True, 359.0)])
@example(theta_axis=np.array([0.0, 90.0]), phi_axis=np.array([0.0, 270.0]),
         queries=[(1, 1, 0.0, 1e-6, False, 0.0, False, 0.0)])
def test_exact_node_lookup_equals_brute_force(theta_axis, phi_axis, queries):
    """All-node queries, which take the one-``searchsorted`` path, and node/off-node mixes, which do not.

    Node 0.0 is given as theta -0.0 and as phi 0.0, -0.0 or 360.0 (each 0.0 once normalized).
    """
    it_node, ip_node, zero, nudge, theta_off, theta_value, phi_off, phi_value = (np.array(c) for c in zip(*queries))
    theta = theta_axis[it_node % theta_axis.size]
    theta = np.where(nudge != 0.0, np.clip(theta + nudge, 0.0, 180.0), np.where(theta == 0.0, -0.0, theta))
    theta = np.where(theta_off, theta_value, theta)
    phi = phi_axis[ip_node % phi_axis.size]
    phi = np.where(phi_off, phi_value, np.where(phi == 0.0, zero, phi))
    shape = (2, theta_axis.size, phi_axis.size)
    e = np.arange(np.prod(shape)).reshape(shape) * (1 + 1j)
    grid = bb.EFieldGrid("g", theta_axis, phi_axis, e, -e)

    dirs = directions(theta, phi)
    it, ip = grid.resolve(dirs)
    assert np.array_equal(it, brute_nearest(theta_axis, dirs.theta, circular=False))
    assert np.array_equal(ip, brute_nearest(phi_axis, dirs.phi, circular=True))
    far = (brute_distance(theta_axis, dirs.theta, False) > 1e-9) | (brute_distance(phi_axis, dirs.phi, True) > 1e-9)
    if far.any():
        k = int(np.argmax(far))
        named = re.escape(f"(theta={float(dirs.theta[k])}, phi={float(dirs.phi[k])})")
        with pytest.raises(KeyError, match=named):
            grid.fields_at(dirs)
    else:
        et, ep = grid.fields_at(dirs)
        assert np.array_equal(et, e[:, it, ip]) and np.array_equal(ep, -e[:, it, ip])


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    num_elements=st.integers(min_value=1, max_value=3),
    theta_axis=axis_strategy(180.0, closed=True),
    phi_axis=axis_strategy(360.0, closed=False),
    data=st.data(),
)
def test_save_load_round_trip_is_bit_exact(num_elements, theta_axis, phi_axis, data):
    shape = (num_elements, theta_axis.size, phi_axis.size)
    size = int(np.prod(shape))
    fields = []
    for _ in range(2):
        field = np.empty(shape, complex)  # parts set one by one, so -0.0 keeps its sign
        field.real = np.reshape(data.draw(st.lists(finite, min_size=size, max_size=size)), shape)
        field.imag = np.reshape(data.draw(st.lists(finite, min_size=size, max_size=size)), shape)
        fields.append(field)
    grid = bb.EFieldGrid("g", theta_axis, phi_axis, *fields)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.csv"
        bb.save_efield(grid, path)
        loads = [bb.load_efield(path, array_id="g") for _ in range(2)]  # a parse, then the cached record
    for back in loads:
        for name in ("theta_axis", "phi_axis", "e_theta", "e_phi"):
            assert getattr(back, name).tobytes() == getattr(grid, name).tobytes()


# Each defect rewrites one data line of a valid grid CSV.
DEFECTS = {
    "field count": lambda line, first: line + ",0",
    "unparsable": lambda line, first: ",".join(line.split(",")[:3] + ["abc"] + line.split(",")[4:]),
    "non-finite": lambda line, first: ",".join(line.split(",")[:3] + ["nan"] + line.split(",")[4:]),
    "negative element": lambda line, first: "-1" + line[line.index(","):],
    "duplicate": lambda line, first: first,
}


@settings(max_examples=100, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(sorted(DEFECTS)), min_size=2, max_size=2, unique=True),
    lines=st.lists(st.integers(min_value=3, max_value=13), min_size=2, max_size=2, unique=True),
)
def test_two_defects_report_the_earlier_line(kinds, lines):
    grid = make_grid([0.0, 90.0, 180.0], [0.0, 180.0], num_elements=2)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.csv"
        bb.save_efield(grid, path)
        text = path.read_text().splitlines()
        first = text[1]
        for kind, lineno in zip(kinds, lines):
            text[lineno - 1] = DEFECTS[kind](text[lineno - 1], first)
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(bb.GridFormatError) as info:
            bb.load_efield(path)
    assert str(info.value).startswith(f"{path}:{min(lines)}: ")
