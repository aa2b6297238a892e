"""Property tests of the vectorised mesh resolve and the grid CSV reader/writer."""

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
        it, ip = grid.resolve(t, p)
        assert np.array_equal(it, brute_nearest(grid.theta_axis, t, circular=False))
        assert np.array_equal(ip, brute_nearest(grid.phi_axis, np.mod(p, 360.0), circular=True))


@settings(max_examples=50, deadline=None)
@given(
    elements=st.integers(min_value=1, max_value=8),
    a=st.integers(min_value=1, max_value=60),
    theta=st.lists(st.floats(min_value=0.0, max_value=180.0), min_size=1, max_size=50),
)
def test_resolve_on_the_ula_sweep(elements, a, theta):
    grid, dirs = bb.generate_ula_efield(bb.SyntheticUlaSpec(elements, 0.5, sampling_factor=a))
    it, ip = grid.resolve(dirs.theta, dirs.phi, tol=1e-9)
    assert np.array_equal(it, np.arange(len(dirs))) and not ip.any()
    t = np.asarray(theta)
    assert np.array_equal(grid.resolve(t, np.zeros_like(t))[0], brute_nearest(grid.theta_axis, t, False))
    et, _ = grid.fields_at(dirs)
    assert np.array_equal(et, grid.e_theta[:, :, 0])


def test_fields_at_names_the_first_off_mesh_direction():
    grid = make_grid([0.0, 10.0], [0.0, 10.0])
    dirs = bb.DirectionSet(np.array([0.0, 5.0, 7.0]), np.array([10.0, 0.0, 0.0]), np.full(3, 1 / 3))
    with pytest.raises(KeyError, match=r"theta=5\.0, phi=0\.0"):
        grid.fields_at(dirs)


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
        back = bb.load_efield(path, array_id="g")
    for name in ("theta_axis", "phi_axis"):
        assert getattr(back, name).tobytes() == getattr(grid, name).tobytes()
    for name in ("e_theta", "e_phi"):
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
