"""Byte identity of the artifact writers against their line-by-line formulations, and the grid reader's edge cases.

``json_reference`` and ``csv_reference`` are the straightforward writers the
package used before its one-pass formatting; every artifact must stay what
they give.
"""

import json
import math
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import beambook as bb
from beambook.efield import GRID_CSV_HEADER, GridFormatError, write_csv_columns, write_json
from beambook.metrics import PATTERN_CSV_HEADER, GainPattern, write_pattern_csv, write_stats_json


def json_reference(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def csv_reference(header: str, columns) -> str:
    cells = [map(repr, np.asarray(column).tolist()) for column in columns]
    lines = [header, *map(",".join, zip(*cells))]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------

SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1e-7, 0.1, 1e16, math.nan, math.inf, -math.inf]
floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
json_scalars = (
    floats
    | floats.map(np.float64)
    | st.integers()
    | st.booleans()
    | st.none()
    | st.text()
    | st.sampled_from(["", "\"quoted\"", "back\\slash", "tab\tnew\nline\r", "\x00\x1f\x7f", "µ°", "😀", "\ud800"])
)
json_values = st.recursive(
    json_scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=4), children, max_size=4)
        | st.dictionaries(st.integers(-3, 3), children, max_size=3)
        | st.lists(floats, max_size=5)
        | st.lists(st.tuples(floats, floats) | st.lists(floats, min_size=2, max_size=2), max_size=5)
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(data=json_values)
@example(data={"cdf": [[-0.0, 5e-324], [1e308, 1.0]], "mean_db": np.float64(3.5), "percentiles": {"50": 2.0}})
@example(data=[[math.nan, 0.0], [math.inf, -math.inf], (1.0, 2.0), [np.float64(-0.0), 1e16]])
@example(data={"a": [], "b": {}, "c": (), "d": [[]], "e": None, "f": True, "g": 7, "é\n": " "})
@example(data={"entries": [{"array": "ula", "weights": [[0.5, -0.5], [0.5, 0.5]]}], "phase_bits": None})
@example(data=[[1, 2.0], [True, 1.0], [1.0, [2.0]], [1.0, 2.0, 3.0], ["a", "b"]])
@example(data={1: [1.0, 2.0], -2: {"x": [[1.0, 2.0]]}})
def test_write_json_equals_json_dumps(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.json"
        write_json(data, path)
        assert path.read_bytes() == json_reference(data).encode("utf-8")


POOL = [-0.0, 0.0, 1.0, -1.0, 0.1, 5e-324, 1e308, -200.0, math.nan, math.inf, 1 / 3, 359.99999999999994]


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(min_value=0, max_value=40),
    pools=st.lists(st.lists(floats, min_size=1, max_size=6) | st.just(POOL), min_size=1, max_size=4),
    ints=st.booleans(),
    data=st.data(),
)
def test_write_csv_columns_equals_repr_join(rows, pools, ints, data):
    columns = [np.array(data.draw(st.lists(st.sampled_from(pool), min_size=rows, max_size=rows)), dtype=float)
               for pool in pools]
    if ints:  # an integer column, as the grid CSV's element index
        columns.insert(0, np.array(data.draw(st.lists(st.integers(-3, 3), min_size=rows, max_size=rows)), np.int64))
    header = ",".join(f"c{j}" for j in range(len(columns)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.csv"
        write_csv_columns(path, header, columns)
        assert path.read_bytes() == csv_reference(header, columns).encode("utf-8")


@settings(max_examples=50, deadline=None)
@given(
    theta=st.lists(st.sampled_from([0.0, 90.0, 180.0, 45.5, 1e-300]), min_size=1, max_size=20),
    data=st.data(),
)
def test_pattern_csv_equals_repr_join(theta, data):
    n = len(theta)
    phi = data.draw(st.lists(st.sampled_from([-0.0, 0.0, 359.5, -1.0, 720.0]), min_size=n, max_size=n))
    gains = data.draw(st.lists(st.sampled_from([-200.0, -0.0, 0.0, 3.25, 1e-7]), min_size=n, max_size=n))
    dirs = bb.DirectionSet(theta, phi, np.full(n, 1.0 / n) if n != 3 else [0.25, 0.5, 0.25])
    pattern = GainPattern(dirs, np.array(gains))
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("a.csv", "b.csv"):  # the second file reuses the direction set's cells
            write_pattern_csv(pattern, Path(tmp) / name)
            expected = csv_reference(PATTERN_CSV_HEADER, [dirs.theta, dirs.phi, dirs.weights, pattern.gains_db])
            assert (Path(tmp) / name).read_bytes() == expected.encode("utf-8")


# dB gains whose linear round trip changes some bits, the floor, signed zeros,
# and 4000 dB, whose linear gain overflows to inf (a CDF that JSON writes as Infinity).
@settings(max_examples=100, deadline=None)
@given(
    gains=st.lists(st.floats(-250.0, 60.0) | st.sampled_from([-200.0, -0.0, 0.0, 3.25, 1e-7, 4000.0]),
                   min_size=1, max_size=30),
    written=st.booleans(),
)
@example(gains=[0.1 * k for k in range(-30, 30)], written=True)
def test_stats_json_equals_json_dumps(gains, written):
    n = len(gains)
    pattern = GainPattern(bb.DirectionSet(np.linspace(0.0, 180.0, n), np.zeros(n), np.full(n, 1.0 / n)),
                          np.array(gains))
    stats = bb.coverage_stats(pattern, [20.0, 50.0])
    expected = {"mean_db": stats.mean_db, "percentiles": {"20": stats.percentiles[20.0], "50": stats.median_db},
                "cdf": stats.cdf.tolist()}
    with tempfile.TemporaryDirectory() as tmp:
        if written:  # pattern.csv first, as eval writes it: the CDF then reuses its cached gain cells
            write_pattern_csv(pattern, Path(tmp) / "pattern.csv")
        write_stats_json(stats, pattern, Path(tmp) / "stats.json")
        assert (Path(tmp) / "stats.json").read_bytes() == json_reference(expected).encode("utf-8")


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------


def saved_grid_text(tmp: Path) -> str:
    """Save a 2-element grid on a 3 x 2 mesh as ``tmp/g.csv`` (12 rows, lines 2-13) and return its text."""
    rng = np.random.default_rng(3)
    shape = (2, 3, 2)
    field = lambda: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    grid = bb.EFieldGrid("g", np.array([0.0, 90.0, 180.0]), np.array([0.0, 180.0]), field(), field())
    bb.save_efield(grid, tmp / "g.csv")
    return (tmp / "g.csv").read_text(encoding="utf-8")


def outcome(path):
    """The grid's axes and fields as bytes, or the GridFormatError message."""
    try:
        grid = bb.load_efield(path)
    except GridFormatError as exc:
        return str(exc)
    return tuple(getattr(grid, name).tobytes() for name in ("theta_axis", "phi_axis", "e_theta", "e_phi"))


def assert_loads_the_saved_grid(text: str, tmp: Path):
    (tmp / "edited.csv").write_bytes(text.encode("utf-8"))
    assert outcome(tmp / "edited.csv") == outcome(tmp / "g.csv")


def shuffled(text: str, seed: int = 0) -> str:
    header, *rows = text.splitlines()
    random.Random(seed).shuffle(rows)
    return "\n".join([header, *rows]) + "\n"


def phi_descending(text: str) -> str:
    """Rows still in (elem, theta) order, but phi descending within each pair (the grid has two phi nodes)."""
    header, *rows = text.splitlines()
    rows[0::2], rows[1::2] = rows[1::2], rows[0::2]
    return "\n".join([header, *rows]) + "\n"


# Each edit of the saved text, with the message it must fail with after the
# file's path, or None where it must load to the saved grid bit for bit.
EDITS = {
    "blank lines": (lambda t: t.replace("\n", "\n\n", 3) + "\n\n", None),
    "CRLF line ends": (lambda t: t.replace("\n", "\r\n"), None),
    "whitespace-only line": (lambda t: t.replace("\n", "\n \t \n", 2), None),
    # str.splitlines breaks lines at a form feed, so it splits the row.
    "form feed inside a line": (
        lambda t: t.replace(",", ",\x0c", 9).replace(",\x0c", ",", 8),
        ":2: malformed row; expected 7 fields, got 4",
    ),
    "form feed ending a line": (lambda t: t.replace("\n", "\x0c\n", 4), None),
    "shuffled rows": (shuffled, None),
    "phi out of order only": (phi_descending, None),
    "shuffled rows, CRLF": (lambda t: shuffled(t, 1).replace("\n", "\r\n"), None),
    "lone CR": (lambda t: t.replace("\n", "\r"), None),
    "no final newline": (lambda t: t.rstrip("\n"), None),
    "header only": (lambda t: t.splitlines()[0] + "\n \n\n", ": empty grid"),
    "empty file": (lambda t: "", f":1: bad header; expected '{GRID_CSV_HEADER}'"),
    "padded header": (lambda t: "  " + t, None),
    "duplicate first row at the end": (
        lambda t: t + t.splitlines()[1] + "\n",
        ":14: duplicate sample for elem=0, theta=0.0, phi=0.0",
    ),
    "duplicate row after blank lines": (
        lambda t: t.replace("\n", "\n\n \n", 1) + t.splitlines()[1] + "\n",
        ":16: duplicate sample for elem=0, theta=0.0, phi=0.0",
    ),
}


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_reader_edge_cases(edit, tmp_path):
    change, message = EDITS[edit]
    text = change(saved_grid_text(tmp_path))
    if message is None:
        assert_loads_the_saved_grid(text, tmp_path)
    else:
        (tmp_path / "edited.csv").write_bytes(text.encode("utf-8"))
        assert outcome(tmp_path / "edited.csv") == f"{tmp_path / 'edited.csv'}{message}"


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    line_end=st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\r\n\n"]),
    blanks=st.lists(st.tuples(st.integers(min_value=1, max_value=13), st.sampled_from(["", " ", " \t "])), max_size=4),
)
def test_reordered_rows_with_any_line_breaks_load_bit_for_bit(seed, line_end, blanks):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        lines = shuffled(saved_grid_text(tmp), seed).splitlines()
        for at, blank in blanks:
            lines.insert(at, blank)
        assert_loads_the_saved_grid(line_end.join(lines) + line_end, tmp)
