"""The parsed-grid cache of ``load_efield``: hits are bit for bit a parse, and no cache state breaks a load.

A successful parse of ``<dir>/<name>.csv`` is stored in the record
``<dir>/.beambook-cache/<name>.csv.grid``, stamped with the SHA-256 of the
CSV's bytes and guarded by a CRC-32; a later load of the same bytes, in any
process, reads it back instead of parsing.
"""

import hashlib
import inspect
import io
import os
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest

import beambook as bb
import beambook.efield as efield
from beambook.efield import GRID_CACHE_DIR, GridFormatError

ROOT = Path(__file__).resolve().parents[1]
ARRAYS = ("theta_axis", "phi_axis", "e_theta", "e_phi")

# Two elements on a 2 x 2 mesh, rows out of order, with -0.0 in every sample column.
GRID_TEXT = """elem,theta_deg,phi_deg,re_etheta,im_etheta,re_ephi,im_ephi
1,90.0,180.0,0.125,-0.0,7.0,-8.0
0,0.0,0.0,1.0,-0.0,-0.0,0.5
0,0.0,180.0,-0.0,2.0,0.25,-0.0
0,90.0,0.0,2.5,-2.5,0.0,0.5
0,90.0,180.0,3.0,-3.0,-0.0,-0.0
1,0.0,0.0,-1.0,1e-300,5e-324,-0.0
1,0.0,180.0,0.1,0.2,0.3,0.4
1,90.0,0.0,-0.0,-0.0,-0.0,-0.0
"""

LINE_ENDS = {"LF": "\n", "CRLF": "\r\n"}


def write_grid(path: Path, text: str = GRID_TEXT, line_end: str = "\n") -> Path:
    path.write_bytes(text.replace("\n", line_end).encode("utf-8"))
    return path


def cache_of(path: Path) -> Path:
    return path.parent / GRID_CACHE_DIR / f"{path.name}.grid"


def grid_bytes(grid) -> tuple[bytes, ...]:
    return tuple(getattr(grid, name).tobytes() for name in ARRAYS)


def header_of(path: Path) -> list[str]:
    """The fields of the record's header line: tag, SHA-256, CRC-32, L, T, P."""
    return cache_of(path).read_bytes().split(b"\n", 1)[0].decode("ascii").split()


def stored_key(path: Path) -> str:
    return " ".join(header_of(path)[:2])


def write_record(cache: Path, key: str, theta_axis, phi_axis, e_theta, e_phi) -> None:
    """Write an unpadded record as the format describes it, with a valid CRC-32."""
    dims = " ".join(map(str, np.shape(e_theta)))
    body = b"".join(np.asarray(a, dtype).tobytes() for a, dtype in
                    ((theta_axis, "<f8"), (phi_axis, "<f8"), (e_theta, "<c16"), (e_phi, "<c16")))
    cache.write_bytes(f"{key} {zlib.crc32(dims.encode() + body)} {dims}\n".encode() + body)


def refuse_to_parse(monkeypatch):
    """Make any parse of a grid CSV fail, so that only a cache hit can load one."""
    def refuse(*args, **kwargs):
        raise AssertionError("the grid was parsed, not read from the cache")

    monkeypatch.setattr(efield, "_parse_grid", refuse)
    monkeypatch.setattr(np, "loadtxt", refuse)


@pytest.mark.parametrize("line_end", sorted(LINE_ENDS))
def test_hit_is_bit_identical_to_a_parse(tmp_path, monkeypatch, line_end):
    path = write_grid(tmp_path / "panel.csv", line_end=LINE_ENDS[line_end])
    parsed = bb.load_efield(path)
    assert cache_of(path).is_file()
    refuse_to_parse(monkeypatch)
    cached = bb.load_efield(path)
    assert grid_bytes(cached) == grid_bytes(parsed)
    assert cached.array_id == parsed.array_id == "panel"
    assert bb.load_efield(path, array_id="left").array_id == "left"
    # The signs of the zeros survive: e_theta[0, 0, 1] is (-0.0) + 2j, e_phi[1, 1, 0] is (-0.0) - 0j.
    assert np.signbit(cached.e_theta.real[0, 0, 1]) and not np.signbit(cached.e_theta.imag[0, 0, 1])
    assert np.signbit(cached.e_phi.real[1, 1, 0]) and np.signbit(cached.e_phi.imag[1, 1, 0])
    assert not cached.e_theta.flags.writeable


def test_a_second_process_reads_the_cache_and_never_parses(tmp_path):
    path = write_grid(tmp_path / "panel.csv")
    expected = hashlib.sha256(b"".join(grid_bytes(bb.load_efield(path)))).hexdigest()
    script = (
        "import hashlib, sys\n"
        "import numpy as np\n"
        "import beambook.efield as efield\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('the grid was parsed, not read from the cache')\n"
        "efield._parse_grid = np.loadtxt = refuse\n"
        "grid = efield.load_efield(sys.argv[1])\n"
        f"print(hashlib.sha256(b''.join(getattr(grid, name).tobytes() for name in {ARRAYS!r})).hexdigest())\n"
    )
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script, str(path)], env={**os.environ, "PYTHONPATH": pythonpath},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == expected


def test_content_change_is_a_miss_and_rewrites_the_cache(tmp_path, monkeypatch):
    path = write_grid(tmp_path / "panel.csv")
    old = bb.load_efield(path)
    old_key = stored_key(path)
    write_grid(path, GRID_TEXT.replace("0.125", "0.375"))
    new = bb.load_efield(path)
    assert new.e_theta[1, 1, 1] == 0.375 and old.e_theta[1, 1, 1] == 0.125
    assert stored_key(path) != old_key
    assert stored_key(path).endswith(hashlib.sha256(path.read_bytes()).hexdigest())
    refuse_to_parse(monkeypatch)
    assert grid_bytes(bb.load_efield(path)) == grid_bytes(new)


# The record of GRID_TEXT is a header of under 128 bytes and a body of 288.
DAMAGE = {
    "truncated": lambda data: data[: len(data) // 2],
    "garbage": lambda data: b"not a grid record\n" * 40,
    "empty": lambda data: b"",
    "bytes flipped": lambda data: data[:-200] + bytes(b ^ 0xFF for b in data[-200:-100]) + data[-100:],
    # Turns e_phi[1, 1, 1] from 7 - 8j into 7 + 8j, a grid the constructor accepts: only the CRC-32 sees it.
    "sign bit flipped": lambda data: data[:-1] + bytes([data[-1] ^ 0x80]),
    "wrong format tag": lambda data: data.replace(b"beambook-grid-3 ", b"beambook-grid-2 ", 1),
    "a plain .npy": lambda data: b"\x93NUMPY\x01\x00v\x00{'descr': '<f8', 'fortran_order': False, 'shape': (0,), }"
                                 + b" " * 50 + b"\n",
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_cache_is_a_miss_and_is_rewritten(tmp_path, monkeypatch, damage):
    path = write_grid(tmp_path / "panel.csv")
    parsed = bb.load_efield(path)
    cache_of(path).write_bytes(DAMAGE[damage](cache_of(path).read_bytes()))
    assert_miss_rewrites_the_record(path, parsed, monkeypatch)


def assert_miss_rewrites_the_record(path: Path, parsed, monkeypatch):
    record = cache_of(path).read_bytes()
    assert grid_bytes(bb.load_efield(path)) == grid_bytes(parsed)
    assert cache_of(path).read_bytes() != record
    refuse_to_parse(monkeypatch)
    assert grid_bytes(bb.load_efield(path)) == grid_bytes(parsed)


def test_record_layout(tmp_path, monkeypatch):
    path = write_grid(tmp_path / "panel.csv")
    parsed = bb.load_efield(path)
    record = cache_of(path).read_bytes()
    start = record.index(b"\n") + 1
    tag, digest, crc, *dims = header_of(path)
    assert tag == efield._GRID_CACHE_FORMAT == "beambook-grid-3"
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert dims == ["2", "2", "2"] and start % 8 == 0
    body = record[start:]
    assert body == b"".join(grid_bytes(parsed)) and len(body) == 8 * (2 + 2 + 4 * 8)
    assert int(crc) == zlib.crc32(" ".join(dims).encode() + body)
    write_record(tmp_path / "copy.grid", stored_key(path), *(getattr(parsed, name) for name in ARRAYS))
    assert (tmp_path / "copy.grid").read_bytes() == record[:start].rstrip() + b"\n" + body
    # Padded so that the body starts 3 bytes past an 8-byte boundary: still a hit.
    head = record[:start].rstrip()
    head += b" " * ((2 - len(head)) % 8) + b"\n"
    assert len(head) % 8 == 3
    cache_of(path).write_bytes(head + body)
    refuse_to_parse(monkeypatch)
    assert grid_bytes(bb.load_efield(path)) == grid_bytes(parsed)


def test_cache_with_arrays_the_grid_rejects_is_a_miss(tmp_path, monkeypatch):
    path = write_grid(tmp_path / "panel.csv")
    parsed = bb.load_efield(path)
    write_record(cache_of(path), stored_key(path), [90.0, 0.0], parsed.phi_axis, parsed.e_theta, parsed.e_phi)
    assert_miss_rewrites_the_record(path, parsed, monkeypatch)


def test_dims_edited_to_the_same_body_length_is_a_miss(tmp_path, monkeypatch):
    """T and P swapped keep 8(T + P + 4LTP) bytes, and the swapped grid is one the constructor accepts."""
    shape = (1, 3, 2)
    grid = bb.EFieldGrid("odd", [0.0, 10.0, 20.0], [30.0, 40.0], np.arange(6).reshape(shape) + 1j,
                         np.full(shape, 2.0 + 0j))
    path = tmp_path / "odd.csv"
    bb.save_efield(grid, path)
    parsed = bb.load_efield(path)
    record = cache_of(path).read_bytes()
    start = record.index(b"\n") + 1
    head = record[:start].replace(b" 1 3 2", b" 1 2 3")
    assert head != record[:start]
    cache_of(path).write_bytes(head + record[start:])
    assert_miss_rewrites_the_record(path, parsed, monkeypatch)
    assert header_of(path)[3:] == ["1", "3", "2"]


def test_grid_1_archive_is_ignored(tmp_path, monkeypatch):
    """An older reader's ``<name>.csv.npz`` is never read, even with a key for these bytes: the record goes beside it."""
    path = write_grid(tmp_path / "panel.csv")
    parsed = bb.load_efield(path)
    old = cache_of(path).with_suffix(".npz")
    np.savez(old, key=np.array(f"beambook-grid-1 {hashlib.sha256(path.read_bytes()).hexdigest()}"),
             theta_axis=parsed.theta_axis, phi_axis=parsed.phi_axis, e_theta=2 * parsed.e_theta, e_phi=parsed.e_phi)
    archive = old.read_bytes()
    cache_of(path).unlink()
    assert grid_bytes(bb.load_efield(path)) == grid_bytes(parsed)
    assert cache_of(path).is_file() and old.read_bytes() == archive
    refuse_to_parse(monkeypatch)
    assert grid_bytes(bb.load_efield(path)) == grid_bytes(parsed)


def assert_loads_without_a_trace(path: Path, parsed):
    assert grid_bytes(bb.load_efield(path)) == grid_bytes(parsed)
    assert not [p for p in path.parent.rglob("*") if p.name.endswith(".tmp")]


def test_cache_dir_that_is_a_plain_file(tmp_path):
    parsed = bb.load_efield(write_grid(tmp_path / "reference.csv"))
    folder = tmp_path / "inputs"
    folder.mkdir()
    path = write_grid(folder / "panel.csv")
    (folder / GRID_CACHE_DIR).write_text("not a directory\n")
    assert_loads_without_a_trace(path, parsed)
    assert (folder / GRID_CACHE_DIR).read_text() == "not a directory\n"


def test_read_only_directory(tmp_path):
    """Loads from a directory it may not write to; where the user may write anyway (root), the cache is written."""
    parsed = bb.load_efield(write_grid(tmp_path / "panel.csv"))
    folder = tmp_path / "read-only"
    folder.mkdir()
    path = write_grid(folder / "panel.csv")
    folder.chmod(0o555)
    try:
        assert_loads_without_a_trace(path, parsed)
        assert_loads_without_a_trace(path, parsed)
    finally:
        folder.chmod(0o755)


def _fail(*args, **kwargs):
    raise PermissionError(13, "Permission denied")


class _DiskFullFile(io.FileIO):
    """A file on a disk that fills up after the first 16 bytes of a write."""

    def write(self, data):
        super().write(bytes(data)[:16])
        raise OSError(28, "No space left on device")


# Each step of the cache write, failed as an unwritable or full disk fails it.
WRITE_FAULTS = {
    "mkdir": (Path, "mkdir", _fail),
    "mkstemp": (tempfile, "mkstemp", _fail),
    "write": (os, "fdopen", _DiskFullFile),
    "chmod": (os, "chmod", _fail),
    "replace": (os, "replace", _fail),
}


@pytest.mark.parametrize("step", sorted(WRITE_FAULTS))
def test_failed_cache_write_still_loads_and_leaves_no_temp_file(tmp_path, monkeypatch, step):
    parsed = bb.load_efield(write_grid(tmp_path / "reference.csv"))
    folder = tmp_path / "inputs"
    folder.mkdir()
    path = write_grid(folder / "panel.csv")
    target, name, fault = WRITE_FAULTS[step]
    monkeypatch.setattr(target, name, fault)
    assert_loads_without_a_trace(path, parsed)
    monkeypatch.undo()
    assert not cache_of(path).exists()


# Defective CSVs, each with the exception type and message (after the path) that the reader gave before the
# cache existed.  None of them may leave a cache behind.
BAD_CSVS = {
    "invalid UTF-8": (
        lambda text: text.replace(b"90.0", b"9\xff0.0", 1),
        UnicodeDecodeError, "'utf-8' codec can't decode byte 0xff in position 62: invalid start byte",
    ),
    "bad header": (lambda text: b"elem;" + text, GridFormatError, ":1: bad header; expected "
                   "'elem,theta_deg,phi_deg,re_etheta,im_etheta,re_ephi,im_ephi'"),
    "malformed row": (lambda text: text.replace(b",0.0,", b",0.0,,", 1), GridFormatError,
                      ":3: malformed row; expected 7 fields, got 8"),
    "non-finite sample": (lambda text: text.replace(b"2.5", b"nan", 1), GridFormatError, ":5: non-finite sample"),
    "negative element index": (lambda text: text.replace(b"\n0,", b"\n-1,", 1), GridFormatError,
                               ":3: negative element index"),
    "duplicate cell": (lambda text: text + text.splitlines()[3] + b"\n", GridFormatError,
                       ":10: duplicate sample for elem=0, theta=0.0, phi=180.0"),
    "incomplete grid": (lambda text: b"\n".join(text.splitlines()[:-1]) + b"\n", GridFormatError,
                        ": incomplete grid; missing sample for elem=1, theta=90.0, phi=0.0"),
    "empty grid": (lambda text: text.splitlines()[0] + b"\r\n \r\n", GridFormatError, ": empty grid"),
}


@pytest.mark.parametrize("case", sorted(BAD_CSVS))
def test_bad_csv_is_never_cached_and_keeps_its_message(tmp_path, case):
    edit, error, message = BAD_CSVS[case]
    path = tmp_path / "bad.csv"
    path.write_bytes(edit(GRID_TEXT.encode("utf-8")))
    expected = message if error is UnicodeDecodeError else f"{path}{message}"
    for _ in range(2):
        with pytest.raises(error) as excinfo:
            bb.load_efield(path)
        assert str(excinfo.value) == expected
        assert not (tmp_path / GRID_CACHE_DIR).exists()


def test_bad_content_under_a_good_cache_still_fails(tmp_path):
    path = write_grid(tmp_path / "panel.csv")
    bb.load_efield(path)
    key = stored_key(path)
    path.write_bytes(GRID_TEXT.replace("2.5", "inf").encode("utf-8"))
    with pytest.raises(GridFormatError, match=r":5: non-finite sample$"):
        bb.load_efield(path)
    assert stored_key(path) == key


# The cache is keyed on the CSV's bytes and the format tag, not on the reader, so a grid
# cached by an older reader loads in place of a parse.  Each tag is pinned to the reader
# it was written by: a change to the reader fails here until the tag is bumped (making
# every old cache a miss) and the new tag is pinned.
READER_DIGESTS = {
    "beambook-grid-1": "50b1c570e5e7f0b039e136be9144bf27f94b83d24c70d4d6bf28b475c56e72a5",
    "beambook-grid-2": "da5b399a9cddd511b96e2e00a7193ca05bd2814062afc9c5ca72ddd91d277c7e",
    "beambook-grid-3": "7740ba54bc99737d7e19bd17f0c8d1cb368f88c69160402c4bafab7b75d2fdff",
}


def test_format_tag_is_bumped_with_the_reader():
    reader = [inspect.getsource(f) for f in (efield.load_efield, efield._parse_grid, efield._parse_rows)]
    reader += [efield.GRID_CSV_HEADER, repr(efield._GRID_ROW.descr), repr(efield._GRID_ARRAYS)]
    digest = hashlib.sha256("\n".join(reader).encode()).hexdigest()
    assert READER_DIGESTS.get(efield._GRID_CACHE_FORMAT) == digest, (
        f"the grid reader changed: bump efield._GRID_CACHE_FORMAT and pin it here to {digest}"
    )
