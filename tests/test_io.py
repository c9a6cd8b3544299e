import json
import os
import stat

import numpy as np
import pytest

from hsvt import io
from hsvt.errors import ParseError


def test_matrix_roundtrip_exact(tmp_path, rng):
    m = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    path = tmp_path / "m.json"
    io.write_matrix(path, m)
    back = io.read_matrix(path)
    assert np.array_equal(back, m)


def test_state_roundtrip(tmp_path, rng):
    v = rng.normal(size=5) + 1j * rng.normal(size=5)
    path = tmp_path / "v.json"
    io.write_state(path, v)
    assert np.array_equal(io.read_state(path), v)


def test_read_matrix_missing_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rows": 2, "entries": []}))
    with pytest.raises(ParseError, match="cols"):
        io.read_matrix(path)


def test_read_matrix_wrong_count(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rows": 2, "cols": 2, "entries": [[1, 0]]}))
    with pytest.raises(ParseError, match="entries"):
        io.read_matrix(path)


def test_read_matrix_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        io.read_matrix(path)


def test_read_matrix_nonfinite(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"rows": 1, "cols": 1, "entries": [[float("nan"), 0.0]]}))
    with pytest.raises(ParseError):
        io.read_matrix(path)


def test_read_state_rejects_wide_matrix(tmp_path):
    path = tmp_path / "m.json"
    io.write_matrix(path, np.eye(2))
    with pytest.raises(ParseError, match="cols"):
        io.read_state(path)


@pytest.mark.parametrize("umask", [0o022, 0o002], ids=["022", "002"])
def test_write_text_leaves_the_mode_that_open_leaves(tmp_path, umask):
    old = os.umask(umask)
    try:
        open(tmp_path / "by-open", "w").close()
        io.write_text(tmp_path / "by-io", "x")
        (tmp_path / "replaced").write_text("old")
        (tmp_path / "replaced").chmod(0o640)
        io.write_text(tmp_path / "replaced", "new")
    finally:
        os.umask(old)
    mode = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert mode == {"by-open": 0o666 & ~umask, "by-io": 0o666 & ~umask, "replaced": 0o640}


def test_write_text_writes_through_a_symlink(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("old")
    target.chmod(0o640)
    link.symlink_to(target.name)
    io.write_text(link, "new")
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_text() == "new"
    assert stat.S_IMODE(target.stat().st_mode) == 0o640


def test_write_text_removes_its_temp_file_when_the_rename_fails(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")
    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        io.write_text(tmp_path / "out.txt", "x")
    assert list(tmp_path.iterdir()) == []


def test_report_roundtrip():
    report = {"b": [1, 2], "a": {"x": 0.5}}
    assert json.loads(io.report_text(report)) == report


def test_csv_header_only():
    assert io.csv_text(["k", "residual"], []) == "k,residual\n"
