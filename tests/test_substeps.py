"""The build of the compiled step kernel: a library is named by its
source and compile command, reused while both stay the same, written
whole or not at all, and replaces the libraries of earlier sources."""

import ctypes
import sysconfig

import pytest

from slopetrot import substeps


def test_build_reuses_the_library_of_the_same_source(tmp_path):
    first = substeps.build(substeps.SOURCE, tmp_path)
    stat = first.stat()
    second = substeps.build(substeps.SOURCE, tmp_path)
    assert second == first
    assert (second.stat().st_ino, second.stat().st_mtime_ns) == (stat.st_ino, stat.st_mtime_ns)
    assert [p.name for p in tmp_path.iterdir()] == [first.name]


def test_changed_source_gets_a_new_library(tmp_path):
    first = substeps.build(substeps.SOURCE, tmp_path)
    changed = tmp_path / "changed" / substeps.SOURCE.name
    changed.parent.mkdir()
    changed.write_bytes(substeps.SOURCE.read_bytes() + b"\n/* changed */\n")
    second = substeps.build(changed, tmp_path)
    assert second != first and second.name.startswith("substeps-")


def test_new_library_removes_stale_ones_and_loaded_ones_keep_working(tmp_path):
    # A library already loaded, as in a running process, stays mapped
    # after its file is removed. Files of other names stay.
    first = substeps.build(substeps.SOURCE, tmp_path)
    loaded = ctypes.CDLL(str(first)).step_torso
    loaded.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_long] + [ctypes.c_void_p] * 2 + [
        ctypes.c_long, ctypes.c_void_p]
    loaded.restype = ctypes.c_long
    other = tmp_path / f"other-0123{first.suffix}"
    other.write_bytes(b"")
    changed = tmp_path / "changed" / substeps.SOURCE.name
    changed.parent.mkdir()
    changed.write_bytes(substeps.SOURCE.read_bytes() + b"\n/* changed */\n")
    second = substeps.build(changed, tmp_path)
    assert sorted(p.name for p in tmp_path.glob("*.so")) == sorted([other.name, second.name])
    assert loaded(None, None, None, 0, None, None, 0, None) == 0


def test_failed_compile_raises_import_error_and_leaves_no_file(tmp_path):
    broken = tmp_path / "src" / "substeps.c"
    broken.parent.mkdir()
    broken.write_text("this is not C\n")
    out = tmp_path / "out"
    with pytest.raises(ImportError, match="compiling substeps.c failed"):
        substeps.build(broken, out)
    assert list(out.iterdir()) == []


def test_missing_compiler_raises_import_error(tmp_path, monkeypatch):
    config = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var",
                        lambda name: "no-such-cc" if name == "CC" else config(name))
    with pytest.raises(ImportError, match="no-such-cc"):
        substeps.build(substeps.SOURCE, tmp_path)
    assert list(tmp_path.iterdir()) == []
