"""ppsdyn._files.rewrite, the package's one file writer, against the builtin
open in mode "w": whatever stood at the path before, the file afterwards
holds what was written and nothing else."""

import os

import pytest

from ppsdyn._files import discard, rewrite

TEXT = "t,x,y,z\n" + "0.5,1.5,2.5,3.5\n" * 100 + "é\n"


@pytest.mark.parametrize("old", [None, "x" * 10_000, "x"], ids=["absent", "longer", "shorter"])
def test_rewrite_leaves_what_open_leaves(tmp_path, old):
    # the same bytes and permissions, and a hard link sees the new text
    mine, theirs = tmp_path / "mine", tmp_path / "theirs"
    if old is not None:
        for path in (mine, theirs):
            path.write_text(old)
            os.link(path, path.with_suffix(".link"))
    with rewrite(mine) as fh:
        fh.write(TEXT)
    with open(theirs, "w", encoding="utf-8") as fh:
        fh.write(TEXT)
    assert mine.read_bytes() == theirs.read_bytes() == TEXT.encode()
    assert mine.stat().st_mode == theirs.stat().st_mode
    if old is not None:
        assert os.path.samefile(mine, mine.with_suffix(".link"))


def test_a_writer_that_raises_part_way_leaves_only_what_it_wrote(tmp_path):
    path = tmp_path / "artifact.csv"
    path.write_text("old\n" * 50_000)
    with pytest.raises(RuntimeError, match="writer failed"):
        with rewrite(path) as fh:
            fh.write("new\n" * 5_000)  # more than one buffer, so part is on disk
            raise RuntimeError("writer failed")
    assert path.read_text() == "new\n" * 5_000


@pytest.mark.parametrize("target", ["directory", "missing parent"])
def test_rewrite_raises_what_open_raises(tmp_path, target):
    path = tmp_path if target == "directory" else tmp_path / "missing" / "artifact.json"
    with pytest.raises(OSError) as theirs:
        open(path, "w", encoding="utf-8")
    with pytest.raises(OSError) as mine:
        with rewrite(path):
            pass
    assert (type(mine.value), mine.value.errno) == (type(theirs.value), theirs.value.errno)


def test_discard_removes_what_is_there(tmp_path):
    (tmp_path / "stale.json").write_text("{}\n")
    discard([tmp_path / "stale.json" / "under_a_file.json", tmp_path / "stale.json",
             tmp_path / "absent.json"])
    assert list(tmp_path.iterdir()) == []
