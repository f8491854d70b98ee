"""ppsdyn._files.rewrite, the package's one file writer, against the builtin
open in mode "w": whatever stood at the path before, the file afterwards
holds what was written and nothing else."""

import ast
import os
import re
from pathlib import Path

import pytest

import ppsdyn
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


# a mode string that opens to write, append, create or update
_WRITE_MODE = re.compile(r"[rwaxbt]*[wax+][rwaxbt+]*")


def _writers(source) -> list:
    """The lines of the calls in source that open a file to write: an open
    or a .open with a write, append, create or update mode among its first
    two arguments or as mode=, and an os.open whose flags name O_WRONLY or
    O_RDWR."""
    lines = []
    # a file that never names open has no such call, and is not parsed
    for node in ast.walk(ast.parse(source)) if "open" in source else ():
        func = getattr(node, "func", None)
        if getattr(func, "id", getattr(func, "attr", None)) != "open":
            continue
        if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
            flags = node.args[1:2] + [k.value for k in node.keywords if k.arg == "flags"]
            writes = any(re.search(r"O_WRONLY|O_RDWR", ast.unparse(f)) for f in flags)
        else:
            modes = node.args[:2] + [k.value for k in node.keywords if k.arg == "mode"]
            writes = any(isinstance(m, ast.Constant) and isinstance(m.value, str)
                         and _WRITE_MODE.fullmatch(m.value) for m in modes)
        if writes:
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("source, writes", [
    ('open(p, "w", encoding="utf-8")', True), ('open(p, mode="a")', True), ('open(p, "r+b")', True),
    ('p.open("x")', True), ("os.open(p, os.O_WRONLY | os.O_CREAT)", True),
    ("os.open(p, flags=os.O_RDWR)", True), ("open(p)", False), ('open(p, "rb")', False),
    ('open("weights.csv", encoding="utf-8")', False), ("os.open(p, os.O_RDONLY)", False),
])
def test_the_writer_scan_tells_writes_from_reads(source, writes):
    assert bool(_writers(source)) == writes


def test_rewrite_holds_the_package_s_only_open_to_write():
    # any other writer would skip the in-place rewrite, and a numerical
    # failure's removal of the earlier artifacts would not know its file
    package = Path(ppsdyn.__file__).parent
    found = {path.name: _writers(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert found.pop("_files.py")  # rewrite's own open
    assert {name: lines for name, lines in found.items() if lines} == {}
