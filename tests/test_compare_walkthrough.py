"""``tools/compare_walkthrough.py`` without a chain run: how it compares two
output trees, and how it ends when git cannot check out the revision."""

import importlib.util
import subprocess
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location(
        "compare_walkthrough", ROOT / "tools" / "compare_walkthrough.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_tree(root: Path, files: dict[str, bytes]) -> None:
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def test_compare_lists_one_sided_and_differing_files(tool, tmp_path):
    """Files only in REV, files only in the working tree and files whose bytes
    differ (at the same size) each get a line, in path order; the count is
    the union of both trees."""
    rev, work = tmp_path / "rev", tmp_path / "work"
    write_tree(rev, {"same.txt": b"x", "run/model.ckpt": b"abc", "old/a.json": b"{}"})
    write_tree(work, {"same.txt": b"x", "run/model.ckpt": b"abd", "eval/report.json": b"{}"})
    n, lines = tool.compare(str(rev), str(work))
    assert n == 4
    assert lines == ["only in the working tree: eval/report.json",
                     "only in REV: old/a.json",
                     "differs: run/model.ckpt"]
    assert tool.compare(str(rev), str(rev)) == (3, [])


def test_unknown_revision_exits_2_and_adds_no_worktree(tool, tmp_path, monkeypatch, capsys):
    """A revision git cannot resolve ends in exit 2 with one message, leaves
    ``git worktree list`` as it was and removes its temporary directory."""
    def worktrees():
        return subprocess.run(["git", "-C", str(ROOT), "worktree", "list", "--porcelain"],
                              capture_output=True, text=True)

    before = worktrees()
    if before.returncode:
        pytest.skip("the source tree is not a git checkout")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert tool.main(["no-such-rev"]) == 2
    assert worktrees().stdout == before.stdout
    assert "cannot check out 'no-such-rev'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
