"""``tools/pairs.py`` takes the parent side from ``git archive``: the rev's
committed files, with nothing written under ``.git``."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

pytestmark = pytest.mark.skipif(shutil.which("git") is None, reason="needs git")


def _git_dir_state(repo):
    return sorted((str(p.relative_to(repo)), p.stat().st_mtime_ns, p.stat().st_size)
                  for p in (repo / ".git").rglob("*"))


def test_the_parent_is_the_revs_committed_files_and_git_is_not_written(tmp_path):
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(repo)]
    subprocess.run([*git, "init", "-q"], check=True)
    (repo / "pkg" / "f.txt").write_text("parent\n")
    subprocess.run([*git, "add", "-A"], check=True)
    subprocess.run([*git, "commit", "-qm", "parent"], check=True)
    (repo / "pkg" / "f.txt").write_text("change\n")  # uncommitted
    (repo / "untracked.txt").write_text("x\n")
    before = _git_dir_state(repo)
    with pairs.parent_checkout("HEAD", repo) as checkout:
        assert (checkout / "pkg" / "f.txt").read_text() == "parent\n"
        assert sorted(p.name for p in checkout.iterdir()) == ["pkg"]
    assert not checkout.parent.exists()
    assert _git_dir_state(repo) == before


def test_an_unknown_rev_fails_and_leaves_no_directory(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()
    subprocess.run(["git", "-C", str(repo), "init", "-q"], check=True)
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(pairs.tempfile, "tempdir", str(scratch))
    with pytest.raises(subprocess.CalledProcessError):
        with pairs.parent_checkout("no-such-rev", repo):
            pass
    assert list(scratch.iterdir()) == []
