"""``tools/pairs.py`` outside a git checkout (a ``git archive`` copy, say)
refuses with one line naming the directory, not with a traceback."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs_checkout", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

pytestmark = pytest.mark.skipif(shutil.which("git") is None, reason="needs git")


@pytest.fixture
def no_checkout(tmp_path, monkeypatch):
    """``tmp_path``, with git kept from finding a repository above it."""
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    return tmp_path


def test_check_differs_refuses_a_directory_that_is_no_checkout(no_checkout):
    with pytest.raises(SystemExit) as info:
        pairs.check_differs("HEAD", no_checkout)
    message = str(info.value.code)
    assert str(no_checkout) in message
    assert "\n" not in message


def test_check_differs_names_an_unknown_rev(no_checkout):
    repo = no_checkout / "repo"
    repo.mkdir()
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(repo)]
    subprocess.run([*git, "init", "-q"], check=True)
    (repo / "f.txt").write_text("x\n")
    subprocess.run([*git, "add", "-A"], check=True)
    subprocess.run([*git, "commit", "-qm", "one"], check=True)
    with pytest.raises(SystemExit) as info:
        pairs.check_differs("no-such-rev", repo)
    message = str(info.value.code)
    assert str(repo) in message and "no-such-rev" in message
    assert "\n" not in message
    (repo / "f.txt").write_text("y\n")
    pairs.check_differs("HEAD", repo)  # a known rev and a changed tree pass


def test_the_script_exits_with_one_line_outside_a_checkout(no_checkout):
    (no_checkout / "tools").mkdir()
    script = no_checkout / "tools" / "pairs.py"
    shutil.copy(_PATH, script)
    run = subprocess.run([sys.executable, str(script), "--workload", "stream-seizure",
                          "--parent", "HEAD"], cwd=no_checkout,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 1
    assert "Traceback" not in run.stderr
    assert run.stderr.strip().count("\n") == 0
    assert str(no_checkout) in run.stderr
