"""``tools/pairs.py`` on a benchmark run that fails: the report names the pair,
the side, the exit code and the end of the run's stderr, and the parent's
worktree is still removed."""

import importlib.util
import json
import shutil
import subprocess
import tempfile
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

pytestmark = pytest.mark.skipif(shutil.which("git") is None, reason="needs git")

PASSING_RUN = """import json
print(json.dumps({"digests": {"labels": "a"}}))
print(json.dumps({"metrics": {m: {"value": 1.0} for m in
                              ("setup_s", "body_s", "peak_rss_mb")}, "correct": True}))
"""
FAILING_RUN = """import sys
for i in range(30):
    print(f"stderr line {i}", file=sys.stderr)
sys.exit(3)
"""


def _repo_whose_change_fails(tmp_path):
    """A repo whose committed benchmark passes and whose working tree's fails."""
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(repo)]
    subprocess.run([*git, "init", "-q"], check=True)
    (repo / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "end_to_end": []}))
    (repo / "perfbench" / "run.py").write_text(PASSING_RUN)
    subprocess.run([*git, "add", "-A"], check=True)
    subprocess.run([*git, "commit", "-qm", "parent"], check=True)
    (repo / "perfbench" / "run.py").write_text(FAILING_RUN)
    return repo, git


def test_a_failing_run_raises_with_its_exit_code_and_stderr_tail(tmp_path):
    repo, _ = _repo_whose_change_fails(tmp_path)
    with pytest.raises(pairs.RunFailed) as info:
        pairs.run_bench(repo, "w", 7, 1)
    message = str(info.value)
    assert "exit code 3" in message
    lines = message.splitlines()
    assert lines[-1] == "stderr line 29"
    assert lines[-pairs.STDERR_LINES] == f"stderr line {30 - pairs.STDERR_LINES}"
    assert "stderr line 9" not in lines


def test_a_failing_run_names_pair_and_side_and_removes_the_worktree(tmp_path, monkeypatch):
    repo, git = _repo_whose_change_fails(tmp_path)
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    checkout, check = pairs.parent_checkout, pairs.check_differs
    monkeypatch.setattr(pairs, "ROOT", repo)
    monkeypatch.setattr(pairs, "parent_checkout", lambda rev: checkout(rev, repo))
    monkeypatch.setattr(pairs, "check_differs", lambda rev: check(rev, repo))
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    with pytest.raises(SystemExit) as info:
        pairs.main(["--workload", "w", "--parent", "HEAD", "--pairs", "2"])
    message = str(info.value.code)
    # pair 1 runs the parent first, which passes; then the change fails
    assert message.startswith("pair 1: the change run failed, exit code 3")
    assert message.splitlines()[-1] == "stderr line 29"
    assert list(scratch.iterdir()) == []
    listed = subprocess.run([*git, "worktree", "list"], check=True,
                            capture_output=True, text=True).stdout
    assert len(listed.strip().splitlines()) == 1
