"""``tools/pairs.py``: alternation, summary and worktree clean-up, with a stub
runner in place of the benchmark."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def _stub(calls, side, body_s, digests=None):
    values = iter(body_s)

    def run():
        calls.append(side)
        body = next(values)
        return {"metrics": {"setup_s": 1.0, "body_s": body, "peak_rss_mb": 80.0},
                "digests": digests or {"labels": "a"}, "correct": True}
    return run


def test_sides_alternate_and_never_overlap():
    calls = []
    run = {"parent": _stub(calls, "parent", [0.5] * 5),
           "change": _stub(calls, "change", [0.4] * 5)}
    result = pairs.run_pairs(5, run)
    assert calls == ["parent", "change", "change", "parent", "parent", "change",
                     "change", "parent", "parent", "change"]
    assert [p["first"] for p in result] == ["parent", "change"] * 2 + ["parent"]


def test_summary_gives_medians_wins_and_digests():
    calls = []
    run = {"parent": _stub(calls, "parent", [0.50, 0.48, 0.52, 0.49]),
           "change": _stub(calls, "change", [0.40, 0.49, 0.38, 0.41])}
    lines = pairs.summarize(pairs.run_pairs(4, run))
    assert len(lines) == 1 + 4 + 5
    assert lines[1].split()[:2] == ["1", "parent"] and lines[2].split()[:2] == ["2", "change"]
    assert "0.5 / 0.4" in lines[1] and "0.48 / 0.49" in lines[2]
    assert "body_s 0.495 / 0.405" in lines[5]
    assert "body_s 3/4" in lines[6] and "setup_s 0/4" in lines[6]
    assert lines[7] == "parent body_s quartile distance 0.0175"
    assert lines[8] == "digests equal: yes"
    assert lines[9] == "every run correct: yes"


def test_summary_flags_a_digest_mismatch():
    calls = []
    run = {"parent": _stub(calls, "parent", [0.5, 0.5]),
           "change": _stub(calls, "change", [0.4, 0.4], digests={"labels": "b"})}
    assert "digests equal: no" in pairs.summarize(pairs.run_pairs(2, run))


def _git_repo(tmp_path):
    """A throwaway repo with one commit of ``f.txt``, and its git command."""
    repo = tmp_path / "repo"
    repo.mkdir()
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(repo)]
    subprocess.run([*git, "init", "-q"], check=True)
    (repo / "f.txt").write_text("parent\n")
    subprocess.run([*git, "add", "f.txt"], check=True)
    subprocess.run([*git, "commit", "-qm", "parent"], check=True)
    return repo, git


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_worktree_is_removed_when_the_block_raises(tmp_path):
    repo, git = _git_repo(tmp_path)
    seen = []
    with pytest.raises(RuntimeError):
        with pairs.parent_checkout("HEAD", repo) as checkout:
            seen.append(checkout)
            assert (checkout / "f.txt").read_text() == "parent\n"
            raise RuntimeError("benchmark failed")
    assert not seen[0].exists() and not seen[0].parent.exists()
    listed = subprocess.run([*git, "worktree", "list"], check=True,
                            capture_output=True, text=True).stdout
    assert len(listed.strip().splitlines()) == 1


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_parent_equal_to_a_clean_head_is_refused(tmp_path):
    repo, git = _git_repo(tmp_path)
    with pytest.raises(SystemExit, match="compare the change with itself"):
        pairs.check_differs("HEAD", repo)
    (repo / "f.txt").write_text("change\n")
    pairs.check_differs("HEAD", repo)
    subprocess.run([*git, "commit", "-qam", "change"], check=True)
    pairs.check_differs("HEAD~1", repo)
    with pytest.raises(SystemExit):
        pairs.check_differs("HEAD", repo)


def test_parent_is_required_and_run_length_is_not_an_option():
    with pytest.raises(SystemExit):
        pairs.main(["--workload", "stream-seizure"])
    with pytest.raises(SystemExit):
        pairs.main(["--workload", "stream-seizure", "--parent", "HEAD~1", "--seconds", "1"])
