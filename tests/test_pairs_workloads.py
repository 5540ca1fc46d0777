"""``tools/pairs.py --workload a,b,c``: the pairs of each workload in turn,
against one extraction of the parent, with a stub runner in place of the
benchmark."""

import contextlib
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs_workloads", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

WORKLOADS = ["report-finger", "pipeline-seizure", "stream-seizure"]


@pytest.fixture
def stubbed(monkeypatch, tmp_path):
    """Stub checkout and runner; returns the extractions and the runs made."""
    extracted, runs = [], []

    @contextlib.contextmanager
    def checkout(rev, repo=pairs.ROOT):
        extracted.append(rev)
        yield tmp_path / "parent"

    def run_bench(path, workload, seed, seconds):
        side = "parent" if path == tmp_path / "parent" else "change"
        runs.append((workload, side))
        if workload == "fails":
            raise pairs.RunFailed("exit code 1; the end of its stderr:\nboom")
        body = {"parent": 1.0, "change": 0.8}[side]
        return {"metrics": {"setup_s": 0.1, "body_s": body, "peak_rss_mb": 60.0,
                            "ok_rate": 1.0},
                "digests": {"out": "d"}, "correct": True}

    monkeypatch.setattr(pairs, "parent_checkout", checkout)
    monkeypatch.setattr(pairs, "check_differs", lambda rev, repo=pairs.ROOT: None)
    monkeypatch.setattr(pairs, "run_bench", run_bench)
    return extracted, runs


def test_each_workload_runs_its_pairs_in_turn_against_one_extraction(stubbed, capsys):
    extracted, runs = stubbed
    assert pairs.main(["--workload", ",".join(WORKLOADS), "--parent", "HEAD~1",
                       "--pairs", "3", "--seed", "11"]) == 0
    assert extracted == ["HEAD~1"]
    one = ["parent", "change", "change", "parent", "parent", "change"]
    assert runs == [(w, side) for w in WORKLOADS for side in one]
    out = capsys.readouterr().out.splitlines()
    starts = [i for i, line in enumerate(out) if line.startswith("workload ")]
    assert [out[i] for i in starts] == [f"workload {w}" for w in WORKLOADS]
    assert all(out[i - 1] == "" for i in starts[1:])
    for i in starts:
        verdict = next(line for line in out[i:] if line.startswith("body_s ("))
        assert verdict.endswith("gain")
        assert out[i + 1].startswith("pair  first")


def test_one_workload_is_a_list_of_one(stubbed, capsys):
    extracted, runs = stubbed
    assert pairs.main(["--workload", "stream-seizure", "--parent", "HEAD~1",
                       "--pairs", "2"]) == 0
    assert extracted == ["HEAD~1"] and len(runs) == 4
    assert capsys.readouterr().out.splitlines()[0] == "workload stream-seizure"


def test_a_failed_run_stops_after_its_workload_name_and_the_earlier_reports(stubbed,
                                                                           capsys):
    _, runs = stubbed
    with pytest.raises(SystemExit, match="^pair 1: the parent run failed, exit code 1"):
        pairs.main(["--workload", "stream-seizure,fails,report-finger",
                    "--parent", "HEAD~1", "--pairs", "2"])
    assert "report-finger" not in {w for w, _ in runs}
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "workload stream-seizure" and out[-1] == "workload fails"
    assert any(line.startswith("body_s (") for line in out)


@pytest.mark.parametrize("text", ["a,,b", "a,", ",a", "a,b,a", " "])
def test_empty_or_repeated_names_are_refused(text):
    with pytest.raises(SystemExit):
        pairs.main(["--workload", text, "--parent", "HEAD~1"])


def test_names_are_split_and_stripped():
    assert pairs.workload_list("a, b ,c") == ["a", "b", "c"]
