"""``tools/pairs.py --pairs`` takes a whole number of at least one pair,
checked when the arguments are parsed: a bad count exits 2 before any git
call or extraction of the parent."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs_count", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


@pytest.mark.parametrize("count", ["0", "-1", "x", "1.5"])
def test_a_pair_count_below_one_exits_2_before_any_git_call(monkeypatch, capsys, count):
    def refuse(*args, **kwargs):
        raise AssertionError("a subprocess ran")
    monkeypatch.setattr(pairs.subprocess, "run", refuse)
    with pytest.raises(SystemExit) as exc:
        pairs.main(["--workload", "stream-seizure", "--parent", "HEAD~1", "--pairs", count])
    assert exc.value.code == 2
    assert "--pairs" in capsys.readouterr().err


def test_one_pair_is_a_count():
    assert pairs.pair_count("1") == 1 and pairs.pair_count("10") == 10
