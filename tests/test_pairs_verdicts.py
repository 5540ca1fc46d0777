"""``tools/pairs.py`` verdicts: one line per gated metric of
``BENCHMARK.json``, judged from stub runs in place of the benchmark."""

import contextlib
import importlib.util
import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("pairs", _ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

END_TO_END = json.loads((_ROOT / "BENCHMARK.json").read_text())["end_to_end"]
PARENT_BODY = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]


def _stub(body_s, ok_rate=None):
    values = iter(zip(body_s, ok_rate or [1.0] * len(body_s)))

    def run():
        body, ok = next(values)
        return {"metrics": {"setup_s": 0.1, "body_s": body, "peak_rss_mb": 80.0,
                            "ok_rate": ok},
                "digests": {"labels": "a"}, "correct": True}
    return run


def _verdicts(parent_body, change_body, parent_ok=None, change_ok=None):
    """{metric: verdict} for ten stub pairs."""
    result = pairs.run_pairs(len(parent_body), {
        "parent": _stub(parent_body, parent_ok), "change": _stub(change_body, change_ok)})
    lines = pairs.verdicts(result, END_TO_END)
    assert [line.split()[0] for line in lines] == [m["name"] for m in END_TO_END]
    return {line.split()[0]: line.split()[-1] for line in lines}


def test_every_gated_metric_gets_a_line_with_both_medians():
    result = pairs.run_pairs(10, {"parent": _stub(PARENT_BODY),
                                  "change": _stub([b * 0.8 for b in PARENT_BODY])})
    lines = pairs.verdicts(result, END_TO_END)
    assert {m["name"] for m in END_TO_END} >= {"setup_s", "body_s", "peak_rss_mb",
                                                "ok_rate"}
    body = next(line for line in lines if line.startswith("body_s "))
    assert body == "body_s (lower is better, bound 0.1): median 1 / 0.8 gain"


def test_same_runs_are_unchanged():
    assert set(_verdicts(PARENT_BODY, PARENT_BODY).values()) == {"unchanged"}


def test_a_clear_speedup_is_a_gain_and_the_rest_unchanged():
    verdict = _verdicts(PARENT_BODY, [b - 0.05 for b in PARENT_BODY])
    assert verdict == {"setup_s": "unchanged", "body_s": "gain",
                       "peak_rss_mb": "unchanged", "ok_rate": "unchanged"}


def test_eight_wins_of_ten_are_no_gain():
    change = [b - 0.05 for b in PARENT_BODY[:8]] + [b + 0.05 for b in PARENT_BODY[8:]]
    assert _verdicts(PARENT_BODY, change)["body_s"] == "unchanged"


def test_a_gap_inside_the_parent_spread_is_no_gain():
    parent = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.2, 0.8, 1.1, 0.9]
    change = [p - 0.01 for p in parent]
    assert _verdicts(parent, change)["body_s"] != "gain"


def test_a_slowdown_beyond_the_bound_is_worse():
    assert _verdicts(PARENT_BODY, [b * 1.15 for b in PARENT_BODY])["body_s"] == "worse"
    assert _verdicts(PARENT_BODY, [b * 1.05 for b in PARENT_BODY])["body_s"] == "unchanged"


def test_a_wide_parent_spread_is_unresolved_unless_every_run_separates():
    parent = [1.0, 1.3, 0.8, 1.2, 0.9, 1.0, 1.3, 0.8, 1.2, 0.9]
    assert _verdicts(parent, list(reversed(parent)))["body_s"] == "unresolved"
    assert _verdicts(parent, [p - 0.6 for p in parent])["body_s"] == "gain"


@pytest.mark.parametrize("change_ok, expected", [(0.95, "worse"), (1.0, "gain")])
def test_ok_rate_is_better_higher(change_ok, expected):
    verdict = _verdicts(PARENT_BODY, PARENT_BODY, parent_ok=[0.98] * 10,
                        change_ok=[change_ok] * 10)
    assert verdict["ok_rate"] == expected


def test_main_prints_the_verdicts_after_the_summary(monkeypatch, capsys, tmp_path):
    runs = {"parent": _stub(PARENT_BODY), "change": _stub(PARENT_BODY)}
    monkeypatch.setattr(pairs, "check_differs", lambda rev: None)
    monkeypatch.setattr(pairs, "parent_checkout",
                        lambda rev: contextlib.nullcontext(tmp_path))
    monkeypatch.setattr(pairs, "run_bench",
                        lambda path, *a: runs["change" if path == pairs.ROOT else "parent"]())
    monkeypatch.setattr(pairs.signal, "signal", lambda *a: None)
    assert pairs.main(["--workload", "stream-seizure", "--parent", "HEAD~1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-len(END_TO_END) - 1] == "every run correct: yes"
    assert [line.split()[0] for line in lines[-len(END_TO_END):]] == \
        [m["name"] for m in END_TO_END]
