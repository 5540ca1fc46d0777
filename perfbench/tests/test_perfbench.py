"""Tests of the benchmark's own code: order statistics, spans and metric names."""

import json
import os
import re
import signal
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import stats  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
# per-layer metrics the runner adds to the span summary
RUN_METRICS = {"trace.overhead_s", "trace.overhead_frac", "trace.spans_per_body",
               "deploy.window_p50_ms", "deploy.window_p99_ms"}


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class TestPercentileRule:
    def test_p99_needs_ten_samples_beyond(self):
        assert stats.percentile(range(999), 99) is None
        assert stats.percentile(range(1000), 99) == 989  # 10 samples above rank 990

    def test_p50_needs_twenty_samples(self):
        assert stats.percentile(range(19), 50) is None
        assert stats.percentile(range(20), 50) == 9

    def test_unsorted_input(self):
        xs = list(range(2000))[::-1]
        assert stats.percentile(xs, 99) == 1979

    def test_median(self):
        assert stats.median([3.0, 1.0, 2.0]) == 2.0
        assert stats.median([4.0, 1.0, 2.0, 3.0]) == 2.5
        with pytest.raises(ValueError):
            stats.median([])


class FakeClock:
    """Clock that a test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def build(spec, clock, tracer):
    """Drive open/close from a nested spec: (name, start, end, [children])."""
    for name, start, end, kids in spec:
        clock.now = start
        idx = tracer.open(tracer.name_for(name))
        build(kids, clock, tracer)
        clock.now = end
        tracer.close(idx)


def traced(spec):
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    build(spec, clock, tracer)
    return tracer


class TestSelfTime:
    def test_hand_built_tree(self):
        t = traced([("root", 0.0, 10.0, [
            ("a", 1.0, 4.0, [("a.child", 2.0, 3.0, [])]),
            ("b", 4.0, 6.0, []),
            ("c", 8.0, 9.5, []),
        ])])
        assert [t.span_name(i) for i in range(len(t))] == ["root", "a", "a.child", "b", "c"]
        assert list(t.parent) == [spans.NO_PARENT, 0, 1, 0, 0]
        own = t.self_times()
        assert own[0] == pytest.approx(10.0 - 3.0 - 2.0 - 1.5)
        assert own[1] == pytest.approx(2.0)
        assert own[2:] == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(1.5)]
        assert sum(own) == pytest.approx(10.0)  # self times partition the root

    def test_leaf_self_time_is_duration(self):
        t = traced([("x", 1.5, 2.0, [])])
        assert t.self_times() == [pytest.approx(0.5)]

    def test_layer_times_are_scaled(self):
        body = [("tree.train", 1.0, 3.0, [("tree.forward", 1.0, 1.5, [])])]
        t = traced([(spans.BODY, 0.0, 5.0, body), (spans.BODY, 10.0, 15.0, body)])
        plain, doubled = spans.layer_metrics(t), spans.layer_metrics(t, 2.0)
        assert plain["tree.train_s"] == pytest.approx(2.0)  # per body
        assert plain["tree.forward_us"] == pytest.approx(0.5e6)  # per call
        assert doubled["tree.train_s"] == pytest.approx(4.0)
        assert doubled["tree.forward_us"] == pytest.approx(1.0e6)
        assert doubled["tree.train_calls"] == plain["tree.train_calls"] == 1

    def test_counts_per_body(self):
        body = [("tree.train", 1.0, 3.0, [("tree.forward", 1.0, 2.0, [])])]
        t = traced([(spans.BODY, 0.0, 5.0, body), (spans.BODY, 10.0, 15.0, body),
                    ("tree.forward", 20.0, 21.0, [])])  # the last is outside any body
        assert spans.counts_per_body(t) == [{"tree.train": 1, "tree.forward": 1}] * 2


class TestMetricNames:
    def test_names_and_units_are_well_formed(self):
        doc = declared()
        names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
        assert len(names) == len(set(names))
        for name in names:
            assert NAME.fullmatch(name) and len(name) <= 64, name

    def test_layer_summary_matches_declaration(self):
        layer = set(spans.layer_metrics(spans.Tracer())) | RUN_METRICS
        assert layer == {m["name"] for m in declared()["per_layer"]}

    def test_with_units_rejects_undeclared(self):
        units = stats.declared_units(ROOT / "BENCHMARK.json")[0]
        values = {name: 1.0 for name in units}
        assert set(stats.with_units(values, units)) == set(units)
        with pytest.raises(RuntimeError):
            stats.with_units({**values, "extra": 1.0}, units)

    def test_with_units_incomplete_only_when_allowed(self):
        units = stats.declared_units(ROOT / "BENCHMARK.json")[0]
        partial = {"ok_rate": 0.5}
        with pytest.raises(RuntimeError):
            stats.with_units(partial, units)
        assert stats.with_units(partial, units, complete=False) == {
            "ok_rate": {"value": 0.5, "unit": units["ok_rate"]}}


class TestInstall:
    def test_wraps_by_name_imports_and_restores(self):
        from peot import cli, features
        from peot.data import Recording

        original = features.extract_features
        tracer = spans.Tracer()
        undo = spans.install(tracer)
        try:
            assert cli.extract_features is features.extract_features is not original
            rec = Recording(np.random.default_rng(0).standard_normal((2, 1, 128)),
                            fs=256.0, labels=np.zeros(2, dtype=np.int64))
            spec = features.default_feature_spec(1, 256.0)
            cli.extract_features(rec, spec)  # not recording: no spans
            assert len(tracer) == 0
            tracer.recording = True
            cli.extract_features(rec, spec)
            tracer.recording = False
        finally:
            spans.uninstall(undo)
        assert cli.extract_features is features.extract_features is original
        names = [tracer.span_name(i) for i in range(len(tracer))]
        assert names[0] == "features.extract"
        assert names.count("features.line_length") == 2
        assert all(tracer.parent[i] == 0 for i in range(1, len(tracer)))
        assert tracer.counters["features.windows"] == 2


class TestBaseline:
    def test_frozen_copy_binds_the_same_workloads(self):
        sys.path.insert(0, str(BENCH / "frozen"))
        import workloads

        current, frozen = workloads.load("peot"), workloads.load("peot_baseline")
        assert set(current) == set(frozen)
        assert frozen["stream-seizure"].p.tree.__name__ == "peot_baseline.tree"
        assert current["stream-seizure"].p.tree.__name__ == "peot.tree"

    def test_child_reports_cpu_time_and_failures(self, tmp_path):
        import pairing

        cpu = min(os.sched_getaffinity(0))
        with pairing.Baseline("pipeline-seizure", 1, tmp_path, cpu) as base:
            base.start("body")  # no set-up yet: the child's body fails
            with pytest.raises(pairing.BaselineError, match="Traceback"):
                base.result()
            base.start("setup")
            took, outputs = base.result()
            assert took > 0 and outputs is None
        assert base.proc.returncode == 0

    def test_child_is_killed_and_reaped_after_an_error(self, tmp_path):
        import pairing

        cpu = min(os.sched_getaffinity(0))
        with pytest.raises(KeyError):
            with pairing.Baseline("pipeline-seizure", 1, tmp_path, cpu) as base:
                base.start("setup")
                raise KeyError("runner failed mid-step")
        assert base.proc.returncode == -signal.SIGKILL


class TestFailedRun:
    def test_every_body_failing_still_reports(self):
        import run

        class Boom:
            ref_setup_s = ref_body_s = 1.0

            def body(self, state):
                raise ValueError("boom")

        class Twin:
            def start(self, step):
                pass

            def result(self):
                return 1.0, {}

        loop = run.Loop(Boom(), None, Twin()).run(0.0)
        assert (loop.attempted, loop.failed, loop.cpu_ratios) == (1, 1, [])
        metrics = run.end_to_end(Boom(), loop, [1.0])
        assert "body_s" not in metrics and metrics["ok_rate"] == 0.0
        units = stats.declared_units(ROOT / "BENCHMARK.json")[0]
        assert set(stats.with_units(metrics, units, complete=False)) == set(metrics)
