"""Span counts of a traced report and eval, the counts perfbench checks.

perfbench's traced runs wrap public functions of ``peot`` at their module
bindings and check the number of spans of each name per workload body.  A
call moved behind a method, or made through a binding the tracer does not
wrap, changes those counts; these runs catch that in the test suite
instead of only in a traced benchmark run.  Nothing here edits perfbench.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from peot import cli, data, evaluation, synth
from peot.boosting import GbtConfig
from peot.features import (
    DEFAULT_COST_TABLE,
    default_feature_spec,
    extract_features,
    feature_cost_vector,
)
from peot.tree import TrainConfig

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
# spans below the model interface, per window and channel or per training
# step, which perfbench does not check; a kernel or training change may move them
INNER = {"features.line_length", "features.variance", "tree.forward"}

REPORT_COUNTS = {
    "evaluation.report": 1,
    "boosting.train_gbt": 4, "boosting.predict": 4, "boosting.model_power": 4,
    "tree.train": 8, "tree.predict": 6, "cost.deployed_power": 2,
    "compression.pipeline": 2, "compression.prune": 2, "compression.share": 2,
}
LOAD_COUNTS = {"cli.eval": 1, "serialize.read": 2, "data.load_container": 1,
               "features.extract": 1}
EVAL_COUNTS = {
    "peot": {**LOAD_COUNTS, "tree.predict": 1, "cost.deployed_power": 1},
    "gbt": {**LOAD_COUNTS, "boosting.predict": 1, "boosting.model_power": 1},
}


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans_under_test", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def span_counts(spans, run) -> dict:
    """The number of spans of each name that ``run()`` records, but ``INNER``."""
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    tracer.recording = True
    try:
        run()
    finally:
        tracer.recording = False
        spans.uninstall(undo)
    names = (tracer.span_name(i) for i in range(len(tracer)))
    return dict(Counter(name for name in names if name not in INNER))


@pytest.fixture(scope="module")
def recording():
    return synth.synth_recording("seizure", 100, 3)


def test_report_span_counts(spans, recording):
    spec = default_feature_spec(recording.n_channels, recording.fs)
    X = extract_features(recording, spec)
    c = feature_cost_vector(spec, dict(DEFAULT_COST_TABLE))
    got = span_counts(spans, lambda: evaluation.benchmark_report(
        X, recording.labels, c, k=2, seed=1, gbt_config=GbtConfig(n_trees=2, max_depth=2),
        peot_config=TrainConfig(depth=2, hidden=2, epochs=2, lam=0.1),
        peot_sparsity=0.5, peot_share_bits=2, finetune_epochs=1))
    assert got == REPORT_COUNTS


@pytest.mark.parametrize("model", ["peot", "gbt"])
def test_eval_span_counts(spans, recording, tmp_path, model):
    data.save_container(recording, tmp_path / "dataset.json")
    assert cli.main(["train", "--out", str(tmp_path / "m"), "--dataset",
                     str(tmp_path / "dataset.json"), "--model", model, "--epochs", "2",
                     "--n-trees", "2", "--seed", "5"]) == 0
    got = span_counts(spans, lambda: cli.main(
        ["eval", "--out", str(tmp_path / "e"), "--model", str(tmp_path / "m" / "model.json"),
         "--dataset", str(tmp_path / "dataset.json")]))
    assert got == EVAL_COUNTS[model]

