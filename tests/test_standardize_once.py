"""Training standardises its set once per run.

``train`` standardises ``X`` with the tree's ``mu`` and ``sigma`` once and
runs every batch and every epoch loss on rows of that matrix, through
buffers that take them as they are.  Every other pass still checks and
standardises what it is given, so the public ``forward`` keeps its bytes.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from peot import compression, features, synth
from peot import tree as tree_mod
from peot.evaluation import TASK_BENCHMARK_PRESETS
from peot.tree import ObliqueTree, TrainConfig, _Buffers, train

_PATH = Path(__file__).resolve().parent / "test_train_step.py"
_spec = importlib.util.spec_from_file_location("parent_train_step", _PATH)
_parent = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_parent)
ParentStep = _parent.ParentStep


@pytest.fixture(scope="module")
def finger():
    rec = synth.synth_recording("finger", 160, 7)
    spec = features.default_feature_spec(rec.n_channels, rec.fs)
    c = features.feature_cost_vector(spec, features.DEFAULT_COST_TABLE)
    return features.extract_features(rec, spec), rec.labels, c


@pytest.fixture
def counts(monkeypatch):
    """The ``standardize`` calls, and per ``forward`` call whether its rows
    went into buffers that take standardised rows."""
    seen = {"standardize": 0, "forward": []}
    standardize, forward = ObliqueTree.standardize, ObliqueTree.forward

    def counted_standardize(self, X):
        seen["standardize"] += 1
        return standardize(self, X)

    def counted_forward(self, x, out=None):
        seen["forward"].append(out is not None and out.standardized)
        return forward(self, x, out)

    monkeypatch.setattr(ObliqueTree, "standardize", counted_standardize)
    monkeypatch.setattr(ObliqueTree, "forward", counted_forward)
    return seen


CONFIG = TrainConfig(depth=3, hidden=4, epochs=3, batch_size=32, lam=0.01,
                     warmup_epochs=1)


def test_a_fresh_run_standardises_once(finger, counts):
    X, y, c = finger
    train(X, y, CONFIG, c)
    assert counts["standardize"] == 1
    # one pass per batch and per epoch loss, every one on standardised rows
    assert counts["forward"] == [True] * (1 + CONFIG.epochs * (5 + 1))


def test_a_warm_start_standardises_once(finger, counts):
    X, y, c = finger
    start = train(X, y, CONFIG, c)
    counts["standardize"] = 0
    train(X[:100], y[:100], replace(CONFIG, epochs=2), c, init_tree=start)
    assert counts["standardize"] == 1


def test_each_fine_tune_of_the_pipeline_standardises_once(finger, counts, monkeypatch):
    X, y, c = finger
    preset = TASK_BENCHMARK_PRESETS["finger"]
    start = train(X, y, replace(CONFIG, epochs=2), c)
    per_run = []
    original = tree_mod.train

    def measured(*args, **kwargs):
        before = counts["standardize"]
        trained = original(*args, **kwargs)
        per_run.append(counts["standardize"] - before)
        return trained

    monkeypatch.setattr(tree_mod, "train", measured)
    ft = replace(CONFIG, epochs=2, warmup_epochs=0)
    compression.compress_pipeline(start, X, y, preset["peot_sparsity"],
                                  preset["peot_share_bits"], ft, cost_vec=c)
    assert per_run == [1, 1]  # the fine-tune after pruning and after sharing


def forward_bytes(fw):
    return [np.asarray(a).tobytes() for a in fw]


def test_the_public_forward_keeps_its_bytes(finger):
    X, y, c = finger
    tree = train(X, y, CONFIG, c)
    fw = tree.forward(X[:48])
    assert forward_bytes(fw) == forward_bytes(ParentStep.forward(tree, X[:48]))
    # training's buffers, given the rows standardised, make the same pass
    buf = _Buffers(tree, 48, standardized=True)
    assert forward_bytes(tree.forward(tree.standardize(X[:48]), buf)) == forward_bytes(fw)


def test_the_public_forward_still_checks_its_batch(finger):
    X, y, c = finger
    tree = train(X, y, replace(CONFIG, epochs=1), c)
    with pytest.raises(tree_mod.InvalidInputError):
        tree.forward(X[:4, :-1])
    with pytest.raises(tree_mod.InvalidInputError):
        tree.forward(X[:4, :-1], _Buffers(tree, 4))
