"""Training with one buffer set per run, against the freshly allocated step.

``ParentStep`` of ``tests/test_train_step.py`` allocates every array of every
pass.  Training on the presets' real shapes must give its bytes and its
loss history, and the reused buffers must never leak into what a caller
holds: a ``Forward`` or gradients returned by a public call keep their
bytes, and training calls ``ObliqueTree.forward`` as often as before.
"""

import importlib.util
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from peot import compression, features, synth
from peot import tree as tree_mod
from peot.evaluation import TASK_BENCHMARK_PRESETS
from peot.tree import PARAM_NAMES, ObliqueTree, TrainConfig, loss_and_gradients, train

_PATH = Path(__file__).resolve().parent / "test_train_step.py"
_spec = importlib.util.spec_from_file_location("parent_train_step", _PATH)
_parent = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_parent)
ParentStep = _parent.ParentStep


def doc_bytes(tree):
    return json.dumps(tree.to_doc(), sort_keys=True).encode()


def featurized(task, n_windows, seed):
    rec = synth.synth_recording(task, n_windows, seed)
    spec = features.default_feature_spec(rec.n_channels, rec.fs)
    c = features.feature_cost_vector(spec, features.DEFAULT_COST_TABLE)
    return features.extract_features(rec, spec), rec.labels, c


@pytest.fixture(scope="module")
def finger():
    return featurized("finger", 320, 7)


@pytest.fixture(scope="module")
def seizure():
    return featurized("seizure", 300, 7)


def assert_same_run(got, ref):
    assert doc_bytes(got) == doc_bytes(ref)
    assert got.history == ref.history


# ---------------------------------------------------------------------------
# the presets' shapes, byte for byte


@pytest.mark.parametrize("seed", [7, 8])
def test_the_finger_preset_trains_like_the_parent(finger, seed):
    X, y, c = finger
    assert X.shape == (320, 32)
    # depth 3, hidden 4, B = 32 over 320 rows; the warm-up ends mid-run
    config = replace(TASK_BENCHMARK_PRESETS["finger"]["peot_config"], epochs=6,
                     warmup_epochs=3, seed=seed)
    assert (config.depth, config.hidden, config.batch_size) == (3, 4, 32)
    n_classes = int(y.max()) + 1
    got = train(X, y, config, c, n_classes=n_classes)
    ref = ParentStep.train(X, y, config, c, n_classes=n_classes)
    assert_same_run(got, ref)
    assert got.history[4] != got.history[3]


def test_the_seizure_preset_with_a_ragged_last_batch_trains_like_the_parent(seizure):
    X, y, c = seizure
    assert X.shape[0] % 32 == 12
    config = replace(TASK_BENCHMARK_PRESETS["seizure"]["peot_config"], epochs=5,
                     warmup_epochs=2, seed=3)
    assert config.class_weight == "balanced"
    assert_same_run(train(X, y, config, c), ParentStep.train(X, y, config, c))


def test_a_three_bit_codebook_fine_tune_trains_like_the_parent(finger, monkeypatch):
    X, y, c = finger
    preset = TASK_BENCHMARK_PRESETS["finger"]
    config = replace(preset["peot_config"], epochs=4, warmup_epochs=1, seed=5)
    start = train(X, y, config, c)
    ft = replace(config, epochs=3, warmup_epochs=0)
    got, got_report = compression.compress_pipeline(start, X, y, preset["peot_sparsity"],
                                                    3, ft, cost_vec=c)
    assert got.compression.codebook.centroids.size == 2 ** 3
    # the same prune -> fine-tune -> share -> fine-tune, trained by the parent
    monkeypatch.setattr(tree_mod, "train", ParentStep.train)
    ref, ref_report = compression.compress_pipeline(start, X, y, preset["peot_sparsity"],
                                                    3, ft, cost_vec=c)
    assert_same_run(got, ref)
    assert got_report == ref_report


# ---------------------------------------------------------------------------
# reused buffers stay inside training


@pytest.mark.parametrize("n, batch_size", [(100, 32), (96, 32), (7, 1), (5, 8)])
def test_training_calls_forward_once_per_step_and_once_per_epoch_loss(
        finger, monkeypatch, n, batch_size):
    X, y, _ = finger
    calls = []
    original = ObliqueTree.forward

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ObliqueTree, "forward", counted)
    epochs = 3
    train(X[:n], y[:n], TrainConfig(depth=3, hidden=2, epochs=epochs,
                                    batch_size=batch_size), n_classes=int(y.max()) + 1)
    assert len(calls) == 1 + epochs * (math.ceil(n / batch_size) + 1)


def forward_bytes(fw):
    return [np.asarray(a).tobytes() for a in fw]


def test_a_public_forward_keeps_its_bytes(finger):
    X, y, c = finger
    tree = train(X, y, TrainConfig(depth=3, hidden=4, epochs=2, lam=0.01), c)
    fw = tree.forward(X[:32])
    before = forward_bytes(fw)
    other = tree.forward(X[32:64])
    assert all(not np.shares_memory(a, b) for a, b in zip(fw[1:], other[1:]))
    loss_and_gradients(tree, X[:32], y[:32], lam=0.01, cost_vec=c)
    tree_mod.loss_value(tree, X[64:96], y[64:96])
    train(X[:64], y[:64], TrainConfig(depth=3, hidden=4, epochs=2, batch_size=32,
                                      lam=0.01), c, init_tree=tree)
    tree.predict_soft(X[:32])
    assert forward_bytes(fw) == before


def test_two_gradient_calls_return_distinct_arrays(finger):
    X, y, c = finger
    tree = ObliqueTree.random(3, X.shape[1], int(y.max()) + 1, hidden=4, rng=1,
                              mu=X.mean(axis=0), sigma=X.std(axis=0))
    loss1, g1 = loss_and_gradients(tree, X[:32], y[:32], lam=0.01, cost_vec=c)
    kept = {name: g1[name].copy() for name in PARAM_NAMES}
    loss2, g2 = loss_and_gradients(tree, X[32:64], y[32:64], lam=0.01, cost_vec=c)
    assert loss1 != loss2
    for name in PARAM_NAMES:
        assert not np.shares_memory(g1[name], g2[name]), name
        assert g1[name].tobytes() == kept[name].tobytes(), name
        assert g1[name].tobytes() != g2[name].tobytes(), name
