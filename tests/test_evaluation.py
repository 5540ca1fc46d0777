from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peot import boosting, compression, cost, evaluation, features, synth
from peot.boosting import GbtConfig
from peot.errors import NumericError
from peot.evaluation import (
    benchmark_report,
    cross_validate,
    make_folds,
    tradeoff_sweep,
)
from peot.tree import ObliqueTree, TrainConfig


def check_partition(folds, n, k):
    assert len(folds) == k
    tests = [te for _, te in folds]
    assert np.array_equal(np.sort(np.concatenate(tests)), np.arange(n))
    for train, test in folds:
        assert test.size > 0
        assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(n))
        assert np.intersect1d(train, test).size == 0


@st.composite
def n_and_k(draw):
    n = draw(st.integers(2, 60))
    return n, draw(st.integers(2, n))


@settings(max_examples=60, deadline=None)
@given(n_and_k())
def test_block_folds_are_disjoint_and_covering(nk):
    n, k = nk
    folds = make_folds(n, k, "blocks")
    check_partition(folds, n, k)
    for _, test in folds:  # contiguous blocks
        assert np.array_equal(test, np.arange(test[0], test[-1] + 1))


@settings(max_examples=60, deadline=None)
@given(n_and_k(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_stratified_folds_are_disjoint_and_covering(nk, n_classes, seed):
    n, k = nk
    y = np.random.default_rng(seed).integers(0, n_classes, n)
    check_partition(make_folds(n, k, "stratified", seed=seed, y=y), n, k)


@pytest.fixture(scope="module")
def seizure():
    rec = synth.synth_recording("seizure", 120, 3)
    spec = features.default_feature_spec(rec.n_channels, rec.fs)
    X = features.extract_features(rec, spec)
    c = features.feature_cost_vector(spec, features.DEFAULT_COST_TABLE)
    return X, rec.labels, c, rec.fingerprint()


def test_report_rows_are_cross_validate_of_their_fit(seizure):
    X, y, c, fingerprint = seizure
    gbt_cfg = GbtConfig(n_trees=3, max_depth=2)
    peot_cfg = TrainConfig(depth=2, hidden=2, epochs=8, lam=0.1)
    sparsity, share_bits, ft_epochs = 0.5, 2, 2
    report = benchmark_report(
        X, y, c, k=3, seed=4, fingerprint=fingerprint, gbt_config=gbt_cfg,
        peot_config=peot_cfg, peot_sparsity=sparsity, peot_share_bits=share_bits,
        finetune_epochs=ft_epochs)
    n_classes = int(y.max()) + 1
    rows = {
        "gbt": (lambda a, b, s: boosting.train_gbt_multiclass(a, b, gbt_cfg),
                boosting.predict_labels, boosting.model_power, "dense-float32"),
        "pegb": (lambda a, b, s: evaluation._fit_pegb(
                     a, b, replace(gbt_cfg, cost_lambda=0.5), c),
                 boosting.predict_labels, boosting.model_power, "quantized-gbt"),
        "peot": (lambda a, b, s: evaluation._fit_peot(
                     a, b, peot_cfg, c, n_classes, s, sparsity, share_bits, ft_epochs),
                 ObliqueTree.predict, cost.deployed_power, "pruned-shared"),
    }
    for name, (fit, predict, power, accounting) in rows.items():
        cv = cross_validate(X, y, fit, predict, k=3, seed=4, fingerprint=fingerprint)
        row = report["methods"][name]
        assert (row["f1_mean"], row["f1_std"]) == (cv.f1_mean, cv.f1_std), name
        sizes = [compression.model_size_bits(m, accounting) for m in cv.models]
        powers = [power(m, X[te], c) for m, te in zip(cv.models, cv.test_folds)]
        assert row["size_bits_mean"] == np.mean(sizes), name
        assert row["power_mean"] == np.mean(powers), name


def test_sweep_records_a_diverging_point_and_continues(seizure, monkeypatch):
    X, y, c, fingerprint = seizure
    train = evaluation.tree_mod.train

    def diverges_at_lam_one(X, y, config, **kwargs):
        if config.lam == 1.0:
            raise NumericError("training diverged")
        return train(X, y, config, **kwargs)

    monkeypatch.setattr(evaluation.tree_mod, "train", diverges_at_lam_one)
    points, csv_text = tradeoff_sweep(
        X, y, c, [0.0, 1.0, 0.1], [1], TrainConfig(hidden=2, epochs=3), k=3,
        seed=2, fingerprint=fingerprint)
    assert [p.lam for p in points] == [0.0, 1.0, 0.1]
    failed = points[1]
    assert failed.error == "training diverged" and np.isnan(failed.f1_mean)
    assert all(p.error is None and np.isfinite(p.f1_mean) for p in (points[0], points[2]))
    lams = [line.split(",")[0] for line in csv_text.splitlines()[1:]]
    assert lams == ["0.0"] * 3 + ["0.1"] * 3
