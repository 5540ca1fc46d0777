"""The evaluation module's fold loop, folds and per-class metrics.

``compute_metrics`` and ``make_folds`` are checked against the per-class
loop and the hand-built block edges and train masks they replaced, bit for
bit.  ``tradeoff_sweep`` and ``benchmark_report`` are checked against a
hand-written ``cross_validate`` plus a per-fold power loop.  The CLI
commands that train on a dataset refuse one that holds a single class
with exit code 3 (data), while ``eval`` still scores it.
"""

import contextlib
import csv
import io
import json
from dataclasses import replace

import numpy as np
import pytest

from peot import boosting, cli, compression, cost, evaluation, features, synth, tree
from peot.boosting import GbtConfig
from peot.data import Dataset, save_container
from peot.errors import InvalidInputError
from peot.evaluation import (
    benchmark_report,
    compute_metrics,
    cross_validate,
    fold_seed,
    make_folds,
    tradeoff_sweep,
)
from peot.tree import ObliqueTree, TrainConfig

# ---------------------------------------------------------------------------
# references: the per-class loop and the hand-built folds


def _safe_div(num, den):
    return num / den if den > 0 else 0.0


def loop_metrics(y_true, y_pred, n_classes=None) -> evaluation.Metrics:
    """``compute_metrics`` as a Python loop over the classes."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if n_classes is None:
        n_classes = int(max(y_true.max(), y_pred.max())) + 1
    n_classes = max(n_classes, 2)
    conf = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(conf, (y_true, y_pred), 1)
    accuracy = float(np.trace(conf) / conf.sum())
    recalls, precisions, f1s, specs = [], [], [], []
    for k in range(n_classes):
        tp = conf[k, k]
        fn = conf[k].sum() - tp
        fp = conf[:, k].sum() - tp
        tn = conf.sum() - tp - fn - fp
        rec = _safe_div(tp, tp + fn)
        prec = _safe_div(tp, tp + fp)
        recalls.append(rec)
        precisions.append(prec)
        f1s.append(_safe_div(2 * prec * rec, prec + rec))
        specs.append(_safe_div(tn, tn + fp))
    if n_classes == 2:
        return evaluation.Metrics(accuracy, float(f1s[1]), float(recalls[1]),
                                  float(specs[1]), conf, int(conf.sum()))
    return evaluation.Metrics(accuracy, float(np.mean(f1s)), float(np.mean(recalls)),
                              float(np.mean(specs)), conf, int(conf.sum()))


def edge_folds(n, k, test_sets=None):
    """Block test sets from hand-built edges (unless ``test_sets`` is
    given) and each train set from a boolean mask."""
    if test_sets is None:
        sizes = np.full(k, n // k)
        sizes[: n % k] += 1
        edges = np.concatenate([[0], np.cumsum(sizes)])
        test_sets = [np.arange(edges[i], edges[i + 1]) for i in range(k)]
    all_idx = np.arange(n)
    folds = []
    for test in test_sets:
        mask = np.ones(n, dtype=bool)
        mask[test] = False
        folds.append((all_idx[mask], test))
    return folds


def assert_same_metrics(got, want):
    for name in ("accuracy", "f1", "sensitivity", "specificity"):
        g, w = getattr(got, name), getattr(want, name)
        assert type(g) is type(w) is float, name
        assert g.hex() == w.hex(), name
    assert got.confusion.dtype == want.confusion.dtype
    assert np.array_equal(got.confusion, want.confusion)
    assert type(got.n) is type(want.n) and got.n == want.n


def assert_same_folds(got, want):
    assert len(got) == len(want)
    for (g_tr, g_te), (w_tr, w_te) in zip(got, want):
        assert g_tr.dtype == w_tr.dtype and g_te.dtype == w_te.dtype
        assert np.array_equal(g_tr, w_tr) and np.array_equal(g_te, w_te)


LABEL_SETS = {
    "binary": (2, 2),
    "multiclass": (5, 5),
    "absent classes": (2, 7),  # labels drawn from 2 of 7 classes
    "one class": (1, 3),
}


@pytest.mark.parametrize("kind", sorted(LABEL_SETS))
@pytest.mark.parametrize("trial", range(25))
def test_compute_metrics_equals_the_per_class_loop(kind, trial):
    present, n_classes = LABEL_SETS[kind]
    rng = np.random.default_rng([trial, present, n_classes])
    classes = rng.choice(n_classes, size=present, replace=False)
    n = int(rng.integers(1, 80))
    y_true = rng.choice(classes, size=n)
    # predictions near the truth, some wrong and some in absent classes
    y_pred = np.where(rng.random(n) < 0.6, y_true, rng.integers(0, n_classes, n))
    for arg in (n_classes, None, n_classes + 2):
        assert_same_metrics(compute_metrics(y_true, y_pred, arg),
                            loop_metrics(y_true, y_pred, arg))
        assert_same_metrics(compute_metrics(y_true, y_true, arg),
                            loop_metrics(y_true, y_true, arg))


def test_compute_metrics_zero_rates_match_the_loop():
    # class 1 never predicted (precision 0/0), never true (recall 0/0), or both
    for y_true, y_pred in (([0, 0, 1, 1], [0, 0, 0, 0]), ([0, 0, 0], [0, 1, 0]),
                           ([0, 0], [0, 0]), ([1, 1], [1, 1]), ([2, 2], [0, 0])):
        for arg in (None, 2, 3):
            if arg is not None and max(y_true + y_pred) >= arg:
                continue
            assert_same_metrics(compute_metrics(y_true, y_pred, arg),
                                loop_metrics(y_true, y_pred, arg))


def test_block_folds_equal_the_hand_built_edges():
    for n in range(2, 41):
        for k in range(2, n + 1):
            assert_same_folds(make_folds(n, k, "blocks"), edge_folds(n, k))


@pytest.mark.parametrize("trial", range(20))
def test_stratified_train_sets_equal_the_masks(trial):
    rng = np.random.default_rng(4000 + trial)
    n = int(rng.integers(2, 90))
    k = int(rng.integers(2, n + 1))
    y = rng.integers(0, int(rng.integers(1, 5)), n)
    got = make_folds(n, k, "stratified", trial, None, y)
    assert_same_folds(got, edge_folds(n, k, [te for _, te in got]))


# ---------------------------------------------------------------------------
# the sweep and the report against a hand-written priced fold loop


@pytest.fixture(scope="module")
def seizure():
    rec = synth.synth_recording("seizure", 100, 5)
    spec = features.default_feature_spec(rec.n_channels, rec.fs)
    X = features.extract_features(rec, spec)
    c = features.feature_cost_vector(spec, features.DEFAULT_COST_TABLE)
    return X, rec.labels, c, rec.fingerprint()


def priced_folds(X, y, fit, predict, power, c, **cv_args):
    cv = cross_validate(X, y, fit, predict, **cv_args)
    return cv, [power(m, X[te], c) for m, te in zip(cv.models, cv.test_folds)]


def test_sweep_equals_cross_validate_and_per_fold_power(seizure):
    X, y, c, fingerprint = seizure
    base = TrainConfig(hidden=2, epochs=3, warmup_epochs=1)
    cv_args = dict(k=2, scheme="stratified", seed=3, fingerprint=fingerprint)
    points, csv_text = tradeoff_sweep(X, y, c, [0.0, 0.1], [1, 2], base, **cv_args)
    rows = []
    want = []
    for lam in (0.0, 0.1):
        for depth in (1, 2):
            cfg = replace(base, lam=lam, depth=depth)
            cv, powers = priced_folds(
                X, y, lambda a, b, s, cfg=cfg: tree.train(
                    a, b, replace(cfg, seed=s), cost_vec=c, n_classes=2),
                ObliqueTree.predict, cost.deployed_power, c, **cv_args)
            rows += [[repr(lam), str(depth), str(i), repr(m.f1), repr(p), str(depth)]
                     for i, (m, p) in enumerate(zip(cv.fold_metrics, powers))]
            want.append(evaluation.SweepPoint(lam, depth, cv.f1_mean, cv.f1_std,
                                              float(np.mean(powers)), depth))
    assert [p.to_doc() for p in points] == [p.to_doc() for p in want]
    assert list(csv.reader(io.StringIO(csv_text))) == [list(evaluation.SWEEP_CSV_HEADER)] + rows


def test_report_equals_cross_validate_and_per_fold_power(seizure):
    X, y, c, fingerprint = seizure
    gbt_cfg = GbtConfig(n_trees=2, max_depth=2)
    peot_cfg = TrainConfig(depth=2, hidden=2, epochs=3, lam=0.1)
    cv_args = dict(k=2, scheme="blocks", seed=8, fingerprint=fingerprint)
    report = benchmark_report(X, y, c, gbt_config=gbt_cfg, peot_config=peot_cfg,
                              peot_sparsity=0.5, peot_share_bits=2, finetune_epochs=1,
                              **cv_args)
    fits = {
        "gbt": (lambda a, b, s: boosting.train_gbt_multiclass(a, b, gbt_cfg),
                boosting.predict_labels, boosting.model_power, "dense-float32"),
        "pegb": (lambda a, b, s: boosting.quantize_model(boosting.train_gbt_multiclass(
                     a, b, replace(gbt_cfg, cost_lambda=boosting.PEGB_COST_LAMBDA), c)),
                 boosting.predict_labels, boosting.model_power, "quantized-gbt"),
        "peot": (lambda a, b, s: evaluation._fit_peot(a, b, peot_cfg, c, 2, s, 0.5, 2, 1),
                 ObliqueTree.predict, cost.deployed_power, "pruned-shared"),
    }
    for name, (fit, predict, power, accounting) in fits.items():
        cv, powers = priced_folds(X, y, fit, predict, power, c, **cv_args)
        sizes = [compression.model_size_bits(m, accounting) for m in cv.models]
        row = report["methods"][name]
        want = {"f1_mean": cv.f1_mean, "f1_std": cv.f1_std,
                "size_bits_mean": float(np.mean(sizes)), "power_mean": float(np.mean(powers))}
        assert {key: row[key] for key in want} == want, name
    assert report["methods"]["gbt"]["size_norm"] == report["methods"]["gbt"]["power_norm"] == 1.0


def test_cross_validate_seeds_each_fold(seizure):
    X, y, _, _ = seizure
    seen = []
    cross_validate(X, y, lambda a, b, s: seen.append(s) or
                   boosting.train_gbt_multiclass(a, b, GbtConfig(n_trees=1, max_depth=1)),
                   boosting.predict_labels, k=3, seed=11)
    assert seen == [fold_seed(11, i) for i in range(3)]


# ---------------------------------------------------------------------------
# malformed inputs fail before any fold is trained


def _never_fit(*args):
    raise AssertionError("a fold was trained")


BAD_INPUTS = {
    "1-D X": lambda X, y, c: (X[:, 0], y, c),
    "no rows": lambda X, y, c: (X[:0], y[:0], c),
    "short y": lambda X, y, c: (X, y[:-1], c),
    "short cost vector": lambda X, y, c: (X, y, c[:-1]),
    "2-D cost vector": lambda X, y, c: (X, y, c[None, :]),
}


ENTRIES = {
    "cross_validate": lambda X, y, c: cross_validate(X, y, _never_fit, _never_fit, k=2),
    "tradeoff_sweep": lambda X, y, c: tradeoff_sweep(X, y, c, [0.0], [1], TrainConfig(), k=2),
    "benchmark_report": lambda X, y, c: benchmark_report(X, y, c, k=2),
}


@pytest.mark.parametrize("entry, bad", [
    (entry, bad) for entry in sorted(ENTRIES) for bad in sorted(BAD_INPUTS)
    if not (entry == "cross_validate" and "cost" in bad)])  # it takes no cost vector
def test_malformed_inputs_raise_invalid_input_up_front(seizure, monkeypatch, entry, bad):
    monkeypatch.setattr(evaluation.tree_mod, "train", _never_fit)
    monkeypatch.setattr(evaluation.boosting, "train_gbt_multiclass", _never_fit)
    with pytest.raises(InvalidInputError):
        ENTRIES[entry](*BAD_INPUTS[bad](*seizure[:3]))


# ---------------------------------------------------------------------------
# one feature-cost weight for PEGB, one breakdown per compression


def test_pegb_cost_weight_is_the_train_default_and_the_report_s(monkeypatch):
    assert cli.OPTIONS["train"]["cost_lambda"][1] == boosting.PEGB_COST_LAMBDA == 0.5
    seen = []
    real = evaluation._fit_pegb
    monkeypatch.setattr(evaluation, "_fit_pegb",
                        lambda a, b, cfg, c: seen.append(cfg.cost_lambda) or real(a, b, cfg, c))
    rng = np.random.default_rng(2)
    X = rng.normal(size=(40, 3))
    y = (X[:, 0] > 0).astype(np.int64)
    benchmark_report(X, y, np.ones(3), k=2, gbt_config=GbtConfig(n_trees=1, max_depth=1),
                     peot_config=TrainConfig(depth=1, hidden=1, epochs=1),
                     finetune_epochs=1)
    assert seen == [boosting.PEGB_COST_LAMBDA] * 2


def test_compress_pipeline_size_after_is_its_breakdown_total(seizure):
    X, y, c, _ = seizure
    cfg = TrainConfig(depth=2, hidden=2, epochs=2)
    model, report = compression.compress_pipeline(tree.train(X, y, cfg, c), X, y, 0.5, 2, cfg,
                                                  cost_vec=c)
    assert report["size_bits_after"] == report["breakdown"]["total_bits"]
    assert report["size_bits_after"] == compression.model_size_bits(model, "pruned-shared")
    assert report["breakdown"] == compression.size_breakdown(model, "pruned-shared")


# ---------------------------------------------------------------------------
# a single-class dataset: exit 3 from every command that trains on it


def _quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@pytest.fixture(scope="module", params=["dataset", "recording"])
def one_class(request, tmp_path_factory):
    """A two-class container, a peot model trained on it, and the same rows
    relabelled to the single class 1."""
    out = tmp_path_factory.mktemp(request.param)
    if request.param == "dataset":
        X = np.random.default_rng(6).normal(size=(100, 4))
        two = Dataset(X=X, y=(X[:, 0] > 0).astype(np.int64))
        one = replace(two, y=np.ones(100, dtype=np.int64))
    else:
        two = synth.synth_recording("seizure", 100, 2)
        one = replace(two, labels=np.ones(100, dtype=np.int64))
    save_container(two, out / "two.json")
    save_container(one, out / "one.json")
    assert _quiet(["train", "--dataset", str(out / "two.json"), "--epochs", "2",
                   "--seed", "1", "--out", str(out / "model")]) == 0
    return out


ONE_CLASS_COMMANDS = {
    "train peot": ["train", "--epochs", "1"],
    "train gbt": ["train", "--model", "gbt", "--n-trees", "1"],
    "train pegb": ["train", "--model", "pegb", "--n-trees", "1"],
    "compress": ["compress", "--epochs", "1"],
    "sweep": ["sweep", "--k", "2", "--epochs", "1", "--lambdas", "0", "--depths", "2"],
    "report": ["report", "--k", "2"],
}


@pytest.mark.parametrize("command", sorted(ONE_CLASS_COMMANDS))
def test_one_class_dataset_exits_data(one_class, command, tmp_path, capsys):
    argv = ONE_CLASS_COMMANDS[command] + ["--dataset", str(one_class / "one.json"),
                                          "--out", str(tmp_path / "out")]
    if command == "compress":
        argv += ["--model", str(one_class / "model" / "model.json")]
    capsys.readouterr()
    assert _quiet(argv) == cli.EXIT_DATA
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "data" and error["type"] == "DataError"
    assert str(one_class / "one.json") in error["message"]
    assert not (tmp_path / "out" / "model.json").exists()


def test_one_class_dataset_is_still_scored_by_eval(one_class, tmp_path):
    assert _quiet(["eval", "--dataset", str(one_class / "one.json"), "--model",
                   str(one_class / "model" / "model.json"), "--out", str(tmp_path)]) == 0
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["split"] == "full-dataset"
    assert metrics["metrics"]["n"] == 100
