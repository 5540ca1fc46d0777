"""``AxisTree``'s node layout in one place: the record builder and the
array-wise PEGB quantisation against the per-node code they replaced."""

import warnings
from dataclasses import fields

import numpy as np
import pytest

from peot import boosting
from peot.boosting import (
    AxisTree,
    GbtConfig,
    GbtEnsemble,
    quantize_gbt,
    train_gbt,
    train_gbt_multiclass,
    _TreeBuilder,
)
from peot.compression import fit_format, quantize_values
from peot.serialize import dumps_canonical

LAYOUT = ("feature", "threshold", "left", "right", "value", "node_depth")
DTYPES = (np.int64, np.float64, np.int64, np.int64, np.float64, np.int64)


# ---------------------------------------------------------------------------
# oracles: one list per array, and one quantize_values call per node


class SixListBuilder(_TreeBuilder):
    """The builder with one Python list per node array, filled node by node."""

    def _append(self, *record):
        for name, v in zip(LAYOUT, record):
            self.lists[name].append(v)
        return len(self.lists["feature"]) - 1

    def _grow(self, idx, depth):
        cfg = self.cfg
        split = self._best_split(idx) if depth < cfg.max_depth else None
        if split is None:
            w = -self.g[idx].sum() / (self.h[idx].sum() + cfg.reg_lambda)
            return self._append(-1, np.nan, -1, -1, float(w), depth)
        _, j, thr, left_local = split
        self.used_features.add(j)
        node = self._append(j, thr, -1, -1, 0.0, depth)
        left_mask = np.zeros(idx.size, dtype=bool)
        left_mask[left_local] = True
        self.lists["left"][node] = self._grow(idx[left_mask], depth + 1)
        self.lists["right"][node] = self._grow(idx[~left_mask], depth + 1)
        return node

    def tree(self):
        self.lists = {name: [] for name in LAYOUT}
        self._grow(np.arange(self.X.shape[0]), 0)
        return AxisTree(**{name: np.asarray(self.lists[name], dtype=dt)
                           for name, dt in zip(LAYOUT, DTYPES)})


def per_node_quantize(ensemble, threshold_bits=10, leaf_bits=3):
    """PEGB quantisation node by node: one-element ``quantize_values`` calls."""
    thr_by_feature, leaf_vals = {}, []
    for t in ensemble.trees:
        internal = t.feature >= 0
        for f, thr in zip(t.feature[internal], t.threshold[internal]):
            thr_by_feature.setdefault(int(f), []).append(float(thr))
        leaf_vals.extend(t.value[~internal].tolist())
    thr_formats = {f: fit_format(np.asarray(v), threshold_bits)
                   for f, v in thr_by_feature.items()}
    leaf_format = fit_format(np.asarray(leaf_vals), leaf_bits)
    new_trees = []
    for t in ensemble.trees:
        threshold, value = t.threshold.copy(), t.value.copy()
        for i in range(t.n_nodes):
            if t.feature[i] >= 0:
                threshold[i] = quantize_values([threshold[i]], thr_formats[int(t.feature[i])])[0]
            else:
                value[i] = quantize_values([value[i]], leaf_format)[0]
        new_trees.append(AxisTree(t.feature.copy(), threshold, t.left.copy(),
                                  t.right.copy(), value, t.node_depth.copy()))
    quant = {
        "threshold_bits": threshold_bits, "leaf_bits": leaf_bits,
        "threshold_ranges": {str(f): [fmt.lo, fmt.hi]
                             for f, fmt in sorted(thr_formats.items())},
        "leaf_range": [leaf_format.lo, leaf_format.hi],
    }
    return GbtEnsemble(new_trees, ensemble.learning_rate, ensemble.base_score,
                       ensemble.n_features, quant=quant, meta=dict(ensemble.meta))


def task(n_classes, seed, n=160, F=6):
    """Labels driven by a few columns, so trees reuse features at many nodes."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, F))
    X[:, -1] = np.round(X[:, -1], 1)  # ties in one column
    score = X[:, 0] + 0.6 * X[:, 1] * X[:, 2] + 0.4 * rng.normal(size=n)
    y = np.digitize(score, np.quantile(score, np.linspace(0, 1, n_classes + 1)[1:-1]))
    return X, y.astype(np.int64), rng.uniform(0.5, 3.0, size=F)


CONFIGS = [GbtConfig(n_trees=4, max_depth=4, min_samples_leaf=3, cost_lambda=lam)
           for lam in (0.0, 0.5)]


# ---------------------------------------------------------------------------
# one record per node


@pytest.mark.parametrize("n_classes", [2, 3, 5])
@pytest.mark.parametrize("cfg", CONFIGS, ids=["lam0", "lam0.5"])
@pytest.mark.parametrize("seed", range(3))
def test_record_builder_builds_the_six_list_trees(n_classes, cfg, seed, monkeypatch):
    X, y, c = task(n_classes, seed)
    got = train_gbt_multiclass(X, y, cfg, c)
    monkeypatch.setattr(boosting, "_TreeBuilder", SixListBuilder)
    want = train_gbt_multiclass(X, y, cfg, c)
    assert dumps_canonical(got.to_doc()) == dumps_canonical(want.to_doc())
    for e, ref in zip(got.ensembles, want.ensembles, strict=True):
        for t, r in zip(e.trees, ref.trees, strict=True):
            for name, dt in zip(LAYOUT, DTYPES):
                assert getattr(t, name).dtype == dt == getattr(r, name).dtype


def test_a_feature_split_above_a_node_is_free_below_it():
    """With one column only the root pays the first-use penalty, so a
    penalty between the children's gains and the root's leaves the tree as
    it is without one."""
    x = np.arange(60.0)
    y = ((x < 30) | ((x >= 50) & (x < 56))).astype(np.float64)
    g, h = 0.5 - y, np.full(60, 0.25)
    free = _TreeBuilder(x[:, None], g, h, GbtConfig(max_depth=3, min_samples_leaf=5))
    want = free.tree()
    left = x <= want.threshold[0]
    child_gains = [free._best_split(np.flatnonzero(rows)) for rows in (left, ~left)]
    child_gain = max(s[0] for s in child_gains if s is not None)
    root_gain = free._best_split(np.arange(60))[0]
    assert want.n_internal >= 2 and root_gain > child_gain
    lam = 0.5 * (root_gain + child_gain)
    got = _TreeBuilder(x[:, None], g, h, GbtConfig(max_depth=3, min_samples_leaf=5,
                                                   cost_lambda=lam)).tree()
    assert dumps_canonical(got.to_doc()) == dumps_canonical(want.to_doc())


def test_each_leaf_holds_the_newton_step_of_the_rows_it_receives():
    X, _, _ = task(2, 4)
    rng = np.random.default_rng(5)
    g, h = rng.normal(size=X.shape[0]), rng.uniform(0.1, 1.0, size=X.shape[0])
    cfg = GbtConfig(max_depth=4, min_samples_leaf=3)
    tree = _TreeBuilder(X, g, h, cfg).tree()
    assert tree.n_internal >= 3
    reached = tree.walk(X)
    assert np.array_equal(np.unique(reached), np.flatnonzero(tree.feature < 0))
    for node in np.unique(reached):
        rows = reached == node
        assert tree.value[node] == pytest.approx(
            -g[rows].sum() / (h[rows].sum() + cfg.reg_lambda), rel=1e-12)
    # preorder: a left child directly follows its parent, one level down
    internal = np.flatnonzero(tree.feature >= 0)
    assert np.array_equal(tree.left[internal], internal + 1)
    for child in (tree.left, tree.right):
        assert np.array_equal(tree.node_depth[child[internal]], tree.node_depth[internal] + 1)


def test_the_single_class_stump_is_the_hand_built_tree():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = train_gbt(np.ones((6, 3)), np.zeros(6, dtype=np.int64), GbtConfig())
    hand = AxisTree(feature=np.asarray([-1], dtype=np.int64),
                    threshold=np.asarray([np.nan], dtype=np.float64),
                    left=np.asarray([-1], dtype=np.int64),
                    right=np.asarray([-1], dtype=np.int64),
                    value=np.asarray([0.0], dtype=np.float64),
                    node_depth=np.asarray([0], dtype=np.int64))
    (stump,) = model.trees
    for name in LAYOUT:
        a, b = getattr(stump, name), getattr(hand, name)
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)


def test_records_and_documents_use_the_field_layout():
    assert tuple(f.name for f in fields(AxisTree)) == LAYOUT
    records = [(0, 0.5, 1, 2, 0.0, 0), (-1, np.nan, -1, -1, -1.25, 1),
               (-1, np.nan, -1, -1, 2.0, 1)]
    tree = AxisTree.from_records(records)
    for name, dt, column in zip(LAYOUT, DTYPES, zip(*records)):
        a = getattr(tree, name)
        assert a.dtype == dt and np.array_equal(a, np.asarray(column, dtype=dt), equal_nan=True)
    assert tuple(tree.to_doc()) == LAYOUT
    back = AxisTree.from_doc(tree.to_doc())
    assert dumps_canonical(back.to_doc()) == dumps_canonical(tree.to_doc())


# ---------------------------------------------------------------------------
# PEGB quantised by array


BITS = [(10, 3), (1, 1), (4, 8)]


@pytest.mark.parametrize("n_classes", [2, 3, 5])
@pytest.mark.parametrize("cfg", CONFIGS, ids=["lam0", "lam0.5"])
@pytest.mark.parametrize("bits", BITS, ids=lambda b: f"{b[0]},{b[1]}")
def test_quantize_gbt_matches_the_per_node_quantisation(n_classes, cfg, bits):
    X, y, c = task(n_classes, 7 + n_classes)
    model = train_gbt_multiclass(X, y, cfg, c)
    split_counts = []
    for e in model.ensembles:
        got, want = quantize_gbt(e, *bits), per_node_quantize(e, *bits)
        assert dumps_canonical(got.to_doc()) == dumps_canonical(want.to_doc())
        assert list(got.quant["threshold_ranges"]) == list(want.quant["threshold_ranges"])
        used = np.concatenate([t.feature[t.feature >= 0] for t in e.trees])
        split_counts.append(np.bincount(used).max())
    assert max(split_counts) >= 3  # some feature is split at several nodes


def test_quantize_gbt_fits_formats_over_the_whole_ensemble():
    """Two trees split feature 0 twice each: one 1-bit grid spans both trees'
    thresholds, and one spans every leaf, so no tree keeps its own range."""
    def two_splits(thresholds, leaves):
        (t0, t1), (v0, v1, v2) = thresholds, leaves
        return AxisTree.from_records([(0, t0, 1, 2, 0.0, 0), (-1, np.nan, -1, -1, v0, 1),
                                      (0, t1, 3, 4, 0.0, 1), (-1, np.nan, -1, -1, v1, 2),
                                      (-1, np.nan, -1, -1, v2, 2)])
    e = GbtEnsemble([two_splits((0.0, 1.0), (-1.0, -0.5, 0.0)),
                     two_splits((9.0, 10.0), (2.0, 2.5, 3.0))], 0.3, 0.0, 2)
    q = quantize_gbt(e, threshold_bits=1, leaf_bits=1)
    assert q.quant["threshold_ranges"] == {"0": [0.0, 10.0]}
    assert q.quant["leaf_range"] == [-1.0, 3.0]
    internal = e.trees[0].feature >= 0
    assert [t.threshold[internal].tolist() for t in q.trees] == [[0.0, 0.0], [10.0, 10.0]]
    assert [t.value[~internal].tolist() for t in q.trees] == [[-1.0] * 3, [3.0] * 3]
    assert dumps_canonical(q.to_doc()) == dumps_canonical(per_node_quantize(e, 1, 1).to_doc())


@pytest.mark.parametrize("bits", BITS, ids=lambda b: f"{b[0]},{b[1]}")
def test_quantize_gbt_of_the_stump_matches_the_per_node_quantisation(bits):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        stump = train_gbt(np.ones((6, 3)), np.ones(6, dtype=np.int64), GbtConfig())
    got, want = quantize_gbt(stump, *bits), per_node_quantize(stump, *bits)
    assert dumps_canonical(got.to_doc()) == dumps_canonical(want.to_doc())
    assert got.quant["threshold_ranges"] == {}


def test_quantized_arrays_do_not_alias_the_source():
    X, y, c = task(2, 3)
    e = train_gbt(X, y, CONFIGS[0], c)
    q = quantize_gbt(e)
    for t, src in zip(q.trees, e.trees, strict=True):
        for name in LAYOUT:
            assert not np.shares_memory(getattr(t, name), getattr(src, name))
    for qt, other in zip(q.trees[:-1], q.trees[1:]):
        for name in LAYOUT:
            assert not np.shares_memory(getattr(qt, name), getattr(other, name))

