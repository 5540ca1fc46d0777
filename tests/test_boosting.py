import math

import numpy as np
import pytest

from peot import boosting
from peot.boosting import (
    AxisTree,
    GbtConfig,
    GbtEnsemble,
    GbtOvR,
    model_power,
    predict_gbt,
    predict_labels,
    quantize_model,
    train_gbt,
    train_gbt_multiclass,
    _TreeBuilder,
)
from peot.compression import model_size_bits
from peot.errors import InvalidInputError


class TestTrainingSetValidation:
    @pytest.mark.parametrize("fit", [train_gbt, train_gbt_multiclass])
    def test_empty_dataset_rejected(self, fit):
        with pytest.raises(InvalidInputError):
            fit(np.zeros((0, 2)), np.zeros(0, dtype=int), GbtConfig())

    @pytest.mark.parametrize("fit", [train_gbt, train_gbt_multiclass])
    def test_label_count_must_match_rows(self, fit):
        with pytest.raises(InvalidInputError):
            fit(np.zeros((4, 2)), np.array([0, 1, 2]), GbtConfig())


# ---------------------------------------------------------------------------
# one boosted-model type: sizing and deployed power

N_FEATURES = 5


def full_tree(depth, rng, n_features=N_FEATURES):
    """Complete axis tree: 2^depth - 1 internal nodes, 2^depth leaves."""
    n = 2 ** (depth + 1) - 1
    node = np.arange(n)
    internal = node < 2 ** depth - 1
    return AxisTree(
        feature=np.where(internal, rng.integers(0, n_features, n), -1),
        threshold=np.where(internal, rng.normal(size=n), np.nan),
        left=np.where(internal, 2 * node + 1, -1),
        right=np.where(internal, 2 * node + 2, -1),
        value=np.where(internal, 0.0, rng.normal(size=n)),
        node_depth=np.floor(np.log2(node + 1)).astype(np.int64),
    )


def hand_model(tree_depths, seed=0):
    """One member per entry of ``tree_depths``, each a list of tree depths."""
    rng = np.random.default_rng(seed)
    return GbtOvR([GbtEnsemble([full_tree(d, rng) for d in depths], 0.3,
                               float(rng.normal()), N_FEATURES)
                   for depths in tree_depths])


BINARY = [[1, 2, 3]]
THREE_CLASS = [[1, 2], [3], [2, 2, 1]]


def closed_form_bits(tree_depths, threshold_bits, leaf_bits):
    idx_bits = math.ceil(math.log2(N_FEATURES))
    total = 0
    for depths in tree_depths:
        for d in depths:
            total += (2 ** d - 1) * (idx_bits + threshold_bits) + 2 ** d * leaf_bits
    return total


class TestSize:
    @pytest.mark.parametrize("depths", [BINARY, THREE_CLASS])
    def test_dense_float32(self, depths):
        model = hand_model(depths)
        assert model_size_bits(model, "dense-float32") == closed_form_bits(depths, 32, 32)

    @pytest.mark.parametrize("depths", [BINARY, THREE_CLASS])
    def test_quantized_gbt(self, depths):
        model = quantize_model(hand_model(depths))
        assert model_size_bits(model, "quantized-gbt") == closed_form_bits(depths, 10, 3)

    def test_bare_ensemble_is_a_one_member_model(self):
        model = hand_model(BINARY)
        assert (model_size_bits(model.ensembles[0], "dense-float32")
                == model_size_bits(model, "dense-float32"))

    @pytest.mark.parametrize("depths", [BINARY, THREE_CLASS])
    def test_quantized_accounting_needs_a_quantized_model(self, depths):
        with pytest.raises(InvalidInputError):
            model_size_bits(hand_model(depths), "quantized-gbt")


def power_oracle(model, X, c):
    """Scalar walk per sample over every tree of every member."""
    total = 0.0
    for x in X:
        read = set()
        for ensemble in model.ensembles:
            for t in ensemble.trees:
                node = 0
                while t.feature[node] >= 0:
                    read.add(int(t.feature[node]))
                    go_right = x[t.feature[node]] > t.threshold[node]
                    node = t.right[node] if go_right else t.left[node]
        total += sum(c[f] for f in read)
    return total / len(X)


@pytest.fixture(params=[BINARY, THREE_CLASS], ids=["binary", "3-class"])
def boosted(request):
    return hand_model(request.param, seed=3)


class TestModelPower:
    def test_matches_scalar_walk(self, boosted):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, N_FEATURES))
        c = rng.uniform(0.5, 3.0, size=N_FEATURES)
        assert model_power(boosted, X, c) == pytest.approx(power_oracle(boosted, X, c),
                                                           rel=1e-12)

    def test_empty_batch_rejected(self, boosted):
        with pytest.raises(InvalidInputError):
            model_power(boosted, np.zeros((0, N_FEATURES)), np.ones(N_FEATURES))

    @pytest.mark.parametrize("n_cols", [N_FEATURES - 1, N_FEATURES + 1])
    def test_wrong_column_count_rejected(self, boosted, n_cols):
        with pytest.raises(InvalidInputError):
            model_power(boosted, np.zeros((3, n_cols)), np.ones(N_FEATURES))

    def test_short_cost_vector_rejected(self, boosted):
        with pytest.raises(InvalidInputError):
            model_power(boosted, np.zeros((3, N_FEATURES)), np.ones(N_FEATURES - 1))


class TestOneMemberModel:
    def test_binary_task_trains_a_one_member_model(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 3))
        y = (X[:, 0] + 0.3 * rng.normal(size=60) > 0).astype(np.int64)
        model = train_gbt_multiclass(X, y, GbtConfig(n_trees=3))
        assert isinstance(model, GbtOvR) and len(model.ensembles) == 1
        assert np.array_equal(predict_labels(model, X),
                              predict_gbt(model.ensembles[0], X)[2])

    def test_multiclass_label_is_the_top_margin(self):
        model = hand_model(THREE_CLASS, seed=6)
        X = np.random.default_rng(7).normal(size=(30, N_FEATURES))
        margins = np.stack([e.margins(X) for e in model.ensembles])
        assert np.array_equal(predict_labels(model, X), margins.argmax(axis=0))



# ---------------------------------------------------------------------------
# exact greedy split search against brute force


def split_candidates(X, g, h, cfg, cost_vec, used):
    """(gain, feature, threshold, left rows) of every admissible split, by
    feature and then ascending threshold, with the builder's gain formula."""
    G, H = g.sum(), h.sum()
    parent = G * G / (H + cfg.reg_lambda)
    for j in range(X.shape[1]):
        values = np.unique(X[:, j])
        for thr in 0.5 * (values[:-1] + values[1:]):
            left = X[:, j] < thr
            n_left = int(left.sum())
            if min(n_left, left.size - n_left) < cfg.min_samples_leaf:
                continue
            GL, HL = g[left].sum(), h[left].sum()
            GR, HR = G - GL, H - HL
            gain = 0.5 * (GL * GL / (HL + cfg.reg_lambda)
                          + GR * GR / (HR + cfg.reg_lambda) - parent)
            if cfg.cost_lambda > 0 and j not in used:
                gain -= cfg.cost_lambda * cost_vec[j]
            yield gain, j, thr, np.flatnonzero(left)


def test_best_split_matches_brute_force():
    rng = np.random.default_rng(0)
    n_tied = n_none = 0
    for _ in range(300):
        n, F = int(rng.integers(2, 13)), int(rng.integers(1, 4))
        # small integer grids and dyadic gradients keep every sum exact, so
        # tied gains are equal in both searches whatever the summation order
        X = rng.integers(0, 4, size=(n + 3, F)).astype(np.float64)
        g = rng.choice([-1.0, -0.5, 0.25, 0.5, 1.0], size=n + 3)
        h = rng.choice([0.25, 0.5, 1.0], size=n + 3)
        cfg = GbtConfig(min_samples_leaf=int(rng.integers(1, 4)),
                        reg_lambda=float(rng.choice([0.0, 1.0, 4.0])),
                        cost_lambda=float(rng.choice([0.0, 0.0, 0.05, 0.5])))
        cost_vec = rng.choice([0.5, 1.0, 2.0], size=F)
        used = {j for j in range(F) if rng.random() < 0.5}
        idx = np.sort(rng.choice(n + 3, size=n, replace=False))
        builder = _TreeBuilder(X, g, h, cfg, cost_vec)
        builder.used_features = set(used)
        got = builder._best_split(idx)

        candidates = [c for c in split_candidates(X[idx], g[idx], h[idx], cfg, cost_vec, used)
                      if c[0] > 0.0]
        if not candidates:
            n_none += 1
            assert got is None
            continue
        # the first of the largest gains: lowest feature, then lowest threshold
        best = max(candidates, key=lambda c: c[0])
        gain, j, thr, left = got
        assert (gain, j, thr) == best[:3]
        assert np.array_equal(np.sort(left), best[3])
        n_tied += sum(c[0] == best[0] for c in candidates) > 1
    assert n_tied > 10 and n_none > 10  # both the tie order and "no split" are exercised


# ---------------------------------------------------------------------------
# columns sorted once per train_gbt against a stable sort at every node


class PerNodeSortBuilder(_TreeBuilder):
    """The exact greedy builder with a stable argsort of every column at
    every node, in the node's own row order."""

    def _best_split(self, idx):
        cfg = self.cfg
        m = idx.size
        if m < 2 * cfg.min_samples_leaf:
            return None
        g, h = self.g[idx], self.h[idx]
        G, H = g.sum(), h.sum()
        parent = G * G / (H + cfg.reg_lambda)
        best = None
        for j in range(self.X.shape[1]):
            xs_col = self.X[idx, j]
            order = np.argsort(xs_col, kind="stable")
            xs = xs_col[order]
            cg = np.cumsum(g[order])
            ch = np.cumsum(h[order])
            cand = np.flatnonzero(xs[1:] > xs[:-1]) + 1
            cand = cand[(cand >= cfg.min_samples_leaf)
                        & (cand <= m - cfg.min_samples_leaf)]
            if cand.size == 0:
                continue
            GL, HL = cg[cand - 1], ch[cand - 1]
            GR, HR = G - GL, H - HL
            gains = 0.5 * (GL * GL / (HL + cfg.reg_lambda)
                           + GR * GR / (HR + cfg.reg_lambda) - parent)
            if cfg.cost_lambda > 0 and j not in self.used_features:
                cost = 1.0 if self.cost_vec is None else float(self.cost_vec[j])
                gains = gains - cfg.cost_lambda * cost
            pos = int(np.argmax(gains))
            if gains[pos] <= 0.0:
                continue
            if best is None or gains[pos] > best[0]:
                thr = 0.5 * (xs[cand[pos] - 1] + xs[cand[pos]])
                best = (float(gains[pos]), j, float(thr), order[: cand[pos]])
        return best


def tree_arrays(model):
    return [[getattr(t, name) for name in ("feature", "threshold", "left", "right",
                                            "value", "node_depth")]
            for e in model.ensembles for t in e.trees]


@pytest.mark.parametrize("trial", range(6))
@pytest.mark.parametrize("cost_lambda", [0.0, 0.4])
@pytest.mark.parametrize("with_costs", [False, True])
def test_presorted_columns_build_the_per_node_sort_trees(trial, cost_lambda, with_costs,
                                                         monkeypatch):
    rng = np.random.default_rng(500 + trial)
    n, F = int(rng.integers(15, 80)), int(rng.integers(1, 6))
    # few distinct values per column, so most columns hold long runs of ties
    X = rng.integers(0, 4, size=(n, F)).astype(np.float64)
    X[:, -1] += np.round(rng.normal(size=n), 1) * (trial % 2)
    y = rng.integers(0, 2 + trial % 3, size=n)  # binary and multiclass
    cost_vec = rng.uniform(0.2, 3.0, size=F) if with_costs else None
    for min_samples_leaf in range(1, 6):
        cfg = GbtConfig(n_trees=3, max_depth=4, min_samples_leaf=min_samples_leaf,
                        cost_lambda=cost_lambda)
        got = [train_gbt_multiclass(X, y, cfg, cost_vec),
               GbtOvR([train_gbt(X, (y == 1).astype(np.int64), cfg, cost_vec)])]
        with monkeypatch.context() as m:
            m.setattr(boosting, "_TreeBuilder", PerNodeSortBuilder)
            want = [train_gbt_multiclass(X, y, cfg, cost_vec),
                    GbtOvR([train_gbt(X, (y == 1).astype(np.int64), cfg, cost_vec)])]
        for model, ref in zip(got, want):
            for arrays, ref_arrays in zip(tree_arrays(model), tree_arrays(ref), strict=True):
                for a, b in zip(arrays, ref_arrays):
                    assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)


@pytest.mark.parametrize("field", ["reg_lambda", "cost_lambda"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_weight_rejected_by_gbt_config(field, value):
    with pytest.raises(InvalidInputError, match="finite"):
        GbtConfig(**{field: value}).validate()
