import numpy as np
import pytest
from scipy.special import expit

from peot import tree as tree_mod
from peot.cost import power_penalty_gradients
from peot.errors import InvalidInputError, NumericError
from peot.tree import (
    PARAM_NAMES,
    ObliqueTree,
    TrainConfig,
    loss_and_gradients,
    loss_value,
    train,
)


def random_tree(depth=3, F=10, C=3, hidden=4, seed=0, leaf_scale=0.5):
    rng = np.random.default_rng(seed)
    tree = ObliqueTree.random(depth, F, C, hidden=hidden, rng=rng)
    tree.leaf_logits = rng.normal(0, leaf_scale, size=tree.leaf_logits.shape)
    return tree


def blob_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = np.concatenate([rng.normal([-2, -2], 0.5, (n // 2, 2)),
                        rng.normal([2, 2], 0.5, (n // 2, 2))])
    y = np.concatenate([np.zeros(n // 2, dtype=np.int64),
                        np.ones(n // 2, dtype=np.int64)])
    p = rng.permutation(n)
    return X[p], y[p]


def xor_data(n=400, seed=0):
    rng = np.random.default_rng(seed)
    q = rng.integers(0, 2, size=(n, 2))
    X = q * 4.0 - 2.0 + rng.normal(0, 0.4, (n, 2))
    y = (q[:, 0] ^ q[:, 1]).astype(np.int64)
    return X, y


class TestRoutingProbability:
    def test_zero_parameters_give_half(self):
        tree = ObliqueTree(1, 3, 2, 2, np.zeros((1, 2, 3)), np.zeros((1, 2)),
                           np.zeros((1, 2)), np.zeros(1), np.zeros((2, 2)))
        assert tree.routing_probability(0, [1.0, -5.0, 3.0]) == 0.5

    def test_saturated_logit(self):
        tree = ObliqueTree(1, 1, 2, 1, np.ones((1, 1, 1)), np.zeros((1, 1)),
                           np.full((1, 1), 20.0), np.zeros(1), np.zeros((2, 2)))
        assert tree.routing_probability(0, [1.0]) > 0.999999

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(3)
        tree = random_tree(seed=3)
        x = rng.normal(size=10)
        node = 2
        # naive matrix-vector oracle
        hid = []
        for h in range(tree.hidden):
            acc = tree.b1[node, h]
            for f in range(tree.n_features):
                acc += tree.W1[node, h, f] * x[f]
            hid.append(max(acc, 0.0))
        logit = tree.b2[node] + sum(tree.w2[node, h] * hid[h]
                                    for h in range(tree.hidden))
        expected = 1.0 / (1.0 + np.exp(-logit))
        assert tree.routing_probability(node, x) == pytest.approx(expected,
                                                                  abs=1e-12)

    def test_dimension_mismatch(self):
        tree = random_tree()
        with pytest.raises(InvalidInputError):
            tree.routing_probability(0, np.zeros(7))


def leaf_probability_oracle(tree, x):
    """Brute-force product of branch probabilities along each root path."""
    probs = np.empty(tree.n_leaves)
    for leaf in range(tree.n_leaves):
        node, p = 0, 1.0
        for level in reversed(range(tree.depth)):
            bit = (leaf >> level) & 1
            right = tree.routing_probability(node, x)
            p *= right if bit else (1.0 - right)
            node = 2 * node + 1 + bit
        probs[leaf] = p
    return probs


class TestPathProbabilities:
    def test_zero_tree_uniform(self):
        tree = ObliqueTree(2, 3, 2, 2, np.zeros((3, 2, 3)), np.zeros((3, 2)),
                           np.zeros((3, 2)), np.zeros(3), np.zeros((4, 2)))
        np.testing.assert_allclose(tree.path_probabilities(np.ones(3)),
                                   [0.25] * 4, atol=0)

    def test_partition_of_unity(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            tree = random_tree(depth=3, seed=seed)
            x = rng.normal(size=tree.n_features)
            assert tree.path_probabilities(x).sum() == pytest.approx(1.0,
                                                                     abs=1e-9)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(6)
        for seed in range(5):
            tree = random_tree(depth=3, seed=seed)
            x = rng.normal(size=tree.n_features)
            np.testing.assert_allclose(tree.path_probabilities(x),
                                       leaf_probability_oracle(tree, x),
                                       atol=1e-12)


class TestPredictSoft:
    def test_identical_leaves_return_leaf_distribution(self):
        tree = random_tree(depth=2, C=4, seed=1)
        tree.leaf_logits = np.tile([2.0, -1.0, 0.5, 0.0], (tree.n_leaves, 1))
        q = np.exp([2.0, -1.0, 0.5, 0.0])
        q = q / q.sum()
        for seed in range(5):
            x = np.random.default_rng(seed).normal(size=tree.n_features)
            np.testing.assert_allclose(tree.predict_soft(x), q, atol=1e-12)

    def test_zero_tree_one_hot_leaves_uniform(self):
        leaf_logits = np.full((4, 4), -30.0)
        np.fill_diagonal(leaf_logits, 30.0)
        tree = ObliqueTree(2, 3, 4, 2, np.zeros((3, 2, 3)), np.zeros((3, 2)),
                           np.zeros((3, 2)), np.zeros(3), leaf_logits)
        np.testing.assert_allclose(tree.predict_soft(np.ones(3)),
                                   [0.25] * 4, atol=1e-12)

    def test_matches_leaf_enumeration_oracle(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            tree = random_tree(depth=3, seed=seed)
            x = rng.normal(size=tree.n_features)
            P = leaf_probability_oracle(tree, x)
            pi = np.exp(tree.leaf_logits
                        - tree.leaf_logits.max(axis=1, keepdims=True))
            pi = pi / pi.sum(axis=1, keepdims=True)
            np.testing.assert_allclose(tree.predict_soft(x), P @ pi, atol=1e-12)

    def test_outputs_are_distributions(self):
        tree = random_tree(depth=3, seed=9, leaf_scale=2.0)
        X = np.random.default_rng(1).normal(size=(50, tree.n_features))
        S = tree.predict_soft(X)
        assert np.all(S >= 0)
        np.testing.assert_allclose(S.sum(axis=1), 1.0, atol=1e-9)


class TestSinglePath:
    def test_zero_tree_goes_all_left(self):
        tree = ObliqueTree(3, 2, 2, 2, np.zeros((7, 2, 2)), np.zeros((7, 2)),
                           np.zeros((7, 2)), np.zeros(7), np.zeros((8, 2)))
        label, visited, leaf = tree.predict_single_path(np.ones(2))
        assert visited == [0, 1, 3]
        assert leaf == 0
        assert label == 0  # argmax tie goes to the lowest class index

    def test_visits_exactly_depth_nodes(self):
        for depth in (1, 2, 4):
            tree = random_tree(depth=depth, seed=depth)
            _, visited, _ = tree.predict_single_path(np.zeros(tree.n_features))
            assert len(visited) == depth

    def test_saturated_tree_agrees_with_soft_argmax(self):
        # scale routing weights so probabilities saturate; the agreement
        # property is conditioned on inputs routed outside [0.4, 0.6]
        tree = random_tree(depth=3, seed=11, leaf_scale=2.0)
        tree.W1 *= 60.0
        tree.b2 = tree.b2 + 0.3  # break exact-zero logits
        rng = np.random.default_rng(0)
        eligible = agree = 0
        for _ in range(600):
            x = rng.normal(size=tree.n_features)
            probs = [tree.routing_probability(i, x)
                     for i in range(tree.n_internal)]
            if any(0.4 <= p <= 0.6 for p in probs):
                continue
            eligible += 1
            label, _, _ = tree.predict_single_path(x)
            agree += label == int(np.argmax(tree.predict_soft(x)))
        assert eligible >= 100
        assert agree >= 0.99 * eligible

    def test_invariant_to_non_visited_subtree(self):
        tree = random_tree(depth=3, seed=13)
        x = np.random.default_rng(2).normal(size=tree.n_features)
        label, visited, leaf = tree.predict_single_path(x)
        other = tree.copy()
        untouched = [i for i in range(tree.n_internal) if i not in visited]
        for i in untouched:
            other.W1[i] = 99.0
            other.b2[i] = -5.0
        assert other.predict_single_path(x) == (label, visited, leaf)

    def test_batch_predict_matches_single(self):
        tree = random_tree(depth=3, seed=17)
        X = np.random.default_rng(3).normal(size=(40, tree.n_features))
        batch = tree.predict(X)
        singles = [tree.predict_single_path(x)[0] for x in X]
        np.testing.assert_array_equal(batch, singles)


class TestLossAndGradients:
    def test_perfect_one_hot_prediction_near_zero_loss(self):
        tree = random_tree(depth=2, C=3, seed=4)
        tree.leaf_logits = np.tile([50.0, 0.0, 0.0], (tree.n_leaves, 1))
        X = np.random.default_rng(5).normal(size=(1, tree.n_features))
        loss, _ = loss_and_gradients(tree, X, np.array([0]))
        assert loss <= 1e-6

    def test_linear_in_lambda(self):
        tree = random_tree(seed=8)
        rng = np.random.default_rng(9)
        X = rng.normal(size=(6, tree.n_features))
        y = rng.integers(0, tree.n_classes, size=6)
        c = rng.uniform(0.5, 4.0, size=tree.n_features)
        l0 = loss_value(tree, X, y, lam=0.0, cost_vec=c)
        l1 = loss_value(tree, X, y, lam=0.3, cost_vec=c)
        l2 = loss_value(tree, X, y, lam=0.6, cost_vec=c)
        assert (l2 - l0) == pytest.approx(2.0 * (l1 - l0), abs=1e-9)

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_gradients_match_finite_differences(self, lam):
        rng = np.random.default_rng(42)
        tree = random_tree(seed=42)
        # keep W1 entries off the L1 kink so central differences are valid
        tree.W1 = np.sign(tree.W1) * (np.abs(tree.W1) + 2e-3)
        X = rng.normal(size=(8, tree.n_features))
        y = rng.integers(0, tree.n_classes, size=8)
        c = rng.uniform(0.5, 5.0, size=tree.n_features)
        _, grads = loss_and_gradients(tree, X, y, lam=lam, cost_vec=c)
        step = 1e-5
        for name in PARAM_NAMES:
            arr = getattr(tree, name)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                old = arr[ix]
                arr[ix] = old + step
                up = loss_value(tree, X, y, lam=lam, cost_vec=c)
                arr[ix] = old - step
                down = loss_value(tree, X, y, lam=lam, cost_vec=c)
                arr[ix] = old
                fd = (up - down) / (2 * step)
                g = grads[name][ix]
                if abs(fd) < 1e-8:
                    assert abs(g - fd) < 1e-8
                else:
                    assert abs(g - fd) / max(abs(fd), abs(g)) < 1e-4

    def test_invalid_labels_rejected(self):
        tree = random_tree()
        X = np.zeros((2, tree.n_features))
        with pytest.raises(InvalidInputError):
            loss_and_gradients(tree, X, np.array([0, 3]))

    def test_nonfinite_forward_reports_node(self):
        tree = random_tree(depth=2, seed=1)
        tree.W1[1] = np.inf
        X = np.ones((1, tree.n_features))
        with pytest.raises(NumericError, match="node 1"):
            loss_and_gradients(tree, X, np.array([0]))


class TestTrain:
    def test_separable_blobs_depth_one(self):
        X, y = blob_data(seed=0)
        cfg = TrainConfig(depth=1, hidden=8, epochs=60, learning_rate=0.1,
                          seed=1)
        tree = train(X, y, cfg)
        assert np.mean(tree.predict(X) == y) >= 0.99

    def test_xor_needs_depth_two(self):
        # hidden width 1 makes each routing function hyperplane-equivalent,
        # so a depth-1 tree cannot express XOR but a depth-2 tree can
        X, y = xor_data(seed=0)
        shallow = train(X, y, TrainConfig(depth=1, hidden=1, epochs=200,
                                          learning_rate=0.1, seed=0))
        deep = train(X, y, TrainConfig(depth=2, hidden=1, epochs=200,
                                       learning_rate=0.1, seed=0))
        assert np.mean(shallow.predict(X) == y) <= 0.75
        assert np.mean(deep.predict(X) == y) >= 0.95

    def test_same_seed_bit_identical(self):
        X, y = blob_data(seed=2)
        cfg = TrainConfig(depth=2, hidden=4, epochs=10, seed=7)
        a = train(X, y, cfg)
        b = train(X, y, cfg)
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_loss_monotone_at_small_learning_rate(self):
        X, y = blob_data(seed=3)
        cfg = TrainConfig(depth=1, hidden=8, epochs=40, learning_rate=1e-3,
                          seed=5)
        tree = train(X, y, cfg)
        h = np.asarray(tree.history)
        assert np.all(np.diff(h) <= 1e-12), f"loss trace not monotone: {h}"

    def test_empty_dataset_rejected(self):
        with pytest.raises(InvalidInputError):
            train(np.zeros((0, 2)), np.zeros(0, dtype=int), TrainConfig())

    def test_divergence_aborts_with_numeric_error(self):
        X, y = blob_data(seed=4)
        cfg = TrainConfig(depth=2, hidden=4, epochs=50, learning_rate=1e12,
                          seed=0)
        with pytest.raises(NumericError):
            train(X * 1e6, y, cfg)

    def test_standardization_stored_and_applied(self):
        X, y = blob_data(seed=5)
        X = X * 100.0 + 500.0
        cfg = TrainConfig(depth=1, hidden=8, epochs=60, seed=1)
        tree = train(X, y, cfg)
        assert np.mean(tree.predict(X) == y) >= 0.99
        assert np.allclose(tree.mu, X.mean(axis=0))


class TestParamsTouchedFraction:
    def test_depth_four_internal_only(self):
        tree = random_tree(depth=4, F=784, C=10, hidden=16, seed=0)
        assert tree.params_touched_fraction("internal-only") == pytest.approx(
            4 / 15)

    def test_depth_one_with_leaves_closed_form(self):
        tree = random_tree(depth=1, F=5, C=3, hidden=2, seed=0)
        s = tree.node_param_count  # 2*5 + 2*2 + 1
        expected = (s + 3) / (s + 2 * 3)
        assert tree.params_touched_fraction("with-leaves") == pytest.approx(
            expected)

    def test_unknown_accounting(self):
        with pytest.raises(InvalidInputError):
            random_tree().params_touched_fraction("bogus")


def routing_walk_oracle(tree, x):
    """Per-sample hard walk over the scalar ``routing_probability``.

    Also returns the smallest |p - 0.5| met, so callers can keep to samples
    whose logits stay away from the tie at 0.
    """
    node, visited, margin = 0, [], np.inf
    for _ in range(tree.depth):
        visited.append(node)
        p = tree.routing_probability(node, x)
        margin = min(margin, abs(p - 0.5))
        node = 2 * node + 1 + (p > 0.5)
    return visited, node - tree.n_internal, margin


class TestRoute:
    @pytest.mark.parametrize("depth", range(1, 7))
    def test_matches_scalar_walk_oracle(self, depth):
        tree = random_tree(depth=depth, F=6, hidden=3, seed=100 + depth)
        tree.b2 = np.random.default_rng(depth).normal(0, 0.5, tree.n_internal)
        X = np.random.default_rng(200 + depth).normal(size=(60, tree.n_features))
        path, leaf = tree.route(X)
        assert path.shape == (60, depth) and leaf.shape == (60,)
        checked = 0
        for i, x in enumerate(X):
            visited, oracle_leaf, margin = routing_walk_oracle(tree, x)
            if margin < 1e-9:
                continue
            checked += 1
            assert path[i].tolist() == visited
            assert leaf[i] == oracle_leaf
        assert checked >= 55

    def test_tiny_positive_logit_goes_right_in_both_predictors(self):
        # expit(1e-17) rounds to exactly 0.5; the logit rule must still send
        # the sample right in single-sample and batch inference alike
        tree = ObliqueTree(1, 2, 2, 1, np.zeros((1, 1, 2)), np.zeros((1, 1)),
                           np.zeros((1, 1)), [1e-17], np.eye(2))
        assert tree.predict_single_path(np.ones(2)) == (1, [0], 1)
        assert tree.predict(np.ones((1, 2))).tolist() == [1]


class TestObjective:
    @pytest.mark.parametrize("lam", [0.0, 0.2])
    @pytest.mark.parametrize("class_weight", [None, "balanced"])
    def test_loss_value_equals_loss_of_gradients_bit_exactly(self, lam,
                                                             class_weight):
        tree = random_tree(depth=3, seed=21)
        rng = np.random.default_rng(22)
        X = rng.normal(size=(25, tree.n_features))
        y = rng.integers(0, tree.n_classes, size=25)
        c = rng.uniform(0.5, 4.0, size=tree.n_features)
        value = loss_value(tree, X, y, lam=lam, cost_vec=c,
                           class_weight=class_weight)
        loss, _ = loss_and_gradients(tree, X, y, lam=lam, cost_vec=c,
                                     class_weight=class_weight)
        assert value == loss

    def test_lam_without_cost_vector_rejected(self):
        tree = random_tree()
        X = np.zeros((2, tree.n_features))
        for fn in (loss_value, loss_and_gradients):
            with pytest.raises(InvalidInputError, match="cost vector"):
                fn(tree, X, np.array([0, 1]), lam=0.1)


# ---------------------------------------------------------------------------
# the level-wise routing passes against a per-node recursion


def per_node_q(P):
    """Visit probabilities node by node in breadth-first order."""
    n, B = P.shape
    q = np.empty((2 * n + 1, B))
    q[0] = 1.0
    for i in range(n):
        q[2 * i + 1] = q[i] * (1.0 - P[i])
        q[2 * i + 2] = q[i] * P[i]
    return q


def per_node_backward(tree, fw, dS=None, dq_direct=None, w1_direct=None):
    """The backward pass with its routing recursion run node by node, from
    the last internal node back to the root."""
    n, h, F = tree.W1.shape
    B = fw.Z.shape[0]
    if dS is not None:
        dleafp = fw.pi @ dS
        dpi = fw.leaf_probs @ dS.T
        dleaf = fw.pi * (dpi - (dpi * fw.pi).sum(axis=1, keepdims=True))
    else:
        dleafp = np.zeros((tree.n_leaves, B))
        dleaf = np.zeros_like(tree.leaf_logits)
    dq = np.empty_like(fw.q)
    dq[n:] = dleafp
    dP = np.empty_like(fw.P)
    for i in range(n - 1, -1, -1):
        acc = (1.0 - fw.P[i]) * dq[2 * i + 1] + fw.P[i] * dq[2 * i + 2]
        if dq_direct is not None:
            acc = acc + dq_direct[i]
        dq[i] = acc
        dP[i] = fw.q[i] * (dq[2 * i + 2] - dq[2 * i + 1])
    dlogits = dP * fw.P * (1.0 - fw.P)
    dw2 = (dlogits[:, None, :] * fw.H).sum(axis=2)
    db2 = dlogits.sum(axis=1)
    dpre = (dlogits[:, None, :] * tree.w2[:, :, None]) * (fw.pre > 0)
    dW1 = (dpre.reshape(n * h, B) @ fw.Z).reshape(n, h, F)
    db1 = dpre.sum(axis=2)
    if w1_direct is not None:
        dW1 = dW1 + w1_direct
    return {"W1": dW1, "b1": db1, "w2": dw2, "b2": db2, "leaf_logits": dleaf}


def per_node_forward(tree, X):
    fw = tree.forward(X)
    q = per_node_q(fw.P)
    n = tree.n_internal
    return fw._replace(q=q, leaf_probs=q[n:], S=fw.pi.T @ q[n:])


def routing_case(depth):
    tree = random_tree(depth=depth, F=5, C=3, hidden=3, seed=300 + depth, leaf_scale=1.0)
    rng = np.random.default_rng(400 + depth)
    tree.b2 = rng.normal(0, 1.5, tree.n_internal)
    X = rng.normal(size=(17, tree.n_features))
    y = rng.integers(0, tree.n_classes, size=17)
    c = rng.uniform(0.5, 4.0, size=tree.n_features)
    return tree, X, y, c


class TestLevelWiseRouting:
    @pytest.mark.parametrize("depth", range(1, 9))
    def test_forward_q_matches_per_node_oracle(self, depth):
        tree, X, _, _ = routing_case(depth)
        fw, ref = tree.forward(X), per_node_forward(tree, X)
        assert np.array_equal(fw.q, ref.q)
        assert np.array_equal(fw.S, ref.S)

    @pytest.mark.parametrize("depth", range(1, 9))
    @pytest.mark.parametrize("lam", [0.0, 0.3])
    @pytest.mark.parametrize("class_weight", [None, "balanced"])
    def test_loss_and_gradients_match_per_node_oracle(self, depth, lam, class_weight):
        tree, X, y, c = routing_case(depth)
        fw = per_node_forward(tree, X)
        weights = tree_mod._sample_weights(y, tree.n_classes, class_weight)
        ref_loss, dS = tree_mod._ce_pieces(fw, y, weights)
        dq_direct = w1_direct = None
        if lam > 0:  # the penalty's routing and L1 gradients join in
            pen, _, dq_direct, w1_direct = tree_mod._penalty_pieces(
                tree, fw, lam, c, np.full(X.shape[0], 1.0 / X.shape[0]), True)
            ref_loss = ref_loss + lam * pen
        ref = per_node_backward(tree, fw, dS, dq_direct, w1_direct)
        loss, grads = loss_and_gradients(tree, X, y, lam=lam, cost_vec=c,
                                         class_weight=class_weight)
        assert loss == ref_loss
        for name in PARAM_NAMES:
            assert np.array_equal(grads[name], ref[name]), name

    @pytest.mark.parametrize("depth", range(1, 9))
    def test_power_penalty_gradients_match_per_node_oracle(self, depth):
        tree, X, _, c = routing_case(depth)
        fw = per_node_forward(tree, X)
        _, _, dq_direct, w1_direct = tree_mod._penalty_pieces(
            tree, fw, 1.0, c, np.full(X.shape[0], 1.0 / X.shape[0]), True)
        ref = per_node_backward(tree, fw, None, dq_direct, w1_direct)
        grads = power_penalty_gradients(tree, X, c)
        for name in PARAM_NAMES:
            assert np.array_equal(grads[name], ref[name]), name


def unique_grouped_route(tree, X):
    """``ObliqueTree.route`` as it grouped rows before: ``np.unique`` over the
    level's nodes and a boolean mask per node, also when one node holds
    every row."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    Z = tree.standardize(X)
    path = np.empty((Z.shape[0], tree.depth), dtype=np.int64)
    node = np.zeros(Z.shape[0], dtype=np.int64)
    for level in range(tree.depth):
        path[:, level] = node
        nxt = np.empty_like(node)
        for u in np.unique(node):
            sel = node == u
            hid = np.maximum(Z[sel] @ tree.W1[u].T + tree.b1[u], 0.0)
            logit = hid @ tree.w2[u] + tree.b2[u]
            nxt[sel] = 2 * u + 1 + (logit > 0.0)
        node = nxt
    return path, node - tree.n_internal


def grouping_case(depth, b2_mode):
    """A random tree with a fitted standardisation; ``b2_mode`` "spread"
    splits the rows, "left" and "right" send every row one way at every
    node, so each level holds one node."""
    rng = np.random.default_rng(500 + depth)
    tree = ObliqueTree.random(depth, 7, 3, hidden=4, rng=rng,
                              mu=rng.normal(size=7), sigma=rng.uniform(0.5, 2.0, 7))
    tree.b2 = {"spread": rng.normal(0, 0.5, tree.n_internal),
               "left": np.full(tree.n_internal, -1e6),
               "right": np.full(tree.n_internal, 1e6)}[b2_mode]
    return tree, rng


class TestRouteGrouping:
    @pytest.mark.parametrize("depth", range(1, 7))
    @pytest.mark.parametrize("B", [0, 1, 2, 60])
    @pytest.mark.parametrize("b2_mode", ["spread", "left", "right"])
    def test_matches_unique_grouped_route(self, depth, B, b2_mode):
        tree, rng = grouping_case(depth, b2_mode)
        X = rng.normal(0, 3, size=(B, tree.n_features)) * 10.0 ** rng.integers(-3, 4, 7)
        path, leaf = tree.route(X)
        ref_path, ref_leaf = unique_grouped_route(tree, X)
        assert np.array_equal(path, ref_path) and np.array_equal(leaf, ref_leaf)
        if b2_mode != "spread" and B:
            expected = 0 if b2_mode == "left" else tree.n_leaves - 1
            assert (leaf == expected).all()

    @pytest.mark.parametrize("b2_mode", ["spread", "right"])
    def test_matches_on_any_memory_layout(self, b2_mode):
        # a Fortran-ordered batch standardises to a Fortran-ordered Z, whose
        # rows BLAS may sum in another order than a mask's C-ordered copy
        tree, rng = grouping_case(4, b2_mode)
        X = rng.normal(0, 3, size=(121, 2 * tree.n_features))
        for view in (np.asfortranarray(X[:, ::2]), X[::-2, 1::2], X[:60:3, :7],
                     X[5, ::2], X[7, ::2].tolist()):
            path, leaf = tree.route(view)
            ref_path, ref_leaf = unique_grouped_route(tree, view)
            assert np.array_equal(path, ref_path) and np.array_equal(leaf, ref_leaf)

    def test_a_tie_on_a_fortran_ordered_batch_goes_left(self):
        # one node holds every row; b2 makes row k's logit exactly 0 when its
        # product is summed as for a C-ordered copy, while the same product
        # over the Fortran-ordered batch rounds higher (when BLAS sums it in
        # another order), so routing that batch as it is would send k right
        rng = np.random.default_rng(9)
        X = np.asfortranarray(rng.normal(size=(40, 13)))
        tree = ObliqueTree(1, 13, 2, 1, rng.normal(size=(1, 1, 13)), np.zeros((1, 1)),
                           np.ones((1, 1)), [0.0], np.eye(2))
        c_order = (np.ascontiguousarray(X) @ tree.W1[0].T)[:, 0]
        f_order = (X @ tree.W1[0].T)[:, 0]
        k = int(np.argmax(np.where(c_order > 0, f_order - c_order, -np.inf)))
        tree.b2 = np.array([-c_order[k]])
        path, leaf = tree.route(X)
        ref_path, ref_leaf = unique_grouped_route(tree, X)
        assert ref_leaf[k] == 0
        assert np.array_equal(path, ref_path) and np.array_equal(leaf, ref_leaf)


@pytest.mark.parametrize("field", ["lam", "learning_rate"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_weight_rejected_by_train_config(field, value):
    with pytest.raises(InvalidInputError, match="finite"):
        TrainConfig(**{field: value}).validate()


class TestRouteOneRow:
    """A single row skips the grouping; it must route as the batch does."""

    @pytest.mark.parametrize("depth", range(1, 7))
    @pytest.mark.parametrize("b2_mode", ["spread", "left", "right"])
    def test_each_row_alone_matches_the_batch_and_the_grouped_oracle(self, depth, b2_mode):
        tree, rng = grouping_case(depth, b2_mode)
        X = rng.normal(0, 3, size=(40, tree.n_features)) * 10.0 ** rng.integers(-3, 4, 7)
        path, leaf = tree.route(X)
        ref_path, ref_leaf = unique_grouped_route(tree, X)
        for i in range(X.shape[0]):
            one_path, one_leaf = tree.route(X[i:i + 1])
            assert one_path.dtype == path.dtype and one_leaf.dtype == leaf.dtype
            assert np.array_equal(one_path, path[i:i + 1])
            assert np.array_equal(one_path, ref_path[i:i + 1])
            assert np.array_equal(one_leaf, leaf[i:i + 1])
            assert np.array_equal(one_leaf, ref_leaf[i:i + 1])

    def test_strided_fortran_and_one_d_rows(self):
        tree, rng = grouping_case(5, "spread")
        X = rng.normal(0, 3, size=(30, 2 * tree.n_features))
        batch = np.ascontiguousarray(X[:, ::2])
        path, leaf = tree.route(batch)
        for i in range(X.shape[0]):
            for row in (X[i:i + 1, ::2], np.asfortranarray(X[i:i + 1, ::2]),
                        X[i, ::2], X[i, ::2].tolist(), X[i:i + 1, -2::-2][:, ::-1]):
                one_path, one_leaf = tree.route(row)
                assert np.array_equal(one_path, path[i:i + 1])
                assert np.array_equal(one_leaf, leaf[i:i + 1])

    @pytest.mark.parametrize("depth", [1, 3])
    def test_a_logit_of_exactly_zero_goes_left(self, depth):
        rng = np.random.default_rng(21)
        tree = ObliqueTree.random(depth, 6, 2, hidden=3, rng=rng)
        x = rng.normal(size=(1, 6))
        hid = np.maximum(x @ tree.W1[0].T + tree.b1[0], 0.0)
        while not hid.any():
            x = rng.normal(size=(1, 6))
            hid = np.maximum(x @ tree.W1[0].T + tree.b1[0], 0.0)
        tree.b2[0] = -(hid @ tree.w2[0])[0]
        path, leaf = tree.route(x)
        ref_path, ref_leaf = unique_grouped_route(tree, x)
        assert (path[0, 1] == 1) if depth > 1 else (leaf[0] == 0)  # root sent it left
        assert np.array_equal(path, ref_path) and np.array_equal(leaf, ref_leaf)
        assert tree.predict_single_path(x[0])[1] == path[0].tolist()
