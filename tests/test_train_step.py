"""The training step against the step it replaced, byte for byte.

``ParentStep`` below is the objective, backward pass and training loop as
they were before the step wrote its gradients straight into the flat
gradient vector and stopped computing the loss it discarded.  Training, the
objective and the penalty must give the same bytes as that embedded copy.
"""

import itertools
import json

import numpy as np
import pytest
from scipy.special import expit

from peot import tree as tree_mod
from peot.compression import prune, share
from peot.cost import power_penalty, power_penalty_gradients
from peot.tree import (
    LOG_CLAMP,
    PARAM_NAMES,
    SIGMA_FLOOR,
    Forward,
    ObliqueTree,
    TrainConfig,
    loss_and_gradients,
    loss_value,
    train,
)


class ParentStep:
    """The parent's forward pass, objective, backward pass and ``train``."""

    @staticmethod
    def levels(depth):
        return [(2 ** d - 1, 2 ** (d + 1) - 1) for d in range(depth)]

    @staticmethod
    def softmax_rows(logits):
        z = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    @classmethod
    def forward(cls, tree, X):
        Z = tree.standardize(np.asarray(X, dtype=np.float64))
        n, h, F = tree.W1.shape
        B = Z.shape[0]
        pre = (tree.W1.reshape(n * h, F) @ Z.T).reshape(n, h, B) + tree.b1[:, :, None]
        H = np.maximum(pre, 0.0)
        logits = (H * tree.w2[:, :, None]).sum(axis=1) + tree.b2[:, None]
        P = expit(logits)
        q = np.empty((2 * n + 1, B))
        q[0] = 1.0
        left, right = q[1::2], q[2::2]
        notP = 1.0 - P
        for lo, hi in cls.levels(tree.depth):
            np.multiply(q[lo:hi], notP[lo:hi], out=left[lo:hi])
            np.multiply(q[lo:hi], P[lo:hi], out=right[lo:hi])
        leaf_probs = q[n:]
        pi = cls.softmax_rows(tree.leaf_logits)
        S = pi.T @ leaf_probs
        return Forward(Z, pre, H, logits, P, q, leaf_probs, pi, S)

    @classmethod
    def backward(cls, tree, fw, dS=None, dq_direct=None, w1_direct=None):
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
        dl, dr = dq[1::2], dq[2::2]
        notP = 1.0 - fw.P
        for lo, hi in reversed(cls.levels(tree.depth)):
            acc = notP[lo:hi] * dl[lo:hi] + fw.P[lo:hi] * dr[lo:hi]
            if dq_direct is not None:
                acc += dq_direct[lo:hi]
            dq[lo:hi] = acc
        dP = fw.q[:n] * (dr - dl)
        dlogits = dP * fw.P * notP
        dw2 = (dlogits[:, None, :] * fw.H).sum(axis=2)
        db2 = dlogits.sum(axis=1)
        dpre = (dlogits[:, None, :] * tree.w2[:, :, None]) * (fw.pre > 0)
        dW1 = (dpre.reshape(n * h, B) @ fw.Z).reshape(n, h, F)
        db1 = dpre.sum(axis=2)
        if w1_direct is not None:
            dW1 = dW1 + w1_direct
        return {"W1": dW1, "b1": db1, "w2": dw2, "b2": db2, "leaf_logits": dleaf}

    @staticmethod
    def sample_weights(y, n_classes, class_weight):
        B = y.size
        if class_weight is None:
            return np.full(B, 1.0 / B)
        counts = np.bincount(y, minlength=n_classes).astype(np.float64)
        counts[counts == 0] = 1.0
        w = (y.size / (n_classes * counts))[y]
        return w / w.sum()

    @staticmethod
    def ce_pieces(fw, y, weights):
        B = y.size
        sy = fw.S[y, np.arange(B)]
        clamped = np.maximum(sy, LOG_CLAMP)
        loss = float(-(weights * np.log(clamped)).sum())
        dS = np.zeros_like(fw.S)
        dS[y, np.arange(B)] = np.where(sy > LOG_CLAMP, -weights / clamped, 0.0)
        return loss, dS

    @staticmethod
    def penalty_pieces(tree, fw, lam, cost_vec, sample_weights, l1_grad):
        c = np.asarray(cost_vec, dtype=np.float64)
        r = np.abs(tree.W1).sum(axis=1) @ c
        qbar = fw.q[: tree.n_internal] @ sample_weights
        dq_direct = lam * np.outer(r, sample_weights)
        w1_direct = None
        if l1_grad:
            w1_direct = (lam * qbar)[:, None, None] * np.sign(tree.W1) * c[None, None, :]
        return float(r @ qbar), qbar, dq_direct, w1_direct

    @classmethod
    def objective(cls, tree, X, y, lam, cost_vec, class_weight, grad, l1_grad=True):
        fw = cls.forward(tree, X)
        loss, dS = 0.0, None
        if y is not None:
            wce = cls.sample_weights(y, tree.n_classes, class_weight)
            loss, dS = cls.ce_pieces(fw, y, wce)
        dq_direct = w1_direct = qbar = None
        if lam > 0:
            B = X.shape[0]
            pen, qbar, dq_direct, w1_direct = cls.penalty_pieces(
                tree, fw, lam, cost_vec, np.full(B, 1.0 / B), grad and l1_grad)
            loss = loss + lam * pen
        grads = cls.backward(tree, fw, dS, dq_direct, w1_direct) if grad else None
        return loss, grads, qbar

    @classmethod
    def train(cls, X, y, config, cost_vec=None, *, n_classes=None, init_tree=None):
        X, y = tree_mod.training_set(X, y)
        if init_tree is not None:
            n_classes = init_tree.n_classes
        elif n_classes is None:
            n_classes = int(y.max()) + 1
        rng = np.random.default_rng(config.seed)
        if init_tree is None:
            mu = X.mean(axis=0)
            sigma = np.maximum(X.std(axis=0), SIGMA_FLOOR)
            tree = ObliqueTree.random(
                config.depth, X.shape[1], n_classes, hidden=config.hidden,
                rng=rng, init_scale=config.init_scale, mu=mu, sigma=sigma,
            )
        else:
            tree = init_tree.copy()
        use_prox = config.lam > 0 and config.l1_mode == "prox"
        c = None if cost_vec is None else np.asarray(cost_vec, dtype=np.float64)
        comp = tree.compression
        codebook = None if comp is None else comp.codebook
        if codebook is not None:
            surv = np.flatnonzero(~comp.pruned)
            h, F = tree.W1.shape[1:]
            surv_node, surv_feat = surv // (h * F), surv % F

            def per_cluster(values):
                return np.bincount(codebook.assignments, weights=values,
                                   minlength=codebook.centroids.size)

        w1 = tree.W1 if codebook is None else codebook.centroids
        params = [w1, tree.b1, tree.w2, tree.b2, tree.leaf_logits]
        theta = np.concatenate([v.ravel() for v in params])
        ends = np.cumsum([v.size for v in params])
        views = [part.reshape(v.shape)
                 for part, v in zip(np.split(theta, ends[:-1]), params)]
        w1, tree.b1, tree.w2, tree.b2, tree.leaf_logits = views
        if codebook is None:
            tree.W1 = w1
        else:
            codebook.centroids = w1
        state = np.zeros_like(theta)
        g = np.empty_like(theta)

        def epoch_loss():
            return cls.objective(tree, X, y, config.lam, c, config.class_weight,
                                 grad=False)[0]

        tree.history = [epoch_loss()]
        n = X.shape[0]
        lr = config.learning_rate
        for epoch in range(config.epochs):
            lam = config.lam if epoch >= config.warmup_epochs else 0.0
            perm = rng.permutation(n)
            for start in range(0, n, config.batch_size):
                idx = perm[start:start + config.batch_size]
                _, grad, qbar = cls.objective(tree, X[idx], y[idx], lam, c,
                                              config.class_weight, grad=True,
                                              l1_grad=not use_prox)
                grads = [grad[name].ravel() for name in PARAM_NAMES]
                if codebook is not None:
                    grads[0] = per_cluster(grads[0][surv])
                np.concatenate(grads, out=g)
                if config.optimizer == "momentum":
                    state *= config.momentum
                    state -= lr * g
                    theta += state
                else:
                    state *= 0.99
                    state += 0.01 * g * g
                    theta -= lr * g / (np.sqrt(state) + 1e-8)
                if use_prox and lam > 0:
                    if codebook is None:
                        thr = lr * lam * qbar[:, None, None] * c[None, None, :]
                    else:
                        thr = lr * lam * per_cluster(qbar[surv_node] * c[surv_feat])
                    w1[...] = np.sign(w1) * np.maximum(np.abs(w1) - thr, 0.0)
                if comp is not None:
                    tree.W1[comp.pruned] = 0.0
                    if codebook is not None:
                        np.put(tree.W1, surv, codebook.centroids[codebook.assignments])
            tree.history.append(epoch_loss())
        return tree


# ---------------------------------------------------------------------------
# data and comparison

F, C, BATCH = 6, 3, 8


def blobs(n, seed):
    """Three overlapping classes in six features of unequal scale."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, C, size=n)
    X = rng.normal(size=(n, F)) * np.linspace(0.5, 3.0, F) + y[:, None] * 0.8
    return X, y


COST = np.linspace(1.0, 4.0, F)


def doc_bytes(tree):
    return json.dumps(tree.to_doc(), sort_keys=True).encode()


def assert_trains_like_the_parent(X, y, config, cost_vec=None, init_tree=None):
    before = None if init_tree is None else doc_bytes(init_tree)
    out = train(X, y, config, cost_vec, init_tree=init_tree)
    if init_tree is not None:
        assert doc_bytes(init_tree) == before  # the warm start is not moved
    ref = ParentStep.train(X, y, config, cost_vec, init_tree=init_tree)
    assert doc_bytes(out) == doc_bytes(ref)
    assert out.history == ref.history
    return out


def grads_equal(got, ref):
    assert list(got) == list(PARAM_NAMES)
    for name in PARAM_NAMES:
        assert got[name].shape == ref[name].shape, name
        assert got[name].tobytes() == ref[name].tobytes(), name


# ---------------------------------------------------------------------------
# training


@pytest.mark.parametrize("depth", range(1, 6))
@pytest.mark.parametrize("optimizer", ["momentum", "adaptive"])
@pytest.mark.parametrize("lam, l1_mode", [(0.0, "prox"), (0.05, "prox"),
                                          (0.05, "subgradient")])
@pytest.mark.parametrize("class_weight", [None, "balanced"])
@pytest.mark.parametrize("remainder", [0, 1, 7])
def test_fresh_training_matches_the_parent(depth, optimizer, lam, l1_mode,
                                           class_weight, remainder):
    X, y = blobs(4 * BATCH + remainder, seed=depth)
    config = TrainConfig(depth=depth, hidden=3, epochs=3, batch_size=BATCH,
                         learning_rate=0.1, optimizer=optimizer, lam=lam,
                         warmup_epochs=1, seed=depth + remainder,
                         class_weight=class_weight, l1_mode=l1_mode)
    out = assert_trains_like_the_parent(X, y, config, COST if lam > 0 else None)
    assert (out.history[1] != out.history[0]) and np.isfinite(out.history).all()


@pytest.mark.parametrize("depth", range(1, 6))
@pytest.mark.parametrize("optimizer", ["momentum", "adaptive"])
def test_batch_size_one_matches_the_parent(depth, optimizer):
    X, y = blobs(11, seed=20 + depth)
    config = TrainConfig(depth=depth, hidden=2, epochs=2, batch_size=1,
                         learning_rate=0.05, optimizer=optimizer, lam=0.02,
                         warmup_epochs=1, seed=3, class_weight="balanced")
    assert_trains_like_the_parent(X, y, config, COST)


@pytest.mark.parametrize("depth", range(1, 6))
@pytest.mark.parametrize("bits", [None, 2])
@pytest.mark.parametrize("optimizer, lam, l1_mode", [
    ("momentum", 0.0, "prox"), ("momentum", 0.05, "prox"),
    ("adaptive", 0.05, "prox"), ("adaptive", 0.05, "subgradient"),
])
def test_warm_start_from_a_compressed_tree_matches_the_parent(depth, bits, optimizer,
                                                              lam, l1_mode):
    X, y = blobs(3 * BATCH + 7, seed=40 + depth)
    start = ObliqueTree.random(depth, F, C, hidden=3, rng=depth,
                               mu=X.mean(axis=0), sigma=X.std(axis=0))
    start, mask = prune(start, 0.5)
    if bits is not None:
        start, _ = share(start, mask, bits)
    config = TrainConfig(depth=depth, hidden=3, epochs=3, batch_size=BATCH,
                         learning_rate=0.05, optimizer=optimizer, lam=lam,
                         warmup_epochs=1, seed=5, l1_mode=l1_mode)
    out = assert_trains_like_the_parent(X, y, config, COST if lam > 0 else None,
                                        init_tree=start)
    assert np.all(out.W1[mask] == 0.0)


# ---------------------------------------------------------------------------
# the objective's public entries


def objective_case(depth, seed):
    rng = np.random.default_rng(seed)
    X, y = blobs(13, seed)
    tree = ObliqueTree.random(depth, F, C, hidden=3, rng=rng,
                              mu=rng.normal(size=F), sigma=rng.uniform(0.5, 2.0, F))
    tree.b2 = rng.normal(0, 1.5, tree.n_internal)
    tree.leaf_logits = rng.normal(size=tree.leaf_logits.shape)
    tree.W1[:, :, 1] = 0.0  # a zero column: sign(0) = 0 in the L1 term
    return tree, X, y


@pytest.mark.parametrize("depth", range(1, 6))
@pytest.mark.parametrize("lam, class_weight",
                         list(itertools.product([0.0, 0.3], [None, "balanced"])))
def test_loss_and_gradients_match_the_parent(depth, lam, class_weight):
    tree, X, y = objective_case(depth, seed=60 + depth)
    cost_vec = COST if lam > 0 else None
    ref_loss, ref_grads, _ = ParentStep.objective(tree, X, y, lam, cost_vec,
                                                  class_weight, grad=True)
    assert loss_value(tree, X, y, lam, cost_vec, class_weight) == ref_loss
    loss, grads = loss_and_gradients(tree, X, y, lam, cost_vec, class_weight)
    assert loss == ref_loss
    grads_equal(grads, ref_grads)


@pytest.mark.parametrize("depth", range(1, 6))
@pytest.mark.parametrize("rows", [1, 13])
def test_power_penalty_matches_the_parent(depth, rows):
    tree, X, _ = objective_case(depth, seed=80 + depth)
    X = X[:rows]
    ref_value, ref_grads, _ = ParentStep.objective(tree, X, None, 1.0, COST, None,
                                                   grad=True)
    assert power_penalty(tree, X, COST) == ref_value
    grads_equal(power_penalty_gradients(tree, X, COST), ref_grads)


def test_the_step_mode_writes_into_the_given_arrays_and_skips_the_loss():
    tree, X, y = objective_case(3, seed=99)
    out = {name: np.full(getattr(tree, name).shape, np.nan) for name in PARAM_NAMES}
    loss, grads, qbar = tree_mod._objective(tree, X, y, 0.3, COST, None,
                                            grad=True, out=out)
    assert loss is None and grads is out
    _, ref_grads, ref_qbar = ParentStep.objective(tree, X, y, 0.3, COST, None, grad=True)
    grads_equal(out, ref_grads)
    assert qbar.tobytes() == ref_qbar.tobytes()
