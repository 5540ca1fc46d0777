"""Power-cost penalty for training and the deployed-power metric.

Two views of feature-extraction cost coexist on purpose.  The training
penalty is a differentiable surrogate: the visit-probability-weighted,
cost-weighted group-L1 of each node's first-layer feature columns.  It does
not de-duplicate a feature used at several nodes, so it upper-bounds the
physical cost.  The deployed-power metric is the number actually reported:
walk the single path, collect the features whose column norm survives the
prune threshold at any visited node, and charge each feature once per
sample because extraction is shared.
"""

import numpy as np

from .errors import InvalidInputError
from .tree import ObliqueTree, _backward, _penalty_pieces, node_column_costs

DEFAULT_PRUNE_THRESHOLD = 1e-6


def power_penalty(tree: ObliqueTree, x, cost_vec) -> float:
    """Differentiable cost surrogate for one sample (or batch mean).

    Psi(x) = sum over internal nodes of P(visit | x) times the node's
    cost-weighted column-L1; zero iff all first-layer weights are zero.
    """
    X, _ = tree._as_batch(x)
    r = node_column_costs(tree, cost_vec)
    fw = tree.forward(X)
    qi = fw.q[: tree.n_internal]
    per_sample = r @ qi
    return float(per_sample.mean())


def power_penalty_gradients(tree: ObliqueTree, x, cost_vec) -> dict:
    """Exact subgradient of the (batch-mean) penalty, sign(0) = 0."""
    X, _ = tree._as_batch(x)
    fw = tree.forward(X)
    weights = np.full(X.shape[0], 1.0 / X.shape[0])
    _, dq_direct, w1_direct = _penalty_pieces(
        tree, fw, 1.0, cost_vec, weights, include_l1_grad=True
    )
    return _backward(tree, fw, dS=None, dq_direct=dq_direct, w1_direct=w1_direct)


def active_features(tree: ObliqueTree, node: int,
                    prune_threshold: float = DEFAULT_PRUNE_THRESHOLD) -> np.ndarray:
    """Features whose first-layer column L1 norm exceeds the threshold."""
    norms = np.abs(tree.W1[node]).sum(axis=0)
    return np.flatnonzero(norms > prune_threshold)


def deployed_power(tree: ObliqueTree, X, cost_vec,
                   prune_threshold: float = DEFAULT_PRUNE_THRESHOLD) -> float:
    """Mean per-sample extraction cost along the single inference path.

    A feature used at several visited nodes is charged once: the extracted
    value is shared by every node that reads it.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[0] == 0:
        raise InvalidInputError("deployed_power needs a nonempty dataset")
    c = np.asarray(cost_vec, dtype=np.float64)
    if c.shape != (tree.n_features,):
        raise InvalidInputError("cost vector length must equal feature count")

    node_feats = [active_features(tree, i, prune_threshold)
                  for i in range(tree.n_internal)]
    Z = tree.standardize(X)
    total = 0.0
    node = np.zeros(X.shape[0], dtype=np.int64)
    used = np.zeros((X.shape[0], tree.n_features), dtype=bool)
    for _ in range(tree.depth):
        nxt = np.empty_like(node)
        for u in np.unique(node):
            sel = node == u
            used[np.ix_(sel, node_feats[u])] = True
            hid = np.maximum(Z[sel] @ tree.W1[u].T + tree.b1[u], 0.0)
            logit = hid @ tree.w2[u] + tree.b2[u]
            nxt[sel] = 2 * u + 1 + (logit > 0.0)
        node = nxt
    total = float((used @ c).mean())
    return total
