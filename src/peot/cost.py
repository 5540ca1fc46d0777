"""Power-cost penalty for training and the deployed-power metric.

Two views of feature-extraction cost coexist on purpose.  The training
penalty is a differentiable surrogate: the visit-probability-weighted,
cost-weighted group-L1 of each node's first-layer feature columns.  It does
not de-duplicate a feature used at several nodes, so it upper-bounds the
physical cost; its value and gradients come from the tree's one objective
routine.  The deployed-power metric is the number actually reported: route
each sample along its single path (``ObliqueTree.route``), collect the
features whose column L1 norm exceeds ``DEFAULT_PRUNE_THRESHOLD`` at any
visited node, and charge each feature once per sample because extraction is
shared.
"""

import numpy as np

from .errors import InvalidInputError
from .tree import ObliqueTree, _objective, cost_vector

DEFAULT_PRUNE_THRESHOLD = 1e-6


def power_penalty(tree: ObliqueTree, x, cost_vec) -> float:
    """Differentiable cost surrogate for one sample (or batch mean).

    Psi(x) = sum over internal nodes of P(visit | x) times the node's
    cost-weighted column-L1; zero iff all first-layer weights are zero.
    """
    return _objective(tree, x, None, 1.0, cost_vec, None, grad=False)[0]


def power_penalty_gradients(tree: ObliqueTree, x, cost_vec) -> dict:
    """Exact subgradient of the (batch-mean) penalty, sign(0) = 0."""
    return _objective(tree, x, None, 1.0, cost_vec, None, grad=True)[1]


def deployed_power(tree: ObliqueTree, X, cost_vec) -> float:
    """Mean per-sample extraction cost along the single inference path.

    A feature is read at a node when its first-layer column L1 norm exceeds
    ``DEFAULT_PRUNE_THRESHOLD``.  A feature read at several visited nodes is
    charged once: the extracted value is shared by every node that reads it.
    ``ObliqueTree.route`` checks the batch.
    """
    c = cost_vector(cost_vec, tree.n_features)
    path, _ = tree.route(X)
    if path.shape[0] == 0:
        raise InvalidInputError("deployed_power needs a nonempty dataset")
    reads = np.add.reduce(np.abs(tree.W1), axis=1) > DEFAULT_PRUNE_THRESHOLD  # (n_internal, F)
    # ``any`` and ``mean`` as their own ufunc steps, without their wrappers
    per_sample = np.logical_or.reduce(reads[path], axis=1) @ c
    return float(np.add.reduce(per_sample) / per_sample.size)
