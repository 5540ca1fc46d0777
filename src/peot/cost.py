"""Power-cost penalty for training and the deployed-power metric.

Two views of feature-extraction cost coexist on purpose.  The training
penalty is a differentiable surrogate: the visit-probability-weighted,
cost-weighted group-L1 of each node's first-layer feature columns.  It does
not de-duplicate a feature used at several nodes, so it upper-bounds the
physical cost; its value and gradients come from the tree's one objective
routine.  The deployed-power metric is the number actually reported:
``tree.charge`` of ``ObliqueTree.reads``, which prices once per sample each
feature read (column L1 above ``DEFAULT_PRUNE_THRESHOLD``) at any node of
its single path, as extraction is shared; ``boosting.model_power`` is the
same charge of ``GbtOvR.reads``.
"""

from .tree import DEFAULT_PRUNE_THRESHOLD, ObliqueTree, _objective, _validate_batch, charge


def power_penalty(tree: ObliqueTree, x, cost_vec) -> float:
    """Differentiable cost surrogate for one sample (or batch mean).

    Psi(x) = sum over internal nodes of P(visit | x) times the node's
    cost-weighted column-L1; zero iff all first-layer weights are zero.
    """
    X, _, c = _validate_batch(tree, x, None, 1.0, cost_vec)
    return _objective(tree, X, None, 1.0, c, None, grad=False)[0]


def power_penalty_gradients(tree: ObliqueTree, x, cost_vec) -> dict:
    """Exact subgradient of the (batch-mean) penalty, sign(0) = 0."""
    X, _, c = _validate_batch(tree, x, None, 1.0, cost_vec)
    return _objective(tree, X, None, 1.0, c, None, grad=True)[1]


def deployed_power(tree: ObliqueTree, X, cost_vec) -> float:
    """Mean per-sample extraction cost along the single inference path."""
    return charge(tree.reads(X), cost_vec)
