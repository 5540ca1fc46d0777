"""Oblique decision tree with probabilistic routing.

The tree is a complete binary tree of depth D.  Each internal node routes
with probability sigma(w2 . relu(W1 x + b1) + b2) to its right child, so a
sample reaches every leaf with the product of branch probabilities and the
whole model is differentiable.  Deployment uses single-path inference: only
the most probable root-to-leaf path is evaluated (``ObliqueTree.route``).

Internal nodes are stored breadth-first.  With n = 2^D - 1 internal nodes,
the full-tree index space has 2n + 1 slots; the children of internal node i
sit at 2i + 1 and 2i + 2, and leaf l occupies full-tree slot n + l.
"""

from collections import namedtuple
from dataclasses import asdict, dataclass, fields

import numpy as np
from scipy.special import expit

from .errors import InvalidInputError, NumericError
from . import serialize

LOG_CLAMP = 1e-12
SIGMA_FLOOR = 1e-8
# Divergence bound on max |param| after a training epoch.  Inputs are
# standardised, so a converging tree keeps O(1) parameters (at most about 10
# on the synthetic tasks), while a diverging run passes 1e8 in one epoch.
MAX_PARAM_ABS = 1e6

PARAM_NAMES = ("W1", "b1", "w2", "b2", "leaf_logits")
OPTIMIZERS = ("momentum", "adaptive")
CLASS_WEIGHTS = ("balanced",)  # besides None, unweighted

Forward = namedtuple("Forward", "Z pre H logits P q leaf_probs pi S")


def _softmax_rows(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class TrainConfig:
    """Hyperparameters for gradient training of an oblique tree."""

    depth: int = 3
    hidden: int = 8
    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 0.1
    optimizer: str = "momentum"  # one of OPTIMIZERS
    momentum: float = 0.9
    lam: float = 0.0  # weight of the power-cost penalty
    warmup_epochs: int = 0  # epochs trained penalty-free before lam applies
    seed: int = 0
    init_scale: float = 1.0
    class_weight: str | None = None  # None or one of CLASS_WEIGHTS
    l1_mode: str = "prox"  # how the penalty's L1 term is applied in training

    def validate(self):
        if self.depth < 1:
            raise InvalidInputError("depth must be >= 1")
        if self.hidden < 1:
            raise InvalidInputError("hidden width must be >= 1")
        if self.epochs < 1:
            raise InvalidInputError("epochs must be >= 1")
        if self.batch_size < 1:
            raise InvalidInputError("batch_size must be >= 1")
        if not self.learning_rate > 0:
            raise InvalidInputError("learning rate must be > 0")
        if self.lam < 0:
            raise InvalidInputError("lam must be >= 0")
        if self.warmup_epochs < 0:
            raise InvalidInputError("warmup_epochs must be >= 0")
        if self.optimizer not in OPTIMIZERS:
            raise InvalidInputError(f"unknown optimizer {self.optimizer!r}")
        if self.class_weight not in (None, *CLASS_WEIGHTS):
            raise InvalidInputError(f"unknown class_weight {self.class_weight!r}")
        if self.l1_mode not in ("prox", "subgradient"):
            raise InvalidInputError(f"unknown l1_mode {self.l1_mode!r}")

    def to_doc(self) -> dict:
        return asdict(self)

    @classmethod
    def from_doc(cls, doc: dict) -> "TrainConfig":
        cfg = cls(**{f.name: doc[f.name] for f in fields(cls) if f.name in doc})
        cfg.validate()
        return cfg


class ObliqueTree:
    """Complete oblique tree with two-layer routing networks at each node."""

    def __init__(self, depth, n_features, n_classes, hidden,
                 W1, b1, w2, b2, leaf_logits, mu=None, sigma=None,
                 compression=None):
        if depth < 1:
            raise InvalidInputError("depth must be >= 1")
        n = 2 ** depth - 1
        leaves = 2 ** depth
        self.depth = int(depth)
        self.n_features = int(n_features)
        self.n_classes = int(n_classes)
        self.hidden = int(hidden)
        self.W1 = np.asarray(W1, dtype=np.float64)
        self.b1 = np.asarray(b1, dtype=np.float64)
        self.w2 = np.asarray(w2, dtype=np.float64)
        self.b2 = np.asarray(b2, dtype=np.float64)
        self.leaf_logits = np.asarray(leaf_logits, dtype=np.float64)
        self.mu = np.zeros(n_features) if mu is None else np.asarray(mu, float)
        self.sigma = np.ones(n_features) if sigma is None else np.asarray(sigma, float)
        self.compression = compression
        self.history: list[float] = []
        if self.W1.shape != (n, hidden, n_features):
            raise InvalidInputError(f"W1 must have shape {(n, hidden, n_features)}")
        if self.b1.shape != (n, hidden) or self.w2.shape != (n, hidden):
            raise InvalidInputError("b1/w2 must have shape (n_nodes, hidden)")
        if self.b2.shape != (n,):
            raise InvalidInputError("b2 must have shape (n_nodes,)")
        if self.leaf_logits.shape != (leaves, n_classes):
            raise InvalidInputError(f"leaf_logits must have shape {(leaves, n_classes)}")

    # -- structure ---------------------------------------------------------

    @property
    def n_internal(self) -> int:
        return 2 ** self.depth - 1

    @property
    def n_leaves(self) -> int:
        return 2 ** self.depth

    @property
    def node_param_count(self) -> int:
        """Parameters of one internal node (W1 block, b1, w2, b2)."""
        return self.hidden * self.n_features + 2 * self.hidden + 1

    @property
    def parameter_count(self) -> int:
        return self.n_internal * self.node_param_count + self.n_leaves * self.n_classes

    @classmethod
    def random(cls, depth, n_features, n_classes, hidden=8, rng=None,
               init_scale=1.0, mu=None, sigma=None):
        """Fresh tree with small random routing weights and zero leaf logits.

        Weights are uniform in +-init_scale/sqrt(fan_in) and biases are
        zero, so every routing probability starts near 0.5.
        """
        if rng is None or isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(rng)
        n = 2 ** depth - 1
        s1 = init_scale / np.sqrt(n_features)
        s2 = init_scale / np.sqrt(hidden)
        return cls(
            depth, n_features, n_classes, hidden,
            W1=rng.uniform(-s1, s1, size=(n, hidden, n_features)),
            b1=np.zeros((n, hidden)),
            w2=rng.uniform(-s2, s2, size=(n, hidden)),
            b2=np.zeros(n),
            leaf_logits=np.zeros((2 ** depth, n_classes)),
            mu=mu, sigma=sigma,
        )

    def copy(self) -> "ObliqueTree":
        t = ObliqueTree(
            self.depth, self.n_features, self.n_classes, self.hidden,
            self.W1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy(),
            self.leaf_logits.copy(), self.mu.copy(), self.sigma.copy(),
            compression=None if self.compression is None else self.compression.copy(),
        )
        return t

    # -- forward -----------------------------------------------------------

    def _as_batch(self, x) -> np.ndarray:
        X = np.asarray(x, dtype=np.float64)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise InvalidInputError(
                f"expected feature vectors of length {self.n_features}, "
                f"got shape {np.shape(x)}"
            )
        return X, single

    def standardize(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mu) / self.sigma

    def forward(self, x) -> Forward:
        X, _ = self._as_batch(x)
        Z = self.standardize(X)
        n, h, F = self.W1.shape
        B = Z.shape[0]
        pre = (self.W1.reshape(n * h, F) @ Z.T).reshape(n, h, B) + self.b1[:, :, None]
        H = np.maximum(pre, 0.0)
        logits = (H * self.w2[:, :, None]).sum(axis=1) + self.b2[:, None]
        P = expit(logits)
        q = np.empty((2 * n + 1, B))
        q[0] = 1.0
        for i in range(n):
            q[2 * i + 1] = q[i] * (1.0 - P[i])
            q[2 * i + 2] = q[i] * P[i]
        leaf_probs = q[n:]
        pi = _softmax_rows(self.leaf_logits)
        S = pi.T @ leaf_probs
        return Forward(Z, pre, H, logits, P, q, leaf_probs, pi, S)

    def routing_probability(self, node: int, x) -> float:
        """Probability of routing RIGHT at one internal node."""
        if not 0 <= node < self.n_internal:
            raise InvalidInputError(f"node index {node} out of range")
        X, single = self._as_batch(x)
        if not single:
            raise InvalidInputError("routing_probability takes a single sample")
        z = self.standardize(X)[0]
        hid = np.maximum(self.W1[node] @ z + self.b1[node], 0.0)
        return float(expit(self.w2[node] @ hid + self.b2[node]))

    def path_probabilities(self, x) -> np.ndarray:
        """Leaf-arrival probabilities; a partition of unity over leaves."""
        X, single = self._as_batch(x)
        lp = self.forward(X).leaf_probs
        return lp[:, 0] if single else lp.T

    def predict_soft(self, x) -> np.ndarray:
        """Mixture-of-leaves class distribution."""
        X, single = self._as_batch(x)
        S = self.forward(X).S
        return S[:, 0] if single else S.T

    def route(self, x):
        """Hard single-path routing of a batch.

        At every level a sample goes right iff its routing logit
        ``w2 . relu(W1 z + b1) + b2`` is > 0; a logit of exactly 0 goes left.
        Returns ``(path, leaf)``: the internal node visited at each level,
        shape (B, depth), and the reached leaf index, shape (B,).  Only the
        visited nodes are evaluated.
        """
        X, _ = self._as_batch(x)
        Z = self.standardize(X)
        path = np.empty((Z.shape[0], self.depth), dtype=np.int64)
        node = np.zeros(Z.shape[0], dtype=np.int64)
        for level in range(self.depth):
            path[:, level] = node
            nxt = np.empty_like(node)
            for u in np.unique(node):
                sel = node == u
                hid = np.maximum(Z[sel] @ self.W1[u].T + self.b1[u], 0.0)
                logit = hid @ self.w2[u] + self.b2[u]
                nxt[sel] = 2 * u + 1 + (logit > 0.0)
            node = nxt
        return path, node - self.n_internal

    def predict_single_path(self, x):
        """Single-path inference for one sample, by the rule of ``route``.

        Returns (label, visited internal nodes, leaf index); label ties
        resolve to the lowest class index.
        """
        X, single = self._as_batch(x)
        if not single:
            raise InvalidInputError("predict_single_path takes a single sample")
        path, leaf = self.route(X)
        leaf = int(leaf[0])
        return int(np.argmax(self.leaf_logits[leaf])), path[0].tolist(), leaf

    def predict(self, x) -> np.ndarray:
        """Deployment-mode labels: the reached leaf's top class (see ``route``).

        A single sample gives an int, a batch an array; label ties resolve to
        the lowest class index.
        """
        X, single = self._as_batch(x)
        _, leaves = self.route(X)
        labels = np.argmax(self.leaf_logits[leaves], axis=1)
        return int(labels[0]) if single else labels

    def params_touched_fraction(self, accounting: str = "internal-only") -> float:
        """Fraction of parameters read by one single-path inference.

        ``internal-only`` counts routing-node parameters; ``with-leaves``
        also counts the reached leaf's logits.  The tree is complete and
        nodes are equally sized, so the value is input-independent.
        """
        s = self.node_param_count
        if accounting == "internal-only":
            return self.depth * s / (self.n_internal * s)
        if accounting == "with-leaves":
            touched = self.depth * s + self.n_classes
            return touched / (self.n_internal * s + self.n_leaves * self.n_classes)
        raise InvalidInputError(f"unknown accounting {accounting!r}")

    # -- serialization -----------------------------------------------------

    def to_doc(self) -> dict:
        doc = serialize.new_document("oblique-tree")
        doc.update(
            depth=self.depth, n_features=self.n_features,
            n_classes=self.n_classes, hidden=self.hidden,
            W1=serialize.encode_array(self.W1),
            b1=serialize.encode_array(self.b1),
            w2=serialize.encode_array(self.w2),
            b2=serialize.encode_array(self.b2),
            leaf_logits=serialize.encode_array(self.leaf_logits),
            mu=serialize.encode_array(self.mu),
            sigma=serialize.encode_array(self.sigma),
            compression=None if self.compression is None else self.compression.to_doc(),
        )
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "ObliqueTree":
        serialize.check_header(doc, "oblique-tree")
        comp = None
        if doc.get("compression") is not None:
            from .compression import CompressionState
            comp = CompressionState.from_doc(doc["compression"])
        return cls(
            doc["depth"], doc["n_features"], doc["n_classes"], doc["hidden"],
            W1=serialize.decode_array(doc["W1"]),
            b1=serialize.decode_array(doc["b1"]),
            w2=serialize.decode_array(doc["w2"]),
            b2=serialize.decode_array(doc["b2"]),
            leaf_logits=serialize.decode_array(doc["leaf_logits"]),
            mu=serialize.decode_array(doc["mu"]),
            sigma=serialize.decode_array(doc["sigma"]),
            compression=comp,
        )


# ---------------------------------------------------------------------------
# loss, gradients and the shared backward engine


def node_column_costs(tree: ObliqueTree, cost_vec: np.ndarray) -> np.ndarray:
    """Cost-weighted group-L1 of each node's first-layer feature columns."""
    c = np.asarray(cost_vec, dtype=np.float64)
    if c.shape != (tree.n_features,):
        raise InvalidInputError("cost vector length must equal feature count")
    return np.abs(tree.W1).sum(axis=1) @ c


def _check_finite(tree: ObliqueTree, fw: Forward) -> None:
    if not np.all(np.isfinite(fw.logits)):
        bad = np.where(~np.isfinite(fw.logits).all(axis=1))[0]
        raise NumericError(f"non-finite routing logit at internal node {bad[0]}")
    if not np.all(np.isfinite(fw.S)):
        raise NumericError("non-finite class mixture in forward pass")


def _backward(tree: ObliqueTree, fw: Forward, dS=None, dq_direct=None,
              w1_direct=None) -> dict:
    """Exact backprop through routing products and node networks.

    ``dS`` is the loss gradient at the soft class mixture; ``dq_direct``
    adds per-(node, sample) gradient directly on visit probabilities (used
    by the power penalty); ``w1_direct`` is added to the W1 gradient.
    """
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


def _class_weights(y, n_classes, mode):
    if mode is None:
        return None
    counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    counts[counts == 0] = 1.0
    return y.size / (n_classes * counts)


def _sample_weights(y, n_classes, class_weight):
    """Per-sample CE weights, normalized to sum to 1."""
    B = y.size
    cw = _class_weights(y, n_classes, class_weight)
    if cw is None:
        return np.full(B, 1.0 / B)
    w = cw[y]
    return w / w.sum()


def _ce_pieces(fw: Forward, y: np.ndarray, weights: np.ndarray):
    B = y.size
    sy = fw.S[y, np.arange(B)]
    clamped = np.maximum(sy, LOG_CLAMP)
    loss = float(-(weights * np.log(clamped)).sum())
    dS = np.zeros_like(fw.S)
    dS[y, np.arange(B)] = np.where(sy > LOG_CLAMP, -weights / clamped, 0.0)
    return loss, dS


def _penalty_pieces(tree, fw, lam, cost_vec, sample_weights, l1_grad):
    """Penalty value, mean internal-node visit probabilities and the
    penalty's gradient injections for the backward engine."""
    c = np.asarray(cost_vec, dtype=np.float64)
    r = node_column_costs(tree, c)
    qbar = fw.q[: tree.n_internal] @ sample_weights
    dq_direct = lam * np.outer(r, sample_weights)
    w1_direct = None
    if l1_grad:
        w1_direct = (lam * qbar)[:, None, None] * np.sign(tree.W1) * c[None, None, :]
    return float(r @ qbar), qbar, dq_direct, w1_direct


def _validate_batch(tree, X, y, lam=0.0, cost_vec=None):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[1] != tree.n_features:
        raise InvalidInputError("X must be (batch, n_features)")
    if y.shape != (X.shape[0],) or X.shape[0] == 0:
        raise InvalidInputError("y must hold one label per sample; batch nonempty")
    if y.min() < 0 or y.max() >= tree.n_classes:
        raise InvalidInputError(f"labels must lie in [0, {tree.n_classes})")
    if lam > 0 and cost_vec is None:
        raise InvalidInputError("lam > 0 requires a cost vector")
    return X, y


def _objective(tree, X, y, lam, cost_vec, class_weight, grad, l1_grad=True):
    """The objective on an already validated, nonempty batch.

    Weighted cross-entropy of the soft prediction plus ``lam`` times the
    batch-mean power penalty; ``y=None`` leaves the penalty alone.  Returns
    ``(loss, grads, qbar)``: the exact gradients of every parameter when
    ``grad`` is set, else None, and the mean visit probability of each
    internal node when ``lam > 0``, else None.  ``l1_grad=False`` leaves
    the penalty's L1 term out of the W1 gradient (training applies it as a
    proximal step instead).
    """
    fw = tree.forward(X)
    _check_finite(tree, fw)
    loss, dS = 0.0, None
    if y is not None:
        wce = _sample_weights(y, tree.n_classes, class_weight)
        loss, dS = _ce_pieces(fw, y, wce)
    dq_direct = w1_direct = qbar = None
    if lam > 0:
        B = X.shape[0]
        pen, qbar, dq_direct, w1_direct = _penalty_pieces(
            tree, fw, lam, cost_vec, np.full(B, 1.0 / B), grad and l1_grad)
        loss = loss + lam * pen
    grads = _backward(tree, fw, dS, dq_direct, w1_direct) if grad else None
    return loss, grads, qbar


def loss_value(tree, X, y, lam=0.0, cost_vec=None, class_weight=None) -> float:
    """Objective value only: weighted cross-entropy + lam * mean penalty."""
    X, y = _validate_batch(tree, X, y, lam, cost_vec)
    return _objective(tree, X, y, lam, cost_vec, class_weight, grad=False)[0]


def loss_and_gradients(tree, X, y, lam=0.0, cost_vec=None, class_weight=None):
    """Objective and exact gradients for every tree parameter.

    The objective is the (optionally class-weighted) mean cross-entropy of
    the soft prediction, plus ``lam`` times the mean power penalty.  The
    penalty's L1 term uses the sign(0) = 0 subgradient.
    """
    X, y = _validate_batch(tree, X, y, lam, cost_vec)
    loss, grads, _ = _objective(tree, X, y, lam, cost_vec, class_weight, grad=True)
    return loss, grads


# ---------------------------------------------------------------------------
# training


class _W1Handler:
    """Maps between stored W1 and the trainable view under compression.

    Without constraints the trainable view is W1 itself.  With a prune mask,
    masked entries are frozen at zero.  With a codebook, the trainable view
    is the centroid vector: gradients are summed per cluster and every
    weight in a cluster moves with its centroid.
    """

    def __init__(self, tree, pruned=None, codebook=None):
        self.tree = tree
        self.pruned = pruned
        self.codebook = codebook
        if codebook is not None:
            if pruned is None:
                raise InvalidInputError("codebook requires the prune mask")
            self.surv = ~pruned.reshape(-1)
            self.k = codebook.centroids.size
            n, h, F = tree.W1.shape
            surv_idx = np.flatnonzero(self.surv)
            self.surv_node = surv_idx // (h * F)
            self.surv_feat = surv_idx % F

    def trainable(self) -> np.ndarray:
        if self.codebook is not None:
            return self.codebook.centroids
        return self.tree.W1

    def reduce_grad(self, gW1: np.ndarray) -> np.ndarray:
        if self.codebook is not None:
            flat = gW1.reshape(-1)[self.surv]
            return np.bincount(self.codebook.assignments, weights=flat,
                               minlength=self.k)
        if self.pruned is not None:
            gW1 = gW1.copy()
            gW1[self.pruned] = 0.0
        return gW1

    def materialize(self, trained: np.ndarray) -> None:
        if self.codebook is not None:
            self.codebook.centroids = trained
            flat = np.zeros(self.tree.W1.size)
            flat[self.surv] = trained[self.codebook.assignments]
            self.tree.W1 = flat.reshape(self.tree.W1.shape)
        else:
            if self.pruned is not None:
                trained[self.pruned] = 0.0
            self.tree.W1 = trained

    def prox_thresholds(self, lr, lam, qbar, c):
        """Per-trainable-entry soft-threshold for the penalty's L1 term.

        Plain weights see lr * lam * q(node) * cost(feature); a shared
        centroid absorbs the summed thresholds of its cluster members.
        """
        if self.codebook is not None:
            per_entry = qbar[self.surv_node] * c[self.surv_feat]
            return lr * lam * np.bincount(self.codebook.assignments,
                                          weights=per_entry, minlength=self.k)
        return lr * lam * qbar[:, None, None] * c[None, None, :]


def _soft_threshold(values, thresholds):
    return np.sign(values) * np.maximum(np.abs(values) - thresholds, 0.0)


def _check_divergence(tree: ObliqueTree, epoch: int) -> None:
    """Training's divergence criterion, applied once after every epoch.

    A run has diverged when its full-data loss ``tree.history[-1]`` is not
    finite or any parameter exceeds ``MAX_PARAM_ABS`` in magnitude.  The
    magnitude bound catches runs whose weights blow up while everything
    stays finite: routing saturates to exact 0/1, gradients vanish and the
    loss reads a silent -0.0.
    """
    loss = tree.history[-1]
    if not np.isfinite(loss):
        raise NumericError(f"training diverged (loss={loss}) after epoch {epoch}")
    peak = max(float(np.abs(getattr(tree, name)).max()) for name in PARAM_NAMES)
    if not peak <= MAX_PARAM_ABS:
        raise NumericError(
            f"training diverged (max |param|={peak:.3g} > {MAX_PARAM_ABS:g}) "
            f"after epoch {epoch}"
        )


def training_set(X, y):
    """X as a nonempty 2-D float matrix and y as one int label per row."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise InvalidInputError("training set must be a nonempty 2-D matrix")
    if y.shape != (X.shape[0],):
        raise InvalidInputError("one label per sample required")
    return X, y


def train(X, y, config: TrainConfig, cost_vec=None, *, n_classes=None,
          init_tree=None, pruned=None, codebook=None) -> ObliqueTree:
    """Minibatch gradient training, deterministic for a fixed seed.

    When ``config.lam > 0`` the power penalty joins the objective.  Its
    smooth routing part flows through the regular gradients; the L1 part is
    applied as a proximal soft-threshold after each step (``l1_mode="prox"``,
    the default, which produces exact zero columns) or as a plain
    subgradient (``l1_mode="subgradient"``).  Returns the trained tree with
    a per-epoch full-data loss trace in ``tree.history``.

    Raises ``InvalidInputError`` for an invalid config, an empty or non-2-D
    ``X``, labels that are not one per row of ``X`` or lie outside
    ``[0, n_classes)``, and ``lam > 0`` without a cost vector.  Raises
    ``NumericError`` when a forward pass turns non-finite or, after any
    epoch, when the full-data loss is non-finite or some parameter exceeds
    ``MAX_PARAM_ABS`` (1e6) in magnitude; see ``_check_divergence``.
    """
    config.validate()
    X, y = training_set(X, y)
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
    X, y = _validate_batch(tree, X, y, config.lam, cost_vec)

    use_prox = config.lam > 0 and config.l1_mode == "prox"
    handler = _W1Handler(tree, pruned=pruned, codebook=codebook)
    c = None if cost_vec is None else np.asarray(cost_vec, dtype=np.float64)

    # optimizer state lives on the trainable views
    views = {"W1": handler.trainable(), "b1": tree.b1, "w2": tree.w2,
             "b2": tree.b2, "leaf_logits": tree.leaf_logits}
    state = {k: np.zeros_like(v) for k, v in views.items()}

    def epoch_loss():
        return _objective(tree, X, y, config.lam, c, config.class_weight,
                          grad=False)[0]

    tree.history = [epoch_loss()]
    n = X.shape[0]
    lr = config.learning_rate
    for epoch in range(config.epochs):
        lam = config.lam if epoch >= config.warmup_epochs else 0.0
        perm = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = perm[start:start + config.batch_size]
            _, grads, qbar = _objective(tree, X[idx], y[idx], lam, c,
                                        config.class_weight, grad=True,
                                        l1_grad=not use_prox)
            grads["W1"] = handler.reduce_grad(grads["W1"])
            for name in PARAM_NAMES:
                g = grads[name]
                v = views[name]
                if config.optimizer == "momentum":
                    state[name] = config.momentum * state[name] - lr * g
                    v = v + state[name]
                else:
                    state[name] = 0.99 * state[name] + 0.01 * g * g
                    v = v - lr * g / (np.sqrt(state[name]) + 1e-8)
                views[name] = v
            if use_prox and lam > 0:
                thr = handler.prox_thresholds(lr, lam, qbar, c)
                views["W1"] = _soft_threshold(views["W1"], thr)
            tree.b1, tree.w2 = views["b1"], views["w2"]
            tree.b2, tree.leaf_logits = views["b2"], views["leaf_logits"]
            handler.materialize(views["W1"])
            views["W1"] = handler.trainable()
        tree.history.append(epoch_loss())
        _check_divergence(tree, epoch)
    return tree
