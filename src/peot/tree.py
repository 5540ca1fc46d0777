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

import functools
from collections import namedtuple
from dataclasses import dataclass, replace

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
DEFAULT_PRUNE_THRESHOLD = 1e-6  # a node reads a feature whose W1 column L1 exceeds it

PARAM_NAMES = ("W1", "b1", "w2", "b2", "leaf_logits")
ARRAY_NAMES = PARAM_NAMES + ("mu", "sigma")  # every array a tree stores
OPTIMIZERS = ("momentum", "adaptive")
CLASS_WEIGHTS = ("balanced",)  # besides None, unweighted

Forward = namedtuple("Forward", "Z pre H logits P q leaf_probs pi S")


@functools.lru_cache(maxsize=16)
def _batch_constants(B):
    """``np.arange(B)`` and the uniform weights ``np.full(B, 1 / B)``,
    read-only.  A training run asks for at most three sizes: the batch, a
    ragged last batch and the full set of its epoch loss."""
    cols, uniform = np.arange(B), np.full(B, 1.0 / B)
    cols.flags.writeable = uniform.flags.writeable = False
    return cols, uniform


class _Buffers:
    """The arrays of one forward and backward pass over ``B`` rows.

    ``ObliqueTree.forward`` and ``_backward`` write into them through
    ``out=``, and each pass overwrites what the last one left.  Row 0 of
    ``q``, the root's visit probability 1, is set here once, and ``forward``
    records its standardised batch ``Z`` and leaf distributions ``pi``, so
    one set is the whole pass that ``_backward`` reads.  A set built with
    ``standardized=True``, as training builds its sets, takes rows that are
    standardised already, so ``forward`` neither checks nor standardises
    them.  ``Hw`` is the ``H * w2`` scratch of the forward pass and the
    ``dlogits * H`` scratch of the backward pass.  ``down`` holds each
    level's views for the forward level loop, root first, and ``up`` those
    of the backward loop, deepest level first.
    """

    def __init__(self, tree, B, standardized=False):
        n, h, _ = tree.W1.shape
        self.standardized = standardized
        self.pre, self.H, self.Hw, self.dpre = (np.empty((n, h, B)) for _ in range(4))
        self.relu = np.empty((n, h, B), dtype=bool)
        self.logits, self.P, self.notP, self.dP, self.dlogits = (
            np.empty((n, B)) for _ in range(5))
        self.q, self.dq = np.empty((2 * n + 1, B)), np.empty((2 * n + 1, B))
        self.q[0] = 1.0
        self.S, self.dS = np.empty((tree.n_classes, B)), np.empty((tree.n_classes, B))
        q, dq, P, notP = self.q, self.dq, self.P, self.notP
        self.pre2d, self.dpre2d = self.pre.reshape(n * h, B), self.dpre.reshape(n * h, B)
        self.leaf_probs, self.dq_leaves, self.q_nodes = q[n:], dq[n:], q[:n]
        self.dlogits3 = self.dlogits[:, None, :]
        left, right, dl, dr = q[1::2], q[2::2], dq[1::2], dq[2::2]  # row i: node i's children
        # (lo, hi) of each level, root first: level d holds the internal nodes
        # lo = 2^d - 1 up to hi - 1 = 2^(d+1) - 2, whose children are slots hi .. 2*hi
        levels = [(2 ** d - 1, 2 ** (d + 1) - 1) for d in range(tree.depth)]
        self.down = [(q[lo:hi], notP[lo:hi], P[lo:hi], left[lo:hi], right[lo:hi])
                     for lo, hi in levels]
        # the backward loop's P * d_right goes through dP, which is written after it
        self.up = [(slice(lo, hi), dq[lo:hi], notP[lo:hi], P[lo:hi], dl[lo:hi], dr[lo:hi],
                    self.dP[lo:hi]) for lo, hi in reversed(levels)]
        self.d_left, self.d_right = dl, dr


def _softmax_rows(logits):
    z = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    e = np.exp(z)
    return e / np.add.reduce(e, axis=1, keepdims=True)


@dataclass
class TrainConfig(serialize.Stored):
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
        if not 0 < self.learning_rate < np.inf:  # also rejects NaN
            raise InvalidInputError("learning rate must be finite and > 0")
        if not 0 <= self.lam < np.inf:
            raise InvalidInputError("lam must be finite and >= 0")
        if self.warmup_epochs < 0:
            raise InvalidInputError("warmup_epochs must be >= 0")
        if self.optimizer not in OPTIMIZERS:
            raise InvalidInputError(f"unknown optimizer {self.optimizer!r}")
        if self.class_weight not in (None, *CLASS_WEIGHTS):
            raise InvalidInputError(f"unknown class_weight {self.class_weight!r}")
        if self.l1_mode not in ("prox", "subgradient"):
            raise InvalidInputError(f"unknown l1_mode {self.l1_mode!r}")


def feature_batch(x, n_features: int, *, row: bool = False) -> np.ndarray:
    """The one check of a feature batch, for both model kinds: ``x`` as a
    float64 matrix of ``n_features`` columns, any number of rows (with
    ``row``, a 1-D ``x`` is one row), else an ``InvalidInputError``.  Values
    are not checked: a non-finite feature passes."""
    X = np.asarray(x, dtype=np.float64)
    if row and X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != n_features:
        raise InvalidInputError(f"expected a feature batch of {n_features} columns, "
                                f"got shape {np.shape(x)}")
    return X


def cost_vector(cost_vec, n_features: int) -> np.ndarray:
    """The one check of prices, for both model kinds: ``cost_vec`` as a float64
    vector of one finite price per feature column, else an ``InvalidInputError``."""
    c = np.asarray(cost_vec, dtype=np.float64)
    if c.shape != (n_features,):
        raise InvalidInputError(f"cost vector length must equal feature count "
                                f"({n_features}), got shape {c.shape}")
    if not np.logical_and.reduce(np.isfinite(c)):
        raise InvalidInputError(f"cost vector prices must be finite, got {c[~np.isfinite(c)]}")
    return c


def class_labels(y) -> np.ndarray:
    """The one check of class labels, for both model kinds and the metrics:
    ``y`` as int64 integers >= 0 (bools and integral floats pass), else an
    ``InvalidInputError``; an upper bound is the caller's."""
    labels = np.asarray(y)
    if labels.dtype != np.int64:  # int64 labels are integers as they are
        try:
            with np.errstate(invalid="ignore"):  # NaN or inf casts to some integer
                labels = labels.astype(np.int64)
        except (TypeError, ValueError):  # such as a string that is no number
            labels = None
        if labels is None or not np.array_equal(labels, y):
            raise InvalidInputError("labels must be integer class indices")
    if labels.size and labels.min() < 0:
        raise InvalidInputError(f"labels must be >= 0, found {int(labels.min())}")
    return labels


def charge(reads: np.ndarray, cost_vec) -> float:
    """Both model kinds' power: the mean per-row price of a (B, F) read mask."""
    if reads.shape[0] == 0:
        raise InvalidInputError("a power charge needs a nonempty dataset")
    per_sample = reads @ cost_vector(cost_vec, reads.shape[1])
    return float(np.add.reduce(per_sample) / per_sample.size)  # ``mean``, unwrapped


@dataclass(eq=False)
class ObliqueTree(serialize.Stored, kind="oblique-tree"):
    """Complete oblique tree with two-layer routing networks at each node."""

    depth: int
    n_features: int
    n_classes: int
    hidden: int
    W1: np.ndarray = serialize.array_field(np.float64)
    b1: np.ndarray = serialize.array_field(np.float64)
    w2: np.ndarray = serialize.array_field(np.float64)
    b2: np.ndarray = serialize.array_field(np.float64)
    leaf_logits: np.ndarray = serialize.array_field(np.float64)
    mu: np.ndarray = serialize.array_field(np.float64, default=None)
    sigma: np.ndarray = serialize.array_field(np.float64, default=None)
    compression: "CompressionState | None" = None

    def __post_init__(self):
        sizes = depth, n_features, n_classes, hidden = (
            self.depth, self.n_features, self.n_classes, self.hidden)
        if depth < 1:
            raise InvalidInputError("depth must be >= 1")
        n = 2 ** depth - 1
        leaves = 2 ** depth
        self.depth, self.n_features, self.n_classes, self.hidden = map(int, sizes)
        for name in PARAM_NAMES:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        self.mu = np.zeros(n_features) if self.mu is None else np.asarray(self.mu, float)
        self.sigma = (np.ones(n_features) if self.sigma is None
                      else np.asarray(self.sigma, float))
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
        return replace(
            self, **{name: getattr(self, name).copy() for name in ARRAY_NAMES},
            compression=None if self.compression is None else self.compression.copy())

    # -- forward -----------------------------------------------------------

    def standardize(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mu) / self.sigma

    def forward(self, x, out=None) -> Forward:
        """Soft routing of a batch: node activations, routing probabilities
        ``P``, visit probabilities ``q`` over all 2n + 1 slots and the class
        mixture ``S``.

        ``q`` is filled one tree level at a time, root first: every node of
        a level passes ``q * (1 - P)`` to its left child and ``q * P`` to its
        right child in one array operation each.

        The arrays are written into ``out``, the ``_Buffers`` of the batch's
        row count, which training passes; without it they are fresh, so the
        ``Forward`` a caller gets is never overwritten later.  ``x`` is
        checked and standardised, except into training's buffers, which
        take the rows of the run's standardised matrix as they are.
        """
        if out is not None and out.standardized:
            Z = x
        else:
            Z = self.standardize(feature_batch(x, self.n_features, row=True))
        n, h, F = self.W1.shape
        B = Z.shape[0]
        b = _Buffers(self, B) if out is None else out
        np.matmul(self.W1.reshape(n * h, F), Z.T, out=b.pre2d)
        np.add(b.pre, self.b1[:, :, None], out=b.pre)
        np.maximum(b.pre, 0.0, out=b.H)
        np.multiply(b.H, self.w2[:, :, None], out=b.Hw)
        np.add.reduce(b.Hw, axis=1, out=b.logits)
        np.add(b.logits, self.b2[:, None], out=b.logits)
        expit(b.logits, out=b.P)
        np.subtract(1.0, b.P, out=b.notP)
        for q, notP, P, left, right in b.down:
            np.multiply(q, notP, out=left)
            np.multiply(q, P, out=right)
        b.Z, b.pi = Z, _softmax_rows(self.leaf_logits)
        np.matmul(b.pi.T, b.leaf_probs, out=b.S)
        return Forward(Z, b.pre, b.H, b.logits, b.P, b.q, b.leaf_probs, b.pi, b.S)

    def routing_probability(self, node: int, x) -> float:
        """Probability of routing RIGHT at one internal node."""
        if not 0 <= node < self.n_internal:
            raise InvalidInputError(f"node index {node} out of range")
        if np.ndim(x) != 1:
            raise InvalidInputError("routing_probability takes a single sample")
        z = self.standardize(feature_batch(x, self.n_features, row=True))[0]
        hid = np.maximum(self.W1[node] @ z + self.b1[node], 0.0)
        return float(expit(self.w2[node] @ hid + self.b2[node]))

    def path_probabilities(self, x) -> np.ndarray:
        """Leaf-arrival probabilities; a partition of unity over leaves."""
        lp = self.forward(x).leaf_probs
        return lp[:, 0] if np.ndim(x) == 1 else lp.T

    def predict_soft(self, x) -> np.ndarray:
        """Mixture-of-leaves class distribution."""
        S = self.forward(x).S
        return S[:, 0] if np.ndim(x) == 1 else S.T

    def route(self, x):
        """Hard single-path routing of a batch.

        At every level a sample goes right iff its routing logit
        ``w2 . relu(W1 z + b1) + b2`` is > 0; a logit of exactly 0 goes left.
        Returns ``(path, leaf)``: the internal node visited at each level,
        shape (B, depth), and the reached leaf index, shape (B,).  Only the
        visited nodes are evaluated.

        Each level groups its rows by node (the nonzero bins of
        ``np.bincount``, in ascending node order) and evaluates each node
        on the C-ordered copy its row mask selects, so a Fortran-ordered
        batch is summed as a C-ordered one would be.  A single row skips the
        grouping and runs the same product on the same row at each level.
        """
        Z = self.standardize(feature_batch(x, self.n_features, row=True))
        path = np.empty((Z.shape[0], self.depth), dtype=np.int64)
        if Z.shape[0] == 1:
            u = 0
            for level in range(self.depth):
                path[0, level] = u
                hid = np.maximum(Z @ self.W1[u].T + self.b1[u], 0.0)
                logit = hid @ self.w2[u] + self.b2[u]
                u = 2 * u + 1 + int(logit[0] > 0.0)
            return path, np.array([u - self.n_internal], dtype=np.int64)
        node = np.zeros(Z.shape[0], dtype=np.int64)
        for level in range(self.depth):
            path[:, level] = node
            nxt = np.empty_like(node)
            for u in np.flatnonzero(np.bincount(node)):
                sel = node == u
                hid = np.maximum(Z[sel] @ self.W1[u].T + self.b1[u], 0.0)
                logit = hid @ self.w2[u] + self.b2[u]
                nxt[sel] = 2 * u + 1 + (logit > 0.0)
            node = nxt
        return path, node - self.n_internal

    def reads(self, x) -> np.ndarray:
        """(B, F) bool: the features read at the nodes of each row's ``route``."""
        path, _ = self.route(x)
        node_reads = np.add.reduce(np.abs(self.W1), axis=1) > DEFAULT_PRUNE_THRESHOLD
        return np.logical_or.reduce(node_reads[path], axis=1)

    def predict_single_path(self, x):
        """Single-path inference for one sample, by the rule of ``route``.

        Returns (label, visited internal nodes, leaf index); label ties
        resolve to the lowest class index.
        """
        if np.ndim(x) != 1:
            raise InvalidInputError("predict_single_path takes a single sample")
        path, leaf = self.route(x)
        leaf = int(leaf[0])
        return int(np.argmax(self.leaf_logits[leaf])), path[0].tolist(), leaf

    def predict(self, x) -> np.ndarray:
        """Deployment-mode labels: the reached leaf's top class (see ``route``).

        A single sample gives an int, a batch an array; label ties resolve to
        the lowest class index.
        """
        _, leaves = self.route(x)
        labels = np.argmax(self.leaf_logits[leaves], axis=1)
        return int(labels[0]) if np.ndim(x) == 1 else labels

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

    @classmethod
    def from_doc(cls, doc: dict, path="<doc>", key="") -> "ObliqueTree":
        tree = super().from_doc(doc, path, key)
        if tree.compression is not None:
            tree.compression.check_matches(tree.W1)
        return tree


# ---------------------------------------------------------------------------
# loss, gradients and the shared backward engine


def _check_finite(buf: _Buffers) -> None:
    finite = np.isfinite(buf.logits)
    if not np.logical_and.reduce(finite, axis=None):
        bad = np.flatnonzero(~np.logical_and.reduce(finite, axis=1))
        raise NumericError(f"non-finite routing logit at internal node {bad[0]}")
    if not np.logical_and.reduce(np.isfinite(buf.S), axis=None):
        raise NumericError("non-finite class mixture in forward pass")


def _backward(tree: ObliqueTree, buf: _Buffers, dS, dq_direct, w1_direct,
              out: dict) -> None:
    """Exact backprop through routing products and node networks, written
    into ``out``: one array per name of ``PARAM_NAMES``, shaped like the
    parameter.

    ``buf`` holds the forward pass and takes the backward pass's
    intermediates.  ``dS`` is the loss gradient at the soft
    class mixture, or None; ``dq_direct`` adds per-(node, sample) gradient
    directly on visit probabilities (used by the power penalty);
    ``w1_direct`` is added to the W1 gradient.

    The visit-probability gradient runs one level at a time, deepest level
    first: a node's is ``(1 - P) * d_left + P * d_right`` (plus
    ``dq_direct``), and once every level is done ``dP`` is
    ``q * (d_right - d_left)`` for all nodes at once.
    """
    n, h, F = tree.W1.shape
    if dS is not None:
        np.matmul(buf.pi, dS, out=buf.dq_leaves)
        dpi = buf.leaf_probs @ dS.T
        np.multiply(buf.pi, dpi - np.add.reduce(dpi * buf.pi, axis=1, keepdims=True),
                    out=out["leaf_logits"])
    else:
        buf.dq_leaves[...] = 0.0
        out["leaf_logits"][...] = 0.0
    for level, acc, notP, P, dl, dr, scratch in buf.up:
        np.multiply(notP, dl, out=acc)
        acc += np.multiply(P, dr, out=scratch)
        if dq_direct is not None:
            acc += dq_direct[level]
    dP = np.subtract(buf.d_right, buf.d_left, out=buf.dP)
    np.multiply(buf.q_nodes, dP, out=dP)
    dlogits = np.multiply(dP, buf.P, out=buf.dlogits)
    dlogits *= buf.notP
    np.add.reduce(np.multiply(buf.dlogits3, buf.H, out=buf.Hw), axis=2, out=out["w2"])
    np.add.reduce(dlogits, axis=1, out=out["b2"])
    dpre = np.multiply(buf.dlogits3, tree.w2[:, :, None], out=buf.dpre)
    dpre *= np.greater(buf.pre, 0, out=buf.relu)
    dW1 = out["W1"]
    np.matmul(buf.dpre2d, buf.Z, out=dW1.reshape(n * h, F))
    np.add.reduce(dpre, axis=2, out=out["b1"])
    if w1_direct is not None:
        dW1 += w1_direct


def _sample_weights(y, n_classes, class_weight):
    """Per-sample CE weights, normalized to sum to 1."""
    if class_weight is None:
        return _batch_constants(y.size)[1]
    counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    counts[counts == 0] = 1.0
    w = (y.size / (n_classes * counts))[y]
    return w / np.add.reduce(w)


def _ce_pieces(fw, y: np.ndarray, weights: np.ndarray,
               value=True, grad=True, dS=None):
    """``(loss, dS)``: the weighted cross-entropy and its gradient at the
    class mixture ``fw.S`` of a pass (its ``_Buffers`` or a ``Forward``),
    written into ``dS`` if given; each is None when not asked for."""
    cols = _batch_constants(y.size)[0]
    sy = fw.S[y, cols]
    clamped = np.maximum(sy, LOG_CLAMP)
    loss = dS = None
    if value:
        loss = float(-(weights * np.log(clamped)).sum())
    if grad:
        dS = np.empty(fw.S.shape) if dS is None else dS
        dS.fill(0.0)
        dS[y, cols] = np.where(sy > LOG_CLAMP, -weights / clamped, 0.0)
    return loss, dS


def _penalty_pieces(tree, fw, lam, cost_vec, sample_weights, l1_grad,
                    value=True, *, grad=True):
    """Penalty value (None unless ``value``), mean internal-node visit
    probabilities and the penalty's gradient injections for the backward
    engine (None unless ``grad``).  ``cost_vec`` is a checked
    ``cost_vector``."""
    # each node's cost-weighted group-L1
    r = np.add.reduce(np.abs(tree.W1), axis=1) @ cost_vec
    qbar = fw.q[: tree.n_internal] @ sample_weights
    dq_direct = w1_direct = None
    if grad:
        dq_direct = np.multiply(r[:, None], sample_weights)  # np.outer(r, w)
        dq_direct *= lam
    if l1_grad:
        w1_direct = (lam * qbar)[:, None, None] * np.sign(tree.W1) * cost_vec[None, None, :]
    return float(r @ qbar) if value else None, qbar, dq_direct, w1_direct


def _validate_batch(tree, X, y, lam=0.0, cost_vec=None):
    """The one check of an objective's inputs, for all of its entries:
    ``(X, y, c)`` with ``X`` a nonempty feature matrix of ``tree``, ``y`` one
    label in ``[0, n_classes)`` per row and ``c`` the checked cost vector,
    or None when ``lam`` is 0.  The penalty passes ``y=None``; its 1-D ``X``
    is one row."""
    if y is None:
        X = feature_batch(X, tree.n_features, row=True)
        if X.shape[0] == 0:
            raise InvalidInputError("the objective needs a nonempty batch")
    else:
        X, y = training_set(feature_batch(X, tree.n_features), y)
        if y.max() >= tree.n_classes:
            raise InvalidInputError(f"labels must lie in [0, {tree.n_classes})")
    if lam > 0 and cost_vec is None:
        raise InvalidInputError("the power penalty (lam > 0) requires a cost vector")
    return X, y, cost_vector(cost_vec, tree.n_features) if lam > 0 else None


def _objective(tree, X, y, lam, cost_vec, class_weight, grad, l1_grad=True,
               out=None, buf=None):
    """The objective on inputs checked by ``_validate_batch``.

    Weighted cross-entropy of the soft prediction plus ``lam`` times the
    batch-mean power penalty; ``y=None`` leaves the penalty alone.  Returns
    ``(loss, grads, qbar)``, where ``qbar`` is the mean visit probability of
    each internal node when ``lam > 0``, else None.  Three modes:

    - ``grad=False``: the loss only; ``grads`` is None.
    - ``grad=True``: the loss and the exact gradient of every parameter,
      ``grads`` a dict of fresh arrays keyed by ``PARAM_NAMES``.
    - ``grad=True, out=grads``: training's step.  No loss is computed
      (``loss`` is None) and the gradients are written into the given dict
      of arrays, each shaped like its parameter, which is returned.

    ``l1_grad=False`` leaves the penalty's L1 term out of the W1 gradient
    (training applies it as a proximal step instead).

    The pass runs in ``buf``, training's ``_Buffers`` of ``X``'s row count,
    whose ``X`` is standardised already, or in a fresh set without it.
    """
    B = X.shape[0]
    buf = _Buffers(tree, B) if buf is None else buf
    tree.forward(X, buf)
    _check_finite(buf)
    value = out is None
    if grad and out is None:
        out = {name: np.empty(getattr(tree, name).shape) for name in PARAM_NAMES}
    loss, dS = 0.0, None
    if y is not None:
        wce = _sample_weights(y, tree.n_classes, class_weight)
        loss, dS = _ce_pieces(buf, y, wce, value, grad, buf.dS)
    dq_direct = w1_direct = qbar = None
    if lam > 0:
        pen, qbar, dq_direct, w1_direct = _penalty_pieces(
            tree, buf, lam, cost_vec, _batch_constants(B)[1],
            grad and l1_grad, value, grad=grad)
        if value:
            loss = loss + lam * pen
    if not grad:
        return loss, None, qbar
    _backward(tree, buf, dS, dq_direct, w1_direct, out)
    return loss if value else None, out, qbar


def loss_value(tree, X, y, lam=0.0, cost_vec=None, class_weight=None) -> float:
    """Objective value only: weighted cross-entropy + lam * mean penalty."""
    X, y, c = _validate_batch(tree, X, y, lam, cost_vec)
    return _objective(tree, X, y, lam, c, class_weight, grad=False)[0]


def loss_and_gradients(tree, X, y, lam=0.0, cost_vec=None, class_weight=None):
    """Objective and exact gradients for every tree parameter.

    The objective is the (optionally class-weighted) mean cross-entropy of
    the soft prediction, plus ``lam`` times the mean power penalty.  The
    penalty's L1 term uses the sign(0) = 0 subgradient.
    """
    X, y, c = _validate_batch(tree, X, y, lam, cost_vec)
    loss, grads, _ = _objective(tree, X, y, lam, c, class_weight, grad=True)
    return loss, grads


# ---------------------------------------------------------------------------
# training


def _soft_threshold(values, thresholds):
    """Shrink ``values`` towards 0 by ``thresholds``, in place."""
    np.multiply(np.sign(values), np.maximum(np.abs(values) - thresholds, 0.0),
                out=values)


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
    """X as a nonempty 2-D float matrix and y as one ``class_labels`` per row."""
    X = np.asarray(X, dtype=np.float64)
    y = class_labels(y)
    if X.ndim != 2 or X.shape[0] == 0:
        raise InvalidInputError("X must be a nonempty 2-D matrix")
    if y.shape != (X.shape[0],):
        raise InvalidInputError("one label per sample required")
    return X, y


def train(X, y, config: TrainConfig, cost_vec=None, *, n_classes=None,
          init_tree=None) -> ObliqueTree:
    """Minibatch gradient training, deterministic for a fixed seed.

    When ``config.lam > 0`` the power penalty joins the objective.  Its
    smooth routing part flows through the regular gradients; the L1 part is
    applied as a proximal soft-threshold after each step (``l1_mode="prox"``,
    the default, which produces exact zero columns) or as a plain
    subgradient (``l1_mode="subgradient"``).  Returns the trained tree with
    a per-epoch full-data loss trace in ``tree.history``.

    Each minibatch step runs ``_objective`` in its step mode: one
    ``ObliqueTree.forward``, the finiteness check, no loss value (only the
    epoch loss is kept), and the gradients written straight into reshaped
    views of one flat gradient vector laid out like the parameters, so the
    optimizer updates the parameter vector in place.

    A run allocates its work arrays once.  ``X``, ``y`` and the cost
    vector go through ``_validate_batch`` once per run, against the tree
    being trained (a fresh tree is first sized from ``training_set(X,
    y)``), and ``X`` is standardised once, with the tree's ``mu`` and
    ``sigma``, which training never moves.  Each epoch gathers the permuted
    rows of that standardised matrix and ``y[perm]`` once, and every batch
    is a contiguous slice of that copy.  Forward and backward passes write
    into one ``_Buffers`` set per row count (the batch, a ragged last batch
    and the full set of the epoch loss), built ``standardized=True`` so
    ``forward`` takes the rows as they are.  Standardising is elementwise
    and the arrays and the order of every operation are those of a freshly
    allocated pass on the raw rows, so the result is the same to the byte.

    A warm start trains a copy of ``init_tree`` under the first-layer
    constraint of its ``compression`` state, if any.  Pruned weights are
    reset to exactly 0 after every step.  With a codebook the centroids are
    trained instead of the surviving weights: each centroid moves by its
    cluster's summed gradient and proximal threshold, and every survivor is
    rewritten from its centroid after every step.  The returned tree carries
    the trained state; ``init_tree``'s is not moved.

    Raises ``InvalidInputError`` for an invalid config, an empty or non-2-D
    ``X``, labels that are not one ``class_labels`` label below
    ``n_classes`` per row, and ``lam > 0`` without finite prices.  Raises
    ``NumericError`` when a forward pass turns non-finite or, after any
    epoch, when the full-data loss is non-finite or some parameter exceeds
    ``MAX_PARAM_ABS`` (1e6) in magnitude; see ``_check_divergence``.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    if init_tree is None:
        X, y = training_set(X, y)
        if n_classes is None:
            n_classes = int(y.max()) + 1
        mu = X.mean(axis=0)
        sigma = np.maximum(X.std(axis=0), SIGMA_FLOOR)
        tree = ObliqueTree.random(
            config.depth, X.shape[1], n_classes, hidden=config.hidden,
            rng=rng, init_scale=config.init_scale, mu=mu, sigma=sigma,
        )
    else:
        tree = init_tree.copy()
    X, y, c = _validate_batch(tree, X, y, config.lam, cost_vec)
    Z = tree.standardize(X)

    use_prox = config.lam > 0 and config.l1_mode == "prox"
    comp = tree.compression
    codebook = None if comp is None else comp.codebook
    if comp is not None:
        pruned = np.flatnonzero(comp.pruned)
    if codebook is not None:
        # survivors by flat (node, row, column) index, with node and feature
        surv = np.flatnonzero(~comp.pruned)
        h, F = tree.W1.shape[1:]
        surv_node = surv // (h * F)
        surv_cost = None if c is None else c[surv % F]

        def per_cluster(values):
            return np.bincount(codebook.assignments, weights=values,
                               minlength=codebook.centroids.size)

    # The trained arrays live in one flat vector: W1 (the centroids under a
    # codebook), b1, w2, b2, leaf_logits.  The tree's arrays, or the
    # codebook's centroids, are reshaped views of it, so the optimizer is one
    # in-place update of the vector and its state.  The step's gradients are
    # written straight into the same views of the gradient vector ``g``;
    # under a codebook the W1 gradient goes to a scratch array first and is
    # summed per cluster into the centroids' part.
    w1 = tree.W1 if codebook is None else codebook.centroids
    params = [w1, tree.b1, tree.w2, tree.b2, tree.leaf_logits]
    splits = np.cumsum([v.size for v in params])[:-1]

    def views(vec):
        return [part.reshape(v.shape) for part, v in zip(np.split(vec, splits), params)]

    theta = np.concatenate([v.ravel() for v in params])
    w1, tree.b1, tree.w2, tree.b2, tree.leaf_logits = views(theta)
    if codebook is None:
        tree.W1 = w1
    else:
        codebook.centroids = w1
    state = np.zeros_like(theta)
    g, step = np.empty_like(theta), np.empty_like(theta)
    grads = dict(zip(PARAM_NAMES, views(g)))
    if codebook is not None:
        g_centroids, grads["W1"] = grads["W1"], np.empty(tree.W1.shape)

    # One buffer set per row count: the full set's (the epoch loss), the
    # batch's and a ragged last batch's.
    n, bs = X.shape[0], config.batch_size
    sizes = [min(bs, n - start) for start in range(0, n, bs)]
    buffers = {B: _Buffers(tree, B, standardized=True) for B in {n, *sizes}}
    batches = [(slice(start, start + B), buffers[B])
               for start, B in zip(range(0, n, bs), sizes)]

    def epoch_loss():
        return _objective(tree, Z, y, config.lam, c, config.class_weight,
                          grad=False, buf=buffers[n])[0]

    tree.history = [epoch_loss()]
    lr = config.learning_rate
    for epoch in range(config.epochs):
        lam = config.lam if epoch >= config.warmup_epochs else 0.0
        perm = rng.permutation(n)
        Zp, yp = Z[perm], y[perm]
        for rows, buf in batches:
            qbar = _objective(tree, Zp[rows], yp[rows], lam, c, config.class_weight,
                              grad=True, l1_grad=not use_prox, out=grads, buf=buf)[2]
            if codebook is not None:
                g_centroids[...] = per_cluster(grads["W1"].ravel()[surv])
            if config.optimizer == "momentum":
                state *= config.momentum
                state -= np.multiply(lr, g, out=step)
                theta += state
            else:
                state *= 0.99
                state += 0.01 * g * g
                theta -= lr * g / (np.sqrt(state) + 1e-8)
            if use_prox and lam > 0:
                if codebook is None:
                    thr = lr * lam * qbar[:, None, None] * c[None, None, :]
                else:
                    thr = lr * lam * per_cluster(qbar[surv_node] * surv_cost)
                _soft_threshold(w1, thr)
            if comp is not None:
                np.put(tree.W1, pruned, 0.0)
                if codebook is not None:
                    np.put(tree.W1, surv, codebook.centroids[codebook.assignments])
        tree.history.append(epoch_loss())
        _check_divergence(tree, epoch)
    return tree
