"""Axis-aligned gradient-boosted trees: the conventional baseline.

Training is classic second-order boosting with a logistic objective and
exact greedy split search (no histograms: datasets here are desk-scale and
determinism matters more than asymptotics).  Each column is stable-sorted
once per ``train_gbt`` call, which also gives every row's rank in every
column.  A node's block, its rows in every column's order, is the sorted
columns at the root and its rows' sorted ranks elsewhere, so a node of m rows
costs O(F m log m) however large the training set; all columns' splits are
scored in one array expression (the pre-sorted column blocks of exact greedy
in XGBoost, Chen & Guestrin 2016, and SPRINT's per-node attribute lists,
Shafer et al. 1996).  A cost-aware variant penalizes the split gain by lambda *
cost the first time a feature is used within the current tree, approximating
power-efficient boosting; fixed-point quantization of thresholds and leaf
weights produces the compressed variant.

Every boosted model is a ``GbtOvR`` read through ``model.ensembles``: one
binary ensemble per class, or one member for a binary task.  A one-member
model is stored as its member's ``gbt-ensemble`` document.  Like an
``ObliqueTree`` it answers ``predict`` and ``reads``, which ``model_power``
prices (``tree.charge``), so ``model_power`` takes a ``GbtOvR``.  A bare
``GbtEnsemble`` (from the public ``train_gbt``) stays sizable: its
``ensembles`` is itself.
Configs, trees and models are stored through the ``serialize`` codec.
"""

import warnings
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.special import expit

from . import serialize
from .compression import fit_format, quantize_values
from .errors import InvalidInputError
from .tree import charge, cost_vector, feature_batch, training_set

PROB_CLAMP = 1e-6
PEGB_COST_LAMBDA = 0.5  # PEGB's feature-cost weight, in train and in the report


@dataclass
class GbtConfig(serialize.Stored):
    n_trees: int = 8
    max_depth: int = 4
    learning_rate: float = 0.3
    min_samples_leaf: int = 5
    reg_lambda: float = 1.0
    cost_lambda: float = 0.0  # per-tree first-use feature-cost gain penalty

    def validate(self):
        if self.n_trees < 1:
            raise InvalidInputError("n_trees must be >= 1")
        if self.max_depth < 1:
            raise InvalidInputError("max_depth must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise InvalidInputError("learning_rate must be in (0, 1]")
        if self.min_samples_leaf < 1:
            raise InvalidInputError("min_samples_leaf must be >= 1")
        # reg_lambda > 0 keeps every leaf weight and split gain finite; NaN fails too
        if not (0 < self.reg_lambda < np.inf and 0 <= self.cost_lambda < np.inf):
            raise InvalidInputError("regularization weights must be finite, with "
                                    "reg_lambda > 0 and cost_lambda >= 0")


@dataclass
class AxisTree(serialize.Stored):
    """Array-packed regression tree; left child covers feature <= threshold.

    The fields, in order and each with its dtype, are the node layout: node
    i is the record ``(feature[i], threshold[i], ..., node_depth[i])``."""

    feature: np.ndarray = serialize.array_field(np.int64)  # split feature, -1 at leaves
    threshold: np.ndarray = serialize.array_field(np.float64)  # nan at leaves
    left: np.ndarray = serialize.array_field(np.int64)  # child index, -1 at leaves
    right: np.ndarray = serialize.array_field(np.int64)
    value: np.ndarray = serialize.array_field(np.float64)  # leaf weight, 0.0 at internal nodes
    node_depth: np.ndarray = serialize.array_field(np.int64)  # depth of each node (root = 0)

    def __post_init__(self):
        """Node i is a leaf iff ``feature[i] < 0``; its children are -1, an
        internal node's lie after it, so every walk ends at a leaf."""
        n, leaf = self.feature.size, self.feature < 0
        if not n or any(getattr(self, f.name).shape != (n,) for f in fields(self)):
            raise InvalidInputError("a tree needs one or more nodes and node arrays "
                                    "of one length")
        children = np.stack([self.left, self.right])
        inner = children[:, ~leaf]
        if ((children[:, leaf] != -1).any() or (inner >= n).any()
                or (inner <= np.flatnonzero(~leaf)).any()):
            raise InvalidInputError("a leaf's children must be -1 and an internal "
                                    "node's lie after it in the tree")

    @classmethod
    def from_records(cls, records) -> "AxisTree":
        """The tree whose node i is the record ``records[i]``."""
        return cls(*(np.asarray(column, dtype=f.metadata["dtype"])
                     for f, column in zip(fields(cls), zip(*records), strict=True)))

    @property
    def n_nodes(self) -> int:
        return self.feature.size

    @property
    def n_internal(self) -> int:
        return int((self.feature >= 0).sum())

    @property
    def n_leaves(self) -> int:
        return int((self.feature < 0).sum())

    def walk(self, X, used=None) -> np.ndarray:
        """Route samples to leaf node indices; optionally mark used features."""
        X = np.asarray(X, dtype=np.float64)
        node = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            at = np.flatnonzero(self.feature[node] >= 0)
            if not at.size:
                return node
            u = node[at]
            f = self.feature[u]
            if used is not None:
                used[at, f] = True
            node[at] = np.where(X[at, f] > self.threshold[u], self.right[u], self.left[u])

    def leaf_values(self, X) -> np.ndarray:
        return self.value[self.walk(X)]


@dataclass
class GbtEnsemble(serialize.Stored, kind="gbt-ensemble"):
    """Boosted ensemble: margin(x) = base + lr * sum of tree outputs."""

    trees: list[AxisTree]
    learning_rate: float
    base_score: float
    n_features: int
    quant: dict | None = None  # set by quantize_gbt
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if any(t.feature.max() >= self.n_features for t in self.trees):
            raise InvalidInputError(f"a tree splits on a feature >= n_features "
                                    f"({self.n_features})")

    @property
    def ensembles(self) -> list["GbtEnsemble"]:
        """A bare ensemble is a one-member boosted model."""
        return [self]

    def margins(self, X) -> np.ndarray:
        X = feature_batch(X, self.n_features)
        m = np.full(X.shape[0], self.base_score)
        for t in self.trees:
            m += self.learning_rate * t.leaf_values(X)
        return m


# ---------------------------------------------------------------------------
# training


def _sorted_columns(X):
    """Each column's stable ascending row order, its sorted values and each
    row's rank in it (its position in that order), all (n_features,
    n_samples)."""
    order = np.argsort(X, axis=0, kind="stable").T
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(X.shape[0]), axis=1)
    return order, np.take_along_axis(X.T, order, axis=1), rank


class _TreeBuilder:
    """Exact greedy depth-limited regression tree on gradient statistics.

    ``columns`` is ``_sorted_columns(X)``; ``train_gbt`` sorts once and
    shares it with every tree, and the builder sorts itself without it.  A
    node's block is its rows in every column's order: the root's is the
    sorted columns themselves, and any other node sorts its rows' ranks,
    ``np.sort(rank[:, idx])``, and reads its rows and values at those
    positions, O(F m log m) for m rows instead of a pass over all N.  Ranks
    follow the stable sort, so a block is the order a stable per-node sort
    of the node's values gives.
    """

    def __init__(self, X, g, h, config: GbtConfig, cost_vec=None, columns=None):
        self.X = X
        self.g = g
        self.h = h
        self.cfg = config
        self.cost_vec = cost_vec
        self.order, self.sorted_x, self.rank = (_sorted_columns(X) if columns is None
                                                else columns)
        self.used_features: set[int] = set()  # resets per tree
        self.nodes: list[tuple] = []  # AxisTree node records, in preorder

    def _best_split(self, idx):
        """``(gain, feature, threshold, left_local)`` of the best split of
        the ascending rows ``idx``, or None; ``left_local`` holds the left
        rows' positions in ``idx``.  Ties go to the lowest feature, then the
        lowest threshold.

        Gains are scored on the node's rank-sorted block, and only for the
        splits that leave ``min_samples_leaf`` rows on each side: the split
        after sorted position i leaves i + 1 rows on the left, so i runs over
        ``[min_samples_leaf - 1, m - min_samples_leaf)``."""
        cfg = self.cfg
        m = idx.size
        if m < 2 * cfg.min_samples_leaf:
            return None
        g, h = self.g[idx], self.h[idx]
        G, H = g.sum(), h.sum()
        parent = G * G / (H + cfg.reg_lambda)
        if m == self.X.shape[0]:  # the root: every row, in sorted order
            rows, xs = self.order, self.sorted_x
        else:
            at = np.sort(self.rank[:, idx], axis=1)
            rows = np.take_along_axis(self.order, at, axis=1)
            xs = np.take_along_axis(self.sorted_x, at, axis=1)
        lo, hi = cfg.min_samples_leaf - 1, m - cfg.min_samples_leaf
        GL = np.cumsum(self.g[rows[:, :hi]], axis=1)[:, lo:]
        HL = np.cumsum(self.h[rows[:, :hi]], axis=1)[:, lo:]
        GR, HR = G - GL, H - HL
        gains = 0.5 * (GL * GL / (HL + cfg.reg_lambda)
                       + GR * GR / (HR + cfg.reg_lambda) - parent)
        F = rows.shape[0]
        if cfg.cost_lambda > 0:
            # the first-use penalty; subtracting 0.0 leaves a used column as is
            cost = np.ones(F) if self.cost_vec is None else np.asarray(self.cost_vec, float)
            penalty = cfg.cost_lambda * cost
            penalty[list(self.used_features)] = 0.0
            gains -= penalty[:, None]
        cand = xs[:, lo + 1:hi + 1] > xs[:, lo:hi]  # no threshold inside a tie
        gains[~cand] = -np.inf
        col_best = gains.max(axis=1)
        j = int(np.argmax(col_best))  # first max: lowest feature wins ties
        if not col_best[j] > 0.0:  # also no candidate at all (-inf)
            return None
        p = lo + int(np.argmax(gains[j]))  # first max: lowest threshold wins ties
        thr = 0.5 * (xs[j, p] + xs[j, p + 1])
        return float(col_best[j]), j, float(thr), np.searchsorted(idx, rows[j, :p + 1])

    def build(self, idx, depth=0) -> int:
        """Append the subtree over the ascending rows ``idx``; return its root."""
        node = len(self.nodes)
        split = self._best_split(idx) if depth < self.cfg.max_depth else None
        if split is None:
            w = -self.g[idx].sum() / (self.h[idx].sum() + self.cfg.reg_lambda)
            self.nodes.append((-1, np.nan, -1, -1, float(w), depth))
            return node
        _, j, thr, left_local = split
        # before the children: a feature's first-use penalty is paid once per tree
        self.used_features.add(j)
        self.nodes.append(None)  # written once both children are numbered
        left_mask = np.zeros(idx.size, dtype=bool)
        left_mask[left_local] = True
        left = self.build(idx[left_mask], depth + 1)
        right = self.build(idx[~left_mask], depth + 1)
        self.nodes[node] = (j, thr, left, right, 0.0, depth)
        return node

    def tree(self) -> AxisTree:
        self.build(np.arange(self.X.shape[0]))
        return AxisTree.from_records(self.nodes)


def train_gbt(X, y, config: GbtConfig, cost_vec=None) -> GbtEnsemble:
    """Boost depth-limited trees on logistic gradients; deterministic."""
    config.validate()
    X, y = training_set(X, y)
    if not np.isin(y, (0, 1)).all():
        raise InvalidInputError("train_gbt needs binary 0/1 labels")
    if config.cost_lambda > 0 and cost_vec is not None:
        cost_vec = cost_vector(cost_vec, X.shape[1])
        if not np.isfinite(cost_vec).all():
            raise InvalidInputError("feature costs must be finite")
    p = float(np.clip(y.mean(), PROB_CLAMP, 1.0 - PROB_CLAMP))
    base = float(np.log(p / (1.0 - p)))
    if y.min() == y.max():
        warnings.warn("single-class dataset: degenerate base-score model")
        stump = AxisTree.from_records([(-1, np.nan, -1, -1, 0.0, 0)])
        return GbtEnsemble([stump], config.learning_rate, base, X.shape[1],
                           meta={"degenerate": True})
    margin = np.full(X.shape[0], base)
    columns = _sorted_columns(X)
    trees = []
    for _ in range(config.n_trees):
        prob = expit(margin)
        g = prob - y
        h = prob * (1.0 - prob)
        tree = _TreeBuilder(X, g, h, config, cost_vec, columns).tree()
        trees.append(tree)
        margin += config.learning_rate * tree.leaf_values(X)
    return GbtEnsemble(trees, config.learning_rate, base, X.shape[1])


def predict_gbt(ensemble: GbtEnsemble, X):
    """(margin, probability, label) for each sample."""
    x = np.asarray(X, dtype=np.float64)
    single = x.ndim == 1
    margins = ensemble.margins(x[None, :] if single else x)
    probs = expit(margins)
    labels = (probs > 0.5).astype(np.int64)
    if single:
        return float(margins[0]), float(probs[0]), int(labels[0])
    return margins, probs, labels


def quantize_gbt(ensemble: GbtEnsemble, threshold_bits: int = 10,
                 leaf_bits: int = 3) -> GbtEnsemble:
    """Snap thresholds (per-feature min-max grids) and leaves (global grid).

    Returns a new ensemble flagged quantized for size accounting; the fitted
    grids ride along so downstream checks can verify values sit on them.
    """
    if threshold_bits < 1 or leaf_bits < 1:
        raise InvalidInputError("bit widths must be >= 1")
    feature = np.concatenate([t.feature for t in ensemble.trees])
    internal = feature >= 0
    split_on = feature[internal]
    thresholds = np.concatenate([t.threshold for t in ensemble.trees])[internal]
    # np.unique is sorted, so threshold_ranges lists the features in order
    thr_formats = {int(f): fit_format(thresholds[split_on == f], threshold_bits)
                   for f in np.unique(split_on)}
    leaf_format = fit_format(np.concatenate([t.value for t in ensemble.trees])[~internal],
                             leaf_bits)

    new_trees = []
    for t in ensemble.trees:
        q = AxisTree(*(getattr(t, f.name).copy() for f in fields(t)))
        leaf = q.feature < 0
        q.value[leaf] = quantize_values(q.value[leaf], leaf_format)
        for f in np.unique(q.feature[~leaf]):
            at = q.feature == f
            q.threshold[at] = quantize_values(q.threshold[at], thr_formats[int(f)])
        new_trees.append(q)
    quant = {
        "threshold_bits": threshold_bits,
        "leaf_bits": leaf_bits,
        "threshold_ranges": {str(f): [fmt.lo, fmt.hi] for f, fmt in thr_formats.items()},
        "leaf_range": [leaf_format.lo, leaf_format.hi],
    }
    return GbtEnsemble(new_trees, ensemble.learning_rate, ensemble.base_score,
                       ensemble.n_features, quant=quant, meta=dict(ensemble.meta))


# ---------------------------------------------------------------------------
# the boosted model: one ensemble per class, one for a binary task


@dataclass
class GbtOvR(serialize.Stored, kind="gbt-ovr"):
    """A boosted model: one binary ensemble per class, or one for a binary task."""

    ensembles: list[GbtEnsemble]

    def __post_init__(self):
        if len({e.n_features for e in self.ensembles}) != 1:
            raise InvalidInputError("a boosted model needs one or more members, "
                                    "all of one n_features")

    @property
    def n_features(self) -> int:
        return self.ensembles[0].n_features

    def predict(self, X) -> np.ndarray:
        """``predict_labels``, looked up per call so perfbench's spans count it."""
        return predict_labels(self, X)

    def reads(self, X) -> np.ndarray:
        """(B, F) bool: the features read on each row's walks through every tree."""
        X = feature_batch(X, self.n_features)
        used = np.zeros(X.shape, dtype=bool)
        for e in self.ensembles:
            for t in e.trees:
                t.walk(X, used=used)
        return used

    def to_doc(self) -> dict:
        """A one-member model is stored as its member's ``gbt-ensemble``."""
        return self.ensembles[0].to_doc() if len(self.ensembles) == 1 else super().to_doc()

    @classmethod
    def from_doc(cls, doc: dict, path="<doc>", key="") -> "GbtOvR":
        """Reads ``to_doc``'s output, a ``gbt-ensemble`` as a one-member model."""
        if isinstance(doc, dict) and doc.get("kind") == GbtEnsemble.KIND:
            return cls([GbtEnsemble.from_doc(doc, path, key)])
        return super().from_doc(doc, path, key)


def train_gbt_multiclass(X, y, config: GbtConfig, cost_vec=None) -> GbtOvR:
    """One ensemble for a binary task; otherwise one per class (one-vs-rest)."""
    X, y = training_set(X, y)
    n_classes = int(y.max()) + 1
    if n_classes <= 2:
        return GbtOvR([train_gbt(X, y, config, cost_vec)])
    return GbtOvR([train_gbt(X, (y == k).astype(np.int64), config, cost_vec)
                   for k in range(n_classes)])


def quantize_model(model: GbtOvR) -> GbtOvR:
    """The PEGB compression: ``quantize_gbt`` on every member."""
    return GbtOvR([quantize_gbt(e) for e in model.ensembles])


def predict_labels(model: GbtOvR, X) -> np.ndarray:
    """The one member's thresholded probability (``predict_gbt``), else the
    class whose member has the top margin."""
    if len(model.ensembles) == 1:
        return predict_gbt(model.ensembles[0], X)[2]
    return np.argmax(np.stack([e.margins(X) for e in model.ensembles]), axis=0)


def model_power(model: GbtOvR, X, cost_vec) -> float:
    """Mean per-sample cost of the features read on the visited paths of
    every member, each feature priced once per sample."""
    return charge(model.reads(X), cost_vec)
