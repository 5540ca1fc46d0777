"""Axis-aligned gradient-boosted trees: the conventional baseline.

Training is classic second-order boosting with a logistic objective and
exact greedy split search (no histograms: datasets here are desk-scale and
determinism matters more than asymptotics).  A cost-aware variant penalizes
the split gain by lambda * cost the first time a feature is used within the
current tree, approximating power-efficient boosting; fixed-point
quantization of thresholds and leaf weights produces the compressed
variant.

Every boosted model is a ``GbtOvR`` read through ``model.ensembles``: one
binary ensemble per class, or one member for a binary task.  A one-member
model is stored as its member's ``gbt-ensemble`` document, and a bare
``GbtEnsemble`` (from the public ``train_gbt``) is a one-member model too.
"""

import warnings
from dataclasses import asdict, dataclass, field, fields

import numpy as np
from scipy.special import expit

from . import serialize
from .compression import fit_format, quantize_values
from .errors import InvalidInputError
from .tree import training_set

PROB_CLAMP = 1e-6


@dataclass
class GbtConfig:
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
        if self.reg_lambda < 0 or self.cost_lambda < 0:
            raise InvalidInputError("regularization weights must be >= 0")

    def to_doc(self) -> dict:
        return asdict(self)

    @classmethod
    def from_doc(cls, doc: dict) -> "GbtConfig":
        cfg = cls(**{f.name: doc[f.name] for f in fields(cls) if f.name in doc})
        cfg.validate()
        return cfg


@dataclass
class AxisTree:
    """Array-packed regression tree; left child covers feature <= threshold."""

    feature: np.ndarray  # int64 split feature, -1 at leaves
    threshold: np.ndarray  # float64, nan at leaves
    left: np.ndarray  # int64 child index, -1 at leaves
    right: np.ndarray
    value: np.ndarray  # float64 leaf weight, 0.0 at internal nodes
    node_depth: np.ndarray  # int64 depth of each node (root = 0)

    @property
    def n_nodes(self) -> int:
        return self.feature.size

    @property
    def n_internal(self) -> int:
        return int((self.feature >= 0).sum())

    @property
    def n_leaves(self) -> int:
        return int((self.feature < 0).sum())

    @property
    def depth(self) -> int:
        return int(self.node_depth.max())

    def walk(self, X, used=None) -> np.ndarray:
        """Route samples to leaf node indices; optionally mark used features."""
        X = np.asarray(X, dtype=np.float64)
        node = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            active = self.feature[node] >= 0
            if not active.any():
                return node
            for u in np.unique(node[active]):
                sel = node == u
                f = self.feature[u]
                if used is not None:
                    used[sel, f] = True
                goright = X[sel, f] > self.threshold[u]
                node[sel] = np.where(goright, self.right[u], self.left[u])

    def leaf_values(self, X) -> np.ndarray:
        return self.value[self.walk(X)]

    def to_doc(self) -> dict:
        return {name: serialize.encode_array(getattr(self, name))
                for name in ("feature", "threshold", "left", "right",
                             "value", "node_depth")}

    @classmethod
    def from_doc(cls, doc: dict) -> "AxisTree":
        return cls(**{name: serialize.decode_array(doc[name])
                      for name in ("feature", "threshold", "left", "right",
                                   "value", "node_depth")})


@dataclass
class GbtEnsemble:
    """Boosted ensemble: margin(x) = base + lr * sum of tree outputs."""

    trees: list[AxisTree]
    learning_rate: float
    base_score: float
    n_features: int
    quant: dict | None = None  # set by quantize_gbt
    meta: dict = field(default_factory=dict)

    @property
    def ensembles(self) -> list["GbtEnsemble"]:
        """A bare ensemble is a one-member boosted model."""
        return [self]

    def margins(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise InvalidInputError(
                f"expected {self.n_features} feature columns, got {X.shape}"
            )
        m = np.full(X.shape[0], self.base_score)
        for t in self.trees:
            m += self.learning_rate * t.leaf_values(X)
        return m

    def to_doc(self) -> dict:
        doc = serialize.new_document("gbt-ensemble")
        doc.update(
            learning_rate=self.learning_rate, base_score=self.base_score,
            n_features=self.n_features, quant=self.quant, meta=self.meta,
            trees=[t.to_doc() for t in self.trees],
        )
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "GbtEnsemble":
        serialize.check_header(doc, "gbt-ensemble")
        return cls(
            trees=[AxisTree.from_doc(t) for t in doc["trees"]],
            learning_rate=float(doc["learning_rate"]),
            base_score=float(doc["base_score"]),
            n_features=int(doc["n_features"]),
            quant=doc.get("quant"),
            meta=doc.get("meta", {}),
        )


# ---------------------------------------------------------------------------
# training


class _TreeBuilder:
    """Exact greedy depth-limited regression tree on gradient statistics."""

    def __init__(self, X, g, h, config: GbtConfig, cost_vec=None):
        self.X = X
        self.g = g
        self.h = h
        self.cfg = config
        self.cost_vec = cost_vec
        self.used_features: set[int] = set()  # resets per tree
        self.feature, self.threshold = [], []
        self.left, self.right, self.value, self.depth = [], [], [], []

    def _best_split(self, idx):
        cfg = self.cfg
        m = idx.size
        if m < 2 * cfg.min_samples_leaf:
            return None
        g, h = self.g[idx], self.h[idx]
        G, H = g.sum(), h.sum()
        parent = G * G / (H + cfg.reg_lambda)
        best = None  # (gain, feature, threshold, left_local_mask)
        for j in range(self.X.shape[1]):
            xs_col = self.X[idx, j]
            order = np.argsort(xs_col, kind="stable")
            xs = xs_col[order]
            cg = np.cumsum(g[order])
            ch = np.cumsum(h[order])
            # candidate split after position i-1 (left size i)
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
            pos = int(np.argmax(gains))  # first max: lowest threshold wins ties
            if gains[pos] <= 0.0:
                continue
            if best is None or gains[pos] > best[0]:
                thr = 0.5 * (xs[cand[pos] - 1] + xs[cand[pos]])
                best = (float(gains[pos]), j, float(thr), order[: cand[pos]])
        return best

    def _leaf(self, idx, depth):
        w = -self.g[idx].sum() / (self.h[idx].sum() + self.cfg.reg_lambda)
        node = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(np.nan)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(float(w))
        self.depth.append(depth)
        return node

    def build(self, idx=None, depth=0) -> int:
        if idx is None:
            idx = np.arange(self.X.shape[0])
        if depth >= self.cfg.max_depth:
            return self._leaf(idx, depth)
        split = self._best_split(idx)
        if split is None:
            return self._leaf(idx, depth)
        _, j, thr, left_local = split
        self.used_features.add(j)
        node = len(self.feature)
        self.feature.append(j)
        self.threshold.append(thr)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        self.depth.append(depth)
        left_mask = np.zeros(idx.size, dtype=bool)
        left_mask[left_local] = True
        self.left[node] = self.build(idx[left_mask], depth + 1)
        self.right[node] = self.build(idx[~left_mask], depth + 1)
        return node

    def tree(self) -> AxisTree:
        self.build()
        return AxisTree(
            feature=np.asarray(self.feature, dtype=np.int64),
            threshold=np.asarray(self.threshold, dtype=np.float64),
            left=np.asarray(self.left, dtype=np.int64),
            right=np.asarray(self.right, dtype=np.int64),
            value=np.asarray(self.value, dtype=np.float64),
            node_depth=np.asarray(self.depth, dtype=np.int64),
        )


def train_gbt(X, y, config: GbtConfig, cost_vec=None) -> GbtEnsemble:
    """Boost depth-limited trees on logistic gradients; deterministic."""
    config.validate()
    X, y = training_set(X, y)
    if not np.isin(y, (0, 1)).all():
        raise InvalidInputError("train_gbt needs binary 0/1 labels")
    p = float(np.clip(y.mean(), PROB_CLAMP, 1.0 - PROB_CLAMP))
    base = float(np.log(p / (1.0 - p)))
    if y.min() == y.max():
        warnings.warn("single-class dataset: degenerate base-score model")
        stump = AxisTree(
            feature=np.asarray([-1], dtype=np.int64),
            threshold=np.asarray([np.nan]),
            left=np.asarray([-1], dtype=np.int64),
            right=np.asarray([-1], dtype=np.int64),
            value=np.asarray([0.0]),
            node_depth=np.asarray([0], dtype=np.int64),
        )
        return GbtEnsemble([stump], config.learning_rate, base, X.shape[1],
                           meta={"degenerate": True})
    margin = np.full(X.shape[0], base)
    trees = []
    for _ in range(config.n_trees):
        prob = expit(margin)
        g = prob - y
        h = prob * (1.0 - prob)
        tree = _TreeBuilder(X, g, h, config, cost_vec).tree()
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
    thr_by_feature: dict[int, list[float]] = {}
    leaf_vals = []
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
        feature = t.feature.copy()
        threshold = t.threshold.copy()
        value = t.value.copy()
        for i in range(t.n_nodes):
            if feature[i] >= 0:
                fmt = thr_formats[int(feature[i])]
                threshold[i] = quantize_values([threshold[i]], fmt)[0]
            else:
                value[i] = quantize_values([value[i]], leaf_format)[0]
        new_trees.append(AxisTree(feature, threshold, t.left.copy(),
                                  t.right.copy(), value, t.node_depth.copy()))
    quant = {
        "threshold_bits": threshold_bits,
        "leaf_bits": leaf_bits,
        "threshold_ranges": {str(f): [fmt.lo, fmt.hi]
                             for f, fmt in sorted(thr_formats.items())},
        "leaf_range": [leaf_format.lo, leaf_format.hi],
    }
    return GbtEnsemble(new_trees, ensemble.learning_rate, ensemble.base_score,
                       ensemble.n_features, quant=quant, meta=dict(ensemble.meta))


# ---------------------------------------------------------------------------
# the boosted model: one ensemble per class, one for a binary task


@dataclass
class GbtOvR:
    """A boosted model: one binary ensemble per class, or one for a binary task."""

    ensembles: list[GbtEnsemble]

    @property
    def n_features(self) -> int:
        return self.ensembles[0].n_features

    def to_doc(self) -> dict:
        """A one-member model is stored as its member's ``gbt-ensemble``."""
        if len(self.ensembles) == 1:
            return self.ensembles[0].to_doc()
        doc = serialize.new_document("gbt-ovr")
        doc["ensembles"] = [e.to_doc() for e in self.ensembles]
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "GbtOvR":
        """Reads ``to_doc``'s output, a ``gbt-ensemble`` as a one-member model."""
        if doc.get("kind") == "gbt-ensemble":
            return cls([GbtEnsemble.from_doc(doc)])
        serialize.check_header(doc, "gbt-ovr")
        return cls([GbtEnsemble.from_doc(d) for d in doc["ensembles"]])


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
    X = np.asarray(X, dtype=np.float64)
    return np.argmax(np.stack([e.margins(X) for e in model.ensembles]), axis=0)


def model_power(model: GbtOvR, X, cost_vec) -> float:
    """Mean per-sample cost of the features read on the visited paths of
    every member, each feature priced once per sample."""
    X = np.asarray(X, dtype=np.float64)
    c = np.asarray(cost_vec, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] != model.n_features:
        raise InvalidInputError(f"model_power needs a nonempty matrix of "
                                f"{model.n_features} columns, got {X.shape}")
    if c.shape != (model.n_features,):
        raise InvalidInputError("cost vector length must equal feature count")
    used = np.zeros(X.shape, dtype=bool)
    for e in model.ensembles:
        for t in e.trees:
            t.walk(X, used=used)
    return float((used @ c).mean())
