"""Model compression: quantization, pruning, weight sharing, size accounting.

Pruning and sharing target the first-layer routing weights, which carry
nearly all of an oblique tree's parameter mass; biases, second-layer
weights and leaf logits stay full precision.  Size accounting is exact
integer arithmetic and charges the sparse-index overhead explicitly, so
any alternative storage model can be recomputed from the reported
breakdown.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import serialize, tree as tree_mod
from .errors import DataError, InvalidInputError
from .tree import ObliqueTree, TrainConfig

FLOAT_BITS = 32
KMEANS_TOL = 1e-9
KMEANS_MAX_ITER = 300


def bits_for(k: int) -> int:
    """ceil(log2 k) computed in exact integer arithmetic (0 for k == 1)."""
    if k < 1:
        raise InvalidInputError("bit width requires k >= 1")
    return (k - 1).bit_length()


# ---------------------------------------------------------------------------
# fixed-point quantization


@dataclass(frozen=True)
class QuantFormat:
    """Uniform min-max grid with 2^bits levels over [lo, hi]."""

    bits: int
    lo: float
    hi: float

    def __post_init__(self):
        if not 1 <= self.bits <= 32:
            raise InvalidInputError("bits must be in [1, 32]")
        if not self.lo < self.hi:
            raise InvalidInputError("quantization range requires lo < hi")

    @property
    def levels(self) -> int:
        return 2 ** self.bits

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (self.levels - 1)


def quantize_values(values, fmt: QuantFormat) -> np.ndarray:
    """Snap values to the nearest grid point (round half up), clamping first."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        return v.copy()
    clamped = np.clip(v, fmt.lo, fmt.hi)
    idx = np.floor((clamped - fmt.lo) / fmt.step + 0.5)
    idx = np.clip(idx, 0, fmt.levels - 1)
    out = fmt.lo + idx * fmt.step
    # keep the top grid point exactly at hi despite float round-off
    out[idx == fmt.levels - 1] = fmt.hi
    return out


def fit_format(values, bits: int) -> QuantFormat:
    """Min-max format over observed values; degenerate ranges are widened."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise InvalidInputError("cannot fit a quantization range to no values")
    lo, hi = float(v.min()), float(v.max())
    if lo == hi:
        hi = lo + 1.0
    return QuantFormat(bits=bits, lo=lo, hi=hi)


# ---------------------------------------------------------------------------
# pruning and sharing


@dataclass
class Codebook(serialize.Stored):
    """Shared-weight codebook: k centroids plus one index per survivor.

    Assignments follow the flattened (node, row, column) order of the
    surviving first-layer weights.
    """

    centroids: np.ndarray = serialize.array_field(np.float64)
    assignments: np.ndarray = serialize.array_field(np.int64)

    def copy(self) -> "Codebook":
        return Codebook(self.centroids.copy(), self.assignments.copy())


@dataclass
class CompressionState(serialize.Stored):
    """Prune mask (True = frozen zero) and optional sharing codebook."""

    pruned: np.ndarray = serialize.array_field(bool, disk=np.uint8)
    codebook: Codebook | None = None

    def copy(self) -> "CompressionState":
        return CompressionState(
            self.pruned.copy(),
            None if self.codebook is None else self.codebook.copy(),
        )

    def check_matches(self, W1: np.ndarray) -> None:
        """Raise ``DataError`` unless this state describes ``W1`` exactly.

        Pruned entries must be 0 and, with a codebook, each survivor (in
        flattened order) must equal its assigned centroid.  Checked when a
        stored tree is loaded; training keeps it true by construction.
        """
        if self.pruned.shape != W1.shape:
            raise DataError(f"compression mask has shape {self.pruned.shape}, "
                            f"W1 has shape {W1.shape}")
        nonzero = int(np.count_nonzero(W1[self.pruned]))
        if nonzero:
            raise DataError(f"{nonzero} pruned W1 entries are nonzero")
        if self.codebook is None:
            return
        centroids, assignments = self.codebook.centroids, self.codebook.assignments
        survivors = W1[~self.pruned]
        if assignments.shape != survivors.shape:
            raise DataError(f"codebook assigns {assignments.size} weights, "
                            f"W1 has {survivors.size} survivors")
        k = centroids.size
        if centroids.ndim != 1 or assignments.dtype.kind not in "iu" or (
                assignments.size and (assignments.min() < 0 or assignments.max() >= k)):
            raise DataError(f"codebook assignments must be integers in [0, {k})")
        mismatched = int(np.count_nonzero(survivors != centroids[assignments]))
        if mismatched:
            raise DataError(f"{mismatched} surviving W1 entries differ from "
                            "their codebook centroid")


def prune(tree: ObliqueTree, target_sparsity: float):
    """Zero the globally smallest-magnitude first-layer weights.

    Exactly floor(target_sparsity * N) entries are zeroed; magnitude ties
    break by (node, row, column) order.  Returns (pruned tree, mask).
    """
    if not 0.0 <= target_sparsity < 1.0:
        raise InvalidInputError("target_sparsity must be in [0, 1)")
    out = tree.copy()
    flat = np.abs(out.W1).reshape(-1)
    n_prune = int(np.floor(target_sparsity * flat.size))
    order = np.argsort(flat, kind="stable")
    mask_flat = np.zeros(flat.size, dtype=bool)
    mask_flat[order[:n_prune]] = True
    mask = mask_flat.reshape(out.W1.shape)
    out.W1[mask] = 0.0
    out.compression = CompressionState(pruned=mask.copy())
    return out, mask


def _kmeans_1d(values: np.ndarray, k: int):
    """Deterministic 1-D k-means, linear-spacing init over [min, max]."""
    lo, hi = float(values.min()), float(values.max())
    centroids = np.linspace(lo, hi, k) if k > 1 else np.array([lo])
    assign = None
    for _ in range(KMEANS_MAX_ITER):
        assign = np.abs(values[:, None] - centroids[None, :]).argmin(axis=1)
        counts = np.bincount(assign, minlength=k)
        sums = np.bincount(assign, weights=values, minlength=k)
        new = np.where(counts > 0, sums / np.maximum(counts, 1), centroids)
        delta = np.max(np.abs(new - centroids))
        centroids = new
        if delta < KMEANS_TOL:
            break
    assign = np.abs(values[:, None] - centroids[None, :]).argmin(axis=1)
    return centroids, assign


def share(tree: ObliqueTree, mask: np.ndarray, bits: int):
    """Cluster surviving first-layer weights onto 2^bits shared values.

    k shrinks to the distinct surviving value count when that is smaller.
    Returns (tree with shared weights, codebook).
    """
    if bits < 1:
        raise InvalidInputError("share bits must be >= 1")
    if mask.shape != tree.W1.shape:
        raise InvalidInputError("mask shape must match first-layer weights")
    surviving = tree.W1[~mask]
    if surviving.size == 0:
        raise InvalidInputError("no surviving weights to share")
    n_distinct = np.unique(surviving).size
    k = min(2 ** bits, n_distinct)
    centroids, assign = _kmeans_1d(surviving, k)
    out = tree.copy()
    out.W1[~mask] = centroids[assign]
    codebook = Codebook(centroids=centroids, assignments=assign)
    out.compression = CompressionState(pruned=mask.copy(), codebook=codebook)
    return out, codebook


def fine_tune(tree: ObliqueTree, X, y, mask: np.ndarray,
              codebook: Codebook | None, config: TrainConfig,
              cost_vec=None) -> ObliqueTree:
    """Recovery training under the compression constraints.

    Masked entries stay exactly zero; with a codebook, per-cluster summed
    gradients move centroids so shared weights remain equal (``tree.train``
    trains under the state this puts on a copy of ``tree``).  The returned
    tree carries the trained state; the caller's codebook does not move.
    """
    if mask.shape != tree.W1.shape:
        raise InvalidInputError("mask shape must match first-layer weights")
    start = tree.copy()
    start.compression = CompressionState(mask, codebook)  # train copies it
    return tree_mod.train(X, y, config, cost_vec, init_tree=start)


# ---------------------------------------------------------------------------
# size accounting

OBLIQUE_ACCOUNTINGS = ("dense-float32", "pruned-shared")
GBT_ACCOUNTINGS = ("dense-float32", "quantized-gbt")


def _oblique_breakdown(tree: ObliqueTree, accounting: str) -> dict:
    n_w1 = tree.W1.size
    other = tree.b1.size + tree.w2.size + tree.b2.size + tree.leaf_logits.size
    if accounting == "dense-float32":
        return {
            "w1_bits": FLOAT_BITS * n_w1,
            "other_params_bits": FLOAT_BITS * other,
        }
    if accounting == "pruned-shared":
        state = tree.compression
        if state is None:
            n_surv = n_w1
            codebook = None
        else:
            n_surv = int(n_w1 - int(state.pruned.sum()))
            codebook = state.codebook
        index_bits = n_surv * bits_for(n_w1)
        if codebook is None:
            weight_bits = FLOAT_BITS * n_surv
            codebook_bits = 0
        else:
            k = int(codebook.centroids.size)
            weight_bits = n_surv * bits_for(k)
            codebook_bits = FLOAT_BITS * k
        return {
            "surviving_weight_bits": weight_bits,
            "codebook_bits": codebook_bits,
            "sparse_index_bits": index_bits,
            "other_params_bits": FLOAT_BITS * other,
        }
    raise InvalidInputError(
        f"unknown oblique-tree accounting {accounting!r}; "
        f"expected one of {OBLIQUE_ACCOUNTINGS}"
    )


def _gbt_breakdown(ensemble, accounting: str) -> dict:
    idx_bits = bits_for(max(ensemble.n_features, 1))
    n_internal = sum(t.n_internal for t in ensemble.trees)
    n_leaves = sum(t.n_leaves for t in ensemble.trees)
    if accounting == "dense-float32":
        return {
            "feature_index_bits": idx_bits * n_internal,
            "threshold_bits": FLOAT_BITS * n_internal,
            "leaf_bits": FLOAT_BITS * n_leaves,
        }
    if accounting == "quantized-gbt":
        if ensemble.quant is None:
            raise InvalidInputError(
                "quantized-gbt accounting requires a quantized ensemble"
            )
        return {
            "feature_index_bits": idx_bits * n_internal,
            "threshold_bits": ensemble.quant["threshold_bits"] * n_internal,
            "leaf_bits": ensemble.quant["leaf_bits"] * n_leaves,
        }
    raise InvalidInputError(
        f"unknown GBT accounting {accounting!r}; expected one of {GBT_ACCOUNTINGS}"
    )


def size_breakdown(model, accounting: str) -> dict:
    """Exact per-parameter-class bit counts plus the total.

    A boosted model, or a bare ``GbtEnsemble``, is charged the sum over its
    member ensembles."""
    if isinstance(model, ObliqueTree):
        parts = _oblique_breakdown(model, accounting)
    else:
        parts = Counter()
        for ensemble in model.ensembles:
            parts.update(_gbt_breakdown(ensemble, accounting))
    parts = {k: int(v) for k, v in parts.items()}
    return {"accounting": accounting, "total_bits": sum(parts.values()), **parts}


def model_size_bits(model, accounting: str) -> int:
    return size_breakdown(model, accounting)["total_bits"]


# ---------------------------------------------------------------------------
# the full pipeline


def _accuracy(tree: ObliqueTree, X, y) -> float:
    return float(np.mean(tree.predict(X) == y))


def compress_pipeline(tree: ObliqueTree, X, y, sparsity: float,
                      share_bits: int | None, config: TrainConfig,
                      X_eval=None, y_eval=None, cost_vec=None):
    """prune -> fine-tune -> share -> fine-tune, with a size/accuracy report.

    ``share_bits=None`` skips the sharing stage (weights stay full
    precision).  Accuracy is reported on the eval split when given,
    otherwise on the training data.  Topology is never changed.
    """
    Xe = X if X_eval is None else X_eval
    ye = y if y_eval is None else y_eval
    report = {
        "sparsity": sparsity,
        "share_bits": share_bits,
        "size_bits_before": model_size_bits(tree, "dense-float32"),
        "acc_before": _accuracy(tree, Xe, ye),
    }
    out, mask = prune(tree, sparsity)
    out = fine_tune(out, X, y, mask, None, config, cost_vec=cost_vec)
    if share_bits is not None:
        out, codebook = share(out, mask, share_bits)
        out = fine_tune(out, X, y, mask, codebook, config, cost_vec=cost_vec)
    report["breakdown"] = size_breakdown(out, "pruned-shared")
    report["size_bits_after"] = report["breakdown"]["total_bits"]
    report["ratio"] = report["size_bits_before"] / report["size_bits_after"]
    report["acc_after"] = _accuracy(out, Xe, ye)
    report["params_touched"] = {
        mode: out.params_touched_fraction(mode)
        for mode in ("internal-only", "with-leaves")
    }
    return out, report
