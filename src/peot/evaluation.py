"""Metrics, cross-validation, trade-off sweeps and benchmark reports.

Fold assignment is a pure function of (dataset fingerprint, seed).  Signal
datasets use contiguous-block folds so adjacent windows never straddle the
train/test boundary; i.i.d. feature matrices use stratified random folds.
Sweep and benchmark outputs normalize power to the cost of the cheapest
feature (line-length = 1, already the cost-table convention) and model
size/power to the conventional GBT baseline row.
"""

import io
import csv
from dataclasses import dataclass, replace

import numpy as np

from . import boosting, compression, cost, tree as tree_mod
from .boosting import GbtConfig
from .errors import InvalidInputError, NumericError
from .tree import ObliqueTree, TrainConfig

FOLD_SCHEMES = ("blocks", "stratified")


@dataclass
class Metrics:
    accuracy: float
    f1: float
    sensitivity: float
    specificity: float
    confusion: np.ndarray  # rows true, columns predicted
    n: int

    def to_doc(self) -> dict:
        return {
            "accuracy": self.accuracy, "f1": self.f1,
            "sensitivity": self.sensitivity, "specificity": self.specificity,
            "confusion": self.confusion.tolist(), "n": self.n,
        }


def _rates(num, den) -> np.ndarray:
    """``num / den`` elementwise, 0.0 where ``den`` is 0."""
    return np.divide(num, den, out=np.zeros(np.shape(num)), where=den > 0)


def compute_metrics(y_true, y_pred, n_classes: int | None = None) -> Metrics:
    """Standard classification metrics; 0/0 rates resolve to 0.

    Binary tasks report positive-class F1 and sensitivity/specificity of
    classes 1/0; multiclass tasks report macro averages (one-vs-rest
    specificity).  Labels and predictions are ``tree.class_labels`` below
    n_classes, n_classes being at least 2.
    """
    y_true, y_pred = tree_mod.class_labels(y_true), tree_mod.class_labels(y_pred)
    if y_true.size == 0 or y_true.shape != y_pred.shape:
        raise InvalidInputError("labels and predictions must be equal-length, nonempty")
    if n_classes is None:
        n_classes = int(max(y_true.max(), y_pred.max())) + 1
    n_classes = max(n_classes, 2)
    if max(y_true.max(), y_pred.max()) >= n_classes:
        raise InvalidInputError(f"labels and predictions must lie in [0, {n_classes})")
    conf = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(conf, (y_true, y_pred), 1)
    accuracy = float(np.trace(conf) / conf.sum())

    # per class: true positives, true (tp + fn) and predicted (tp + fp) counts
    tp, true, pred = np.diagonal(conf), conf.sum(axis=1), conf.sum(axis=0)
    fp = pred - tp
    tn = conf.sum() - true - fp
    recalls, precisions, specs = _rates(np.stack([tp, tp, tn]),
                                        np.stack([true, pred, tn + fp]))
    f1s = _rates(2 * precisions * recalls, precisions + recalls)

    if n_classes == 2:
        return Metrics(accuracy, float(f1s[1]), float(recalls[1]),
                       float(specs[1]), conf, int(conf.sum()))
    return Metrics(accuracy, float(np.mean(f1s)), float(np.mean(recalls)),
                   float(np.mean(specs)), conf, int(conf.sum()))


# ---------------------------------------------------------------------------
# folds


def _fold_rng(fingerprint: str | None, seed: int) -> np.random.Generator:
    material = int(fingerprint[:16], 16) if fingerprint else 0
    return np.random.default_rng([material, seed])


def fold_seed(seed: int, fold: int) -> int:
    return int(np.random.SeedSequence((seed, fold)).generate_state(1)[0])


def make_folds(n: int, k: int, scheme: str = "blocks", seed: int = 0,
               fingerprint: str | None = None, y=None):
    """Disjoint, covering (train_idx, test_idx) pairs.

    ``blocks`` slices contiguous windows (no temporal leakage for signal
    data); ``stratified`` shuffles per class with an rng derived from the
    dataset fingerprint and seed only.
    """
    if k < 2:
        raise InvalidInputError("need k >= 2 folds")
    if n < k:
        raise InvalidInputError(f"dataset of {n} samples cannot fill {k} folds")
    if scheme == "blocks":  # the first n % k blocks one row longer
        test_sets = np.array_split(np.arange(n), k)
    elif scheme == "stratified":
        if y is None:
            raise InvalidInputError("stratified folds need labels")
        rng = _fold_rng(fingerprint, seed)
        y = tree_mod.class_labels(y)
        # each class's rows shuffled, in label order, then dealt to the folds in turn
        classes = [np.flatnonzero(y == cls) for cls in np.unique(y)]
        order = np.concatenate([idx[rng.permutation(idx.size)] for idx in classes])
        test_sets = [np.sort(order[i::k]) for i in range(k)]
    else:
        raise InvalidInputError(f"unknown fold scheme {scheme!r}")
    return [(np.delete(np.arange(n), test), test) for test in test_sets]


@dataclass
class CVResult:
    fold_metrics: list[Metrics]
    models: list
    test_folds: list[np.ndarray]  # each fold's test indices, in fold order
    f1_mean: float
    f1_std: float


def cross_validate(X, y, fit, predict, k: int = 5, scheme: str = "blocks",
                   seed: int = 0, fingerprint: str | None = None) -> CVResult:
    """Train and score one model per fold of ``make_folds``: the one fold loop.

    ``fit(X_train, y_train, seed)`` gets an independent seed per fold
    (``fold_seed``) and ``predict(model, X_test)`` returns labels.  Each
    fold's model and test indices are kept, so callers can measure the
    models further (size, power) on the same test folds.
    """
    X, y = tree_mod.training_set(X, y)
    n_classes = int(y.max()) + 1
    folds = make_folds(X.shape[0], k, scheme, seed, fingerprint, y)
    metrics, models = [], []
    for i, (tr, te) in enumerate(folds):
        models.append(fit(X[tr], y[tr], fold_seed(seed, i)))
        metrics.append(compute_metrics(y[te], predict(models[-1], X[te]), n_classes))
    f1s = np.array([m.f1 for m in metrics])
    return CVResult(metrics, models, [te for _, te in folds],
                    float(f1s.mean()), float(f1s.std()))


def _priced_cv(X, y, fit, power, c, k, scheme, seed, fingerprint):
    """``cross_validate``, then each fold's ``power(model, X_test, c)``."""
    cv = cross_validate(X, y, fit, lambda m, Z: m.predict(Z), k, scheme, seed, fingerprint)
    return cv, [power(m, X[te], c) for m, te in zip(cv.models, cv.test_folds)]


# ---------------------------------------------------------------------------
# trade-off sweep


@dataclass
class SweepPoint:
    lam: float
    depth: int
    f1_mean: float
    f1_std: float
    power_mean: float
    latency: int
    error: str | None = None

    def to_doc(self) -> dict:
        """The point as strict JSON: a non-finite F1 or power (a point whose
        training raised keeps NaN in its fields) is null."""
        def strict(v):
            return v if np.isfinite(v) else None
        return {
            "lambda": self.lam, "depth": self.depth,
            "f1_mean": strict(self.f1_mean), "f1_std": strict(self.f1_std),
            "power_mean": strict(self.power_mean), "latency": self.latency,
            "error": self.error,
        }


SWEEP_CSV_HEADER = ("lambda", "depth", "fold", "f1", "power", "latency")


def tradeoff_sweep(X, y, cost_vec, lambda_grid, depth_grid,
                   base_config: TrainConfig, k: int = 5,
                   scheme: str = "blocks", seed: int = 0,
                   fingerprint: str | None = None):
    """One cost-regularized tree per (lambda, depth) per fold.

    Power is the deployed-power metric in cost-table units (line-length
    = 1); latency is the single-path length, i.e. the depth.  Training
    failures are recorded on their sweep point and the sweep continues.
    Returns (points, csv_text).
    """
    if len(lambda_grid) == 0 or len(depth_grid) == 0:
        raise InvalidInputError("sweep grids must be nonempty")
    X, y = tree_mod.training_set(X, y)
    c = tree_mod.cost_vector(cost_vec, X.shape[1])
    n_classes = int(y.max()) + 1
    points = []
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_CSV_HEADER)
    for lam in map(float, lambda_grid):
        for depth in map(int, depth_grid):
            cfg = replace(base_config, lam=lam, depth=depth)
            try:
                cv, powers = _priced_cv(
                    X, y,
                    lambda Xtr, ytr, s, cfg=cfg: tree_mod.train(
                        Xtr, ytr, replace(cfg, seed=s), cost_vec=c, n_classes=n_classes),
                    cost.deployed_power, c, k, scheme, seed, fingerprint)
            except NumericError as exc:
                points.append(SweepPoint(lam, depth, np.nan, np.nan, np.nan, depth,
                                         error=str(exc)))
                continue
            writer.writerows((lam, depth, i, met.f1, power, depth)
                             for i, (met, power) in enumerate(zip(cv.fold_metrics, powers)))
            points.append(SweepPoint(lam, depth, cv.f1_mean, cv.f1_std,
                                     float(np.mean(powers)), depth))
    return points, buf.getvalue()


# ---------------------------------------------------------------------------
# benchmark report


# Benchmark presets per synthetic task, found by small grid searches over
# depth/hidden/lambda/sparsity on held-out generator seeds.  The class
# imbalance of the seizure task is handled by class-weighted loss.
TASK_BENCHMARK_PRESETS: dict[str, dict] = {
    "seizure": {
        "peot_config": TrainConfig(depth=2, hidden=2, epochs=120,
                                   warmup_epochs=40, learning_rate=0.1,
                                   lam=0.1, class_weight="balanced"),
        "peot_sparsity": 0.95, "peot_share_bits": 2, "finetune_epochs": 15,
    },
    "tremor": {
        "peot_config": TrainConfig(depth=2, hidden=2, epochs=350,
                                   warmup_epochs=120, learning_rate=0.1,
                                   lam=0.01),
        "peot_sparsity": 0.95, "peot_share_bits": 2, "finetune_epochs": 20,
    },
    "finger": {
        "peot_config": TrainConfig(depth=3, hidden=4, epochs=300,
                                   warmup_epochs=120, learning_rate=0.1,
                                   lam=0.01),
        "peot_sparsity": 0.95, "peot_share_bits": 3, "finetune_epochs": 30,
    },
}


def benchmark_report(X, y, cost_vec, *, k: int = 5, scheme: str = "blocks",
                     seed: int = 0, fingerprint: str | None = None,
                     gbt_config: GbtConfig | None = None,
                     peot_config: TrainConfig | None = None,
                     peot_sparsity: float = 0.9,
                     peot_share_bits: int = 4,
                     finetune_epochs: int = 10,
                     provenance: str = "synthetic") -> dict:
    """Compare GBT / PEGB / PEOT on identical folds.

    PEGB is ``gbt_config`` with the feature-cost penalty ``PEGB_COST_LAMBDA``,
    quantized to 10/3 bits; PEOT is the cost-regularized oblique tree run
    through the prune/share pipeline.
    Sizes and power are normalized to the GBT baseline row (exactly 1.0).
    """
    X, y = tree_mod.training_set(X, y)
    c = tree_mod.cost_vector(cost_vec, X.shape[1])
    n_classes = int(y.max()) + 1
    gbt_config = gbt_config or GbtConfig()
    pegb_config = replace(gbt_config, cost_lambda=boosting.PEGB_COST_LAMBDA)
    peot_config = peot_config or TrainConfig(depth=2, hidden=4, lam=0.1)

    def row(fit, power, accounting):
        cv, powers = _priced_cv(X, y, fit, power, c, k, scheme, seed, fingerprint)
        sizes = [compression.model_size_bits(m, accounting) for m in cv.models]
        return {"f1_mean": cv.f1_mean, "f1_std": cv.f1_std,
                "size_bits_mean": float(np.mean(sizes)),
                "power_mean": float(np.mean(powers))}

    rows = {
        "gbt": row(
            lambda Xtr, ytr, s: boosting.train_gbt_multiclass(Xtr, ytr, gbt_config),
            boosting.model_power, "dense-float32"),
        "pegb": row(
            lambda Xtr, ytr, s: _fit_pegb(Xtr, ytr, pegb_config, c),
            boosting.model_power, "quantized-gbt"),
        "peot": row(
            lambda Xtr, ytr, s: _fit_peot(Xtr, ytr, peot_config, c, n_classes, s,
                                          peot_sparsity, peot_share_bits,
                                          finetune_epochs),
            cost.deployed_power, "pruned-shared"),
    }
    base = rows["gbt"]
    for name, row in rows.items():
        row["size_norm"] = row["size_bits_mean"] / base["size_bits_mean"]
        row["power_norm"] = (row["power_mean"] / base["power_mean"]
                             if base["power_mean"] > 0 else 0.0)
    return {
        "provenance": provenance,
        "k": k,
        "seed": seed,
        "fingerprint": fingerprint,
        "methods": rows,
    }


def _fit_pegb(Xtr, ytr, config: GbtConfig, cost_vec):
    return boosting.quantize_model(
        boosting.train_gbt_multiclass(Xtr, ytr, config, cost_vec))


def _fit_peot(Xtr, ytr, config: TrainConfig, cost_vec, n_classes, seed,
              sparsity, share_bits, finetune_epochs) -> ObliqueTree:
    # two deterministic restarts; keep the lower final training objective
    candidates = []
    for s in (seed, seed ^ 0x5DEECE66):
        cfg = replace(config, seed=s)
        m = tree_mod.train(Xtr, ytr, cfg, cost_vec=cost_vec, n_classes=n_classes)
        candidates.append((m.history[-1], s, m, cfg))
    _, _, model, cfg = min(candidates, key=lambda t: (t[0], t[1]))
    # fine-tune under the same cost-aware objective (no fresh warmup)
    ft_cfg = replace(cfg, epochs=finetune_epochs, warmup_epochs=0)
    model, _ = compression.compress_pipeline(
        model, Xtr, ytr, sparsity, share_bits, ft_cfg, cost_vec=cost_vec
    )
    return model


def report_to_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("method", "f1_mean", "f1_std", "size_bits_mean",
                     "power_mean", "size_norm", "power_norm"))
    for name in sorted(report["methods"]):
        row = report["methods"][name]
        writer.writerow((name, row["f1_mean"], row["f1_std"],
                         row["size_bits_mean"], row["power_mean"],
                         row["size_norm"], row["power_norm"]))
    return buf.getvalue()
