"""Command-line interface: ingest, synth, train, compress, eval, sweep, report.

Every command resolves its options as defaults <- JSON config file <- flags,
then writes the fully resolved config (seed included) next to its outputs,
so any artifact can be reproduced from its own directory.  Exit codes:
0 success, 2 config error, 3 data error, 4 numeric failure.
"""

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import boosting, compression, cost, data, serialize, synth, tree as tree_mod
from .boosting import GbtConfig
from .errors import ConfigError, DataError, InvalidInputError, NumericError
from .evaluation import (
    TASK_BENCHMARK_PRESETS,
    benchmark_report,
    compute_metrics,
    report_to_csv,
    tradeoff_sweep,
)
from .features import (
    DEFAULT_COST_TABLE,
    FeatureSpec,
    default_feature_spec,
    extract_features,
    feature_cost_vector,
    validate_cost_table,
)
from .tree import TrainConfig

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

MODEL_TYPES = ("peot", "gbt", "pegb")


def _default_seed() -> int:
    env = os.environ.get("PEOT_SEED")
    try:
        return int(env) if env is not None else 0
    except ValueError:
        raise ConfigError(f"PEOT_SEED must be an integer, got {env!r}") from None


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults <- config file <- explicitly passed flags.

    A config-file value is read through the type of the matching flag, so
    it is checked as the flag would be; a null value leaves the default in
    place, as an absent flag does.
    """
    resolved = dict(defaults)
    if getattr(args, "config", None):
        file_cfg = _load_json(args.config)
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_cfg.items():
            if value is None:
                continue
            try:
                resolved[key] = args.flag_types.get(key, str)(value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from None
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    if resolved.get("seed") is None:
        resolved["seed"] = _default_seed()
    return resolved


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_resolved(out: Path, command: str, resolved: dict):
    _write_json({"command": command, **resolved}, out / "resolved_config.json")


def _float_list(text: str) -> list[float]:
    try:
        return [float(v) for v in str(text).split(",") if v != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from None


def _int_list(text: str) -> list[int]:
    return [int(v) for v in _float_list(text)]


def _share_bits(text) -> int | str:
    """A sharing bit width, or "none" (as 0) to skip weight sharing."""
    return text if text == "none" else int(text)


# ---------------------------------------------------------------------------
# feature pipeline helpers


def _load_spec_and_costs(resolved, recording) -> tuple[FeatureSpec, dict]:
    if resolved.get("feature_spec"):
        spec = FeatureSpec.from_doc(_load_json(resolved["feature_spec"]))
    else:
        spec = default_feature_spec(recording.n_channels, recording.fs)
    if resolved.get("cost_table"):
        table = _load_json(resolved["cost_table"])
        validate_cost_table(table)
    else:
        table = dict(DEFAULT_COST_TABLE)
    return spec, table


def _featurize(container, resolved, stored=None):
    """(X, y, cost_vec, pipeline_doc) from either container kind.

    A recording is featurised with the ``stored`` pipeline of a model
    document when that has a feature spec, else with the resolved options.
    """
    if isinstance(container, data.Recording):
        if stored and stored["feature_spec"]:
            spec = FeatureSpec.from_doc(stored["feature_spec"])
            table = stored["cost_table"]
        else:
            spec, table = _load_spec_and_costs(resolved, container)
        X = extract_features(container, spec)
        c = feature_cost_vector(spec, table)
        pipeline = {"feature_spec": spec.to_doc(), "cost_table": table}
        return X, container.labels, c, pipeline
    X = np.asarray(container.X, dtype=np.float64)
    c = np.ones(X.shape[1])
    return X, container.y, c, {"feature_spec": None, "cost_table": None}


def _load_featurized(path, resolved, stored=None):
    container = data.load_container(path)
    X, y, c, pipeline = _featurize(container, resolved, stored)
    return container, X, y, c, pipeline


# ---------------------------------------------------------------------------
# commands


def cmd_ingest(args):
    defaults = {
        "format": None, "images": None, "labels": None, "signal": None,
        "labels_csv": None, "window_len": 256, "overlap": 0.0, "seed": 0,
    }
    resolved = _resolve(args, defaults)
    out = _out_dir(args)
    fmt = resolved["format"]
    if fmt == "idx":
        if not resolved["images"] or not resolved["labels"]:
            raise ConfigError("idx ingestion needs --images and --labels")
        container = data.ingest_idx(resolved["images"], resolved["labels"])
    elif fmt == "csv":
        if not resolved["signal"] or not resolved["labels_csv"]:
            raise ConfigError("csv ingestion needs --signal and --labels-csv")
        container = data.ingest_csv(
            resolved["signal"], resolved["labels_csv"],
            resolved["window_len"], resolved["overlap"],
        )
    else:
        raise ConfigError("--format must be idx or csv")
    data.save_container(container, out / "dataset.json")
    _write_resolved(out, "ingest", resolved)
    print(f"wrote {out / 'dataset.json'} fingerprint={container.fingerprint()[:16]}")
    return 0


def cmd_synth(args):
    defaults = {"task": None, "n_windows": 800, "seed": None}
    resolved = _resolve(args, defaults)
    out = _out_dir(args)
    rec = synth.synth_recording(resolved["task"], resolved["n_windows"],
                                resolved["seed"])
    data.save_container(rec, out / "dataset.json")
    _write_json(rec.meta, out / "note.json")
    _write_resolved(out, "synth", resolved)
    print(f"wrote {out / 'dataset.json'} note={rec.meta}")
    return 0


TRAIN_DEFAULTS = {
    "dataset": None, "model": "peot", "depth": 3, "hidden": 8, "epochs": 30,
    "batch_size": 32, "learning_rate": 0.1, "optimizer": "momentum",
    "lam": 0.0, "warmup_epochs": 0, "class_weight": None, "seed": None,
    "holdout": 0.25, "n_trees": 8, "max_depth": 4, "gbt_learning_rate": 0.3,
    "cost_lambda": 0.5, "feature_spec": None, "cost_table": None,
}


def _holdout_split(n, fraction, seed):
    """Deterministic shuffled split; the trailing fraction is held out."""
    rng = np.random.default_rng([n, seed])
    perm = rng.permutation(n)
    n_test = int(round(n * fraction))
    n_test = min(max(n_test, 1), n - 1) if fraction > 0 else 0
    if n_test == 0:
        return perm, np.asarray([], dtype=np.int64)
    return perm[:-n_test], perm[-n_test:]


def cmd_train(args):
    resolved = _resolve(args, TRAIN_DEFAULTS)
    out = _out_dir(args)
    if not resolved["dataset"]:
        raise ConfigError("--dataset is required")
    if resolved["model"] not in MODEL_TYPES:
        raise ConfigError(f"--model must be one of {MODEL_TYPES}")
    holdout = resolved["holdout"]
    if not 0.0 <= holdout < 1.0:
        raise ConfigError(f"--holdout must lie in [0, 1), got {holdout}")
    container, X, y, c, pipeline = _load_featurized(resolved["dataset"], resolved)
    n_classes = int(y.max()) + 1
    seed = resolved["seed"]
    tr_idx, te_idx = _holdout_split(X.shape[0], holdout, seed)

    if resolved["model"] == "peot":
        cfg = TrainConfig(
            depth=resolved["depth"], hidden=resolved["hidden"],
            epochs=resolved["epochs"], batch_size=resolved["batch_size"],
            learning_rate=resolved["learning_rate"],
            optimizer=resolved["optimizer"], lam=resolved["lam"],
            warmup_epochs=resolved["warmup_epochs"],
            class_weight=resolved["class_weight"], seed=seed,
        )
        model = tree_mod.train(X[tr_idx], y[tr_idx], cfg,
                               cost_vec=c if cfg.lam > 0 else None,
                               n_classes=n_classes)
        predict = model.predict
        train_cfg_doc = cfg.to_doc()
    else:
        gcfg = GbtConfig(
            n_trees=resolved["n_trees"], max_depth=resolved["max_depth"],
            learning_rate=resolved["gbt_learning_rate"],
            cost_lambda=resolved["cost_lambda"]
            if resolved["model"] == "pegb" else 0.0,
        )
        model = boosting.train_gbt_multiclass(
            X[tr_idx], y[tr_idx], gcfg,
            cost_vec=c if gcfg.cost_lambda > 0 else None,
        )
        if resolved["model"] == "pegb":
            model = boosting.quantize_model(model)
        predict = lambda Z: boosting.predict_labels(model, Z)
        train_cfg_doc = gcfg.to_doc()

    doc = serialize.new_document("model")
    doc["model_type"] = resolved["model"]
    doc["core"] = model.to_doc()
    doc["pipeline"] = pipeline
    doc["train"] = {
        "config": train_cfg_doc,
        "seed": seed,
        "holdout": holdout,
        "dataset_fingerprint": container.fingerprint(),
        "test_indices": te_idx.tolist(),
        "n_classes": n_classes,
    }
    serialize.write_document(doc, out / "model.json")

    metrics = {"train": compute_metrics(y[tr_idx], predict(X[tr_idx]),
                                        n_classes).to_doc()}
    if te_idx.size:
        metrics["test"] = compute_metrics(y[te_idx], predict(X[te_idx]),
                                          n_classes).to_doc()
    _write_json(metrics, out / "metrics.json")
    _write_resolved(out, "train", resolved)
    print(f"wrote {out / 'model.json'}"
          + (f" test_f1={metrics['test']['f1']:.4f}" if te_idx.size else ""))
    return 0


def _load_model_doc(path):
    doc = serialize.read_document(path)
    serialize.check_header(doc, "model", path)
    return doc, serialize.model_from_doc(doc["core"])


def cmd_compress(args):
    defaults = {
        "model": None, "dataset": None, "sparsity": 0.9, "share_bits": 4,
        "epochs": 15, "seed": None, "feature_spec": None, "cost_table": None,
        "lam": None,
    }
    resolved = _resolve(args, defaults)
    out = _out_dir(args)
    if not resolved["model"] or not resolved["dataset"]:
        raise ConfigError("--model and --dataset are required")
    doc, model = _load_model_doc(resolved["model"])
    if not isinstance(model, tree_mod.ObliqueTree):
        raise ConfigError("compress applies to oblique-tree models")
    _, X, y, c, _ = _load_featurized(resolved["dataset"], resolved, doc["pipeline"])
    train_doc = doc["train"]
    cfg = TrainConfig.from_doc(train_doc["config"]) if "depth" in train_doc["config"] \
        else TrainConfig()
    lam = resolved["lam"] if resolved["lam"] is not None else cfg.lam
    ft_cfg = replace(cfg, epochs=resolved["epochs"], warmup_epochs=0,
                     lam=lam, seed=resolved["seed"])
    te = np.asarray(train_doc.get("test_indices", []), dtype=np.int64)
    mask = np.ones(X.shape[0], dtype=bool)
    mask[te] = False
    model_c, report = compression.compress_pipeline(
        model, X[mask], y[mask], resolved["sparsity"],
        None if resolved["share_bits"] in (0, "none") else resolved["share_bits"],
        ft_cfg,
        X_eval=X[te] if te.size else None,
        y_eval=y[te] if te.size else None,
        cost_vec=c if lam > 0 else None,
    )
    new_doc = dict(doc)
    new_doc["core"] = model_c.to_doc()
    new_doc["compressed"] = {"sparsity": resolved["sparsity"],
                             "share_bits": resolved["share_bits"],
                             "finetune_epochs": resolved["epochs"]}
    serialize.write_document(new_doc, out / "model.json")
    _write_json(report, out / "report.json")
    _write_resolved(out, "compress", resolved)
    print(f"wrote {out / 'model.json'} ratio={report['ratio']:.2f} "
          f"acc {report['acc_before']:.4f}->{report['acc_after']:.4f}")
    return 0


def cmd_eval(args):
    defaults = {"model": None, "dataset": None, "seed": None,
                "feature_spec": None, "cost_table": None}
    resolved = _resolve(args, defaults)
    out = _out_dir(args)
    if not resolved["model"] or not resolved["dataset"]:
        raise ConfigError("--model and --dataset are required")
    doc, model = _load_model_doc(resolved["model"])
    container, X, y, c, _ = _load_featurized(resolved["dataset"], resolved,
                                             doc["pipeline"])
    n_classes = int(doc["train"].get("n_classes", int(y.max()) + 1))
    same_data = container.fingerprint() == doc["train"]["dataset_fingerprint"]
    te = np.asarray(doc["train"].get("test_indices", []), dtype=np.int64)
    if same_data and te.size:
        X_eval, y_eval, split = X[te], y[te], "stored-test-fold"
    else:
        X_eval, y_eval, split = X, y, "full-dataset"
    if isinstance(model, tree_mod.ObliqueTree):
        labels = model.predict(X_eval)
        extra = {
            "deployed_power": cost.deployed_power(model, X_eval, c),
            "params_touched": {mode: model.params_touched_fraction(mode)
                               for mode in ("internal-only", "with-leaves")},
        }
    else:
        labels = boosting.predict_labels(model, X_eval)
        extra = {"deployed_power": boosting.model_power(model, X_eval, c)}
    metrics = compute_metrics(y_eval, labels, n_classes)
    result = {"split": split, "metrics": metrics.to_doc(), **extra}
    _write_json(result, out / "metrics.json")
    _write_resolved(out, "eval", resolved)
    print(f"eval[{split}]: f1={metrics.f1:.4f} acc={metrics.accuracy:.4f}")
    return 0


def cmd_sweep(args):
    defaults = {
        "dataset": None, "lambdas": "0,0.01,0.1,1", "depths": "3,4", "k": 5,
        "hidden": 4, "epochs": 120, "warmup_epochs": 40, "learning_rate": 0.1,
        "class_weight": None, "seed": None, "feature_spec": None,
        "cost_table": None, "scheme": "blocks",
    }
    resolved = _resolve(args, defaults)
    out = _out_dir(args)
    if not resolved["dataset"]:
        raise ConfigError("--dataset is required")
    container, X, y, c, _ = _load_featurized(resolved["dataset"], resolved)
    base = TrainConfig(
        hidden=resolved["hidden"], epochs=resolved["epochs"],
        warmup_epochs=resolved["warmup_epochs"],
        learning_rate=resolved["learning_rate"],
        class_weight=resolved["class_weight"],
    )
    points, csv_text = tradeoff_sweep(
        X, y, c, _float_list(resolved["lambdas"]), _int_list(resolved["depths"]),
        base, k=resolved["k"], scheme=resolved["scheme"],
        seed=resolved["seed"], fingerprint=container.fingerprint(),
    )
    (out / "sweep.csv").write_text(csv_text)
    _write_json({"points": [p.to_doc() for p in points],
                 "fingerprint": container.fingerprint()}, out / "sweep.json")
    _write_resolved(out, "sweep", resolved)
    print(f"wrote {out / 'sweep.csv'} ({len(points)} points)")
    return 0


def cmd_report(args):
    defaults = {
        "dataset": None, "k": 5, "seed": None, "task_preset": None,
        "feature_spec": None, "cost_table": None, "scheme": "blocks",
        "provenance": "synthetic",
    }
    resolved = _resolve(args, defaults)
    out = _out_dir(args)
    if not resolved["dataset"]:
        raise ConfigError("--dataset is required")
    container, X, y, c, _ = _load_featurized(resolved["dataset"], resolved)
    preset = {}
    if resolved["task_preset"]:
        if resolved["task_preset"] not in TASK_BENCHMARK_PRESETS:
            raise ConfigError(
                f"unknown task preset {resolved['task_preset']!r}; "
                f"expected one of {sorted(TASK_BENCHMARK_PRESETS)}"
            )
        preset = TASK_BENCHMARK_PRESETS[resolved["task_preset"]]
    report = benchmark_report(
        X, y, c, k=resolved["k"], scheme=resolved["scheme"],
        seed=resolved["seed"], fingerprint=container.fingerprint(),
        provenance=resolved["provenance"], **preset,
    )
    _write_json(report, out / "report.json")
    (out / "report.csv").write_text(report_to_csv(report))
    _write_resolved(out, "report", resolved)
    rows = report["methods"]
    print("method  f1           size_norm power_norm")
    for name in ("gbt", "pegb", "peot"):
        r = rows[name]
        print(f"{name:<7} {r['f1_mean']:.4f}±{r['f1_std']:.4f} "
              f"{r['size_norm']:9.4f} {r['power_norm']:10.4f}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peot",
        description="Power-efficient oblique trees: train, compress, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", help="JSON config file (flags override)")
        p.add_argument("--seed", type=int, help="global seed (default: $PEOT_SEED or 0)")

    p = sub.add_parser("ingest", help="convert IDX or CSV inputs to a dataset")
    common(p)
    p.add_argument("--format", choices=("idx", "csv"))
    p.add_argument("--images"), p.add_argument("--labels")
    p.add_argument("--signal"), p.add_argument("--labels-csv", dest="labels_csv")
    p.add_argument("--window-len", dest="window_len", type=int)
    p.add_argument("--overlap", type=float)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic labeled recording")
    common(p)
    p.add_argument("--task", choices=synth.TASKS)
    p.add_argument("--n-windows", dest="n_windows", type=int)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on a dataset")
    common(p)
    p.add_argument("--dataset"), p.add_argument("--model", choices=MODEL_TYPES)
    p.add_argument("--depth", type=int), p.add_argument("--hidden", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--optimizer", choices=("momentum", "adaptive"))
    p.add_argument("--lam", type=float)
    p.add_argument("--warmup-epochs", dest="warmup_epochs", type=int)
    p.add_argument("--class-weight", dest="class_weight", choices=("balanced",))
    p.add_argument("--holdout", type=float)
    p.add_argument("--n-trees", dest="n_trees", type=int)
    p.add_argument("--max-depth", dest="max_depth", type=int)
    p.add_argument("--gbt-learning-rate", dest="gbt_learning_rate", type=float)
    p.add_argument("--cost-lambda", dest="cost_lambda", type=float)
    p.add_argument("--feature-spec", dest="feature_spec")
    p.add_argument("--cost-table", dest="cost_table")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compress", help="prune/share/fine-tune an oblique tree")
    common(p)
    p.add_argument("--model"), p.add_argument("--dataset")
    p.add_argument("--sparsity", type=float)
    p.add_argument("--share-bits", dest="share_bits", type=_share_bits)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lam", type=float)
    p.add_argument("--feature-spec", dest="feature_spec")
    p.add_argument("--cost-table", dest="cost_table")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("eval", help="evaluate a model file on a dataset")
    common(p)
    p.add_argument("--model"), p.add_argument("--dataset")
    p.add_argument("--feature-spec", dest="feature_spec")
    p.add_argument("--cost-table", dest="cost_table")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="lambda x depth performance/power sweep")
    common(p)
    p.add_argument("--dataset")
    p.add_argument("--lambdas"), p.add_argument("--depths")
    p.add_argument("--k", type=int), p.add_argument("--hidden", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--warmup-epochs", dest="warmup_epochs", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--class-weight", dest="class_weight", choices=("balanced",))
    p.add_argument("--scheme", choices=("blocks", "stratified"))
    p.add_argument("--feature-spec", dest="feature_spec")
    p.add_argument("--cost-table", dest="cost_table")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="GBT/PEGB/PEOT normalized benchmark")
    common(p)
    p.add_argument("--dataset")
    p.add_argument("--k", type=int)
    p.add_argument("--task-preset", dest="task_preset",
                   choices=sorted(TASK_BENCHMARK_PRESETS))
    p.add_argument("--scheme", choices=("blocks", "stratified"))
    p.add_argument("--provenance")
    p.add_argument("--feature-spec", dest="feature_spec")
    p.add_argument("--cost-table", dest="cost_table")
    p.set_defaults(func=cmd_report)

    for p in sub.choices.values():
        p.set_defaults(flag_types={a.dest: a.type or str for a in p._actions})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InvalidInputError) as exc:
        _emit_error("config", exc)
        return EXIT_CONFIG
    except DataError as exc:
        _emit_error("data", exc)
        return EXIT_DATA
    except NumericError as exc:
        _emit_error("numeric", exc)
        return EXIT_NUMERIC


def _emit_error(category: str, exc: Exception) -> None:
    print(json.dumps({"error": category, "type": type(exc).__name__,
                      "message": str(exc)}), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
