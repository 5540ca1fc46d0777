"""Command-line interface: ingest, synth, train, compress, eval, sweep, report.

Every option is declared once, in ``OPTIONS``.  Each command resolves its
options as defaults <- JSON config file <- flags, then writes the fully
resolved config (seed included) next to its outputs, so any artifact can be
reproduced from its own directory.  Config-file values get the same type
and choice checks as flags.  Exit codes: 0 success, 2 config error, 3 data
error, 4 numeric failure.
"""

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import boosting, compression, cost, data, serialize, synth, tree as tree_mod
from .boosting import GbtConfig
from .errors import ConfigError, DataError, InvalidInputError, NumericError
from .evaluation import (
    FOLD_SCHEMES,
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
from .tree import CLASS_WEIGHTS, OPTIMIZERS, TrainConfig

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


def _share_bits(text) -> int | str:
    """A sharing bit width, or "none" (as 0) to skip weight sharing."""
    return text if text == "none" else int(text)


# ---------------------------------------------------------------------------
# options

_TRAIN, _GBT = TrainConfig(), GbtConfig()
PATH = (str, None)
SEED = {"seed": (int, None)}  # None: $PEOT_SEED, else 0
FEATURES = {"feature_spec": PATH, "cost_table": PATH}

# OPTIONS[command][name] = (type or tuple of choices, default).  Option
# a_b is the flag --a-b and the config-file key "a_b"; both are checked
# against the same type or choices.
OPTIONS = {
    "ingest": {
        "seed": (int, 0), "format": (("idx", "csv"), None),
        "images": PATH, "labels": PATH, "signal": PATH, "labels_csv": PATH,
        "window_len": (int, 256), "overlap": (float, 0.0),
    },
    "synth": {**SEED, "task": (synth.TASKS, None), "n_windows": (int, 800)},
    "train": {
        **SEED, "dataset": PATH, "model": (MODEL_TYPES, "peot"),
        "depth": (int, _TRAIN.depth), "hidden": (int, _TRAIN.hidden),
        "epochs": (int, _TRAIN.epochs), "batch_size": (int, _TRAIN.batch_size),
        "learning_rate": (float, _TRAIN.learning_rate),
        "optimizer": (OPTIMIZERS, _TRAIN.optimizer),
        "lam": (float, _TRAIN.lam),
        "warmup_epochs": (int, _TRAIN.warmup_epochs),
        "class_weight": (CLASS_WEIGHTS, _TRAIN.class_weight),
        "holdout": (float, 0.25),
        "n_trees": (int, _GBT.n_trees), "max_depth": (int, _GBT.max_depth),
        "gbt_learning_rate": (float, _GBT.learning_rate),
        "cost_lambda": (float, 0.5), **FEATURES,
    },
    "compress": {
        **SEED, "model": PATH, "dataset": PATH, "sparsity": (float, 0.9),
        "share_bits": (_share_bits, 4), "epochs": (int, 15),
        "lam": (float, None),  # None: the trained model's lam
        **FEATURES,
    },
    "eval": {**SEED, "model": PATH, "dataset": PATH, **FEATURES},
    "sweep": {
        **SEED, "dataset": PATH, "lambdas": (str, "0,0.01,0.1,1"),
        "depths": (str, "3,4"), "k": (int, 5), "hidden": (int, 4),
        "epochs": (int, 120), "warmup_epochs": (int, 40),
        "learning_rate": (float, _TRAIN.learning_rate),
        "class_weight": (CLASS_WEIGHTS, _TRAIN.class_weight),
        "scheme": (FOLD_SCHEMES, "blocks"), **FEATURES,
    },
    "report": {
        **SEED, "dataset": PATH, "k": (int, 5),
        "task_preset": (tuple(sorted(TASK_BENCHMARK_PRESETS)), None),
        "scheme": (FOLD_SCHEMES, "blocks"), "provenance": (str, "synthetic"),
        **FEATURES,
    },
}


def _resolve(args: argparse.Namespace) -> dict:
    """defaults <- config file <- explicitly passed flags.

    A config-file value is read through the type of the matching flag, or
    must be one of its choices; a null value leaves the default in place,
    as an absent flag does.
    """
    options = OPTIONS[args.command]
    resolved = {name: default for name, (_, default) in options.items()}
    if args.config:
        file_cfg = _load_json(args.config)
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(file_cfg) - set(options)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_cfg.items():
            if value is not None:
                resolved[key] = _config_value(key, value, options[key][0])
    for key in options:
        value = getattr(args, key)
        if value is not None:
            resolved[key] = value
    if resolved["seed"] is None:
        resolved["seed"] = _default_seed()
    return resolved


def _config_value(key, value, kind):
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"config key {key!r}: {value!r} is not one of {kind}")
        return value
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from None


def _train_config(resolved) -> TrainConfig:
    """A TrainConfig from the resolved options named after its fields."""
    return TrainConfig(**{f.name: resolved[f.name] for f in fields(TrainConfig)
                          if f.name in resolved})


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
    resolved = _resolve(args)
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
    resolved = _resolve(args)
    out = _out_dir(args)
    rec = synth.synth_recording(resolved["task"], resolved["n_windows"],
                                resolved["seed"])
    data.save_container(rec, out / "dataset.json")
    _write_json(rec.meta, out / "note.json")
    _write_resolved(out, "synth", resolved)
    print(f"wrote {out / 'dataset.json'} note={rec.meta}")
    return 0


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
    resolved = _resolve(args)
    out = _out_dir(args)
    if not resolved["dataset"]:
        raise ConfigError("--dataset is required")
    holdout = resolved["holdout"]
    if not 0.0 <= holdout < 1.0:
        raise ConfigError(f"--holdout must lie in [0, 1), got {holdout}")
    container, X, y, c, pipeline = _load_featurized(resolved["dataset"], resolved)
    n_classes = int(y.max()) + 1
    seed = resolved["seed"]
    tr_idx, te_idx = _holdout_split(X.shape[0], holdout, seed)

    if resolved["model"] == "peot":
        cfg = _train_config(resolved)
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
    resolved = _resolve(args)
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
    resolved = _resolve(args)
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
    if y.max() >= n_classes:
        raise DataError(f"dataset has {int(y.max()) + 1} classes, "
                        f"the model {n_classes}")
    metrics = compute_metrics(y_eval, labels, n_classes)
    result = {"split": split, "metrics": metrics.to_doc(), **extra}
    _write_json(result, out / "metrics.json")
    _write_resolved(out, "eval", resolved)
    print(f"eval[{split}]: f1={metrics.f1:.4f} acc={metrics.accuracy:.4f}")
    return 0


def cmd_sweep(args):
    resolved = _resolve(args)
    out = _out_dir(args)
    if not resolved["dataset"]:
        raise ConfigError("--dataset is required")
    container, X, y, c, _ = _load_featurized(resolved["dataset"], resolved)
    points, csv_text = tradeoff_sweep(
        X, y, c, _float_list(resolved["lambdas"]), _int_list(resolved["depths"]),
        _train_config(resolved), k=resolved["k"], scheme=resolved["scheme"],
        seed=resolved["seed"], fingerprint=container.fingerprint(),
    )
    (out / "sweep.csv").write_text(csv_text)
    _write_json({"points": [p.to_doc() for p in points],
                 "fingerprint": container.fingerprint()}, out / "sweep.json")
    _write_resolved(out, "sweep", resolved)
    print(f"wrote {out / 'sweep.csv'} ({len(points)} points)")
    return 0


def cmd_report(args):
    resolved = _resolve(args)
    out = _out_dir(args)
    if not resolved["dataset"]:
        raise ConfigError("--dataset is required")
    container, X, y, c, _ = _load_featurized(resolved["dataset"], resolved)
    preset = resolved["task_preset"]
    report = benchmark_report(
        X, y, c, k=resolved["k"], scheme=resolved["scheme"],
        seed=resolved["seed"], fingerprint=container.fingerprint(),
        provenance=resolved["provenance"],
        **(TASK_BENCHMARK_PRESETS[preset] if preset else {}),
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
        epilog="--seed defaults to $PEOT_SEED, else 0.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the cmd_* names are looked up on each call, so a wrapper installed on
    # the module (perfbench's spans) is the function dispatched
    for command, func, help_text in (
        ("ingest", cmd_ingest, "convert IDX or CSV inputs to a dataset"),
        ("synth", cmd_synth, "generate a synthetic labeled recording"),
        ("train", cmd_train, "train a model on a dataset"),
        ("compress", cmd_compress, "prune/share/fine-tune an oblique tree"),
        ("eval", cmd_eval, "evaluate a model file on a dataset"),
        ("sweep", cmd_sweep, "lambda x depth performance/power sweep"),
        ("report", cmd_report, "GBT/PEGB/PEOT normalized benchmark"),
    ):
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", help="JSON config file (flags override)")
        for name, (kind, _) in OPTIONS[command].items():
            flag = "--" + name.replace("_", "-")
            if isinstance(kind, tuple):
                p.add_argument(flag, choices=kind)
            else:
                p.add_argument(flag, type=kind)
        p.set_defaults(func=func)
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
