"""Command-line interface: ingest, synth, train, compress, eval, sweep, report.

Every option is declared once, in ``OPTIONS``.  ``main`` frames every
command: it resolves the options as defaults <- JSON config file <- flags,
creates ``--out``, checks the inputs ``REQUIRED`` names, runs
``cmd_<name>(resolved, out)`` and only then writes the fully resolved config
(seed included) next to its outputs, so any artifact can be reproduced from
its own directory.  Config-file values get the same type and choice checks
as flags.  ``_stored_test_indices`` alone decides a model's held-out rows,
which ``eval`` scores and ``compress`` leaves out of its fine-tuning.  Exit
codes: 0 success, 2 config error, 3 data error, 4 numeric failure.  A bad
flag, config file, ``--feature-spec`` or ``--cost-table`` exits 2, a table
with a non-finite price (``json`` reads ``Infinity``) among them, and so
does either flag given to ``compress`` or ``eval`` with a model that stores
its own feature spec.  A malformed ``dataset.json`` or ``model.json`` exits
3 (so do a dataset without rows, a non-finite feature or sample and a
feature matrix of other than bool, int or float values), and so does a
stored pipeline that is malformed (a non-finite price too) or does not fit
the recording it featurises, or a feature matrix whose column count is not
the model's.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, fields, replace
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
    FIR_ORDER,
    FeatureEntry,
    FeatureSpec,
    default_feature_spec,
    extract_features,
    feature_cost_vector,
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
        "cost_lambda": (float, boosting.PEGB_COST_LAMBDA), **FEATURES,
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

# the inputs a command cannot run without, checked after resolution
REQUIRED = {"train": ("dataset",), "compress": ("model", "dataset"),
            "eval": ("model", "dataset"), "sweep": ("dataset",), "report": ("dataset",)}


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


def _write_json(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _number_list(text: str, kind=float) -> list:
    """Comma-separated values of one type; a bad entry is a ConfigError."""
    values = []
    for v in str(text).split(","):
        if v == "":
            continue
        try:
            values.append(kind(v))
        except ValueError:
            raise ConfigError(f"expected comma-separated {kind.__name__} values, "
                              f"got {v!r} in {text!r}") from None
    return values


# ---------------------------------------------------------------------------
# the model document


@dataclass
class Pipeline(serialize.Stored):
    """The feature spec and the cost table pricing it; null for a feature matrix."""

    feature_spec: list[FeatureEntry] | None
    cost_table: dict | None

    def __post_init__(self):
        if self.feature_spec is None and self.cost_table is None:
            return
        if not self.feature_spec:
            raise InvalidInputError("a pipeline holds a non-empty feature spec, or is null")
        feature_cost_vector(FeatureSpec(self.feature_spec), self.cost_table)


@dataclass
class TrainRecord(serialize.Stored):
    """How ``train`` made the model; ``config`` is read by the model's kind."""

    config: dict
    seed: int
    holdout: float
    dataset_fingerprint: str
    test_indices: list[int] = field(default_factory=list)
    n_classes: int | None = serialize.omitted_when_none()


@dataclass
class ModelDocument(serialize.Stored, kind="model"):
    """``model.json``: ``core`` is any stored model, read by its kind."""

    model_type: str
    core: dict
    pipeline: Pipeline
    train: TrainRecord
    compressed: dict | None = serialize.omitted_when_none()


def _load_model_doc(path):
    doc = ModelDocument.from_doc(serialize.read_document(path), path)
    return doc, serialize.model_from_doc(doc.core, path, "core")


def _check_no_pipeline_flags(doc, resolved) -> None:
    """A model that stores its feature spec is featurised by it alone, so a
    ``--feature-spec`` or ``--cost-table`` beside it is a config error, not
    a flag ignored."""
    if doc.pipeline.feature_spec is None:
        return
    for name in FEATURES:
        if resolved[name]:
            raise ConfigError(f"--{name.replace('_', '-')} does not apply: "
                              f"{resolved['model']} stores the feature spec and "
                              f"cost table its model reads")


# ---------------------------------------------------------------------------
# feature pipeline helpers


def _load_spec_and_costs(resolved, recording) -> tuple[FeatureSpec, dict]:
    spec_path, table_path = resolved.get("feature_spec"), resolved.get("cost_table")
    try:
        spec = (FeatureSpec.from_doc(_load_json(spec_path), spec_path) if spec_path
                else default_feature_spec(recording.n_channels, recording.fs))
    except DataError as exc:  # a flag's file is configuration
        raise ConfigError(str(exc)) from exc
    table = _load_json(table_path) if table_path else dict(DEFAULT_COST_TABLE)
    return spec, table  # the table is checked where it prices the spec


def _featurize(container, resolved, stored=None):
    """(X, y, cost_vec, Pipeline) from either container kind.

    A recording is featurised with the ``stored`` pipeline of a model
    document when that has a feature spec, else with the resolved options;
    a stored spec the recording cannot take is a data error.
    """
    if not isinstance(container, data.Recording):
        X = np.asarray(container.X, dtype=np.float64)
        return X, container.y, np.ones(X.shape[1]), Pipeline(None, None)
    if stored is None or stored.feature_spec is None:
        spec, table = _load_spec_and_costs(resolved, container)
        X = extract_features(container, spec)
    else:
        spec, table = FeatureSpec(stored.feature_spec), stored.cost_table
        try:
            X = extract_features(container, spec)
        except InvalidInputError as exc:
            raise DataError(f"model pipeline.feature_spec: {exc}") from exc
    c = feature_cost_vector(spec, table)
    return X, container.labels, c, Pipeline(list(spec.entries), table)


def _check_fits(X, model, path) -> None:
    """A feature matrix without the model's column count is a data error."""
    if X.shape[1] != model.n_features:
        raise DataError(f"{path}: {X.shape[1]} feature columns, "
                        f"the model reads {model.n_features}")


def _labels(container) -> np.ndarray:
    return container.labels if isinstance(container, data.Recording) else container.y


def _load_dataset(path):
    """The container at ``path``; one without rows is a data error."""
    container = data.load_container(path)
    if not _labels(container).size:
        raise DataError(f"{path}: the dataset holds no rows")
    return container


def _load_featurized(path, resolved, stored=None):
    container = _load_dataset(path)
    if np.unique(_labels(container)).size < 2:
        raise DataError(f"{path}: the dataset holds one class; a model needs at least two")
    X, y, c, pipeline = _featurize(container, resolved, stored)
    return container, X, y, c, pipeline


def _rows(container, idx):
    """The container cut down to the rows ``idx``."""
    if isinstance(container, data.Recording):
        return replace(container, windows=container.windows[idx], labels=container.labels[idx])
    return replace(container, X=container.X[idx], y=container.y[idx])


def _stored_test_indices(train: TrainRecord, container) -> np.ndarray:
    """The model's held-out rows: on the dataset it was trained on (equal
    fingerprints) its ``train.test_indices``, which must be unique integers
    in [0, n); on any other dataset, whose rows they do not name, none."""
    if container.fingerprint() != train.dataset_fingerprint:
        return np.asarray([], dtype=np.int64)
    n = len(_labels(container))
    for i in train.test_indices:
        if not 0 <= i < n:
            raise DataError(f"model train.test_indices holds {i}, not a row index in [0, {n})")
    if len(set(train.test_indices)) != len(train.test_indices):
        raise DataError("model train.test_indices repeats a row index")
    return np.asarray(train.test_indices, dtype=np.int64)


# ---------------------------------------------------------------------------
# commands


def cmd_ingest(resolved, out):
    fmt = resolved["format"]
    if fmt == "idx":
        if not resolved["images"] or not resolved["labels"]:
            raise ConfigError("idx ingestion needs --images and --labels")
        container = data.ingest_idx(resolved["images"], resolved["labels"])
    elif fmt == "csv":
        if not resolved["signal"] or not resolved["labels_csv"]:
            raise ConfigError("csv ingestion needs --signal and --labels-csv")
        if resolved["window_len"] < FIR_ORDER + 1:
            raise ConfigError(
                f"--window-len must be at least {FIR_ORDER + 1}, as band power "
                f"needs that many samples; got {resolved['window_len']}")
        container = data.ingest_csv(
            resolved["signal"], resolved["labels_csv"],
            resolved["window_len"], resolved["overlap"],
        )
    else:
        raise ConfigError("--format must be idx or csv")
    data.save_container(container, out / "dataset.json")
    print(f"wrote {out / 'dataset.json'} fingerprint={container.fingerprint()[:16]}")


def cmd_synth(resolved, out):
    rec = synth.synth_recording(resolved["task"], resolved["n_windows"],
                                resolved["seed"])
    data.save_container(rec, out / "dataset.json")
    _write_json(rec.meta, out / "note.json")
    print(f"wrote {out / 'dataset.json'} note={rec.meta}")


def _holdout_split(n, fraction, seed):
    """Deterministic shuffled split; the trailing fraction is held out."""
    rng = np.random.default_rng([n, seed])
    perm = rng.permutation(n)
    n_test = int(round(n * fraction))
    n_test = min(max(n_test, 1), n - 1) if fraction > 0 else 0
    return perm[:n - n_test], perm[n - n_test:]


def cmd_train(resolved, out):
    holdout = resolved["holdout"]
    if not 0.0 <= holdout < 1.0:
        raise ConfigError(f"--holdout must lie in [0, 1), got {holdout}")
    container, X, y, c, pipeline = _load_featurized(resolved["dataset"], resolved)
    n_classes = int(y.max()) + 1
    seed = resolved["seed"]
    tr_idx, te_idx = _holdout_split(X.shape[0], holdout, seed)

    if resolved["model"] == "peot":
        cfg = _train_config(resolved)
        model = tree_mod.train(X[tr_idx], y[tr_idx], cfg, cost_vec=c, n_classes=n_classes)
    else:
        cfg = GbtConfig(
            n_trees=resolved["n_trees"], max_depth=resolved["max_depth"],
            learning_rate=resolved["gbt_learning_rate"],
            cost_lambda=resolved["cost_lambda"]
            if resolved["model"] == "pegb" else 0.0,
        )
        model = boosting.train_gbt_multiclass(X[tr_idx], y[tr_idx], cfg, cost_vec=c)
        if resolved["model"] == "pegb":
            model = boosting.quantize_model(model)

    train = TrainRecord(cfg.to_doc(), seed, holdout, container.fingerprint(),
                        te_idx.tolist(), n_classes)
    doc = ModelDocument(resolved["model"], model.to_doc(), pipeline, train)
    serialize.write_document(doc.to_doc(), out / "model.json")

    metrics = {"train": compute_metrics(y[tr_idx], model.predict(X[tr_idx]),
                                        n_classes).to_doc()}
    if te_idx.size:
        metrics["test"] = compute_metrics(y[te_idx], model.predict(X[te_idx]),
                                          n_classes).to_doc()
    _write_json(metrics, out / "metrics.json")
    print(f"wrote {out / 'model.json'}"
          + (f" test_f1={metrics['test']['f1']:.4f}" if te_idx.size else ""))


def cmd_compress(resolved, out):
    doc, model = _load_model_doc(resolved["model"])
    if not isinstance(model, tree_mod.ObliqueTree):
        raise ConfigError("compress applies to oblique-tree models")
    _check_no_pipeline_flags(doc, resolved)
    cfg = TrainConfig.from_doc(doc.train.config, resolved["model"], "train.config")
    container, X, y, c, _ = _load_featurized(resolved["dataset"], resolved, doc.pipeline)
    _check_fits(X, model, resolved["dataset"])
    lam = resolved["lam"] if resolved["lam"] is not None else cfg.lam
    ft_cfg = replace(cfg, epochs=resolved["epochs"], warmup_epochs=0,
                     lam=lam, seed=resolved["seed"])
    te = _stored_test_indices(doc.train, container)
    mask = np.ones(X.shape[0], dtype=bool)
    mask[te] = False
    model_c, report = compression.compress_pipeline(
        model, X[mask], y[mask], resolved["sparsity"],
        None if resolved["share_bits"] in (0, "none") else resolved["share_bits"],
        ft_cfg,
        X_eval=X[te] if te.size else None,
        y_eval=y[te] if te.size else None,
        cost_vec=c,
    )
    report["split"] = "stored-test-fold" if te.size else "full-dataset"
    compressed = {"sparsity": resolved["sparsity"], "share_bits": resolved["share_bits"],
                  "finetune_epochs": resolved["epochs"]}
    doc = replace(doc, core=model_c.to_doc(), compressed=compressed)
    serialize.write_document(doc.to_doc(), out / "model.json")
    _write_json(report, out / "report.json")
    print(f"wrote {out / 'model.json'} ratio={report['ratio']:.2f} "
          f"acc {report['acc_before']:.4f}->{report['acc_after']:.4f}")


def cmd_eval(resolved, out):
    doc, model = _load_model_doc(resolved["model"])
    _check_no_pipeline_flags(doc, resolved)
    container = _load_dataset(resolved["dataset"])
    y = _labels(container)
    n_classes = int(y.max()) + 1 if doc.train.n_classes is None else doc.train.n_classes
    if y.max() >= n_classes:  # labels are >= 0
        raise DataError(f"{resolved['model']}: train.n_classes is {n_classes!r}, "
                        f"the dataset has {int(y.max()) + 1} classes")
    te = _stored_test_indices(doc.train, container)
    # only the stored test fold is scored, so only it is featurised
    split = "stored-test-fold" if te.size else "full-dataset"
    X_eval, y_eval, c, _ = _featurize(_rows(container, te) if te.size else container,
                                      resolved, doc.pipeline)
    _check_fits(X_eval, model, resolved["dataset"])
    metrics = compute_metrics(y_eval, model.predict(X_eval), n_classes)
    result = {"split": split, "metrics": metrics.to_doc()}
    if isinstance(model, tree_mod.ObliqueTree):  # each kind's power by its traced name
        result["deployed_power"] = cost.deployed_power(model, X_eval, c)
        result["params_touched"] = {mode: model.params_touched_fraction(mode)
                                    for mode in ("internal-only", "with-leaves")}
    else:
        result["deployed_power"] = boosting.model_power(model, X_eval, c)
    _write_json(result, out / "metrics.json")
    print(f"eval[{split}]: f1={metrics.f1:.4f} acc={metrics.accuracy:.4f}")


def cmd_sweep(resolved, out):
    lambdas = _number_list(resolved["lambdas"])
    depths = _number_list(resolved["depths"], int)
    container, X, y, c, _ = _load_featurized(resolved["dataset"], resolved)
    points, csv_text = tradeoff_sweep(
        X, y, c, lambdas, depths, _train_config(resolved), k=resolved["k"],
        scheme=resolved["scheme"], seed=resolved["seed"],
        fingerprint=container.fingerprint(),
    )
    (out / "sweep.csv").write_text(csv_text)
    _write_json({"points": [p.to_doc() for p in points],
                 "fingerprint": container.fingerprint()}, out / "sweep.json")
    print(f"wrote {out / 'sweep.csv'} ({len(points)} points)")


def cmd_report(resolved, out):
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
    rows = report["methods"]
    print("method  f1           size_norm power_norm")
    for name in ("gbt", "pegb", "peot"):
        r = rows[name]
        print(f"{name:<7} {r['f1_mean']:.4f}±{r['f1_std']:.4f} "
              f"{r['size_norm']:9.4f} {r['power_norm']:10.4f}")


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peot",
        description="Power-efficient oblique trees: train, compress, evaluate.",
        epilog="--seed defaults to $PEOT_SEED, else 0.  Running with "
               "OPENBLAS_NUM_THREADS=1 is recommended: every matrix product "
               "is small, so extra BLAS threads mostly spin (a depth-8 train "
               "took about twice the CPU time with the default thread count).",
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
        resolved = _resolve(args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        missing = ["--" + name for name in REQUIRED.get(args.command, ())
                   if not resolved[name]]
        if missing:
            raise ConfigError(f"missing required input: {' and '.join(missing)}")
        args.func(resolved, out)
        _write_json({"command": args.command, **resolved}, out / "resolved_config.json")
        return 0
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
