"""The benchmark workloads.

Each workload is a closed loop on one thread: the next body starts only
after the previous one returned.  ``setup`` builds every input from the
seed; ``body`` is the timed unit; ``inspect`` (untimed) checks the body's
outputs, digests them and extracts the quality numbers.

A workload is bound to one copy of the package: ``load("peot")`` gives the
code under test, ``load("peot_baseline")`` the frozen copy under
``perfbench/frozen`` that the gated runs execute alongside as the host-speed
reference.

Why these three (shares measured on a 2-vCPU VM):

* report-finger    - the paper's GBT/PEGB/PEOT table; training-bound
                     (oblique-tree training ~77 %, GBT split search ~22 %).
* pipeline-seizure - the user's CLI path synth -> train -> compress -> eval;
                     feature extraction and JSON containers dominate.
* stream-seizure   - the deployment loop, one window at a time; the only
                     workload where single-path inference and B=1 feature
                     extraction matter.
"""

import contextlib
import hashlib
import importlib
import io
import json
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import process_time
from types import SimpleNamespace

import numpy as np

MODULES = ("boosting", "cli", "compression", "cost", "data", "evaluation", "features",
           "serialize", "synth", "tree")
N_WINDOWS = 800
# half the paper-table recording, so that a body and its baseline twin fit a run
REPORT_WINDOWS = 400
STREAM_WINDOWS = 1000
RTOL_POWER = 1e-12


def sub_seed(seed: int, stream: int) -> int:
    """Independent seed for the ``stream``-th input derived from ``seed``."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


@dataclass
class Inspection:
    """Untimed verdict on one body's outputs."""

    ops: int
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)


def featurize(p, rec):
    spec = p.features.default_feature_spec(rec.n_channels, rec.fs)
    X = p.features.extract_features(rec, spec)
    c = p.features.feature_cost_vector(spec, p.features.DEFAULT_COST_TABLE)
    return spec, X, c


def deploy_window(p, tree, spec, cost_vec, window, fs):
    """One deployment step: extract one window, predict it, price it (B=1)."""
    rec = p.data.Recording(windows=window[None], fs=fs, labels=np.zeros(1, dtype=np.int64))
    row = p.features.extract_features(rec, spec)
    label = tree.predict(row)[0]
    power = p.cost.deployed_power(tree, row, cost_vec)
    return row[0], label, power


def train_preset(p, task, X, y, c, seed):
    """The task preset's tree, trained then pruned and weight-shared."""
    preset = p.evaluation.TASK_BENCHMARK_PRESETS[task]
    cfg = replace(preset["peot_config"], seed=seed)
    model = p.tree.train(X, y, cfg, cost_vec=c, n_classes=int(y.max()) + 1)
    ft_cfg = replace(cfg, epochs=preset["finetune_epochs"], warmup_epochs=0)
    model, _ = p.compression.compress_pipeline(
        model, X, y, preset["peot_sparsity"], preset["peot_share_bits"], ft_cfg,
        cost_vec=c)
    return model


class Workload:
    name = ""
    # span counts every traced body must show; a miss means a binding was lost
    expected_counts: dict = {}
    # CPU seconds of the frozen baseline's set-up and body, run alongside the
    # code under test on the reference host (medians over seeds 301-305); the
    # gated times are these scaled by the measured CPU-time ratios
    ref_setup_s: float
    ref_body_s: float

    def __init__(self, p):
        self.p = p  # the package's modules, by short name

    def setup(self, seed: int, workdir: Path):
        raise NotImplementedError

    def warmup(self, st) -> None:
        self.body(st)

    def body(self, st):
        raise NotImplementedError

    def inspect(self, st, out) -> Inspection:
        raise NotImplementedError


# ---------------------------------------------------------------------------


class ReportFinger(Workload):
    name = "report-finger"
    expected_counts = {"evaluation.report": 1, "tree.train": 20,
                       "boosting.train_gbt": 50}

    ref_setup_s = 0.578
    ref_body_s = 15.1

    def setup(self, seed, workdir):
        rec = self.p.synth.synth_recording("finger", REPORT_WINDOWS, seed)
        _, X, c = featurize(self.p, rec)
        return {"seed": seed, "X": X, "y": rec.labels, "c": c,
                "fingerprint": rec.fingerprint()}

    def warmup(self, st):
        p = self.p
        X, y = st["X"][:200], st["y"][:200]
        cfg = p.evaluation.TASK_BENCHMARK_PRESETS["finger"]["peot_config"]
        p.tree.train(X, y, replace(cfg, epochs=3), cost_vec=st["c"])
        p.boosting.train_gbt_multiclass(X, y, p.boosting.GbtConfig(n_trees=2))

    def body(self, st):
        return self.p.evaluation.benchmark_report(
            st["X"], st["y"], st["c"], k=5, seed=st["seed"],
            fingerprint=st["fingerprint"],
            **self.p.evaluation.TASK_BENCHMARK_PRESETS["finger"])

    def inspect(self, st, report):
        rows = report["methods"]
        problems = [f"method row {m!r} missing" for m in ("gbt", "pegb", "peot")
                    if m not in rows]
        if problems:
            return Inspection(1, problems)
        for key in ("size_norm", "power_norm"):
            if rows["gbt"][key] != 1.0:
                problems.append(f"gbt {key} is {rows['gbt'][key]!r}, not 1.0")
        peot = rows["peot"]
        quality = {"f1_peot": peot["f1_mean"], "power_peot": peot["power_mean"],
                   "f1_gbt": rows["gbt"]["f1_mean"],
                   "power_norm_peot": peot["power_norm"],
                   "size_norm_peot": peot["size_norm"]}
        return Inspection(1, problems, {"report": sha256(canonical(report))}, quality)


class PipelineSeizure(Workload):
    name = "pipeline-seizure"
    expected_counts = {"features.extract": 3, "tree.train": 3}

    ref_setup_s = 0.103
    ref_body_s = 4.28

    def setup(self, seed, workdir):
        # the CLI synthesises the same recording; it is made here too so the
        # container the CLI writes can be checked against it
        ref = self.p.synth.synth_recording("seizure", N_WINDOWS, seed)
        return {"seed": seed, "fingerprint": ref.fingerprint(),
                "workdir": workdir, "runs": 0, "model_digest": None}

    def body(self, st):
        st["runs"] += 1
        d = st["workdir"] / f"pipeline-{st['runs']}"
        s = str(st["seed"])
        ds = str(d / "dataset.json")
        commands = [
            ["synth", "--task", "seizure", "--out", str(d), "--seed", s],
            ["train", "--dataset", ds, "--out", str(d / "train"), "--seed", s,
             "--model", "peot", "--lam", "0.1", "--warmup-epochs", "10",
             "--class-weight", "balanced"],
            ["compress", "--model", str(d / "train" / "model.json"), "--dataset", ds,
             "--out", str(d / "compress"), "--seed", s],
            ["eval", "--model", str(d / "compress" / "model.json"), "--dataset", ds,
             "--out", str(d / "eval"), "--seed", s],
        ]
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in commands:
                codes.append(self.p.cli.main(argv))
        return {"dir": d, "codes": codes}

    def inspect(self, st, out):
        d = out["dir"]
        try:
            problems = [f"command {i} exited {c}" for i, c in enumerate(out["codes"]) if c != 0]
            if problems:
                return Inspection(len(out["codes"]), problems)
            model_bytes = (d / "compress" / "model.json").read_bytes()
            model_doc = json.loads(model_bytes)
            result = json.loads((d / "eval" / "metrics.json").read_text())
        finally:
            shutil.rmtree(d, ignore_errors=True)
        digest = sha256(model_bytes)
        if st["model_digest"] is None:
            st["model_digest"] = digest
        elif digest != st["model_digest"]:
            problems.append("compressed model.json differs between repeats")
        if model_doc["train"]["dataset_fingerprint"] != st["fingerprint"]:
            problems.append("CLI dataset differs from the in-process synth")
        if result["split"] != "stored-test-fold":
            problems.append(f"eval ran on {result['split']}")
        quality = {"f1_peot": result["metrics"]["f1"],
                   "power_peot": result["deployed_power"]}
        return Inspection(len(out["codes"]), problems,
                          {"model.json": digest, "metrics.json": sha256(canonical(result))},
                          quality)


class StreamSeizure(Workload):
    name = "stream-seizure"
    expected_counts = {"features.extract": STREAM_WINDOWS, "tree.predict": STREAM_WINDOWS,
                       "cost.deployed_power": STREAM_WINDOWS}

    ref_setup_s = 1.95
    ref_body_s = 1.68

    def setup(self, seed, workdir):
        p = self.p
        rec = p.synth.synth_recording("seizure", N_WINDOWS, seed)
        spec, X, c = featurize(p, rec)
        model = train_preset(p, "seizure", X, rec.labels, c, seed)
        stream = p.synth.synth_recording("seizure", STREAM_WINDOWS, sub_seed(seed, 1))
        return {"model": model, "spec": spec, "c": c, "stream": stream, "digest": None}

    def body(self, st):
        tree, spec, c, stream = st["model"], st["spec"], st["c"], st["stream"]
        n = stream.n_windows
        rows = np.empty((n, spec.n_features))
        labels = np.empty(n, dtype=np.int64)
        powers = np.empty(n)
        lat = np.empty(n)  # CPU time, so that a process sharing the CPU is not counted
        for i in range(n):
            t0 = process_time()
            rows[i], labels[i], powers[i] = deploy_window(self.p, tree, spec, c,
                                                          stream.windows[i], stream.fs)
            lat[i] = process_time() - t0
        return {"rows": rows, "labels": labels, "powers": powers, "lat": lat}

    def inspect(self, st, out):
        p, tree, c = self.p, st["model"], st["c"]
        labels, rows = out["labels"], out["rows"]
        batch = tree.predict(rows)
        problems = [f"window {i}: label {labels[i]} != batch {batch[i]}"
                    for i in np.flatnonzero(labels != batch)]
        mean_power = float(np.mean(out["powers"]))
        batch_power = p.cost.deployed_power(tree, rows, c)
        if not np.isclose(mean_power, batch_power, rtol=RTOL_POWER, atol=0.0):
            problems.append(f"mean window power {mean_power!r} != batch {batch_power!r}")
        digests = {"labels": sha256(labels.astype("<i8").tobytes()),
                   "model": sha256(p.serialize.dumps_canonical(tree.to_doc()).encode())}
        if st["digest"] is None:
            st["digest"] = digests["labels"]
        elif digests["labels"] != st["digest"]:
            problems.append("labels differ between passes")
        f1 = p.evaluation.compute_metrics(st["stream"].labels, labels).f1
        quality = {"f1_peot": f1, "power_peot": mean_power}
        return Inspection(labels.size, problems, digests, quality)


def load(package: str) -> dict:
    """The workloads, by name, bound to the modules of ``package``."""
    p = SimpleNamespace(**{m: importlib.import_module(f"{package}.{m}") for m in MODULES})
    return {w.name: w for w in (cls(p) for cls in (ReportFinger, PipelineSeizure,
                                                   StreamSeizure))}
