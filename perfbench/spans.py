"""In-memory span tracing of the peot layers, applied from outside the package.

The tracer wraps public functions of ``src/peot`` at every module binding
that refers to them (a function imported by name into another module is a
second binding), records one span per call and restores the originals when
uninstalled.  Spans are kept in compact arrays and summarised after the run;
nothing is written while the workload body executes.
"""

import functools
import math
import os
import sys
import time
from array import array
from collections import defaultdict

NO_PARENT = -1


class Tracer:
    """Span store: name, start, end and parent index of every traced call.

    Times come from ``clock``, by default this process's CPU time, so that a
    process sharing the CPU is not counted.
    """

    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack = [NO_PARENT]
        self.recording = False

    def name_for(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    def span_name(self, idx: int) -> str:
        return self.names[self.name_id[idx]]

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its children.

        Spans come from nested open/close calls, so children never overlap
        each other and never leave their parent."""
        own = [self.end[i] - self.start[i] for i in range(len(self))]
        for idx, par in enumerate(self.parent):
            if par != NO_PARENT:
                own[par] -= self.end[idx] - self.start[idx]
        return own

    def root_of(self, idx: int, name: str) -> int:
        """Nearest ancestor-or-self span with the given name, or NO_PARENT."""
        nid = self._name_ids.get(name)
        while idx != NO_PARENT:
            if self.name_id[idx] == nid:
                return idx
            idx = self.parent[idx]
        return NO_PARENT


def _wrap(tracer: Tracer, name: str, fn, hook):
    nid = tracer.name_for(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(tracer.counters, args, kwargs, result)
        return result

    return traced


# ---------------------------------------------------------------------------
# counters taken at the traced boundaries


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None or len(shape) < 2:
        return 1
    return int(shape[0])


def _count_synth(c, args, kwargs, result):
    c["synth.windows"] += result.n_windows


def _count_extract(c, args, kwargs, result):
    c["features.windows"] += result.shape[0]


def _count_train(c, args, kwargs, result):
    X = args[0]
    config = args[2] if len(args) > 2 else kwargs["config"]
    c["tree.steps"] += config.epochs * math.ceil(_rows(X) / config.batch_size)


def _count_predict(c, args, kwargs, result):
    c["tree.predict_rows"] += _rows(args[1])


def _count_deployed_power(c, args, kwargs, result):
    """Share of feature columns any node of the deployed tree reads."""
    tree = args[0]
    threshold = sys.modules["peot.cost"].DEFAULT_PRUNE_THRESHOLD
    norms = abs(tree.W1).sum(axis=1)  # (nodes, features) column L1
    used = (norms > threshold).any(axis=0).sum()
    c["features.used_frac_sum"] += used / tree.n_features


def _count_gbt(c, args, kwargs, result):
    c["boosting.nodes"] += sum(t.n_nodes for t in result.trees)


def _count_compress(c, args, kwargs, result):
    c["compression.ratio_sum"] += result[1]["ratio"]


def _count_report(c, args, kwargs, result):
    c["evaluation.folds"] += result["k"]


def _path_arg(args, kwargs, pos):
    return args[pos] if len(args) > pos else kwargs["path"]


def _count_read(c, args, kwargs, result):
    c["serialize.bytes_read"] += os.path.getsize(_path_arg(args, kwargs, 0))


def _count_write(c, args, kwargs, result):
    c["serialize.bytes_written"] += os.path.getsize(_path_arg(args, kwargs, 1))


# (span name, module, attribute path, counter hook).  The attribute path is
# looked up in the defining module; every other binding of the same object
# in a peot module is found by identity and wrapped too.
TARGETS = (
    ("synth.recording", "peot.synth", "synth_recording", _count_synth),
    ("data.load_container", "peot.data", "load_container", None),
    ("data.save_container", "peot.data", "save_container", None),
    ("serialize.read", "peot.serialize", "read_document", _count_read),
    ("serialize.write", "peot.serialize", "write_document", _count_write),
    ("features.extract", "peot.features", "extract_features", _count_extract),
    ("features.line_length", "peot.features", "line_length", None),
    ("features.variance", "peot.features", "variance", None),
    ("features.band_power", "peot.features", "band_power", None),
    ("tree.train", "peot.tree", "train", _count_train),
    ("tree.forward", "peot.tree", "ObliqueTree.forward", None),
    ("tree.predict", "peot.tree", "ObliqueTree.predict", _count_predict),
    ("cost.deployed_power", "peot.cost", "deployed_power", _count_deployed_power),
    ("boosting.train_gbt", "peot.boosting", "train_gbt", _count_gbt),
    ("boosting.predict", "peot.boosting", "predict_labels", None),
    ("boosting.model_power", "peot.boosting", "model_power", None),
    ("compression.pipeline", "peot.compression", "compress_pipeline", _count_compress),
    ("compression.prune", "peot.compression", "prune", None),
    ("compression.share", "peot.compression", "share", None),
    ("evaluation.report", "peot.evaluation", "benchmark_report", _count_report),
    ("cli.synth", "peot.cli", "cmd_synth", None),
    ("cli.train", "peot.cli", "cmd_train", None),
    ("cli.compress", "peot.cli", "cmd_compress", None),
    ("cli.eval", "peot.cli", "cmd_eval", None),
)


def install(tracer: Tracer) -> list:
    """Wrap every binding of every target; returns the undo list."""
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "peot" or n.startswith("peot."))]
    undo = []
    for name, module_name, attr_path, hook in TARGETS:
        owner = sys.modules[module_name]
        *outer, attr = attr_path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapped = _wrap(tracer, name, original, hook)
        bindings = [(owner, attr)]
        if not outer:
            bindings += [(m, a) for m in modules for a, v in vars(m).items()
                         if v is original and m is not owner]
        for holder, a in bindings:
            undo.append((holder, a, getattr(holder, a)))
            setattr(holder, a, wrapped)
    return undo


def uninstall(undo: list) -> None:
    for holder, attr, original in reversed(undo):
        setattr(holder, attr, original)


# ---------------------------------------------------------------------------
# per-layer summary

BODY = "bench.body"


def _safe(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, scale: float = 1.0) -> dict:
    """Per-layer metrics averaged per workload body, from spans and counters.

    Every span time is multiplied by ``scale``."""
    n = len(tracer)
    dur = [(tracer.end[i] - tracer.start[i]) * scale for i in range(n)]
    own = [t * scale for t in tracer.self_times()]
    total = defaultdict(float)
    self_total = defaultdict(float)
    calls = defaultdict(int)
    fwd_in_train = 0.0
    for i in range(n):
        name = tracer.span_name(i)
        total[name] += dur[i]
        self_total[name] += own[i]
        calls[name] += 1
        if name == "tree.forward" and tracer.root_of(tracer.parent[i], "tree.train") != NO_PARENT:
            fwd_in_train += dur[i]
    bodies = calls[BODY]
    c = tracer.counters

    def per_body(v):
        return _safe(v, bodies)

    def us_per_call(name):
        return _safe(total[name], calls[name]) * 1e6

    steps = c["tree.steps"]
    return {
        "features.extract_s": per_body(total["features.extract"]),
        "features.extract_calls": per_body(calls["features.extract"]),
        "features.windows_per_s": _safe(c["features.windows"], total["features.extract"]),
        "features.band_power_us": us_per_call("features.band_power"),
        "features.line_length_us": us_per_call("features.line_length"),
        "features.variance_us": us_per_call("features.variance"),
        "features.used_frac": _safe(c["features.used_frac_sum"], calls["cost.deployed_power"]),
        "tree.train_s": per_body(total["tree.train"]),
        "tree.train_calls": per_body(calls["tree.train"]),
        "tree.train_steps": per_body(steps),
        "tree.step_us": _safe(total["tree.train"], steps) * 1e6,
        "tree.forward_calls": per_body(calls["tree.forward"]),
        "tree.forward_us": us_per_call("tree.forward"),
        "tree.step_other_us": _safe(total["tree.train"] - fwd_in_train, steps) * 1e6,
        "tree.predict_calls": per_body(calls["tree.predict"]),
        "tree.predict_us": us_per_call("tree.predict"),
        "tree.predict_rows_per_s": _safe(c["tree.predict_rows"], total["tree.predict"]),
        "cost.deployed_power_calls": per_body(calls["cost.deployed_power"]),
        "cost.deployed_power_us": us_per_call("cost.deployed_power"),
        "boosting.train_gbt_s": per_body(total["boosting.train_gbt"]),
        "boosting.train_gbt_calls": per_body(calls["boosting.train_gbt"]),
        "boosting.nodes_built": per_body(c["boosting.nodes"]),
        "boosting.us_per_node": _safe(total["boosting.train_gbt"], c["boosting.nodes"]) * 1e6,
        "boosting.predict_s": per_body(total["boosting.predict"]),
        "boosting.model_power_s": per_body(total["boosting.model_power"]),
        "compression.pipeline_self_s": per_body(self_total["compression.pipeline"]),
        "compression.prune_s": per_body(total["compression.prune"]),
        "compression.share_s": per_body(total["compression.share"]),
        "compression.ratio": _safe(c["compression.ratio_sum"], calls["compression.pipeline"]),
        "evaluation.report_self_s": per_body(self_total["evaluation.report"]),
        "evaluation.folds": per_body(c["evaluation.folds"]),
        "data.load_container_s": per_body(total["data.load_container"]),
        "data.save_container_s": per_body(total["data.save_container"]),
        "serialize.bytes_read": per_body(c["serialize.bytes_read"]),
        "serialize.bytes_written": per_body(c["serialize.bytes_written"]),
        "serialize.read_mb_per_s": _safe(c["serialize.bytes_read"], total["serialize.read"]) / 1e6,
        "synth.recording_s": per_body(total["synth.recording"]),
        "synth.windows_per_s": _safe(c["synth.windows"], total["synth.recording"]),
        "cli.synth_s": per_body(total["cli.synth"]),
        "cli.train_s": per_body(total["cli.train"]),
        "cli.compress_s": per_body(total["cli.compress"]),
        "cli.eval_s": per_body(total["cli.eval"]),
        "cli.self_s": per_body(sum(self_total[k] for k in
                                   ("cli.synth", "cli.train", "cli.compress", "cli.eval"))),
    }


def counts_per_body(tracer: Tracer) -> list[dict]:
    """Span counts by name inside each traced body, in body order."""
    bodies: dict[int, dict] = {}
    for i in range(len(tracer)):
        if tracer.span_name(i) == BODY:
            bodies[i] = defaultdict(int)
    for i in range(len(tracer)):
        root = tracer.root_of(tracer.parent[i], BODY)
        if root != NO_PARENT:
            bodies[root][tracer.span_name(i)] += 1
    return [dict(bodies[k]) for k in sorted(bodies)]
