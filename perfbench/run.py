"""Run one peot benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload stream-seizure --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the package is imported from ``./src``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the gated end-to-end ones; with ``--trace 1`` the run
alternates untraced and traced bodies and reports the per-layer metrics and
the tracing overhead.  Either way each step runs alongside the frozen
baseline (see ``pairing.py``).  The line before it carries the environment, the body
times, the output digests and the quality numbers; the same document is
written under ``.perfbench/results/``.
"""

import os

# BLAS is pinned to one thread before numpy is imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

sys.path.insert(0, str(Path(__file__).resolve().parent))
import environment  # noqa: E402
import pairing  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
from pairing import cpu_now  # noqa: E402

BENCHMARK = ROOT / "BENCHMARK.json"

SETUP_REPS = 3
MIN_BODIES = 1


def import_peot():
    """Import peot from this checkout's sources, never from site-packages."""
    if not (SRC / "peot" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package sources at {SRC / 'peot'}")
    sys.path.insert(0, str(SRC))
    import peot
    if Path(peot.__file__).resolve().parent != (SRC / "peot").resolve():
        raise SystemExit(f"perfbench: imported peot from {peot.__file__}, not {SRC}")


class Loop:
    """Closed loop of bodies for a fixed time budget, with untimed checks.

    The baseline runs each body alongside, and the ratio of the two CPU
    times is kept per body.
    """

    def __init__(self, wl, state, base):
        self.wl, self.state, self.base = wl, state, base
        self.wall_s, self.cpu_s, self.base_cpu_s, self.cpu_ratios = [], [], [], []
        self.latencies = []
        self.attempted = self.failed = 0
        self.problems, self.digests, self.quality = [], {}, {}
        self.base_outputs = {}

    def run(self, seconds):
        elapsed = last = 0.0
        runs = 0
        while runs < MIN_BODIES or elapsed + last <= seconds:
            runs += 1
            last = self.once()
            elapsed += last
        return self

    def once(self, tracer=None) -> float:
        """Run, time and inspect one body; returns the wall time until both
        it and its baseline twin ended."""
        self.base.start("body")
        t0, c0 = perf_counter(), cpu_now()
        try:
            if tracer is not None:
                tracer.recording = True
                idx = tracer.open(tracer.name_for(spans.BODY))
            try:
                out = self.wl.body(self.state)
            finally:
                if tracer is not None:
                    tracer.close(idx)
                    tracer.recording = False
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.base.result()
            self.attempted += 1
            self.failed += 1
            self.problems.append("body raised")
            return perf_counter() - t0
        cpu = cpu_now() - c0
        base_cpu, self.base_outputs = self.base.result()
        took = perf_counter() - t0
        self.wall_s.append(took)
        self.cpu_s.append(cpu)
        self.base_cpu_s.append(base_cpu)
        self.cpu_ratios.append(cpu / base_cpu)
        self.inspect(out)
        return took

    def inspect(self, out):
        try:
            ins = self.wl.inspect(self.state, out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.attempted += 1
            self.failed += 1
            self.problems.append("inspect raised")
            return
        self.attempted += ins.ops
        self.failed += min(len(ins.problems), ins.ops)
        self.problems.extend(ins.problems[:20])
        self.digests, self.quality = ins.digests, ins.quality
        lat = out.get("lat") if isinstance(out, dict) else None
        if lat is not None:
            self.latencies.extend(lat.tolist())


def paired_setup(wl, base, seed, workdir, reps):
    """Set up ``reps`` times alongside the baseline; returns the state, the
    ratios of the two set-ups' CPU times and the baseline's CPU times."""
    ratios, base_cpus = [], []
    for _ in range(reps):
        base.start("setup")
        c0 = cpu_now()
        state = wl.setup(seed, workdir)
        cpu = cpu_now() - c0
        base_cpu, _ = base.result()
        ratios.append(cpu / base_cpu)
        base_cpus.append(base_cpu)
    base.start("warmup")
    wl.warmup(state)
    base.result()
    return state, ratios, base_cpus


def end_to_end(wl, loop, setup_ratios):
    """The gated metrics; the timings only if some body succeeded."""
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": stats.median(setup_ratios) * wl.ref_setup_s,
        "peak_rss_mb": peak_kib / 1024.0,
        "ok_rate": (loop.attempted - loop.failed) / loop.attempted,
    }
    if loop.cpu_ratios:
        metrics["body_s"] = stats.median(loop.cpu_ratios) * wl.ref_body_s
    return metrics


def traced(wl, state, base, seconds):
    """Per-layer metrics, tracing overhead and the span self-check.

    Untraced and traced bodies alternate, the wrappers installed only for
    the traced one; each runs alongside the baseline, like a gated body.
    Pairs run for twice the time budget, at least one pair.  Span times and
    window latencies are CPU times, rescaled to the reference host's speed
    by the baseline's body times in this run.
    """
    plain, loop = Loop(wl, state, base), Loop(wl, state, base)
    tracer = spans.Tracer()
    elapsed = pair = 0.0
    pairs = 0
    while pairs == 0 or elapsed + pair <= 2 * seconds:
        pairs += 1
        pair = plain.once()
        undo = spans.install(tracer)
        try:
            pair += loop.once(tracer)
        finally:
            spans.uninstall(undo)
        elapsed += pair
    counts = spans.counts_per_body(tracer)
    mismatches = []
    for b, got in enumerate(counts):
        for name, want in wl.expected_counts.items():
            if got.get(name, 0) != want:
                mismatches.append(f"body {b}: {got.get(name, 0)} {name} spans, expected {want}")
    if not (plain.cpu_ratios and loop.cpu_ratios):
        return loop, plain, {}, counts, mismatches
    to_ref = wl.ref_body_s / stats.median(plain.base_cpu_s + loop.base_cpu_s)
    layers = spans.layer_metrics(tracer, to_ref)
    untraced, traced_ = stats.median(plain.cpu_ratios), stats.median(loop.cpu_ratios)
    layers["trace.overhead_s"] = (traced_ - untraced) * wl.ref_body_s
    layers["trace.overhead_frac"] = traced_ / untraced - 1.0
    layers["trace.spans_per_body"] = len(tracer) / len(loop.cpu_s)
    for p in (50, 99):
        # untraced per-window times; 0 where the body is no deployment loop
        ms = stats.percentile(plain.latencies, p) if plain.latencies else 0.0
        if ms is None:
            raise RuntimeError(f"{len(plain.latencies)} windows cannot give p{p}")
        layers[f"deploy.window_p{p}_ms"] = ms * to_ref * 1e3
    return loop, plain, layers, counts, mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a termination request unwinds like an error, so the baseline process is
    # killed and waited for and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    units = stats.declared_units(BENCHMARK)
    import_peot()
    import workloads
    catalogue = workloads.load("peot")
    if args.workload not in catalogue:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(catalogue)}")
    wl = catalogue[args.workload]
    workdir = OUT_DIR / f"work-{os.getpid()}"
    (workdir / "current").mkdir(parents=True, exist_ok=True)
    extra = {}
    cpu = min(os.sched_getaffinity(0))
    try:
        with pairing.Baseline(wl.name, args.seed, workdir / "baseline", cpu) as base:
            pairing.pin(cpu)
            state, setup_ratios, base_setup = paired_setup(
                wl, base, args.seed, workdir / "current", 1 if args.trace else SETUP_REPS)
            if args.trace:
                loop, plain, metrics, counts, mismatches = traced(wl, state, base, args.seconds)
            else:
                loop = Loop(wl, state, base).run(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        # the untraced bodies are checked as well
        loop.attempted += plain.attempted
        loop.failed += plain.failed
        loop.problems.extend(plain.problems + mismatches)
        extra.update(untraced_cpu_ratios=plain.cpu_ratios, traced_cpu_ratios=loop.cpu_ratios,
                     span_counts=counts, span_check=mismatches)
    else:
        metrics = end_to_end(wl, loop, setup_ratios)
        mismatches = []
        extra.update(setup_cpu_ratios=setup_ratios, baseline_setup_cpu_s=base_setup,
                     body_cpu_ratios=loop.cpu_ratios, baseline_body_cpu_s=loop.base_cpu_s,
                     baseline=loop.base_outputs,
                     digests_match_baseline=loop.digests == loop.base_outputs.get("digests"))

    correct = loop.failed == 0 and not mismatches and bool(loop.cpu_s)
    result = {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": stats.with_units(metrics, units[args.trace], complete=correct),
    }
    detail = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment.describe(ROOT),
        "cpu": cpu, "bodies": len(loop.cpu_s), "body_cpu_s": loop.cpu_s,
        "body_pair_wall_s": loop.wall_s,
        "digests": loop.digests, "quality": loop.quality,
        "problems": loop.problems[:50], **extra,
    }
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps({"result": result, "detail": detail},
                                           indent=1, sort_keys=True) + "\n")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
