"""Alternating parent/change pairs of gated benchmark runs.

    python3 tools/pairs.py --workload stream-seizure --seed 7 --pairs 10 --parent HEAD~1
    python3 tools/pairs.py --workload report-finger,pipeline-seizure,stream-seizure \
        --seed 7 --parent HEAD~1

``--workload`` takes one workload or a comma-separated list.  The pairs of
each workload run in turn, all against one extraction of the parent.  Each
workload's report starts with a ``workload <name>`` line, printed before
its first run, and is complete as soon as its pairs are done.

Each pair runs ``perfbench/run.py --workload W --seed S --trace 0`` once on
the working tree (the change) and once on the parent rev's committed files,
extracted from ``git archive`` into a temporary directory, so nothing under
``.git`` is written.  Every run lasts the ``run_seconds`` that
``BENCHMARK.json`` sets.  Even pairs run the parent first, odd pairs the
change, so neither side always meets the host in the same phase; the runs
go one at a time, never two benchmark processes at once.  A parent rev that
is the HEAD of a clean working tree is refused, since the change would be
compared with itself.

It prints each pair's ``setup_s``, ``body_s`` and ``peak_rss_mb`` (parent /
change), then the medians, the number of pairs the change wins (lower is
better for all three), the parent's ``body_s`` quartile distance and whether
every run gave the same output digests.  Then, for every ``end_to_end``
metric of ``BENCHMARK.json``, it prints both medians and one verdict: gain,
worse, unresolved or unchanged (see ``verdicts``).  A run that fails stops
the pairs with its pair number, side, exit code and the end of its standard
error.  The temporary directory is removed on every way out, including an
error, a failed run, Ctrl-C or SIGTERM.
"""

import argparse
import contextlib
import io
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("setup_s", "body_s", "peak_rss_mb")
SIDES = ("parent", "change")
STDERR_LINES = 20  # of a failed run's standard error, in its report


class RunFailed(Exception):
    """A benchmark run exited non-zero."""


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One gated run in ``checkout``: its metrics, digests and verdict, read
    from the last two lines of its standard output.  A run that exits
    non-zero raises ``RunFailed`` with its exit code and the last
    ``STDERR_LINES`` lines of its standard error."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        tail = "\n".join(proc.stderr.strip().splitlines()[-STDERR_LINES:])
        raise RunFailed(f"exit code {proc.returncode}; the end of its stderr:\n{tail}")
    *_, detail, result = proc.stdout.strip().splitlines()
    detail, result = json.loads(detail), json.loads(result)
    return {"metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "digests": detail["digests"], "correct": result["correct"]}


def run_pairs(n: int, run: dict) -> list[dict]:
    """``n`` pairs; ``run[side]()`` makes one run of that side.  Pair i runs
    the parent first when i is even.  A failed run stops the pairs with
    ``SystemExit`` naming its pair number (from 1) and side."""
    pairs = []
    for i in range(n):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"first": order[0]}
        for side in order:
            try:
                pair[side] = run[side]()
            except RunFailed as exc:
                raise SystemExit(f"pair {i + 1}: the {side} run failed, {exc}") from exc
        pairs.append(pair)
    return pairs


def _quartile_distance(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(pairs: list[dict]) -> list[str]:
    """The report lines: one per pair, then medians, wins and digests."""
    lines = ["pair  first   " + "  ".join(f"{m} (parent / change)" for m in METRICS)]
    for i, pair in enumerate(pairs, 1):
        cells = [f"{pair['parent']['metrics'][m]:.4g} / {pair['change']['metrics'][m]:.4g}"
                 for m in METRICS]
        lines.append(f"{i:<5} {pair['first']:<7} " + "  ".join(cells))
    values = {side: {m: [p[side]["metrics"][m] for p in pairs] for m in METRICS}
              for side in SIDES}
    lines.append("median  " + "  ".join(
        f"{m} {statistics.median(values['parent'][m]):.4g} / "
        f"{statistics.median(values['change'][m]):.4g}" for m in METRICS))
    lines.append("change wins  " + "  ".join(
        f"{m} {sum(c < p for p, c in zip(values['parent'][m], values['change'][m]))}"
        f"/{len(pairs)}" for m in METRICS))
    lines.append(f"parent body_s quartile distance "
                 f"{_quartile_distance(values['parent']['body_s']):.4g}")
    runs = [p[side] for p in pairs for side in SIDES]
    same = all(r["digests"] == runs[0]["digests"] for r in runs)
    lines.append(f"digests equal: {'yes' if same else 'no'}")
    lines.append(f"every run correct: {'yes' if all(r['correct'] for r in runs) else 'no'}")
    return lines


def verdicts(pairs: list[dict], end_to_end: list[dict]) -> list[str]:
    """One line per gated metric: both medians and a verdict, judged with the
    metric's ``better`` direction and relative ``bound``.

    - gain: the change is better in at least 9 of 10 pairs, and its median
      beats the parent's by more than the parent's quartile distance;
    - worse: the change's median is worse than the parent's by more than
      ``bound`` x the parent median;
    - unresolved: the parent's quartile distance is wider than that bound,
      and not every change run beats every parent run;
    - unchanged: none of these.
    """
    lines = []
    for metric in end_to_end:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        # in "cost" units, lower is better whatever the metric's direction
        cost = {side: [sign * p[side]["metrics"][name] for p in pairs] for side in SIDES}
        med = {side: statistics.median(cost[side]) for side in SIDES}
        spread = _quartile_distance(cost["parent"])
        allowed = bound * abs(med["parent"])
        wins = sum(c < p for p, c in zip(cost["parent"], cost["change"]))
        if wins >= 0.9 * len(pairs) and med["parent"] - med["change"] > spread:
            verdict = "gain"
        elif med["change"] - med["parent"] > allowed:
            verdict = "worse"
        elif spread > allowed and not max(cost["change"]) < min(cost["parent"]):
            verdict = "unresolved"
        else:
            verdict = "unchanged"
        lines.append(f"{name} ({metric['better']} is better, bound {bound:g}): "
                     f"median {sign * med['parent']:.4g} / {sign * med['change']:.4g} "
                     f"{verdict}")
    return lines


@contextlib.contextmanager
def parent_checkout(rev: str, repo: Path = ROOT):
    """The files ``rev`` commits, from ``git archive``, in a temporary
    directory that is removed again however the block ends."""
    tmp = Path(tempfile.mkdtemp(prefix="peot-pairs-"))
    path = tmp / "parent"
    try:
        archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=repo,
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(path, filter="data")
        yield path
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def workload_list(text: str) -> list[str]:
    """The workloads of a comma-separated ``--workload``, in order; an empty
    or repeated name is an error."""
    names = [name.strip() for name in text.split(",")]
    if not all(names) or len(set(names)) != len(names):
        raise argparse.ArgumentTypeError(
            f"expected distinct comma-separated workload names, got {text!r}")
    return names


def pair_count(text: str) -> int:
    """``--pairs``: a whole number of pairs, at least one, so that every
    summary has runs to take medians of."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected at least 1 pair, got {text!r}")
    return n


def check_differs(rev: str, repo: Path = ROOT) -> None:
    """Fail when the working tree is clean and ``rev`` is its HEAD, and with
    git's first line of error when ``repo`` is no git checkout or lacks
    ``rev``."""
    def git(*args):
        run = subprocess.run(["git", *args], cwd=repo, capture_output=True, text=True)
        if run.returncode:
            reason = run.stderr.strip().partition("\n")[0]
            raise SystemExit(f"git {args[0]} failed in {repo}: {reason}")
        return run.stdout.strip()
    if git("rev-parse", f"{rev}^{{commit}}") == git("rev-parse", "HEAD") \
            and not git("status", "--porcelain"):
        raise SystemExit(f"--parent {rev} is the clean working tree's HEAD; "
                         "the pairs would compare the change with itself")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, type=workload_list,
                        help="a workload name or a comma-separated list")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pairs", type=pair_count, default=10)
    parser.add_argument("--parent", required=True, help="git rev to compare against")
    args = parser.parse_args(argv)
    check_differs(args.parent)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    # SIGTERM unwinds like Ctrl-C, so the parent's directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    with parent_checkout(args.parent) as parent:
        checkouts = {"parent": parent, "change": ROOT}
        for i, workload in enumerate(args.workload):
            # the header comes first, so that a failed run follows its workload's name
            print("\n" * (i > 0) + f"workload {workload}", flush=True)
            pairs = run_pairs(args.pairs, {
                side: lambda path=path, w=workload: run_bench(path, w, args.seed, seconds)
                for side, path in checkouts.items()})
            print("\n".join(summarize(pairs) + verdicts(pairs, bench["end_to_end"])),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
