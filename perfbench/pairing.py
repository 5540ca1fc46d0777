"""The frozen baseline, run alongside the code under test on the same CPU.

The host this benchmark runs on changes speed by up to 1.7x, in phases from
under a second to tens of minutes, and CPU time slows down with wall time.
So a gated run starts a second process that runs the same workload on
``perfbench/frozen/peot_baseline``, a copy of the package frozen when the
benchmark was defined.  Both processes are pinned to one CPU and are given
each step (set-up, warm-up, body) together, so the scheduler interleaves
them in slices of a few milliseconds and both see the same host speed.  The
ratio of their CPU times is then free of the host's phases; the runner
multiplies it by the baseline's time on the reference host.

The child is a fresh interpreter running this file, started with
``subprocess`` so that no helper process (such as multiprocessing's
resource tracker) outlives the run; it imports the frozen package itself.
Parent and child talk over a socket pair.  The parent waits for the child
to end on every way out: it lets the child finish after a normal exit and
kills it after an exception.  A child whose parent dies is killed by the
kernel (``PR_SET_PDEATHSIG``).
"""

import ctypes
import os
import signal
import socket
import subprocess
import sys
import time
import traceback
from multiprocessing.connection import Connection
from pathlib import Path

FROZEN = Path(__file__).resolve().parent / "frozen"
PACKAGE = "peot_baseline"
PR_SET_PDEATHSIG = 1


def cpu_now() -> float:
    return time.process_time()


def pin(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})


def _serve(conn, name, seed, workdir, cpu):
    """Child loop: run each step the parent names and report its CPU time."""
    ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() == 1:  # the parent died before prctl took effect
        return
    pin(cpu)
    sys.path.insert(0, str(FROZEN))
    import workloads
    wl = workloads.load(PACKAGE)[name]
    state = None
    conn.send("ready")
    while True:
        try:
            step = conn.recv()
        except EOFError:
            return
        if step == "stop":
            return
        try:
            t0 = cpu_now()
            if step == "setup":
                state = wl.setup(seed, workdir)
            elif step == "warmup":
                wl.warmup(state)
            else:
                out = wl.body(state)
            took = cpu_now() - t0
            ins = wl.inspect(state, out) if step == "body" else None
        except Exception:
            conn.send(("error", traceback.format_exc()))
            continue
        conn.send(("ok", took, ins and {"problems": ins.problems[:20],
                                        "digests": ins.digests, "quality": ins.quality}))


class Baseline:
    """Parent-side handle of the baseline process; use as a context manager.

    ``start(step)`` hands the child a step, ``result()`` waits for its CPU
    time and, after a body, its inspection.  A child that fails raises
    ``BaselineError`` in the parent.
    """

    def __init__(self, name, seed, workdir: Path, cpu: int):
        workdir.mkdir(parents=True, exist_ok=True)
        ours, child = socket.socketpair()
        with ours, child:
            # the child's stdout goes to stderr: the parent's stdout carries
            # only its own result lines
            self.proc = subprocess.Popen(
                [sys.executable, __file__, str(child.fileno()), name, str(seed),
                 str(workdir), str(cpu)],
                pass_fds=(child.fileno(),), stdin=subprocess.DEVNULL,
                stdout=sys.stderr.fileno())
            self.conn = Connection(ours.detach())
        # steps start in both processes at once only after the child has
        # imported the frozen package
        try:
            ready = self.conn.recv()
        except EOFError:
            ready = None
        if ready != "ready":
            self.close(kill=True)
            raise BaselineError(f"baseline process did not start (exit code {self.proc.poll()})")

    def start(self, step: str) -> None:
        self.conn.send(step)

    def result(self):
        reply = self.conn.recv()
        if reply[0] == "error":
            raise BaselineError(reply[1])
        return reply[1], reply[2]

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        self.close(kill=exc_type is not None)

    def close(self, kill: bool = False) -> None:
        """Stop the child and wait until it has ended; ``kill`` does not let
        it finish the step it is in."""
        if not kill:
            try:
                self.conn.send("stop")
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                kill = True
        if kill:
            self.proc.kill()
            self.proc.wait()
        self.conn.close()


class BaselineError(RuntimeError):
    """The frozen baseline failed a step; its traceback is the message."""


if __name__ == "__main__":
    fd, name, seed, workdir, cpu = sys.argv[1:]
    _serve(Connection(int(fd)), name, int(seed), Path(workdir), int(cpu))
