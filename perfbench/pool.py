"""Lifecycle of the ``repro-worker`` processes the pooled workload drives.

Workers are spawned once per benchmark run with ``--serve-forever`` so
that spawning stays out of every timed pass; each pass connects a fresh
:class:`~repro.engine.remote.RemoteBackend`, and a worker keeps no
state between connections.  :meth:`WorkerPool.close` reaps every
worker on success, error and interrupt.  A worker also dies with the
benchmark process itself (``PR_SET_PDEATHSIG``), so even a benchmark
killed outright leaves no orphan listening on a port.
"""

from __future__ import annotations

import os
import re
import select
import subprocess
import sys
import time

_ANNOUNCE = re.compile(r"^repro-worker listening on (\S+):(\d+)$")

# How long a freshly spawned worker may take to announce its address.
_START_TIMEOUT_S = 60.0

# Runs in the fresh worker interpreter before ``repro`` is imported:
# ask the kernel to SIGTERM the worker when its parent dies, and exit
# at once if the parent is already gone.  Then start the stock
# ``repro-worker`` entry point with the remaining arguments.
_LAUNCH = """\
import ctypes, os, runpy, signal, sys
parent = int(sys.argv[1])
try:
    ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGTERM)
except (OSError, AttributeError):
    pass
if os.getppid() != parent:
    sys.exit(1)
sys.argv = ["repro-worker"] + sys.argv[2:]
runpy.run_module("repro.engine.remote", run_name="__main__", alter_sys=True)
"""


def parse_announce(line: str) -> str:
    """``host:port`` from a worker's ``listening on`` announcement."""
    match = _ANNOUNCE.match(line.strip())
    if match is None:
        raise RuntimeError(f"unexpected repro-worker announcement {line!r}")
    return f"{match.group(1)}:{match.group(2)}"


class WorkerPool:
    """``count`` single-slot ``repro-worker`` processes on loopback."""

    def __init__(self, count: int, src_dir: str):
        self.count = count
        self.src_dir = src_dir
        self.procs: list[subprocess.Popen] = []
        self.addrs: list[str] = []
        # Workers :meth:`close` found already dead.
        self.dead_at_close = 0

    def __enter__(self) -> "WorkerPool":
        try:
            self.start()
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def start(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.src_dir, env.get("PYTHONPATH")) if p
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _LAUNCH, str(os.getpid()),
                 "--listen", "127.0.0.1:0", "--serve-forever", "--slots", "1"],
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                env=env, text=True, start_new_session=True,
            )
            for _ in range(self.count - len(self.procs))
        ]
        self.procs.extend(procs)
        deadline = time.monotonic() + _START_TIMEOUT_S
        for proc in procs:
            self.addrs.append(parse_announce(self._first_line(proc, deadline)))

    @staticmethod
    def _first_line(proc: subprocess.Popen, deadline: float) -> str:
        remaining = max(0.0, deadline - time.monotonic())
        ready, _, _ = select.select([proc.stdout], [], [], remaining)
        if not ready:
            raise RuntimeError("repro-worker did not announce its address")
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"repro-worker exited with code {proc.wait()} before "
                "announcing its address"
            )
        return line

    def replace_dead(self) -> int:
        """Replace every worker that has died, so the next pass starts
        with a full pool; returns how many were replaced."""
        dead = [i for i, proc in enumerate(self.procs) if proc.poll() is not None]
        for i in reversed(dead):
            self._reap(self.procs.pop(i))
            self.addrs.pop(i)
        if dead:
            self.start()
        return len(dead)

    def peak_rss_mb(self) -> float:
        """Summed peak resident set (``VmHWM``) of the live workers, or
        0 where ``/proc`` does not report it."""
        total_kib = 0
        for proc in self.procs:
            try:
                with open(f"/proc/{proc.pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total_kib += int(line.split()[1])
            except OSError:
                pass
        return total_kib / 1024.0

    def close(self) -> None:
        procs, self.procs, self.addrs = self.procs, [], []
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
            else:
                self.dead_at_close += 1
        for proc in procs:
            self._reap(proc)

    @staticmethod
    def _reap(proc: subprocess.Popen) -> None:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
