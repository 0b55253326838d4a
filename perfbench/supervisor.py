"""One worker process at a time, with a deadline per request.

The client sends a request and waits at most `deadline_s` for the reply.
A worker that misses the deadline is killed, the request counts as
failed, and a fresh worker is started in its place; so is one that dies
or reports a fatal error (the address-space cap).  Every process started
here is joined before the call that ended it returns.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from multiprocessing import resource_tracker

FAILED = "failed"
# A worker not ready this long after its start is given up.  The slowest
# set-up here (prime_pipeline's 4e7 sieve) takes about 3 s.
SETUP_TIMEOUT_S = 150.0


class SetupError(RuntimeError):
    """The worker did not become ready."""


class Worker:
    """`target(conn, incarnation, *args)` runs in a spawned process; it
    sends ("ready", info) once set up, then answers ("req", rid, request)
    with ("reply", dict) and returns on ("stop",)."""

    def __init__(self, target, args: tuple, deadline_s: float):
        self._ctx = mp.get_context("spawn")
        self._target, self._args = target, args
        self.deadline_s = deadline_s
        self.incarnation = -1
        self._proc = self._conn = None

    def start(self) -> tuple[float, dict]:
        """Start a fresh worker; returns (seconds until ready, ready info)."""
        self.incarnation += 1
        conn, child = self._ctx.Pipe()
        proc = self._ctx.Process(target=self._target,
                                 args=(child, self.incarnation) + self._args,
                                 daemon=True)
        t0 = time.perf_counter()
        proc.start()
        child.close()
        self._proc, self._conn = proc, conn
        msg = None
        try:
            if conn.poll(SETUP_TIMEOUT_S):
                msg = conn.recv()
        except EOFError:
            pass
        setup_s = time.perf_counter() - t0
        if msg is None or msg[0] != "ready":
            self._kill(grace_s=0.0)
            raise SetupError(msg[1] if msg else "worker exited during set-up"
                             f" or took over {SETUP_TIMEOUT_S:g} s")
        return setup_s, msg[1]

    def call(self, rid, request: dict) -> dict:
        """The worker's reply, or a failure record.  After a kill, a death
        or a fatal reply the worker is restarted; `restart_s` and
        `restart_info` then describe the new one."""
        t0 = time.perf_counter()
        self._conn.send(("req", rid, request))
        lost = True
        if self._conn.poll(self.deadline_s):
            try:
                reply = self._conn.recv()[1]
                lost = reply.get("fatal", False)
            except EOFError:
                reply = {"status": FAILED, "detail": "worker died",
                         "latency": time.perf_counter() - t0}
        else:
            reply = {"status": FAILED, "latency": time.perf_counter() - t0,
                     "detail": f"killed at the {self.deadline_s:g} s deadline"}
        reply.setdefault("spans", [])
        if lost:
            self._kill(grace_s=0.0)
            reply["restart_s"], reply["restart_info"] = self.start()
        return reply

    def stop(self) -> None:
        if self._proc is not None and self._proc.is_alive():
            try:
                self._conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        self._kill(grace_s=30.0)

    def _kill(self, grace_s: float) -> None:
        if self._proc is None:
            return
        self._proc.join(timeout=grace_s)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()
        self._conn.close()
        self._proc = self._conn = None


def stop_resource_tracker() -> None:
    """Spawning starts multiprocessing's resource-tracker process; stop it
    and wait for it, so that no process outlives the run."""
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
