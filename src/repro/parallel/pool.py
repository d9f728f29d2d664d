"""Worker pools: serial and process execution of shard ticks.

Both backends expose one surface — ``tick(end, max_statements,
classifier_state) -> Iterator[ShardResult]``, exactly one result per
shard, plus ``close()`` — and both produce identical deltas for the same
seed; only wall-clock behaviour differs.  ``serial`` runs the shards
inline and is the reference every equivalence test compares against.
The process backend keeps one long-lived OS process per shard: shard
state is built inside the child from the picklable payload at startup,
and only commands / per-tick deltas cross the pipe afterwards.

Results are yielded **as each shard finishes** so the service can stamp
every one with its own receipt time (the trace anchors a shard's tick
at receipt minus busy time); the service sorts them by shard index
before anything reaches the merger, so arrival order never reaches
merged output.

Every backend brackets its ``dispatch`` (pushing the tick command out)
and ``wait`` (blocking on shard results) segments on the service's
shared :class:`~repro.parallel.timing.TickPhaseTimer`, so ``repro
profile`` attributes IPC cost per backend without the backends having
to know anything else about profiling.

A shard process that dies mid-protocol (killed, OOMed, segfaulted —
anything that skips its own ``("error", ...)`` report) surfaces as a
:class:`~repro.errors.ShardCrashError` naming the shard and the last
command it was sent; the pool closes its surviving workers before
raising.
"""

from __future__ import annotations

import multiprocessing
from multiprocessing import connection as mp_connection
from typing import Iterator, List, Optional

from repro.errors import ShardCrashError
from repro.parallel.spec import ShardPayload
from repro.parallel.timing import TickPhaseTimer
from repro.parallel.worker import ShardResult, ShardRunner, shard_worker_main


class SerialPool:
    """Shards executed inline, one after another (the baseline).

    Inline execution has no dispatch/wait split: the whole loop counts
    as ``wait`` (the parent is "blocked on shard work" for all of it),
    keeping phase semantics comparable across backends.
    """

    backend = "serial"

    def __init__(
        self,
        payloads: List[ShardPayload],
        timer: Optional[TickPhaseTimer] = None,
    ) -> None:
        self.timer = timer if timer is not None else TickPhaseTimer(enabled=False)
        self.runners = [ShardRunner(payload) for payload in payloads]

    def tick(
        self,
        end: float,
        max_statements: Optional[int],
        classifier_state: Optional[dict],
    ) -> Iterator[ShardResult]:
        with self.timer.phase("dispatch"):
            pass
        for runner in self.runners:
            with self.timer.phase("wait"):
                result = runner.tick(end, max_statements, classifier_state)
            yield result

    def close(self) -> None:
        pass


class ProcessPool:
    """One long-lived process per shard, command/response over a pipe."""

    backend = "process"

    def __init__(
        self,
        payloads: List[ShardPayload],
        timer: Optional[TickPhaseTimer] = None,
    ) -> None:
        self.timer = timer if timer is not None else TickPhaseTimer(enabled=False)
        # ``fork`` is cheap where it exists; ``spawn`` everywhere else.
        method = (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        ctx = multiprocessing.get_context(method)
        self._connections = []
        self._processes = []
        self._shard_indices = [payload.shard_index for payload in payloads]
        self._last_command = "start"
        # Construction is all-or-nothing: a failure after some children
        # have already been spawned must not leak them.
        try:
            for payload in payloads:
                parent_conn, child_conn = ctx.Pipe()
                process = ctx.Process(
                    target=shard_worker_main,
                    args=(child_conn, payload),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self._connections.append(parent_conn)
                self._processes.append(process)
            for shard_index, conn in zip(self._shard_indices, self._connections):
                try:
                    reply = conn.recv()
                except (EOFError, ConnectionError, OSError):
                    raise ShardCrashError(shard_index, self._last_command)
                if reply[0] != "ready":
                    raise RuntimeError(
                        f"shard worker failed to start: {reply[1]}"
                    )
        except BaseException:
            self._reap()
            raise

    def tick(
        self,
        end: float,
        max_statements: Optional[int],
        classifier_state: Optional[dict],
    ) -> Iterator[ShardResult]:
        command = ("tick", end, max_statements, classifier_state)
        self._last_command = "tick"
        with self.timer.phase("dispatch"):
            for shard_index, conn in zip(self._shard_indices, self._connections):
                try:
                    conn.send(command)
                except (BrokenPipeError, ConnectionError, OSError):
                    crash = ShardCrashError(shard_index, self._last_command)
                    self.close()
                    raise crash
        return self._stream_results()

    def _stream_results(self) -> Iterator[ShardResult]:
        """Yield each shard's result as it arrives.

        ``multiprocessing.connection.wait`` multiplexes the pipes, so a
        fast shard's receipt time is not held back behind a slow one.
        """
        #: connection -> shard index, for the shards still to answer.
        pending = dict(zip(self._connections, self._shard_indices))
        while pending:
            with self.timer.phase("wait"):
                ready = mp_connection.wait(list(pending))
            for conn in ready:
                shard_index = pending.pop(conn)
                with self.timer.phase("wait"):
                    try:
                        reply = conn.recv()
                    except (EOFError, ConnectionError, OSError):
                        crash = ShardCrashError(shard_index, self._last_command)
                        self.close()
                        raise crash
                if reply[0] != "ok":
                    self.close()
                    raise RuntimeError(f"shard worker failed:\n{reply[1]}")
                yield reply[1]

    def _reap(self) -> None:
        """Terminate and join every spawned child, then drop the pipes."""
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            process.join(timeout=5.0)
        for conn in self._connections:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        self._connections = []
        self._processes = []

    def close(self) -> None:
        self._last_command = "stop"
        for conn in self._connections:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, ConnectionError, OSError):
                pass
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(timeout=5.0)
        for conn in self._connections:
            conn.close()
        self._connections = []
        self._processes = []


def make_pool(
    backend: str,
    payloads: List[ShardPayload],
    timer: Optional[TickPhaseTimer] = None,
):
    """Build the pool for an *effective* (already auto-resolved) backend."""
    if backend == "serial":
        return SerialPool(payloads, timer=timer)
    if backend == "process":
        return ProcessPool(payloads, timer=timer)
    raise ValueError(f"unknown backend {backend!r}")
