"""Synchronous in-memory worker pool for the engine test suites.

Used by ``test_telemetry.py`` (config / phases / pool health).
"""

from __future__ import annotations

from repro.engine.runner import (
    ShardExecutor,
    WorkerPoolBackend,
    handle_worker_message,
)


class StubPoolBackend(WorkerPoolBackend):
    """Real :class:`WorkerPoolBackend` bookkeeping and the real worker
    message handler over a synchronous in-process transport, so the
    driver/worker wire protocol is exercised without processes.

    ``sent`` records every ``(worker, message)`` the driver dispatched.
    """

    name = "stub"

    def __init__(self, workers: int = 2):
        self.queue_depth = 2
        self._workers = workers
        self._executors = [ShardExecutor() for _ in range(workers)]
        self._replies: list[tuple] = []
        self.sent: list[tuple[int, tuple]] = []
        self._init_pool()
        self._load = [0] * workers

    def _ensure_workers(self) -> None:
        pass

    def _live_workers(self) -> list[int]:
        return list(range(self._workers))

    def _worker_slots(self) -> int:
        return self._workers

    def _send(self, worker: int, message: tuple) -> None:
        self.sent.append((worker, message))
        reply = handle_worker_message(self._executors[worker], message)
        if reply is not None:
            self._replies.append(reply)

    def poll(self):
        outcomes = []
        while self._replies:
            outcome = self._handle(self._replies.pop(0))
            if outcome is not None:
                outcomes.append(outcome)
        return outcomes

    def wait(self):
        return self.poll()

    def close(self) -> None:
        pass

    def terminate(self) -> None:
        pass
