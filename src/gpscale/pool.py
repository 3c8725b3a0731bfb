"""Worker processes for probe batches.

Each worker is a process that serves runs over its own duplex pipe.  A batch
is a stream of results in seed order: an idle worker gets the next run only
while the stream's reader waits, and once the stream ends, runs still
going stop at their next generation.  Workers call ``harness.run_algorithm``
through the module attribute, so a forked worker runs what the parent had
bound there when the pool started.  Which pool a call runs on, and when it
closes, is decided by the pool scope in :mod:`gpscale.harness`.
"""

from __future__ import annotations

import multiprocessing
import traceback
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import Connection, wait
from typing import Iterator, Sequence

from . import harness
from .gp import GpConfig, RunResult
from .problems import ProblemSpec
from .trees import Node


class _Abandoned(Exception):
    """Raised inside a pool worker to stop a run whose batch is finished."""


def _run_pooled(
    algo: str, problem: ProblemSpec, cfg: GpConfig, batch: int, finished
) -> RunResult | None:
    """One run in a pool worker; None if its batch finished before it did."""

    def check(generation: int, trees: list[Node]) -> None:
        if finished.value >= batch:
            raise _Abandoned

    if finished.value >= batch:
        return None
    try:
        return harness.run_algorithm(algo, problem, cfg, check)
    except _Abandoned:
        return None


def _serve(conn: Connection, finished) -> None:
    """A worker: run each ``(batch, job)`` received and reply ``(batch,
    result)``, the result being a run's exception if it raised; None stops."""
    while (message := conn.recv()) is not None:
        batch, job = message
        try:
            outcome = _run_pooled(*job, batch, finished)
        except Exception as exc:  # re-raised in the parent, worker traceback attached
            exc.__notes__ = [*getattr(exc, "__notes__", ()), traceback.format_exc().rstrip()]
            outcome = exc
        conn.send((batch, outcome))


class WorkerPool:
    """Worker processes that live for one top-level harness call.

    Each :meth:`results` stream is one batch, numbered when first read.  When
    it ends, it raises the shared ``finished`` number to that batch: runs
    still going stop at their next generation through the ``observer`` hook,
    and their late replies only free their workers.
    """

    def __init__(self, workers: int) -> None:
        self.finished = multiprocessing.RawValue("q", 0)
        self.batches = 0
        self.idle: list[Connection] = []
        self.busy: dict[Connection, int] = {}  # worker -> index of its run
        self.processes: list[multiprocessing.Process] = []
        try:
            for _ in range(workers):
                conn, child = multiprocessing.Pipe()
                process = multiprocessing.Process(
                    target=_serve, args=(child, self.finished), daemon=True
                )
                process.start()
                child.close()  # so a dead worker reads as EOF here
                self.processes.append(process)
                self.idle.append(conn)
        except BaseException:
            self.close()
            raise

    def results(self, jobs: Sequence[tuple[str, ProblemSpec, GpConfig]]) -> Iterator[RunResult]:
        """A new batch: the results of ``jobs`` in seed order, a run's
        exception raised in its place.  While it waits for a result it hands
        each idle worker the next run not yet sent; it sends nothing between
        reads, so once the reader stops, no further run starts.  The batch
        ends when the stream is exhausted, raises or is closed."""
        self.batches += 1
        batch = self.batches
        sent = 0
        replies: dict[int, RunResult | Exception] = {}
        try:
            for index in range(len(jobs)):
                while index not in replies:
                    while self.idle and sent < len(jobs):
                        try:  # the worker stays listed, so close() closes its end
                            self.idle[-1].send((batch, jobs[sent]))
                        except OSError as exc:
                            raise BrokenProcessPool("a pool worker exited between runs") from exc
                        self.busy[self.idle.pop()] = sent
                        sent += 1
                    self._receive(batch, replies)
                outcome = replies.pop(index)
                if isinstance(outcome, Exception):
                    raise outcome
                yield outcome
        finally:
            self.finished.value = batch

    def _receive(self, batch: int, replies: dict[int, RunResult | Exception]) -> None:
        """Wait for replies; file those of ``batch`` and free their workers."""
        for conn in wait(list(self.busy)):
            try:
                sent_in, outcome = conn.recv()
            except (EOFError, OSError) as exc:
                raise BrokenProcessPool("a pool worker exited during a run") from exc
            run = self.busy.pop(conn)
            self.idle.append(conn)
            if sent_in == batch:  # an abandoned run's reply only frees its worker
                replies[run] = outcome

    def close(self) -> None:
        """Stop and join every worker."""
        conns = self.idle + list(self.busy)
        for conn in conns:
            try:
                conn.send(None)
            except OSError:  # the worker is gone
                pass
        for process in self.processes:
            process.join()
        for conn in conns:
            conn.close()

