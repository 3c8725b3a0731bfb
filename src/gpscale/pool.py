"""Worker processes for probe batches.

One pool serves a whole top-level harness call (a sweep, a sizing or a
batch), and a finished batch stops the runs it no longer needs.  Workers
call ``harness.run_algorithm`` through the module attribute, so a forked
worker runs what the parent had bound there when the pool started.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Sequence

from . import harness
from .gp import GpConfig, Individual, RunResult
from .problems import ProblemSpec


class _Abandoned(Exception):
    """Raised inside a pool worker to stop a run whose batch is finished."""


# In a pool worker: the number of the last batch its parent has finished.
_finished_batch = None


def _init_worker(finished_batch) -> None:
    global _finished_batch
    _finished_batch = finished_batch


def _run_pooled(
    algo: str, problem: ProblemSpec, cfg: GpConfig, batch: int
) -> RunResult | None:
    """One run in a pool worker; None if its batch finished before it did."""

    def check(generation: int, pop: list[Individual]) -> None:
        if _finished_batch.value >= batch:
            raise _Abandoned

    if _finished_batch.value >= batch:
        return None
    try:
        return harness.run_algorithm(algo, problem, cfg, check)
    except _Abandoned:
        return None


class WorkerPool:
    """A process pool that lives for one top-level harness call.

    Batches are numbered in submission order.  When the parent has the runs
    a batch needs, it raises the shared ``finished`` number to that batch:
    queued runs of the batch are cancelled, and running ones stop at their
    next generation through the run's ``observer`` hook.
    """

    def __init__(self, workers: int) -> None:
        self.finished = multiprocessing.RawValue("q", 0)
        self.batches = 0
        self.executor = ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(self.finished,)
        )

    def run_batch(
        self, jobs: Sequence[tuple[str, ProblemSpec, GpConfig]], stop_on_failure: bool
    ) -> list[RunResult]:
        """The same run list a one-worker batch returns: results are read in
        seed order through :func:`harness.collect_batch`, so the batch waits
        only for the runs up to its first failing or raising one."""
        self.batches += 1
        batch = self.batches
        futures = []
        try:
            for job in jobs:
                futures.append(self.executor.submit(_run_pooled, *job, batch))
            return harness.collect_batch([fut.result for fut in futures], stop_on_failure)
        finally:
            self.finished.value = batch
            for fut in futures:
                fut.cancel()


_open_pool: ContextVar[WorkerPool | None] = ContextVar("_open_pool", default=None)


@contextmanager
def worker_pool(workers: int) -> Iterator[WorkerPool]:
    """The pool of the enclosing top-level call, opening one if there is none.

    The call that opens the pool shuts it down on every exit, cancelling
    queued runs and joining the workers.
    """
    pool = _open_pool.get()
    if pool is not None:
        yield pool
        return
    pool = WorkerPool(workers)
    token = _open_pool.set(pool)
    try:
        yield pool
    finally:
        _open_pool.reset(token)
        pool.executor.shutdown(wait=True, cancel_futures=True)
