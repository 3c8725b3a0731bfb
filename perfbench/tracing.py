"""Capture and tracing hooks for the benchmark, installed from outside the package.

Every hook replaces a module attribute of ``gpscale`` and calls the original,
so the package carries no benchmark code.  Two kinds exist:

* capture hooks, always on: ``harness.bisect_population_size`` opens a cell
  record and ``harness.batch_success`` files the batch it returns under that
  cell, so the checks can see every run the harness returned;
* layer hooks, on in the traced pass only: counters and busy time at the call
  boundaries named in ``LAYERS``, plus cell and probe-batch spans.

Runs execute in the benchmark process at one worker and in forked pool
workers at two.  Layer hooks are installed before any pool forks, so workers
inherit them; each worker adds its counters into a shared array at the end of
every run, and the parent reads the array.  That needs the ``fork`` start
method, the default on Linux.
"""

from __future__ import annotations

import multiprocessing
import time

from gpscale import gp, harness, pipe, problems

perf = time.perf_counter

# Layers timed where runs execute; install() names what each one wraps.
LAYERS = (
    "problems.evaluate",
    "gp.crossover",
    "gp.tournament",
    "gp.reachability",
    "pipe.build_model",
    "pipe.sample_model",
    "trees.init_population",
    "gp.run",
    "pipe.run",
)

# Counters that accrue wherever runs execute (benchmark process or workers).
RUN_COUNTERS = tuple(
    [f"{layer}.{part}" for layer in LAYERS for part in ("calls", "s")]
    + [
        "gp.crossover.unchanged",
        "gp.run.self_s",
        "pipe.run.self_s",
        "runs.succeeded",
        "runs.stopped_at_cap",
        "runs.stopped_early",
        "harness.runs_executed",
        "harness.evals_executed",
        "child_s",  # busy time of the child layers, for the run self times
    ]
)

# Counters that accrue in the benchmark process only.
PARENT_COUNTERS = (
    "harness.cell.calls",
    "harness.cell.s",
    "harness.batch.calls",
    "harness.batch.s",
    "harness.batch.failed",
    "harness.runs_returned",
    "harness.evals_returned",
)


class Recorder:
    """Capture hooks (always) and layer hooks (when ``traced``) over gpscale."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        # one entry per sized cell: list of (pop_size, ok, results)
        self.cells: list[list[tuple[int, bool, list]]] = []
        self.spans: list[dict] = []
        self.parent = dict.fromkeys(PARENT_COUNTERS, 0.0)
        self._index = {name: i for i, name in enumerate(RUN_COUNTERS)}
        self._local = [0.0] * len(RUN_COUNTERS)
        if traced:  # shared with forked workers, which inherit both
            self._shared = multiprocessing.RawArray("d", len(RUN_COUNTERS))
            self._lock = multiprocessing.Lock()
        self._saved: list[tuple[object, str, object]] = []
        self._cell_id: int | None = None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        self._patch(harness, "bisect_population_size", self._wrap_cell)
        self._patch(harness, "batch_success", self._wrap_batch)
        if not self.traced:
            return
        if multiprocessing.get_start_method() != "fork":
            raise RuntimeError("worker counters need the fork start method")
        self._patch(problems.Evaluator, "__call__", self._timed("problems.evaluate"))
        self._patch(gp, "subtree_crossover", self._wrap_crossover)
        self._patch(gp, "binary_tournament", self._timed("gp.tournament"))
        self._patch(pipe, "binary_tournament", self._timed("gp.tournament"))
        self._patch(gp, "optimum_reachable", self._timed("gp.reachability"))
        self._patch(pipe, "build_model", self._timed("pipe.build_model"))
        self._patch(pipe, "sample_model", self._wrap_sample)
        self._patch(gp, "ramped_half_and_half", self._timed("trees.init_population"))
        self._patch(harness, "run_gp", self._wrap_run("gp.run"))
        self._patch(harness, "run_pipe", self._wrap_run("pipe.run"))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    # -- capture hooks (parent process) -----------------------------------

    def _wrap_cell(self, original):
        def cell(problem, algo, seed_base=0, **kwargs):
            self.cells.append([])
            if not self.traced:
                return original(problem, algo, seed_base, **kwargs)
            span = self._open("cell", None, algorithm=algo, problem=problem.family,
                              l=problem.primitives.num_pairs)
            self._cell_id = span["id"]
            try:
                return original(problem, algo, seed_base, **kwargs)
            finally:
                self._close(span, "harness.cell")

        return cell

    def _wrap_batch(self, original):
        def batch(problem, algo, pop_size, *args, **kwargs):
            if not self.traced:
                ok, results = original(problem, algo, pop_size, *args, **kwargs)
                self.cells[-1].append((pop_size, ok, results))
                return ok, results
            span = self._open("batch", self._cell_id, pop_size=pop_size)
            ok, results = original(problem, algo, pop_size, *args, **kwargs)
            self._close(span, "harness.batch")
            span.update(ok=ok, runs_returned=len(results))
            self.cells[-1].append((pop_size, ok, results))
            counters = self.parent
            counters["harness.batch.failed"] += not ok
            counters["harness.runs_returned"] += len(results)
            counters["harness.evals_returned"] += sum(r.evaluations for r in results)
            return ok, results

        return batch

    def _open(self, name: str, parent_id, **attrs) -> dict:
        span = {"id": len(self.spans), "parent": parent_id, "name": name, **attrs}
        self.spans.append(span)
        span["start"] = perf()
        return span

    def _close(self, span: dict, counter: str) -> None:
        span["end"] = perf()
        self.parent[f"{counter}.calls"] += 1
        self.parent[f"{counter}.s"] += span["end"] - span["start"]

    # -- layer hooks (wherever runs execute) ------------------------------

    def _timed(self, layer: str):
        local = self._local
        calls = self._index[f"{layer}.calls"]
        busy = self._index[f"{layer}.s"]
        child = self._index["child_s"]

        def make(original):
            def timed(*args, **kwargs):
                t = perf()
                try:
                    return original(*args, **kwargs)
                finally:
                    dt = perf() - t
                    local[calls] += 1
                    local[busy] += dt
                    local[child] += dt

            return timed

        return make

    def _wrap_crossover(self, original):
        timed = self._timed("gp.crossover")(original)
        local = self._local
        unchanged = self._index["gp.crossover.unchanged"]

        def crossover(p1, p2, cfg, rng):
            c1, c2 = timed(p1, p2, cfg, rng)
            if c1 is p1 and c2 is p2:
                local[unchanged] += 1
            return c1, c2

        return crossover

    def _wrap_sample(self, original):
        # sample_model recurses through the module global; point the global at
        # the original for the duration of a call so only the outermost call
        # of each sampled program is counted and timed.
        timed = self._timed("pipe.sample_model")(original)

        def sample(model, rng):
            pipe.sample_model = original
            try:
                return timed(model, rng)
            finally:
                pipe.sample_model = sample

        return sample

    def _wrap_run(self, layer: str):
        local = self._local
        index = self._index
        calls, busy = index[f"{layer}.calls"], index[f"{layer}.s"]
        self_s, child = index[f"{layer}.self_s"], index["child_s"]
        succeeded, at_cap = index["runs.succeeded"], index["runs.stopped_at_cap"]
        early = index["runs.stopped_early"]
        executed, evals = index["harness.runs_executed"], index["harness.evals_executed"]

        def make(original):
            def run(problem, cfg, *args, **kwargs):
                child0 = local[child]
                t = perf()
                result = original(problem, cfg, *args, **kwargs)
                dt = perf() - t
                local[calls] += 1
                local[busy] += dt
                local[self_s] += dt - (local[child] - child0)
                if result.success:
                    local[succeeded] += 1
                elif result.generations_used >= cfg.max_generations:
                    local[at_cap] += 1
                else:  # optimum unreachable, or an absorbing PIPE model
                    local[early] += 1
                local[executed] += 1
                local[evals] += result.evaluations
                self._flush()
                return result

            return run

        return make

    def _flush(self) -> None:
        local, shared = self._local, self._shared
        with self._lock:
            for i, value in enumerate(local):
                shared[i] += value
        for i in range(len(local)):
            local[i] = 0.0

    # -- results ----------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Every counter, parent and workers combined."""
        self._flush()
        out = dict(zip(RUN_COUNTERS, self._shared))
        out.update(self.parent)
        del out["child_s"]
        return out
