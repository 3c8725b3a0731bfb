import csv
import itertools
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import get_type_hints
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from gpscale.gp import GpConfig, RunResult
from gpscale import harness, pool
from gpscale.harness import (
    RowSpec,
    SizingFailure,
    SweepPlan,
    SweepRow,
    batch_success,
    bisect_population_size,
    build_plan,
    collect_batch,
    emit_report,
    next_probe,
    read_csv,
    render_log_log_svg,
    scalability_sweep,
    write_csv,
)
from gpscale.problems import order_problem, trap_problem


def _stub_batch(threshold, n_runs=30):
    """Monotone success predicate: a batch fully succeeds iff N >= threshold."""

    def batch(pop_size):
        ok = pop_size >= threshold
        result = RunResult(ok, pop_size * 3, 2, 1.0)
        return ok, [result] * n_runs

    return batch


def _size(stub, ceiling=harness.DEFAULT_POP_CEILING):
    """Size through ``bisect_population_size`` with ``stub(pop_size) -> (ok,
    results)`` standing in for every probe batch.  A patch that ends with the
    call, not a fixture, so Hypothesis examples each get a fresh one."""

    def batch(problem, algo, pop_size, *args, **kwargs):
        return stub(pop_size)

    with mock.patch.object(harness, "batch_success", batch):
        return bisect_population_size(order_problem(1), "gp", ceiling=ceiling)


def test_bisect_against_hidden_threshold_73():
    sizing = _size(_stub_batch(73))
    assert 73 <= sizing.min_pop_size <= 80
    assert sizing.min_pop_size % 2 == 0
    # bracket: the largest probed failure sits within 10% of the answer
    failures = [n for n, ok in sizing.history if not ok]
    assert sizing.min_pop_size - max(failures) <= 0.10 * sizing.min_pop_size


@given(threshold=st.integers(2, 2000))
@settings(max_examples=100, deadline=None)
def test_bisect_is_correct_for_any_monotone_predicate(threshold):
    batch = _stub_batch(threshold, n_runs=5)
    sizing = _size(batch)
    n = sizing.min_pop_size
    assert n >= threshold  # returned size succeeds
    assert n % 2 == 0
    failures = [s for s, ok in sizing.history if not ok]
    if failures:
        # the bracket closed to 10% of the answer (plus the even-grid step)
        assert max(failures) < threshold
        assert n - max(failures) <= 0.10 * n + 2
    else:
        # nothing ever failed: the answer pinned against the floor of 2
        assert n - 2 <= max(2, threshold)


def test_bisect_returns_the_full_successful_batch():
    sizing = _size(_stub_batch(100))
    assert len(sizing.runs) == 30
    assert all(r.success for r in sizing.runs)
    assert sizing.avg_evaluations == sizing.min_pop_size * 3


def test_bisect_raises_past_the_ceiling():
    def never(pop_size):
        return False, [RunResult(False, pop_size, 0, 0.0)] * 3

    with pytest.raises(SizingFailure) as exc:
        _size(never, ceiling=128)
    failure = exc.value
    assert failure.ceiling == 128
    assert failure.last_pop_size == 128
    assert failure.success_rate == 0.0
    assert [n for n, _ in failure.history] == [16, 32, 64, 128]
    with pytest.raises(ValueError):
        _size(never, ceiling=8)  # below the starting size


@given(data=st.data(), ceiling=st.integers(16, 2**20))
@settings(max_examples=300, deadline=None)
def test_bisect_keeps_a_consistent_bracket_under_noisy_batches(data, ceiling):
    # real probe batches are stochastic: each probe's verdict is drawn on its
    # own, so a size can fail after a smaller one passed
    batches = {}

    def batch(pop_size):
        if data.draw(st.booleans(), label=f"batch {pop_size} passes"):
            results = [RunResult(True, pop_size + i, 1, 1.0) for i in range(5)]
        else:
            solved = data.draw(st.integers(0, 4), label=f"runs solved at {pop_size}")
            results = [RunResult(True, pop_size, 1, 1.0)] * solved
            results.append(RunResult(False, pop_size, 200, 0.5))
        batches[pop_size] = results
        return results[-1].success, results

    try:
        sizing = _size(batch, ceiling=ceiling)
    except SizingFailure as failure:
        sizes = [n for n, _ in failure.history]
        assert sizes == [16 * 2**i for i in range(len(sizes))]
        assert not any(ok for _, ok in failure.history)
        assert sizes[-1] == failure.last_pop_size <= ceiling < 2 * sizes[-1]
        assert failure.last_results == batches[sizes[-1]]
        return
    history = sizing.history
    failing = [n for n, ok in history if not ok]
    passing = [n for n, ok in history if ok]
    assert max(failing, default=0) < min(passing)
    first_pass = next(i for i, (_, ok) in enumerate(history) if ok)
    for i in range(first_pass + 1, len(history)):
        before = history[:i]
        lo = max((n for n, ok in before if not ok), default=2)
        hi = min(n for n, ok in before if ok)
        assert lo < history[i][0] < hi
    hi = min(passing)
    lo = max(failing, default=2)
    assert sizing.min_pop_size == hi
    assert sizing.runs == tuple(batches[hi])
    assert sizing.avg_evaluations == hi + 2
    assert hi - lo <= 0.10 * hi or all(n % 2 for n in range(lo + 1, hi))


def _reference_bisect(batch, *, ceiling=harness.DEFAULT_POP_CEILING):
    """The sizing loop as it stood before ``next_probe``, kept as an oracle."""
    if ceiling < harness.START_POP:
        raise ValueError(f"ceiling {ceiling} is below the starting size {harness.START_POP}")
    history = []
    lo = 2
    hi = 0
    best_results = []
    n = harness.START_POP
    while True:
        ok, results = batch(n)
        history.append((n, ok))
        if ok:
            hi = n
            best_results = results
        elif not hi and n * 2 > ceiling:
            raise SizingFailure(ceiling, n, results, history)
        else:
            lo = n
        if not hi:
            n *= 2
            continue
        if hi - lo <= harness.BRACKET_FRACTION * hi:
            break
        n = harness._nearest_even((lo + hi) / 2)
        if n <= lo or n >= hi:
            break  # no even size strictly inside the bracket
    return harness.SizingResult(
        hi, harness._mean_evaluations(best_results), tuple(best_results), tuple(history)
    )


def _scripted_batches(threshold, flips):
    """A fresh stub: probe i passes if ``flips[i]`` says so, and once the flips
    run out, if its size is at least ``threshold``.  Each batch's runs differ
    by size and probe, and a failing one ends at its first failed run."""
    calls = itertools.count()

    def batch(pop_size):
        i = next(calls)
        ok = flips[i] if i < len(flips) else pop_size >= threshold
        results = [RunResult(True, pop_size + j, 1, 1.0) for j in range(i % 4)]
        results.append(RunResult(ok, pop_size * 3 + i, 2, 0.5))
        return ok, results

    return batch


@given(
    threshold=st.integers(2, 2**21),
    flips=st.lists(st.booleans(), max_size=30),
    ceiling=st.integers(16, 2**20) | st.sampled_from([16 * 2**i for i in range(17)]),
)
@settings(max_examples=300, deadline=None)
def test_sizing_matches_the_reference_loop_and_replays_from_its_history(
    threshold, flips, ceiling
):
    try:
        expected = _reference_bisect(_scripted_batches(threshold, flips), ceiling=ceiling)
    except SizingFailure as reference:
        with pytest.raises(SizingFailure) as exc:
            _size(_scripted_batches(threshold, flips), ceiling=ceiling)
        failure = exc.value
        assert str(failure) == str(reference)
        assert (failure.ceiling, failure.last_pop_size) == (ceiling, reference.last_pop_size)
        assert failure.last_results == reference.last_results
        history = failure.history
        assert history == reference.history
    else:
        sizing = _size(_scripted_batches(threshold, flips), ceiling=ceiling)
        assert sizing == expected
        history = list(sizing.history)
    # the probe history alone decides every probe, and when the sizing ends
    for i, (pop_size, _) in enumerate(history):
        assert next_probe(history[:i], ceiling) == pop_size
    assert next_probe(history, ceiling) is None


def test_sizing_failure_says_where_the_last_batch_stopped():
    def runs(*outcomes):
        return [RunResult(ok, 1, 0, 0.0) for ok in outcomes]

    def message(results):
        return str(SizingFailure(64, 64, results, [(64, False)]))

    assert message(runs(True, False)).endswith(
        "last batch stopped at its first failure after 2 runs, 1 of them solved")
    assert message(runs(False)).endswith(
        "last batch stopped at its first failure after 1 run, 0 of them solved")
    assert SizingFailure(64, 64, runs(True, False), []).success_rate == 0.5


def test_batch_success_is_deterministic():
    problem = order_problem(3)
    ok1, res1 = batch_success(problem, "gp", 16, n_runs=6, seed_base=5)
    ok2, res2 = batch_success(problem, "gp", 16, n_runs=6, seed_base=5)
    assert (ok1, res1) == (ok2, res2)
    assert ok1
    # worker processes must reproduce the serial results in order
    ok3, res3 = batch_success(problem, "gp", 16, n_runs=6, seed_base=5, workers=2)
    assert (ok3, res3) == (ok1, res1)


def test_batch_success_trivial_instance_all_succeed():
    ok, results = batch_success(order_problem(1), "gp", 64, n_runs=30, seed_base=0)
    assert ok
    assert len(results) == 30


def test_batch_success_undersized_population_fails():
    # two trees cannot even hold one positive terminal per pair for l=100
    ok, results = batch_success(order_problem(100), "gp", 2, n_runs=3, seed_base=0)
    assert not ok
    assert len(results) == 1  # stopped at the first failure


def test_pooled_batch_returns_the_one_worker_partial_list():
    # runs 0, 1 solve and run 2 fails; runs 3-5 are not needed
    problem = trap_problem(6, 3, 1.0)
    serial = batch_success(problem, "gp", 24, n_runs=6, seed_base=0)
    assert [r.success for r in serial[1]] == [True, True, False]
    pooled = batch_success(problem, "gp", 24, n_runs=6, seed_base=0, workers=2)
    assert pooled == serial
    assert multiprocessing.active_children() == []


def test_pooled_batch_abandons_runs_past_the_first_failure(monkeypatch):
    def run(problem, cfg, observer=None):
        if cfg.seed == 0:
            return RunResult(False, 0, 0, 0.0)
        for generation in range(2000):  # 20 s unless abandoned
            if observer is not None:
                observer(generation, [])
            time.sleep(0.01)
        return RunResult(True, 0, generation, 0.0)

    monkeypatch.setattr(harness, "run_gp", run)  # inherited by forked workers
    t0 = time.perf_counter()
    ok, results = batch_success(order_problem(3), "gp", 16, n_runs=4, workers=2)
    assert (ok, results) == (False, [RunResult(False, 0, 0, 0.0)])
    assert time.perf_counter() - t0 < 10.0
    assert multiprocessing.active_children() == []


def test_second_batch_on_an_open_pool_takes_no_reply_from_the_first(monkeypatch):
    from gpscale.harness import worker_pool

    def run(problem, cfg, observer=None):
        if cfg.seed == 0:
            return RunResult(False, 0, 0, 0.0)
        if cfg.seed < 10:  # first batch: 20 s unless abandoned
            for generation in range(2000):
                try:
                    observer(generation, [])
                except Exception:  # told to stop: reply as if the run had ended
                    return RunResult(True, 999, generation, 0.0)
                time.sleep(0.01)
        time.sleep(0.05 * (cfg.seed % 3))
        return RunResult(True, cfg.seed, 0, 0.0)

    monkeypatch.setattr(harness, "run_gp", run)  # inherited by forked workers
    problem = order_problem(3)
    serial = batch_success(problem, "gp", 16, n_runs=4, seed_base=10)
    t0 = time.perf_counter()
    with worker_pool(2):
        first = batch_success(problem, "gp", 16, n_runs=4, workers=2)
        second = batch_success(problem, "gp", 16, n_runs=4, seed_base=10, workers=2)
    assert first == (False, [RunResult(False, 0, 0, 0.0)])
    assert second == serial
    assert time.perf_counter() - t0 < 10.0
    assert multiprocessing.active_children() == []


def test_a_sizing_runs_every_probe_on_one_pool_and_one_worker_uses_none(monkeypatch):
    opened = []
    batches = []

    class CountingPool(pool.WorkerPool):
        def __init__(self, workers):
            opened.append(workers)
            super().__init__(workers)

        def results(self, jobs):
            batches.append(len(jobs))
            return super().results(jobs)

    monkeypatch.setattr(pool, "WorkerPool", CountingPool)
    sizing = bisect_population_size(trap_problem(6, 3, 1.0), "gp", 11, n_runs=5, workers=2)
    assert len(sizing.history) > 1
    assert opened == [2]
    assert len(batches) == len(sizing.history)
    assert multiprocessing.active_children() == []
    with harness.worker_pool(2) as open_pool:
        with harness.worker_pool(1) as one_worker:
            assert one_worker is None
        assert batch_success(order_problem(3), "gp", 16, n_runs=3, workers=1)[0]
        with harness.worker_pool(2) as nested:
            assert nested is open_pool
    assert opened == [2, 2]
    assert len(batches) == len(sizing.history)
    assert multiprocessing.active_children() == []


def _run_python(code):
    """Run ``code`` in a fresh interpreter that imports this gpscale; its stdout."""
    paths = [str(Path(harness.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_pooled_batch_under_spawn_matches_one_worker():
    # spawned workers import gpscale afresh: everything a run needs travels
    # in its job
    code = (
        "import multiprocessing\n"
        "from gpscale.harness import batch_success\n"
        "from gpscale.problems import trap_problem\n"
        "if __name__ == '__main__':\n"
        "    multiprocessing.set_start_method('spawn')\n"
        "    args = (trap_problem(6, 3, 1.0), 'gp', 24, 6, 0)\n"
        "    pooled = batch_success(*args, workers=2)\n"
        "    serial = batch_success(*args)\n"
        "    print(pooled == serial, len(pooled[1]), multiprocessing.active_children())\n"
    )
    assert _run_python(code) == "True 3 []"


def _run(outcome=None):
    def run():
        if outcome is None:
            pytest.fail("a run past the end of the batch was waited for")
        if isinstance(outcome, Exception):
            raise outcome
        return RunResult(outcome, 1, 0, 0.0)

    return run  # outcome None: a run still in flight


def test_collect_batch_ends_at_the_first_ending_run_in_seed_order():
    # each run starts only when the stream is read, as at one worker
    runs = [_run(True), _run(False), _run(False), _run()]
    assert [r.success for r in collect_batch(run() for run in runs)] == [True, False]
    runs = [_run(True)] * 3
    assert len(collect_batch(run() for run in runs)) == 3
    with pytest.raises(ValueError):
        runs = [_run(True), _run(ValueError("run 1")), _run()]
        collect_batch(run() for run in runs)
    runs = [_run(False), _run(ValueError())]
    assert [r.success for r in collect_batch(run() for run in runs)] == [False]
    assert collect_batch(run() for run in []) == []


def test_collect_batch_closes_the_stream_it_reads():
    closed = []

    def stream():
        try:
            yield from (RunResult(ok, 1, 0, 0.0) for ok in (True, False, True))
        finally:
            closed.append(True)

    results = stream()  # held here, so only collect_batch can close it
    assert [r.success for r in collect_batch(results)] == [True, False]
    assert closed == [True]


def test_closing_a_pooled_stream_ends_its_batch(monkeypatch):
    def run(problem, cfg, observer=None):
        if cfg.seed == 0:
            return RunResult(True, 0, 0, 0.0)
        for generation in range(2000):  # 20 s unless abandoned
            observer(generation, [])
            time.sleep(0.01)
        return RunResult(True, 0, generation, 0.0)

    monkeypatch.setattr(harness, "run_gp", run)  # inherited by forked workers
    jobs = [("gp", order_problem(3), GpConfig(pop_size=16, max_depth=3, seed=i))
            for i in range(4)]
    t0 = time.perf_counter()
    with harness.worker_pool(2) as open_pool:
        stream = open_pool.results(jobs)
        assert next(stream) == RunResult(True, 0, 0, 0.0)
        stream.close()
        assert open_pool.finished.value == open_pool.batches == 1
    # closing the pool joins the worker that was running run 1
    assert time.perf_counter() - t0 < 10.0
    assert multiprocessing.active_children() == []


def test_pooled_batch_starts_no_run_past_the_deciding_one(monkeypatch):
    starts = multiprocessing.Value("i", 0)  # before the pool forks, so workers share it

    def run(problem, cfg, observer=None):
        with starts.get_lock():
            starts.value += 1
        if cfg.seed == 0:
            return RunResult(False, 0, 0, 0.0)
        for generation in range(2000):  # 20 s unless abandoned
            observer(generation, [])
            time.sleep(0.01)
        return RunResult(True, 0, generation, 0.0)

    monkeypatch.setattr(harness, "run_gp", run)  # inherited by forked workers
    ok, results = batch_success(order_problem(3), "gp", 16, n_runs=6, workers=2)
    assert (ok, results) == (False, [RunResult(False, 0, 0, 0.0)])
    # runs 0 and 1 went out at once; reading past run 0 would have sent run 2
    assert starts.value <= 2
    assert multiprocessing.active_children() == []


def test_one_worker_sweep_loads_no_pool_code():
    code = (
        "import sys\n"
        "from gpscale import harness\n"
        "harness.scalability_sweep(harness.build_plan('order', sizes=(2,), n_runs=2))\n"
        "print(sorted(m for m in sys.modules if m == 'gpscale.pool'\n"
        "             or m.split('.')[0] in ('concurrent', 'multiprocessing')))\n"
    )
    assert _run_python(code) == "[]"


def test_batch_success_rejects_unknown_algorithm():
    with pytest.raises(ValueError):
        batch_success(order_problem(2), "annealing", 8, n_runs=1)


def test_batch_success_rejects_a_depth_budget_no_optimum_fits(monkeypatch):
    started = []

    def run(problem, cfg, observer=None):
        started.append(cfg.max_depth)
        return RunResult(True, 1, 0, 0.0)

    monkeypatch.setattr(harness, "run_gp", run)
    with pytest.raises(ValueError, match="max_depth 2 .*l=8.* 3"):
        batch_success(order_problem(8), "gp", 16, n_runs=1, max_depth=2)
    assert started == []
    assert batch_success(order_problem(8), "gp", 16, n_runs=1, max_depth=3)[0]
    assert started == [3]


def test_batch_success_rejects_an_empty_batch():
    with pytest.raises(ValueError, match="n_runs"):
        batch_success(order_problem(2), "gp", 8, n_runs=0)


def test_bisect_population_size_trivial_instance():
    sizing = bisect_population_size(order_problem(1), "gp", seed_base=3, n_runs=10)
    assert sizing.min_pop_size <= 8
    assert all(r.success for r in sizing.runs)
    assert len(sizing.runs) == 10


def test_build_plan_expands_cells_with_distinct_seeds():
    plan = build_plan("order", sizes=(5, 10), seed_base=42)
    assert [(r.algorithm, r.l) for r in plan.rows] == [
        ("gp", 5), ("pipe", 5), ("gp", 10), ("pipe", 10),
    ]
    seeds = [r.seed_base for r in plan.rows]
    assert len(set(seeds)) == len(seeds)
    assert plan.x_field == "l"


def test_build_plan_variants():
    junk = build_plan("order-junk", sizes=(10, 20))
    assert all(r.num_junk == r.l // 5 for r in junk.rows)
    neg = build_plan("order-neg", sizes=(5,))
    assert all(r.neg_join for r in neg.rows)
    fixed = build_plan("junk-fixed-l", algorithms=("gp",))
    assert fixed.x_field == "num_junk"
    assert SweepPlan("junk-fixed-l", fixed.rows).x_field == "num_junk"
    assert SweepPlan("order-junk", fixed.rows).x_field == "l"
    assert {r.max_depth for r in fixed.rows} == {6, 7}
    assert {r.num_junk for r in fixed.rows} == {5, 10, 15, 20, 40}
    assert all(r.l == 20 for r in fixed.rows)
    trap = build_plan("trap", sizes=(6, 12), delta=0.25)
    assert all(r.problem == "trap" and r.k == 3 and r.delta == 0.25 for r in trap.rows)
    with pytest.raises(ValueError):
        build_plan("trap", sizes=(7,))
    with pytest.raises(ValueError):
        build_plan("nope")
    with pytest.raises(ValueError):
        build_plan("order", algorithms=("gp", "sa"))


@pytest.mark.parametrize("name, kwargs", [
    ("trap", dict(k=0)),
    ("trap", dict(k=1)),
    ("trap", dict(delta=2.0)),
    ("order", dict(sizes=(3, 0))),
    ("junk-fixed-l", dict(sizes=(5, -1))),
    ("trap", dict(algorithms=(), sizes=(7,))),
])
def test_build_plan_checks_every_cell_with_the_problem_rules(name, kwargs):
    with pytest.raises(ValueError):
        build_plan(name, **kwargs)


def _tiny_plan(seed_base=0):
    return build_plan("order", sizes=(2, 3), seed_base=seed_base, n_runs=5)


def test_scalability_sweep_rows_and_determinism():
    rows1 = scalability_sweep(_tiny_plan())
    rows2 = scalability_sweep(_tiny_plan())
    assert rows1 == rows2
    assert len(rows1) == 4
    assert all(r.success_rate == 1.0 for r in rows1)
    assert all(r.pop_size >= 2 for r in rows1)


@pytest.mark.parametrize("name, size", [("trap", 6), ("order-neg", 5)])
def test_pooled_sweep_matches_one_worker_on_failing_probes(name, size):
    plan = build_plan(name, sizes=(size,), seed_base=11, n_runs=5)
    rows = scalability_sweep(plan)
    assert any(r.pop_size > harness.START_POP for r in rows)  # some probes failed
    assert scalability_sweep(plan, workers=2) == rows
    assert multiprocessing.active_children() == []


def test_pooled_sweep_error_reaches_the_caller_and_reaps_workers():
    plan = SweepPlan("bad", (RowSpec("annealing", "order", 3),), n_runs=4)
    with pytest.raises(ValueError, match="annealing"):
        scalability_sweep(plan, workers=2)
    assert multiprocessing.active_children() == []


def test_crashed_worker_fails_the_sweep(monkeypatch):
    def crash(problem, cfg, observer=None):
        os._exit(3)

    monkeypatch.setattr(harness, "run_gp", crash)  # inherited by forked workers
    with pytest.raises(BrokenProcessPool):
        scalability_sweep(_tiny_plan(), workers=2)
    assert multiprocessing.active_children() == []


def test_worker_that_died_between_runs_breaks_the_pool():
    problem = order_problem(3)
    with harness.worker_pool(2) as open_pool:
        assert batch_success(problem, "gp", 16, n_runs=4, workers=2)[0]
        conns = open_pool.idle + list(open_pool.busy)
        dead = open_pool.processes[0]
        os.kill(dead.pid, signal.SIGKILL)
        dead.join()
        # both workers are idle, so the next batch sends a run to the dead one
        with pytest.raises(BrokenProcessPool, match="between runs"):
            batch_success(problem, "gp", 16, n_runs=4, workers=2)
    assert len(conns) == 2 and all(conn.closed for conn in conns)
    assert multiprocessing.active_children() == []


def test_scalability_sweep_flags_cells_that_hit_the_ceiling():
    plan = build_plan("trap", sizes=(33,), algorithms=("gp",), delta=1.0,
                      seed_base=1, n_runs=5, ceiling=64)
    rows = scalability_sweep(plan)
    assert len(rows) == 1
    assert rows[0].success_rate < 1.0
    assert rows[0].pop_size == 64


def test_csv_round_trip(tmp_path):
    rows = scalability_sweep(_tiny_plan(seed_base=9))
    path = tmp_path / "rows.csv"
    write_csv(rows, path)
    text = path.read_text()
    # the column order perfbench's checks and read_csv rely on
    assert text.splitlines()[0] == (
        "algorithm,problem,l,num_junk,neg_join,k,delta,max_depth,pop_size,"
        "avg_evaluations,success_rate,seed_base"
    )
    assert read_csv(path) == rows


_FIELD_VALUES = {
    str: st.text(alphabet='gpiordea-_ ,"\n'),
    int: st.integers(),
    float: st.sampled_from([0.1 + 0.2, 1e-300, 0.5]) | st.floats(allow_nan=False),
    bool: st.booleans(),
}


@given(st.lists(st.builds(SweepRow, **{
    name: _FIELD_VALUES[kind] for name, kind in get_type_hints(SweepRow).items()
})))
@example([
    SweepRow("gp", "trap", 12, 2, True, 3, 0.25, 5, 16384, 0.1 + 0.2, 0.5, 7),
    SweepRow("pipe", "order", 20, 4, False, 0, 0.0, 6, 96, 1e-300, 1.0, 1_000_000),
])
def test_read_csv_inverts_write_csv(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        write_csv(rows, path)
        assert read_csv(path) == rows


def test_progress_line_shows_the_csv_values(tmp_path):
    # a solved ORDER cell and a flagged TRAP cell with NEG_JOIN and junk
    plan = SweepPlan("mixed", (
        RowSpec("gp", "order", 2, seed_base=1),
        RowSpec("gp", "trap", 6, k=3, delta=0.5, neg_join=True, num_junk=1, seed_base=2),
    ), n_runs=3, ceiling=32)
    lines = []
    rows = scalability_sweep(plan, log=lines.append)
    assert [r.success_rate < 1.0 for r in rows] == [False, True]
    write_csv(rows, tmp_path / "rows.csv")
    with open(tmp_path / "rows.csv", newline="") as fh:
        header, *records = csv.reader(fh)
    assert [line.split(" ") for line in lines] == [
        ["row"] + [f"{name}={value}" for name, value in zip(header, rec)] for rec in records
    ]


def test_emit_report_writes_csv_and_valid_svg(tmp_path):
    rows = scalability_sweep(_tiny_plan(seed_base=4))
    csv_path, svg_path = emit_report(rows, tmp_path, basename="order")
    assert csv_path.name == "order.csv"
    root = ET.parse(svg_path).getroot()
    assert root.tag.endswith("svg")
    polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
    assert len(polylines) == 2  # one per algorithm series
    texts = [t.text for t in root.findall(".//{http://www.w3.org/2000/svg}text")]
    assert "problem size" in texts
    assert "fitness evaluations" in texts


def test_emit_report_labels_the_x_axis_by_the_swept_field(tmp_path):
    rows = [
        SweepRow("gp", "order", 20, junk, False, 0, 0.0, 6, 64, 100.0 * junk, 1.0, 0)
        for junk in (5, 10)
    ]
    _, svg_path = emit_report(rows, tmp_path, basename="junk-fixed-l", x_field="num_junk")
    root = ET.parse(svg_path).getroot()
    texts = [t.text for t in root.findall(".//{http://www.w3.org/2000/svg}text")]
    assert "junk terminals" in texts
    assert "problem size" not in texts


def test_emit_report_rejects_empty_rows(tmp_path):
    with pytest.raises(ValueError):
        emit_report([], tmp_path)


def test_render_svg_degrades_to_bare_axes_without_points():
    text = render_log_log_svg({"gp": []})
    root = ET.fromstring(text)
    assert not root.findall(".//{http://www.w3.org/2000/svg}polyline")


def test_order_series_monotone_in_problem_size():
    rows = scalability_sweep(build_plan("order", sizes=(5, 10, 20), seed_base=7))
    by_algo = {}
    for row in rows:
        by_algo.setdefault(row.algorithm, []).append((row.l, row.avg_evaluations))
    for algo, pts in by_algo.items():
        evals = [e for _, e in sorted(pts)]
        assert evals == sorted(evals), f"{algo} average evaluations not increasing"


@pytest.mark.slow
def test_trap_needle_is_much_harder_than_order_at_matched_size():
    # hardness companion at the benchmark's default signal delta=1: the trap
    # costs more than order at l=12 already, and at l=33 it cannot even be
    # sized within twice the population that solves order (measured: trap
    # needs ~4x the population and ~4x the evaluations there)
    order_cost_12 = bisect_population_size(
        order_problem(12), "gp", seed_base=3, workers=2
    ).avg_evaluations
    trap_cost_12 = bisect_population_size(
        trap_problem(12, 3, 1.0), "gp", seed_base=3, workers=2
    ).avg_evaluations
    assert trap_cost_12 > order_cost_12
    order_33 = bisect_population_size(order_problem(33), "gp", seed_base=3, workers=2)
    assert order_33.min_pop_size <= 2048
    with pytest.raises(SizingFailure):
        bisect_population_size(
            trap_problem(33, 3, 1.0), "gp", seed_base=3,
            ceiling=2 * order_33.min_pop_size, workers=2,
        )
