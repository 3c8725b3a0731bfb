"""Seed contract: fixed seeds give fixed results.

The values below were recorded from the code as it stood, and any change
that moves the random stream (a reordered draw, an extra draw, a different
tree shape) shows up here.  A pure refactor or speed-up must leave them
untouched; a change that moves the stream on purpose re-records them and
says so.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from gpscale.gp import GpConfig, RunResult, run_gp
from gpscale.harness import PLAN_NAMES, build_plan, scalability_sweep, write_csv
from gpscale.pipe import run_pipe
from gpscale.problems import order_problem, trap_problem

PROBLEMS = {
    "order": order_problem(6),
    "trap": trap_problem(6, 3, 1.0),
    "neg-join": order_problem(6, neg_join=True),
    "junk": order_problem(6, num_junk=3),
}
ENGINES = {"gp": run_gp, "pipe": run_pipe}

# (problem, engine, pop_size) -> result, at max_depth 4, 30 generations, seed 11
RUNS = {
    ("order", "gp", 32): RunResult(True, 288, 8, 6.0),
    ("order", "gp", 128): RunResult(True, 512, 3, 6.0),
    ("order", "pipe", 32): RunResult(True, 128, 3, 6.0),
    ("order", "pipe", 128): RunResult(True, 384, 2, 6.0),
    ("trap", "gp", 32): RunResult(False, 992, 30, 1.0),
    ("trap", "gp", 128): RunResult(True, 256, 1, 2.0),
    ("trap", "pipe", 32): RunResult(False, 352, 10, 1.0),
    ("trap", "pipe", 128): RunResult(True, 384, 2, 2.0),
    ("neg-join", "gp", 32): RunResult(True, 224, 6, 6.0),
    ("neg-join", "gp", 128): RunResult(True, 256, 1, 6.0),
    ("neg-join", "pipe", 32): RunResult(True, 160, 4, 6.0),
    ("neg-join", "pipe", 128): RunResult(True, 640, 4, 6.0),
    ("junk", "gp", 32): RunResult(False, 352, 10, 5.0),
    ("junk", "gp", 128): RunResult(True, 640, 4, 6.0),
    ("junk", "pipe", 32): RunResult(True, 224, 6, 6.0),
    ("junk", "pipe", 128): RunResult(True, 512, 3, 6.0),
}

# sha256 of the CSV of an ORDER sweep over l=3,4, both engines, 3 runs, seed base 5
SWEEP_CSV_SHA256 = "fd4a9fc203aded4235858c2f96355dccb912f63f7c78b86aabfe445ddfb0f046"

# sha256 of repr(build_plan(name, seed_base=5).rows) for each name in PLAN_NAMES, in order
PLAN_ROWS_SHA256 = "d6af53b54d95918ae519e79aec9dfcd35a9d9f783b6743aa0d80bd94d6cd36f8"

# workload -> (csv, runs): the round-0 digest line of the benchmark at seed 7
BENCHMARK_DIGESTS = {
    "gp-order": ("9e81f403034a5643", "46e5cc453b4f36e6"),
    "pipe-order": ("adf26bae7f4a8926", "ed04029055ff92e2"),
    "variants-w2": ("a93f0deb53a6d2f9", "718495e7b9dbcc9e"),
}
BENCHMARK = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.mark.parametrize("key", sorted(RUNS), ids=lambda key: "-".join(map(str, key)))
def test_fixed_seed_run_result(key):
    problem, engine, pop_size = key
    cfg = GpConfig(pop_size=pop_size, max_depth=4, max_generations=30, seed=11)
    assert ENGINES[engine](PROBLEMS[problem], cfg) == RUNS[key]


@pytest.mark.parametrize("workers", [1, 2])
def test_fixed_seed_sweep_csv(tmp_path, workers):
    plan = build_plan("order", sizes=(3, 4), seed_base=5, n_runs=3)
    path = tmp_path / "order.csv"
    write_csv(scalability_sweep(plan, workers=workers), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SWEEP_CSV_SHA256


def test_default_plans_expand_to_pinned_rows():
    # row order, seed bases and junk-fixed-l's depth-major order, which the
    # sweep CSV above (ORDER l=3,4 only) does not cover
    digest = hashlib.sha256()
    for name in PLAN_NAMES:
        digest.update(repr(build_plan(name, seed_base=5).rows).encode())
    assert [len(build_plan(name).rows) for name in PLAN_NAMES] == [14, 12, 14, 14, 20]
    assert digest.hexdigest() == PLAN_ROWS_SHA256


@pytest.mark.parametrize("workload", sorted(BENCHMARK_DIGESTS))
def test_fixed_seed_benchmark_digest(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCHMARK), "--workload", workload, "--seed", "7",
         "--seconds", "0.1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    csv, runs = BENCHMARK_DIGESTS[workload]
    line = f"digest workload={workload} seed=7 round=0 csv={csv} runs={runs}"
    assert line in proc.stdout.splitlines(), proc.stdout
