#!/usr/bin/env python3
"""Quick self-test of the benchmark (about a minute on two cores):

    python3 perfbench/selftest.py

* every workload in BENCHMARK.json runs one round untraced and one traced; each
  run must print every metric the file names, with its unit, pass its checks,
  and attempt at least one cell with none failed;
* the traced runs see wasted pool work on the two-worker workload only;
* the output checks reject tampered results and agree with hand-worked
  expression examples;
* in a directory holding only BENCHMARK.json and the benchmark, the command
  fails without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_out" / "selftest"


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / HERE.name / "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", "0.1", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_runs(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run(workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0, (
                proc.stdout
            )
            assert any(line.startswith("checks: 0 failed") for line in lines), proc.stdout
            assert any(line.startswith("digest ") for line in lines), proc.stdout
            metrics = result["metrics"]
            assert sorted(metrics) == sorted(m["name"] for m in listed), sorted(metrics)
            for m in listed:
                assert metrics[m["name"]]["unit"] == m["unit"], (m, metrics[m["name"]])
                assert isinstance(metrics[m["name"]]["value"], (int, float)), m
            if trace:
                executed = metrics["harness.runs_executed"]["value"]
                returned = metrics["harness.runs_returned"]["value"]
                if workload.endswith("-w2"):
                    assert executed > returned, (workload, executed, returned)
                else:
                    assert executed == returned, (workload, executed, returned)
            print(f"ok  {workload} --trace {trace}: {len(metrics)} metrics")


def check_checks() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import checks
    from gpscale.gp import RunResult
    from gpscale.harness import RowSpec, SweepRow
    from gpscale.trees import parse_tree
    from gpscale.problems import order_problem, trap_problem

    cases = [
        ("(JOIN (NEG_JOIN X1 ~X2) (JOIN X2 J1))", order_problem(2, 1, True), 1.0),
        ("(JOIN (JOIN ~X1 X1) (JOIN X2 X3))", order_problem(3), 2.0),
        ("(JOIN (JOIN X1 X2) (JOIN X3 ~X4))", trap_problem(6, 3, 1.0), 1.0),
        ("(JOIN (JOIN X1 ~X2) (JOIN ~X3 X4))", trap_problem(6, 3, 0.5), 0.25 + 0.25),
    ]
    for text, problem, want in cases:
        assert checks.reference_fitness(parse_tree(text), problem) == want, text

    spec = RowSpec("gp", "order", 5, max_depth=4, seed_base=7)

    def batch(pop, ok, n=10):
        runs = [RunResult(True, pop * 3, 2, 5.0)] * n
        return (pop, ok, runs if ok else runs[:2] + [RunResult(False, pop * 9, 8, 4.0)])

    batches = [batch(16, False), batch(32, True), batch(24, True), batch(20, False),
               batch(22, True)]
    row = SweepRow("gp", "order", 5, 0, False, 0, 0.0, 4, 22, 66.0, 1.0, 7)
    assert checks.cell(spec, row, batches, 10) == []
    tampered = {
        "size not the smallest passing probe": (
            dataclasses.replace(row, pop_size=24, avg_evaluations=72.0), batches),
        "evaluations off": (row, batches[:-1] + [(22, True, [RunResult(True, 65, 2, 5.0)] * 10)]),
        "success below optimum": (row, [batch(16, False), (32, True,
                                                          [RunResult(True, 96, 2, 4.0)] * 10)]
                                  + batches[2:]),
        "unbracketed": (row, [b for b in batches if b[0] != 20]),
    }
    for name, (bad_row, bad_batches) in tampered.items():
        assert checks.cell(spec, bad_row, bad_batches, 10), name
    print("ok  checks reject tampered cells and match hand-worked fitness values")


def check_refuses_without_sources() -> None:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
    shutil.copytree(HERE, SCRATCH / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("gp-order", 0, cwd=SCRATCH)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    shutil.rmtree(SCRATCH)
    print("ok  refuses to run without the package sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_checks()
    check_refuses_without_sources()
    check_runs(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
