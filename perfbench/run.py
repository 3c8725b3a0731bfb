#!/usr/bin/env python3
"""Population-sizing benchmark for gpscale.

    python3 perfbench/run.py --workload gp-order --seed 1 --seconds 30 --trace 0

Runs fixed-seed sizing sweeps through the public harness API (``build_plan``
-> ``scalability_sweep`` -> ``emit_report``) in whole rounds until
``--seconds`` of sweep time have been measured, checks every output, and
prints one JSON object as its last line: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import importlib
import json
import random
import resource
import statistics
import sys
import time
import typing
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

N_RUNS = 10
CEILING = 2**12
# warm-up: one short run per cell of the first round, identical for every seed
WARM_POP = 32
WARM_GENERATIONS = 10
# seconds of measured sweep time between two timed set-ups
SETUP_EVERY = 1.0


@dataclasses.dataclass(frozen=True)
class Workload:
    workers: int
    # (plan name, algorithms, sizes): one sweep each, in this order, per round
    sweeps: tuple[tuple[str, tuple[str, ...], tuple[int, ...]], ...]


WORKLOADS = {
    # GP alone on JOIN-only ORDER: expression and crossover, no PIPE code
    "gp-order": Workload(1, (("order", ("gp",), (5, 8, 10)),)),
    # PIPE alone on ORDER: model build and sampling, no crossover
    "pipe-order": Workload(1, (("order", ("pipe",), (4, 5, 6)),)),
    # the paper's three variant experiments, both engines, two pool workers
    "variants-w2": Workload(
        2,
        (
            ("trap", ("gp", "pipe"), (6,)),
            ("order-neg", ("gp", "pipe"), (5,)),
            ("order-junk", ("gp", "pipe"), (5,)),
        ),
    ),
}


def round_plans(harness, workload: Workload, seed: int, index: int) -> list:
    """The sweeps of round ``index``: every round has fresh seeds."""
    plans = []
    for name, algorithms, sizes in workload.sweeps:
        seed_base = random.Random(f"{seed}/{index}/{name}").randrange(2**40)
        plans.append(
            harness.build_plan(
                name,
                algorithms=algorithms,
                sizes=sizes,
                k=3,
                delta=1.0,
                seed_base=seed_base,
                n_runs=N_RUNS,
                ceiling=CEILING,
            )
        )
    return plans


def _package_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "gpscale" or n.startswith("gpscale.")}


def set_up(workload: Workload, seed: int) -> float:
    """Import the package afresh, build the first round's plans and problems,
    and warm every cell's engine; returns the seconds this took.

    The first call leaves its modules in place for the rounds to use; later
    calls (one per second of measured time, so the median spans the whole
    run) put those modules back afterwards.
    """
    saved = _package_modules()
    for name in saved:
        del sys.modules[name]
    t0 = time.perf_counter()
    harness = importlib.import_module("gpscale.harness")
    gp = importlib.import_module("gpscale.gp")
    for plan in round_plans(harness, workload, seed, 0):
        for spec in plan.rows:
            cfg = gp.GpConfig(
                pop_size=WARM_POP,
                max_depth=spec.resolved_max_depth(),
                max_generations=WARM_GENERATIONS,
                seed=0,
            )
            harness.run_algorithm(spec.algorithm, spec.problem_spec(), cfg)
    seconds = time.perf_counter() - t0
    if saved:
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(saved)
        # typing's caches hold the discarded copies' classes (harness.BatchFn);
        # clear them as CPython's own test runner does, then free the cycles
        for clear in getattr(typing, "_cleanups", ()):
            clear()
        gc.collect()
    return seconds


def cpu_seconds() -> float:
    """CPU time of this process and of every worker it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_round(harness, checks, recorder, workload: Workload, plans, out_dir: Path):
    """Size every cell of one round; returns its measurements and check results."""
    recorder.cells.clear()
    recorder.install()
    try:
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        reports = []
        report_s = 0.0
        for plan in plans:
            rows = harness.scalability_sweep(plan, workers=workload.workers)
            t = time.perf_counter()
            paths = harness.emit_report(rows, out_dir, plan.name, plan.x_field)
            report_s += time.perf_counter() - t
            reports.append((plan, rows, paths))
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
    finally:
        recorder.remove()
    errors: list[str] = []
    attempted = failed = 0
    evals = 0
    cells = iter(recorder.cells)
    for plan, rows, (csv_path, svg_path) in reports:
        errors += checks.report(rows, csv_path, svg_path)
        for spec, row in zip(plan.rows, rows):
            batches = next(cells)
            attempted += 1
            evals += sum(r.evaluations for _, _, results in batches for r in results)
            if row.success_rate < 1.0:  # hit the ceiling
                failed += 1
                continue
            cell_errors = checks.cell(spec, row, batches, plan.n_runs)
            failed += bool(cell_errors)
            errors += cell_errors
    return {
        "wall": wall,
        "cpu": cpu,
        "report_s": report_s,
        "evals": evals,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "reports": reports,
        "cells": list(recorder.cells),
    }


def digest(result) -> tuple[str, str]:
    """Hashes of a round's CSV bytes and of every RunResult it returned."""
    csv_hash = hashlib.sha256()
    for _, _, (csv_path, _) in result["reports"]:
        csv_hash.update(csv_path.read_bytes())
    runs_hash = hashlib.sha256()
    for batches in result["cells"]:
        for pop_size, ok, results in batches:
            runs_hash.update(repr((pop_size, ok, results)).encode())
    return csv_hash.hexdigest()[:16], runs_hash.hexdigest()[:16]


def per_layer_metrics(totals: dict[str, float], rounds: int, overhead: float) -> dict:
    metrics = {}
    for name, value in totals.items():
        unit = "s" if name.endswith((".s", "_s")) else "count"
        metrics[name] = {"value": value / rounds, "unit": unit}
    calls = totals["gp.crossover.calls"]
    metrics["gp.crossover.unchanged_pct"] = {
        "value": 100.0 * totals["gp.crossover.unchanged"] / calls if calls else 0.0,
        "unit": "%",
    }
    executed = totals["harness.runs_executed"]
    metrics["harness.runs_returned_pct"] = {
        "value": 100.0 * totals["harness.runs_returned"] / executed if executed else 0.0,
        "unit": "%",
    }
    metrics["trace.rounds"] = {"value": rounds, "unit": "count"}
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int,
                        help="override the workload's worker count (one-worker reference)")
    args = parser.parse_args(argv)
    if not (SRC / "gpscale" / "__init__.py").is_file():
        print(f"gpscale sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    if args.workers:
        workload = dataclasses.replace(workload, workers=args.workers)
    setup_times = [set_up(workload, args.seed)]
    # bound to the modules of the first set-up, which the rounds use
    from gpscale import harness
    import checks
    import tracing

    out_dir = OUT / args.workload
    errors: list[str] = []
    attempted = failed = 0
    untraced: list[dict] = []
    traced: list[dict] = []
    capture = tracing.Recorder(traced=False)
    tracer = tracing.Recorder(traced=True)
    first = None
    index = 0
    measured = 0.0
    while index == 0 or measured < args.seconds:
        if measured >= len(setup_times) * SETUP_EVERY:
            setup_times.append(set_up(workload, args.seed))
        plans = round_plans(harness, workload, args.seed, index)
        passes = [(untraced, capture)]
        if args.trace:
            passes.append((traced, tracer))
        for sink, recorder in passes:
            result = run_round(harness, checks, recorder, workload, plans, out_dir)
            if first is None:
                first = (plans, [rows for _, rows, _ in result["reports"]], digest(result))
            sink.append(result)
            measured += result["wall"]
            errors += result.pop("errors")
            attempted += result["attempted"]
            failed += result["failed"]
            result.pop("reports")
            result.pop("cells")
        index += 1

    if workload.workers > 1:
        # results must not depend on the worker count: size the last sweep's
        # first cell of round 0 again at one worker
        plans, rows, _ = first
        plan = plans[-1]
        spec, row = plan.rows[0], rows[-1][0]
        again = harness.scalability_sweep(dataclasses.replace(plan, rows=(spec,)), workers=1)
        if again != [row]:
            errors.append(f"one worker sized {spec} as {again}, {workload.workers} as {row}")
    errors += checks.expression(spec for p in first[0] for spec in p.rows)

    csv_digest, runs_digest = first[2]
    print(f"digest workload={args.workload} seed={args.seed} round=0 "
          f"csv={csv_digest} runs={runs_digest}")
    for message in errors[:20]:
        print(f"CHECK FAILED: {message}")
    print(f"checks: {len(errors)} failed; cells attempted={attempted} failed={failed}; "
          f"rounds={len(untraced)}")

    if args.trace:
        overhead = 100.0 * (
            sum(r["wall"] for r in traced) / sum(r["wall"] for r in untraced) - 1.0
        )
        totals = tracer.totals()
        totals["harness.report.s"] = sum(r["report_s"] for r in traced)
        metrics = per_layer_metrics(totals, len(traced), overhead)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "trace.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    else:
        walls = [r["wall"] for r in untraced]
        # ru_maxrss is in KiB; RUSAGE_CHILDREN reports the largest reaped
        # worker, and stays 0 at one worker, where no worker is started
        self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        peak_mib = (self_kib + workload.workers * child_kib) / 1024
        metrics = {
            "wall_s": {"value": statistics.fmean(walls), "unit": "s"},
            "evals_per_s": {"value": sum(r["evals"] for r in untraced) / sum(walls), "unit": "1/s"},
            "cpu_s": {"value": statistics.fmean(r["cpu"] for r in untraced), "unit": "s"},
            "peak_rss_mb": {"value": peak_mib, "unit": "MiB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not errors,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
