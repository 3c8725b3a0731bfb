"""Output checks for the benchmark, against values computed here.

Nothing is compared with a stored copy: optima, evaluation counts, bracket
widths, a reference expression and the report files are all derived from the
inputs the benchmark chose.  Each check returns a list of failure messages;
an empty list means it passed.
"""

from __future__ import annotations

import csv
import dataclasses
import random
import statistics
import xml.etree.ElementTree as ET
from pathlib import Path

from gpscale import harness, problems, trees

# Fixed sample for the expression check, independent of the workload seed.
REFERENCE_SEED = 20050207
REFERENCE_TREES = 60


def cell(spec, row, batches, n_runs: int) -> list[str]:
    """One sized cell: its row, and every batch the harness returned for it.

    ``batches`` holds ``(pop_size, ok, results)`` in probe order.
    """
    where = f"{spec.algorithm} {spec.problem} l={spec.l} seed_base={spec.seed_base}"
    errors: list[str] = []
    optimum = float(spec.l if spec.problem == "order" else spec.l // spec.k)
    for pop_size, ok, results in batches:
        for r in results:
            if r.evaluations != pop_size * (r.generations_used + 1):
                errors.append(f"{where}: pop {pop_size} run spent {r.evaluations} evaluations "
                              f"in {r.generations_used} generations")
            if r.success != (r.best_fitness == optimum) or r.best_fitness > optimum:
                errors.append(f"{where}: pop {pop_size} run success={r.success} "
                              f"best {r.best_fitness}, optimum {optimum}")
        full = len(results) == n_runs and all(r.success for r in results)
        if ok != full:
            errors.append(f"{where}: pop {pop_size} batch ok={ok} with "
                          f"{sum(r.success for r in results)}/{len(results)} solved")
    expected = (spec.algorithm, spec.problem, spec.l, spec.num_junk, spec.neg_join, spec.k,
                spec.delta, spec.resolved_max_depth(), spec.seed_base, 1.0)
    got = (row.algorithm, row.problem, row.l, row.num_junk, row.neg_join, row.k,
           row.delta, row.max_depth, row.seed_base, row.success_rate)
    if got != expected:
        errors.append(f"{where}: row fields {got} != {expected}")
    size = row.pop_size
    passing = [p for p, ok, _ in batches if ok]
    if size % 2 or not passing or size != min(passing):
        errors.append(f"{where}: size {size} is not the smallest passing even probe {passing}")
        return errors
    final = next(results for p, ok, results in batches if p == size and ok)
    if row.avg_evaluations != statistics.fmean(r.evaluations for r in final):
        errors.append(f"{where}: avg_evaluations {row.avg_evaluations} does not match "
                      "the batch at the reported size")
    # bracket: a failing probe within 10% below, or no even size in between
    # (sizes are even, so that means a gap of 2); the harness's floor is 2
    lo = max((p for p, ok, _ in batches if not ok and p < size), default=2)
    if size - lo > max(harness.BRACKET_FRACTION * size, 2):
        errors.append(f"{where}: size {size} is not bracketed (largest failing probe {lo})")
    return errors


def reference_fitness(tree, problem) -> float:
    """Leaf walk, first occurrence wins, NEG_JOIN saturates, junk skipped."""
    bits: dict[int, bool] = {}

    def walk(node, negated: bool) -> None:
        if node.children:
            negated = negated or node.symbol == "NEG_JOIN"
            for child in node.children:
                walk(child, negated)
            return
        symbol = node.symbol
        if symbol.startswith("J"):
            return
        positive = not symbol.startswith("~")
        bits.setdefault(int(symbol.lstrip("~X")), positive != negated)

    walk(tree, False)
    l = problem.primitives.num_pairs
    vector = [bits.get(i, False) for i in range(1, l + 1)]
    if problem.trap is None:
        return float(sum(vector))
    k, delta = problem.trap.k, problem.trap.delta
    total = 0.0
    for start in range(0, l, k):
        u = sum(vector[start : start + k])
        total += 1.0 if u == k else (1.0 - delta) * (1.0 - u / (k - 1))
    return total


def expression(specs) -> list[str]:
    """``evaluate`` and ``Evaluator`` against the reference, per primitive set."""
    errors: list[str] = []
    seen = set()
    for spec in specs:
        problem = spec.problem_spec()
        if problem in seen:
            continue
        seen.add(problem)
        rng = random.Random(REFERENCE_SEED)
        evaluator = problems.Evaluator(problem)
        depth = spec.resolved_max_depth()
        for i in range(REFERENCE_TREES):
            tree = trees.generate_random_tree(
                problem.primitives, rng.randint(0, depth), ("full", "grow")[i % 2], rng
            )
            want = reference_fitness(tree, problem)
            got = (problems.evaluate(tree, problem), evaluator(tree))
            if got != (want, want):
                errors.append(f"{problem}: {trees.format_tree(tree)} scored {got}, "
                              f"reference {want}")
        if evaluator.evaluations != REFERENCE_TREES:
            errors.append(f"{problem}: Evaluator counted {evaluator.evaluations} "
                          f"of {REFERENCE_TREES} calls")
    return errors


def report(rows, csv_path: Path, svg_path: Path) -> list[str]:
    """The CSV reads back through ``csv`` to the rows; the SVG parses as XML."""
    errors: list[str] = []
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        records = list(reader)
        header = reader.fieldnames or []
    fields = {f.name: f for f in dataclasses.fields(harness.SweepRow)}
    if sorted(header) != sorted(fields) or len(records) != len(rows):
        errors.append(f"{csv_path.name}: header {header}, {len(records)} records "
                      f"for {len(rows)} rows")
        return errors
    for rec, row in zip(records, rows):
        for name in header:
            value = getattr(row, name)
            text = rec[name]
            if isinstance(value, bool):
                same = text == ("true" if value else "false")
            elif isinstance(value, (int, float)):
                same = type(value)(text) == value
            else:
                same = text == value
            if not same:
                errors.append(f"{csv_path.name}: {name}={text!r} for {value!r}")
    try:
        root = ET.parse(svg_path).getroot()
    except ET.ParseError as exc:
        errors.append(f"{svg_path.name}: {exc}")
    else:
        if root.tag != "{http://www.w3.org/2000/svg}svg":
            errors.append(f"{svg_path.name}: root element {root.tag}")
    return errors
