"""Acceptance battery: one test per shipped guarantee, each printing a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The sweep-based checks (6, 7, 9) are marked ``slow``; they size populations
with full 30-run batches and dominate the suite's runtime.
"""

import math
import os
import random
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest

from gpscale import harness
from gpscale.cli import main as cli_main
from gpscale.harness import (
    SizingFailure,
    bisect_population_size,
    build_plan,
    scalability_sweep,
    write_csv,
)
from gpscale.pipe import build_model, sample_model
from gpscale.primitives import PrimitiveSet, arity
from gpscale.problems import (
    TrapParams,
    evaluate,
    order_problem,
    trap_problem,
    trap_subfunction,
)
from gpscale.trees import Node, generate_random_tree, parse_tree

WORKERS = min(2, os.cpu_count() or 1)


@contextmanager
def criterion(cid, summary):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {cid}: FAIL - {summary}", flush=True)
        raise
    print(f"\nACCEPTANCE {cid}: PASS - {summary}", flush=True)


def _fit_slope(points):
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
        (x - mean_x) ** 2 for x in xs
    )


def test_c01_worked_example_fidelity():
    with criterion(1, "worked-example trees evaluate to their published fitness"):
        order4 = parse_tree("(JOIN (JOIN ~X3 X1) (JOIN (JOIN ~X1 ~X2) (JOIN X4 ~X3)))")
        assert evaluate(order4, order_problem(4)) == 2.0
        junk4 = parse_tree("(JOIN (JOIN ~X3 J1) (JOIN (JOIN ~X1 X2) (JOIN J2 X4)))")
        assert evaluate(junk4, order_problem(4, num_junk=2)) == 2.0
        neg2 = parse_tree("(NEG_JOIN ~X1 X2)")
        assert evaluate(neg2, order_problem(2, neg_join=True)) == 1.0


def test_c02_trap_table():
    with criterion(2, "trap subfunction reproduces the published k=4 and k=3 profiles"):
        quarter = TrapParams(4, 0.25)
        expected = [0.75, 0.5, 0.25, 0.0, 1.0]
        for u, want in enumerate(expected):
            assert abs(trap_subfunction(u, quarter) - want) <= 1e-12
        needle = TrapParams(3, 1.0)
        for u in range(3):
            assert trap_subfunction(u, needle) == 0.0
        assert trap_subfunction(3, needle) == 1.0


def _all_trees(ps, max_depth):
    trees = [Node(t) for t in ps.terminals]
    if max_depth == 0:
        return trees
    shallower = _all_trees(ps, max_depth - 1)
    for f in ps.functions:
        for left in shallower:
            for right in shallower:
                trees.append(Node(f, (left, right)))
    return trees


def _brute_force_evaluate(tree, problem):
    # independent evaluator: recursive leaf gather, dict-based first occurrence,
    # Fraction arithmetic for the trap sum
    def gather(node, negs):
        if not node.children:
            return [(node.symbol, negs)]
        bump = 1 if node.symbol == "NEG_JOIN" else 0
        return gather(node.children[0], negs + bump) + gather(node.children[1], negs + bump)

    first = {}
    for symbol, negs in gather(tree, 0):
        if symbol.startswith("J"):
            continue
        positive = not symbol.startswith("~")
        index = int(symbol.lstrip("~X"))
        if negs:
            positive = not positive
        first.setdefault(index, positive)
    bits = [first.get(i, False) for i in range(1, problem.primitives.num_pairs + 1)]
    if problem.trap is None:
        return float(len([b for b in bits if b]))
    k, delta = problem.trap.k, Fraction(problem.trap.delta)
    total = Fraction(0)
    for start in range(0, len(bits), k):
        u = sum(bits[start : start + k])
        total += 1 if u == k else (1 - delta) * (1 - Fraction(u, k - 1))
    return float(total)


def test_c03_oracle_equivalence():
    with criterion(3, "evaluate() matches a brute-force oracle on every small tree"):
        cases = [trap_problem(2, 2, 0.5), order_problem(3)]
        checked = 0
        for problem in cases:
            for tree in _all_trees(problem.primitives, 2):
                assert evaluate(tree, problem) == _brute_force_evaluate(tree, problem)
                checked += 1
        assert checked == 404 + 1770


def _assert_sample_within(tree, model, depth_bound):
    assert tree.depth <= depth_bound
    stack = [(tree, model)]
    while stack:
        node, mnode = stack.pop()
        assert mnode.probs.get(node.symbol, 0.0) > 0.0  # never leaves the model
        children = node.children
        assert len(children) == arity(node.symbol)  # arity validity
        if children:
            mleft, mright = mnode.children
            stack.append((children[0], mleft))
            stack.append((children[1], mright))


@pytest.mark.slow
def test_c04_pipe_model_soundness_fuzz():
    with criterion(4, "10^6 fuzzed build/sample cycles stay sound"):
        rng = random.Random(20250808)
        variants = [
            PrimitiveSet(l, junk, neg)
            for l in (1, 3, 5)
            for junk in (0, 2)
            for neg in (False, True)
        ]
        n_models = 50_000
        samples_per_model = 20
        total_samples = 0
        for i in range(n_models):
            ps = variants[i % len(variants)]
            pop = [
                generate_random_tree(
                    ps, rng.randrange(5), "grow" if j & 1 else "full", rng
                )
                for j in range(1 + i % 4)
            ]
            model = build_model(pop)
            stack = [model]
            while stack:  # tables are proper distributions
                mnode = stack.pop()
                assert abs(sum(mnode.probs.values()) - 1.0) <= 1e-9
                stack.extend(mnode.children)
            depth_bound = max(t.depth for t in pop)
            for _ in range(samples_per_model):
                _assert_sample_within(sample_model(model, rng), model, depth_bound)
                total_samples += 1
        assert total_samples == 1_000_000


def test_c05_bisection_correctness_against_stub():
    with criterion(5, "bisection brackets a hidden threshold of 73 to within 10%"):
        from gpscale.gp import RunResult

        def stub(pop_size):
            ok = pop_size >= 73
            return ok, [RunResult(ok, pop_size, 1, 1.0)] * 30

        def batch(problem, algo, pop_size, *args, **kwargs):
            return stub(pop_size)

        # the stub stands in for every probe batch of the production sizing
        with mock.patch.object(harness, "batch_success", batch):
            sizing = bisect_population_size(order_problem(1), "gp")
        assert 73 <= sizing.min_pop_size <= 80
        failures = [n for n, ok in sizing.history if not ok]
        assert sizing.min_pop_size - max(failures) <= 0.10 * sizing.min_pop_size


@pytest.mark.slow
def test_c06_order_scalability_is_low_order_polynomial():
    with criterion(6, "ORDER sweep sizes 30/30 and both log-log slopes stay below 3"):
        plan = build_plan("order", sizes=(5, 10, 20, 40), seed_base=0)
        rows = scalability_sweep(plan, workers=WORKERS, log=print)
        assert all(r.success_rate == 1.0 for r in rows)
        for algo in ("gp", "pipe"):
            points = [(r.l, r.avg_evaluations) for r in rows if r.algorithm == algo]
            slope = _fit_slope(points)
            print(f"criterion-6 {algo} slope={slope:.3f}")
            assert slope < 3.0, f"{algo} log-log slope {slope:.3f} is not below 3"


@pytest.mark.slow
def test_c07_trap_hardness_signature():
    # The trap cells run at delta=0.25 under a 2^14 population ceiling, the
    # largest bracket-and-halve search that finishes inside this check's
    # 30-minute budget on a 2-core box. Known to fail at l>=12: the interior
    # gradient rewards expressing nothing, the positive terminals go extinct
    # within a few generations, and the measured per-run success rate is still
    # only ~1/3 at the ceiling (~0.95 extrapolated at 2^18), so a 30/30 batch
    # is out of reach at any affordable size. See README for the discussion.
    with criterion(7, "TRAP delta=0.25 sizes at l=6,12,18 with super-polynomial cost"):
        ceiling = 2**14
        costs = {}
        failures = {}
        for l in (6, 12, 18):
            try:
                sizing = bisect_population_size(
                    trap_problem(l, 3, 0.25),
                    "gp",
                    seed_base=0,
                    ceiling=ceiling,
                    workers=WORKERS,
                )
                costs[l] = sizing.avg_evaluations
                print(f"criterion-7 trap l={l}: pop={sizing.min_pop_size} "
                      f"avg={sizing.avg_evaluations:.0f}")
            except SizingFailure as failure:
                failures[l] = failure
                print(f"criterion-7 trap l={l}: SIZING FAILED ({failure})")
        order_cost = bisect_population_size(
            order_problem(12), "gp", seed_base=0, workers=WORKERS
        ).avg_evaluations
        print(f"criterion-7 order l=12: avg={order_cost:.0f}")
        assert not failures, (
            f"trap sizing at delta=0.25 failed for l={sorted(failures)} "
            f"(population ceiling {ceiling}); deceptive selection drives the "
            f"positive terminals extinct before groups assemble"
        )
        assert costs[12] >= 5 * order_cost
        lo = math.log(costs[12] / costs[6]) / 6
        hi = math.log(costs[18] / costs[12]) / 6
        assert hi > lo, "per-size log growth must steepen (upward convexity)"


def test_c08_trap33_sizing_failure_is_reported():
    with criterion(8, "TRAP l=33 needle hits the population ceiling and reports cleanly"):
        with pytest.raises(SizingFailure) as exc:
            bisect_population_size(
                trap_problem(33, 3, 1.0), "gp", seed_base=0, ceiling=256,
                workers=WORKERS,
            )
        assert exc.value.last_pop_size == 256
        assert exc.value.success_rate < 1.0
        exit_code = cli_main([
            "bisect", "--algo", "gp", "--problem", "trap", "--l", "33",
            "--delta", "1.0", "--pop-ceiling", "256", "--seed", "0",
        ])
        assert exit_code == 1


@pytest.mark.slow
def test_c09_junk_tolerance():
    with criterion(9, "ORDER l=20 tolerates 5..20 junk terminals within a 4x cost band"):
        avg = {}
        for algo in ("gp", "pipe"):
            for junk in (5, 10, 20):
                sizing = bisect_population_size(
                    order_problem(20, num_junk=junk),
                    algo,
                    seed_base=0,
                    max_depth=7,
                    workers=WORKERS,
                )
                avg[algo, junk] = sizing.avg_evaluations
                print(f"criterion-9 {algo} junk={junk}: pop={sizing.min_pop_size} "
                      f"avg={sizing.avg_evaluations:.0f}")
        for algo in ("gp", "pipe"):
            assert avg[algo, 20] <= 4 * avg[algo, 5], (
                f"{algo}: junk=20 cost {avg[algo, 20]:.0f} exceeds 4x "
                f"junk=5 cost {avg[algo, 5]:.0f}"
            )


def test_c10_sweep_determinism(tmp_path):
    with criterion(10, "repeating a sweep with one seed base reproduces the CSV bytes"):
        outputs = []
        for name in ("first", "second"):
            plan = build_plan("order", sizes=(2, 3), seed_base=123, n_runs=5)
            rows = scalability_sweep(plan)
            path = tmp_path / f"{name}.csv"
            write_csv(rows, path)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]
