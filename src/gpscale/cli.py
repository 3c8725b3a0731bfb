"""Command-line surface: single runs, population sizing, sweeps, and an
expression walk-through for hand-written trees.

Exit codes: 0 on success, 1 when a run or sizing fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Callable, Sequence

from . import harness
from .gp import DEFAULT_MAX_GENERATIONS, GpConfig
from .pipe import dump_model
from .problems import ProblemSpec, evaluate, express, order_problem, trap_problem
from .trees import (default_max_depth, inorder_leaves, minimum_optimum_depth, parse_tree,
                    validate_tree)


def _print_kv(**pairs) -> None:
    for key, value in pairs.items():
        print(f"{key}={harness._csv_value(value)}")


def _at_least(lo: int) -> Callable[[str], int]:
    """argparse ``type=`` for an integer flag that must be >= ``lo``."""

    def integer(text: str) -> int:
        if int(text) < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {text}")
        return int(text)

    return integer


def _add_problem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", choices=("order", "trap"), default="order",
                   help="fitness family (default: order)")
    p.add_argument("--l", type=int, required=True, metavar="N",
                   help="number of complementary terminal pairs")
    _add_trap_flags(p)
    p.add_argument("--neg-join", action="store_true",
                   help="add the NEG_JOIN function to the alphabet")
    p.add_argument("--junk", type=int, default=0, metavar="N",
                   help="number of unique junk terminals (default: 0)")


def _add_trap_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=3, metavar="K",
                   help="trap group size (default: %(default)s)")
    p.add_argument("--delta", type=float, default=1.0, metavar="D",
                   help="trap signal parameter in [0,1] (default: %(default)s)")


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    """One algorithm on one problem instance, as ``run`` and ``bisect`` take."""
    p.add_argument("--algo", choices=harness.ALGORITHMS, required=True)
    _add_problem_flags(p)
    p.add_argument("--max-depth", type=_at_least(0), default=None, metavar="D",
                   help="tree depth budget in edges (default: derived from --l)")
    _add_run_flags(p)


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-gens", type=_at_least(0), default=DEFAULT_MAX_GENERATIONS,
                   metavar="G", help="generation cap per run (default: %(default)s)")
    p.add_argument("--seed", type=_at_least(0), default=0, metavar="S",
                   help="base random seed (default: %(default)s)")


def _add_sizing_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--runs", type=_at_least(1), default=harness.DEFAULT_RUNS, metavar="N",
                   help="runs per batch, all of which must succeed (default: %(default)s)")
    p.add_argument("--pop-ceiling", type=_at_least(harness.START_POP),
                   default=harness.DEFAULT_POP_CEILING, metavar="N",
                   help="abort sizing past this population size (default: %(default)s)")
    p.add_argument("--workers", type=_at_least(1), default=1, metavar="N",
                   help="parallel worker processes (default: %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    """The ``gpscale`` parser; each subcommand's parser sets ``handler`` and
    itself as ``parser``, so a handler reports usage errors under its own
    usage line."""
    parser = argparse.ArgumentParser(
        prog="gpscale",
        description="Tree GP and prototype-tree recombination on the ORDER and "
        "TRAP benchmark families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one seeded run and print its result")
    _add_engine_flags(run)
    run.add_argument("--pop", type=int, required=True, metavar="N",
                     help="population size (even, >= 2)")
    run.add_argument("--dump-model", action="store_true",
                     help="print the run's last prototype-tree model (--algo pipe only)")
    run.set_defaults(handler=_cmd_run, parser=run)

    bisect = sub.add_parser("bisect", help="find the minimal population size "
                            "solving all runs, to a 10%% bracket")
    _add_engine_flags(bisect)
    _add_sizing_flags(bisect)
    bisect.set_defaults(handler=_cmd_bisect, parser=bisect)

    sweep = sub.add_parser("sweep", help="size a plan of instances and write "
                           "CSV + SVG reports")
    sweep.add_argument("--plan", choices=harness.PLAN_NAMES + ("all",), default="order",
                       help="built-in sweep plan, or all of them in turn (default: order)")
    sweep.add_argument("--algo", choices=harness.ALGORITHMS + ("both",), default="both")
    sweep.add_argument("--sizes", type=str, default=None, metavar="A,B,...",
                       help="comma-separated override of the swept sizes of every "
                       "plan: order-junk takes multiples of 5, trap multiples of "
                       "--k, and junk-fixed-l reads them as junk counts at l=20")
    _add_trap_flags(sweep)
    sweep.add_argument("--out", type=str, required=True, metavar="DIR",
                       help="output directory for <plan>.csv and <plan>.svg")
    _add_run_flags(sweep)
    _add_sizing_flags(sweep)
    sweep.set_defaults(handler=_cmd_sweep, parser=sweep)

    express_p = sub.add_parser("express", help="parse a tree, print its leaf "
                               "walk, expression vector, and fitness")
    _add_problem_flags(express_p)
    express_p.add_argument("tree", help="prefix tree text, e.g. "
                           "'(JOIN (NEG_JOIN X1 ~X2) J3)'")
    express_p.set_defaults(handler=_cmd_express, parser=express_p)
    return parser


def _build_problem(args, parser: argparse.ArgumentParser) -> ProblemSpec:
    try:
        if args.problem == "trap":
            return trap_problem(args.l, args.k, args.delta, args.junk, args.neg_join)
        return order_problem(args.l, args.junk, args.neg_join)
    except ValueError as err:
        parser.error(f"--problem/--l/--k/--delta/--junk: {err}")


def _max_depth(args, parser: argparse.ArgumentParser) -> int:
    """``--max-depth``, derived from ``--l`` by default.  One that no optimum
    fits in is a usage error, as every run at it would fail."""
    if args.max_depth is None:
        return default_max_depth(args.l)
    least = minimum_optimum_depth(args.l)
    if args.max_depth < least:
        parser.error(f"--max-depth: no tree {args.max_depth} edges deep holds the "
                     f"{args.l} leaves of an optimum; use at least {least}")
    return args.max_depth


def _cmd_run(args, parser) -> int:
    if args.dump_model and args.algo != "pipe":
        parser.error("--dump-model: only a pipe run has a model; add --algo pipe")
    problem = _build_problem(args, parser)
    max_depth = _max_depth(args, parser)
    try:
        cfg = GpConfig(
            pop_size=args.pop,
            max_depth=max_depth,
            max_generations=args.max_gens,
            seed=args.seed,
        )
    except ValueError as err:  # --max-depth and --max-gens are checked on parsing
        parser.error(f"--pop: {err}")
    last_model: list = []
    engine_options = {}
    if args.dump_model:
        def keep_last(generation, model):
            last_model[:] = [model]

        engine_options["model_observer"] = keep_last
    result = harness.run_algorithm(args.algo, problem, cfg, **engine_options)
    _print_kv(**dataclasses.asdict(result))
    if last_model:
        print(dump_model(last_model[0], problem.primitives))
    return 0 if result.success else 1


def _cmd_bisect(args, parser) -> int:
    problem = _build_problem(args, parser)
    max_depth = _max_depth(args, parser)
    error = None
    try:
        sizing = harness.bisect_population_size(
            problem,
            args.algo,
            args.seed,
            n_runs=args.runs,
            max_depth=max_depth,
            max_generations=args.max_gens,
            ceiling=args.pop_ceiling,
            workers=args.workers,
        )
    except harness.SizingFailure as failure:
        error = failure
        history = failure.history
        outcome = dict(
            sizing_failed=True,
            ceiling=failure.ceiling,
            last_pop_size=failure.last_pop_size,
            success_rate=failure.success_rate,
        )
    else:
        history = sizing.history
        outcome = dict(
            min_pop_size=sizing.min_pop_size,
            avg_evaluations=sizing.avg_evaluations,
            runs=len(sizing.runs),
        )
    for pop_size, ok in history:
        print(f"probe pop_size={pop_size} all_succeeded={harness._csv_value(ok)}")
    _print_kv(**outcome)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args, parser) -> int:
    algorithms = harness.ALGORITHMS if args.algo == "both" else (args.algo,)
    sizes = None
    if args.sizes is not None:
        try:
            sizes = tuple(int(tok) for tok in args.sizes.split(",") if tok)
        except ValueError:
            parser.error(f"--sizes: expected comma-separated integers, got {args.sizes!r}")
        if not sizes:
            parser.error("--sizes: empty size list")
    names = harness.PLAN_NAMES if args.plan == "all" else (args.plan,)
    try:  # every plan is built before any run, so a bad size fails at once
        plans = [
            harness.build_plan(
                name,
                algorithms=algorithms,
                sizes=sizes,
                k=args.k,
                delta=args.delta,
                seed_base=args.seed,
                n_runs=args.runs,
                max_generations=args.max_gens,
                ceiling=args.pop_ceiling,
            )
            for name in names
        ]
    except ValueError as err:
        parser.error(f"--plan/--sizes/--k/--delta: {err}")
    try:  # before any run, so an unusable directory costs no sizing
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as err:
        parser.error(f"--out: {err}")
    flagged = False
    with harness.worker_pool(args.workers):  # one pool serves every plan
        for plan in plans:
            rows = harness.scalability_sweep(plan, workers=args.workers, log=print)
            try:
                csv_path, svg_path = harness.emit_report(
                    rows, args.out, basename=plan.name, x_field=plan.x_field
                )
            except OSError as err:
                print(f"error: cannot write report: {err}", file=sys.stderr)
                return 1
            print(f"wrote {csv_path}")
            print(f"wrote {svg_path}")
            flagged = flagged or any(r.success_rate < 1.0 for r in rows)
    return 1 if flagged else 0


def _cmd_express(args, parser) -> int:
    problem = _build_problem(args, parser)
    try:
        tree = parse_tree(args.tree)
        validate_tree(tree, problem.primitives)
    except ValueError as err:
        parser.error(f"tree: {err}")
    leaves = inorder_leaves(tree)
    bits = express(tree, problem.primitives)
    terminals = problem.primitives.terminals  # X1..Xl, then ~X1..~Xl
    expressed = " ".join(terminals[i if bit else len(bits) + i] for i, bit in enumerate(bits))
    print("leaves=" + " ".join(sym for sym, _ in leaves))
    print("negated_flags=" + "".join("1" if neg else "0" for _, neg in leaves))
    print(f"expressed={expressed}")
    print("bits=" + "".join("1" if b else "0" for b in bits))
    _print_kv(fitness=evaluate(tree, problem))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args, args.parser)


if __name__ == "__main__":
    sys.exit(main())
