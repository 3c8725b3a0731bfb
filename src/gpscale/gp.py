"""Generational GP: binary tournament, subtree crossover at rate 1, whole
population replacement, no mutation and no elitism."""

from __future__ import annotations

import gc
import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from .problems import Evaluator, ProblemSpec, optimum_reachable
from .trees import Node, ramped_half_and_half

# Generations between checks that the optimum is still reachable from the
# symbols left in the population (a lost symbol can never reappear).
REACHABILITY_CHECK_PERIOD = 5
# Subtree crossover's point picks; see :func:`subtree_crossover`.
INTERNAL_NODE_BIAS = 0.9
CROSSOVER_RETRIES = 10
# Generation cap of a run unless its caller sets one.
DEFAULT_MAX_GENERATIONS = 200


@dataclass(frozen=True)
class GpConfig:
    """Run parameters shared by the GP and prototype-tree engines."""

    pop_size: int
    max_depth: int
    max_generations: int = DEFAULT_MAX_GENERATIONS
    seed: int = 0

    def __post_init__(self) -> None:
        if self.pop_size < 2 or self.pop_size % 2:
            raise ValueError(f"pop_size must be even and >= 2, got {self.pop_size}")
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.max_generations < 0:
            raise ValueError(f"max_generations must be >= 0, got {self.max_generations}")


@dataclass(frozen=True)
class RunResult:
    success: bool
    evaluations: int
    generations_used: int
    best_fitness: float


def binary_tournament(fitness: list[float], rng: random.Random) -> int:
    """Index of the winner of two draws from ``fitness``, uniform with
    replacement; the fitter one wins, ties decided by a fair coin."""
    n = len(fitness)
    a = rng.randrange(n)
    b = rng.randrange(n)
    if fitness[a] > fitness[b]:
        return a
    if fitness[b] > fitness[a]:
        return b
    return a if rng.random() < 0.5 else b


def _pick_point(tree: Node, bias: float, rng: random.Random) -> tuple[Node, list[int]]:
    """Crossover point: with probability ``bias``, if the tree has an internal
    node, the k-th internal node in preorder, else the k-th leaf, k uniform
    within the class; returns (node, child-index path).

    With arity-2 functions a subtree of size s holds (s - 1) // 2 internal
    nodes and (s + 1) // 2 leaves, so ``(s - shift) // 2`` counts the chosen
    class and the pick descends on those counts.
    """
    internal = tree.size > 1 and rng.random() < bias
    shift = 1 if internal else -1
    k = rng.randrange((tree.size - shift) // 2)
    path: list[int] = []
    node = tree
    while node.children:
        if internal:  # in preorder a node precedes its subtrees
            if k == 0:
                break
            k -= 1
        left, right = node.children
        left_count = (left.size - shift) // 2
        if k < left_count:
            path.append(0)
            node = left
        else:
            k -= left_count
            path.append(1)
            node = right
    return node, path


def _graft(tree: Node, path: list[int], replacement: Node) -> Node:
    """New tree with the subtree at ``path`` replaced; everything off the
    path is shared with the original.  (A loop, not a recursive closure: a
    closure that calls itself is a reference cycle, which would keep each
    graft's subtrees alive until the next garbage collection.)"""
    spine: list[Node] = []
    node = tree
    for step in path:
        spine.append(node)
        node = node.children[step]
    for step in reversed(path):
        node = spine.pop()
        left, right = node.children
        replacement = Node(
            node.symbol, (replacement, right) if step == 0 else (left, replacement)
        )
    return replacement


def subtree_crossover(
    p1: Node, p2: Node, cfg: GpConfig, rng: random.Random
) -> tuple[Node, Node]:
    """Swap one randomly chosen subtree between the parents.

    Each pick favours internal nodes with probability ``INTERNAL_NODE_BIAS``
    (uniform within the chosen class).  A pick that would push either
    offspring past ``max_depth`` is redrawn, ``CROSSOVER_RETRIES`` times at
    most; after that the parents come back unchanged.
    """
    bias = INTERNAL_NODE_BIAS
    max_depth = cfg.max_depth
    for _ in range(CROSSOVER_RETRIES + 1):
        sub1, path1 = _pick_point(p1, bias, rng)
        sub2, path2 = _pick_point(p2, bias, rng)
        if len(path1) + sub2.depth <= max_depth and len(path2) + sub1.depth <= max_depth:
            return _graft(p1, path1, sub2), _graft(p2, path2, sub1)
    return p1, p2


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for one run.

    A run allocates millions of tree nodes and keeps a whole population of
    them alive, so each full collection rescans that population; at large
    population sizes that cost about a third of GP's run time.  Trees are
    acyclic, and reference counting frees every node a run drops.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _evolve(
    problem: ProblemSpec,
    cfg: GpConfig,
    make_offspring: Callable[[int, list[Node], list[float], random.Random], list[Node] | None],
    observer: Callable[[int, list[Node]], None] | None = None,
) -> RunResult:
    """One run seeded ``cfg.seed``; engines differ only in ``make_offspring``,
    which gets the generation number, its trees, their fitness values (index
    for index) and the run's RNG.

    Termination: optimum found (success), generation cap hit, or the optimum
    has become unreachable from the symbols left in the population (checked
    every few generations; failure either way).

    ``observer`` is called with the generation number and its trees before
    the termination checks, so it sees every generation.  An exception it
    raises ends the run; that is how a pool worker abandons a run.
    """
    with _collector_paused():
        rng = random.Random(cfg.seed)
        evaluator = Evaluator(problem)
        optimum = problem.optimum_fitness
        ps = problem.primitives
        # the reachability cut presumes only the all-positive vector is optimal,
        # which fails for the degenerate trap at delta=0 (all-false ties it)
        check_reachability = problem.trap is None or problem.trap.delta > 0.0
        trees = ramped_half_and_half(ps, cfg.pop_size, cfg.max_depth, rng)
        fitness = [evaluator(t) for t in trees]
        best = max(fitness)
        generation = 0
        while True:
            if observer is not None:
                observer(generation, trees)
            if best >= optimum or generation >= cfg.max_generations:
                break
            if (
                check_reachability
                and generation % REACHABILITY_CHECK_PERIOD == 0
                and not optimum_reachable(trees, ps)
            ):
                break
            trees = make_offspring(generation, trees, fitness, rng)
            if trees is None:  # variation hit a provably absorbing state
                break
            fitness = [evaluator(t) for t in trees]
            generation += 1
            best = max(best, max(fitness))
        return RunResult(best >= optimum, evaluator.evaluations, generation, best)


def run_gp(
    problem: ProblemSpec,
    cfg: GpConfig,
    observer: Callable[[int, list[Node]], None] | None = None,
) -> RunResult:
    """One seeded GP run; crossover applies to every selected pair."""

    def make_offspring(
        generation: int, trees: list[Node], fitness: list[float], rng: random.Random
    ) -> list[Node]:
        parents = [trees[binary_tournament(fitness, rng)] for _ in range(cfg.pop_size)]
        offspring: list[Node] = []
        for i in range(0, cfg.pop_size, 2):
            c1, c2 = subtree_crossover(parents[i], parents[i + 1], cfg, rng)
            offspring.append(c1)
            offspring.append(c2)
        return offspring

    return _evolve(problem, cfg, make_offspring, observer)
