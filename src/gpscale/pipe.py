"""Prototype-tree probabilistic recombination.

Each generation the selected programs are condensed into the smallest tree
covering every program shape, with an independent probability table over
primitives at every position; the next population is drawn from that model.
Tables are plain relative frequencies (no smoothing), normalised over the
programs that actually occupy a position.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate
from typing import Callable

from .primitives import PrimitiveSet, arity
from .problems import ProblemSpec
from .trees import Node, leaf
from .gp import GpConfig, Individual, RunResult, _evolve, binary_tournament


class ModelNode:
    """One model position: probability table plus child models when any
    function has nonzero probability here."""

    __slots__ = ("children", "symbols", "leaves", "cum_counts", "total")

    def __init__(
        self, counts: dict[str, int], total: int, children: tuple["ModelNode", ...]
    ) -> None:
        self.children = children
        # sampling tables: cumulative integer counts, exact and fast; a
        # terminal's entry in ``leaves`` is its shared leaf node, a function's None
        self.symbols = tuple(counts)
        self.leaves = tuple(None if arity(s) else leaf(s) for s in self.symbols)
        self.cum_counts = list(accumulate(counts.values()))
        self.total = total

    @property
    def probs(self) -> dict[str, float]:
        """Symbol -> relative frequency at this position."""
        cum = self.cum_counts
        return {s: (c - b) / self.total for s, c, b in zip(self.symbols, cum, (0, *cum))}

    def __repr__(self) -> str:
        return f"ModelNode({self.probs!r}, children={len(self.children)})"


def build_model(selected: list[Node]) -> ModelNode:
    """Frequency model of the selected programs, positions identified by
    root paths of child indices."""
    if not selected:
        raise ValueError("cannot build a model from an empty selection")
    return _build(selected)


def _build(occupants: list[Node]) -> ModelNode:
    counts: dict[str, int] = {}
    lefts: list[Node] = []
    rights: list[Node] = []
    for node in occupants:
        counts[node.symbol] = counts.get(node.symbol, 0) + 1
        children = node.children
        if children:
            lefts.append(children[0])
            rights.append(children[1])
    children = (_build(lefts), _build(rights)) if lefts else ()
    return ModelNode(counts, len(occupants), children)


def sample_model(model: ModelNode, rng: random.Random) -> Node:
    """Draw one program; recursion mirrors the model, so samples never leave
    it and never exceed the source population's depth."""
    symbols = model.symbols
    if len(symbols) == 1:
        i = 0
    else:
        i = bisect_right(model.cum_counts, rng.random() * model.total)
    node = model.leaves[i]
    if node is None:
        children = model.children
        return Node(
            symbols[i], (sample_model(children[0], rng), sample_model(children[1], rng))
        )
    return node


def dump_model(model: ModelNode, ps: PrimitiveSet) -> str:
    """One line per node: ``path: {SYMBOL=prob,...}``, probabilities to six
    decimals, symbols in the order of ``ps.alphabet``, root path ``/``.

    A model symbol outside ``ps`` raises KeyError rather than being dropped.
    """
    rank = {s: i for i, s in enumerate(ps.alphabet)}
    lines: list[str] = []

    def walk(node: ModelNode, path: str) -> None:
        probs = node.probs
        table = ",".join(f"{s}={probs[s]:.6f}" for s in sorted(probs, key=rank.__getitem__))
        lines.append(f"{path}: {{{table}}}")
        prefix = "" if path == "/" else path
        for i, child in enumerate(node.children):
            walk(child, f"{prefix}/{i}")

    walk(model, "/")
    return "\n".join(lines)


def run_pipe(
    problem: ProblemSpec,
    cfg: GpConfig,
    observer: Callable[[int, list[Individual]], None] | None = None,
    model_observer: Callable[[int, ModelNode], None] | None = None,
) -> RunResult:
    """One seeded run with prototype-tree recombination instead of crossover.

    The loop, selection, and termination contract match :func:`run_gp`; a
    generation whose selected programs are all identical is an absorbing
    state (the model is degenerate and there is no mutation), so the run
    fails immediately instead of replaying it to the generation cap.
    """

    def make_offspring(
        generation: int, pop: list[Individual], rng: random.Random
    ) -> list[Node] | None:
        selected = [binary_tournament(pop, rng) for _ in range(cfg.pop_size)]
        lo = min(ind.fitness for ind in selected)
        hi = max(ind.fitness for ind in selected)
        if lo == hi:
            first = selected[0].tree
            if all(ind.tree == first for ind in selected):
                return None
        model = build_model([ind.tree for ind in selected])
        if model_observer is not None:
            model_observer(generation, model)
        return [sample_model(model, rng) for _ in range(cfg.pop_size)]

    return _evolve(problem, cfg, make_offspring, observer)
