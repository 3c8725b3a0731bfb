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
from .gp import GpConfig, RunResult, _evolve, binary_tournament


class ModelNode:
    """One model position: probability table plus child models when any
    function has nonzero probability here.

    ``degenerate`` is True when this position and every one below it hold a
    single symbol.  One symbol gives every occupant the same arity, so by
    induction the model is degenerate exactly when all the programs it was
    built from are identical.
    """

    __slots__ = ("children", "symbols", "leaves", "cum_counts", "total", "degenerate")

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
        self.degenerate = len(counts) == 1 and all(c.degenerate for c in children)

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
    stack = [(model, "/")]  # preorder: children pushed last to first
    while stack:
        node, path = stack.pop()
        probs = node.probs
        table = ",".join(f"{s}={probs[s]:.6f}" for s in sorted(probs, key=rank.__getitem__))
        lines.append(f"{path}: {{{table}}}")
        prefix = "" if path == "/" else path
        for i in reversed(range(len(node.children))):
            stack.append((node.children[i], f"{prefix}/{i}"))
    return "\n".join(lines)


def run_pipe(
    problem: ProblemSpec,
    cfg: GpConfig,
    observer: Callable[[int, list[Node]], None] | None = None,
    model_observer: Callable[[int, ModelNode], None] | None = None,
) -> RunResult:
    """One seeded run with prototype-tree recombination instead of crossover.

    The loop, selection, and termination contract match :func:`run_gp`; a
    generation whose model is degenerate (its selected programs are all
    identical) is an absorbing state, since there is no mutation, so the run
    fails immediately instead of replaying it to the generation cap.
    ``model_observer`` sees every model but that last degenerate one.
    """

    def make_offspring(
        generation: int, trees: list[Node], fitness: list[float], rng: random.Random
    ) -> list[Node] | None:
        selected = [trees[binary_tournament(fitness, rng)] for _ in range(cfg.pop_size)]
        model = build_model(selected)
        if model.degenerate:
            return None
        if model_observer is not None:
            model_observer(generation, model)
        return [sample_model(model, rng) for _ in range(cfg.pop_size)]

    return _evolve(problem, cfg, make_offspring, observer)
