"""Expression of program trees and the ORDER/TRAP fitness functions.

Expression walks the leaves left to right: junk leaves are dropped, a leaf
under a NEG_JOIN ancestor flips polarity once, and the first surviving
occurrence of either terminal of a pair decides that pair's bit.  Pairs that
never occur express their negative terminal, i.e. bit False.  Every node
carries its subtree's expression from construction, as a
:data:`gpscale.trees.Summary`, so expressing a tree reads its root.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .primitives import PrimitiveSet
from .trees import Node


@dataclass(frozen=True)
class TrapParams:
    """Group size ``k`` and signal ``delta`` of the deceptive trap."""

    k: int
    delta: float

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"trap group size k must be >= 2, got {self.k}")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must be in [0, 1], got {self.delta}")


@dataclass(frozen=True)
class ProblemSpec:
    """A fitness landscape: ORDER when ``trap`` is None, TRAP otherwise."""

    primitives: PrimitiveSet
    trap: TrapParams | None = None

    def __post_init__(self) -> None:
        if self.trap is not None and self.primitives.num_pairs % self.trap.k:
            raise ValueError(
                f"num_pairs {self.primitives.num_pairs} is not divisible by "
                f"trap group size {self.trap.k}"
            )

    @property
    def family(self) -> str:
        return "order" if self.trap is None else "trap"

    @cached_property
    def optimum_fitness(self) -> float:
        l = self.primitives.num_pairs
        return float(l) if self.trap is None else float(l // self.trap.k)

    @cached_property
    def _trap_table(self) -> tuple[float, ...]:
        return tuple(trap_subfunction(u, self.trap) for u in range(self.trap.k + 1))

    @cached_property
    def _pair_mask(self) -> int:
        return (1 << self.primitives.num_pairs) - 1

    def mask_fitness(self, eff: int) -> float:
        """Fitness of the expressed bit vector whose bit i is ``eff >> i & 1``:
        one unit per expressed positive terminal on ORDER, the sum of the trap
        subfunction over consecutive k-bit groups on TRAP."""
        if self.trap is None:
            return float((eff & self._pair_mask).bit_count())
        k = self.trap.k
        group = (1 << k) - 1
        table = self._trap_table
        total = 0.0
        for start in range(0, self.primitives.num_pairs, k):
            total += table[(eff >> start & group).bit_count()]
        return total


def order_problem(num_pairs: int, num_junk: int = 0, neg_join: bool = False) -> ProblemSpec:
    return ProblemSpec(PrimitiveSet(num_pairs, num_junk, neg_join))


def trap_problem(
    num_pairs: int,
    k: int = 3,
    delta: float = 1.0,
    num_junk: int = 0,
    neg_join: bool = False,
) -> ProblemSpec:
    return ProblemSpec(PrimitiveSet(num_pairs, num_junk, neg_join), TrapParams(k, delta))


def express(tree: Node, ps: PrimitiveSet) -> list[bool]:
    """Expressed bit vector of a tree: bits[i] is True iff X_{i+1} wins pair i."""
    eff = tree.summary[2]
    return [bool(eff >> i & 1) for i in range(ps.num_pairs)]


def trap_subfunction(u: int, tp: TrapParams) -> float:
    """Deceptive trap over one k-bit group: 1 at u=k, else (1-delta)(1-u/(k-1))."""
    if not 0 <= u <= tp.k:
        raise ValueError(f"u must be in 0..{tp.k}, got {u}")
    if u == tp.k:
        return 1.0
    return (1.0 - tp.delta) * (1.0 - u / (tp.k - 1))


def evaluate(tree: Node, problem: ProblemSpec) -> float:
    """Fitness of one tree (pure; see :class:`Evaluator` for counted calls)."""
    return problem.mask_fitness(tree.summary[2])


class Evaluator:
    """Fitness function of one run; every call bumps the evaluation counter."""

    __slots__ = ("mask_fitness", "evaluations")

    def __init__(self, problem: ProblemSpec) -> None:
        self.mask_fitness = problem.mask_fitness
        self.evaluations = 0

    def __call__(self, tree: Node) -> float:
        self.evaluations += 1
        return self.mask_fitness(tree.summary[2])


def optimum_reachable(trees: list[Node], ps: PrimitiveSet) -> bool:
    """Whether the all-positive optimum is still constructible from the symbols
    present anywhere in ``trees``.

    Variation only rearranges existing symbols (subtree swaps and prototype
    sampling both draw from what the population contains), so once pair i has
    neither X_i nor, with a NEG_JOIN present, ~X_i anywhere, the optimum is
    permanently out of reach.  Reads the root summaries only.
    """
    seen = pos = 0
    neg_join = False
    for tree in trees:
        tree_seen, _, _, tree_pos, tree_neg_join = tree.summary
        seen |= tree_seen
        pos |= tree_pos
        neg_join = neg_join or tree_neg_join
    # with a NEG_JOIN present, either leaf of a pair can express it positively
    full = (1 << ps.num_pairs) - 1
    return (seen if neg_join else pos) & full == full
