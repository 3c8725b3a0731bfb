"""Program trees: representation, measurement, text format, random generation.

A tree is an immutable value; every variation operator builds new trees and
shares untouched subtrees freely.  Each node carries its subtree size and
depth so node picks and depth checks run in O(depth) instead of O(size).
"""

from __future__ import annotations

import random
from typing import Iterator

from .primitives import NEG_JOIN, PrimitiveSet, arity, is_valid_symbol

DEFAULT_RAMP_MIN_DEPTH = 2


class Node:
    """One tree node: a primitive symbol plus its ordered children.

    Terminals carry an empty children tuple; JOIN/NEG_JOIN carry exactly two.
    ``size`` (node count) and ``depth`` (edge count to the deepest leaf) are
    derived at construction and must not be mutated.  ``summary`` caches the
    subtree's expression and reachability masks;
    :func:`gpscale.problems.expression_summary` fills it on first use, so trees
    that share a subtree share that work.
    """

    __slots__ = ("symbol", "children", "size", "depth", "summary")

    def __init__(self, symbol: str, children: tuple["Node", ...] = ()) -> None:
        self.symbol = symbol
        self.children = children
        self.summary = None
        if children:
            left, right = children
            self.size = 1 + left.size + right.size
            ld, rd = left.depth, right.depth
            self.depth = 1 + (ld if ld >= rd else rd)
        else:
            self.size = 1
            self.depth = 0

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Node):
            return NotImplemented
        if self.symbol != other.symbol or self.size != other.size:
            return False
        return self.children == other.children

    def __hash__(self) -> int:
        return hash((self.symbol, self.children))

    def __repr__(self) -> str:  # the canonical text format
        return format_tree(self)


_LEAVES: dict[str, Node] = {}


def leaf(symbol: str) -> Node:
    """The one shared terminal node for ``symbol``; trees are immutable, so a
    leaf object can sit in any number of trees."""
    node = _LEAVES.get(symbol)
    if node is None:
        node = _LEAVES[symbol] = Node(symbol)
    return node


def iter_nodes(tree: Node) -> Iterator[Node]:
    """Preorder iteration over all nodes."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        children = node.children
        if children:
            stack.append(children[1])
            stack.append(children[0])


def inorder_leaves(tree: Node) -> list[tuple[str, bool]]:
    """Terminals in left-to-right order, each flagged True iff some ancestor
    is NEG_JOIN.

    The flag saturates: a second NEG_JOIN ancestor does not toggle it back.
    """
    out: list[tuple[str, bool]] = []
    stack: list[tuple[Node, bool]] = [(tree, False)]
    while stack:
        node, negated = stack.pop()
        children = node.children
        if children:
            flag = negated or node.symbol == NEG_JOIN
            stack.append((children[1], flag))
            stack.append((children[0], flag))
        else:
            out.append((node.symbol, negated))
    return out


def validate_tree(tree: Node, ps: PrimitiveSet, max_depth: int | None = None) -> None:
    """Raise ValueError on an arity violation, a symbol outside ``ps``, or
    (when ``max_depth`` is given) a depth-budget violation."""
    if max_depth is not None and tree.depth > max_depth:
        raise ValueError(f"tree depth {tree.depth} exceeds max depth {max_depth}")
    for node in iter_nodes(tree):
        if node.symbol not in ps:
            raise ValueError(f"symbol {node.symbol!r} is not in the primitive set {ps}")
        if len(node.children) != arity(node.symbol):
            raise ValueError(
                f"node {node.symbol!r} has {len(node.children)} children, "
                f"expected {arity(node.symbol)}"
            )


def minimum_optimum_depth(num_pairs: int) -> int:
    """Smallest edge-depth of a binary join tree with at least ``num_pairs``
    leaves, i.e. ceil(log2(num_pairs))."""
    if num_pairs < 1:
        raise ValueError(f"num_pairs must be >= 1, got {num_pairs}")
    return (num_pairs - 1).bit_length()


def default_max_depth(num_pairs: int) -> int:
    """Run depth budget: one more than the smallest tree holding the optimum."""
    return minimum_optimum_depth(num_pairs) + 1


def generate_random_tree(
    ps: PrimitiveSet, depth_limit: int, method: str, rng: random.Random
) -> Node:
    """Random tree within ``depth_limit`` edges.

    ``full`` puts a uniformly chosen function at every position above the
    limit and a uniform terminal at the limit, so every leaf sits exactly at
    ``depth_limit``.  ``grow`` draws uniformly from the whole alphabet above
    the limit (each symbol equally likely, functions not weighted as a class)
    and from terminals at the limit.
    """
    if depth_limit < 0:
        raise ValueError(f"depth_limit must be >= 0, got {depth_limit}")
    if method == "full":
        return _full(ps.functions, ps.terminals, depth_limit, rng)
    if method == "grow":
        return _grow(ps.alphabet, ps.terminals, depth_limit, rng)
    raise ValueError(f"unknown generation method {method!r}")


def _full(functions, terminals, depth_left: int, rng: random.Random) -> Node:
    if depth_left == 0:
        return leaf(rng.choice(terminals))
    return Node(
        rng.choice(functions),
        (
            _full(functions, terminals, depth_left - 1, rng),
            _full(functions, terminals, depth_left - 1, rng),
        ),
    )


def _grow(alphabet, terminals, depth_left: int, rng: random.Random) -> Node:
    if depth_left == 0:
        return leaf(rng.choice(terminals))
    symbol = rng.choice(alphabet)
    if not arity(symbol):
        return leaf(symbol)
    return Node(
        symbol,
        (
            _grow(alphabet, terminals, depth_left - 1, rng),
            _grow(alphabet, terminals, depth_left - 1, rng),
        ),
    )


def ramp_schedule(pop_size: int, max_depth: int) -> list[tuple[int, str]]:
    """(depth, method) recipe for a half-and-half population.

    Depths ramp from ``DEFAULT_RAMP_MIN_DEPTH`` (clamped down when the budget
    is smaller) to ``max_depth``; the population splits as evenly as possible
    across depths, leftover slots going to the shallow end; each depth is half
    ``full``, half ``grow``, with an odd count favouring ``grow``.
    """
    if pop_size < 2:
        raise ValueError(f"pop_size must be >= 2, got {pop_size}")
    lo = min(DEFAULT_RAMP_MIN_DEPTH, max_depth)
    depths = range(lo, max_depth + 1)
    base, extra = divmod(pop_size, len(depths))
    schedule: list[tuple[int, str]] = []
    for rank, depth in enumerate(depths):
        count = base + (1 if rank < extra else 0)
        n_full = count // 2
        schedule.extend((depth, "full") for _ in range(n_full))
        schedule.extend((depth, "grow") for _ in range(count - n_full))
    return schedule


def ramped_half_and_half(
    ps: PrimitiveSet, pop_size: int, max_depth: int, rng: random.Random
) -> list[Node]:
    """Standard ramped half-and-half initial population (no duplicate check)."""
    return [
        generate_random_tree(ps, depth, method, rng)
        for depth, method in ramp_schedule(pop_size, max_depth)
    ]


def format_tree(tree: Node) -> str:
    """Canonical prefix text, e.g. ``(JOIN (NEG_JOIN X1 ~X2) J3)``."""
    children = tree.children
    if not children:
        return tree.symbol
    return f"({tree.symbol} {format_tree(children[0])} {format_tree(children[1])})"


def parse_tree(text: str) -> Node:
    """Inverse of :func:`format_tree`; raises ValueError on malformed input."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise ValueError("empty tree text")
    pos = 0

    def parse() -> Node:
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of tree text")
        token = tokens[pos]
        pos += 1
        if token == "(":
            if pos >= len(tokens):
                raise ValueError("unexpected end of tree text after '('")
            symbol = tokens[pos]
            pos += 1
            if not is_valid_symbol(symbol) or not arity(symbol):
                raise ValueError(f"expected a function symbol after '(', got {symbol!r}")
            children = tuple(parse() for _ in range(arity(symbol)))
            if pos >= len(tokens) or tokens[pos] != ")":
                raise ValueError(f"missing ')' after {symbol} arguments")
            pos += 1
            return Node(symbol, children)
        if token == ")":
            raise ValueError("unexpected ')'")
        if not is_valid_symbol(token):
            raise ValueError(f"invalid symbol {token!r}")
        if arity(token):
            raise ValueError(f"function symbol {token!r} needs '(...)' form")
        return Node(token)

    tree = parse()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens after tree: {' '.join(tokens[pos:])!r}")
    return tree
