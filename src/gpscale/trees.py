"""Program trees: representation, measurement, text format, random generation.

A tree is an immutable value; every variation operator builds new trees and
shares untouched subtrees freely.  Each node carries its subtree size, depth
and expression summary, all derived from its children at construction, so
node picks and depth checks run in O(depth) and expression in O(1).  Nodes
compare by identity; two trees are the same program when their canonical
text (:func:`format_tree`) is equal.
"""

from __future__ import annotations

import random
from typing import Iterator

from .primitives import NEG_JOIN, PrimitiveSet, arity, is_valid_symbol

DEFAULT_RAMP_MIN_DEPTH = 2

# Expression composes bottom-up.  A subtree's summary is four pair-index
# bitmasks and a flag: ``seen`` (pairs with a leaf in it), ``raw`` (pairs whose
# first leaf is positive, ignoring NEG_JOIN), ``eff`` (pairs the subtree
# expresses positively), ``pos`` (pairs with a positive leaf anywhere) and
# whether a NEG_JOIN occurs in it.  Left leaves come first, so a JOIN takes the
# right child's bits only for pairs its left child has not seen; a NEG_JOIN
# flips every leaf below it once, so its ``eff`` is the complement of ``raw``
# within ``seen``.  ``pos`` and the flag do not depend on where the subtree
# sits, and they are what :func:`gpscale.problems.optimum_reachable` reads.
Summary = tuple[int, int, int, int, bool]


class Node:
    """One tree node: a primitive symbol plus its ordered children.

    Terminals carry an empty children tuple; JOIN/NEG_JOIN carry exactly two.
    ``size`` (node count), ``depth`` (edge count to the deepest leaf) and
    ``summary`` (the subtree's :data:`Summary`: ``(seen, raw, eff, pos,
    has_neg_join)``) are derived at construction and must not be mutated.
    """

    __slots__ = ("symbol", "children", "size", "depth", "summary")

    def __init__(self, symbol: str, children: tuple["Node", ...] = ()) -> None:
        self.symbol = symbol
        self.children = children
        if children:
            left, right = children
            self.size = 1 + left.size + right.size
            ld, rd = left.depth, right.depth
            self.depth = 1 + (ld if ld >= rd else rd)
            seen_a, raw_a, eff_a, pos_a, neg_a = left.summary
            seen_b, raw_b, eff_b, pos_b, neg_b = right.summary
            fresh = seen_b & ~seen_a
            seen = seen_a | seen_b
            raw = raw_a | (raw_b & fresh)
            if symbol == NEG_JOIN:
                self.summary = (seen, raw, seen & ~raw, pos_a | pos_b, True)
            else:
                eff = eff_a | (eff_b & fresh)
                self.summary = (seen, raw, eff, pos_a | pos_b, neg_a or neg_b)
        else:
            self.size = 1
            self.depth = 0
            if symbol.startswith("X"):
                bit = 1 << (int(symbol[1:]) - 1)
                self.summary = (bit, bit, bit, bit, False)
            elif symbol.startswith("~X"):
                self.summary = (1 << (int(symbol[2:]) - 1), 0, 0, 0, False)
            else:  # junk
                self.summary = (0, 0, 0, 0, False)

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


def validate_tree(tree: Node, ps: PrimitiveSet) -> None:
    """Raise ValueError on an arity violation or a symbol outside ``ps``."""
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
    symbols = {"full": ps.functions, "grow": ps.alphabet}.get(method)
    if symbols is None:
        raise ValueError(f"unknown generation method {method!r}")
    return _random_tree(symbols, ps.terminals, depth_limit, rng)


def _random_tree(symbols, terminals, depth_left: int, rng: random.Random) -> Node:
    if depth_left == 0:
        return leaf(rng.choice(terminals))
    symbol = rng.choice(symbols)
    if not arity(symbol):
        return leaf(symbol)
    left = _random_tree(symbols, terminals, depth_left - 1, rng)  # left subtree draws first
    return Node(symbol, (left, _random_tree(symbols, terminals, depth_left - 1, rng)))


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
    """Canonical prefix text, e.g. ``(JOIN (NEG_JOIN X1 ~X2) J3)``.

    A preorder walk over a stack, where ``None`` closes a function, so
    nesting depth is bounded by memory, not by the recursion limit.
    """
    parts: list[str] = []
    stack: list[Node | None] = [tree]
    while stack:
        node = stack.pop()
        if node is None:
            parts.append(")")
            continue
        if parts:  # every node but the root follows a space
            parts.append(" ")
        children = node.children
        if children:
            parts.append("(" + node.symbol)
            stack.append(None)
            stack.append(children[1])
            stack.append(children[0])
        else:
            parts.append(node.symbol)
    return "".join(parts)


def parse_tree(text: str) -> Node:
    """Inverse of :func:`format_tree`; raises ValueError on malformed input.

    One pass over the tokens with a stack of open functions, so nesting depth
    is bounded by memory, not by the recursion limit.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise ValueError("empty tree text")
    n = len(tokens)
    pos = 0
    open_functions: list[tuple[str, list[Node]]] = []
    while True:
        if pos >= n:
            raise ValueError("unexpected end of tree text")
        token = tokens[pos]
        pos += 1
        if token == "(":
            if pos >= n:
                raise ValueError("unexpected end of tree text after '('")
            symbol = tokens[pos]
            pos += 1
            if not is_valid_symbol(symbol) or not arity(symbol):
                raise ValueError(f"expected a function symbol after '(', got {symbol!r}")
            open_functions.append((symbol, []))
            continue
        if token == ")":
            raise ValueError("unexpected ')'")
        if not is_valid_symbol(token):
            raise ValueError(f"invalid symbol {token!r}")
        if arity(token):
            raise ValueError(f"function symbol {token!r} needs '(...)' form")
        node = leaf(token)
        while open_functions:  # close every function this subtree completes
            symbol, children = open_functions[-1]
            children.append(node)
            if len(children) < arity(symbol):
                break
            if pos >= n or tokens[pos] != ")":
                raise ValueError(f"missing ')' after {symbol} arguments")
            pos += 1
            open_functions.pop()
            node = Node(symbol, tuple(children))
        else:
            if pos != n:
                raise ValueError(f"trailing tokens after tree: {' '.join(tokens[pos:])!r}")
            return node
