"""Primitive alphabets for the ORDER/TRAP benchmark family.

Symbols are plain interned strings so they double as the canonical text
format: ``JOIN``, ``NEG_JOIN``, ``X3`` (positive terminal of pair 3),
``~X3`` (its complement), ``J2`` (junk terminal 2).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

JOIN = "JOIN"
NEG_JOIN = "NEG_JOIN"

_SYMBOL_RE = re.compile(r"JOIN|NEG_JOIN|~?X[1-9][0-9]*|J[1-9][0-9]*")


def positive_terminal(i: int) -> str:
    return f"X{i}"


def negative_terminal(i: int) -> str:
    return f"~X{i}"


def junk_terminal(j: int) -> str:
    return f"J{j}"


def arity(symbol: str) -> int:
    """2 for the join functions, 0 for every terminal."""
    return 2 if symbol == JOIN or symbol == NEG_JOIN else 0


def is_valid_symbol(token: str) -> bool:
    return _SYMBOL_RE.fullmatch(token) is not None


def symbol_sort_key(symbol: str) -> tuple[int, int]:
    """Canonical ordering: JOIN, NEG_JOIN, X1..Xl, ~X1..~Xl, J1..Jn."""
    if symbol == JOIN:
        return (0, 0)
    if symbol == NEG_JOIN:
        return (1, 0)
    if symbol.startswith("~"):
        return (3, int(symbol[2:]))
    if symbol.startswith("X"):
        return (2, int(symbol[1:]))
    return (4, int(symbol[1:]))


@dataclass(frozen=True)
class PrimitiveSet:
    """Alphabet of one problem instance.

    ``num_pairs`` complementary terminal pairs X_i/~X_i, ``num_junk`` junk
    terminals that expression ignores, and optionally the NEG_JOIN function
    next to the always-present JOIN.
    """

    num_pairs: int
    num_junk: int = 0
    neg_join: bool = False

    def __post_init__(self) -> None:
        if self.num_pairs < 1:
            raise ValueError(f"num_pairs must be >= 1, got {self.num_pairs}")
        if self.num_junk < 0:
            raise ValueError(f"num_junk must be >= 0, got {self.num_junk}")

    @cached_property
    def functions(self) -> tuple[str, ...]:
        return (JOIN, NEG_JOIN) if self.neg_join else (JOIN,)

    @cached_property
    def terminals(self) -> tuple[str, ...]:
        pairs = range(1, self.num_pairs + 1)
        return (
            tuple(positive_terminal(i) for i in pairs)
            + tuple(negative_terminal(i) for i in pairs)
            + tuple(junk_terminal(j) for j in range(1, self.num_junk + 1))
        )

    @cached_property
    def alphabet(self) -> tuple[str, ...]:
        return self.functions + self.terminals

    @cached_property
    def leaf_info(self) -> dict[str, tuple[int, bool] | None]:
        """Terminal symbol -> (0-based pair index, is_positive); None for junk."""
        info: dict[str, tuple[int, bool] | None] = {}
        for i in range(1, self.num_pairs + 1):
            info[positive_terminal(i)] = (i - 1, True)
            info[negative_terminal(i)] = (i - 1, False)
        for j in range(1, self.num_junk + 1):
            info[junk_terminal(j)] = None
        return info

    def __contains__(self, symbol: str) -> bool:
        if symbol == JOIN:
            return True
        if symbol == NEG_JOIN:
            return self.neg_join
        return symbol in self.leaf_info
