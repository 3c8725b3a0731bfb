"""Primitive alphabets for the ORDER/TRAP benchmark family.

Symbols are plain interned strings so they double as the canonical text
format: ``JOIN``, ``NEG_JOIN``, ``X3`` (positive terminal of pair 3),
``~X3`` (its complement), ``J2`` (junk terminal 2).  :class:`PrimitiveSet`
spells an instance's symbols, and its ``alphabet`` is their canonical order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

JOIN = "JOIN"
NEG_JOIN = "NEG_JOIN"

_SYMBOL_RE = re.compile(r"JOIN|NEG_JOIN|~?X[1-9][0-9]*|J[1-9][0-9]*")


def arity(symbol: str) -> int:
    """2 for the join functions, 0 for every terminal."""
    return 2 if symbol == JOIN or symbol == NEG_JOIN else 0


def is_valid_symbol(token: str) -> bool:
    return _SYMBOL_RE.fullmatch(token) is not None


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
            tuple(f"X{i}" for i in pairs)
            + tuple(f"~X{i}" for i in pairs)
            + tuple(f"J{j}" for j in range(1, self.num_junk + 1))
        )

    @cached_property
    def alphabet(self) -> tuple[str, ...]:
        """Every symbol in canonical order: JOIN, NEG_JOIN, X1..Xl, ~X1..~Xl,
        J1..Jn."""
        return self.functions + self.terminals

    def __contains__(self, symbol: str) -> bool:
        return symbol in self.functions or symbol in self.terminals
