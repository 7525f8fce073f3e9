"""Matrix-defined monomial term orders.

An order is a full-rank square integer matrix whose first row is strictly
positive; monomials compare by the sign of the first nonzero entry of
matrix @ (u - v).  The weighted reverse-lex constructions used everywhere
downstream put a weight vector in row one and then single -1 entries along a
variable cheapness sequence, leaving the most expensive variable without a
row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from typing import Sequence

from . import intlinalg
from .binomials import Monomial, check_int


@dataclass(frozen=True)
class MatrixOrder:
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(check_int(x, "order entry") for x in r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("order matrix must be square and nonempty")
        if any(w <= 0 for w in rows[0]):
            raise ValueError("first row of an order matrix must be strictly positive")
        if intlinalg.rank(rows) != n:
            raise ValueError("order matrix must have full rank")

    @property
    def nvars(self) -> int:
        return len(self.rows)

    def compare(self, u: Monomial, v: Monomial) -> int:
        """-1, 0 or 1 as u is smaller than, equal to, or larger than v."""
        if len(u) != self.nvars or len(v) != self.nvars:
            raise ValueError("variable count mismatch with order matrix")
        if u == v:
            return 0
        d = [a - b for a, b in zip(u, v)]
        for row in self.rows:
            s = sum(r * x for r, x in zip(row, d))
            if s:
                return 1 if s > 0 else -1
        return 0  # unreachable: full rank forces a nonzero row product

    def sort_key(self):
        return cmp_to_key(self.compare)


def _unit_negative_row(n: int, col: int) -> tuple[int, ...]:
    return tuple(-1 if j == col else 0 for j in range(n))


def build_order_i(weights: Sequence[int], i: int) -> MatrixOrder:
    """Weighted reverse-lex order in which x_i is the cheapest variable.

    Row one is the weight vector; the remaining rows hold single -1 entries
    along the cheapness sequence x_i, x_{i-1}, ..., x_1, x_n, ..., with the
    most expensive variable receiving no row.
    """
    w = tuple(check_int(x, "weight") for x in weights)
    n = len(w)
    if n < 1:
        raise ValueError("weights must be nonempty")
    if any(x <= 0 for x in w):
        raise ValueError(f"weights must be strictly positive, got {w}")
    if not 1 <= i <= n:
        raise ValueError(f"cheap variable index must be in 1..{n}, got {i}")
    cheap = cheapness_for_index(n, i)
    rows = [w] + [_unit_negative_row(n, c - 1) for c in cheap[:-1]]
    return MatrixOrder(tuple(rows))


def cheapness_for_index(n: int, i: int) -> tuple[int, ...]:
    """Variable indices from cheapest to most expensive for build_order_i."""
    return tuple(range(i, 0, -1)) + tuple(range(n, i, -1))


def five_variable_order(weights: Sequence[int]) -> MatrixOrder:
    """The specific 5-variable weighted order with tie-break sequence 3, 5, 4, 2."""
    w = tuple(check_int(x, "weight") for x in weights)
    if len(w) != 5:
        raise ValueError(f"this order is defined for 5 variables, got {len(w)}")
    rows = [w] + [_unit_negative_row(5, c - 1) for c in (3, 5, 4, 2)]
    return MatrixOrder(tuple(rows))


def minor_side_predicate(n: int, i: int, j: int, k: int) -> bool:
    """Side classifier for the minor on columns j < k under the x_i-cheap order.

    True exactly when x_j^b * x_{k+1} is the smaller monomial, for every b and
    every positive weight vector making the two sides weight-equal.
    """
    if not 1 <= i <= n:
        raise ValueError(f"i must be in 1..{n}, got {i}")
    if not 1 <= j <= n - 2:
        raise ValueError(f"j must be in 1..{n - 2}, got {j}")
    if not j + 1 <= k <= n - 1:
        raise ValueError(f"k must be in {j + 1}..{n - 1}, got {k}")
    return i <= j or k + 1 <= i
