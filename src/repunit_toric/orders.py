"""Matrix-defined monomial term orders.

An order is an integer matrix of rank n with n columns, n or more rows and a
strictly positive first row; monomials compare by the sign of the first
nonzero entry of matrix @ (u - v), the lexicographic order of the row
products, and a row the rows above it span never breaks a tie.  Each row is
kept as its nonzero (column, entry) terms, so a unit row costs one term.  The
weighted reverse-lex orders put weights in row one, then single -1 entries
along a variable cheapness sequence; the costliest variable gets none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import intlinalg
from .binomials import Monomial, check_int


@dataclass(frozen=True)
class MatrixOrder:
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(check_int(x, "order entry") for x in r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows[0]) if rows else 0
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("order matrix must be nonempty and rectangular")
        if any(w <= 0 for w in rows[0]):
            raise ValueError("first row of an order matrix must be strictly positive")
        if intlinalg.rank(rows) != n:
            raise ValueError("order matrix must have full column rank")
        object.__setattr__(self, "terms", tuple(tuple((c, x) for c, x in enumerate(r) if x)
                                                for r in rows))

    @property
    def nvars(self) -> int:
        return len(self.rows[0])

    def compare(self, u: Monomial, v: Monomial) -> int:
        """-1, 0 or 1 as u is smaller than, equal to, or larger than v."""
        if len(u) != self.nvars or len(v) != self.nvars:
            raise ValueError("variable count mismatch with order matrix")
        if u == v:
            return 0
        for row in self.terms:
            s = 0
            for c, x in row:
                s += x * (u[c] - v[c])
            if s:
                return 1 if s > 0 else -1
        return 0  # unreachable: rank n forces a nonzero row product

    def sort_key(self):
        """Key ordering monomials as compare does: the tuple of row products."""
        def key(m: Monomial) -> tuple[int, ...]:
            if len(m) != len(self.rows[0]):
                raise ValueError("variable count mismatch with order matrix")
            return tuple(sum(x * m[c] for c, x in row) for row in self.terms)
        return key


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
    every positive weight vector making the two sides weight-equal: lemma3's
    route, apart from the structured families' own rule.
    """
    if not 1 <= i <= n:
        raise ValueError(f"i must be in 1..{n}, got {i}")
    if not 1 <= j <= n - 2:
        raise ValueError(f"j must be in 1..{n - 2}, got {j}")
    if not j + 1 <= k <= n - 1:
        raise ValueError(f"k must be in {j + 1}..{n - 1}, got {k}")
    return i <= j or k + 1 <= i
