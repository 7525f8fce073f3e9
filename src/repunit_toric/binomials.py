"""Exponent-vector monomials, pure-difference binomials, and integer gradings.

A monomial is a plain tuple of nonnegative ints, one entry per variable.  A
binomial is an ordered pair of monomials read as plus - minus; coefficients
never appear because everything downstream is a difference of two monomials
with coefficients +1 and -1.  Exponent arithmetic is checked against a fixed
limit so silent wraparound can never occur, mirroring engines that store
exponents in fixed-width words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

EXPONENT_LIMIT = 2**31 - 1

Monomial = tuple


class ExponentOverflowError(OverflowError):
    """Exponent arithmetic left the checked range [0, EXPONENT_LIMIT]."""


def check_int(x: int, what: str) -> int:
    """x itself when it is an int (bool excluded); ValueError naming it otherwise."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise ValueError(f"{what} must be an int, got {x!r}")
    return x


def _check_entry(e: int) -> int:
    check_int(e, "exponent")
    if e < 0:
        raise ValueError(f"exponent must be >= 0, got {e}")
    if e > EXPONENT_LIMIT:
        raise ExponentOverflowError(f"exponent {e} exceeds {EXPONENT_LIMIT}")
    return e


def monomial(exponents: Iterable[int]) -> Monomial:
    """Validated exponent tuple."""
    return tuple(_check_entry(e) for e in exponents)


def one(nvars: int) -> Monomial:
    return (0,) * nvars


def _check_dims(u: Monomial, v: Monomial) -> None:
    if len(u) != len(v):
        raise ValueError(f"variable count mismatch: {len(u)} vs {len(v)}")


def mul(u: Monomial, v: Monomial) -> Monomial:
    _check_dims(u, v)
    w = tuple(a + b for a, b in zip(u, v))
    if any(e > EXPONENT_LIMIT for e in w):
        raise ExponentOverflowError(f"product of {u} and {v} exceeds {EXPONENT_LIMIT}")
    return w


def lcm(u: Monomial, v: Monomial) -> Monomial:
    _check_dims(u, v)
    return tuple(a if a >= b else b for a, b in zip(u, v))


def divides(u: Monomial, v: Monomial) -> bool:
    """True when u divides v entrywise."""
    _check_dims(u, v)
    return all(a <= b for a, b in zip(u, v))


def div(u: Monomial, v: Monomial) -> Monomial:
    """Exact quotient u / v; raises when v does not divide u."""
    if not divides(v, u):
        raise ValueError(f"{v} does not divide {u}")
    return tuple(a - b for a, b in zip(u, v))


def coprime(u: Monomial, v: Monomial) -> bool:
    """True when the supports are disjoint."""
    _check_dims(u, v)
    return all(a == 0 or b == 0 for a, b in zip(u, v))


@dataclass(frozen=True)
class Binomial:
    """Ordered pair plus - minus of equal-length monomials.

    plus == minus is allowed only for the designated zero element, whose
    monomials are both 1.
    """

    plus: Monomial
    minus: Monomial

    def __post_init__(self) -> None:
        object.__setattr__(self, "plus", monomial(self.plus))
        object.__setattr__(self, "minus", monomial(self.minus))
        _check_dims(self.plus, self.minus)
        if self.plus == self.minus and any(self.plus):
            raise ValueError(f"plus == minus != 1 is not a binomial: {self.plus}")

    @classmethod
    def zero(cls, nvars: int) -> "Binomial":
        return cls(one(nvars), one(nvars))

    @classmethod
    def from_vector(cls, u: Sequence[int]) -> "Binomial":
        """Binomial x^(u+) - x^(u-) of an integer vector; 0 maps to zero."""
        plus = tuple(e if e > 0 else 0 for e in u)
        minus = tuple(-e if e < 0 else 0 for e in u)
        return cls(plus, minus)

    @property
    def nvars(self) -> int:
        return len(self.plus)

    def is_zero(self) -> bool:
        return self.plus == self.minus

    def vector(self) -> tuple[int, ...]:
        return tuple(p - q for p, q in zip(self.plus, self.minus))

    def opposite(self) -> "Binomial":
        return Binomial(self.minus, self.plus)

    def canonical(self) -> "Binomial":
        """Orientation-free normal form: the lexicographically larger side first."""
        if self.minus > self.plus:
            return self.opposite()
        return self

    def __str__(self) -> str:
        return format_binomial(self)


@dataclass(frozen=True)
class Grading:
    """Integer multigrading given by matrix rows acting on exponent vectors.

    At least one row must be strictly positive so that every graded piece is
    finite dimensional; that row also certifies termination for the fiber
    enumeration downstream.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(check_int(x, "grading entry") for x in r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise ValueError("grading needs at least one row")
        n = len(rows[0])
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("grading rows must be nonempty and of equal length")
        if not any(all(x > 0 for x in r) for r in rows):
            raise ValueError("grading needs a strictly positive row")

    @classmethod
    def scalar(cls, weights: Sequence[int]) -> "Grading":
        return cls((tuple(weights),))

    @property
    def nvars(self) -> int:
        return len(self.rows[0])

    def positive_row(self) -> tuple[int, ...]:
        for r in self.rows:
            if all(x > 0 for x in r):
                return r
        raise ValueError("no strictly positive row")  # unreachable after validation

    def degree(self, m: Monomial) -> tuple[int, ...]:
        if len(m) != self.nvars:
            raise ValueError(f"monomial has {len(m)} variables, grading has {self.nvars}")
        return tuple(sum(r * e for r, e in zip(row, m)) for row in self.rows)


def is_homogeneous(grading: Grading, f: Binomial) -> bool:
    return grading.degree(f.plus) == grading.degree(f.minus)


def oriented_pair(m1: Monomial, m2: Monomial, order) -> Binomial:
    """Binomial with the order-larger monomial as plus; equal sides give zero."""
    c = order.compare(m1, m2)
    if c == 0:
        return Binomial.zero(len(m1))
    return Binomial(m1, m2) if c > 0 else Binomial(m2, m1)


def oriented(f: Binomial, order) -> Binomial:
    return oriented_pair(f.plus, f.minus, order)


def normal_form(m: Monomial, rules: Sequence[tuple[Monomial, Monomial]]) -> Monomial:
    """Normal form of m under the rewriting rules lead -> tail, taken in order.

    Scans for the first applicable rule and restarts; with every rule
    oriented under a term order each step moves strictly down, so this
    terminates.
    """
    # Hot loop: divisibility and the rewrite are inlined, no helper calls.
    nv = len(m)
    changed = True
    while changed:
        changed = False
        for p, q in rules:
            fits = True
            for t in range(nv):
                if p[t] > m[t]:
                    fits = False
                    break
            if not fits:
                continue
            w = []
            for t in range(nv):
                e = m[t] - p[t] + q[t]
                if e > EXPONENT_LIMIT:
                    raise ExponentOverflowError(f"rewrite of {m} exceeds {EXPONENT_LIMIT}")
                w.append(e)
            m = tuple(w)
            changed = True
            break
    return m


def format_monomial(m: Monomial) -> str:
    parts = []
    for idx, e in enumerate(m, start=1):
        if e == 1:
            parts.append(f"x{idx}")
        elif e > 1:
            parts.append(f"x{idx}^{e}")
    return "*".join(parts) if parts else "1"


def format_binomial(f: Binomial) -> str:
    if f.is_zero():
        return "0"
    return f"{format_monomial(f.plus)} - {format_monomial(f.minus)}"
