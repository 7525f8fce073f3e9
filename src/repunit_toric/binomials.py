"""Exponent-vector monomials, pure-difference binomials, and integer gradings.

A monomial is a plain tuple of nonnegative ints, one entry per variable.  A
binomial is an ordered pair of monomials read as plus - minus; coefficients
never appear because everything downstream is a difference of two monomials
with coefficients +1 and -1.  Exponent arithmetic is checked against a fixed
limit so silent wraparound can never occur.

Rewriting runs on packed words (Monagan & Pearce, CASC 2007): one Python int
holds a 33-bit field per variable, x_1 lowest, with 31 value bits, a carry
bit and a guard bit.  With the guard bit set in every field of the monomial
being rewritten, one subtraction of a packed lead never borrows across
fields and leaves every guard bit set exactly when the lead divides; adding
the packed tail then completes the rewrite, and a set carry bit means an
exponent went past EXPONENT_LIMIT.  Subtracting one from every field of a
guarded word likewise leaves set the guard bits of its nonzero fields, its
support pattern.  A RuleIndex lists the rules whose lead support lies inside
each pattern, in insertion order, and normal_form tests only the list of the
monomial's current pattern: no other lead can divide it, so each step
applies the same rule as a scan of every rule would.  The Buchberger pair
update uses the same words: packed_lcm forms an lcm from one guarded
subtraction and a field mask, and disjoint support patterns mean coprime
monomials.  A packed word that divides another is never the larger int, so
sorting packed lcms lists every proper divisor before its multiples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

EXPONENT_LIMIT = 2**31 - 1
FIELD_BITS = 33  # per variable in a packed word: 31 value bits, carry, guard

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


def _check_dims(u: Monomial, v: Monomial) -> None:
    if len(u) != len(v):
        raise ValueError(f"variable count mismatch: {len(u)} vs {len(v)}")


def divides(u: Monomial, v: Monomial) -> bool:
    """True when u divides v entrywise."""
    _check_dims(u, v)
    return all(a <= b for a, b in zip(u, v))


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


def pack(m: Monomial) -> int:
    """m as a packed word, x_1 in the lowest field; entries must be in range."""
    x = 0
    for e in reversed(m):
        x = x << FIELD_BITS | e
    return x


def unpack(x: int, nvars: int) -> Monomial:
    """Exponents of the packed word x, carry bit included; guard bits are ignored."""
    mask = (1 << FIELD_BITS - 1) - 1
    return tuple(x >> s & mask for s in range(0, FIELD_BITS * nvars, FIELD_BITS))


def guard_bits(nvars: int) -> int:
    """The guard bit of every field of an nvars-variable word."""
    return pack((1 << FIELD_BITS - 1,) * nvars)


def packed_lcm(u: int, v: int, guard: int) -> int:
    """lcm of the packed monomials u and v, which carry no guard bits.

    The guarded subtraction leaves a guard bit set in exactly the fields
    where u is at least v; subtracting each such bit shifted down to its
    field's lowest bit spreads it over that field's value and carry bits,
    and the mask then takes those fields from u and the rest from v.
    """
    g = ((u | guard) - v) & guard
    m = g - (g >> FIELD_BITS - 1)
    return v ^ ((u ^ v) & m)


class RuleIndex(dict):
    """Packed rules lead -> tail in insertion order, listed by lead support.

    A support pattern is the guard bits of the nonzero fields of a guarded
    word x, (x - ones) & guard.  The index maps each pattern looked up to
    the rules whose lead support lies inside it, in insertion order: only
    those leads can divide a monomial with that support.  A pattern's list
    is built on its first lookup and grows with each add.
    """

    def __init__(self, nvars: int, rules: Iterable[tuple[int, int]] = ()) -> None:
        super().__init__()
        self.guard = guard_bits(nvars)
        self.ones = self.guard >> FIELD_BITS - 1
        self.rules: list[tuple[tuple[int, int], int]] = []  # ((lead, tail), lead pattern)
        for p, q in rules:
            self.add(p, q)

    def add(self, lead: int, tail: int) -> None:
        rule = (lead, tail)
        s = ((lead | self.guard) - self.ones) & self.guard
        self.rules.append((rule, s))
        for pattern, rules in self.items():
            if s & pattern == s:
                rules.append(rule)

    def __missing__(self, pattern: int) -> list[tuple[int, int]]:
        rules = self[pattern] = [r for r, s in self.rules if s & pattern == s]
        return rules


def normal_form(x: int, index: RuleIndex) -> int:
    """Normal form of the packed monomial x under the index's rules, taken in order.

    Each step applies the first rule, in insertion order, whose lead
    divides x; only the rules listed under x's support pattern are tested,
    as no other lead can divide.  With every rule oriented under a term
    order each step moves strictly down, so this terminates.  x may come
    in with a field past EXPONENT_LIMIT but below 2**32, such as the sum
    of two in-range exponents; that raises just as a rewrite going past
    the limit does.
    """
    guard, ones = index.guard, index.ones
    carry = guard >> 1
    x |= guard
    while True:
        if x & carry:
            m = unpack(x, guard.bit_length() // FIELD_BITS)
            raise ExponentOverflowError(f"rewrite to {m} exceeds {EXPONENT_LIMIT}")
        for p, q in index[(x - ones) & guard]:
            y = x - p
            if y & guard == guard:
                x = y + q
                break
        else:
            return x ^ guard


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
