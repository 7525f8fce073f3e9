"""Exponent-vector monomials, pure-difference binomials, and integer gradings.

A monomial is a plain tuple of nonnegative ints, one entry per variable.  A
binomial is an ordered pair of monomials read as plus - minus; coefficients
never appear because everything downstream is a difference of two monomials
with coefficients +1 and -1.  Exponent arithmetic is checked against a fixed
limit so silent wraparound can never occur.

Rewriting runs on packed words (Monagan & Pearce, CASC 2007): one Python int
holds a byte-aligned 64-bit field per variable, x_1 lowest: bits 0-30 hold
the value, bit 31 is the carry bit, bit 32 the guard bit, and bits 33-63
stay zero, so pack and unpack are one struct call each.  The int order of
packed words is the order of their reversed tuples.  With the guard bit set
in every field of the monomial
being rewritten, one subtraction of a packed lead never borrows across
fields and leaves every guard bit set exactly when the lead divides; adding
the packed tail then completes the rewrite, and a set carry bit means an
exponent went past EXPONENT_LIMIT.  Subtracting one from every field of a
guarded word likewise leaves set the guard bits of its nonzero fields, its
support pattern.  A RuleIndex lists the rules whose lead support lies inside
each pattern, in insertion order, and meet tests only the list of the
monomial's pattern cut to the union of lead supports: no other lead can
divide it, so each step applies the same rule as a scan of every rule would.
Rewriting is deterministic, so two chains that reach one monomial coincide
from there on; meet steps two chains in turn and stops where they meet
(Baader & Nipkow, Term Rewriting and All That, 1998).  The Buchberger pair
update uses the same words: packed_lcm forms an lcm from one guarded
subtraction and a field mask, and disjoint support patterns mean coprime
monomials.  A packed word that divides another is never the larger int, so
sorting packed lcms lists every proper divisor before its multiples.  A
word of n + d variables whose top d fields are zero is the same int as the
n-variable word of its first n fields, so x >> (FIELD_BITS * n) == 0 tests
that the last d variables are absent, and the word needs no repacking.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from operator import mul
from typing import Iterable, Sequence

EXPONENT_LIMIT = 2**31 - 1
FIELD_BITS = 64  # per variable in a packed word: 31 value bits, carry, guard, 31 zero bits
GUARD_SHIFT = 32  # position of the guard bit in its field; the carry bit sits just below

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
    """Validated exponent tuple; a tuple of plain ints in range is returned as is."""
    if type(exponents) is tuple and {*map(type, exponents)} <= {int} and (
            not exponents or 0 <= min(exponents) and max(exponents) <= EXPONENT_LIMIT):
        return exponents
    return tuple(_check_entry(e) for e in exponents)


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
        if len(self.plus) != len(self.minus):
            raise ValueError(f"variable count mismatch: {len(self.plus)} vs {len(self.minus)}")
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

    def __iter__(self):
        """The two sides, plus then minus, as buchberger reads its inputs."""
        return iter((self.plus, self.minus))

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
        return next(r for r in self.rows if all(x > 0 for x in r))  # one exists, by validation

    def degree(self, m: Monomial) -> tuple[int, ...]:
        if len(m) != self.nvars:
            raise ValueError(f"monomial has {len(m)} variables, grading has {self.nvars}")
        return tuple([sum(map(mul, row, m)) for row in self.rows])


class _Layout(dict):
    # nvars -> (pack, unpack, value-and-carry mask, byte count) of an nvars-variable word
    def __missing__(self, nvars: int) -> tuple:
        fields = struct.Struct(f"<{nvars}Q")  # Q: one unsigned FIELD_BITS-bit field
        value = (1 << GUARD_SHIFT) - 1
        layout = self[nvars] = (fields.pack, fields.unpack,
                                int.from_bytes(fields.pack(*[value] * nvars), "little"),
                                FIELD_BITS // 8 * nvars)
        return layout


_LAYOUT = _Layout()


def pack(m: Monomial) -> int:
    """m as a packed word, x_1 in the lowest field; entries must be in range."""
    return int.from_bytes(_LAYOUT[len(m)][0](*m), "little")


def unpack(x: int, nvars: int) -> Monomial:
    """Exponents of the packed word x, carry bit included; guard bits are ignored."""
    _, fields, mask, size = _LAYOUT[nvars]
    return fields((x & mask).to_bytes(size, "little"))


def guard_bits(nvars: int) -> int:
    """The guard bit of every field of an nvars-variable word."""
    return pack((1 << GUARD_SHIFT,) * nvars)


def packed_lcm(u: int, v: int, guard: int) -> int:
    """lcm of the packed monomials u and v, which carry no guard bits.

    The guarded subtraction leaves a guard bit set in exactly the fields
    where u is at least v; subtracting each such bit shifted down to its
    field's lowest bit spreads it over that field's value and carry bits,
    and the mask then takes those fields from u and the rest from v.
    """
    g = ((u | guard) - v) & guard
    m = g - (g >> GUARD_SHIFT)
    return v ^ ((u ^ v) & m)


class RuleIndex(dict):
    """Packed rules lead -> tail in insertion order, listed by lead support.

    A support pattern is the guard bits of the nonzero fields of a guarded
    word x, (x - ones) & guard; mask is the union of the lead patterns.  The
    index maps each pattern looked up to the rules whose lead support lies
    inside it, in insertion order: only those leads can divide a monomial
    with that support.  A list is built on first lookup, grows with each add.
    """

    def __init__(self, nvars: int, rules: Iterable[tuple[int, int]] = ()) -> None:
        super().__init__()
        self.nvars = nvars
        self.guard = guard_bits(nvars)
        self.ones = self.guard >> GUARD_SHIFT
        self.mask = 0
        self.rules: list[tuple[tuple[int, int], int]] = []  # ((lead, tail), lead pattern)
        for p, q in rules:
            self.add(p, q)

    def add(self, lead: int, tail: int) -> None:
        rule = (lead, tail)
        s = ((lead | self.guard) - self.ones) & self.guard
        self.rules.append((rule, s))
        self.mask |= s
        for pattern, rules in self.items():
            if s & pattern == s:
                rules.append(rule)

    def __missing__(self, pattern: int) -> list[tuple[int, int]]:
        rules = self[pattern] = [r for r, s in self.rules if s & pattern == s]
        return rules


def meet(x: int, y: int | None, index: RuleIndex) -> tuple[int, int]:
    """Rewrite the packed monomials x and y in turn until their chains meet.

    Each step applies the first rule, in insertion order, whose lead
    divides the monomial, from the list under its pattern within index.mask.
    Once one chain is a normal form the other steps alone.  When a chain
    reaches a monomial the other has passed, it comes back twice, else the
    two normal forms, x's first: equal exactly when the normal forms are.
    With y None only x is rewritten.  A field past EXPONENT_LIMIT, in an
    input or after a step taken, raises.  Rules oriented under a term order
    make every step go strictly down, so this terminates.
    """
    guard, ones, mask = index.guard, index.ones, index.mask
    carry = guard >> 1
    a, b = x | guard, (x if y is None else y) | guard
    seen_a, seen_b = {a}, (set() if y is None else {b})
    moving, flip = y is not None, False  # moving: b is not yet a normal form
    while True:
        if (a | b) & carry:
            m = unpack(a if a & carry else b, index.nvars)
            raise ExponentOverflowError(f"rewrite to {m} exceeds {EXPONENT_LIMIT}")
        if a in seen_b:
            return a ^ guard, a ^ guard
        if moving:
            seen_a.add(a)
            a, b, seen_a, seen_b, flip = b, a, seen_b, seen_a, not flip
        for p, q in index[(a - ones) & mask]:
            z = a - p
            if z & guard == guard:
                a = z + q
                break
        else:  # a is a normal form
            if not moving:
                return (b ^ guard, a ^ guard) if flip else (a ^ guard, b ^ guard)
            moving = False
            a, b, seen_a, seen_b, flip = b, a, seen_b, seen_a, not flip


def normal_form(x: int, index: RuleIndex) -> int:
    """Normal form of the packed monomial x: meet with no second chain."""
    return meet(x, None, index)[0]


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
