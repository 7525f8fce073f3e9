"""Buchberger engine and saturation for pure-difference binomial ideals.

Everything stays binomial: S-polynomials of binomials are binomials, and
dividing a binomial by oriented binomials is monomial rewriting applied to
its two sides separately.  Inside this module a rule has one form, a pair
(lead, tail) of packed words (see binomials): each input element is packed
once, and tuples are unpacked only to orient a nonzero remainder, to build
a heap key or trace text, and to return binomials.

buchberger keeps one list of packed rules, which pairs name by index, and
one RuleIndex of the live rules, which normal_form reads by support
pattern: each inserted rule is added to it, and it is rebuilt only when a
rule retires.  is_groebner_basis, reduce_gb and ideal_member each index
their fixed rule list once.  Pairs leave a queue in increasing weighted
degree of their lcm.  Each inserted rule runs the Gebauer-Moeller pair
update (Gebauer & Moeller, JSC 6, 1988) without its criterion B: criteria
M and F keep one new pair per minimal lcm, pairs with coprime leads are
never queued, and rules whose lead the new lead divides retire from the
basis.  A queued pair is never dropped.  Reducing more pairs cannot make
the basis wrong, and a pair that criterion B would skip has two sub-pairs
with strictly smaller lcms, which leave the queue first, so for graded
input it reduces to zero.  Each nonzero remainder enlarges the
leading-term ideal strictly, so the loop terminates.  buchberger returns
the live rules in insertion order; reduce_gb lists a basis canonically.

The pair update runs on the same packed words.  A lead's support is its
support pattern, the guard bits of its nonzero fields, as RuleIndex
computes it, so coprime leads are one AND of patterns; a pair's lcm is one
packed_lcm; and every divisibility test in criteria M and F and in
retirement is one guarded subtraction, as it is in is_minimal_basis,
is_reduced_basis and the minimalization in reduce_gb.  The new pairs are
sorted by (packed lcm, shared support, index): a proper divisor is a
smaller packed int, so it comes first just as in a sort by weighted
degree, and each pair is kept or skipped as in that sort.  Only queued
pairs unpack their lcm, for the heap entry (weight, lcm, i, j, big): its
first four fields set the order pairs leave the queue, and big is the
packed lcm that the S-pair is reduced from.  In a trace, the skipped-pair
lines of one insertion follow packed-lcm order; which pairs are skipped,
and by which criterion, does not depend on it.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .binomials import (
    Binomial,
    Grading,
    Monomial,
    RuleIndex,
    format_binomial,
    format_monomial,
    guard_bits,
    normal_form,
    oriented_pair,
    pack,
    packed_lcm,
    unpack,
)
from .orders import MatrixOrder, build_order_i

TraceFn = Callable[[str], None]
Packed = tuple[int, int]  # a rule as packed words


@dataclass(frozen=True)
class GroebnerBasis:
    """Oriented basis elements together with the order that oriented them."""

    elements: tuple[Binomial, ...]
    order: MatrixOrder
    minimal: bool = False
    reduced: bool = False

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def sort_canonical(elements: Iterable[Binomial], order: MatrixOrder) -> tuple[Binomial, ...]:
    """Deterministic listing: ascending leading term, then trailing term."""
    key = order.sort_key()

    def pair_key(g: Binomial):
        return (key(g.plus), key(g.minus))

    return tuple(sorted(elements, key=pair_key))


def _packed(elements: Iterable[Binomial]) -> list[Packed]:
    return [(pack(g.plus), pack(g.minus)) for g in elements]


def _s_sides(big: int, f: Packed, g: Packed, index: RuleIndex) -> tuple[int, int]:
    # Packed normal forms of the two one-step rewrites of the packed lcm
    # big of lt f and lt g; the S-binomial reduces to zero exactly when
    # they agree.  A lead divides big, so big - lead + tail borrows
    # nothing, and normal_form raises when it went past the limit.
    return normal_form(big - f[0] + f[1], index), normal_form(big - g[0] + g[1], index)


def _has_divisor(x: int, words: Iterable[int], guard: int) -> bool:
    # x carries its guard bits; one guarded subtraction per packed word
    for m in words:
        if (x - m) & guard == guard:
            return True
    return False


def buchberger(
    gens: Iterable[Binomial],
    order: MatrixOrder,
    trace: TraceFn | None = None,
) -> GroebnerBasis:
    """Groebner basis of the binomial ideal spanned by gens under order.

    The basis is held as packed rewriting rules (lead, tail); validated
    binomials are built only for the returned basis, which is the set of
    live rules in insertion order (reduce_gb lists them canonically).
    """
    rules: list[Packed] = []  # every rule ever inserted; pairs name rules by index
    support: list[int] = []  # support pattern of rules[k]'s lead
    live: list[int] = []  # rules whose lead no later lead divides
    heap: list[tuple[int, Monomial, int, int, int]] = []  # (weight, lcm, i, j, packed lcm)
    weights = order.rows[0]
    nvars = order.nvars
    index = RuleIndex(nvars)  # the live rules, which normal_form reads
    guard, ones = index.guard, index.ones

    def insert(h: int, t: int) -> None:
        nonlocal index
        # Gebauer-Moeller UPDATE (Becker & Weispfenning, Groebner Bases, 1993)
        # without criterion B, on packed words: ((big | guard) - h) & guard
        # == guard says that h divides big.
        j = len(rules)
        s = ((h | guard) - ones) & guard
        rules.append((h, t))
        support.append(s)
        # Criteria M and F: a new pair whose lcm is divisible by a kept
        # lcm is superfluous.  A proper divisor is a smaller packed int, so
        # it sorts first; among equal lcms a coprime pair does.
        new = [(packed_lcm(rules[i][0], h, guard), support[i] & s != 0, i) for i in live]
        new.sort()
        kept: list[int] = []
        for big, shared, i in new:
            if shared and _has_divisor(big | guard, kept, guard):
                if trace:
                    crit = "F" if big in kept else "M"
                    trace(f"pair ({i},{j}) lcm={format_monomial(unpack(big, nvars))}"
                          f" skipped: criterion {crit}")
                continue
            kept.append(big)
            if shared:
                lcm = unpack(big, nvars)
                heapq.heappush(heap, (sum(map(operator.mul, weights, lcm)), lcm, i, j, big))
            elif trace:
                trace(f"pair ({i},{j}) lcm={format_monomial(unpack(big, nvars))}"
                      " skipped: coprime leads")
        # A rule whose lead h divides is superseded: it makes no new pairs
        # and leaves the basis, while its queued pairs stay.  The index is
        # rebuilt only then, which is rare.
        kept = [i for i in live if ((rules[i][0] | guard) - h) & guard != guard]
        if len(kept) < len(live):
            live[:] = kept
            index = RuleIndex(nvars, (rules[i] for i in live))
        live.append(j)
        index.add(h, t)

    for g in gens:
        c = order.compare(g.plus, g.minus)
        rule = (pack(g.plus), pack(g.minus)) if c > 0 else (pack(g.minus), pack(g.plus))
        if c and rule not in rules:
            insert(*rule)

    while heap:
        _, lcm, i, j, big = heapq.heappop(heap)
        x, y = _s_sides(big, rules[i], rules[j], index)
        if x == y:
            if trace:
                trace(f"pair ({i},{j}) lcm={format_monomial(lcm)} -> 0")
            continue
        p, q = unpack(x, nvars), unpack(y, nvars)
        if order.compare(p, q) < 0:
            x, y, p, q = y, x, q, p
        if trace:
            trace(f"pair ({i},{j}) lcm={format_monomial(lcm)} -> "
                  f"{format_monomial(p)} - {format_monomial(q)}")
        insert(x, y)

    return GroebnerBasis(tuple(Binomial(unpack(p, nvars), unpack(q, nvars))
                               for p, q in (rules[i] for i in live)), order)


def is_groebner_basis(
    elements: Sequence[Binomial],
    order: MatrixOrder,
    trace: TraceFn | None = None,
) -> bool:
    """Deterministic S-pair test: every S-binomial must reduce to zero.

    Sound and complete for binomial systems: monomial rewriting is
    terminating here, so confluence is equivalent to all critical pairs
    joining, and the normal form of each side is unique to compute.
    Only pairs of coprime leads are passed over.
    """
    elems = [g for g in elements if not g.is_zero()]
    for g in elems:
        if order.compare(g.plus, g.minus) <= 0:
            raise ValueError(f"element not oriented under the order: {format_binomial(g)}")
    index = RuleIndex(order.nvars, _packed(elems))
    guard = index.guard
    rules = index.rules  # (rule, support pattern of its lead)
    for j, (g, t) in enumerate(rules):
        for i in range(j):
            f, s = rules[i]
            if not s & t:
                continue
            x, y = _s_sides(packed_lcm(f[0], g[0], guard), f, g, index)
            if x != y:
                if trace:
                    r = oriented_pair(unpack(x, order.nvars), unpack(y, order.nvars), order)
                    trace(f"pair ({i},{j}) leaves remainder {format_binomial(r)}")
                return False
    return True


def _packed_nonzero(elements: Sequence[Binomial]) -> tuple[list[Packed], int]:
    # the nonzero elements as packed (plus, minus) words, and their guard bits
    elems = [g for g in elements if not g.is_zero()]
    nvars = {g.nvars for g in elems}
    if len(nvars) > 1:
        raise ValueError(f"variable count mismatch: {sorted(nvars)}")
    return _packed(elems), guard_bits(nvars.pop() if nvars else 0)


def is_minimal_basis(elements: Sequence[Binomial]) -> bool:
    """No leading term divides another element's leading term."""
    rules, guard = _packed_nonzero(elements)
    for j, (q, _) in enumerate(rules):
        q |= guard
        for i, (p, _) in enumerate(rules):
            if (q - p) & guard == guard and i != j:
                return False
    return True


def is_reduced_basis(elements: Sequence[Binomial]) -> bool:
    """No leading term divides any monomial of any other element."""
    rules, guard = _packed_nonzero(elements)
    for j, (q, r) in enumerate(rules):
        q |= guard
        r |= guard
        for i, (p, _) in enumerate(rules):
            if ((q - p) & guard == guard or (r - p) & guard == guard) and i != j:
                return False
    return True


def reduce_gb(gb: GroebnerBasis) -> GroebnerBasis:
    """Reduced basis: minimal, with every trailing term in normal form.

    The nonzero elements are taken in canonical order, and one is kept
    when no kept lead divides its lead; tail reduction keeps the leads, so
    the listing stays sorted.
    """
    nvars = gb.order.nvars
    guard = guard_bits(nvars)
    rules: list[Packed] = []
    for g in sort_canonical((g for g in gb.elements if not g.is_zero()), gb.order):
        p = pack(g.plus)
        if not _has_divisor(p | guard, (h for h, _ in rules), guard):
            rules.append((p, pack(g.minus)))
    index = RuleIndex(nvars, rules)
    out = tuple(Binomial(unpack(p, nvars), unpack(normal_form(q, index), nvars))
                for p, q in rules)
    return GroebnerBasis(out, gb.order, minimal=True, reduced=True)


def groebner_reduced(gens: Iterable[Binomial], order: MatrixOrder,
                     trace: TraceFn | None = None) -> GroebnerBasis:
    return reduce_gb(buchberger(gens, order, trace))


def ideal_member(f: Binomial, gb: GroebnerBasis) -> bool:
    """Membership: f's two sides share a normal form; gb must be a Groebner basis."""
    index = RuleIndex(f.nvars, _packed(g for g in gb.elements if not g.is_zero()))
    return normal_form(pack(f.plus), index) == normal_form(pack(f.minus), index)


def ideal_equal(
    gens1: Iterable[Binomial],
    gens2: Iterable[Binomial],
    order: MatrixOrder,
    trace: TraceFn | None = None,
) -> bool:
    """Compare two binomial ideals through their reduced bases under order."""
    r1 = groebner_reduced(gens1, order, trace)
    r2 = groebner_reduced(gens2, order, trace)
    return r1.elements == r2.elements


def _strip_variable(g: Binomial, idx: int) -> Binomial:
    c = min(g.plus[idx], g.minus[idx])
    if c == 0:
        return g
    plus = tuple(e - c if k == idx else e for k, e in enumerate(g.plus))
    minus = tuple(e - c if k == idx else e for k, e in enumerate(g.minus))
    return Binomial(plus, minus)


def saturate_variable(
    gens: Iterable[Binomial],
    i: int,
    grading: Grading,
    trace: TraceFn | None = None,
) -> list[Binomial]:
    """Generators of I : x_i^infinity for the graded binomial ideal I.

    One reduced basis under the weighted reverse-lex order with x_i cheapest,
    then one strip (Sturmfels, Groebner Bases and Convex Polytopes, ch. 12):
    for an ideal homogeneous under a positive weight row, x_i divides
    a whole element whenever it divides the leading term, so removing the
    common x_i power from every element gives a Groebner basis of the
    saturation.  Stripping keeps orientation, as both sides lose the same
    monomial.
    """
    if not 1 <= i <= grading.nvars:
        raise ValueError(f"variable index must be in 1..{grading.nvars}, got {i}")
    order = build_order_i(grading.positive_row(), i)
    gb = groebner_reduced(gens, order, trace)
    return [_strip_variable(g, i - 1) for g in gb.elements]


def saturate_torus(
    gens: Iterable[Binomial],
    grading: Grading,
    trace: TraceFn | None = None,
) -> list[Binomial]:
    """Saturation of the ideal by the product of all variables.

    One pass of single-variable saturations: I : (x_1 * ... * x_n)^infinity
    equals (...(I : x_n^infinity) ...) : x_1^infinity, and each step is
    exact, so no second round can strip anything.  Every order gives this
    ideal; x_n first is fixed by measurement, not by theory: the cor-gb2
    relation ideal at (5,6,7) saturates in 0.04 s this way and in 10 s from
    x_1 up (CPython 3.11 on a 2-CPU Xeon).
    """
    for i in range(grading.nvars, 0, -1):
        gens = saturate_variable(gens, i, grading, trace)
    return gens
