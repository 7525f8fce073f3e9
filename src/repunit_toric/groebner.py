"""Buchberger engine and saturation for pure-difference binomial ideals.

Everything stays binomial: S-polynomials of binomials are binomials, and
dividing a binomial by oriented binomials is monomial rewriting applied to
its two sides separately.  A rule has one form, a pair (lead, tail) of
packed words (see binomials), and a GroebnerBasis holds its rules so:
buchberger reads each input as its (plus, minus) pair of monomials, a
Binomial unpacking as its two sides, and packs each once; tuples are
unpacked only to orient a nonzero remainder, to build a heap key or trace
text, to sort leads in reduce_gb and, once per basis, for its orientation
pass, which reads the sides families.oriented_basis hands over as they
are; and binomials are built once, when a caller first reads a basis's
elements.

buchberger keeps its rules in one RuleIndex, which pairs name by position
and meet reads by support pattern.  One queue holds inputs and S-pairs,
keyed by the weight under the order's first row of the input's lead or the
pair's lcm; at equal weight pairs leave first, in (lcm, index) order, then
inputs in the order given.  An entry carries two packed sides, an input's
plus and minus or the one-step rewrites of a pair's lcm; at its turn meet
rewrites both until their chains meet, or else to two normal forms, which
become a rule (the homogeneous Buchberger algorithm; Kreuzer & Robbiano,
Computational Commutative Algebra 2, 2005).  Each new rule runs the
Gebauer-Moeller pair update (Gebauer & Moeller, JSC 6, 1988) without its
criterion B, and only over the new pairs whose leads share a variable:
pairs with coprime leads are never formed, and criteria M and F keep one
of the rest per minimal lcm; every pair they keep is queued.  When the
caller promises a saturated ideal, a pair whose two rules' tails share a
variable is settled before criteria M and F and is not queued; it gets no
lcm, and its rule's lead f joins the criterion-M witnesses instead, as the
new lead x divides every new lcm L, so lcm(f, x) divides L exactly when f
does (see buchberger).  Leaving
the coprime pairs out of criterion M changes no skip when no lead divides
another, as a coprime lcm f_k * x divides lcm(f_i, x) only when f_k
divides f_i; on other input fewer pairs are skipped, which stays sound.
A pair that criterion B would skip has two sub-pairs with strictly smaller
lcms, which leave the queue first, so for graded input it reduces to zero.
Each new lead is a normal form and enlarges the leading-term ideal
strictly, so the loop terminates.  The run index, which holds exactly the
rules in rule order, all nonzero, becomes the returned basis's index.

No rule is ever superseded when every input is homogeneous for the first
row, as on every program path (the elimination row, the weight grading,
the projective grading's positive row).  That row is positive and every
remainder is homogeneous, so entries leave in nondecreasing weight and no
present lead outweighs a new one.  No present lead divides the new lead,
a normal form; were the new lead to divide a present one, the two would
weigh the same and so be equal.  The rules are then a minimal basis, and
the inputs that became rules a minimal generating system.  Other input
still gets a Groebner basis, just not a minimal one.  buchberger returns
the rules in insertion order; reduce_gb lists a basis canonically, and
normal-forms the kept tails on the basis's index, for engine output the
run's own.  That is exact: the kept rules and the basis are Groebner bases
of one ideal with one initial ideal, so they have the same standard
monomials, and a monomial's normal form modulo either is the one standard
monomial congruent to it (Becker & Weispfenning, Groebner Bases, 1993).

The pair update runs on packed words: coprime leads and shared tails are
one AND of support patterns, a formed pair's lcm is one packed_lcm, and
each divisibility test in criteria M and F, is_minimal_basis,
is_reduced_basis and reduce_gb is one guarded subtraction.  Formed pairs
are sorted by (packed lcm, index): a proper divisor is a smaller packed
int, so it comes first as in a sort by weighted degree.  In a trace, the
coprime and common-factor lines of one insertion come first, in rule
order, then its M and F lines in packed-lcm order; which pairs are
skipped, and by which criterion, does not depend on it.

The three basis checks read one GroebnerBasis and pass over zero rules;
GroebnerBasis.of packs a list of binomials once for them, and
families.oriented_basis builds the structured families so.  A basis
derives what they read once, on first read: its rules unpacked (sides),
its first misoriented rule (unoriented) and one RuleIndex of its nonzero
rules in rule order (index).  Every check of the basis reads the same
index, and verify's orientation gate the same orientation pass.
is_groebner_basis checks only the pairs that criteria M and F keep, each
rule's pairs with the earlier rules taken as in buchberger.  The kept
pairs and the coprime ones generate the syzygies of the leads, so this is
exact (see is_groebner_basis).  On a structured family of m chain columns
it keeps 2 * C(m, 3) pairs, the rank of the first syzygies in the
Eagon-Northcott complex: 168 open and 240 closed at (3,4,10), i = 5,
where every pair of leads that share a variable came to 212 and 324.  A
kept pair whose sides one rule joins, found by a dict lookup of their
difference, is settled there; only the rest are met on the index, 15 open
and 33 closed at (3,4,10), i = 5.  is_minimal_basis and is_reduced_basis
look each lead and tail up in the index under its support pattern instead
of testing every pair of rules.  This is exact, as a lead divides a
monomial only if the lead's support lies inside the monomial's, and the
index lists exactly the rules whose lead support does; the lists depend
on the rules alone, so the checks share the lists the S-pair meets built,
and the other way round.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

from .binomials import (
    Binomial,
    Grading,
    Monomial,
    RuleIndex,
    format_monomial,
    meet,
    normal_form,
    pack,
    packed_lcm,
    unpack,
)
from .orders import MatrixOrder, build_order_i

TraceFn = Callable[[str], None]
Packed = tuple[int, int]  # a rule as packed words
Sides = tuple[Monomial, Monomial]  # a binomial as its (plus, minus) monomials


@dataclass(frozen=True)
class GroebnerBasis:
    """Basis rules, as packed (lead, tail) words, and their order.

    buchberger, reduce_gb and families.oriented_basis give every rule
    oriented; GroebnerBasis.of takes the plus sides as leads, and
    is_groebner_basis checks them.  What the basis checks read is derived
    once, on first read, and shared by every check of the basis: sides
    lists the rules as unpacked (lead, tail) monomials, unoriented the
    first nonzero rule whose tail the order puts above its lead, or None,
    and index the nonzero rules in one RuleIndex, in rule order.  A maker
    that already holds one of them sets it in their stead: buchberger its
    run index, oriented_basis the sides its minors were checked on.  elements
    lists the rules as binomials.
    """

    rules: tuple[Packed, ...]
    order: MatrixOrder
    inputs: tuple[int, ...] = ()  # from buchberger: positions in gens of the inputs kept as rules

    @cached_property
    def sides(self) -> tuple[Sides, ...]:
        nvars = self.order.nvars
        return tuple((unpack(p, nvars), unpack(q, nvars)) for p, q in self.rules)

    @cached_property
    def unoriented(self) -> Sides | None:
        compare = self.order.compare
        return next(((u, v) for u, v in self.sides if u != v and compare(u, v) < 0), None)

    @cached_property
    def index(self) -> RuleIndex:
        return RuleIndex(self.order.nvars, (r for r in self.rules if r[0] != r[1]))

    @cached_property
    def elements(self) -> tuple[Binomial, ...]:
        return tuple(Binomial(u, v) for u, v in self.sides)

    @classmethod
    def of(cls, elements: Iterable[Binomial], order: MatrixOrder) -> GroebnerBasis:
        """elements as rules under order, in the order given, plus side as lead.

        Each element is packed once; none is oriented, reduced or dropped.
        """
        rules = []
        for g in elements:
            if len(g.plus) != order.nvars:
                raise ValueError("variable count mismatch with order matrix")
            rules.append((pack(g.plus), pack(g.minus)))
        return cls(tuple(rules), order)

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.elements)


def _has_divisor(x: int, words: Iterable[int], guard: int) -> bool:
    # x carries its guard bits; one guarded subtraction per packed word
    for m in words:
        if (x - m) & guard == guard:
            return True
    return False


def buchberger(
    gens: Iterable[Binomial | Sides],
    order: MatrixOrder,
    trace: TraceFn | None = None,
    *,
    saturated: bool = False,
) -> GroebnerBasis:
    """Groebner basis of the binomial ideal spanned by gens under order.

    Each input is a (plus, minus) pair of monomials, a Binomial or a tuple
    of two; a pair whose sides are equal is skipped, and a side whose
    length is not order.nvars raises ValueError.  Inputs and S-pairs share
    one queue (see the module docstring).  The result lists the rules in
    insertion order, its inputs the positions in gens of the inputs that
    became rules, and its index is the run's RuleIndex.  When gens are
    homogeneous for order.rows[0], no lead divides another, and those
    inputs minimally generate the ideal: each left out reduced to zero
    modulo inputs of lower weight and those kept before it at its own.

    With saturated set, the caller promises that gens are homogeneous for
    order.rows[0] and that their ideal I equals its saturation by every
    variable, as a prime ideal without monomials does.  A pair whose two
    sides u and v, the one-step rewrites of its lcm, share a variable then
    needs no reduction, by the truncated-basis argument of the
    homogeneous algorithm (Kreuzer & Robbiano, 2005):
    1. Row one is strictly positive, every input is homogeneous for it,
       and the queue leaves in nondecreasing weight.
    2. If x_s divides u and v, then u - v = x_s * (u' - v'); u' - v' lies
       in I, as I : x_s = I, and weighs strictly less than the lcm.
    3. When the queue reaches the pair's weight, every entry of smaller
       weight has left it, so u' - v' rewrites to zero modulo the rules
       present, and u - v has a standard representation below the lcm.
    4. The final rules are therefore still a Groebner basis of I.  With
       or without the skip no rule is superseded, so the leads are the
       minimal generators of the same leading ideal: the number of rules
       and the reduced basis are the same.

    The sides need not be formed for the test.  By the same argument no
    rule's lead and tail share a variable: both are normal forms when the
    rule is added, and were x_s to divide both, their quotients by x_s,
    two distinct monomials, would rewrite to one normal form, so one of
    them rewrites, and the lead or the tail with it.  The cofactors
    lcm / lead_i and lcm / lead_j have disjoint supports, and lcm / lead_i
    is nonzero only where lead_j exceeds lead_i, so only off tail_j.
    Hence u and v share a variable exactly when the two rules' tails do,
    and one AND of the tails' support patterns, one kept per rule, tests
    it before criteria M and F.  Such a pair gets the trace line
    "pair (i,j) lcm=... skipped: common factor", also where criterion M
    or F would have skipped it; its lcm is formed for that line alone.
    In its stead its rule's lead f_i joins the criterion-M witnesses: the
    new lead x divides every new lcm L, so lcm(f_i, x) divides L exactly
    when f_i does.  The witnesses are all in place before the first
    formed pair is tested, so a formed pair whose lcm equals a settled
    pair's is skipped by criterion M whatever their indices, which is
    sound, as the settled pair stands for that lcm as a queued one would.
    So the pairs queued are those whose sides share no variable and whose
    lcm neither a settled pair's lcm nor an earlier queued pair's
    divides.  On the sweep box (order prec-1) 62,559 pairs have leads
    that share a variable: 47,837 share a tail variable and are settled
    with no lcm, criteria M and F skip 8,404 of the 14,722 formed, and of
    the 6,318 queued 2,967 reduce to zero.  On an ideal that is not
    saturated the skip is unsound and can change the reduced basis, so
    every caller but families.toric_basis keeps the default, under which
    no pair is settled and no lead is a witness.
    """
    weights = order.rows[0]
    nvars = order.nvars
    index = RuleIndex(nvars)
    rules = index.rules  # ((lead, tail), lead support pattern); pairs name rules by position
    guard, ones = index.guard, index.ones
    tails: list[int] = []  # tail support pattern of each rule when saturated, else 0
    inputs: list[int] = []

    def weight(m):
        return sum(map(operator.mul, weights, m))

    # (weight, 0, (lcm, i, j), side, side) for a pair, (weight, 1, k, plus, minus) for input k
    heap: list[tuple] = []
    for k, (u, v) in enumerate(gens):
        if len(u) != nvars or len(v) != nvars:
            raise ValueError("variable count mismatch with order matrix")
        if u != v:
            heap.append((max(weight(u), weight(v)), 1, k, pack(u), pack(v)))
    heapq.heapify(heap)
    while heap:
        _, is_input, key, x, y = heapq.heappop(heap)
        x, y = meet(x, y, index)
        if trace:
            name = f"input {key}" if is_input else (
                f"pair ({key[1]},{key[2]}) lcm={format_monomial(key[0])}")
        if x == y:
            if trace:
                trace(f"{name} -> 0")
            continue
        p, q = unpack(x, nvars), unpack(y, nvars)
        if order.compare(p, q) < 0:
            x, y, p, q = y, x, q, p
        if trace:
            trace(f"{name} -> {format_monomial(p)} - {format_monomial(q)}")
        if is_input:
            inputs.append(key)
        # Gebauer-Moeller UPDATE (Becker & Weispfenning, Groebner Bases, 1993)
        # without criterion B, on packed words, over the pairs whose leads
        # share a variable.  Criteria M and F: a new pair whose lcm a kept
        # lcm or a settled pair's lead divides is superfluous.  A proper
        # divisor is a smaller packed int, so it sorts first.  A coprime lcm
        # f_k * x divides lcm(f_i, x) only when f_k divides f_i, so leaving
        # coprime pairs out of kept changes no skip when no lead divides
        # another, and otherwise only skips fewer pairs.
        j = len(rules)
        s = ((x | guard) - ones) & guard
        t = ((y | guard) - ones) & guard if saturated else 0
        kept: list[int] = []  # the settled pairs' leads, then the queued pairs' lcms
        formed: list[tuple[int, int]] = []
        for i, (((f, _), r), u) in enumerate(zip(rules, tails)):
            if not r & s:
                if trace:
                    trace(f"pair ({i},{j}) lcm={format_monomial(unpack(f + x, nvars))}"
                          " skipped: coprime leads")
            elif u & t:  # the two sides share a variable of both tails
                kept.append(f)  # x divides every new lcm: f divides one iff lcm(f, x) does
                if trace:
                    big = packed_lcm(f, x, guard)
                    trace(f"pair ({i},{j}) lcm={format_monomial(unpack(big, nvars))}"
                          " skipped: common factor")
            else:
                formed.append((packed_lcm(f, x, guard), i))
        for big, i in sorted(formed):
            if _has_divisor(big | guard, kept, guard):
                if trace:
                    crit = "F" if big in kept else "M"
                    trace(f"pair ({i},{j}) lcm={format_monomial(unpack(big, nvars))}"
                          f" skipped: criterion {crit}")
                continue
            kept.append(big)
            f = rules[i][0]
            lcm = unpack(big, nvars)
            heapq.heappush(heap, (weight(lcm), 0, (lcm, i, j), big - f[0] + f[1], big - x + y))
        index.add(x, y)
        tails.append(t)

    gb = GroebnerBasis(tuple(rule for rule, _ in rules), order, inputs=tuple(inputs))
    object.__setattr__(gb, "index", index)  # its nonzero rules in rule order, lists built
    return gb


def is_groebner_basis(basis: GroebnerBasis) -> bool:
    """Deterministic S-pair test: every needed S-binomial must reduce to zero.

    Sound and complete for binomial systems: monomial rewriting is
    terminating here, so confluence is equivalent to the critical pairs
    joining (Newman's lemma), that is, the rewrite chains of its two sides
    meeting, as rewriting is deterministic; meet stops where they meet.
    The nonzero rules of basis, in the order of its index, are taken in
    turn.  Each forms its pairs with the earlier rules whose leads share a
    variable, sorted by packed lcm, and keeps a pair only when no lcm kept
    for it divides the pair's (criteria M and F, as in buchberger).  The
    kept pairs that no one rule joins (below) are then met on the index,
    which holds every nonzero rule.
    This is exact.  A pair (i, j) skipped for a kept (k, j) has f_k
    dividing lcm(f_i, f_j), so lcm(f_i, f_k) divides it too, and its
    syzygy is a combination of those of (k, j) and of the older pair
    (i, k), which was kept, coprime or skipped so in its turn.  The kept
    and the coprime pairs thus generate the syzygies of the leads, a
    coprime pair reduces to zero by itself, and a basis is a Groebner
    basis exactly when the S-binomials of such a generating set reduce to
    zero (Gebauer & Moeller, JSC 6, 1988).  On a structured
    family of m chain columns, m = n - 1 open and n closed, 2 * C(m, 3)
    pairs are kept, the rank of the first syzygies in the Eagon-Northcott
    complex.

    Most kept pairs are settled before meet, by one dict built per call
    from each nonzero rule's lead - tail, the difference of its packed
    words as plain ints, to its leads.  That difference is one-to-one, as
    no field difference comes near 2**63.  A pair with sides u and v,
    neither with a carry bit set, is settled when a lead listed under
    u - v divides u, or one listed under v - u divides v.  That rule then
    rewrites u to v, or v to u, in one step, and both sides lie below the
    pair's lcm, so the S-binomial u - v has a standard representation
    below the lcm, which is all Buchberger's criterion asks (Becker &
    Weispfenning, Groebner Bases, 1993).  Every other pair is met as
    above; a side with a carry bit set reaches meet, which raises.

    A nonzero rule whose tail the order puts above its lead, the basis's
    unoriented rule, raises ValueError.
    """
    bad = basis.unoriented
    if bad is not None:
        raise ValueError("element not oriented under the order: "
                         f"{format_monomial(bad[0])} - {format_monomial(bad[1])}")
    index = basis.index
    rules = index.rules  # ((lead, tail), lead support pattern), the nonzero rules in order
    guard = index.guard
    carry = guard >> 1
    leads: dict[int, list[int]] = {}  # lead - tail -> the leads of the rules with that difference
    for (p, q), _ in rules:
        leads.setdefault(p - q, []).append(p)
    for big, i, j in _kept_pairs(rules, guard):
        ((f, g), _), ((x, y), _) = rules[i], rules[j]
        u, v = big - f + g, big - x + y
        if not (u | v) & carry and (_has_divisor(u | guard, leads.get(u - v, ()), guard)
                                    or _has_divisor(v | guard, leads.get(v - u, ()), guard)):
            continue  # one rule rewrites one side to the other
        # the S-binomial reduces to zero exactly when the chains of u and v meet
        u, v = meet(u, v, index)
        if u != v:
            return False
    return True


def _kept_pairs(rules: list, guard: int) -> list[tuple[int, int, int]]:
    # (lcm, i, j) of the pairs of rules, ((lead, tail), lead pattern) in
    # rule order, that criteria M and F keep: each rule's pairs with the
    # earlier rules whose leads share a variable, sorted by packed lcm
    kept = []
    for j, ((x, _), s) in enumerate(rules):
        lcms: list[int] = []
        for big, i in sorted((packed_lcm(f, x, guard), i)
                             for i, ((f, _), r) in enumerate(rules[:j]) if r & s):
            if not _has_divisor(big | guard, lcms, guard):
                lcms.append(big)
                kept.append((big, i, j))
    return kept


def _divided_by_another_lead(index: RuleIndex, side: int) -> bool:
    # Does the lead of a rule of index divide side `side` (0 the lead, 1
    # the tail) of another rule?  The monomial is looked up under its
    # support pattern within index.mask, as meet looks one up: a lead
    # divides it only if the lead's support lies inside the monomial's, and
    # that list holds exactly the rules whose lead support does.  The lists
    # hold the very rule tuples of index.rules, which tells a rule from
    # another one with an equal lead.
    guard, ones, mask = index.guard, index.ones, index.mask
    for rule, _ in index.rules:
        m = rule[side] | guard
        for r in index[(m - ones) & mask]:
            if (m - r[0]) & guard == guard and r is not rule:
                return True
    return False


def is_minimal_basis(basis: GroebnerBasis) -> bool:
    """No lead of a nonzero rule of basis divides another one's lead.

    Each lead is looked up in the basis's index under its support pattern,
    which lists exactly the leads that can divide it.  Equal leads count
    as dividing.
    """
    return not _divided_by_another_lead(basis.index, 0)


def is_reduced_basis(basis: GroebnerBasis) -> bool:
    """No lead of a nonzero rule of basis divides another one's lead or tail.

    Minimality, then each tail looked up in the basis's index as the leads
    are; the S-pair check reads the same index, so the lists it built serve
    here, and the other way round.
    """
    index = basis.index
    return not (_divided_by_another_lead(index, 0) or _divided_by_another_lead(index, 1))


def reduce_gb(gb: GroebnerBasis) -> GroebnerBasis:
    """Reduced basis of the Groebner basis gb: minimal, tails in normal form.

    The nonzero rules are taken in ascending order of their leads, and one
    is kept when no kept lead divides its lead; tail reduction keeps the
    leads, so the listing stays sorted.  Of rules with equal leads the
    first is kept: their tails differ by an element of the ideal, so they
    have one normal form.  The tails are normal-formed on gb.index, which
    for buchberger's output is the run's own index.  gb and the kept rules
    are Groebner bases of one ideal with one initial ideal, so a monomial
    has one normal form modulo either, the one standard monomial congruent
    to it (Becker & Weispfenning, Groebner Bases, 1993).
    """
    nvars = gb.order.nvars
    index = gb.index
    guard = index.guard
    key = gb.order.sort_key()
    rules: list[Packed] = []
    for p, q in sorted((r for r in gb.rules if r[0] != r[1]),
                       key=lambda r: key(unpack(r[0], nvars))):
        if not _has_divisor(p | guard, (h for h, _ in rules), guard):
            rules.append((p, q))
    return GroebnerBasis(tuple((p, normal_form(q, index)) for p, q in rules), gb.order)


def groebner_reduced(gens: Iterable[Binomial | Sides], order: MatrixOrder,
                     trace: TraceFn | None = None) -> GroebnerBasis:
    return reduce_gb(buchberger(gens, order, trace))


def ideal_equal(
    gens1: Iterable[Binomial],
    gens2: Iterable[Binomial],
    order: MatrixOrder,
) -> bool:
    """Compare two binomial ideals through their reduced bases under order."""
    return groebner_reduced(gens1, order).rules == groebner_reduced(gens2, order).rules


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
    gb = groebner_reduced(gens, order)
    return [_strip_variable(g, i - 1) for g in gb.elements]


def saturate_torus(
    gens: Iterable[Binomial],
    grading: Grading,
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
        gens = saturate_variable(gens, i, grading)
    return gens
