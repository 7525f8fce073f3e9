"""Fiber graphs and the graded minimal-generator oracle.

A fiber is the set of all monomials of one multidegree.  Connecting two
monomials whenever a generator moves one to the other turns it into a graph
(Diaconis & Sturmfels, Ann. Statist. 26, 1998).  With moves by strictly
lower-degree generators only, and then again with this degree's generators
added, the drop in component count is the number of minimal generators the
ideal needs here; the system is unique exactly when each fused group is two
single monomials (Charalambous, Katsabekis & Thoma, Proc. AMS 135, 2007).
A component that holds no side of a generator of this degree is the same
under both move sets, so it changes neither the count nor the verdict.
word_splits therefore lists no whole fiber: from each side of each
generator of the degree it searches breadth first through the lower moves,
in both directions, and relabels the components it reaches to join them
along the degree's own generators; no union-find.  The map from each word
reached to its component is the search's only visited set, so a side
that no lower move divides costs one pass over the moves.
Only a generator that joins two labels adds its moves for the degrees
above: one whose sides were joined already lies in the ideal of the moves
kept, so it changes no component.  Its input and working form are packed
words: each generator comes as its degree and two packed sides, the lower
moves are one flat list of them, each tested by one guarded subtraction,
and a split keeps each component as the list of packed words its search
walked, unpacked into sorted monomials only when below, full or the
forced pairs are read.  The uniqueness verdict is one shape test per
split, is_forced, on component sizes and labels alone: every label covers
one below-component or two single monomials.
betti_splits is the Binomial entry and rule_words reads an engine basis's
packed rules, such as families.toric_basis's unreduced ones;
families.minor_words hands the minors over packed.

enumerate_fiber lists a whole fiber by a plain walk, the reference the
search is tested against.  The oracle (word_splits and the counts and
uniqueness read from it) never calls the Groebner engine, so the two can
check each other; only prune_redundant_generators, the engine's route to
the same count, runs Buchberger.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, groupby
from math import gcd
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .binomials import (
    EXPONENT_LIMIT,
    Binomial,
    ExponentOverflowError,
    Grading,
    Monomial,
    check_int,
    format_monomial,
    guard_bits,
    pack,
    unpack,
)
from .groebner import buchberger
from .orders import MatrixOrder

# one nonzero generator for word_splits: its degree and its plus and minus sides, packed
Word = tuple[tuple[int, ...], int, int]


@dataclass(frozen=True)
class Fiber:
    degree: tuple[int, ...]
    monomials: tuple[Monomial, ...]

    def __len__(self) -> int:
        return len(self.monomials)


@dataclass(frozen=True)
class DegreeSplit:
    """The fiber of one generator degree, around that degree's generators.

    comps: the components, under moves by strictly lower-degree generators,
    that hold a side of a generator of this degree, each the list of its
    guarded packed words that its search walked; joins: for each, the
    label of the component it lies in once this degree's generators join
    in; nvars: the variable count of the words.  The rest of the fiber is
    left out, since the degree's generators leave it as it was.  The ideal
    needs len(comps) - (distinct labels) minimal generators here: each one
    must fuse two below-components that the full congruence identifies.

    is_forced tests the shape that makes this degree's generators forced
    from the component sizes and labels alone; forced_pairs lists the
    pairs only where it holds.  below and full list the same components as
    monomials, built on first read: below the comps, full the unions of
    comps under one label, each sorted, and sorted by least monomial.
    """

    comps: tuple[list[int], ...]
    joins: tuple[int, ...]
    nvars: int

    def _listing(self, groups) -> tuple[tuple[Monomial, ...], ...]:
        # components are disjoint, so sorting them sorts by least monomial
        return tuple(sorted(tuple(sorted(unpack(x, self.nvars) for x in g)) for g in groups))

    def _joined(self):
        # the below-components under each label
        groups: dict[int, list[list[int]]] = {}
        for comp, label in zip(self.comps, self.joins):
            groups.setdefault(label, []).append(comp)
        return groups.values()

    @cached_property
    def below(self) -> tuple[tuple[Monomial, ...], ...]:
        return self._listing(self.comps)

    @cached_property
    def full(self) -> tuple[tuple[Monomial, ...], ...]:
        return self._listing([x for comp in group for x in comp] for group in self._joined())

    def new_generators(self) -> int:
        return len(self.joins) - len(set(self.joins))

    def is_forced(self) -> bool:
        """True when every label covers one below-component or two single monomials.

        Under that shape each minimal generator of this degree is forced:
        a label over one below-component needs none, and one over two
        single monomials forces the binomial joining them.  Any other shape
        leaves a choice of monomials or of tree shape, so the minimal
        system is not unique.  Read from component sizes and labels alone.
        """
        under: dict[int, int] = {}  # label -> monomials in its components met so far
        for comp, label in zip(self.comps, self.joins):
            if label not in under:
                under[label] = len(comp)
            elif under[label] + len(comp) == 2:
                under[label] = 2
            else:  # a second component that is no pair of singletons, or a third
                return False
        return True

    def forced_pairs(self) -> list[tuple[Monomial, Monomial]] | None:
        """Forced generator pairs of this degree, by least monomial, or None when a choice exists.

        None exactly when is_forced is false; otherwise the two single
        monomials under each label that covers two components, each pair
        sorted.
        """
        if not self.is_forced():
            return None
        return sorted(tuple(sorted(unpack(x, self.nvars) for comp in group for x in comp))
                      for group in self._joined() if len(group) == 2)


def enumerate_fiber(grading: Grading, degree: Sequence[int]) -> Fiber:
    """All monomials of the given multidegree, in lexicographic order.

    A plain walk: each exponent runs up to the rest of the budget in the
    strictly positive row p, the last is that rest over its weight, and
    each candidate's full degree is checked.  A degree whose p entry is
    negative or outside gcd(p)*Z is empty at once.  Every prefix of n - 1
    variables within the budget is visited, so large multi-row degrees are
    slow; no program path lists a whole fiber, only tests and a demo do.
    """
    target = tuple(check_int(d, "degree entry") for d in degree)
    if len(target) != len(grading.rows):
        raise ValueError(f"degree has {len(target)} entries, grading has {len(grading.rows)} rows")
    pos = grading.positive_row()
    rest = target[grading.rows.index(pos)]
    if rest < 0 or rest % gcd(*pos):
        return Fiber(target, ())
    found: list[Monomial] = []

    def walk(prefix: Monomial, rest: int) -> None:
        w = pos[len(prefix)]
        if len(prefix) == len(pos) - 1:
            e, r = divmod(rest, w)
            if not r and grading.degree(prefix + (e,)) == target:
                found.append(prefix + (e,))
            return
        for e in range(rest // w + 1):
            walk(prefix + (e,), rest - e * w)

    walk((), rest)
    return Fiber(target, tuple(found))


def word_splits(words: Iterable[Word], nvars: int) -> dict[tuple[int, ...], DegreeSplit]:
    """Fiber split at each generator degree, from nonzero generators as (degree, plus, minus) words.

    Degrees are processed by total entry sum first, so "lower" is
    unambiguous: a linear extension of the degree partial order once every
    grading column sums above 0, as betti_splits and rule_words check.  Only the
    degrees of the given generators can carry minimal generators: every
    other graded piece of the ideal is already reachable from below.  A
    generator of a lower degree that joined two labels at its turn gives a
    move in each direction, kept in one flat list; one whose sides were
    joined already adds none, since the moves kept join its sides, and
    their multiples its multiples.  So a redundant generator changes no
    split.  One breadth-first loop from each side of the degree not yet
    reached finds its below-component: the list it walks grows as words
    are reached and is kept as the component, and one dict from every
    guarded word reached to its component is the visited set.  A move
    (src, dst) takes x to x - src + dst when one guarded subtraction finds
    src dividing x, and an image past EXPONENT_LIMIT raises, as a rewrite
    in normal_form does.  The degree's generators join components by
    relabelling a list of the k labels, in O(k * generators of the degree).
    """
    guard = guard_bits(nvars)
    carry = guard >> 1
    out: dict[tuple[int, ...], DegreeSplit] = {}
    moves: list[tuple[int, int]] = []
    for d, group in groupby(sorted(words, key=lambda w: (sum(w[0]), w[0])), key=itemgetter(0)):
        here = [(p | guard, q | guard) for _, p, q in group]
        comp_of: dict[int, int] = {}  # every guarded word reached -> its below-component
        comps: list[list[int]] = []
        for side in chain.from_iterable(here):
            if side in comp_of:
                continue
            k = comp_of[side] = len(comps)
            comp = [side]
            for x in comp:  # it grows as words are reached: breadth first
                for src, dst in moves:
                    y = x - src
                    if y & guard == guard:  # src divides x
                        y += dst
                        if y not in comp_of:
                            if y & carry:
                                m = unpack(y, nvars)
                                raise ExponentOverflowError(f"move to {m} exceeds {EXPONENT_LIMIT}")
                            comp_of[y] = k
                            comp.append(y)
            comps.append(comp)
        label = list(range(len(comps)))
        for p, q in here:
            keep, gone = label[comp_of[p]], label[comp_of[q]]
            if keep != gone:
                label = [keep if x == gone else x for x in label]
                # the degree's joining moves serve the degrees above it
                moves += ((p ^ guard, q ^ guard), (q ^ guard, p ^ guard))
        out[d] = DegreeSplit(tuple(comps), tuple(label), nvars)
    return out


def _check_column_sums(grading: Grading) -> None:
    if min(map(sum, zip(*grading.rows))) <= 0:  # see word_splits
        raise ValueError(f"the fiber oracle needs grading columns summing above 0: {grading.rows}")


def _graded_degree(grading: Grading, plus: Monomial, minus: Monomial) -> tuple[int, ...]:
    d = grading.degree(plus)
    if d != grading.degree(minus):
        raise ValueError(f"generator {format_monomial(plus)} - {format_monomial(minus)} "
                         "is not homogeneous for the grading")
    return d


def betti_splits(
    gens: Sequence[Binomial],
    grading: Grading,
) -> dict[tuple[int, ...], DegreeSplit]:
    """word_splits of the nonzero generators, each checked homogeneous and its sides packed once."""
    _check_column_sums(grading)
    return word_splits([(_graded_degree(grading, g.plus, g.minus), pack(g.plus), pack(g.minus))
                        for g in gens if not g.is_zero()], grading.nvars)


def rule_words(rules: Iterable[tuple[int, int]], grading: Grading) -> list[Word]:
    """word_splits' input from packed (lead, tail) rules over the grading's variables.

    Each side is unpacked for its degree only; the degrees and grading are
    checked as betti_splits checks them.
    """
    _check_column_sums(grading)
    n = grading.nvars
    return [(_graded_degree(grading, unpack(p, n), unpack(q, n)), p, q) for p, q in rules]


def betti_degrees(gens: Sequence[Binomial], grading: Grading) -> dict[tuple[int, ...], int]:
    """Minimal generator count of the ideal per degree, zero entries omitted."""
    return {d: k for d, s in betti_splits(gens, grading).items() if (k := s.new_generators()) > 0}


def minimal_generator_count(gens: Sequence[Binomial], grading: Grading) -> int:
    return sum(betti_degrees(gens, grading).values())


def unique_minimal_system(splits: Mapping[tuple[int, ...], DegreeSplit]) -> bool:
    """True when every minimal generator is forced by its split.

    Each split's shape test alone: no monomial is unpacked or sorted.
    """
    return all(s.is_forced() for s in splits.values())


def has_unique_minimal_system(gens: Sequence[Binomial], grading: Grading) -> bool:
    """True when the ideal of gens has a unique minimal binomial system.

    No src code calls it: perfbench/make_key.py, the README's Library
    snippet and demos/uniqueness_frontier.py do.
    """
    return unique_minimal_system(betti_splits(gens, grading))


def forced_generators(
    splits: Mapping[tuple[int, ...], DegreeSplit],
) -> tuple[Binomial, ...] | None:
    """The unique minimal generating system read off betti_splits, or None if not unique."""
    out = []
    for split in splits.values():
        pairs = split.forced_pairs()
        if pairs is None:
            return None
        out.extend(Binomial(m1, m2).canonical() for m1, m2 in pairs)
    return tuple(sorted(out, key=lambda g: (g.plus, g.minus)))


def prune_redundant_generators(
    gens: Sequence[Binomial],
    order: MatrixOrder,
) -> list[Binomial]:
    """Groebner route to a minimal generating set, in one Buchberger run.

    gens must be homogeneous for order.rows[0].  The distinct generators
    are sorted, and buchberger gets them last first; it checks each one's
    variable count and skips a zero one.  An input is kept when it does
    not reduce to zero at its turn, modulo the lower weights and the
    inputs of its own weight kept before it.  This keeps
    the list that deleting from the front would, dropping any generator in
    the ideal of the kept ones and those after it: a degree-d element lies
    in the ideal of the generators of degree <= d, and within one degree's
    fiber graph reverse-delete from the front and greedy-add from the back
    pick the same spanning forest.  Graded Nakayama makes the count
    independent of choices, so this agrees with the fiber oracle.
    """
    current = sorted({g.canonical() for g in gens},
                     key=lambda g: (sum(g.plus) + sum(g.minus), g.plus, g.minus))
    kept = buchberger(current[::-1], order).inputs
    return [current[-1 - k] for k in sorted(kept, reverse=True)]
