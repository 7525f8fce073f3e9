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
betti_splits therefore lists no whole fiber: from each side of each
generator of the degree it searches depth first through the lower moves,
in both directions, and relabels the components it reaches to join them
along the degree's own generators; no union-find.  The lower moves are one
flat list of packed words, each tested by one guarded subtraction.

enumerate_fiber lists a whole fiber by a plain walk, the reference the
search is tested against.  The oracle (betti_splits and the counts and
uniqueness read from it) never calls the Groebner engine, so the two can
check each other; only prune_redundant_generators, the engine's route to
the same count, runs Buchberger.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from math import gcd
from typing import Mapping, Sequence

from .binomials import (
    EXPONENT_LIMIT,
    Binomial,
    ExponentOverflowError,
    Grading,
    Monomial,
    check_int,
    guard_bits,
    pack,
    unpack,
)
from .groebner import buchberger
from .orders import MatrixOrder


@dataclass(frozen=True)
class Fiber:
    degree: tuple[int, ...]
    monomials: tuple[Monomial, ...]

    def __len__(self) -> int:
        return len(self.monomials)


@dataclass(frozen=True)
class DegreeSplit:
    """The fiber of one generator degree, around that degree's generators.

    below: the components, under moves by strictly lower-degree generators,
    that hold a side of a generator of this degree; full: the same monomials
    once this degree's generators join in.  Components are sorted by least
    monomial, each in lexicographic order; the rest of the fiber is left
    out, since the degree's generators leave it as it was.  The ideal needs
    len(below) - len(full) minimal generators here: each one must fuse two
    below-components that the full congruence identifies.  betti_splits
    joins below into full by relabelling, with no union-find, and
    forced_pairs reads full directly.
    """

    below: tuple[tuple[Monomial, ...], ...]
    full: tuple[tuple[Monomial, ...], ...]

    def new_generators(self) -> int:
        return len(self.below) - len(self.full)

    def forced_pairs(self) -> list[tuple[Monomial, Monomial]] | None:
        """Forced generator pairs of this degree, or None when a choice exists.

        A full component that is itself a below-component needs nothing.  One
        of two monomials that is not fuses two isolated monomials and forces
        the binomial joining them.  Any other shape leaves a choice of
        monomials or of tree shape, so the minimal system is not unique.
        """
        below = set(self.below)
        pairs = []
        for comp in self.full:
            if comp in below:
                continue
            if len(comp) != 2:
                return None
            pairs.append(comp)
        return pairs


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


def _below_component(seed: int, moves: Sequence[tuple[int, int]], guard: int,
                     nvars: int) -> list[Monomial]:
    """Every monomial the packed moves reach from the guarded word seed, in lexicographic order.

    A move (src, dst) takes x to x - src + dst when src divides x, which
    one guarded subtraction tests.  An image past EXPONENT_LIMIT raises, as
    a rewrite in normal_form does.
    """
    carry = guard >> 1
    seen = {seed}
    stack = [seed]
    while stack:
        x = stack.pop()
        for src, dst in moves:
            y = x - src
            if y & guard == guard:
                y += dst
                if y not in seen:
                    if y & carry:
                        m = unpack(y, nvars)
                        raise ExponentOverflowError(f"move to {m} exceeds {EXPONENT_LIMIT}")
                    seen.add(y)
                    stack.append(y)
    return sorted(unpack(x ^ guard, nvars) for x in seen)


def betti_splits(
    gens: Sequence[Binomial],
    grading: Grading,
) -> dict[tuple[int, ...], DegreeSplit]:
    """Fiber split at each generator degree, around that degree's generators.

    Degrees are processed along a linear extension of the degree partial
    order (total entry sum first), so "lower" is unambiguous.  Only the
    degrees of the given generators can carry minimal generators: every
    other graded piece of the ideal is already reachable from below.  Each
    generator's sides are packed once; a generator of a lower degree gives
    a move in each direction, kept in one flat list.  A depth-first search
    through them from each side of each generator of the degree lists its
    below-component, and one dict maps every monomial reached to its
    component.  The degree's generators join components by relabelling a
    list of the k labels, in O(k * generators of the degree).
    """
    keyed: list[tuple[tuple, Binomial]] = []
    for g in gens:
        if g.is_zero():
            continue
        d = grading.degree(g.plus)
        if d != grading.degree(g.minus):
            raise ValueError(f"generator {g} is not homogeneous for the grading")
        keyed.append(((sum(d), d), g))
    keyed.sort(key=lambda kg: kg[0])
    out: dict[tuple[int, ...], DegreeSplit] = {}
    nvars = grading.nvars
    guard = guard_bits(nvars)
    moves: list[tuple[int, int]] = []
    for (_, d), group in groupby(keyed, key=lambda kg: kg[0]):
        here = [(g, pack(g.plus), pack(g.minus)) for _, g in group]
        comp_of: dict[Monomial, int] = {}  # every monomial reached -> its below-component
        below: list[list[Monomial]] = []
        for g, p, q in here:
            for side, word in ((g.plus, p), (g.minus, q)):
                if side not in comp_of:
                    comp = _below_component(word | guard, moves, guard, nvars)
                    comp_of.update(dict.fromkeys(comp, len(below)))
                    below.append(comp)
        label = list(range(len(below)))
        for g, _, _ in here:
            keep, gone = label[comp_of[g.plus]], label[comp_of[g.minus]]
            if keep != gone:
                label = [keep if x == gone else x for x in label]
        full: dict[int, list[Monomial]] = {}
        for c, x in enumerate(label):
            full.setdefault(x, []).extend(below[c])
        # components are disjoint, so sorting them sorts by least monomial
        out[d] = DegreeSplit(
            tuple(map(tuple, sorted(below))),
            tuple(sorted(tuple(sorted(comp)) for comp in full.values())),
        )
        for _, p, q in here:
            moves += ((p, q), (q, p))
    return out


def betti_degrees(gens: Sequence[Binomial], grading: Grading) -> dict[tuple[int, ...], int]:
    """Minimal generator count of the ideal per degree, zero entries omitted."""
    out = {}
    for d, split in betti_splits(gens, grading).items():
        k = split.new_generators()
        if k > 0:
            out[d] = k
    return out


def minimal_generator_count(gens: Sequence[Binomial], grading: Grading) -> int:
    return sum(betti_degrees(gens, grading).values())


def unique_minimal_system(splits: Mapping[tuple[int, ...], DegreeSplit]) -> bool:
    """True when every minimal generator is forced by its split in betti_splits."""
    return all(s.forced_pairs() is not None for s in splits.values())


def has_unique_minimal_system(gens: Sequence[Binomial], grading: Grading) -> bool:
    """True when the ideal of gens has a unique minimal binomial system."""
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
