"""Brute-force fiber enumeration and the graded minimal-generator oracle.

A fiber is the set of all monomials of one multidegree.  Connecting two
monomials whenever a generator moves one to the other turns each fiber
into a graph.  With moves by strictly lower-degree generators only, and
then again with this degree's generators added, the drop in component
count is the number of minimal generators the ideal needs here; the
system is unique exactly when each fused pair is two single monomials.
Everything here is independent of the Groebner engine, so the two can
check each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .binomials import Binomial, Grading, Monomial, divides, is_homogeneous
from .groebner import buchberger, ideal_member, reduce_gb
from .orders import MatrixOrder


class UnionFind:
    """Disjoint sets over range(n) with path compression."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)

    def groups(self) -> list[list[int]]:
        out: dict[int, list[int]] = {}
        for x in range(len(self.parent)):
            out.setdefault(self.find(x), []).append(x)
        return [out[r] for r in sorted(out)]


@dataclass(frozen=True)
class Fiber:
    degree: tuple[int, ...]
    monomials: tuple[Monomial, ...]

    def __len__(self) -> int:
        return len(self.monomials)


@dataclass(frozen=True)
class DegreeSplit:
    """Fiber of one generator degree under two move sets.

    below: components when only strictly lower-degree generators may move;
    full: components when the generators of this degree join in.  The ideal
    needs len(below) - len(full) minimal generators here: each one must
    fuse two below-components that the full congruence identifies.
    """

    fiber: Fiber
    below: tuple[tuple[Monomial, ...], ...]
    full: tuple[tuple[Monomial, ...], ...]

    def new_generators(self) -> int:
        return len(self.below) - len(self.full)

    def forced_pairs(self) -> list[tuple[Monomial, Monomial]] | None:
        """Forced generator pairs of this degree, or None when a choice exists.

        Group the below-components by the full component containing them.  A
        full component made of one below-component needs nothing.  One made of
        exactly two isolated monomials forces the binomial joining them.  Any
        other shape leaves a choice of monomials or of tree shape, so the
        minimal system is not unique.
        """
        root_of: dict[Monomial, int] = {}
        for pos, comp in enumerate(self.full):
            for m in comp:
                root_of[m] = pos
        grouped: dict[int, list[tuple[Monomial, ...]]] = {}
        for comp in self.below:
            grouped.setdefault(root_of[comp[0]], []).append(comp)
        pairs = []
        for comps in grouped.values():
            if len(comps) == 1:
                continue
            if len(comps) != 2 or any(len(c) != 1 for c in comps):
                return None
            pairs.append((comps[0][0], comps[1][0]))
        return pairs


def enumerate_fiber(grading: Grading, degree: Sequence[int]) -> Fiber:
    """All monomials of the given multidegree, in lexicographic order.

    Depth-first search over exponents, bounded by the strictly positive
    grading row, which also fixes the last exponent by exact division.  Each
    candidate is then checked against the full multidegree once.
    """
    target = tuple(int(d) for d in degree)
    if len(target) != len(grading.rows):
        raise ValueError(f"degree has {len(target)} entries, grading has {len(grading.rows)} rows")
    pos = grading.positive_row()
    last = grading.nvars - 1
    found: list[Monomial] = []

    def walk(prefix: Monomial, rest: int) -> None:
        w = pos[len(prefix)]
        if len(prefix) == last:
            e, r = divmod(rest, w)
            m = prefix + (e,)
            if r == 0 and grading.degree(m) == target:
                found.append(m)
            return
        for e in range(rest // w + 1):
            walk(prefix + (e,), rest - e * w)

    budget = target[grading.rows.index(pos)]
    if budget >= 0:
        walk((), budget)
    return Fiber(target, tuple(found))


def _apply_move(
    g: Binomial, monomials: Sequence[Monomial], index: dict[Monomial, int], uf: UnionFind
) -> None:
    """Join each monomial the move g applies to with its image under g."""
    for m in monomials:
        if divides(g.plus, m):
            target = tuple(e - p + q for e, p, q in zip(m, g.plus, g.minus))
            uf.union(index[m], index[target])


def _degree_key(d: tuple[int, ...]) -> tuple:
    return (sum(d), d)


def _components(uf: UnionFind, monomials: Sequence[Monomial]) -> tuple:
    return tuple(tuple(monomials[pos] for pos in grp) for grp in uf.groups())


def betti_splits(
    gens: Sequence[Binomial],
    grading: Grading,
) -> dict[tuple[int, ...], DegreeSplit]:
    """Fiber split at each generator degree.

    Degrees are processed along a linear extension of the degree partial
    order (total entry sum first), so "lower" is unambiguous.  Only the
    degrees of the given generators can carry minimal generators: every
    other graded piece of the ideal is already reachable from below.
    """
    live = [g for g in gens if not g.is_zero()]
    for g in live:
        if not is_homogeneous(grading, g):
            raise ValueError(f"generator {g} is not homogeneous for the grading")
    keyed = [(_degree_key(grading.degree(g.plus)), g) for g in live]
    degrees = sorted({grading.degree(g.plus) for g in live}, key=_degree_key)
    out: dict[tuple[int, ...], DegreeSplit] = {}
    for d in degrees:
        key = _degree_key(d)
        fiber = enumerate_fiber(grading, d)
        index = {m: pos for pos, m in enumerate(fiber.monomials)}
        uf = UnionFind(len(fiber.monomials))
        for k, g in keyed:
            if k < key:
                _apply_move(g, fiber.monomials, index, uf)
        below = _components(uf, fiber.monomials)
        for k, g in keyed:
            if k == key:
                _apply_move(g, fiber.monomials, index, uf)
        full = _components(uf, fiber.monomials)
        out[d] = DegreeSplit(fiber, below, full)
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


def has_unique_minimal_system(gens: Sequence[Binomial], grading: Grading) -> bool:
    """True when every minimal generator is forced by its fiber split."""
    return all(s.forced_pairs() is not None for s in betti_splits(gens, grading).values())


def forced_generators(
    gens: Sequence[Binomial], grading: Grading
) -> tuple[Binomial, ...] | None:
    """The unique minimal generating system, or None when it is not unique."""
    out = []
    for split in betti_splits(gens, grading).values():
        pairs = split.forced_pairs()
        if pairs is None:
            return None
        out.extend(Binomial(m1, m2).canonical() for m1, m2 in pairs)
    return tuple(sorted(out, key=lambda g: (g.plus, g.minus)))


def prune_redundant_generators(
    gens: Sequence[Binomial],
    order: MatrixOrder,
) -> list[Binomial]:
    """Greedy Groebner route to a minimal generating set.

    Removes any generator that lies in the ideal of the others; an element
    kept at its turn stays irredundant because later removals only shrink
    the ideal it was tested against.  Graded Nakayama makes the surviving
    count independent of choices, so this agrees with the fiber oracle.
    """
    current: list[Binomial] = []
    seen = set()
    for g in gens:
        if g.is_zero():
            continue
        c = g.canonical()
        if (c.plus, c.minus) not in seen:
            seen.add((c.plus, c.minus))
            current.append(c)
    current.sort(key=lambda g: (sum(g.plus) + sum(g.minus), g.plus, g.minus))
    kept: list[Binomial] = []
    for pos, g in enumerate(current):
        others = kept + current[pos + 1 :]
        if not others:
            kept.append(g)
            continue
        gb = reduce_gb(buchberger(others, order))
        if not ideal_member(g, gb):
            kept.append(g)
    return kept
