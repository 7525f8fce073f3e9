"""Exact fiber enumeration and the graded minimal-generator oracle.

A fiber is the set of all monomials of one multidegree.  It is listed by
meeting in the middle (Horowitz & Sahni, JACM 21, 1974): one table holds
every exponent suffix over the last half of the variables within the
positive-row budget, keyed by its degree in every grading row, and a
depth-first walk over the first half looks up, for each prefix, exactly the
suffixes that complete its degree.  The walk solves each exponent modulo the
gcd of the positive-row weights after it.  That cut only drops prefixes no
monomial of the fiber extends, and the lookup is exact, so the result is
every monomial and nothing else, in lexicographic order; the table's size is
bounded by the number of last-half monomials within the budget.  Keys carry
the exact degree, so one table serves every degree within its budget:
betti_splits builds one per call, at the largest budget among its degrees,
and its peak memory is that of the largest per-degree table.

Connecting two monomials whenever a generator moves one to the other turns
each fiber into a graph.  With moves by strictly lower-degree generators
only, and then again with this degree's generators added, the drop in
component count is the number of minimal generators the ideal needs here;
the system is unique exactly when each fused pair is two single monomials.
Fiber enumeration and the oracle built on it (betti_splits and the counts
and uniqueness read from it) never call the Groebner engine, so the two can
check each other; only prune_redundant_generators, the engine's route to
the same count, runs Buchberger.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Mapping, NamedTuple, Sequence

from .binomials import Binomial, Grading, Monomial, check_int, divides
from .groebner import buchberger
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


class SuffixTable(NamedTuple):
    """Every exponent suffix over the right half of the variables within a budget.

    entries maps (positive-row degree, other-row degrees) to the suffixes of
    exactly that degree, in lexicographic order; only suffixes whose
    positive-row degree is at most budget are listed, so the table serves
    every degree of grading whose positive-row entry is at most budget.
    """

    grading: Grading
    budget: int
    entries: dict[tuple[int, tuple[int, ...]], list[Monomial]]


def _split(grading: Grading) -> tuple[tuple[int, ...], int, list[tuple[int, ...]], int]:
    """Positive row, its index, each variable's other-row column, and the split point."""
    pos = grading.positive_row()
    k = grading.rows.index(pos)
    others = grading.rows[:k] + grading.rows[k + 1 :]
    n = grading.nvars
    cols = [tuple(row[j] for row in others) for j in range(n)]
    return pos, k, cols, (n + 1) // 2 if n > 1 else 0


def suffix_table(grading: Grading, budget: int) -> SuffixTable:
    """The right-half table enumerate_fiber meets its walk with, up to budget.

    The variables split at half = ceil(n/2), or half = 0 when n = 1.  One
    pass over half..n-1 lists every exponent suffix whose positive-row degree
    is at most budget, keyed by its degree in every row.  Its size is the
    number of right-half monomials within the budget, so one table built at
    the largest positive-row entry of a set of degrees costs what the table
    of that largest degree alone does.
    """
    pos, _, cols, half = _split(grading)
    width = len(grading.rows) - 1
    # suffixes in lexicographic order, with their degrees in every row
    entries: list[tuple[Monomial, int, tuple[int, ...]]] = [((), 0, (0,) * width)]
    for j in range(half, grading.nvars - 1):
        w, col = pos[j], cols[j]
        entries = [
            (s + (e,), d + e * w, tuple([x + c * e for x, c in zip(ds, col)]) if col else ds)
            for s, d, ds in entries
            for e in range((budget - d) // w + 1)
        ]
    # the last variable files its entries straight into the table
    table: dict[tuple[int, tuple[int, ...]], list[Monomial]] = {}
    w, col = pos[-1], cols[-1]
    for s, d, ds in entries:
        for e in range((budget - d) // w + 1):
            key = (d + e * w, tuple([x + c * e for x, c in zip(ds, col)]) if col else ds)
            table.setdefault(key, []).append(s + (e,))
    return SuffixTable(grading, budget, table)


def enumerate_fiber(
    grading: Grading, degree: Sequence[int], table: SuffixTable | None = None
) -> Fiber:
    """All monomials of the given multidegree, in lexicographic order.

    Meet in the middle (Horowitz & Sahni, JACM 21, 1974): a depth-first walk
    over the left half of the variables, 0..half-1, meets suffix_table's
    table of the right half: a prefix leaving residuals (rest, res) extends
    by exactly the suffixes stored under (rest, res).  The lookup is exact,
    and prefixes come in lexicographic order, so the fiber and its order are
    those of a walk over all n variables.  Without a table, one is built at
    this degree's positive-row entry, and only when that entry is divisible
    by the gcd of the positive row.  betti_splits passes one table, built at
    the largest budget among its degrees, to every degree, so its peak
    memory is that of the largest per-degree table.  A table built for
    another grading, or at a budget below this degree's positive-row entry,
    would give a partial fiber: ValueError.

    The walk keeps one cut.  The strictly positive row p caps each exponent
    by the rest of its budget, and the exponent e of variable j is solved
    modulo gcd(p[j+1:]), so e steps through one residue class.  The other
    rows' residuals only ride down the walk to the lookup, which drops
    every prefix no suffix completes.
    """
    target = tuple(check_int(d, "degree entry") for d in degree)
    if len(target) != len(grading.rows):
        raise ValueError(f"degree has {len(target)} entries, grading has {len(grading.rows)} rows")
    pos, k, cols, half = _split(grading)
    rest = target[k]
    if table is not None:
        if table.grading != grading:
            raise ValueError(
                f"suffix table of budget {table.budget} was built for another grading "
                f"than degree {target}"
            )
        if rest > table.budget:
            raise ValueError(f"degree {target} is past the suffix table's budget {table.budget}")

    # levels[j] for variable j < half, built from the last variable back.
    # With h = gcd(p[j:]) dividing rest, e*p[j] leaves a rest divisible by
    # after = gcd(p[j+1:]) exactly when e = rest/h * inv modulo after/h.
    levels: list[tuple] = [()] * half
    after = pos[-1]
    for j in range(grading.nvars - 2, -1, -1):
        w = pos[j]
        h = gcd(w, after)
        if j < half:
            levels[j] = (w, h, after // h, pow(w // h, -1, after // h), cols[j])
        after = h
    if rest < 0 or rest % after:
        return Fiber(target, ())
    if table is None:
        table = suffix_table(grading, rest)
    lookup = table.entries
    found: list[Monomial] = []

    def walk(prefix: Monomial, rest: int, res: tuple[int, ...]) -> None:
        j = len(prefix)
        w, h, step, inv, col = levels[j]
        for e in range(rest // h * inv % step, rest // w + 1, step):
            child = tuple([x - c * e for x, c in zip(res, col)]) if col else res
            if j + 1 < half:
                walk(prefix + (e,), rest - e * w, child)
            else:
                for suffix in lookup.get((rest - e * w, child), ()):
                    found.append(prefix + (e,) + suffix)

    res = target[:k] + target[k + 1 :]
    if half:
        walk((), rest, res)
    else:
        found.extend(lookup.get((rest, res), ()))
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
    other graded piece of the ideal is already reachable from below.  One
    suffix_table, built at the largest positive-row entry among those
    degrees, serves every degree's enumerate_fiber.
    """
    keyed: list[tuple[tuple, Binomial]] = []
    for g in gens:
        if g.is_zero():
            continue
        d = grading.degree(g.plus)
        if d != grading.degree(g.minus):
            raise ValueError(f"generator {g} is not homogeneous for the grading")
        keyed.append((_degree_key(d), g))
    out: dict[tuple[int, ...], DegreeSplit] = {}
    if not keyed:
        return out
    pi = grading.rows.index(grading.positive_row())
    table = suffix_table(grading, max(k[1][pi] for k, _ in keyed))
    for key in sorted({k for k, _ in keyed}):
        d = key[1]
        fiber = enumerate_fiber(grading, d, table)
        index = {m: pos for pos, m in enumerate(fiber.monomials)}
        uf = UnionFind(len(fiber.monomials))
        for k, g in keyed:
            if k < key:
                _apply_move(g, fiber.monomials, index, uf)
        below = _components(uf, fiber.monomials)
        for k, g in keyed:
            if k == key:
                # by the positive row, g.plus divides no other monomial of its degree
                uf.union(index[g.plus], index[g.minus])
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

    gens must be homogeneous for order.rows[0].  The distinct nonzero
    generators are sorted, and buchberger gets them last first: an input
    is kept when it does not reduce to zero at its turn, modulo the lower
    weights and the inputs of its own weight kept before it.  This keeps
    the list that deleting from the front would, dropping any generator in
    the ideal of the kept ones and those after it: a degree-d element lies
    in the ideal of the generators of degree <= d, and within one degree's
    fiber graph reverse-delete from the front and greedy-add from the back
    pick the same spanning forest.  Graded Nakayama makes the count
    independent of choices, so this agrees with the fiber oracle.
    """
    current = sorted({g.canonical() for g in gens if not g.is_zero()},
                     key=lambda g: (sum(g.plus) + sum(g.minus), g.plus, g.minus))
    kept = buchberger(current[::-1], order).inputs
    return [current[-1 - k] for k in sorted(kept, reverse=True)]
