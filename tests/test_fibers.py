"""Fiber enumeration and the minimal-generator oracle."""

import collections
import hashlib
import itertools
import math
import random
import re
from collections import namedtuple
from fractions import Fraction
from operator import sub

import pytest

from repunit_toric.binomials import (
    Binomial,
    ExponentOverflowError,
    Grading,
    format_binomial,
    guard_bits,
    pack,
)
from repunit_toric.families import (
    minor_words,
    minors_closed_chain,
    minors_open_chain,
    projective_grading,
    scalar_grading,
    toric_basis,
    toric_ideal,
)
from repunit_toric.fibers import (
    DegreeSplit,
    betti_degrees,
    betti_splits,
    enumerate_fiber,
    forced_generators,
    has_unique_minimal_system,
    minimal_generator_count,
    prune_redundant_generators,
    rule_words,
    unique_minimal_system,
    word_splits,
)
from repunit_toric.groebner import ideal_equal
from repunit_toric.orders import build_order_i
from repunit_toric.semigroup import InstanceParams, generators


class UnionFind:
    """Disjoint sets over range(n) with path compression, for the whole-fiber reference."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)

    def groups(self):
        out = {}
        for x in range(len(self.parent)):
            out.setdefault(self.find(x), []).append(x)
        return [out[r] for r in sorted(out)]


def test_union_find():
    uf = UnionFind(5)
    uf.union(0, 1)
    uf.union(3, 4)
    uf.union(4, 0)
    assert uf.find(3) == uf.find(1)
    assert uf.find(2) != uf.find(0)
    assert uf.groups() == [[0, 1, 3, 4], [2]]


def brute_fiber(grading, degree):
    """Every exponent vector within the positive-row budget whose degree matches, in lex order.

    Meet in the middle, so it shares no step with enumerate_fiber's walk:
    each half of the variables runs over the whole product of its ranges,
    nothing pruned, and a left part joins every right part whose degree
    makes up the rest.  Both products run in lex order, so the join does.
    """
    pos = grading.positive_row()
    budget = degree[list(grading.rows).index(pos)]
    ranges = [range(budget // w + 1) for w in pos]
    h = len(ranges) // 2
    left_zeros, right_zeros = (0,) * h, (0,) * (len(ranges) - h)
    right = {}
    for m in itertools.product(*ranges[h:]):
        right.setdefault(grading.degree(left_zeros + m), []).append(m)
    out = []
    for m in itertools.product(*ranges[:h]):
        rest = tuple(map(sub, degree, grading.degree(m + right_zeros)))
        out += [m + r for r in right.get(rest, ())]
    return out


def test_enumerate_fiber_frozen_values():
    w = Grading.scalar((15, 18, 24, 36))
    fib = enumerate_fiber(w, (54,))
    assert fib.monomials == ((0, 1, 0, 1), (0, 3, 0, 0), (2, 0, 1, 0))
    assert len(fib) == 3
    assert enumerate_fiber(w, (0,)).monomials == ((0, 0, 0, 0),)
    assert enumerate_fiber(w, (7,)).monomials == ()
    assert enumerate_fiber(w, (-5,)).monomials == ()
    # a degree outside gcd(weights)*Z is empty at once, however large
    assert enumerate_fiber(Grading.scalar((2, 4, 6, 8, 10, 12)), (100001,)).monomials == ()

    proj = projective_grading(InstanceParams(1, 2, 4))
    assert enumerate_fiber(proj, (3, 3)).monomials == ((0, 3, 0, 0), (2, 0, 1, 0))


def test_enumerate_fiber_against_brute_force():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 4)
        w = tuple(rng.randint(1, 8) for _ in range(n))
        grading = Grading.scalar(w)
        e = tuple(rng.randint(0, 3) for _ in range(n))
        degree = grading.degree(e)
        fib = enumerate_fiber(grading, degree)
        assert list(fib.monomials) == brute_fiber(grading, degree)
        assert e in fib.monomials

    # multi-row gradings: the projective one (a zero entry in its repunit
    # row) and one whose second row mixes signs
    multi = [projective_grading(InstanceParams(1, b, n)) for b, n in ((2, 4), (3, 4), (4, 4))]
    multi.append(Grading(((3, 5, 7, 11), (2, -1, 4, -3))))
    for grading in multi:
        for _ in range(15):
            e = tuple(rng.randint(0, 2) for _ in range(grading.nvars))
            degree = grading.degree(e)
            fib = enumerate_fiber(grading, degree)
            assert list(fib.monomials) == brute_fiber(grading, degree)
            assert e in fib.monomials
            for shifted in ((degree[0] + 1,) + degree[1:], degree[:-1] + (degree[-1] - 1,)):
                fib = enumerate_fiber(grading, shifted)
                assert list(fib.monomials) == brute_fiber(grading, shifted)

    # one and two variables; last weights sharing a factor with the others,
    # so the exact division for the last exponent leaves a remainder after
    # many prefixes; a positive row that is not the first; other rows with
    # zero, negative and equal ratios (one a multiple of the positive row).
    # Degrees: those of small exponents, one more in the positive row
    # (outside gcd(p)*Z when weights share a factor), and other-row entries
    # on and just past the ends of the interval the positive-row budget can
    # reach.
    cases = [
        Grading.scalar((3,)),
        Grading(((2,), (-1,))),
        Grading.scalar((4, 6)),
        Grading(((0, 5), (2, 3))),
        Grading.scalar((4, 6, 10)),
        Grading.scalar((6, 4, 10)),
        Grading(((1, 0, -2), (4, 6, 10))),
        Grading(((-1, 2, 0, 3), (1, 1, 1, 1))),
        Grading(((2, 3, 5), (4, 6, 10), (0, 0, 0))),
        Grading(((3, 1, 2), (-3, -1, -2))),
        Grading(((1, 2, 2, 3), (2, 4, 1, 6), (2, 4, 4, 6))),
    ]
    for grading in cases:
        pi = grading.rows.index(grading.positive_row())
        top = 3 if grading.nvars < 4 else 2
        reached = {grading.degree(e) for e in itertools.product(range(top), repeat=grading.nvars)}
        degrees = set(reached)
        for d in reached:
            degrees.add(d[:pi] + (d[pi] + 1,) + d[pi + 1 :])
            for r, row in enumerate(grading.rows):
                if r != pi:
                    ratios = [Fraction(c, p) * d[pi] for c, p in zip(row, grading.rows[pi])]
                    lo, hi = math.ceil(min(ratios)), math.floor(max(ratios))
                    for x in (lo - 1, lo, hi, hi + 1, d[r] - 1, d[r] + 1):
                        degrees.add(d[:r] + (x,) + d[r + 1 :])
        for degree in sorted(degrees):
            fib = enumerate_fiber(grading, degree)
            assert list(fib.monomials) == brute_fiber(grading, degree), (grading, degree)
            if degree in reached:
                assert fib.monomials

    # five to seven variables, so the walk runs several levels deep before
    # the last exponent's division: scalar weights drawn unsorted (the last
    # weight sometimes small, sometimes large), projective gradings (a zero
    # entry in the repunit row) and a two-row grading with a mixed-sign first
    # row whose positive row is the second.  Degrees: those of small
    # exponents and each of them one off in each row.
    rng = random.Random(5)
    split = [Grading.scalar(tuple(rng.randint(1, 9) for _ in range(n))) for n in (5, 5, 6, 6, 7, 7)]
    split += [projective_grading(InstanceParams(1, 3, 5)), projective_grading(InstanceParams(2, 2, 6))]
    split.append(Grading(((2, -1, 0, 3, -2, 1), (5, 3, 8, 2, 7, 4))))
    for grading in split:
        for _ in range(3):
            e = tuple(rng.randint(0, 2) for _ in range(grading.nvars))
            degree = grading.degree(e)
            fib = enumerate_fiber(grading, degree)
            assert list(fib.monomials) == brute_fiber(grading, degree), (grading, degree)
            assert e in fib.monomials
            for r in range(len(degree)):
                for shift in (-1, 1):
                    off = degree[:r] + (degree[r] + shift,) + degree[r + 1 :]
                    fib = enumerate_fiber(grading, off)
                    assert list(fib.monomials) == brute_fiber(grading, off), (grading, off)


def test_enumerate_fiber_rejects_non_int_degree_entries():
    grading = Grading.scalar((2, 3))
    for bad in ((6.9,), (True,), ("6",)):
        with pytest.raises(ValueError, match="degree entry must be an int, got " + repr(bad[0])):
            enumerate_fiber(grading, bad)


def _generator_degrees(gens, grading):
    """The distinct degrees of the nonzero generators, in betti_splits' order."""
    return sorted({grading.degree(g.plus) for g in gens if not g.is_zero()},
                  key=lambda d: (sum(d), d))


@pytest.mark.parametrize("source", ["minors-x", "minors-y"])
def test_betti_split_fibers_match_brute_force(source):
    family, grading_of = {
        "minors-x": (minors_closed_chain, scalar_grading),
        "minors-y": (minors_open_chain, projective_grading),
    }[source]
    count = 0
    for a, b, n in itertools.product(range(1, 4), range(2, 5), range(4, 6)):
        p = InstanceParams(a, b, n)
        grading = grading_of(p)
        for d in _generator_degrees(family(p), grading):
            assert list(enumerate_fiber(grading, d).monomials) == brute_fiber(grading, d), (grading, d)
            count += 1
    assert count >= 18  # at least one degree per instance


def test_oracle_fibers_pinned():
    """The whole fiber of every generator degree on a small oracle box, and every split, by digest.

    The fiber digest covers degree and monomials; the split digest covers
    each degree's below and full components, reached from the Binomial
    minors through betti_splits and from the packed minors through
    word_splits alike.
    """
    digest = hashlib.sha256()
    split_digest = hashlib.sha256()
    word_digest = hashlib.sha256()
    count = 0
    for family, grading_of, closed in (
        (minors_closed_chain, scalar_grading, True),
        (minors_open_chain, projective_grading, False),
    ):
        for a, b, n in itertools.product(range(1, 5), range(2, 6), range(5, 8)):
            p = InstanceParams(a, b, n)
            gens, grading = family(p), grading_of(p)
            for d in _generator_degrees(gens, grading):
                fib = enumerate_fiber(grading, d)
                digest.update(f"{fib.degree} {fib.monomials}\n".encode())
                count += 1
            for d, split in betti_splits(gens, grading).items():
                split_digest.update(f"{d} {split.below} {split.full}\n".encode())
            for d, split in word_splits(minor_words(p, closed), n).items():
                word_digest.update(f"{d} {split.below} {split.full}\n".encode())
    assert count == 1232
    assert digest.hexdigest() == "7640f2f6ea25dab419450a11f6d1c91b8da6e4fb69fecf0025bb51be31d92a93"
    assert split_digest.hexdigest() == "ef6a95b37428e1062683bac9ef684cb6f53206deb8da528f2de152c67563a10f"
    assert word_digest.hexdigest() == split_digest.hexdigest()


# one degree of the reference oracle: its below and full components
WholeSplit = namedtuple("WholeSplit", "below full")


def _whole_fiber_splits(gens, grading):
    """The reference oracle: each generator degree's whole fiber, joined by every lower move.

    Lists the fiber with enumerate_fiber, union-finds each monomial that the
    plus side of a generator of another degree divides with its image, then
    joins the sides of the degree's own generators.  A plus side dividing a
    fiber monomial has a lower degree in the grading's own partial order, so
    no order on degrees is assumed.
    """
    degreed = [(grading.degree(g.plus), g) for g in gens if not g.is_zero()]
    out = {}
    for d in sorted({e for e, _ in degreed}):
        fiber = enumerate_fiber(grading, d).monomials
        index = {m: pos for pos, m in enumerate(fiber)}
        uf = UnionFind(len(fiber))
        for e, g in degreed:
            if e != d:
                for m in fiber:
                    if all(a <= b for a, b in zip(g.plus, m)):
                        image = tuple(x - p + q for x, p, q in zip(m, g.plus, g.minus))
                        uf.union(index[m], index[image])
        below = tuple(tuple(fiber[pos] for pos in grp) for grp in uf.groups())
        for e, g in degreed:
            if e == d:
                uf.union(index[g.plus], index[g.minus])
        full = tuple(tuple(fiber[pos] for pos in grp) for grp in uf.groups())
        out[d] = WholeSplit(below, full)
    return out


def _whole_fiber_count(gens, grading):
    splits = _whole_fiber_splits(gens, grading).values()
    return sum(len(split.below) - len(split.full) for split in splits)


def _grouped_forced_pairs(split):
    """The reference forced pairs: group the below-components by the full component holding them.

    A group of one below-component needs nothing, a group of two single
    monomials forces the pair, and any other group leaves a choice (None).
    """
    root_of = {m: pos for pos, comp in enumerate(split.full) for m in comp}
    grouped = {}
    for comp in split.below:
        grouped.setdefault(root_of[comp[0]], []).append(comp)
    pairs = []
    for comps in grouped.values():
        if len(comps) == 1:
            continue
        if len(comps) != 2 or any(len(c) != 1 for c in comps):
            return None
        pairs.append((comps[0][0], comps[1][0]))
    return pairs


def _assert_search_matches_whole_fiber(gens, grading):
    """Per degree: the same count and forced pairs, and each reached component whole."""
    splits = betti_splits(gens, grading)
    reference = _whole_fiber_splits(gens, grading)
    assert splits.keys() == reference.keys()
    for d, split in splits.items():
        whole = reference[d]
        assert split.new_generators() == len(whole.below) - len(whole.full), (gens, d)
        assert split.forced_pairs() == _grouped_forced_pairs(whole), (gens, d)
        sides = [m for g in gens if not g.is_zero() and grading.degree(g.plus) == d
                 for m in (g.plus, g.minus)]
        for mine, theirs in ((split.below, whole.below), (split.full, whole.full)):
            holding = {m: comp for comp in theirs for m in comp}
            # exactly the reference components that hold a side, in the same order
            assert mine == tuple(c for c in theirs if c in {holding[m] for m in sides}), (gens, d)
    return splits


@pytest.mark.parametrize("source", ["minors-x", "minors-y"])
def test_search_matches_whole_fiber_on_oracle_box(source):
    family, grading_of = {
        "minors-x": (minors_closed_chain, scalar_grading),
        "minors-y": (minors_open_chain, projective_grading),
    }[source]
    for a, b, n in itertools.product(range(1, 7), range(2, 7), range(5, 8)):
        p = InstanceParams(a, b, n)
        _assert_search_matches_whole_fiber(family(p), grading_of(p))


@pytest.fixture(scope="module")
def sweep_toric_bases():
    """(basis, grading) for every row of sweep --a 1..8 --b 2..6 --n 4..6, gcd > 1 rows included."""
    out = []
    for a, b, n in itertools.product(range(1, 9), range(2, 7), range(4, 7)):
        p = InstanceParams(a, b, n)
        grading = scalar_grading(p)
        out.append((list(toric_ideal(grading, build_order_i(generators(p), 1)).elements), grading))
    return out


def test_search_matches_whole_fiber_on_sweep_toric_bases(sweep_toric_bases):
    for gens, grading in sweep_toric_bases:
        _assert_search_matches_whole_fiber(gens, grading)


def test_betti_splits_pinned_on_larger_minors_and_toric_bases(sweep_toric_bases):
    """Every split of closed- and open-chain minors at n = 8, 10, 12, and of the sweep box's toric bases.

    The a >= b - 1 rows have below-components of more than one monomial.
    """
    digest = hashlib.sha256()
    count = multi = 0
    inputs = [
        (family(p), grading_of(p))
        for family, grading_of in (
            (minors_closed_chain, scalar_grading),
            (minors_open_chain, projective_grading),
        )
        for p in itertools.starmap(InstanceParams, itertools.product((1, 3, 5), (2, 4, 6), (8, 10, 12)))
    ]
    for gens, grading in inputs + sweep_toric_bases:
        for d, split in betti_splits(gens, grading).items():
            digest.update(f"{d} {split.below} {split.full}\n".encode())
            count += 1
            multi += any(len(comp) > 1 for comp in split.below)
    assert (count, multi) == (3728, 431)
    assert digest.hexdigest() == "a6dca015597a5a8354771d73cfe0516ec272075da598a114f5c11687bdfef432"


def _redundant_words(words):
    """In-degree generators of the ideal of words: each one reversed, and each chain of two.

    A chain joins the two outer sides of two generators of one degree that
    share a side.  Each of them joins sides already joined at its degree.
    """
    out = [(d, q, p) for d, p, q in words]
    for (d, p, q), (e, u, v) in itertools.combinations(words, 2):
        if d == e:
            out += [(d, x, w) for x, y in ((p, q), (q, p)) for z, w in ((u, v), (v, u))
                    if y == z and x != w]
    return out


def test_redundant_generators_leave_every_split_as_it_is(sweep_toric_bases):
    # Generators appended after a list, each in the ideal of the list's
    # generators of its degree, join no labels and add no moves: every split
    # is the same, on the sweep box's toric bases and on minors of the oracle box
    inputs = list(sweep_toric_bases) + [
        (family(p), grading_of(p))
        for family, grading_of in ((minors_closed_chain, scalar_grading),
                                   (minors_open_chain, projective_grading))
        for p in itertools.starmap(InstanceParams, itertools.product((1, 3), (2, 4), (5, 6)))
    ]
    chains = 0
    for gens, grading in inputs:
        words = [(grading.degree(g.plus), pack(g.plus), pack(g.minus)) for g in gens]
        extra = _redundant_words(words)
        chains += len(extra) - len(words)
        splits = word_splits(words, grading.nvars)
        assert word_splits(words + extra, grading.nvars) == splits, grading.rows
        assert word_splits(words + words, grading.nvars) == splits, grading.rows
    assert chains > 0


def _assert_shape_test_agrees(splits):
    # the shape test against the pair listing, and each split's test against
    # the reference grouping of its unpacked below and full listings
    unique = unique_minimal_system(splits)
    assert unique == all(s.forced_pairs() is not None for s in splits.values())
    for split in splits.values():
        assert split.is_forced() == (_grouped_forced_pairs(split) is not None)
    return unique


def test_shape_test_matches_forced_pairs_on_oracle_and_sweep_boxes():
    seen = set()
    for a, b, n in itertools.product(range(1, 7), range(2, 7), range(5, 8)):
        for closed in (True, False):
            p = InstanceParams(a, b, n)
            seen.add(_assert_shape_test_agrees(word_splits(minor_words(p, closed), n)))
    # the sweep rows' splits: the toric basis under the x_1-cheap order
    for a, b, n in itertools.product(range(1, 9), range(2, 7), range(4, 7)):
        p = InstanceParams(a, b, n)
        grading = scalar_grading(p)
        rules = toric_basis(grading, build_order_i(generators(p), 1)).rules
        seen.add(_assert_shape_test_agrees(word_splits(rule_words(rules, grading), n)))
    assert seen == {True, False}


@pytest.mark.parametrize("comps, joins, forced", [
    ([[(1, 0)]], (0,), True),  # one component
    ([[(2, 0)], [(0, 1)]], (0, 0), True),  # two singletons
    ([[(2, 0), (0, 1)], [(1, 1)]], (0, 0), False),  # two components, one no singleton
    ([[(3, 0)], [(0, 1)], [(1, 1)]], (0, 0, 0), False),  # three components, one label
    ([[(3, 0)], [(0, 1)], [(1, 1)]], (0, 0, 2), True),  # a pair and a lone component
], ids=["one", "two-singletons", "two-one-larger", "three-one-label", "pair-and-one"])
def test_shape_test_on_hand_built_splits(comps, joins, forced):
    guard = guard_bits(2)
    split = DegreeSplit(tuple({pack(m) | guard for m in comp} for comp in comps), joins, 2)
    assert split.is_forced() is forced
    assert unique_minimal_system({(0,): split}) is forced
    assert (split.forced_pairs() is not None) is forced
    assert (_grouped_forced_pairs(split) is not None) is forced
    if forced:
        assert split.forced_pairs() == sorted(
            tuple(sorted(m for c, label in zip(comps, joins) if label == shared for m in c))
            for shared in {x for x in joins if joins.count(x) == 2})


@pytest.mark.parametrize("abn, degree, below", [
    ((8, 3, 4), (144,), (((0, 0, 0, 1),), ((0, 0, 2, 0),), ((0, 3, 0, 0),))),
    ((7, 2, 6), (252,), (((0, 0, 1, 0, 1, 0), (0, 0, 3, 0, 0, 0)),
                         ((0, 2, 0, 1, 0, 0),), ((4, 0, 0, 0, 0, 0),))),
], ids=["8-3-4", "7-2-6"])
def test_three_below_components_fuse_into_one(abn, degree, below):
    # two of the few splits with more than two below-components: the sweep
    # row's toric basis has two generators at this degree, sharing a side,
    # that join three below-components into one full component; both are
    # needed, but any two of the three joins would do, so none is forced
    p = InstanceParams(*abn)
    grading = scalar_grading(p)
    gens = toric_ideal(grading, build_order_i(generators(p), 1)).elements
    split = betti_splits(gens, grading)[degree]
    assert split.below == below
    assert split.full == (tuple(sorted(m for comp in below for m in comp)),)
    assert split.new_generators() == 2
    assert split.forced_pairs() is None


def _random_oracle_input(rng):
    # a few degrees with several generators each, under one scalar grading or
    # a two-row one, mixed with duplicates, opposites, zero binomials,
    # multiples of a generator and chains u - w of two generators u - v, v - w
    nvars = rng.randint(3, 5)
    pos = tuple(rng.randint(1, 4) for _ in range(nvars))
    if rng.random() < 0.5:
        grading = Grading.scalar(pos)
    else:
        grading = Grading((tuple(rng.randint(-2, 2) for _ in range(nvars)), pos))
    by_degree: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for e in itertools.product(range(3), repeat=nvars):
        by_degree.setdefault(grading.degree(e), []).append(e)
    degrees = sorted(d for d, monos in by_degree.items() if len(monos) > 1)
    if not degrees:
        return _random_oracle_input(rng)
    gens = []
    for d in rng.sample(degrees, min(len(degrees), rng.randint(1, 4))):
        for _ in range(rng.randint(1, 4)):
            gens.append(Binomial(*rng.sample(by_degree[d], 2)))
    for _ in range(rng.randint(1, 4)):
        g = rng.choice([g for g in gens if not g.is_zero()])
        k = rng.randrange(nvars)
        shifted = (tuple(e + (j == k) for j, e in enumerate(g.plus)),
                   tuple(e + (j == k) for j, e in enumerate(g.minus)))
        gens += rng.choice(([g], [g.opposite()], [Binomial(*shifted)],
                            [Binomial.from_vector((0,) * nvars)]))
    chains = [Binomial(g.plus, h.minus) for g in gens for h in gens
              if g.minus == h.plus and g.plus != h.minus]
    gens += chains[:2]
    rng.shuffle(gens)
    return gens, grading


REFUSED_GRADING = r"^the fiber oracle needs grading columns summing above 0: "


def test_search_matches_whole_fiber_on_random_inputs():
    # a grading with a column that sums to 0 or less is refused, as there
    # the entry sum can put a degree before a lower one
    rng = random.Random(2007)
    refused = 0
    for _ in range(80):
        gens, grading = _random_oracle_input(rng)
        if min(map(sum, zip(*grading.rows))) <= 0:
            with pytest.raises(ValueError, match=REFUSED_GRADING):
                betti_splits(gens, grading)
            # the reference assumes no degree order, so it still counts as pruning does
            order = build_order_i(grading.positive_row(), 1)
            assert _whole_fiber_count(gens, grading) == len(prune_redundant_generators(gens, order))
            refused += 1
        else:
            _assert_search_matches_whole_fiber(gens, grading)
    assert refused == 10


def test_oracle_refuses_a_grading_whose_entry_sums_misorder_degrees():
    # x1 * (x2 - x3) has degree (2, -3), entry sum -1, below the sum 1 of
    # x2 - x3's degree (1, 0): taken by entry sum, the multiple came first
    # and counted as a second minimal generator of an ideal that needs one
    gens = [Binomial((0, 1, 0), (0, 0, 1)), Binomial((1, 1, 0), (1, 0, 1))]
    grading = Grading(((1, 1, 1), (-3, 0, 0)))
    words = [(pack(g.plus), pack(g.minus)) for g in gens]
    for refused in (betti_splits, betti_degrees, has_unique_minimal_system,
                    lambda gens, grading: rule_words(words, grading)):
        with pytest.raises(ValueError,
                           match=REFUSED_GRADING + r"\(\(1, 1, 1\), \(-3, 0, 0\)\)$"):
            refused(gens, grading)
    with pytest.raises(ValueError, match=REFUSED_GRADING + r"\(\(1, 1, 1\), \(-1, 0, 0\)\)$"):
        betti_splits(gens, Grading(((1, 1, 1), (-1, 0, 0))))
    # the Groebner route and the positive row alone both count one
    assert len(prune_redundant_generators(gens, build_order_i((1, 1, 1), 1))) == 1
    assert betti_degrees(gens, Grading(((1, 1, 1),))) == {(1,): 1}


def test_whole_fiber_reference_counts_one_where_entry_sums_misorder_degrees():
    # the grading the oracle refuses above: the reference joins by every
    # plus side that divides, so x2 - x3 joins x1*x2 and x1*x3 from below
    # though its degree (1, 0) has the larger entry sum
    gens = [Binomial((0, 1, 0), (0, 0, 1)), Binomial((1, 1, 0), (1, 0, 1))]
    grading = Grading(((1, 1, 1), (-3, 0, 0)))
    assert _whole_fiber_count(gens, grading) == 1
    assert len(prune_redundant_generators(gens, build_order_i((1, 1, 1), 1))) == 1


def test_dropped_lower_generator_changes_count_in_both_routes():
    # h = x1 * g is redundant: g's move joins its two sides from below.
    # Drop g, and the search and the whole-fiber reference must both find
    # h needed (_assert_search_matches_whole_fiber compares them per degree).
    p = InstanceParams(3, 2, 4)
    grading = scalar_grading(p)
    minors = list(minors_closed_chain(p))
    g = minors[0]
    h = Binomial(tuple(e + (k == 0) for k, e in enumerate(g.plus)),
                 tuple(e + (k == 0) for k, e in enumerate(g.minus)))
    dh = grading.degree(h.plus)
    assert _assert_search_matches_whole_fiber(minors + [h], grading)[dh].new_generators() == 0
    mutant = minors[1:] + [h]
    assert _assert_search_matches_whole_fiber(mutant, grading)[dh].new_generators() == 1


def test_search_reports_an_exponent_past_the_limit():
    # x1*x2 -> x1^(2^31) by the lower generator x2 - x1^(2^31 - 1), backwards
    limit = 2**31 - 1
    grading = Grading.scalar((1, limit, limit + 1))
    gens = [Binomial((limit, 0, 0), (0, 1, 0)), Binomial((1, 1, 0), (0, 0, 1))]
    with pytest.raises(ExponentOverflowError, match=r"move to \(2147483648, 0, 0\) exceeds 2147483647"):
        betti_splits(gens, grading)


@pytest.mark.parametrize("nvars", [2, 14])
def test_search_overflow_names_the_whole_monomial(nvars):
    # the move x1^LIMIT -> x_n^LIMIT from x1^LIMIT * x_n reaches x_n^(LIMIT + 1)
    limit = 2**31 - 1

    def mono(e1, en):
        return (e1,) + (0,) * (nvars - 2) + (en,)

    gens = [Binomial(mono(limit, 0), mono(0, limit)), Binomial(mono(limit, 1), mono(1, limit))]
    past = mono(0, limit + 1)
    with pytest.raises(ExponentOverflowError,
                       match=rf"^move to {re.escape(str(past))} exceeds {limit}$"):
        betti_splits(gens, Grading.scalar((1,) * nvars))


def test_fiber_invariance_under_variable_permutation():
    w = (15, 18, 24, 36)
    perm = (2, 0, 3, 1)
    g1 = Grading.scalar(w)
    g2 = Grading.scalar(tuple(w[p] for p in perm))
    for d in (54, 72, 90):
        f1 = set(enumerate_fiber(g1, (d,)).monomials)
        f2_mapped = set()
        for m2 in enumerate_fiber(g2, (d,)).monomials:
            m = [0] * 4
            for k in range(4):
                m[perm[k]] = m2[k]
            f2_mapped.add(tuple(m))
        assert f1 == f2_mapped


def test_fiber_graph_components():
    p = InstanceParams(3, 2, 4)
    grading = scalar_grading(p)
    minor = Binomial((2, 0, 1, 0), (0, 3, 0, 0))
    # the fiber of 54 also holds (0, 1, 0, 1), which no side of the minor reaches
    assert len(enumerate_fiber(grading, (54,))) == 3
    split = betti_splits([minor], grading)[(54,)]
    assert split.below == (((0, 3, 0, 0),), ((2, 0, 1, 0),))
    assert split.full == (((0, 3, 0, 0), (2, 0, 1, 0)),)
    assert split.new_generators() == 1
    assert betti_splits([], grading) == {}
    assert betti_splits([Binomial.from_vector((0, 0, 0, 0))], grading) == {}
    bad = Binomial((1, 0, 0, 0), (0, 1, 0, 0))
    message = "generator x1 - x2 is not homogeneous for the grading"
    with pytest.raises(ValueError, match=message):
        betti_splits([bad], grading)
    # an engine rule's sides are compared the same way, with the same message
    with pytest.raises(ValueError, match=message):
        rule_words([(pack(bad.plus), pack(bad.minus))], grading)


def test_betti_principal_ideal():
    grading = Grading.scalar((1, 1, 1))
    g = Binomial((2, 0, 0), (0, 1, 1))
    assert betti_degrees([g], grading) == {(2,): 1}
    assert minimal_generator_count([g, g.opposite()], grading) == 1


def test_betti_counts_noncoprime_instance():
    p = InstanceParams(3, 2, 4)
    grading = scalar_grading(p)
    toric = tuple(toric_ideal(grading))
    assert betti_degrees(toric, grading) == {(36,): 1, (48,): 1, (54,): 1, (60,): 1}
    minors = minors_closed_chain(p)
    assert betti_degrees(minors, grading) == {
        (54,): 1, (66,): 1, (72,): 1, (90,): 1, (96,): 1, (108,): 1,
    }
    assert minimal_generator_count(toric, grading) == 4
    assert minimal_generator_count(minors, grading) == 6
    assert not has_unique_minimal_system(toric, grading)


def test_betti_ignores_redundant_multiples():
    p = InstanceParams(3, 2, 4)
    grading = scalar_grading(p)
    minors = list(minors_closed_chain(p))
    g = minors[0]
    padded = minors + [Binomial(
        tuple(e + (k == 0) for k, e in enumerate(g.plus)),
        tuple(e + (k == 0) for k, e in enumerate(g.minus)),
    )]
    assert betti_degrees(padded, grading) == betti_degrees(minors, grading)


def test_forced_generators_coprime_n4():
    p = InstanceParams(1, 3, 4)
    grading = scalar_grading(p)
    minors = minors_closed_chain(p)
    assert has_unique_minimal_system(minors, grading)
    splits = betti_splits(minors, grading)
    assert unique_minimal_system(splits)
    assert forced_generators(splits) == (
        Binomial((0, 3, 0, 1), (0, 0, 4, 0)),
        Binomial((2, 0, 3, 0), (0, 0, 0, 4)),
        Binomial((2, 3, 0, 0), (0, 0, 1, 3)),
        Binomial((3, 0, 0, 1), (0, 1, 3, 0)),
        Binomial((3, 0, 1, 0), (0, 4, 0, 0)),
        Binomial((5, 0, 0, 0), (0, 1, 0, 3)),
    )


def test_uniqueness_boundary():
    # a == b - 1 sits just outside the unique range
    p = InstanceParams(1, 2, 4)
    assert not has_unique_minimal_system(
        minors_closed_chain(p), scalar_grading(p)
    )
    splits = betti_splits(minors_closed_chain(p), scalar_grading(p))
    assert not unique_minimal_system(splits)
    assert forced_generators(splits) is None


def test_projective_side_betti():
    p = InstanceParams(1, 3, 4)
    grading = projective_grading(p)
    minors = minors_open_chain(p)
    assert betti_degrees(minors, grading) == {(4, 4): 1, (13, 4): 1, (16, 4): 1}
    assert has_unique_minimal_system(minors, grading)


def test_prune_redundant_generators():
    p = InstanceParams(3, 2, 4)
    order = build_order_i(generators(p), 1)
    minors = list(minors_closed_chain(p))
    g = minors[0]
    multiple = Binomial(
        tuple(e + (k == 1) for k, e in enumerate(g.plus)),
        tuple(e + (k == 1) for k, e in enumerate(g.minus)),
    )
    kept = prune_redundant_generators(minors + [multiple, g.opposite()], order)
    assert len(kept) == 6
    assert multiple.canonical() not in kept
    assert prune_redundant_generators([], order) == []


def _mixed_generators():
    # the closed-chain minors at (3,2,4) with zero, duplicate, opposite and
    # multiple generators mixed in
    p = InstanceParams(3, 2, 4)
    minors = list(minors_closed_chain(p))
    g = minors[0]
    multiple = Binomial(tuple(e + 1 for e in g.plus), tuple(e + 1 for e in g.minus))
    zero = Binomial.from_vector((0, 0, 0, 0))
    gens = [zero, g, minors[2].opposite(), multiple]
    gens += minors + [g.opposite(), zero]
    return gens, build_order_i(generators(p), 1)


def _minors_case(family, abn):
    p = InstanceParams(*abn)
    return list(family(p)), build_order_i(generators(p), 1)


def _toric_case(abn):
    gb = toric_ideal(scalar_grading(InstanceParams(*abn)))
    return list(gb.elements), gb.order


PRUNE_PINS = [
    (lambda: _minors_case(minors_closed_chain, (1, 3, 5)), 10,
     "6812738259f217a4fef73e64e20bc2a59bb41d800bbca00140176ab2c41d3a9c"),
    (lambda: _minors_case(minors_closed_chain, (3, 3, 5)), 10,
     "c514efff9353d320e095e2d4a31d05bf4202ae5c2b12c0208393c44d0bbb394f"),
    (lambda: _minors_case(minors_open_chain, (1, 2, 6)), 10,
     "0fae97b64636a26af1b6818e3ba2bb2ceed106f5f63f9cf116259813a7dc3897"),
    (lambda: _toric_case((3, 2, 4)), 4,
     "ff4054baf4c2ac1e998707b407e2f4040722f4f6262986a449676d53a881e957"),
    (_mixed_generators, 6,
     "a91528a270f0ce7976a1c0e1c2af514cea82b37c43e6e75fd6feab6f4c97fea9"),
]


@pytest.mark.parametrize("case, count, digest", PRUNE_PINS,
                         ids=["closed-1-3-5", "closed-3-3-5", "open-1-2-6", "toric-3-2-4", "mixed"])
def test_prune_redundant_generators_pins_kept_lists(case, count, digest):
    # which generators are kept, and in which order, not only how many
    gens, order = case()
    kept = prune_redundant_generators(gens, order)
    assert len(kept) == count
    assert hashlib.sha256("\n".join(map(format_binomial, kept)).encode()).hexdigest() == digest


def _reverse_delete(gens, order):
    # the reference: in prune's sorted order, drop each generator that lies
    # in the ideal of the ones kept before it and all those after it
    current = sorted({g.canonical() for g in gens if not g.is_zero()},
                     key=lambda g: (sum(g.plus) + sum(g.minus), g.plus, g.minus))
    kept: list[Binomial] = []
    for pos, g in enumerate(current):
        others = kept + current[pos + 1:]
        if not ideal_equal(others, others + [g], order):
            kept.append(g)
    return kept


def _random_graded_generators(rng):
    # several binomials in each of a few weighted degrees, so that one
    # degree's generators close cycles in its fiber graph
    nvars = rng.randint(3, 4)
    w = tuple(rng.randint(1, 3) for _ in range(nvars))
    by_degree: dict[int, list[tuple[int, ...]]] = {}
    for e in itertools.product(range(3), repeat=nvars):
        by_degree.setdefault(sum(x * y for x, y in zip(w, e)), []).append(e)
    degrees = sorted(d for d, monos in by_degree.items() if len(monos) > 2)
    gens = []
    for d in rng.sample(degrees, min(len(degrees), rng.randint(1, 3))):
        for _ in range(rng.randint(2, 5)):
            gens.append(Binomial(*rng.sample(by_degree[d], 2)))
    return gens, build_order_i(w, rng.randint(1, nvars))


def test_prune_matches_reverse_delete():
    # One Buchberger run that adds each degree's generators from the back
    # keeps the list that deleting from the front keeps, on the pinned
    # cases and on random graded inputs with several generators per degree.
    cases = [case() for case, _, _ in PRUNE_PINS]
    rng = random.Random(20218)
    cases += [_random_graded_generators(rng) for _ in range(60)]
    for gens, order in cases:
        assert prune_redundant_generators(gens, order) == _reverse_delete(gens, order), gens


def test_oracle_box_components_are_one_word_or_searched():
    # over the oracle box (betti minors-x and minors-y, unique minors-x at
    # a 1..6, b 2..6, n 5..7) 7,020 of the 7,380 below-components are one
    # word: a side that a lower move divides reaches a second word, so
    # these are exactly the sides no lower move divides, and 360 searches
    # reach further
    sizes = collections.Counter()
    for a, b, n in itertools.product(range(1, 7), range(2, 7), range(5, 8)):
        for closed in (True, False, True):  # betti minors-x, betti minors-y, unique minors-x
            for split in word_splits(minor_words(InstanceParams(a, b, n), closed), n).values():
                sizes.update(len(comp) > 1 for comp in split.comps)
    assert sizes == {False: 7020, True: 360}
