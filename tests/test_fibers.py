"""Fiber enumeration and the minimal-generator oracle."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from repunit_toric import fibers
from repunit_toric.binomials import Binomial, Grading, format_binomial
from repunit_toric.families import (
    minors_closed_chain,
    minors_open_chain,
    projective_grading,
    scalar_grading,
    toric_ideal,
)
from repunit_toric.fibers import (
    UnionFind,
    betti_degrees,
    betti_splits,
    enumerate_fiber,
    forced_generators,
    has_unique_minimal_system,
    minimal_generator_count,
    prune_redundant_generators,
    suffix_table,
    unique_minimal_system,
)
from repunit_toric.groebner import ideal_equal
from repunit_toric.orders import build_order_i
from repunit_toric.semigroup import InstanceParams, generators


def test_union_find():
    uf = UnionFind(5)
    uf.union(0, 1)
    uf.union(3, 4)
    uf.union(4, 0)
    assert uf.find(3) == uf.find(1)
    assert uf.find(2) != uf.find(0)
    assert uf.groups() == [[0, 1, 3, 4], [2]]


def brute_fiber(grading, degree):
    """Every exponent vector within the positive-row budget whose degree matches, in lex order."""
    pos = grading.positive_row()
    budget = degree[list(grading.rows).index(pos)]
    out = []

    def extend(prefix, rest):
        if len(prefix) == len(pos):
            if rest == 0 and grading.degree(prefix) == tuple(degree):
                out.append(prefix)
            return
        w = pos[len(prefix)]
        for e in range(rest // w + 1):
            extend(prefix + (e,), rest - e * w)

    extend((), budget)
    return out


def test_enumerate_fiber_frozen_values():
    w = Grading.scalar((15, 18, 24, 36))
    fib = enumerate_fiber(w, (54,))
    assert fib.monomials == ((0, 1, 0, 1), (0, 3, 0, 0), (2, 0, 1, 0))
    assert len(fib) == 3
    assert enumerate_fiber(w, (0,)).monomials == ((0, 0, 0, 0),)
    assert enumerate_fiber(w, (7,)).monomials == ()
    assert enumerate_fiber(w, (-5,)).monomials == ()

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

    # one and two variables; closing-pair weights sharing a factor, so only
    # one residue class of the next-to-last exponent closes; a positive row
    # that is not the first; other rows with zero, negative and equal ratios
    # (one a multiple of the positive row).  Degrees: those of small
    # exponents, one more in the positive row (outside the residue class
    # when weights share a factor), and other-row entries on and just past
    # the ends of the interval the positive-row budget can reach.
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

    # five to seven variables, so both halves of the split hold several: scalar
    # weights drawn unsorted (the looked-up half sometimes holds the small
    # ones), projective gradings and a two-row grading with a mixed-sign first
    # row whose positive row is the second.  Degrees: those of small exponents
    # and each of them one off in each row.
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


def test_shared_suffix_table_gives_each_degrees_fiber():
    # One table built past every degree's budget lists the fibers that each
    # degree's own table and the brute force list: degree 0, negative
    # degrees, and degrees off the positive row's gcd included.
    rng = random.Random(19)
    for _ in range(30):
        n = rng.randint(1, 6)
        g = rng.choice((1, 1, 2, 3))
        pos = tuple(g * rng.randint(1, 5) for _ in range(n))
        if rng.random() < 0.5:
            grading = Grading.scalar(pos)
        else:
            other = tuple(rng.randint(-3, 3) for _ in range(n))
            grading = Grading((other, pos) if rng.random() < 0.5 else (pos, other))
        pi = grading.rows.index(grading.positive_row())
        degrees = {grading.degree(tuple(rng.randint(0, 2) for _ in range(n))) for _ in range(6)}
        degrees |= {d[:pi] + (d[pi] + 1,) + d[pi + 1 :] for d in list(degrees)}
        degrees |= {tuple(0 for _ in grading.rows), tuple(-1 for _ in grading.rows)}
        table = suffix_table(grading, max(d[pi] for d in degrees) + rng.randint(0, 4))
        for degree in sorted(degrees):
            shared = enumerate_fiber(grading, degree, table)
            assert shared == enumerate_fiber(grading, degree), (grading, degree)
            assert list(shared.monomials) == brute_fiber(grading, degree), (grading, degree)


def test_enumerate_fiber_rejects_a_table_it_cannot_use():
    grading = Grading.scalar((15, 18, 24, 36))
    small = suffix_table(grading, 53)
    with pytest.raises(ValueError, match=r"degree \(54,\) .* budget 53"):
        enumerate_fiber(grading, (54,), small)
    assert enumerate_fiber(grading, (54,), suffix_table(grading, 54)).monomials == (
        (0, 1, 0, 1), (0, 3, 0, 0), (2, 0, 1, 0))
    other = suffix_table(Grading.scalar((15, 18, 24, 37)), 100)
    with pytest.raises(ValueError, match=r"budget 100 .*another grading .*degree \(54,\)"):
        enumerate_fiber(grading, (54,), other)


def test_betti_splits_builds_one_table_per_call(monkeypatch):
    built = []

    def counting(grading, budget):
        built.append(budget)
        return suffix_table(grading, budget)

    monkeypatch.setattr(fibers, "suffix_table", counting)
    p = InstanceParams(1, 3, 5)
    for family, grading_of in (
        (minors_closed_chain, scalar_grading),
        (minors_open_chain, projective_grading),
    ):
        grading = grading_of(p)
        gens = family(p).binomials
        built.clear()
        splits = betti_splits(gens, grading)
        pi = grading.rows.index(grading.positive_row())
        assert len(splits) > 1
        assert built == [max(d[pi] for d in splits)]
    built.clear()
    assert betti_splits([], scalar_grading(p)) == {}
    assert betti_splits([Binomial.from_vector((0,) * 5)], scalar_grading(p)) == {}
    assert built == []


@pytest.mark.parametrize("source", ["minors-x", "minors-y"])
def test_betti_split_fibers_match_brute_force(monkeypatch, source):
    family, grading_of = {
        "minors-x": (minors_closed_chain, scalar_grading),
        "minors-y": (minors_open_chain, projective_grading),
    }[source]
    requested = []

    def recording(grading, degree, table=None):
        fib = enumerate_fiber(grading, degree, table)
        requested.append((grading, fib))
        return fib

    monkeypatch.setattr(fibers, "enumerate_fiber", recording)
    for a, b, n in itertools.product(range(1, 4), range(2, 5), range(4, 6)):
        p = InstanceParams(a, b, n)
        betti_splits(family(p).binomials, grading_of(p))
    assert len(requested) >= 18  # at least one degree per instance
    for grading, fib in requested:
        assert list(fib.monomials) == brute_fiber(grading, fib.degree), (grading, fib.degree)


def test_oracle_fibers_pinned(monkeypatch):
    """Every fiber betti_splits enumerates on a small oracle box, and every split, by digest.

    The fiber digest covers degree and monomials; the split digest covers
    each degree's below and full components.
    """
    digest = hashlib.sha256()
    split_digest = hashlib.sha256()
    count = 0

    def recording(grading, degree, table=None):
        nonlocal count
        fib = enumerate_fiber(grading, degree, table)
        digest.update(f"{fib.degree} {fib.monomials}\n".encode())
        count += 1
        return fib

    monkeypatch.setattr(fibers, "enumerate_fiber", recording)
    for family, grading_of in (
        (minors_closed_chain, scalar_grading),
        (minors_open_chain, projective_grading),
    ):
        for a, b, n in itertools.product(range(1, 5), range(2, 6), range(5, 8)):
            p = InstanceParams(a, b, n)
            for d, split in betti_splits(family(p).binomials, grading_of(p)).items():
                split_digest.update(f"{d} {split.below} {split.full}\n".encode())
    assert count == 1232
    assert digest.hexdigest() == "7640f2f6ea25dab419450a11f6d1c91b8da6e4fb69fecf0025bb51be31d92a93"
    assert split_digest.hexdigest() == "30fe47098538586e21756c37e54a75a6906f50da663926cddcb820cae68c0bef"


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
    split = betti_splits([minor], grading)[(54,)]
    assert len(split.below) == 3
    assert len(split.full) == 2
    assert ((0, 3, 0, 0), (2, 0, 1, 0)) in split.full
    bad = Binomial((1, 0, 0, 0), (0, 1, 0, 0))
    with pytest.raises(ValueError):
        betti_splits([bad], grading)


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
    minors = minors_closed_chain(p).binomials
    assert betti_degrees(minors, grading) == {
        (54,): 1, (66,): 1, (72,): 1, (90,): 1, (96,): 1, (108,): 1,
    }
    assert minimal_generator_count(toric, grading) == 4
    assert minimal_generator_count(minors, grading) == 6
    assert not has_unique_minimal_system(toric, grading)


def test_betti_ignores_redundant_multiples():
    p = InstanceParams(3, 2, 4)
    grading = scalar_grading(p)
    minors = list(minors_closed_chain(p).binomials)
    g = minors[0]
    padded = minors + [Binomial(
        tuple(e + (k == 0) for k, e in enumerate(g.plus)),
        tuple(e + (k == 0) for k, e in enumerate(g.minus)),
    )]
    assert betti_degrees(padded, grading) == betti_degrees(minors, grading)


def test_forced_generators_coprime_n4():
    p = InstanceParams(1, 3, 4)
    grading = scalar_grading(p)
    minors = minors_closed_chain(p).binomials
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
        minors_closed_chain(p).binomials, scalar_grading(p)
    )
    splits = betti_splits(minors_closed_chain(p).binomials, scalar_grading(p))
    assert not unique_minimal_system(splits)
    assert forced_generators(splits) is None


def test_projective_side_betti():
    p = InstanceParams(1, 3, 4)
    grading = projective_grading(p)
    minors = minors_open_chain(p).binomials
    assert betti_degrees(minors, grading) == {(4, 4): 1, (13, 4): 1, (16, 4): 1}
    assert has_unique_minimal_system(minors, grading)


def test_prune_redundant_generators():
    p = InstanceParams(3, 2, 4)
    order = build_order_i(generators(p), 1)
    minors = list(minors_closed_chain(p).binomials)
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
    minors = list(minors_closed_chain(p).binomials)
    g = minors[0]
    multiple = Binomial(tuple(e + 1 for e in g.plus), tuple(e + 1 for e in g.minus))
    zero = Binomial.from_vector((0, 0, 0, 0))
    gens = [zero, g, minors[2].opposite(), multiple]
    gens += minors + [g.opposite(), zero]
    return gens, build_order_i(generators(p), 1)


def _minors_case(family, abn):
    p = InstanceParams(*abn)
    return list(family(p).binomials), build_order_i(generators(p), 1)


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
