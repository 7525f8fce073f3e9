"""Fiber enumeration and the minimal-generator oracle."""

import itertools
import random

import pytest

from repunit_toric.binomials import Binomial, Grading
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
)
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
    pos = grading.positive_row()
    pi = list(grading.rows).index(pos)
    ranges = [range(degree[pi] // p + 1) for p in pos]
    return sorted(
        e for e in itertools.product(*ranges) if grading.degree(e) == tuple(degree)
    )


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
    assert forced_generators(minors, grading) == (
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
    assert forced_generators(minors_closed_chain(p).binomials, scalar_grading(p)) is None


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
