"""Acceptance gate: ten end-to-end criteria over the full parameter grids.

Each test prints exactly one pass/fail line (run with pytest -s to see all
of them) and then asserts it.  Expensive intermediates, the toric bases in
particular, are cached at module scope and shared between criteria.
"""

import itertools
import random
import time
from functools import lru_cache
from math import comb

from repunit_toric.binomials import Binomial
from repunit_toric.families import (
    minors_closed_chain,
    minors_open_chain,
    projective_grading,
    projective_relation_matrix,
    scalar_grading,
    structured_basis,
    toric_ideal,
)
from repunit_toric.fibers import (
    betti_splits,
    forced_generators,
    has_unique_minimal_system,
    minimal_generator_count,
    prune_redundant_generators,
)
from repunit_toric.groebner import (
    GroebnerBasis,
    buchberger,
    groebner_reduced,
    ideal_equal,
    is_groebner_basis,
    is_minimal_basis,
    is_reduced_basis,
    reduce_gb,
    saturate_torus,
)
from repunit_toric.orders import build_order_i, five_variable_order, minor_side_predicate
from repunit_toric.semigroup import (
    InstanceParams,
    gcd_of_generators,
    generators,
    homogeneity_identity_holds,
)
from repunit_toric.verify import four_variable_generators

GRID = [
    (a, b, n)
    for n in (4, 5, 6, 7)
    for b in (2, 3, 4, 5)
    for a in (1, 2, 3, 4, 5)
]
J_GRID = [(b, n) for n in (4, 5, 6) for b in (2, 3, 4)]


def emit(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@lru_cache(maxsize=None)
def params(a: int, b: int, n: int) -> InstanceParams:
    return InstanceParams(a, b, n)


@lru_cache(maxsize=None)
def order_for(a: int, b: int, n: int, i: int):
    return build_order_i(generators(params(a, b, n)), i)


@lru_cache(maxsize=None)
def open_minors(a: int, b: int, n: int):
    return minors_open_chain(params(a, b, n))


@lru_cache(maxsize=None)
def closed_minors(a: int, b: int, n: int):
    return minors_closed_chain(params(a, b, n))


@lru_cache(maxsize=None)
def scalar_toric(a: int, b: int, n: int):
    return toric_ideal(scalar_grading(params(a, b, n)))


@lru_cache(maxsize=None)
def coprime_grid():
    return tuple(
        (a, b, n) for a, b, n in GRID if gcd_of_generators(params(a, b, n)) == 1
    )


def test_criterion_01_open_family_is_the_reduced_basis():
    t0 = time.perf_counter()
    bases = 0
    for a, b, n in GRID:
        expected = comb(n - 1, 2)
        for i in range(1, n + 1):
            order = order_for(a, b, n, i)
            fam = structured_basis(params(a, b, n), i, False).elements
            assert len(fam) == len(set(fam)) == expected, (a, b, n, i)
            assert is_groebner_basis(GroebnerBasis.of(fam, order)), (a, b, n, i)
            assert is_reduced_basis(GroebnerBasis.of(fam, order)), (a, b, n, i)
            red = groebner_reduced(open_minors(a, b, n), order)
            assert set(red.elements) == set(fam), (a, b, n, i)
            bases += 1
    elapsed = time.perf_counter() - t0
    emit(1, elapsed < 300.0, f"{bases} reduced bases across the grid in {elapsed:.1f}s")


def test_criterion_02_closed_family_is_a_minimal_basis():
    bases = 0
    for a, b, n in GRID:
        expected = comb(n, 2)
        for i in range(1, n + 1):
            order = order_for(a, b, n, i)
            fam = structured_basis(params(a, b, n), i, True).elements
            assert len(fam) == len(set(fam)) == expected, (a, b, n, i)
            assert is_groebner_basis(GroebnerBasis.of(fam, order)), (a, b, n, i)
            assert is_minimal_basis(GroebnerBasis.of(fam, order)), (a, b, n, i)
            bases += 1
    emit(2, True, f"{bases} minimal bases of size C(n,2) across the grid")


def test_criterion_03_projective_saturation_and_uniqueness():
    checked = 0
    for b, n in J_GRID:
        p = params(1, b, n)
        grading = projective_grading(p)
        rel = [Binomial.from_vector(r).canonical() for r in projective_relation_matrix(p)]
        sat = saturate_torus(rel, grading)
        order = build_order_i(grading.positive_row(), 1)
        assert ideal_equal(sat, open_minors(1, b, n), order), (b, n)
        assert has_unique_minimal_system(list(open_minors(1, b, n)), grading), (b, n)
        checked += 1
    emit(3, True, f"saturation equals the open-chain minors on {checked} instances")


def test_criterion_04_toric_equality_and_uniqueness_equivalence():
    t0 = time.perf_counter()
    grid = coprime_grid()
    for a, b, n in grid:
        gb = scalar_toric(a, b, n)
        red_minors = groebner_reduced(closed_minors(a, b, n), gb.order)
        assert red_minors.elements == gb.elements, (a, b, n)
        oracle = has_unique_minimal_system(list(gb.elements), scalar_grading(params(a, b, n)))
        predicate = a < b - 1
        families_reduced = all(
            is_reduced_basis(structured_basis(params(a, b, n), i, True))
            for i in range(1, n + 1)
        )
        assert oracle == predicate == families_reduced, (a, b, n)
    elapsed = time.perf_counter() - t0
    emit(4, True, f"{len(grid)} coprime instances, three-way agreement, {elapsed:.0f}s")


def test_criterion_05_noncoprime_counts():
    p = params(3, 2, 4)
    assert generators(p) == (15, 18, 24, 36)
    assert gcd_of_generators(p) == 3
    grading = scalar_grading(p)
    gb = scalar_toric(3, 2, 4)
    toric_count = minimal_generator_count(list(gb.elements), grading)
    minor_count = minimal_generator_count(list(closed_minors(3, 2, 4)), grading)
    assert toric_count == 4
    assert minor_count == 6
    assert not ideal_equal(gb, closed_minors(3, 2, 4), gb.order)
    emit(5, True, "gcd 3 instance: 4 toric generators vs 6 minors, ideals differ")


def test_criterion_06_five_variable_growth():
    sizes = []
    for a in (1, 2, 3):
        p = params(a, 5, 5)
        assert gcd_of_generators(p) == 1
        order = five_variable_order(generators(p))
        red = groebner_reduced(open_minors(a, 5, 5), order)
        assert is_groebner_basis(red)
        sizes.append(len(red.elements))
        assert len(structured_basis(p, 1, False)) == comb(4, 2) == 6
    assert sizes == [8, 8, 8]
    emit(6, True, "tailor-made order needs 8 elements, above the uniform 6")


def test_criterion_07_nonminor_leading_element():
    p = params(3, 3, 4)
    order = order_for(3, 3, 4, 2)
    red = groebner_reduced(closed_minors(3, 3, 4), order)
    target = Binomial((0, 0, 0, 4), (1, 4, 2, 0))
    assert target in red.elements
    minor_forms = {g.canonical() for g in closed_minors(3, 3, 4)}
    assert target.canonical() not in minor_forms
    emit(7, True, "x4^4 - x1*x2^4*x3^2 enters the reduced basis, not a minor")


def test_criterion_08_forced_system_matches_printed_list():
    p = params(1, 3, 4)
    gb = scalar_toric(1, 3, 4)
    forced = forced_generators(betti_splits(list(gb.elements), scalar_grading(p)))
    assert forced is not None
    assert set(forced) == set(four_variable_generators(p))
    assert len(forced) == 6
    emit(8, True, "unique minimal system equals the six listed binomials")


def test_criterion_09_identity_and_side_classifier():
    rng = random.Random(20260816)
    failures = 0
    for _ in range(10000):
        p = params(rng.randint(1, 25), rng.randint(1, 25), rng.randint(2, 12))
        j = rng.randint(1, 3 * p.n)
        k = rng.randint(1, 3 * p.n)
        if not homogeneity_identity_holds(p, j, k):
            failures += 1
    assert failures == 0

    triples = 0
    for n in range(3, 9):
        for a, b in itertools.product((1, 2), (2, 5)):
            w = generators(params(a, b, n))
            for i in range(1, n + 1):
                order = build_order_i(w, i)
                for j in range(1, n - 1):
                    for k in range(j + 1, n):
                        low = [0] * n
                        low[j - 1] += b
                        low[k] += 1
                        high = [0] * n
                        high[j] += 1
                        high[k - 1] += b
                        got = order.compare(tuple(low), tuple(high)) < 0
                        assert got == minor_side_predicate(n, i, j, k), (n, a, b, i, j, k)
                        triples += 1
    emit(9, True, f"10000 random identity draws, {triples} exhaustive side checks")


def test_criterion_10_engine_self_consistency():
    rng = random.Random(99)

    # reduced bases do not depend on generator order
    shuffle_instances = [
        (closed_minors(3, 2, 4), order_for(3, 2, 4, 1)),
        (closed_minors(1, 3, 5), order_for(1, 3, 5, 3)),
        (open_minors(2, 3, 6), order_for(2, 3, 6, 1)),
        (tuple(scalar_toric(3, 2, 4).elements), scalar_toric(3, 2, 4).order),
    ]
    for gens, order in shuffle_instances:
        reference = groebner_reduced(gens, order).elements
        pool = list(gens)
        for _ in range(3):
            rng.shuffle(pool)
            assert groebner_reduced(pool, order).elements == reference

    # saturating twice changes nothing
    for b, n in J_GRID:
        p = params(1, b, n)
        grading = projective_grading(p)
        rel = [Binomial.from_vector(r).canonical() for r in projective_relation_matrix(p)]
        sat = saturate_torus(rel, grading)
        again = saturate_torus(sat, grading)
        order = build_order_i(grading.positive_row(), 1)
        assert ideal_equal(sat, again, order), (b, n)
    toric = scalar_toric(3, 2, 4)
    sat = saturate_torus(list(toric.elements), scalar_grading(params(3, 2, 4)))
    assert ideal_equal(sat, toric, toric.order)

    # fiber oracle and the pruning route count the same minimal generators
    agreements = 0
    for a, b, n in GRID:
        grading = scalar_grading(params(a, b, n))
        minors = list(closed_minors(a, b, n))
        order = order_for(a, b, n, 1)
        assert minimal_generator_count(minors, grading) == len(
            prune_redundant_generators(minors, order)
        ), (a, b, n)
        agreements += 1
    for b, n in J_GRID:
        grading = projective_grading(params(1, b, n))
        gens = list(open_minors(1, b, n))
        order = order_for(1, b, n, 1)
        assert minimal_generator_count(gens, grading) == len(
            prune_redundant_generators(gens, order)
        ), (b, n)
        agreements += 1
    for a, b, n in coprime_grid():
        gb = scalar_toric(a, b, n)
        grading = scalar_grading(params(a, b, n))
        assert minimal_generator_count(list(gb.elements), grading) == len(
            prune_redundant_generators(list(gb.elements), gb.order)
        ), (a, b, n)
        agreements += 1
    emit(10, True, f"shuffles, resaturation and {agreements} count agreements hold")
