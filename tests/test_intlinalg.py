import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from repunit_toric import families
from repunit_toric.binomials import Grading
from repunit_toric.families import projective_grading, scalar_grading, toric_basis
from repunit_toric.intlinalg import (
    _echelon,
    det,
    dot,
    kernel_basis,
    maximal_minors,
    rank,
    row_hnf,
    xgcd,
)
from repunit_toric.orders import build_order_i, five_variable_order
from repunit_toric.semigroup import InstanceParams, generators


@given(st.integers(min_value=-10**6, max_value=10**6), st.integers(min_value=-10**6, max_value=10**6))
def test_xgcd_identity(a, b):
    g, x, y = xgcd(a, b)
    assert g == a * x + b * y
    assert g >= 0
    if a or b:
        assert a % g == 0 and b % g == 0


def test_rank_and_det():
    assert rank(((1, 0), (0, 1))) == 2
    assert rank(((0, 0), (0, 0))) == 0
    assert rank(((1, 2), (2, 4))) == 1
    assert det(((2, 1), (1, 1))) == 1
    assert det(((1, 2), (2, 4))) == 0
    assert det(((0, 1), (1, 0))) == -1
    assert det(((3,),)) == 3


def _leibniz(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
    return total


def test_det_matches_leibniz_expansion():
    # (0, 1; -1, 0) needs a row swap and then a pivot negation
    mats = [((-7,),), ((0, 1), (-1, 0))]
    rng = random.Random(7)
    for _ in range(400):
        n = rng.randint(1, 4)
        mats.append(tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n)))
    for rows in mats:
        assert det(rows) == _leibniz(rows), rows


def test_kernel_basis_of_weight_row():
    w = (15, 18, 24, 36)
    basis = kernel_basis((w,))
    assert len(basis) == 3
    assert basis == row_hnf(basis)
    for v in basis:
        assert dot(w, v) == 0
    # every short integer vector orthogonal to w lies in the row span
    span = row_hnf(basis)
    rng = random.Random(5)
    found = 0
    while found < 25:
        v = tuple(rng.randint(-6, 6) for _ in range(4))
        if any(v) and dot(w, v) == 0:
            assert row_hnf(basis + (v,)) == span
            found += 1
    # seeded multi-row matrices: a Hermite-form basis of the whole kernel
    for _ in range(24):
        m = rng.randint(1, 3)
        n = rng.randint(m + 1, 5)
        rows = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(m))
        basis = kernel_basis(rows)
        assert basis == row_hnf(basis), rows
        assert len(basis) == n - rank(rows), rows
        for v in basis:
            assert all(dot(r, v) == 0 for r in rows), (rows, v)
        for v in itertools.product(range(-2, 3), repeat=n):
            if all(dot(r, v) == 0 for r in rows):
                assert row_hnf(basis + (v,)) == basis, (rows, v)


def test_kernel_basis_edge_cases():
    assert kernel_basis(((1, 0), (0, 1))) == ()
    assert kernel_basis(((5,),)) == ()
    basis = kernel_basis(((0, 0, 0),))
    assert row_hnf(basis) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_row_hnf_known():
    assert row_hnf(((0, 1), (1, 0))) == ((1, 0), (0, 1))
    assert row_hnf(((2, 4),)) == ((2, 4),)
    assert row_hnf(((2, 4), (1, 2))) == ((1, 2),)
    assert row_hnf(((6,), (4,))) == ((2,),)


@given(st.integers(min_value=0, max_value=2**32))
def test_row_hnf_invariant_under_row_mixing(seed):
    rng = random.Random(seed)
    rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)]
    mixed = [list(r) for r in rows]
    for _ in range(6):
        i, j = rng.sample(range(3), 2)
        c = rng.randint(-3, 3)
        mixed[i] = [x + c * y for x, y in zip(mixed[i], mixed[j])]
    rng.shuffle(mixed)
    assert row_hnf(tuple(tuple(r) for r in rows)) == row_hnf(tuple(tuple(r) for r in mixed))


def test_maximal_minors_small_weight_matrix():
    rows = ((2, -3, 1), (2, 2, -3))
    assert maximal_minors(rows) == (7, -8, 10)
    with pytest.raises(ValueError):
        maximal_minors(((1, 2, 3),))


def _peeling_cases(rng):
    # seeded small matrices rich in single-entry rows: repeated unit rows on
    # one column, zero rows, unit rows whose column denser rows also use,
    # all-unit matrices, and both m < n and m > n
    for _ in range(600):
        m, n = rng.randint(1, 7), rng.randint(1, 6)
        rows = []
        for _ in range(m):
            kind = rng.random()
            if kind < 0.45:
                row = [0] * n
                row[rng.randrange(n)] = rng.choice((-3, -2, -1, 1, 2, 5))
            elif kind < 0.55:
                row = [0] * n
            else:
                row = [rng.randint(-4, 4) for _ in range(n)]
            rows.append(tuple(row))
        if rng.random() < 0.3:  # one unit row twice, scaled
            r = rng.randrange(m)
            if sum(map(bool, rows[r])) == 1:
                rows.append(tuple(-2 * x for x in rows[r]))
        yield tuple(rows)
    for n in range(1, 6):
        yield tuple(tuple(int(c == k) for c in range(n)) for k in range(n))  # identity
        yield tuple(tuple(3 * (c == k % n) for c in range(n)) for k in range(2 * n))
        yield ((0,) * n,) * 3


def _program_orders(monkeypatch):
    # every order matrix the program builds: build_order_i at n = 2..10
    # and every i, five_variable_order, and toric_basis' elimination stacks
    # on the acceptance grid for one-row and two-row gradings; the stacks
    # are taken from the engine call, which is not run
    rows = [build_order_i(generators(InstanceParams(2, 3, n)), i).rows
            for n in range(2, 11) for i in range(1, n + 1)]
    rows.append(five_variable_order(generators(InstanceParams(1, 2, 5))).rows)

    class Stop(Exception):
        pass

    def recording(gens, order, trace=None, **kwargs):
        rows.append(order.rows)
        raise Stop

    monkeypatch.setattr(families, "buchberger", recording)
    grid = list(itertools.product((1, 2, 3, 4, 5), (2, 3, 4, 5), (4, 5, 6, 7)))
    for a, b, n in grid:
        p = InstanceParams(a, b, n)
        for grading in (scalar_grading(p), projective_grading(p)):
            for i in (1, n):
                with pytest.raises(Stop):
                    toric_basis(grading, build_order_i(grading.positive_row(), i))
    with pytest.raises(Stop):
        toric_basis(Grading(((2, 3, 5, 7), (1, -1, 2, 0))))
    assert len(rows) == 54 + 1 + len(grid) * 4 + 1
    return rows


def test_rank_peeling_matches_full_elimination_and_sympy(monkeypatch):
    sympy = pytest.importorskip("sympy")
    cases = list(_peeling_cases(random.Random(46)))
    orders = _program_orders(monkeypatch)
    for rows in cases + orders:
        want = _echelon(rows)[1]
        assert rank(rows) == want == sympy.Matrix(rows).rank(), rows
    for rows in orders:
        assert rank(rows) == len(rows[0])
    # the cases reach every peeling shape
    units = [sum(sum(map(bool, r)) == 1 for r in rows) for rows in cases]
    assert sum(u == len(rows) for u, rows in zip(units, cases)) >= 10
    assert sum(0 < u < len(rows) for u, rows in zip(units, cases)) >= 200
    assert any(len(rows) < len(rows[0]) for rows in cases)
    assert any(len(rows) > len(rows[0]) for rows in cases)


def test_rank_still_rejects_a_ragged_matrix():
    for rows in (((1, 0), (0,)), ((1,), (1, 2, 3))):
        with pytest.raises(ValueError, match="ragged matrix"):
            rank(rows)
    assert rank(()) == 0
