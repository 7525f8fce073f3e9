import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from repunit_toric.intlinalg import (
    det,
    dot,
    kernel_basis,
    maximal_minors,
    rank,
    row_hnf,
    xgcd,
)


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
