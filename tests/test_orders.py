"""Matrix term orders and the per-index comparison rules."""

import itertools
import random
from functools import cmp_to_key

import pytest
from hypothesis import given, settings, strategies as st

from repunit_toric import families
from repunit_toric.binomials import Grading
from repunit_toric.families import scalar_grading, toric_ideal
from repunit_toric.groebner import buchberger
from repunit_toric.orders import (
    MatrixOrder,
    build_order_i,
    cheapness_for_index,
    five_variable_order,
    minor_side_predicate,
)
from repunit_toric.semigroup import InstanceParams, generators


def test_build_order_small_matrices():
    assert build_order_i((7, 8), 1).rows == ((7, 8), (-1, 0))
    order = build_order_i((15, 18, 24, 36), 1)
    assert order.rows == (
        (15, 18, 24, 36),
        (-1, 0, 0, 0),
        (0, 0, 0, -1),
        (0, 0, -1, 0),
    )


def test_cheapness_layout():
    assert cheapness_for_index(5, 3) == (3, 2, 1, 5, 4)
    assert cheapness_for_index(4, 1) == (1, 4, 3, 2)
    assert cheapness_for_index(6, 6) == (6, 5, 4, 3, 2, 1)
    # below the weight row, one -1 per variable from the cheapest on; the
    # most expensive variable gets no row
    assert build_order_i((5, 6, 7, 8, 9), 3).rows == (
        (5, 6, 7, 8, 9),
        (0, 0, -1, 0, 0),
        (0, -1, 0, 0, 0),
        (-1, 0, 0, 0, 0),
        (0, 0, 0, 0, -1),
    )
    assert build_order_i((5, 6, 7, 8), 4).rows == (
        (5, 6, 7, 8),
        (0, 0, 0, -1),
        (0, 0, -1, 0),
        (0, -1, 0, 0),
    )


def test_compare_prefers_lower_weight():
    order = build_order_i((15, 18, 24, 36), 1)
    assert order.compare((0, 0, 0, 0), (1, 0, 0, 0)) == -1
    assert order.compare((1, 0, 0, 0), (1, 0, 0, 0)) == 0
    # equal weight 54: the side divisible by the cheapest variable loses ties
    assert order.compare((2, 0, 1, 0), (0, 3, 0, 0)) == -1


@given(st.data())
@settings(max_examples=200)
def test_compare_is_a_strict_total_order(data):
    w = data.draw(st.tuples(*[st.integers(min_value=1, max_value=50)] * 4))
    i = data.draw(st.integers(min_value=1, max_value=4))
    order = build_order_i(w, i)
    ms = st.tuples(*[st.integers(min_value=0, max_value=6)] * 4)
    u, v, t = data.draw(ms), data.draw(ms), data.draw(ms)
    assert order.compare(u, v) == -order.compare(v, u)
    assert (order.compare(u, v) == 0) == (u == v)
    if order.compare(u, v) <= 0 and order.compare(v, t) <= 0:
        assert order.compare(u, t) <= 0
    # multiplication by a common monomial never flips a comparison
    shifted = tuple(x + y for x, y in zip(u, t))
    shifted2 = tuple(x + y for x, y in zip(v, t))
    assert order.compare(shifted, shifted2) == order.compare(u, v)


def test_matrix_order_validation():
    with pytest.raises(ValueError):
        MatrixOrder(((1, 1), (2, 2)))
    with pytest.raises(ValueError):
        MatrixOrder(((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        MatrixOrder(((1, 1, 1), (1, 0, 0)))
    # any stack of n columns, at least n rows and rank n is an order
    tall = MatrixOrder(((1, 2), (2, 4), (0, -1), (3, 3)))
    assert tall.nvars == 2 and tall.compare((2, 0), (0, 1)) == 1
    for rows, match in [
        (((1, 2, 3), (0, 0, -1)), "full column rank"),  # fewer rows than columns
        (((1, 2, 3), (2, 4, 6), (0, 0, -1), (1, 2, 2)), "full column rank"),
        (((1, 2), (0, -1), (1,)), "rectangular"),
        (((1, 2), (0, -1, 0), (1, 0, 0)), "rectangular"),
        ((), "nonempty"),
        (((),), "nonempty"),
        (((1, 0), (0, 1), (1, 1)), "strictly positive"),
        (((1, -2), (0, 1), (1, 0)), "strictly positive"),
    ]:
        with pytest.raises(ValueError, match=match):
            MatrixOrder(rows)
    order = build_order_i((3, 5), 2)
    with pytest.raises(ValueError):
        order.compare((1, 0, 0), (0, 1, 0))


@pytest.mark.parametrize("bad", [1.5, True, "2"])
def test_matrix_order_rejects_non_int_entries(bad):
    with pytest.raises(ValueError, match="order entry must be an int, got " + repr(bad)):
        MatrixOrder(((bad, 1), (0, -1)))
    with pytest.raises(ValueError, match="order entry must be an int"):
        MatrixOrder(((2, 1), (0, bad)))


@pytest.mark.parametrize("bad", [1.9, True, "2"])
def test_build_order_i_rejects_non_int_weights(bad):
    with pytest.raises(ValueError, match="weight must be an int, got " + repr(bad)):
        build_order_i((bad, 2, 3), 1)


@pytest.mark.parametrize("bad", [2.2, True, "2"])
def test_five_variable_order_rejects_non_int_weights(bad):
    with pytest.raises(ValueError, match="weight must be an int, got " + repr(bad)):
        five_variable_order((1, bad, 3, 4, 5))


def test_five_variable_order_rows():
    w = generators(InstanceParams(1, 5, 5))
    assert w == (781, 782, 787, 812, 937)
    order = five_variable_order(w)
    assert order.rows == (
        w,
        (0, 0, -1, 0, 0),
        (0, 0, 0, 0, -1),
        (0, 0, 0, -1, 0),
        (0, -1, 0, 0, 0),
    )
    with pytest.raises(ValueError):
        five_variable_order((1, 2, 3))


def test_minor_side_predicate_validation():
    with pytest.raises(ValueError):
        minor_side_predicate(4, 0, 1, 2)
    with pytest.raises(ValueError):
        minor_side_predicate(4, 1, 2, 2)
    with pytest.raises(ValueError):
        minor_side_predicate(4, 1, 3, 4)


def test_minor_side_predicate_spot_values():
    assert minor_side_predicate(5, 1, 2, 3)
    assert minor_side_predicate(5, 3, 1, 2)
    assert not minor_side_predicate(5, 3, 1, 3)
    assert not minor_side_predicate(5, 2, 1, 4)


def test_minor_side_predicate_matches_order():
    # the predicate must agree with the actual comparison of the two
    # minor sides for every index choice
    for a, b, n in [(1, 2, 5), (2, 3, 6), (1, 3, 4)]:
        w = generators(InstanceParams(a, b, n))
        for i in range(1, n + 1):
            order = build_order_i(w, i)
            for j, k in itertools.combinations(range(1, n), 2):
                low = [0] * n
                low[j - 1] += b
                low[k] += 1
                high = [0] * n
                high[j] += 1
                high[k - 1] += b
                got = order.compare(tuple(low), tuple(high)) < 0
                assert got == minor_side_predicate(n, i, j, k), (i, j, k)


def _dense_compare(order, u, v):
    # the definition: the sign of the first nonzero entry of rows @ (u - v)
    for row in order.rows:
        s = sum(r * (a - b) for r, a, b in zip(row, u, v))
        if s:
            return 1 if s > 0 else -1
    return 0


def _elimination_orders(monkeypatch):
    # the order of toric_ideal's elimination run, whose rows below the first
    # are not unit rows, for scalar and two-row gradings
    orders = []

    def recording(gens, order, trace=None, **kwargs):
        orders.append(order)
        return buchberger(gens, order, trace, **kwargs)

    monkeypatch.setattr(families, "buchberger", recording)
    for a, b, n in ((1, 2, 4), (3, 2, 5), (2, 3, 6)):
        toric_ideal(scalar_grading(InstanceParams(a, b, n)))
    toric_ideal(Grading(((0, 1, 3, 7), (1, 1, 1, 1))))
    toric_ideal(Grading(((1, 2, 3, 4, 5), (2, -1, 0, 3, 1))))
    return orders


def test_sparse_compare_and_sort_key_match_the_dense_order(monkeypatch):
    rng = random.Random(20215)
    orders = []
    for _ in range(40):
        n = rng.randint(1, 8)
        orders.append(build_order_i(tuple(rng.randint(1, 40) for _ in range(n)),
                                    rng.randint(1, n)))
    orders.append(five_variable_order(generators(InstanceParams(1, 5, 5))))
    orders.append(five_variable_order((1, 1, 1, 1, 1)))
    elimination = _elimination_orders(monkeypatch)
    assert any(sum(map(bool, row)) > 1 for order in elimination for row in order.rows[1:])
    orders += elimination
    for order in orders:
        n = order.nvars
        monos = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(30)]
        monos += [tuple(rng.choice((0, 0, 1, 7)) for _ in range(n)) for _ in range(10)]
        monos += monos[:5]  # repeats, which compare equal
        for u, v in itertools.product(monos[::3], monos[1::2]):
            assert order.compare(u, v) == _dense_compare(order, u, v), (order.rows, u, v)
        rng.shuffle(monos)
        assert sorted(monos, key=order.sort_key()) == sorted(monos, key=cmp_to_key(order.compare))
    with pytest.raises(ValueError, match="variable count mismatch"):
        build_order_i((3, 5), 2).sort_key()((1, 0, 0))
