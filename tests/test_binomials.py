"""Monomial arithmetic, binomial objects and gradings."""

import pytest
from hypothesis import given, strategies as st

from repunit_toric.binomials import (
    EXPONENT_LIMIT,
    Binomial,
    ExponentOverflowError,
    Grading,
    coprime,
    div,
    divides,
    format_binomial,
    format_monomial,
    is_homogeneous,
    lcm,
    monomial,
    mul,
    normal_form,
    one,
    oriented,
)
from repunit_toric.groebner import GroebnerBasis, ideal_member
from repunit_toric.orders import build_order_i

exps = st.tuples(*[st.integers(min_value=0, max_value=30)] * 4)


def test_monomial_basics():
    m = monomial((1, 0, 2, 0))
    assert mul(m, one(4)) == m
    assert lcm((1, 0, 2, 0), (0, 3, 1, 0)) == (1, 3, 2, 0)
    assert divides((0, 1, 1, 0), (2, 1, 3, 0))
    assert not divides((0, 2, 0, 0), (0, 1, 5, 5))
    assert div((2, 1, 3, 0), (0, 1, 1, 0)) == (2, 0, 2, 0)
    assert coprime((1, 0, 2, 0), (0, 4, 0, 1))
    assert not coprime((1, 0, 2, 0), (0, 0, 1, 0))


@given(exps, exps)
def test_mul_is_componentwise_sum(u, v):
    assert mul(u, v) == tuple(a + b for a, b in zip(u, v))
    assert mul(u, v) == mul(v, u)


@given(exps, exps)
def test_divides_iff_div_roundtrips(u, v):
    if divides(u, v):
        assert mul(u, div(v, u)) == v
    else:
        with pytest.raises(ValueError):
            div(v, u)


def test_exponent_overflow_guard():
    big = EXPONENT_LIMIT
    monomial((big, 0))  # at the limit is fine
    with pytest.raises(ExponentOverflowError):
        monomial((big + 1, 0))
    with pytest.raises(ExponentOverflowError):
        mul((big, 0), (1, 0))
    with pytest.raises(ValueError):
        monomial((-1, 0))


def test_binomial_construction():
    f = Binomial((2, 0, 1, 0), (0, 3, 0, 0))
    assert f.nvars == 4
    assert not f.is_zero()
    assert f.vector() == (2, -3, 1, 0)
    assert f.opposite() == Binomial((0, 3, 0, 0), (2, 0, 1, 0))
    assert Binomial.zero(3).is_zero()
    assert Binomial.from_vector((2, -3, 1, 0)) == f
    with pytest.raises(ValueError):
        Binomial((1, 2), (1, 2))
    with pytest.raises(ValueError):
        Binomial((1, 2), (1, 2, 3))


def test_canonical_orientation():
    f = Binomial((0, 3, 0, 0), (2, 0, 1, 0))
    g = f.canonical()
    assert g.plus == (2, 0, 1, 0)
    assert g == f.opposite().canonical()
    assert g.canonical() == g


def test_grading_degrees():
    w = Grading.scalar((15, 18, 24, 36))
    assert w.degree((0, 3, 0, 0)) == (54,)
    two = Grading(((0, 1, 3, 7), (1, 1, 1, 1)))
    assert two.degree((0, 0, 1, 0)) == (3, 1)
    assert two.positive_row() == (1, 1, 1, 1)
    assert is_homogeneous(w, Binomial((0, 1, 0, 1), (0, 3, 0, 0)))
    assert not is_homogeneous(w, Binomial((1, 0, 0, 0), (0, 1, 0, 0)))
    with pytest.raises(ValueError):
        Grading(((1, 0), (0, -1)))
    with pytest.raises(ValueError):
        w.degree((1, 0))


def test_grading_rejects_non_int_entries():
    for bad in (1.5, True, "2"):
        with pytest.raises(ValueError, match="grading entry must be an int, got " + repr(bad)):
            Grading.scalar((bad, 2))
        with pytest.raises(ValueError, match="grading entry must be an int"):
            Grading(((1, 1), (0, bad)))


def test_oriented_uses_order():
    order = build_order_i((15, 18, 24, 36), 1)
    f = Binomial((0, 3, 0, 0), (2, 0, 1, 0))
    g = oriented(f, order)
    # weights: 54 vs 54 + 24 = ... recompute: x1^2 x3 = 30 + 24 = 54, tie broken
    # by the cheapness rows, x1 cheapest so the x1-free side leads
    assert g.plus == (0, 3, 0, 0)
    assert oriented(g, order) == g


def test_reduce_monomial_single_rule():
    order = build_order_i((15, 18, 24, 36), 1)
    rule = oriented(Binomial((0, 1, 2, 0), (2, 0, 0, 1)), order)
    assert rule.plus == (0, 1, 2, 0)
    assert normal_form((0, 2, 2, 0), [(rule.plus, rule.minus)]) == (2, 1, 0, 1)
    assert normal_form((5, 0, 1, 0), [(rule.plus, rule.minus)]) == (5, 0, 1, 0)


def test_reduce_binomial_to_zero():
    order = build_order_i((15, 18, 24, 36), 1)
    rule = oriented(Binomial((0, 1, 2, 0), (2, 0, 0, 1)), order)
    f = Binomial(mul((1, 0, 0, 0), rule.plus), mul((1, 0, 0, 0), rule.minus))
    assert ideal_member(f, GroebnerBasis((rule,), order))


def test_formatting():
    assert format_monomial((2, 0, 0, 1)) == "x1^2*x4"
    assert format_monomial((0, 0, 0, 0)) == "1"
    assert format_binomial(Binomial((2, 0, 1, 0), (0, 3, 0, 0))) == "x1^2*x3 - x2^3"
    assert format_binomial(Binomial.zero(4)) == "0"
    assert str(Binomial((1, 0), (0, 2))) == "x1 - x2^2"
