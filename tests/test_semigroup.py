import pytest
from hypothesis import given, strategies as st

from repunit_toric.semigroup import (
    InstanceParams,
    gcd_of_generators,
    generator,
    generators,
    homogeneity_identity_holds,
    repunit,
)


def test_repunit_known_values():
    assert repunit(2, 4) == 15
    assert repunit(3, 4) == 40
    assert repunit(5, 5) == 781
    assert repunit(10, 3) == 111
    assert repunit(7, 0) == 0
    assert repunit(1, 7) == 7


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=60))
def test_repunit_matches_power_sum(b, length):
    assert repunit(b, length) == sum(b**j for j in range(length))


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=60))
def test_repunit_recurrence(b, length):
    assert repunit(b, length + 1) == b * repunit(b, length) + 1


def test_generators_known_instances():
    assert generators(InstanceParams(3, 2, 4)) == (15, 18, 24, 36)
    assert generators(InstanceParams(1, 3, 4)) == (40, 41, 44, 53)
    assert generators(InstanceParams(2, 3, 5)) == (121, 123, 129, 147, 201)


def test_generator_boundary_values():
    p = InstanceParams(3, 2, 4)
    assert generator(p, 1) == repunit(2, 4)
    # one step past n the value collapses to (1 + a) * r_b(n)
    assert generator(p, p.n + 1) == (1 + p.a) * repunit(p.b, p.n)


@given(
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=2, max_value=9),
)
def test_generators_strictly_increase(a, b, n):
    gens = generators(InstanceParams(a, b, n))
    assert all(x < y for x, y in zip(gens, gens[1:]))


def test_gcd_values():
    assert gcd_of_generators(InstanceParams(3, 2, 4)) == 3
    assert gcd_of_generators(InstanceParams(5, 2, 4)) == 5
    assert gcd_of_generators(InstanceParams(2, 3, 5)) == 1
    assert gcd_of_generators(InstanceParams(1, 2, 4)) == 1
    assert gcd_of_generators(InstanceParams(3, 2, 4)) != 1


def test_homogeneity_identity_examples():
    p = InstanceParams(3, 2, 4)
    # b*a_1 + a_4 == b*a_3 + a_2
    assert 2 * 15 + 36 == 2 * 24 + 18
    assert homogeneity_identity_holds(p, 1, 3)
    assert homogeneity_identity_holds(p, 2, 5)


@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
)
def test_homogeneity_identity_randomized(a, b, n, j, k):
    assert homogeneity_identity_holds(InstanceParams(a, b, n), j, k)


@pytest.mark.parametrize("a,b,n", [(0, 2, 4), (1, 0, 4), (1, 2, 1), (-1, 2, 4)])
def test_invalid_params_rejected(a, b, n):
    with pytest.raises(ValueError):
        InstanceParams(a, b, n)


def test_invalid_indices_rejected():
    with pytest.raises(ValueError):
        repunit(0, 3)
    with pytest.raises(ValueError):
        repunit(2, -1)
    with pytest.raises(ValueError):
        generator(InstanceParams(1, 2, 4), 0)
    with pytest.raises(ValueError):
        homogeneity_identity_holds(InstanceParams(1, 2, 4), 0, 1)
