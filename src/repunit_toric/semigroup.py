"""Base-b repunits and the generators of a generalized repunit semigroup.

An instance is a triple (a, b, n) with a, b >= 1 and n >= 2.  Its generator
sequence is a_i = r_b(n) + a * r_b(i - 1) where r_b is the base-b repunit;
indices above n follow the same formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class InstanceParams:
    """Defining triple of one instance: a, b >= 1 and n >= 2."""

    a: int
    b: int
    n: int

    def __post_init__(self) -> None:
        for field in ("a", "b", "n"):
            v = getattr(self, field)
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"{field} must be an int, got {v!r}")
        if self.a < 1:
            raise ValueError(f"a must be >= 1, got {self.a}")
        if self.b < 1:
            raise ValueError(f"b must be >= 1, got {self.b}")
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")


def repunit(b: int, length: int) -> int:
    """Base-b repunit 1 + b + ... + b**(length-1); zero when length == 0."""
    if b < 1:
        raise ValueError(f"base must be >= 1, got {b}")
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    if b == 1:
        return length
    return (b**length - 1) // (b - 1)


def generator(params: InstanceParams, i: int) -> int:
    """i-th generator r_b(n) + a*r_b(i-1); i may exceed n (extended sequence)."""
    if i < 1:
        raise ValueError(f"generator index must be >= 1, got {i}")
    return repunit(params.b, params.n) + params.a * repunit(params.b, i - 1)


def generators(params: InstanceParams) -> tuple[int, ...]:
    """The n generators, strictly increasing."""
    return tuple(generator(params, i) for i in range(1, params.n + 1))


def gcd_of_generators(params: InstanceParams) -> int:
    g = math.gcd(*generators(params))
    closed = math.gcd(params.a, repunit(params.b, params.n))
    if g != closed:  # the closed form is load-bearing downstream; never trust it silently
        raise ArithmeticError(
            f"gcd({generators(params)}) = {g} but gcd(a, r_b(n)) = {closed} for {params}"
        )
    return g


def homogeneity_identity_holds(params: InstanceParams, j: int, k: int) -> bool:
    """Check b*a_j + a_{j+k} == b*a_{j+k-1} + a_{j+1} on extended generators."""
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    b = params.b
    lhs = b * generator(params, j) + generator(params, j + k)
    rhs = b * generator(params, j + k - 1) + generator(params, j + 1)
    return lhs == rhs
