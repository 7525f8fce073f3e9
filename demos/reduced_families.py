"""Structured generating families checked against the Buchberger engine.

For every cheap-variable index i the closed-chain minors rearrange into a
four-part family that is already a Groebner basis under the matching order.
The parts: future-to-future minors, past-to-past minors, mixed rectangles,
and the n-1 rewrites of pure powers of the cheap variable.
"""

from repunit_toric.binomials import format_binomial
from repunit_toric.groebner import (
    GroebnerBasis,
    groebner_reduced,
    is_groebner_basis,
    is_reduced_basis,
)
from repunit_toric.families import (
    minors_open_chain,
    structured_closed_family,
    structured_family,
    structured_open_family,
)
from repunit_toric.orders import build_order_i, five_variable_order
from repunit_toric.semigroup import InstanceParams, generators


def main() -> None:
    p = InstanceParams(a=1, b=3, n=5)
    w = generators(p)
    i = 2
    order = build_order_i(w, i)

    print(f"a={p.a} b={p.b} n={p.n}, order with x{i} cheapest")
    for part in (1, 2, 3, 4):
        elems = structured_family(p, i, part)
        print(f"  part {part}: {len(elems)} elements")
        for g in elems:
            print(f"    {format_binomial(g)}")

    closed = GroebnerBasis.of(structured_closed_family(p, i), order)
    print(f"closed family: Groebner={is_groebner_basis(closed)}",
          f"reduced={is_reduced_basis(closed)}")

    opened = structured_open_family(p, i)
    basis = GroebnerBasis.of(opened, order)
    print(f"open subfamily: Groebner={is_groebner_basis(basis)}",
          f"reduced={is_reduced_basis(basis)}")

    # the engine agrees: running Buchberger on the raw minors and reducing
    # lands on the same set the structured family writes down directly
    engine = groebner_reduced(minors_open_chain(p), order)
    print(f"engine output matches open family: {set(engine.elements) == set(opened)}")

    print()
    print("reduced basis sizes for b=5 n=5 under the 3-5-4-2 tie-break order:")
    for a in (1, 2, 3):
        q = InstanceParams(a=a, b=5, n=5)
        tailored = groebner_reduced(
            minors_open_chain(q), five_variable_order(generators(q))
        )
        print(f"  a={a}: {len(tailored)} elements (cheap-variable orders need 6)")


if __name__ == "__main__":
    main()
