"""When do the chain minors cut out the whole toric ideal?

Exactly when the generators are coprime.  Side by side: a coprime instance
where the two ideals match, and the smallest non-coprime one, where the
toric ideal needs fewer but different generators.
"""

from repunit_toric.binomials import Grading, format_binomial
from repunit_toric.families import minors_closed_chain, scalar_grading, toric_ideal
from repunit_toric.fibers import betti_degrees
from repunit_toric.groebner import groebner_reduced
from repunit_toric.orders import build_order_i
from repunit_toric.semigroup import InstanceParams, gcd_of_generators, generators

for a, b, n in [(1, 2, 4), (3, 2, 4)]:
    p = InstanceParams(a=a, b=b, n=n)
    w = generators(p)
    grading = scalar_grading(p)
    order = build_order_i(w, 1)

    toric = toric_ideal(grading, order)
    minors = minors_closed_chain(p)
    reduced_minors = groebner_reduced(minors, order)
    same = toric.elements == reduced_minors.elements

    print(f"a={a} b={b} n={n}: weights {w}, gcd {gcd_of_generators(p)}")
    print(f"  toric ideal == closed-chain minors: {same}")

    toric_betti = betti_degrees(toric.elements, grading)
    minor_betti = betti_degrees(minors, grading)
    print(f"  toric needs {sum(toric_betti.values())} minimal generators,",
          f"minors span an ideal needing {sum(minor_betti.values())}")

    if not same:
        extra = [g for g in toric.elements if g not in set(reduced_minors.elements)]
        print("  toric-only reduced elements:")
        for g in extra:
            print(f"    {format_binomial(g)}")
    print()

# the toric route never needs the minors: it eliminates t from the ideal
# of the x_i - t^(w_i) in one Buchberger run
p = InstanceParams(a=1, b=2, n=4)
direct = toric_ideal(Grading.scalar(generators(p)))
print("elimination route, a=1 b=2 n=4:")
for g in direct.elements:
    print(f"  {format_binomial(g)}")
