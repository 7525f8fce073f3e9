"""Scan the shift parameter and watch unique minimal generation switch off.

The fiber of a degree is the set of monomials with that weight; moves by
lower-degree generators carve it into components, and the ideal needs one
new generator per component the full congruence fuses.  The oracle only
searches the components that hold a side of a generator of the degree; the
minimal system is unique exactly when every fused group is a pair of lone
monomials.  For
fixed digit base b this holds up to a = b - 2 and fails from a = b - 1 on.
"""

import argparse

from repunit_toric.binomials import format_binomial, format_monomial
from repunit_toric.families import minors_closed_chain, scalar_grading
from repunit_toric.fibers import (
    betti_splits,
    enumerate_fiber,
    forced_generators,
    has_unique_minimal_system,
)
from repunit_toric.semigroup import InstanceParams, gcd_of_generators, generators


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--b", type=int, default=4)
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--amax", type=int, default=6)
    args = ap.parse_args()

    print(f"b={args.b} n={args.n}: uniqueness of the minimal system by a")
    for a in range(1, args.amax + 1):
        p = InstanceParams(a=a, b=args.b, n=args.n)
        if gcd_of_generators(p) != 1:
            print(f"  a={a}: skipped, generators not coprime")
            continue
        fam = minors_closed_chain(p)
        unique = has_unique_minimal_system(fam, scalar_grading(p))
        marker = "unique" if unique else "not unique"
        print(f"  a={a}: {marker} (predicted {'unique' if a < args.b - 1 else 'not unique'})")

    p = InstanceParams(a=1, b=3, n=4)
    fam = minors_closed_chain(p)
    grading = scalar_grading(p)
    print()
    print(f"forced generators for a=1 b=3 n=4 (weights {generators(p)}):")
    splits = betti_splits(fam, grading)
    forced = forced_generators(splits)
    assert forced is not None
    for g in forced:
        print(f"  {format_binomial(g)}")

    # one degree in detail: the split that certifies a generator is needed
    degree = min(splits)
    split = splits[degree]
    print()
    print(f"fiber of degree {degree}: {len(enumerate_fiber(grading, degree))} monomials;",
          f"the generators reach {len(split.below)} components below, {len(split.full)} after")
    for comp in split.below:
        print("  below:", ", ".join(format_monomial(m) for m in comp))
    for comp in split.full:
        print("  after:", ", ".join(format_monomial(m) for m in comp))


if __name__ == "__main__":
    main()
