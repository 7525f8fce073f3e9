"""Numerical tour: repunit digits, curve generators, and the shift identity."""

from repunit_toric.semigroup import (
    InstanceParams,
    gcd_of_generators,
    generator,
    generators,
    homogeneity_identity_holds,
    repunit,
)

print("repunits (b, length) -> value")
for b in (2, 3, 10):
    row = ", ".join(str(repunit(b, k)) for k in range(1, 7))
    print(f"  base {b}: {row}")
print()

for a, b, n in [(1, 3, 4), (3, 2, 4), (2, 3, 5)]:
    p = InstanceParams(a=a, b=b, n=n)
    gens = generators(p)
    g = gcd_of_generators(p)
    tag = "coprime" if g == 1 else f"gcd {g}"
    print(f"a={a} b={b} n={n}: generators {gens} ({tag})")

# the sequence keeps going past n with the same formula, and the first
# extended value collapses to (1 + a) times the top repunit
p = InstanceParams(a=2, b=3, n=5)
print()
print(f"a=2 b=3 n=5 extended: a_6 = {generator(p, 6)} = (1+2) * {repunit(3, 5)}")

print()
print("shift identity b*a_j + a_(j+k) == b*a_(j+k-1) + a_(j+1), spot checks:")
for j, k in [(1, 2), (2, 3), (4, 7)]:
    ok = homogeneity_identity_holds(p, j, k)
    print(f"  j={j} k={k}: {'holds' if ok else 'FAILS'}")
