"""Print the weighted matrix orders and the minor orientation rule they induce.

Each order puts the semigroup weights on top, then makes one variable the
cheapest and walks outward; comparing the two sides of an adjacent 2x2 minor
under that order is what the closed-form side rule predicts.
"""

from repunit_toric.binomials import format_monomial
from repunit_toric.orders import build_order_i, cheapness_for_index, minor_side_predicate
from repunit_toric.semigroup import InstanceParams, generators


def show_order(weights, i):
    order = build_order_i(weights, i)
    print(f"order with x{i} cheapest, weights {weights}:")
    for row in order.rows:
        print("   ", row)
    print("  cheap to expensive:", cheapness_for_index(len(weights), i))
    return order


p = InstanceParams(a=3, b=2, n=4)
w = generators(p)
order = show_order(w, 2)

print()
u, v = (0, 2, 0, 0), (1, 0, 1, 0)
c = order.compare(u, v)
rel = "<" if c < 0 else (">" if c > 0 else "==")
print(f"compare: {format_monomial(u)} {rel} {format_monomial(v)}")

print()
print("minor side rule for n=5 (True means x_j^b * x_(k+1) is the small side):")
n = 5
pairs = [(j, k) for j in range(1, n - 1) for k in range(j + 1, n)]
print("  i\\(j,k) " + " ".join(f"({j},{k})" for j, k in pairs))
for i in range(1, n + 1):
    cells = ["T    " if minor_side_predicate(n, i, j, k) else ".    " for j, k in pairs]
    print(f"  i={i}      " + "".join(cells))
