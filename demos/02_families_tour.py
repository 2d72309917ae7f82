"""A tour of the built-in digraph families.

Three parametric constructions drive most of what this package studies:

  path:n   the directed path, whose connected convex sets are exactly
           the intervals (n*(n+1)/2 of them),
  gi:i     a two-layer gadget with exactly 4^i + 2*3^i convex sets
           but only 2*3^i + 3i + 1 connected ones,
  dt:t     two fans of width ceil(sqrt(t)) glued through a middle
           vertex between two long chains.

We print each one's shape and compare enumeration against the closed
forms the constructions were designed to hit.
"""

from dagconvex import (
    CONNECTED_CONVEX,
    CONVEX,
    closed_form_gi_counts,
    closed_form_path_counts,
    dt_order,
    dt_width,
    enumerate_brute,
    enumerate_cc_extension,
    gen_dt,
    gen_gi,
    gen_path,
)

print("paths: connected convex sets are intervals")
for n in (3, 6, 10):
    _, rep = enumerate_cc_extension(gen_path(n))
    count, hist = closed_form_path_counts(n)
    assert (rep.count, rep.histogram) == (count, hist)
    print(f"   n={n:2d}  count={rep.count:3d}  sizes={hist}")

print("\ngi family: the two counts diverge")
for i in range(1, 5):
    d, labels = gen_gi(i)
    _, co = enumerate_brute(d, CONVEX)
    _, cc = enumerate_brute(d, CONNECTED_CONVEX)
    assert (co.count, cc.count) == closed_form_gi_counts(i)
    print(
        f"   i={i}  n={d.n:2d}  convex={co.count:4d}"
        f"  connected={cc.count:4d}  ratio={cc.count / co.count:.4f}"
    )
print("   labels of g_2:", sorted(gen_gi(2)[1]))

print("\ndt family: wide in the middle, long at the ends")
for t in (1, 4, 9):
    d, labels = gen_dt(t)
    assert d.n == dt_order(t)
    _, cc = enumerate_cc_extension(d)
    print(
        f"   t={t}  width r={dt_width(t)}  n={d.n:2d}"
        f"  connected convex count={cc.count}"
    )
print("   (t=1 collapses to the path on 5 vertices)")
