"""Average convex-set size across the dt family: the trend table.

If the average size of a (connected) convex set grew linearly in n, the
ratio s/n would stay bounded away from zero as instances grow.  The dt
family says otherwise: its averages grow like sqrt(n), so s/n collapses
while s/sqrt(n) stays in a narrow band.  This script prints both
columns for increasing t.  Exact rational arithmetic throughout; the
decimals are renderings, not the values used for comparisons.
"""

import math

from dagconvex import count_connected_convex, count_convex, format_fraction, gen_dt

print(f"{'t':>3} {'n':>4} {'class':<8} {'count':>7} {'s':>9} {'s/n':>9} {'s/sqrt(n)':>10}")
previous = {"co": None, "cc": None}
for t in (1, 2, 4, 9, 16):
    d, _ = gen_dt(t)
    for label, rep in (("co", count_convex(d)), ("cc", count_connected_convex(d))):
        avg = rep.average
        per_n = avg / d.n
        print(
            f"{t:>3} {d.n:>4} {label:<8} {rep.count:>7}"
            f" {format_fraction(avg):>9} {format_fraction(per_n):>9}"
            f" {float(avg) / math.sqrt(d.n):>10.6f}"
        )
        if previous[label] is not None:
            assert per_n < previous[label], "s/n should fall strictly"
        previous[label] = per_n

print()
print("s/n falls at every step: average size is not proportional to n.")
print("s/sqrt(n) drifts upward toward a constant, consistent with growth")
print("on the order of sqrt(n).")
