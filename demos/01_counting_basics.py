"""Counting convex sets in a small DAG, step by step.

A vertex set X is convex when no directed path between two members of X
leaves X.  We build a five-vertex DAG by hand, list every convex set,
then narrow down to the connected ones and look at the summary report.
"""

from dagconvex import (
    CONNECTED_CONVEX,
    CONVEX,
    Digraph,
    VertexSet,
    enumerate_brute,
    format_fraction,
    is_convex,
)

# A diamond with a tail:  0 -> {1, 2} -> 3 -> 4
d = Digraph(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])

sets, report = enumerate_brute(d, CONVEX)
print(f"convex sets of the diamond-with-tail ({report.count} of them):")
for s in sets:
    print("   ", sorted(s.members()))

# {0, 3} is not convex: the path 0 -> 1 -> 3 escapes through vertex 1.
print("\nis {0, 3} convex?", is_convex(d, VertexSet(5, [0, 3])))

_, cc_report = enumerate_brute(d, CONNECTED_CONVEX)
print(f"\nconnected convex: {cc_report.count} sets, sizes {cc_report.histogram}")
print(f"average size {cc_report.average} ~ {format_fraction(cc_report.average)}")
