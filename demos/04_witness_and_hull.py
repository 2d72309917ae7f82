"""Witnesses, hulls, and peeling a set down one vertex at a time.

Three ways to interact with convexity beyond counting:

  * a witness is a directed path certifying that a set is NOT convex,
  * the hull is the least convex superset,
  * every proper connected convex set can grow by one vertex and stay
    connected convex, so any such set can be built up from a singleton.
"""

from dagconvex import (
    VertexSet,
    convex_hull,
    convexity_witness,
    enumerate_cc_extension,
    find_extension_vertex,
    gen_random_connected_dag,
    is_convex,
    is_underlying_connected,
)

d = gen_random_connected_dag(9, 0.35, 7)
print("instance:", d.n, "vertices,", len(d.arcs), "arcs:", d.arcs)

bad = VertexSet(d.n, [3, 4])
witness = convexity_witness(d, bad)
assert witness is not None
print("{3, 4} is not convex, witness path:", " -> ".join(map(str, witness.path)))

hull = convex_hull(d, bad)
print("hull of {3, 4}:", sorted(hull.members()))
assert is_convex(d, hull)

sets, _ = enumerate_cc_extension(d)
print("\nconnected convex sets containing vertex 0:", sum(1 for s in sets if 0 in s))

# Grow the singleton {0} all the way to the full vertex set, one
# extension vertex at a time.  Each intermediate stays connected convex.
current = VertexSet(d.n, [0])
trail = [0]
while len(current) < d.n:
    v = find_extension_vertex(d, current)
    trail.append(v)
    current = current.with_vertex(v)
    assert is_convex(d, current) and is_underlying_connected(d, current)
print("growth order from {0} to the whole vertex set:", trail)
