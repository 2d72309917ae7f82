"""Independent reference implementations used to derive expected values.

Everything here works definitionally: convexity enumerates actual directed
paths, connectivity walks the undirected adjacency, and set families come
from filtering all subsets.  Slow on purpose; keep n small.
"""

from itertools import combinations


def out_neighbours(d):
    adj = {v: [] for v in range(d.n)}
    for u, v in d.arcs:
        adj[u].append(v)
    return adj


def und_neighbours(d):
    adj = {v: set() for v in range(d.n)}
    for u, v in d.arcs:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def all_simple_paths(d, start, goal):
    """Every directed path from start to goal, as vertex tuples (DFS)."""
    adj = out_neighbours(d)
    paths = []
    stack = [(start, (start,))]
    while stack:
        v, path = stack.pop()
        if v == goal:
            paths.append(path)
            continue
        for w in adj[v]:
            if w not in path:
                stack.append((w, path + (w,)))
    return paths


def oracle_is_convex(d, members):
    """Definitional check: no path between members leaves the set."""
    members = set(members)
    for u in members:
        for v in members:
            if u == v:
                continue
            for path in all_simple_paths(d, u, v):
                if any(w not in members for w in path[1:-1]):
                    return False
    return True


def oracle_hull(d, members):
    """Close the set under path interiors until nothing is added."""
    hull = set(members)
    changed = True
    while changed:
        changed = False
        for u in list(hull):
            for v in list(hull):
                if u == v:
                    continue
                for path in all_simple_paths(d, u, v):
                    inner = set(path[1:-1]) - hull
                    if inner:
                        hull |= inner
                        changed = True
    return hull


def oracle_connected(d, members):
    members = set(members)
    if not members:
        return False
    adj = und_neighbours(d)
    seen = {min(members)}
    frontier = [min(members)]
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w in members and w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen == members


def oracle_reachable(d, seeds):
    adj = out_neighbours(d)
    seen = set(seeds)
    frontier = list(seeds)
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def oracle_convex_sets(d):
    """All non-empty convex sets, as a sorted list of frozensets."""
    out = []
    for k in range(1, d.n + 1):
        for combo in combinations(range(d.n), k):
            if oracle_is_convex(d, combo):
                out.append(frozenset(combo))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def oracle_cc_sets(d):
    return [s for s in oracle_convex_sets(d) if oracle_connected(d, s)]


def oracle_is_cut(d, v):
    rest = set(range(d.n)) - {v}
    if not rest:
        return False
    adj = und_neighbours(d)
    seen = {min(rest)}
    frontier = [min(rest)]
    while frontier:
        u = frontier.pop()
        for w in adj[u]:
            if w in rest and w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen != rest


def oracle_has_cycle(n, arcs):
    """Directed cycle search by DFS colouring over an arbitrary arc list."""
    adj = {v: [] for v in range(n)}
    for u, v in arcs:
        adj[u].append(v)
    colour = {v: 0 for v in range(n)}  # 0 new, 1 open, 2 done

    def visit(v):
        colour[v] = 1
        for w in adj[v]:
            if colour[w] == 1 or (colour[w] == 0 and visit(w)):
                return True
        colour[v] = 2
        return False

    return any(colour[v] == 0 and visit(v) for v in range(n))


def oracle_random_arcs(n, p, seed):
    """Arcs of ``gen_random_connected_dag(n, p, seed)``, drawing all
    n(n-1)/2 pair probabilities in one numpy call (the stream that both the
    pure-Python and the numpy row-by-row generator must reproduce)."""
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(seed))
    perm = [int(v) for v in rng.permutation(n)]
    draws = rng.random(n * (n - 1) // 2).tolist()
    arcs = []
    comp = list(range(n))  # component label per vertex, relabelled eagerly

    def join(u, v):
        old, new = comp[u], comp[v]
        for w in range(n):
            if comp[w] == old:
                comp[w] = new

    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    for (a, b), x in zip(pairs, draws):
        if x < p:
            arcs.append((perm[a], perm[b]))
            join(perm[a], perm[b])
    for a in range(n - 1):
        if comp[perm[a]] != comp[perm[a + 1]]:
            arcs.append((perm[a], perm[a + 1]))
            join(perm[a], perm[a + 1])
    return tuple(sorted(arcs))
