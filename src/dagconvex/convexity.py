"""Convexity predicates and constructive procedures.

A vertex set X is convex when no directed path between two vertices of X
passes through a vertex outside X.  In an acyclic digraph every walk is a
path, so a vertex w lies on such a path exactly when w is reachable from X
and some vertex of X is reachable from w.  All predicates here use that
reachability characterization instead of enumerating paths: two graph
searches over the adjacency lists, O(n + m) per query, and no per-vertex
reachability rows (those are built only by the enumeration loops).  When
the labels are a topological order (every arc ascends), a path between two
members of X never leaves [min X, max X]: a query runs on the subdigraph
induced there, cut from the digraph's sorted arc columns, and the
digraph's own adjacency lists are never built.  A witness is checked
on any digraph's columns, and sets are listed in time linear in n.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import and_
from typing import Container, NamedTuple, Sequence

from .core import (
    Digraph,
    VertexSet,
    _connected_within,
    _mask_of,
    _require_nonempty,
    _require_same_universe,
    _search,
    is_cut_vertex,
    iter_bits,
    sources_and_sinks,
)
from .errors import DisconnectedInput, FullSet, NotConnectedConvex, OrderTooSmall

__all__ = [
    "ConvexityWitness",
    "is_convex",
    "convexity_witness",
    "convex_hull",
    "find_extension_vertex",
    "find_non_cut_endpoints",
]


class ConvexityWitness(NamedTuple):
    """A directed path certifying that a set is not convex.

    ``path`` runs from ``u`` to ``v``; both endpoints belong to the tested
    set and at least one interior vertex does not.
    """

    u: int
    v: int
    path: tuple[int, ...]

    def is_valid_for(self, d: Digraph, x: VertexSet) -> bool:
        """Machine-check the witness invariants against ``d`` and ``x``, each
        step by a bisect of the sorted arc columns, building no row.  A set
        from another universe raises :class:`InvalidParameter`."""
        _require_same_universe(d, x)
        p = self.path
        if len(p) < 3 or p[0] != self.u or p[-1] != self.v:
            return False
        if len(set(p)) != len(p):
            return False
        if self.u not in x or self.v not in x:
            return False
        tails, heads = d._tails, d._heads
        if any(b not in heads[bisect_left(tails, a):bisect_right(tails, a)] for a, b in zip(p, p[1:])):
            return False
        return any(w not in x for w in p[1:-1])


def _window(d: Digraph, x: VertexSet, empty: str) -> tuple[Digraph, tuple[int, ...], int]:
    """``(g, members, lo)``: a digraph ``g`` in which the members of ``x``,
    shifted by ``-lo``, have the paths between them they have in ``d``.
    With the labels in order, ``g`` is induced by [lo, hi] = [min X, max X],
    which holds every such path: the arcs in the bisect slice of tails in
    [lo, hi] whose head is at most ``hi``.  Its rows keep the order of
    ``d``'s, so a search visits the window in the same order.  Otherwise
    ``g`` is ``d`` and ``lo`` is 0."""
    _require_nonempty(d, x, empty)
    members = x.members()
    if d._topo is not None:  # an arc descends
        return d, members, 0
    lo, hi = members[0], members[-1]
    tails, heads = d._tails, d._heads
    arcs = range(bisect_left(tails, lo), bisect_right(tails, hi))
    kept = [(tails[i] - lo, heads[i] - lo) for i in arcs if heads[i] <= hi]
    return Digraph(hi - lo + 1, kept), tuple(v - lo for v in members), lo


def _between(d: Digraph, members: Sequence[int]) -> list[int]:
    """D(X) & A(X) for X = ``members``: the vertices both reachable from X
    and reaching X, X included, in no particular order."""
    up = bytearray(d.n)
    _search((d.in_adj,), members, up)
    return [v for v in _search((d.out_adj,), members, bytearray(d.n)) if up[v]]


def is_convex(d: Digraph, x: VertexSet) -> bool:
    """Whether no directed path between vertices of ``x`` leaves ``x``."""
    g, members, _ = _window(d, x, "convexity of the empty set is undefined")
    # X <= D(X) & A(X) always, so the two are equal iff they have equal size
    return len(_between(g, members)) == len(members)


def _shortest_path(
    adj: Sequence[Sequence[int]], sources: Sequence[int], targets: Container[int]
) -> list[int]:
    """A BFS shortest path from ``sources``, taken in the order given, to the
    first of ``targets`` the search reaches."""
    parent = dict.fromkeys(sources, -1)
    order = list(parent)
    for v in order:  # grows while it is walked: a breadth-first queue
        for w in adj[v]:
            if w not in parent:
                if w in targets:
                    path = [w]
                    while v >= 0:
                        path.append(v)
                        v = parent[v]
                    return path[::-1]
                parent[w] = v
                order.append(w)
    raise RuntimeError("BFS target unreachable; caller guarantees violated")


def convexity_witness(d: Digraph, x: VertexSet) -> ConvexityWitness | None:
    """A violating path for ``x``, or None when ``x`` is convex.

    The lowest-labelled violating vertex w is chosen, and a shortest x-to-w
    path is spliced with a shortest w-to-x path.  Acyclicity guarantees the
    splice repeats no vertex.
    """
    g, members, lo = _window(d, x, "convexity of the empty set is undefined")
    inside = set(members)
    bad = [v for v in _between(g, members) if v not in inside]
    if not bad:
        return None
    w = min(bad)
    head = _shortest_path(g.out_adj, members, {w})
    tail = _shortest_path(g.out_adj, [w], inside)
    path = tuple(v + lo for v in head + tail[1:])
    return ConvexityWitness(u=path[0], v=path[-1], path=path)


def convex_hull(d: Digraph, x: VertexSet) -> VertexSet:
    """The smallest convex superset of ``x``, in one step: D(X) & A(X).

    Every convex superset of X contains each vertex between two vertices of
    X, and D(X) & A(X) is already convex: a vertex on a path between two of
    its members is reachable from X and reaches X.
    """
    g, members, lo = _window(d, x, "hull of the empty set is undefined")
    return VertexSet.from_mask(d.n, _mask_of(_between(g, members), g.n) << lo)


def find_extension_vertex(d: Digraph, h: VertexSet) -> int:
    """A vertex outside ``h`` whose addition keeps ``h`` connected and convex.

    Returns the lowest-labelled neighbour of ``h`` that passes the
    convexity test; for a connected digraph and a proper connected convex
    ``h`` such a vertex always exists.  Candidates are adjacent to ``h``,
    so connectivity of the extension is automatic.

    The test is local, so the whole call is O(n + m).  Let X = ``h`` be
    convex and w an out-neighbour of X outside it, so w lies in D(X) and
    not in A(X).  Then X + w is convex iff no in-neighbour of w lies in
    D(X) - X.  Such an in-neighbour lies between X and w.  Conversely, if
    a path from X to w passes an outside vertex z, the last vertex before w
    is one: were it in X, z would lie between two vertices of X.  An
    in-neighbour w of X is tested the same way with the arcs reversed.
    """
    _require_same_universe(d, h)
    if not d.is_connected():
        raise DisconnectedInput("extension needs a connected digraph")
    if h.mask == (1 << d.n) - 1:
        raise FullSet("the set already contains every vertex")
    members = h.members()
    # below/above mark D(X) - X and A(X) - X; they meet iff X is not convex
    below = bytearray(d.n)
    _search((d.out_adj,), members, below)
    above = bytearray(d.n)
    _search((d.in_adj,), members, above)
    for v in members:
        below[v] = above[v] = 0
    if not h or not _connected_within(d, members) or any(map(and_, below, above)):
        raise NotConnectedConvex("precondition: h must be connected and convex")
    boundary = {w for v in members for adj in (d.out_adj, d.in_adj) for w in adj[v]}
    for w in sorted(boundary):
        if below[w]:
            if not any(below[p] for p in d.in_adj[w]):
                return w
        elif above[w] and not any(above[q] for q in d.out_adj[w]):
            return w
    raise RuntimeError(
        "no extension vertex found; unreachable for a proper connected convex "
        "set of a connected digraph"
    )


def find_non_cut_endpoints(d: Digraph) -> list[int]:
    """All sources and sinks of ``d`` that are not cut-vertices, in
    ascending order.

    The paper's lemma says a connected acyclic digraph of order >= 2 has at
    least two; this returns what it finds, and ``verify`` judges the count.
    """
    if d.n < 2:
        raise OrderTooSmall("need at least 2 vertices")
    if not d.is_connected():
        raise DisconnectedInput("endpoint search needs a connected digraph")
    src, snk = sources_and_sinks(d)
    return [v for v in iter_bits(src.mask | snk.mask) if not is_cut_vertex(d, v)]
