"""Convexity tests, witnesses and hulls of single vertex sets.

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
on any digraph's columns, and sets are listed in time linear in n.  The
extension-vertex and non-cut-endpoint checks, which no query runs, are in
:mod:`dagconvex.structure`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Container, NamedTuple, Sequence

from .core import Digraph, VertexSet, _mask_of, _require_nonempty, _require_same_universe, _search

__all__ = ["ConvexityWitness", "is_convex", "convexity_witness", "convex_hull"]


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
