"""Structural checks and reference tools, which no ``stats`` or query job runs.

The paper's guarantees on any connected DAG (extension vertices, non-cut
sources and sinks, n - k + 1 connected convex sets of each size k), the
single-set reachability, connectivity and cut-vertex tests, the subset scan
that every counter is tested against, the set-building consumers of the
connected search, the reader of a report's JSON, and the closed-form counts
of gi and path.  Only ``verify`` and ``trend`` import this module.
"""

from __future__ import annotations

from operator import and_

from .core import (
    Digraph, VertexSet, _connected_within, _mask_of, _require_nonempty, _require_same_universe, _search, iter_bits
)
from .enumeration import (
    CONNECTED_CONVEX, CONVEX, EnumerationReport, SizeBoundTable, _cc_sets, _charge, _check_kind, _report,
    count_connected_convex,
)
from .errors import (
    BUDGET, BudgetExceeded, DisconnectedInput, FullSet, InvalidParameter, NotConnectedConvex, OrderTooSmall
)
from .families import _require_positive, dt_width

__all__ = [
    "reachable_from", "reaching_to", "is_underlying_connected", "sources_and_sinks", "is_cut_vertex",
    "find_extension_vertex", "find_non_cut_endpoints", "enumerate_brute", "enumerate_cc_extension",
    "count_cc_within", "verify_size_lower_bound", "report_from_json", "dt_middle_vertices",
    "closed_form_gi_counts", "closed_form_path_counts",
]


def reachable_from(d: Digraph, s: VertexSet) -> VertexSet:
    """All vertices lying on a directed path starting in ``s`` (including ``s``)."""
    _require_same_universe(d, s)
    return VertexSet.from_mask(d.n, _mask_of(_search((d.out_adj,), s, bytearray(d.n)), d.n))


def reaching_to(d: Digraph, s: VertexSet) -> VertexSet:
    """All vertices from which some vertex of ``s`` is reachable (including ``s``)."""
    _require_same_universe(d, s)
    return VertexSet.from_mask(d.n, _mask_of(_search((d.in_adj,), s, bytearray(d.n)), d.n))


def is_underlying_connected(d: Digraph, s: VertexSet) -> bool:
    """Whether the subgraph induced by ``s`` is connected ignoring directions."""
    _require_nonempty(d, s, "connectivity of the empty set is undefined")
    return _connected_within(d, s.members())


def sources_and_sinks(d: Digraph) -> tuple[VertexSet, VertexSet]:
    """The in-degree-zero and out-degree-zero vertex sets of ``d``."""
    src = _mask_of([v for v in range(d.n) if not d.in_adj[v]], d.n)
    snk = _mask_of([v for v in range(d.n) if not d.out_adj[v]], d.n)
    return VertexSet.from_mask(d.n, src), VertexSet.from_mask(d.n, snk)


def is_cut_vertex(d: Digraph, v: int) -> bool:
    """Whether removing ``v`` disconnects the underlying undirected graph."""
    if not 0 <= v < d.n:
        raise InvalidParameter(f"vertex {v} outside 0..{d.n - 1}")
    if d.n < 2:
        raise OrderTooSmall("cut-vertex test needs at least 2 vertices")
    if not d.is_connected():
        raise DisconnectedInput("cut-vertex test needs a connected digraph")
    seen = bytearray(d.n)
    seen[v] = 1  # the search never enters v; it starts from another vertex
    return len(_search((d.out_adj, d.in_adj), [0 if v else 1], seen)) < d.n - 1


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
    One iterative depth-first search of the underlying graph finds every
    cut-vertex in O(n + m) (Hopcroft and Tarjan): u is one when some child
    v has a lowpoint, the least visit index one edge from v's subtree, not
    below u's; the root needs two such children.  The graph is simple, so
    the tree edge from v up to u may count towards v's lowpoint.
    """
    if d.n < 2:
        raise OrderTooSmall("need at least 2 vertices")
    if not d.is_connected():
        raise DisconnectedInput("endpoint search needs a connected digraph")
    out, inn = d.out_adj, d.in_adj
    index, low, splits = [0] * d.n, [0] * d.n, [0] * d.n  # index 0: not visited yet
    index[0] = low[0] = visited = 1
    stack = [(0, iter(out[0] + inn[0]))]
    while stack:
        v, rest = stack[-1]
        for w in rest:
            if not index[w]:
                visited += 1
                index[w] = low[w] = visited
                stack.append((w, iter(out[w] + inn[w])))
                break
            low[v] = min(low[v], index[w])
        else:
            stack.pop()
            if stack:
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                splits[u] += low[v] >= index[u]
    splits[0] -= 1  # the root splits the graph only from its second child on
    return [v for v in range(d.n) if not (out[v] and inn[v]) and splits[v] <= 0]


def enumerate_brute(
    d: Digraph, kind: str, *, budget: int = BUDGET
) -> tuple[list[VertexSet], EnumerationReport]:
    """Scan all non-empty subsets and keep those in the requested class.

    Sets are returned in ascending bitmask order.  This is the oracle the
    other enumerators are tested against, and it shares with them only the
    reachability rows.  A subset is convex when no vertex outside it is
    both reachable from it and reaches it.  An include/exclude search
    decides the vertices from the top label down, excluding first, so its
    leaves, one subset each, come in ascending order.  A branch is cut once
    a decided vertex left out lies in D(X) & A(X) for the chosen set X:
    later choices only add to both sets and can never take that vertex
    back, so no subset below the branch is convex.

    Each node costs 1 step of ``budget``; its masks are n bits wide, so the
    steps left after the set-up of the rows are divided by 1 + n // 1024.
    """
    _check_kind(kind)
    n = d.n
    steps = _charge("subset scan", n, budget) // (1 + n // 1024)
    desc, anc = d.descendant_masks(), d.ancestor_masks()
    found = []
    stack = [(n, 0, 0, 0)]
    while stack:
        v, x, du, au = stack.pop()
        steps -= 1
        if steps < 0:
            raise BudgetExceeded(f"subset scan spent the work budget of {budget} steps")
        if (du & au & ~x) >> v:
            continue
        if v:
            v -= 1
            stack += [(v, x | 1 << v, du | desc[v], au | anc[v]), (v, x, du, au)]
        elif x and (kind == CONVEX or _connected_within(d, list(iter_bits(x)))):
            found.append(x)
    return [VertexSet.from_mask(n, m) for m in found], _report(kind, n, found)


def enumerate_cc_extension(
    d: Digraph, *, max_size: int | None = None
) -> tuple[list[VertexSet], EnumerationReport]:
    """Enumerate every connected convex set of ``d`` once, with at most
    ``max_size`` vertices if given.

    Sets come by ascending size, each size in ascending bitmask order.  This
    is the set-building consumer of the search that
    :func:`~dagconvex.enumeration.count_connected_convex` tallies, and
    without ``max_size`` its report equals that function's on every
    digraph, connected or not; see :func:`~dagconvex.enumeration._cc_sets`
    for why growing a set by the hull of one more vertex it reaches or is
    reached from finds every set exactly once.
    """
    if max_size is not None and max_size < 1:
        raise InvalidParameter(f"max_size must be >= 1, got {max_size}")
    limit = d.n if max_size is None else min(max_size, d.n)
    found = sorted(_cc_sets(d, limit), key=lambda m: (m.bit_count(), m))
    return [VertexSet.from_mask(d.n, m) for m in found], _report(CONNECTED_CONVEX, d.n, found)


def count_cc_within(
    d: Digraph, u: VertexSet, *, containing: VertexSet | None = None, budget: int = BUDGET
) -> int:
    """Number of connected convex sets of ``d`` that are subsets of ``u``.

    Sets must be convex in ``d`` itself, not merely in the subgraph induced
    by ``u``.  With ``containing``, only sets that include all its vertices
    are counted.  Runs the search restricted to ``u``, so the work follows
    the number of connected convex sets inside ``u``.
    """
    _require_nonempty(d, u, "cannot count within the empty set")
    need = 0
    if containing is not None:
        _require_same_universe(d, containing)
        need = containing.mask
    return sum(1 for mask in _cc_sets(d, d.n, u.mask, budget) if mask & need == need)


def verify_size_lower_bound(d: Digraph, *, budget: int = BUDGET) -> SizeBoundTable:
    """Check that ``d`` has at least n - k + 1 connected convex sets of each size k."""
    if not d.is_connected():
        raise DisconnectedInput("the size lower bound holds for connected digraphs")
    return SizeBoundTable(count_connected_convex(d, budget=budget))


def report_from_json(text: str) -> EnumerationReport:
    """Parse a report serialized by ``report_to_json``, checking the order,
    count, sum and average it states against its histogram."""
    import json  # here, not at the top: jobs without JSON output skip it
    from fractions import Fraction

    keys = ("n", "count", "sum", "average_num", "average_den")
    try:
        obj = json.loads(text)
        kind, histogram = obj["class"], tuple(obj["histogram"])
        n, count, size_sum, num, den = (obj[key] for key in keys)
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise InvalidParameter(f"malformed report JSON: {exc}") from exc
    report = EnumerationReport(kind, histogram)
    if any(type(v) is not int for v in (n, count, size_sum, num, den)):
        raise InvalidParameter(f"{', '.join(keys)} must be ints")
    if (n, count, size_sum) != (report.n, report.count, report.size_sum):
        raise InvalidParameter("n, count or sum in JSON does not match the histogram")
    if den == 0 or Fraction(num, den) != report.average:
        raise InvalidParameter("average in JSON does not match the histogram")
    return report


def dt_middle_vertices(t: int) -> list[int]:
    """Labels of the fan layers and the middle vertex: y's, z, y-primes."""
    r = dt_width(t)
    return list(range(t, t + 2 * r + 1))


def closed_form_gi_counts(i: int) -> tuple[int, int]:
    """Exact convex count 4^i + 2*3^i and connected convex count
    2*3^i + 3i + 1 of the gi family.

    A convex set either avoids both s and t (any choice of a subpath of
    each a_j -> b_j path: 4^i - 1 non-empty ones), contains exactly one of
    them (3^i each, a prefix or suffix per path), or both (then everything,
    1).  Both counts are checked against brute force for small i in the
    test suite.
    """
    _require_positive(i, "gi parameter")
    return 4**i + 2 * 3**i, 2 * 3**i + 3 * i + 1


def closed_form_path_counts(n: int) -> tuple[int, tuple[int, ...]]:
    """Exact connected convex count n(n+1)/2 of the directed path, with its
    per-size histogram (n - k + 1 sets of each size k)."""
    _require_positive(n, "path order")
    return n * (n + 1) // 2, tuple(n - k + 1 for k in range(1, n + 1))
