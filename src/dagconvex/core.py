"""Immutable acyclic digraphs and bitmask-backed vertex sets.

Vertices are dense integer labels ``0..n-1``.  Vertex sets are stored as
int bitmasks so that union, intersection, and cardinality are word-parallel
operations; one codec turns a member list into a mask (:func:`_mask_of`)
and a mask back into its members (:func:`iter_bits`), each in time linear
in the universe size plus the member count.

Two kinds of reachability are offered.  Per-vertex reachability rows
(:meth:`Digraph.descendant_masks`, :meth:`Digraph.ancestor_masks`) take
O(n^2) bits and are built only by the enumeration loops, which reuse them
millions of times; no loop builds :meth:`Digraph.underlying_masks`.
Single-set queries (:mod:`dagconvex.convexity`, :mod:`dagconvex.structure`)
instead run a graph search over the adjacency lists in O(n + m) time and
memory.  A digraph holds its arcs as two sorted columns and builds the
adjacency lists when they are first read, so a query that searches a
window of the labels (see :mod:`dagconvex.convexity`) builds lists for that
window only.
"""

from __future__ import annotations

from itertools import islice
from operator import eq, lt
from typing import Iterable, Iterator, Sequence

from .errors import CycleDetected, EmptySet, InvalidArc, InvalidParameter

__all__ = ["VertexSet", "Digraph"]


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order, in time
    linear in its width: one reversed binary string, searched for each 1."""
    bits = bin(mask)[:1:-1]  # bit i is character i
    i = bits.find("1")
    while i >= 0:
        yield i
        i = bits.find("1", i + 1)


class VertexSet:
    """Immutable subset of the vertices ``0..n-1`` of a fixed universe.

    Backed by an int bitmask of width ``n``.  Instances compare equal only
    when both the universe size and the membership agree.
    """

    __slots__ = ("n", "mask")

    def __init__(self, n: int, members: Iterable[int] = ()) -> None:
        if n < 0:
            raise InvalidParameter(f"universe size must be >= 0, got {n}")
        members = tuple(members)
        if members and not (0 <= min(members) and max(members) < n):  # name the first bad one
            v = next(v for v in members if not 0 <= v < n)
            raise InvalidParameter(f"vertex {v} outside universe 0..{n - 1}")
        self.n = n
        self.mask = _mask_of(members, n)  # checked first: a negative label indexes from the end

    @classmethod
    def from_mask(cls, n: int, mask: int) -> VertexSet:
        """Wrap an existing bitmask without per-member validation."""
        if mask < 0 or mask >> n:
            raise InvalidParameter(f"mask {mask:#x} has bits outside 0..{n - 1}")
        s = cls.__new__(cls)
        s.n = n
        s.mask = mask
        return s

    @classmethod
    def universe(cls, n: int) -> VertexSet:
        return cls.from_mask(n, (1 << n) - 1)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and bool(self.mask >> v & 1)

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VertexSet):
            return NotImplemented
        return self.n == other.n and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def _check_universe(self, other: VertexSet) -> None:
        if self.n != other.n:
            raise InvalidParameter(f"universe mismatch: {self.n} != {other.n}")

    def __or__(self, other: VertexSet) -> VertexSet:
        self._check_universe(other)
        return VertexSet.from_mask(self.n, self.mask | other.mask)

    def __and__(self, other: VertexSet) -> VertexSet:
        self._check_universe(other)
        return VertexSet.from_mask(self.n, self.mask & other.mask)

    def __sub__(self, other: VertexSet) -> VertexSet:
        self._check_universe(other)
        return VertexSet.from_mask(self.n, self.mask & ~other.mask)

    def issubset(self, other: VertexSet) -> bool:
        self._check_universe(other)
        return self.mask & ~other.mask == 0

    def with_vertex(self, v: int) -> VertexSet:
        """Return a copy with vertex ``v`` added."""
        return self | VertexSet(self.n, (v,))

    def members(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.mask))

    def __repr__(self) -> str:
        return f"VertexSet(n={self.n}, members={self.members()})"


class _Columns(tuple):
    """``(tails, heads)``: a parser's arcs as two int columns of one length."""

    __slots__ = ()


class Digraph:
    """Simple acyclic digraph, immutable after construction.

    Construction takes the arcs as a tail and a head column and validates
    them (pairs, range, self-loops, duplicates) in bulk passes.  Arcs given
    in strictly ascending order are sorted and distinct; other input is
    sorted once.  When every arc goes from a lower label to a higher one, no
    self-loop or cycle is possible and the labels themselves are the
    :attr:`topological_order`; otherwise one Kahn pass with a min-heap fixes
    the lexicographically smallest order, or raises :class:`CycleDetected`
    on a cycle.  The arcs are stored once, as the two sorted columns;
    :attr:`arcs`, ``==`` and ``hash`` are read off them.  The sorted rows
    ``out_adj`` and their transpose ``in_adj``, the reachability rows and
    the underlying-adjacency masks are computed when first read and cached.
    All queries are pure, so a fully constructed instance is thread-safe.
    """

    __slots__ = ("n", "_tails", "_heads", "_out", "_in", "_topo", "_desc", "_anc", "_und", "_connected")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]]) -> None:
        if n < 0:
            raise InvalidParameter(f"vertex count must be >= 0, got {n}")
        pairs: tuple[tuple[int, int], ...] = ()
        if type(arcs) is not _Columns:  # a parser's columns hold pairs by construction
            # in input order, to name the first fault; list arcs become tuples
            pairs = tuple(map(tuple, arcs))
            if set(map(len, pairs)) - {2}:  # some arc is not a pair
                _raise_first_fault(n, pairs)
            arcs = ([u for u, _ in pairs], [v for _, v in pairs])
        tails, heads = arcs
        # In order, each out-row is a run, each in-row gets its tails in
        # ascending order, and a duplicate sits next to its twin.  One
        # C-level pass per check; only a fault pays for naming its arc.
        unsorted = not all(map(lt, zip(tails, heads), islice(zip(tails, heads), 1, None)))
        ordered = sorted(pairs or zip(tails, heads)) if unsorted else ()  # given pairs, none new
        forward = all(map(lt, tails, heads))
        bad = bool(tails) and (min(tails) < 0 or max(heads) >= n)
        if not forward:  # then a head may be the least end, and an arc a loop
            bad = bad or min(heads) < 0 or max(tails) >= n or any(map(eq, tails, heads))
        if bad or any(map(eq, ordered, islice(ordered, 1, None))):
            _raise_first_fault(n, pairs or zip(tails, heads))
        if unsorted:
            tails, heads = [u for u, _ in ordered], [v for _, v in ordered]
        del pairs, ordered  # freed before a Kahn pass builds the rows
        self.n = n
        self._tails, self._heads = tails, heads  # sorted
        self._out: tuple[tuple[int, ...], ...] | None = None
        self._in: tuple[tuple[int, ...], ...] | None = None
        # None: the labels are the order; left None, as convexity._window reads it
        self._topo: tuple[int, ...] | None = None if forward else self._kahn()
        self._desc: list[int] | None = None
        self._anc: list[int] | None = None
        self._und: list[int] | None = None
        self._connected: bool | None = None

    @property
    def out_adj(self) -> tuple[tuple[int, ...], ...]:
        """Row ``u``: the heads of the arcs out of ``u``, ascending."""
        if self._out is None:
            self._out = _rows(self.n, self._tails, self._heads)
        return self._out

    @property
    def in_adj(self) -> tuple[tuple[int, ...], ...]:
        """Row ``v``: the tails of the arcs into ``v``, ascending."""
        if self._in is None:
            self._in = _rows(self.n, self._heads, self._tails)
        return self._in

    def _kahn(self) -> tuple[int, ...]:
        """The lexicographically smallest topological order, by Kahn's
        algorithm with a min-heap; a cycle raises :class:`CycleDetected`."""
        import heapq  # here: a digraph whose arcs all ascend never needs it
        indeg = list(map(len, self.in_adj))
        ready = [v for v, k in enumerate(indeg) if not k]  # ascending, so a heap
        order, out = [], self.out_adj
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for w in out[v]:
                indeg[w] -= 1
                if not indeg[w]:
                    heapq.heappush(ready, w)
        if len(order) != self.n:
            raise CycleDetected("arc set contains a directed cycle")
        return tuple(order)

    @property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        """Every arc ``(u, v)``, in ascending order, read off the columns."""
        return tuple(zip(self._tails, self._heads))

    @property
    def arc_count(self) -> int:
        return len(self._tails)

    @property
    def topological_order(self) -> tuple[int, ...]:
        """The lexicographically smallest topological order: the labels when
        every arc ascends, else the one fixed at construction."""
        return tuple(range(self.n)) if self._topo is None else self._topo

    def descendant_masks(self) -> Sequence[int]:
        """Row ``v``: bitmask of all vertices reachable from ``v`` (reflexive)."""
        if self._desc is None:
            self._desc = _closure(self.n, self.out_adj, reversed(self.topological_order))
        return self._desc

    def ancestor_masks(self) -> Sequence[int]:
        """Row ``v``: bitmask of all vertices that reach ``v`` (reflexive)."""
        if self._anc is None:
            self._anc = _closure(self.n, self.in_adj, self.topological_order)
        return self._anc

    def underlying_masks(self) -> Sequence[int]:
        """Row ``v``: bitmask of neighbours of ``v`` ignoring arc direction."""
        if self._und is None:
            rows = zip(self.out_adj, self.in_adj)
            self._und = [_mask_of(out + inn, self.n) for out, inn in rows]
        return self._und

    def is_connected(self) -> bool:
        """Whether the underlying undirected graph is connected (n >= 1)."""
        if self._connected is None:
            self._connected = _connected_within(self, range(self.n))
        return self._connected

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return (self.n, self._tails, self._heads) == (other.n, other._tails, other._heads)

    def __hash__(self) -> int:
        return hash((self.n, *self._tails, *self._heads))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={self.arc_count})"


def _rows(n: int, ends: Sequence[int], others: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Row ``u``: the ``others[i]`` with ``ends[i] == u``, in column order."""
    rows: list[list[int]] = [[] for _ in range(n)]
    for u, v in zip(ends, others):  # the rows hold the columns' own ints, no new ones
        rows[u].append(v)
    return tuple(map(tuple, rows))


def _closure(n: int, adj: Sequence[Sequence[int]], order: Iterable[int]) -> list[int]:
    """Row ``v``: bit ``v`` ORed with the rows of ``adj[v]``, filled in
    ``order``, which must reach every ``adj[v]`` before ``v``."""
    rows = [0] * n
    for v in order:
        m = 1 << v
        for w in adj[v]:
            m |= rows[w]
        rows[v] = m
    return rows


def _raise_first_fault(n: int, arcs: Iterable[tuple[int, int]]) -> None:
    """Raise for the first faulty arc in input order: :class:`InvalidArc`
    for a bad endpoint, a self-loop or a duplicate, and ``ValueError`` for
    an arc that is not a pair, which is a fault like any other."""
    seen: set[tuple[int, int]] = set()
    for u, v in arcs:
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidArc(f"arc {u}->{v} has an endpoint outside 0..{n - 1}")
        if u == v:
            raise InvalidArc(f"self-loop {u}->{v}")
        if (u, v) in seen:
            raise InvalidArc(f"duplicate arc {u}->{v}")
        seen.add((u, v))
    raise RuntimeError("no faulty arc found; caller guarantees violated")


def _search(
    adjs: Sequence[Sequence[Sequence[int]]], seeds: Iterable[int], seen: bytearray
) -> list[int]:
    """Vertices reached from ``seeds`` along any of ``adjs``, in visit order.

    ``seen`` marks vertices already visited or excluded, one byte per
    vertex, and is updated in place.  O(n + m): no n-bit shift per visit.
    """
    order = []
    for v in seeds:
        if not seen[v]:
            seen[v] = 1
            order.append(v)
    for v in order:  # grows while it is walked: a breadth-first queue
        for adj in adjs:
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = 1
                    order.append(w)
    return order


def _mask_of(members: Iterable[int], n: int) -> int:
    """Bitmask of ``members`` in O(n + k), without an n-bit OR per member."""
    bits = bytearray((n + 7) // 8)
    for v in members:
        bits[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(bits, "little")


def _connected_within(d: Digraph, members: Sequence[int]) -> bool:
    """Whether the distinct vertices ``members`` induce a connected
    undirected graph; one O(n + m) search, no neighbour rows."""
    if not members:
        return False
    outside = bytearray(b"\x01") * d.n  # the search never enters these
    for v in members:
        outside[v] = 0
    return len(_search((d.out_adj, d.in_adj), members[:1], outside)) == len(members)


def _require_same_universe(d: Digraph, s: VertexSet) -> None:
    if s.n != d.n:
        raise InvalidParameter(f"set universe {s.n} does not match digraph order {d.n}")


def _require_nonempty(d: Digraph, s: VertexSet, message: str) -> None:
    """Refuse a set from another universe, then an empty one with ``message``."""
    _require_same_universe(d, s)
    if not s:
        raise EmptySet(message)
