"""Enumeration and counting of convex and connected convex vertex sets.

Two independent loops are provided and cross-checked in the test suite:

* the bit-parallel subset scan tests every non-empty subset for convexity
  (capped at small orders), and
* a depth-first include/exclude search grows each connected convex set by
  the hull of one more adjacent vertex, with a forbidden mask that gains
  each tried vertex and everything beyond it, so that every set is reached
  exactly once and a vertex beyond a tried one is never tried.

Each loop has a count-only consumer whose only output is an
:class:`EnumerationReport` -- :func:`count_convex` and
:func:`count_connected_convex` -- and a set-building one:
:func:`enumerate_brute`, the oracle, and :func:`enumerate_cc_extension`.
:func:`count_convex` histograms the scan with ``np.bincount``; every other
report comes from one histogram of set masks, :func:`_report`.  The search
accepts any digraph, connected or not, and :func:`count_cc_within` runs it
inside a vertex subset.  numpy is imported by the subset scan on first use,
so the rest of the package runs without it.

Counts, per-size histograms, and averages are exact; averages are kept as
fractions and rendered to six decimal digits with round-half-even.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from .core import (
    Digraph,
    VertexSet,
    _connected_within,
    _require_nonempty,
    _require_same_universe,
    iter_bits,
)
from .errors import DisconnectedInput, EmptyReport, InvalidParameter, OrderTooLarge

__all__ = [
    "CONVEX",
    "CONNECTED_CONVEX",
    "EnumerationReport",
    "SizeBoundTable",
    "enumerate_brute",
    "enumerate_cc_extension",
    "count_convex",
    "count_connected_convex",
    "count_cc_within",
    "verify_size_lower_bound",
    "format_fraction",
    "report_to_json",
    "report_from_json",
    "report_to_csv",
]

if TYPE_CHECKING:
    import numpy as np

CONVEX = "convex"
CONNECTED_CONVEX = "connected-convex"

# Default caps; callers may raise them explicitly, at their own runtime risk.
BRUTE_SIZE_CAP = 25
EXTENSION_SIZE_CAP = 40

# The subset scan works on chunks of 2**_CHUNK_BITS masks.  A chunk's
# 64-bit arrays (512 KiB each) stay in cache; chunks of 2**20 masks made the
# count-only scan two to four times slower at n = 22..25.
_CHUNK_BITS = 16


@dataclass(frozen=True)
class EnumerationReport:
    """Exact tallies for one set class of one digraph.

    ``histogram[k-1]`` is the number of counted sets of size k, for k in
    1..n; the order, the count and the sum of sizes are read off it.
    """

    kind: str
    histogram: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_kind(self.kind)
        if any(type(v) is not int or v < 0 for v in self.histogram):
            raise InvalidParameter("histogram entries must be non-negative ints")

    @property
    def n(self) -> int:
        return len(self.histogram)

    @property
    def count(self) -> int:
        return sum(self.histogram)

    @property
    def size_sum(self) -> int:
        return sum(k * c for k, c in enumerate(self.histogram, 1))

    def size_count(self, k: int) -> int:
        """Number of counted sets of size ``k``."""
        if not 1 <= k <= self.n:
            raise InvalidParameter(f"size {k} outside 1..{self.n}")
        return self.histogram[k - 1]

    @property
    def average(self) -> Fraction:
        if self.count == 0:
            raise EmptyReport("no sets counted; average undefined")
        return Fraction(self.size_sum, self.count)


def format_fraction(value: Fraction) -> str:
    """Render a non-negative fraction with six decimal digits, ties to even."""
    q, r = divmod(value.numerator * 10**6, value.denominator)
    if 2 * r > value.denominator or (2 * r == value.denominator and q & 1):
        q += 1
    whole, frac = divmod(q, 10**6)
    return f"{whole}.{frac:06d}"


def _check_kind(kind: str) -> None:
    if kind not in (CONVEX, CONNECTED_CONVEX):
        raise InvalidParameter(f"set class must be {CONVEX!r} or {CONNECTED_CONVEX!r}")


def _report(kind: str, n: int, masks: Iterable[int]) -> EnumerationReport:
    """The report of the sets ``masks`` of an order-``n`` digraph."""
    hist = [0] * (n + 1)
    for mask in masks:
        hist[mask.bit_count()] += 1
    return EnumerationReport(kind, tuple(hist[1:]))


def _or_table(rows: list[int]) -> np.ndarray:
    """table[mask] = OR of rows[b] over the set bits b of mask.

    Built by doubling: appending row b maps table over masks of bits < b to
    masks of bits <= b.
    """
    import numpy as np

    table = np.zeros(1, dtype=np.uint64)
    for row in rows:
        table = np.concatenate((table, table | np.uint64(row)))
    return table


def _popcount_table(bits: int) -> np.ndarray:
    """table[mask] = number of set bits of mask, for masks below 2**bits.

    Built by doubling like :func:`_or_table`, so it needs no numpy 2
    ``bitwise_count``.
    """
    import numpy as np

    table = np.zeros(1, dtype=np.uint8)
    for _ in range(bits):
        table = np.concatenate((table, table + np.uint8(1)))
    return table


def require_order(kind: str, n: int, cap: int) -> None:
    """Refuse order ``n`` above ``cap`` before any per-vertex work is done.

    ``kind`` names the loop by the class it counts: the subset scan
    (``CONVEX``), which also needs n <= 63, or the connected search.
    """
    what = "brute force" if kind == CONVEX else "extension enumerator"
    if n > cap:
        raise OrderTooLarge(f"{what} capped at n <= {cap}, got n = {n}")
    if kind == CONVEX and n > 63:
        raise OrderTooLarge("bit-parallel scan supports n <= 63")


def _convex_chunks(d: Digraph) -> Iterator[tuple[int, np.ndarray]]:
    """Scan all subsets and yield ``(base, ok)`` per chunk of low masks.

    Subset ``base | i`` is non-empty and convex exactly when ``ok[i]``.
    Reachability unions for all masks of the low bits are tabulated once and
    combined with each pattern of the high bits, so each chunk of
    2**_CHUNK_BITS subsets is tested with a handful of vector operations.
    Callers check the order with :func:`require_order` first.
    """
    import numpy as np

    desc = list(d.descendant_masks())
    anc = list(d.ancestor_masks())
    lo = min(d.n, _CHUNK_BITS)
    lo_desc = _or_table(desc[:lo])
    lo_anc = _or_table(anc[:lo])
    hi_desc = _or_table(desc[lo:])
    hi_anc = _or_table(anc[lo:])
    outside_lo = ~np.arange(1 << lo, dtype=np.uint64)
    for h in range(len(hi_desc)):
        base = h << lo
        # A subset is convex when no vertex outside it is both reachable
        # from it and reaches it.
        between = lo_desc | hi_desc[h]
        between &= lo_anc | hi_anc[h]
        between &= outside_lo
        between &= ~np.uint64(base)
        ok = between == 0
        if base == 0:
            ok[0] = False  # the empty set is not counted
        yield base, ok


def count_convex(d: Digraph, *, cap: int = BRUTE_SIZE_CAP) -> EnumerationReport:
    """Per-size tallies of the convex sets of ``d``, without building them.

    Runs the subset scan of :func:`enumerate_brute` and histograms each
    chunk with ``np.bincount`` over the popcounts of its low masks.
    """
    import numpy as np

    require_order(CONVEX, d.n, cap)
    lo = min(d.n, _CHUNK_BITS)
    popcount = _popcount_table(lo)
    hist = np.zeros(d.n + 1, dtype=np.int64)
    for base, ok in _convex_chunks(d):
        k = base.bit_count()
        hist[k : k + lo + 1] += np.bincount(popcount[ok], minlength=lo + 1)
    return EnumerationReport(CONVEX, tuple(hist[1:].tolist()))


def enumerate_brute(
    d: Digraph, kind: str, *, cap: int = BRUTE_SIZE_CAP
) -> tuple[list[VertexSet], EnumerationReport]:
    """Scan all non-empty subsets and keep those in the requested class.

    Sets are returned in ascending bitmask order.  This is the set-building
    consumer of the bit-parallel subset scan that :func:`count_convex`
    histograms, and the oracle the other enumerators are tested against.
    """
    _check_kind(kind)
    require_order(CONVEX, d.n, cap)
    masks = (base | i for base, ok in _convex_chunks(d) for i in ok.nonzero()[0].tolist())
    if kind == CONNECTED_CONVEX:
        masks = (m for m in masks if _connected_within(d, list(iter_bits(m))))
    found = list(masks)
    return [VertexSet.from_mask(d.n, m) for m in found], _report(kind, d.n, found)


def _cc_sets(d: Digraph, limit: int, within: int | None = None) -> Iterator[int]:
    """Yield the mask of every connected convex set of size at most
    ``limit`` once, in no particular order.

    With ``within``, only sets inside that mask are yielded; convexity is
    still decided in ``d``, which need not be connected.

    A search node is a connected convex set S with a forbidden mask F, and
    stands for every connected convex T with S <= T and T & F = 0.  The node
    yields S, then takes each candidate w in N(S) - S - F in ascending order:
    it descends into (H, F) for the hull H = D(S + w) & A(S + w) when H
    misses F and has at most ``limit`` vertices, then adds to F the vertices
    beyond w -- D(w) when S reaches w, A(w) otherwise, w itself included --
    and drops them from the candidates.  H is connected and convex: each of
    its vertices lies on a directed path between two vertices of S + w, and
    every vertex of such a path lies in H.  The root for vertex v of
    ``within`` is ({v}, F) with F the complement of ``within`` plus the
    vertices of ``within`` below v.

    Closure: F grows only by vertices that no set of the node avoiding the
    tried candidates can hold: a convex T >= S holding a vertex x beyond w
    holds w, which lies on a directed path between S and x.  So no child's
    family changes.  H can still meet F, so the test on H stays.

    Why each set comes exactly once: a T of the node other than S is
    connected, so it meets N(S) - S - F; let w be the first candidate in T.
    By closure T misses F as it stands when w is reached, so w has not been
    dropped.  T is convex and contains S + w, so it contains H; H misses
    that F, |H| <= |T| <= ``limit``, and T belongs to w's child.  Every set
    under a later child avoids w, every set under w's child holds it, and
    all of them are larger than S, so no set comes twice from one node; each
    T has one root, its lowest vertex.  The live state is the search stack.
    """
    desc = d.descendant_masks()
    anc = d.ancestor_masks()
    und = d.underlying_masks()
    full = (1 << d.n) - 1
    if within is None:
        within = full
    forbidden = full & ~within
    for v in iter_bits(within):
        stack = [(1 << v, forbidden, desc[v], anc[v], und[v])]
        forbidden |= 1 << v
        while stack:
            s, f, du, au, nb = stack.pop()
            yield s
            rest = nb & ~s & ~f
            while rest:
                bit = rest & -rest
                w = bit.bit_length() - 1
                hdu = du | desc[w]
                hau = au | anc[w]
                h = hdu & hau
                if not h & f and h.bit_count() <= limit:
                    hnb = nb
                    for x in iter_bits(h & ~s):
                        hnb |= und[x]
                    stack.append((h, f, hdu, hau, hnb))
                f |= desc[w] if bit & du else anc[w]
                rest &= ~f


def count_connected_convex(d: Digraph, *, cap: int = EXTENSION_SIZE_CAP) -> EnumerationReport:
    """Per-size tallies of the connected convex sets of ``d``, without
    building them.

    Runs the search of :func:`enumerate_cc_extension` and histograms the
    set sizes.
    """
    require_order(CONNECTED_CONVEX, d.n, cap)
    return _report(CONNECTED_CONVEX, d.n, _cc_sets(d, d.n))


def enumerate_cc_extension(
    d: Digraph, *, max_size: int | None = None, cap: int = EXTENSION_SIZE_CAP
) -> tuple[list[VertexSet], EnumerationReport]:
    """Enumerate every connected convex set of ``d`` once, with at most
    ``max_size`` vertices if given.

    Sets come by ascending size, each size in ascending bitmask order.  This
    is the set-building consumer of the search that
    :func:`count_connected_convex` tallies, and without ``max_size`` its
    report equals that function's on every digraph, connected or not; see
    :func:`_cc_sets` for why growing a set by the hull of one more adjacent
    vertex finds every set exactly once.
    """
    require_order(CONNECTED_CONVEX, d.n, cap)
    if max_size is not None and max_size < 1:
        raise InvalidParameter(f"max_size must be >= 1, got {max_size}")
    limit = d.n if max_size is None else min(max_size, d.n)
    found = sorted(_cc_sets(d, limit), key=lambda m: (m.bit_count(), m))
    return [VertexSet.from_mask(d.n, m) for m in found], _report(CONNECTED_CONVEX, d.n, found)


def count_cc_within(
    d: Digraph, u: VertexSet, *, containing: VertexSet | None = None
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
    return sum(1 for mask in _cc_sets(d, d.n, u.mask) if mask & need == need)


class SizeBoundRow(NamedTuple):
    k: int
    count: int
    bound: int
    ok: bool


@dataclass(frozen=True)
class SizeBoundTable:
    """Per-size comparison of the counts of ``report`` against n - k + 1,
    one row for each size k in 1..n."""

    report: EnumerationReport

    @property
    def n(self) -> int:
        return self.report.n

    @property
    def rows(self) -> tuple[SizeBoundRow, ...]:
        n = self.n
        return tuple(
            SizeBoundRow(k, count, n - k + 1, count >= n - k + 1)
            for k, count in enumerate(self.report.histogram, 1)
        )

    @property
    def passed(self) -> bool:
        return all(row.ok for row in self.rows)

    def to_csv(self) -> str:
        lines = ["k,count,bound,pass"]
        for row in self.rows:
            lines.append(f"{row.k},{row.count},{row.bound},{str(row.ok).lower()}")
        return "\n".join(lines) + "\n"


def verify_size_lower_bound(
    d: Digraph, *, cap: int = EXTENSION_SIZE_CAP
) -> SizeBoundTable:
    """Check that ``d`` has at least n - k + 1 connected convex sets of each size k."""
    if not d.is_connected():
        raise DisconnectedInput("the size lower bound holds for connected digraphs")
    return SizeBoundTable(count_connected_convex(d, cap=cap))


def report_to_json(report: EnumerationReport) -> str:
    """Serialize a report to its stable JSON form (fixed key order)."""
    avg = report.average
    return json.dumps(
        {
            "class": report.kind,
            "n": report.n,
            "count": report.count,
            "sum": report.size_sum,
            "average_num": avg.numerator,
            "average_den": avg.denominator,
            "histogram": list(report.histogram),
        }
    )


def report_from_json(text: str) -> EnumerationReport:
    """Parse a report serialized by :func:`report_to_json`, checking the
    order, count, sum and average it states against its histogram."""
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


def report_to_csv(report: EnumerationReport) -> str:
    """Serialize per-size counts with the n - k + 1 bound columns."""
    return SizeBoundTable(report).to_csv()
