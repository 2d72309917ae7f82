"""Enumeration and counting of convex and connected convex vertex sets.

Three independent loops are provided and cross-checked in the test suite:

* a frontier DP counts the convex sets, deciding the vertices in
  topological order and merging partial choices with the same completions;
* the subset scan, the oracle, tests every non-empty subset for convexity
  and cuts the branches that cannot lead to a convex set; and
* a depth-first include/exclude search grows each connected convex set by
  the hull of one more vertex it reaches or is reached from, with a
  forbidden mask that gains each tried vertex and everything beyond it, so
  that every set is reached exactly once and a vertex beyond a tried one
  is never tried.

:func:`count_convex` runs the DP and :func:`enumerate_brute` the scan.  The
search feeds :func:`count_connected_convex`, :func:`enumerate_cc_extension`
and :func:`count_cc_within`, which runs it inside a vertex subset; it
accepts any digraph, connected or not.  The loops share only the
reachability rows, and none needs numpy.  Each spends the work budget of
steps its entry point is given as ``budget=`` (:func:`enumerate_cc_extension`
spends the default) and raises :class:`BudgetExceeded` once it is spent.

Counts, per-size histograms, and averages are exact; averages are kept as
fractions and rendered to six decimal digits with round-half-even.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Iterator, NamedTuple

from .core import (
    Digraph,
    VertexSet,
    _connected_within,
    _require_nonempty,
    _require_same_universe,
    iter_bits,
)
from .errors import BUDGET, BudgetExceeded, DisconnectedInput, EmptyReport, InvalidParameter

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

CONVEX = "convex"
CONNECTED_CONVEX = "connected-convex"

class EnumerationReport(
    NamedTuple("EnumerationReport", [("kind", str), ("histogram", tuple[int, ...])])
):
    """Exact tallies for one set class of one digraph.

    ``histogram[k-1]`` is the number of counted sets of size k, for k in
    1..n; the order, the count and the sum of sizes are read off it.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, kind: str, histogram: Iterable[int]) -> EnumerationReport:
        _check_kind(kind)
        histogram = tuple(histogram)  # a list would leave the record mutable and unhashable
        if any(type(v) is not int or v < 0 for v in histogram):
            raise InvalidParameter("histogram entries must be non-negative ints")
        return super().__new__(cls, kind, histogram)

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
    if value < 0:
        raise InvalidParameter(f"fraction must be >= 0, got {value}")
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


def charge_setup(kind: str, n: int, budget: int) -> int:
    """The steps of ``budget`` left once the loop counting ``kind`` has paid
    for its set-up at order ``n``, or :class:`BudgetExceeded`: 3 n**2 bits
    of rows plus, in the frontier count, n states, at one step per 2048
    bits.  The search holds two rows, not three, but keeps the charge, so
    every order refused at set-up stays refused."""
    if kind == CONVEX:
        return _charge("frontier count", n, budget, n * _state_bits(n))
    return _charge("connected search", n, budget)


def _charge(what: str, n: int, budget: int, extra_bits: int = 0) -> int:
    steps = -(-(3 * n * n + extra_bits) // 2048)
    if steps > budget:
        raise BudgetExceeded(
            f"{what} set-up on n = {n} needs {steps} steps, over the work budget of {budget}"
        )
    return budget - steps


def _state_bits(n: int) -> int:
    """Bits per frontier state: two n-bit masks and n + 1 64-bit tallies."""
    return 2 * n + 64 * (n + 1)


def count_convex(d: Digraph, *, budget: int = BUDGET) -> EnumerationReport:
    """Per-size tallies of the convex sets of ``d``, without building them.

    A frontier DP decides the vertices in :attr:`Digraph.topological_order`.
    With X the chosen set among the decided vertices, a state is a pair of
    masks on the undecided ones: D, the vertices reachable from X, and P,
    the descendants of the decided vertices of D(X) - X.  When v is
    decided, all its ancestors are, so X + v is convex among the decided
    vertices exactly when no decided vertex of D(X) - X reaches v, that is
    when v is not in P; and no convex superset of X holds a vertex of P.  Taking v ORs D(v) into D;
    leaving it out ORs D(v) into P when v is in D.  States with equal
    (D, P) merge and add their per-size tallies, so the work follows the
    number of distinct states, not 2**n.

    Each vertex decided costs each state 1 step plus 1 per 2048 bits the
    state holds; set-up is charged as :func:`charge_setup` says.
    """
    n = d.n
    steps = charge_setup(CONVEX, n, budget)
    cost = 1 + -(-_state_bits(n) // 2048)
    desc = d.descendant_masks()
    states = {(0, 0): [1]}  # tally[k]: the sets X of size k
    for v in d.topological_order:
        steps -= cost * len(states)
        if steps < 0:
            raise BudgetExceeded(f"frontier count spent the work budget of {budget} steps")
        bit, row = 1 << v, desc[v]
        after: dict[tuple[int, int], list[int]] = {}
        for (du, pu), tally in states.items():
            moves = [((du ^ bit, (pu | row) ^ bit) if du & bit else (du, pu), tally + [0])]
            if not pu & bit:
                moves.append((((du | row) ^ bit, pu), [0, *tally]))
            for key, new in moves:
                old = after.get(key)
                after[key] = new if old is None else list(map(add, old, new))
        states = after
    (tally,) = states.values()  # every vertex decided: the one state (0, 0)
    return EnumerationReport(CONVEX, tuple(tally[1:]))


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


def _cc_sets(
    d: Digraph, limit: int, within: int | None = None, budget: int = BUDGET
) -> Iterator[int]:
    """Yield the mask of every connected convex set of size at most
    ``limit`` once, in no particular order.

    With ``within``, only sets inside that mask are yielded; convexity is
    still decided in ``d``, which need not be connected.

    A search node is a connected convex set S with a forbidden mask F, and
    stands for every connected convex T with S <= T and T & F = 0.  The node
    takes each candidate w in D(S) | A(S) - S - F in ascending order: when
    the hull H = D(S + w) & A(S + w) misses F and has at most ``limit``
    vertices, it yields H and pushes the child (H, F), then it adds to F the
    vertices beyond w -- D(w) when S reaches w, A(w) otherwise, w itself
    included -- and drops them from the candidates.  The root for vertex v
    of ``within`` is ({v}, F) with F the complement of ``within`` plus the
    vertices of ``within`` below v, yielded when it is made.

    One-sided union: a candidate w lies in D(S) or in A(S), and not in
    both, for then it would lie on a directed path between two vertices of
    S and convexity would put it in S.  When w is in D(S), D(S + w) = D(S)
    and only A(S) | A(w) is formed, and D(w) is the part beyond w; the
    case of A(S) is the mirror image.

    H is convex and connected: each of its vertices lies on a directed
    path between two vertices of S + w, every vertex of such a path lies
    in H, and H holds a path from S to w when w is in D(S), from w to S
    when w is in A(S).

    Closure: F grows only by vertices that no set of the node avoiding the
    tried candidates can hold: a convex T >= S holding a vertex x beyond w
    holds w, which lies on a directed path between S and x.  So no child's
    family changes.  H can still meet F, so the test on H stays.

    Why each set comes exactly once: a T of the node other than S is
    connected, so it holds a vertex adjacent to S, which is in D(S) or A(S)
    and not in F, a candidate; let w be the first candidate in T.  By
    closure T misses F as it stands when w is reached, so w has not been
    dropped.  T is convex and contains S + w, so it contains H; H misses
    that F, |H| <= |T| <= ``limit``, and T belongs to w's child.  Every set
    under a later child avoids w, every set under w's child holds it, and
    all of them are larger than S, so no set comes twice from one node;
    each T has one root, its lowest vertex.  The live state is the stack.

    A node costs 1 step of ``budget`` where it is yielded plus 1 per
    candidate it tries; its masks are n bits wide, so the steps left are
    divided by 1 + n // 1024.  A stack entry holds F, D(H), A(H) and the
    candidates.  A child without candidates, D(H) | A(H) - H - F empty,
    stands for H alone, since a larger set would meet them, and is never
    pushed.
    """
    steps = charge_setup(CONNECTED_CONVEX, d.n, budget) // (1 + d.n // 1024)
    rows = list(zip(d.descendant_masks(), d.ancestor_masks()))
    full = (1 << d.n) - 1
    if within is None:
        within = full
    forbidden = full & ~within
    for v in iter_bits(within):
        steps -= 1
        yield 1 << v
        du, au = rows[v]
        stack = [(forbidden, du, au, (du | au) & ~(forbidden | 1 << v))]
        pop, push = stack.pop, stack.append
        forbidden |= 1 << v
        while stack:
            f, du, au, rest = pop()
            while rest:
                steps -= 1
                bit = rest & -rest
                dw, aw = rows[bit.bit_length() - 1]
                if bit & du:
                    hdu, hau, beyond = du, au | aw, dw
                else:
                    hdu, hau, beyond = du | dw, au, aw
                h = hdu & hau
                if not h & f and h.bit_count() <= limit:
                    steps -= 1
                    yield h
                    more = (hdu | hau) & ~(h | f)
                    if more:
                        push((f, hdu, hau, more))
                f |= beyond
                rest &= ~f
            if steps < 0:
                raise BudgetExceeded(f"connected search spent the work budget of {budget} steps")


def count_connected_convex(d: Digraph, *, budget: int = BUDGET) -> EnumerationReport:
    """Per-size tallies of the connected convex sets of ``d``, without
    building them.

    Runs the search :func:`_cc_sets`, as :func:`enumerate_cc_extension`
    does, and histograms the set sizes.
    """
    return _report(CONNECTED_CONVEX, d.n, _cc_sets(d, d.n, budget=budget))


def enumerate_cc_extension(
    d: Digraph, *, max_size: int | None = None
) -> tuple[list[VertexSet], EnumerationReport]:
    """Enumerate every connected convex set of ``d`` once, with at most
    ``max_size`` vertices if given.

    Sets come by ascending size, each size in ascending bitmask order.  This
    is the set-building consumer of the search that
    :func:`count_connected_convex` tallies, and without ``max_size`` its
    report equals that function's on every digraph, connected or not; see
    :func:`_cc_sets` for why growing a set by the hull of one more vertex
    it reaches or is reached from finds every set exactly once.
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


class SizeBoundRow(NamedTuple):
    k: int
    count: int
    bound: int
    ok: bool


class SizeBoundTable(NamedTuple):
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


def verify_size_lower_bound(d: Digraph, *, budget: int = BUDGET) -> SizeBoundTable:
    """Check that ``d`` has at least n - k + 1 connected convex sets of each size k."""
    if not d.is_connected():
        raise DisconnectedInput("the size lower bound holds for connected digraphs")
    return SizeBoundTable(count_connected_convex(d, budget=budget))


def report_to_json(report: EnumerationReport) -> str:
    """Serialize a report to its stable JSON form (fixed key order)."""
    import json  # here, not at the top: jobs without JSON output skip it
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
    import json  # here, not at the top: jobs without JSON output skip it
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
    """Serialize per-size counts with the n - k + 1 bound columns: the rows
    of ``SizeBoundTable(report)``, one line each."""
    rows = SizeBoundTable(report).rows
    return "k,count,bound,pass\n" + "".join(f"{k},{c},{b},{str(ok).lower()}\n" for k, c, b, ok in rows)
