import json
import math
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from dagconvex import (
    BudgetExceeded,
    CONNECTED_CONVEX,
    CONVEX,
    Digraph,
    DisconnectedInput,
    EmptyReport,
    EnumerationReport,
    FamilySpec,
    InvalidParameter,
    SizeBoundTable,
    VertexSet,
    closed_form_gi_counts,
    count_cc_within,
    count_connected_convex,
    count_convex,
    enumerate_brute,
    enumerate_cc_extension,
    find_non_cut_endpoints,
    format_fraction,
    gen_dt,
    gen_gi,
    gen_path,
    gen_random_connected_dag,
    is_convex,
    is_underlying_connected,
    report_from_json,
    report_to_csv,
    report_to_json,
    verify_size_lower_bound,
)
from dagconvex import enumeration
from dagconvex.enumeration import _cc_sets
from dagconvex.errors import EmptySet


def masks(sets):
    return [s.mask for s in sets]


class TestEnumerateBrute:
    def test_p3_convex(self):
        d = gen_path(3)
        sets, rep = enumerate_brute(d, CONVEX)
        # every non-empty subset except {0,2}
        assert masks(sets) == [1, 2, 3, 4, 6, 7]
        assert rep.count == 6 and rep.histogram == (3, 2, 1)

    def test_p3_connected_convex(self):
        _, rep = enumerate_brute(gen_path(3), CONNECTED_CONVEX)
        assert rep.count == 6
        assert rep.histogram == (3, 2, 1)

    def test_single_vertex(self):
        for kind in (CONVEX, CONNECTED_CONVEX):
            sets, rep = enumerate_brute(gen_path(1), kind)
            assert masks(sets) == [1]
            assert rep.count == 1 and rep.size_sum == 1

    def test_matches_subset_filter_oracle(self, small_corpus):
        for d in small_corpus:
            sets, _ = enumerate_brute(d, CONVEX)
            assert sorted(masks(sets)) == sorted(
                sum(1 << v for v in s) for s in oracles.oracle_convex_sets(d)
            )
            cc, _ = enumerate_brute(d, CONNECTED_CONVEX)
            assert sorted(masks(cc)) == sorted(
                sum(1 << v for v in s) for s in oracles.oracle_cc_sets(d)
            )

    def test_disconnected_digraph_counts(self):
        # two isolated vertices: each singleton is convex; the pair is a
        # convex but disconnected set
        d = Digraph(2, [])
        _, co = enumerate_brute(d, CONVEX)
        _, cc = enumerate_brute(d, CONNECTED_CONVEX)
        assert co.count == 3
        assert cc.count == 2

    def test_emission_is_ascending(self):
        d = gen_random_connected_dag(9, 0.35, 3)
        for kind in (CONVEX, CONNECTED_CONVEX):
            sets, _ = enumerate_brute(d, kind)
            ms = masks(sets)
            assert ms == sorted(ms)
            assert len(set(ms)) == len(ms)

    def test_beyond_25_vertices(self):
        # the budget bounds the search nodes, not the order
        _, rep = enumerate_brute(gen_path(26), CONNECTED_CONVEX)
        assert rep.count == 26 * 27 // 2

    def test_bad_kind(self):
        with pytest.raises(InvalidParameter):
            enumerate_brute(gen_path(2), "all")

    @pytest.mark.parametrize("kind", [CONVEX, CONNECTED_CONVEX])
    def test_budget(self, kind):
        # path:10 costs exactly 352 steps: 1 set-up step (3 * 10**2 bits of
        # rows) and 1 per node.  Of the nodes with k vertices decided, the
        # 1 + k(k+1)/2 whose chosen set is empty or an interval escape the
        # cut, and each of those with k < 10 has two children: the root and
        # 2 * (10 + 165) children make 351 nodes
        path = gen_path(10)
        assert enumerate_brute(path, kind, budget=352)[1].count == 55
        with pytest.raises(BudgetExceeded, match="^subset scan spent the work budget of 351 steps$"):
            enumerate_brute(path, kind, budget=351)

    def test_chunked_scan_crosses_chunk_boundary(self):
        d = gen_path(22)
        _, rep = enumerate_brute(d, CONNECTED_CONVEX)
        assert rep.count == 22 * 23 // 2
        assert rep.histogram == tuple(22 - k + 1 for k in range(1, 23))

    @pytest.mark.parametrize("n", [17, 18, 19, 20])
    def test_emission_is_ascending_across_chunks(self, n):
        d = gen_random_connected_dag(n, 0.3, n)
        sets, rep = enumerate_brute(d, CONVEX)
        ms = masks(sets)
        assert all(a < b for a, b in zip(ms, ms[1:]))
        assert rep == count_convex(d)


class TestExtensionEnumerator:
    def test_p5(self):
        sets, rep = enumerate_cc_extension(gen_path(5))
        assert rep.count == 15
        assert rep.histogram == (5, 4, 3, 2, 1)

    def test_g2(self):
        _, rep = enumerate_cc_extension(gen_gi(2)[0])
        assert rep.count == 25

    def test_d1_identical_to_p5_brute(self):
        d1, _ = gen_dt(1)
        ext, rep_ext = enumerate_cc_extension(d1)
        brute, rep_brute = enumerate_brute(gen_path(5), CONNECTED_CONVEX)
        assert rep_ext == rep_brute
        assert sorted(masks(ext)) == masks(brute)

    def test_emission_order_by_size_then_mask(self):
        d = gen_random_connected_dag(8, 0.4, 17)
        sets, _ = enumerate_cc_extension(d)
        keys = [(len(s), s.mask) for s in sets]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_every_emitted_set_rechecked(self, small_corpus):
        for d in small_corpus:
            sets, _ = enumerate_cc_extension(d)
            for s in sets:
                assert is_convex(d, s)
                assert is_underlying_connected(d, s)

    def test_matches_brute_on_corpus(self, small_corpus):
        for d in small_corpus:
            ext, rep_e = enumerate_cc_extension(d)
            brute, rep_b = enumerate_brute(d, CONNECTED_CONVEX)
            assert sorted(masks(ext)) == masks(brute)
            assert rep_e == rep_b

    def test_max_size(self):
        sets, rep = enumerate_cc_extension(gen_path(6), max_size=2)
        assert rep.histogram == (6, 5, 0, 0, 0, 0)
        assert all(len(s) <= 2 for s in sets)
        with pytest.raises(InvalidParameter):
            enumerate_cc_extension(gen_path(3), max_size=0)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 11), st.sampled_from([0.15, 0.3, 0.5, 0.8]))
    @settings(max_examples=40, deadline=None)
    def test_max_size_matches_brute(self, seed, n, p):
        # a hull can be several vertices larger than the set it grows
        # from, so every bound must be checked, not only the full size
        d = gen_random_connected_dag(n, p, seed)
        brute, _ = enumerate_brute(d, CONNECTED_CONVEX)
        for k in range(1, n + 1):
            want = sorted((len(s), s.mask) for s in brute if len(s) <= k)
            sets, rep = enumerate_cc_extension(d, max_size=k)
            assert [(len(s), s.mask) for s in sets] == want
            assert rep.count == len(want)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 7),
        st.integers(1, 7),
        st.sampled_from([0.2, 0.4, 0.7]),
    )
    @settings(max_examples=40, deadline=None)
    def test_disconnected_accepted(self, seed, n1, n2, p):
        # the search roots a subtree at every vertex, so disconnected
        # input is enumerated and agrees with the count core and the scan
        d = disjoint_union(
            gen_random_connected_dag(n1, p, seed), gen_random_connected_dag(n2, p, seed + 1), seed
        )
        assert not d.is_connected()
        sets, rep = enumerate_cc_extension(d)
        brute, rep_brute = enumerate_brute(d, CONNECTED_CONVEX)
        assert rep == count_connected_convex(d) == rep_brute
        assert sorted(masks(sets)) == masks(brute)
        sets, rep = enumerate_cc_extension(Digraph(3, [(0, 1)]))
        assert masks(sets) == [1, 2, 4, 3]
        assert rep.histogram == (3, 1, 0)

    def test_beyond_40_vertices(self):
        # the budget bounds the search nodes, not the order
        _, rep = enumerate_cc_extension(gen_path(41))
        assert rep.count == 41 * 42 // 2

    def test_full_vertex_set_is_last_on_connected(self):
        # invariant: histogram[n] = 1 on a connected digraph
        for seed in range(5):
            d = gen_random_connected_dag(7, 0.3, 400 + seed)
            _, rep = enumerate_cc_extension(d)
            assert rep.histogram[-1] == 1


def disjoint_union(a, b, seed):
    """The disjoint union of ``a`` and ``b`` with randomly interleaved labels."""
    label = list(range(a.n + b.n))
    random.Random(seed).shuffle(label)
    arcs = [(label[u], label[v]) for u, v in a.arcs]
    arcs += [(label[a.n + u], label[a.n + v]) for u, v in b.arcs]
    return Digraph(a.n + b.n, arcs)


class TestCountOnly:
    """Each count-only report equals its set-building enumerator's report."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 11), st.sampled_from([0.15, 0.3, 0.5, 0.8]))
    @settings(max_examples=60, deadline=None)
    def test_random_dags(self, seed, n, p):
        d = gen_random_connected_dag(n, p, seed)
        assert count_convex(d) == enumerate_brute(d, CONVEX)[1]
        cc = count_connected_convex(d)
        assert cc == enumerate_cc_extension(d)[1]
        assert cc == enumerate_brute(d, CONNECTED_CONVEX)[1]

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 7),
        st.integers(1, 7),
        st.sampled_from([0.2, 0.4, 0.7]),
    )
    @settings(max_examples=40, deadline=None)
    def test_disjoint_unions(self, seed, n1, n2, p):
        a = gen_random_connected_dag(n1, p, seed)
        b = gen_random_connected_dag(n2, p, seed + 1)
        d = disjoint_union(a, b, seed)
        assert not d.is_connected()
        assert count_convex(d) == enumerate_brute(d, CONVEX)[1]
        cc = count_connected_convex(d)
        assert cc == enumerate_brute(d, CONNECTED_CONVEX)[1]
        # connected sets lie in one component: the histograms add up
        want = [0] * d.n
        for part in (a, b):
            for k, c in enumerate(enumerate_cc_extension(part)[1].histogram):
                want[k] += c
        assert list(cc.histogram) == want

    @pytest.mark.parametrize("n", [21, 22, 23, 24])
    def test_orders_across_chunks(self, n):
        d = gen_random_connected_dag(n, 0.4, n)
        assert count_convex(d) == enumerate_brute(d, CONVEX)[1]
        assert count_connected_convex(d) == enumerate_cc_extension(d)[1]

    @pytest.mark.parametrize("n", [21, 22, 23, 24])
    def test_disjoint_unions_across_chunks(self, n):
        d = disjoint_union(
            gen_random_connected_dag(n // 2, 0.6, n), gen_random_connected_dag(n - n // 2, 0.6, n + 1), n
        )
        assert count_convex(d) == enumerate_brute(d, CONVEX)[1]
        assert count_connected_convex(d) == enumerate_brute(d, CONNECTED_CONVEX)[1]

    def test_budget(self):
        # every non-empty subset of the 40-vertex star 0 -> 1..39 is convex,
        # and 2**39 + 39 of them are connected
        star = Digraph(40, [(0, v) for v in range(1, 40)])
        with pytest.raises(BudgetExceeded, match="connected search spent the work budget of 1048576"):
            count_connected_convex(star)
        # the frontier count holds 2 states at each of the 40 vertices but
        # the first: 56 set-up steps and 3 per state, 56 + 3 * 79 = 293
        assert count_convex(star).count == (1 << 40) - 1
        with pytest.raises(BudgetExceeded, match="frontier count spent the work budget of 292"):
            count_convex(star, budget=292)
        # path:30 costs exactly its budget: the search pays 2 set-up steps
        # (3 * 30**2 bits of rows) and 1 per node plus 1 per candidate, 2
        # for each of its 465 nodes but the 30 that end at vertex 29; the
        # frontier count pays 32 set-up steps (the rows and 30 states of
        # 2,044 bits) and 2 per state for each vertex, with 1 state before
        # vertex 0, 2 before vertex 1 and 3 before each later one
        path = gen_path(30)
        assert count_connected_convex(path, budget=902).count == 465
        assert count_cc_within(path, VertexSet(30, range(30)), budget=902) == 465
        assert count_convex(path, budget=32 + 2 * (1 + 2 + 3 * 28)).count == 465
        for call in (
            lambda: count_connected_convex(path, budget=901),
            lambda: count_cc_within(path, VertexSet(30, range(30)), budget=901),
            lambda: count_convex(path, budget=31 + 2 * (1 + 2 + 3 * 28)),
            lambda: verify_size_lower_bound(path, budget=0),
        ):
            with pytest.raises(BudgetExceeded):
                call()

    @pytest.mark.parametrize("k", [1, 2, 5, 10])
    @pytest.mark.parametrize("inward", [False, True], ids=["out-star", "in-star"])
    def test_budget_on_both_stars(self, k, inward):
        # the star with k leaves has the 2**k sets holding the centre and
        # the k single leaves; the search spends ceil(3 n**2 / 2048) set-up
        # steps, 1 per node and 1 per candidate: every set but the centre
        # comes from one candidate, and a leaf alone has none (k = 10:
        # 2058 steps for 1,034 sets).  The in-star takes the A(S) side of
        # each union, the out-star the D(S) side.
        arcs = [(v, 0) if inward else (0, v) for v in range(1, k + 1)]
        star = Digraph(k + 1, arcs)
        cost = -(-3 * (k + 1) ** 2 // 2048) + (1 << k + 1) + k - 1
        assert count_connected_convex(star, budget=cost).count == (1 << k) + k
        with pytest.raises(BudgetExceeded):
            count_connected_convex(star, budget=cost - 1)

    def test_budget_refuses_set_up_before_building_rows(self, monkeypatch):
        # set-up is charged before anything per-vertex is allocated
        def refuse(self):
            raise AssertionError("rows built over the budget")

        for rows in ("descendant_masks", "ancestor_masks", "underlying_masks"):
            monkeypatch.setattr(Digraph, rows, refuse)
        big = gen_path(30000)
        for call in (
            lambda: enumerate_brute(big, CONNECTED_CONVEX),
            lambda: count_convex(gen_path(10000)),
            lambda: count_connected_convex(big),
            lambda: enumerate_cc_extension(big),
            lambda: verify_size_lower_bound(big),
            lambda: count_cc_within(big, VertexSet(30000, [0])),
        ):
            with pytest.raises(BudgetExceeded, match="set-up on n = "):
                call()

    def test_empty_digraph(self):
        assert count_convex(Digraph(0, [])).histogram == ()
        assert count_connected_convex(Digraph(0, [])).histogram == ()

    @pytest.mark.parametrize("n", [1, 64, 65, 100])
    def test_edgeless_tallies_wider_than_64_bits(self, n):
        # every subset is convex: C(100, 50) needs 97 bits, so a tally
        # field of a fixed 64 bits would overflow into the next size
        report = count_convex(Digraph(n, []))
        assert report.histogram == tuple(math.comb(n, k) for k in range(1, n + 1))
        assert report.count == 2**n - 1


# every scan catalogue entry of the benchmark, at both scales: histograms
# written by an earlier scan that shared no code with this one
REFERENCES = Path(__file__).parent.parent / "perfbench" / "references.json"
SCAN_REFERENCES = [
    entry for scale in json.loads(REFERENCES.read_text()).values() for entry in scale["catalogue"]["scan"]
]


class TestScanBeyondOneChunk:
    """:func:`count_convex` against sources that share none of its code:
    stored histograms, relabelled copies, disjoint unions and closed forms."""

    @pytest.mark.parametrize("entry", SCAN_REFERENCES, ids=[e["spec"] for e in SCAN_REFERENCES])
    def test_benchmark_catalogue(self, entry):
        d = FamilySpec.parse(entry["spec"]).build()
        assert list(count_convex(d).histogram) == entry["histogram"]

    # the smallest spec of the benchmark's scan catalogue, and a smaller one
    @pytest.mark.parametrize("spec", ["rand:20:0.1:1", "rand:23:0.109:50088365"])
    def test_against_the_subset_scan(self, spec):
        d = FamilySpec.parse(spec).build()
        assert count_convex(d) == enumerate_brute(d, CONVEX, budget=1 << 24)[1]

    @given(st.integers(0, 2**32 - 1), st.integers(17, 22), st.sampled_from([0.05, 0.1, 0.2, 0.4]))
    @settings(max_examples=25, deadline=None)
    def test_relabelling(self, seed, n, p):
        # relabelling changes the topological order the frontier count
        # decides the vertices in
        d = gen_random_connected_dag(n, p, seed)
        label = list(range(n))
        random.Random(seed).shuffle(label)
        moved = Digraph(n, [(label[u], label[v]) for u, v in d.arcs])
        assert count_convex(moved) == count_convex(d)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 12),
        st.integers(1, 12),
        st.sampled_from([0.1, 0.3, 0.6]),
    )
    @settings(max_examples=25, deadline=None)
    def test_disjoint_union_convolves(self, seed, n1, n2, p):
        # a convex set of a disjoint union is a convex set of each part,
        # either of them possibly empty
        parts = [gen_random_connected_dag(n1, p, seed), gen_random_connected_dag(n2, p, seed + 1)]
        with_empty = []
        for part in parts:
            hist = count_convex(part).histogram
            if part.n <= 8:
                sizes = [len(s) for s in oracles.oracle_convex_sets(part)]
                assert hist == tuple(sizes.count(k) for k in range(1, part.n + 1))
            with_empty.append((1, *hist))
        want = [0] * (n1 + n2 + 1)
        for i, a in enumerate(with_empty[0]):
            for j, b in enumerate(with_empty[1]):
                want[i + j] += a * b
        assert count_convex(disjoint_union(*parts, seed)).histogram == tuple(want[1:])

    @pytest.mark.parametrize("n", [17, 30, 45, 63])
    def test_path(self, n):
        assert count_convex(gen_path(n)).histogram == tuple(n - k + 1 for k in range(1, n + 1))

    def test_gi(self):
        d, _ = gen_gi(11)
        assert d.n == 24
        assert count_convex(d).count == closed_form_gi_counts(11)[0]

    @pytest.mark.parametrize("i", [12, 20, 30])
    def test_gi_at_paper_scale(self, i):
        assert count_convex(gen_gi(i)[0]).count == closed_form_gi_counts(i)[0]

    def test_dt_average_share_falls(self):
        # the paper's counterexample: on dt the average convex set holds a
        # falling share of the vertices
        shares = [count_convex(d).average / d.n for d in (gen_dt(t)[0] for t in (16, 25, 42, 100))]
        assert all(a > b for a, b in zip(shares, shares[1:]))


# every grow catalogue entry of the benchmark, at both scales, with the
# histogram stored beside it
GROW_REFERENCES = [
    entry for scale in json.loads(REFERENCES.read_text()).values() for entry in scale["catalogue"]["grow"]
]


def relabelled(d, label):
    return Digraph(d.n, [(label[u], label[v]) for u, v in d.arcs])


class TestConnectedSearchOrders:
    """The connected search against stored histograms and the oracles, and
    its steps when the labels run in other orders than the built ones."""

    @pytest.mark.parametrize("entry", GROW_REFERENCES, ids=[e["spec"] for e in GROW_REFERENCES])
    def test_benchmark_catalogue(self, entry):
        # each job answers at a ninth of the default budget: 9 times headroom
        d = FamilySpec.parse(entry["spec"]).build()
        report = count_connected_convex(d, budget=enumeration.BUDGET // 9)
        assert list(report.histogram) == entry["histogram"]

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(5, 12),
        st.sampled_from([0.15, 0.3, 0.5, 0.8]),
        st.booleans(),
        st.integers(1, 2**12 - 1),
        st.integers(1, 12),
    )
    @settings(max_examples=100, deadline=None)
    def test_shuffled_or_reversed_labels(self, seed, n, p, shuffle, within_bits, limit):
        # candidates come from D(S) | A(S), not only from the vertices
        # adjacent to S, so the label order decides which of them is tried
        # first; every arc descends once the topological ranks are reversed
        d = gen_random_connected_dag(n, p, seed)
        label = [0] * n
        for rank, v in enumerate(d.topological_order):
            label[v] = n - 1 - rank
        if shuffle:
            random.Random(seed).shuffle(label)
        d = relabelled(d, label)
        within = within_bits & ((1 << n) - 1) or 1 << n - 1
        got = list(_cc_sets(d, limit, within))
        assert len(set(got)) == len(got)
        want = []
        sub = within
        while sub:
            members = list(VertexSet.from_mask(n, sub))
            if (
                len(members) <= limit
                and oracles.oracle_connected(d, members)
                and oracles.oracle_is_convex(d, members)
            ):
                want.append(sub)
            sub = (sub - 1) & within
        assert sorted(got) == sorted(want)

    @pytest.mark.parametrize("spec", ["path:30", "dt:9", "gi:6"])
    def test_budget_under_reversed_labels(self, spec):
        # the search pays its set-up, 1 step per set and 1 per try.  A try
        # that finds no set has a hull meeting the vertices below the root:
        # a hull vertex beyond an earlier tried vertex would, by convexity,
        # put that vertex in S or in F with w.  A new vertex of the hull of
        # S + w lies on a path from S to w or from w to S; when every arc
        # ascends, and when every arc descends, its label is above that of w
        # or of a vertex of S, none of which is below the root.  Then no try
        # fails, every set but the n roots comes from one try, and both
        # label orders cost the set-up plus 2 cc - n steps
        d = FamilySpec.parse(spec).build()
        assert all(u < v for u, v in d.arcs)
        n = d.n
        cc = count_connected_convex(d).count
        cost = -(-3 * n * n // 2048) + 2 * cc - n
        for g in (d, relabelled(d, range(n - 1, -1, -1))):
            assert count_connected_convex(g, budget=cost).count == cc
            with pytest.raises(BudgetExceeded):
                count_connected_convex(g, budget=cost - 1)


class TestCountWithin:
    def test_middle_layer_counts(self):
        # with z required: exactly the 2^{2r} fan subsets; without the
        # requirement the 2r singletons join in
        for t, r in ((1, 1), (4, 2)):
            d, labels = gen_dt(t)
            mid = VertexSet(d.n, range(t, t + 2 * r + 1))
            z = VertexSet(d.n, [labels["z"]])
            assert count_cc_within(d, mid, containing=z) == 4**r
            assert count_cc_within(d, mid) == 4**r + 2 * r

    def test_singleton(self):
        d = gen_path(4)
        assert count_cc_within(d, VertexSet(4, [2])) == 1

    def test_whole_universe_matches_total(self, small_corpus):
        for d in small_corpus:
            _, rep = enumerate_cc_extension(d)
            assert count_cc_within(d, VertexSet.universe(d.n)) == rep.count

    def test_empty_rejected(self):
        with pytest.raises(EmptySet):
            count_cc_within(gen_path(3), VertexSet(3))

    def test_non_convex_disconnected_within(self):
        # u = {0, 2, 3} on the path 0->1->2->3 is neither convex nor
        # connected; {0, 2} and {0, 2, 3} must not count, {2, 3} must
        d = gen_path(4)
        u = VertexSet(4, [0, 2, 3])
        assert count_cc_within(d, u) == 4
        assert count_cc_within(d, u, containing=VertexSet(4, [2, 3])) == 1
        assert count_cc_within(d, u, containing=VertexSet(4, [0, 3])) == 0
        assert count_cc_within(d, u, containing=VertexSet(4, [1])) == 0

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 8),
        st.sampled_from([0.2, 0.4, 0.7]),
        st.integers(1, 2**8 - 1),
        st.integers(0, 2**8 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_submask_oracle(self, seed, n, p, u_bits, need_bits):
        d = gen_random_connected_dag(n, p, seed)
        u_mask = u_bits & ((1 << n) - 1) or 1
        need_mask = need_bits & u_mask if need_bits & 1 else need_bits & ((1 << n) - 1)
        u = VertexSet.from_mask(n, u_mask)
        need = VertexSet.from_mask(n, need_mask)
        want = 0
        sub = u_mask
        while sub:
            members = list(VertexSet.from_mask(n, sub))
            if (
                need_mask & ~sub == 0
                and oracles.oracle_connected(d, members)
                and oracles.oracle_is_convex(d, members)
            ):
                want += 1
            sub = (sub - 1) & u_mask
        assert count_cc_within(d, u, containing=need) == want


class TestReportAndStatistics:
    def test_report_invariants_enforced(self):
        with pytest.raises(InvalidParameter):
            EnumerationReport("weird", (1,))
        with pytest.raises(InvalidParameter):
            EnumerationReport(CONVEX, (2, -1))  # negative entry
        with pytest.raises(InvalidParameter):
            EnumerationReport(CONVEX, (True, True))  # bool entries
        with pytest.raises(InvalidParameter):
            EnumerationReport(CONVEX, (1.0,))  # float entry

    def test_report_is_its_histogram(self):
        # the order, count and size sum are read off the histogram, so no
        # report can disagree with it
        assert EnumerationReport._fields == ("kind", "histogram")
        rep = EnumerationReport(CONVEX, (3, 2, 1))
        assert (rep.n, rep.count, rep.size_sum, rep.average) == (3, 6, 10, Fraction(5, 3))
        assert rep == EnumerationReport(CONVEX, (3, 2, 1))
        assert rep != EnumerationReport(CONNECTED_CONVEX, (3, 2, 1))

    def test_statistics_examples(self):
        _, rep = enumerate_brute(gen_path(3), CONNECTED_CONVEX)
        assert (rep.count, rep.size_sum, rep.average) == (6, 10, Fraction(5, 3))
        assert format_fraction(rep.average) == "1.666667"

        _, rep = enumerate_brute(gen_gi(1)[0], CONNECTED_CONVEX)
        assert (rep.count, rep.size_sum, rep.average) == (10, 20, Fraction(2))

        _, rep = enumerate_brute(gen_path(1), CONVEX)
        assert (rep.count, rep.size_sum, rep.average) == (1, 1, Fraction(1))

    def test_path5_average(self):
        _, rep = enumerate_cc_extension(gen_path(5))
        assert rep.average == Fraction(7, 3)
        assert format_fraction(rep.average) == "2.333333"

    def test_empty_report(self):
        rep = EnumerationReport(CONVEX, ())
        assert (rep.n, rep.count, rep.size_sum) == (0, 0, 0)
        with pytest.raises(EmptyReport):
            _ = rep.average

    def test_format_fraction_round_half_even(self):
        assert format_fraction(Fraction(1, 8)) == "0.125000"
        assert format_fraction(Fraction(1, 2000000)) == "0.000000"  # tie to even
        assert format_fraction(Fraction(3, 2000000)) == "0.000002"  # tie to even
        assert format_fraction(Fraction(2, 3)) == "0.666667"
        assert format_fraction(Fraction(10, 1)) == "10.000000"
        assert format_fraction(Fraction(0)) == "0.000000"

    def test_format_fraction_refuses_negative(self):
        # floor division would render -1/3 as "-1.666667"
        with pytest.raises(InvalidParameter, match="^fraction must be >= 0, got -1/3$"):
            format_fraction(Fraction(-1, 3))

    def test_size_count(self):
        _, rep = enumerate_brute(gen_path(4), CONNECTED_CONVEX)
        assert rep.size_count(1) == 4
        assert rep.size_count(4) == 1
        with pytest.raises(InvalidParameter):
            rep.size_count(0)


class TestSerialization:
    def test_json_round_trip_byte_identical(self):
        _, rep = enumerate_brute(gen_gi(2)[0], CONVEX)
        text = report_to_json(rep)
        again = report_from_json(text)
        assert again == rep
        assert report_to_json(again) == text

    def test_json_shape(self):
        _, rep = enumerate_brute(gen_path(3), CONNECTED_CONVEX)
        obj = json.loads(report_to_json(rep))
        assert list(obj) == [
            "class",
            "n",
            "count",
            "sum",
            "average_num",
            "average_den",
            "histogram",
        ]
        assert obj["class"] == CONNECTED_CONVEX
        assert obj["average_num"] == 5 and obj["average_den"] == 3
        assert obj["histogram"] == [3, 2, 1]

    def test_json_validation(self):
        _, rep = enumerate_brute(gen_path(3), CONNECTED_CONVEX)
        obj = json.loads(report_to_json(rep))
        obj["average_num"] = 999
        with pytest.raises(InvalidParameter):
            report_from_json(json.dumps(obj))
        del obj["average_num"]
        with pytest.raises(InvalidParameter):
            report_from_json(json.dumps(obj))
        for text in ("", "not json", report_to_json(rep)[:-1]):
            with pytest.raises(InvalidParameter):
                report_from_json(text)
        obj = {"class": CONVEX, "n": 2, "count": 1, "sum": 0, "histogram": [2, -1]}
        with pytest.raises(InvalidParameter):
            report_from_json(json.dumps({**obj, "average_num": 0, "average_den": 1}))
        obj = {"class": CONVEX, "n": 1, "count": 1, "sum": 1, "histogram": [1]}
        assert report_from_json(json.dumps({**obj, "average_num": 1, "average_den": 1})).count == 1
        for num, den in ((True, True), (1, True), (True, 1), (1.0, 1), (1, 1.0)):
            with pytest.raises(InvalidParameter):
                report_from_json(json.dumps({**obj, "average_num": num, "average_den": den}))
        good = {**obj, "average_num": 1, "average_den": 1}
        assert report_from_json(json.dumps({**good, "average_num": 2, "average_den": 2})).count == 1
        # stated values that disagree with the histogram, or are not ints
        for key, value in (("n", 2), ("count", 2), ("sum", 2), ("count", 1.0), ("n", True)):
            with pytest.raises(InvalidParameter):
                report_from_json(json.dumps({**good, key: value}))
        obj = {"class": CONVEX, "n": 2, "count": 2, "sum": 3, "histogram": [1, 1]}
        assert report_from_json(json.dumps({**obj, "average_num": 3, "average_den": 2})).n == 2
        for key, value in (("n", 3), ("count", 3), ("sum", 5), ("average_den", 0)):
            with pytest.raises(InvalidParameter):
                report_from_json(json.dumps({**obj, "average_num": 3, "average_den": 2, key: value}))
        # inputs that json.loads refuses with a bare ValueError or RecursionError
        for text in ('{"n": ' + "1" * 5000 + "}", "[" * 100_000):
            with pytest.raises(InvalidParameter):
                report_from_json(text)

    def test_csv_shape(self):
        _, rep = enumerate_cc_extension(gen_path(3))
        assert report_to_csv(rep) == (
            "k,count,bound,pass\n1,3,3,true\n2,2,2,true\n3,1,1,true\n"
        )

    @given(st.integers(0, 2**32 - 1), st.integers(1, 9))
    @settings(max_examples=40, deadline=None)
    def test_json_round_trip_random(self, seed, n):
        d = gen_random_connected_dag(n, 0.4, seed)
        _, rep = enumerate_cc_extension(d)
        assert report_from_json(report_to_json(rep)) == rep


class TestSizeLowerBound:
    def test_path_equality(self):
        for n in range(1, 13):
            table = verify_size_lower_bound(gen_path(n))
            assert table.passed and table.n == len(table.rows) == n
            assert all(row.count == row.bound for row in table.rows)

    def test_g3(self):
        table = verify_size_lower_bound(gen_gi(3)[0])
        assert table.n == 8
        assert table.passed

    def test_random(self):
        for seed in range(20):
            d = gen_random_connected_dag(1 + seed % 12, 0.4, 800 + seed)
            assert verify_size_lower_bound(d).passed

    def test_csv(self):
        table = verify_size_lower_bound(gen_path(2))
        assert report_to_csv(table.report) == "k,count,bound,pass\n1,2,2,true\n2,1,1,true\n"

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedInput):
            verify_size_lower_bound(Digraph(2, []))

    @given(
        st.sampled_from([CONVEX, CONNECTED_CONVEX]),
        st.lists(st.integers(0, 20), min_size=1, max_size=12),
    )
    def test_rows_read_off_the_report(self, kind, histogram):
        rep = EnumerationReport(kind, tuple(histogram))
        table = SizeBoundTable(rep)
        n = len(histogram)
        expected = [(k, h, n - k + 1, h >= n - k + 1) for k, h in enumerate(histogram, 1)]
        assert table.rows == tuple(expected)
        assert table.n == n
        assert table.passed == all(ok for *_, ok in expected)
        lines = [f"{k},{h},{b},{'true' if ok else 'false'}\n" for k, h, b, ok in expected]
        assert report_to_csv(rep) == "k,count,bound,pass\n" + "".join(lines)


def labelled_dags(n):
    """Every digraph on 0..n-1 whose arcs go from smaller to larger labels;
    each DAG of order n is isomorphic to one of them."""
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Digraph(n, [pair for i, pair in enumerate(pairs) if bits >> i & 1])


class TestEverySmallDag:
    """Exhaustive checks over all 1 + 2 + 8 + 64 + 1,024 labelled DAGs of
    orders 1..5."""

    def test_convex_counter_and_scan(self):
        # the 1,100 labelled DAGs of orders 0..5; set by set up to order 4
        for n in range(6):
            for d in labelled_dags(n):
                sets, brute = enumerate_brute(d, CONVEX)
                assert count_convex(d) == brute
                if n <= 4:
                    want = sorted(sum(1 << v for v in s) for s in oracles.oracle_convex_sets(d))
                    assert masks(sets) == want

    def test_counters_theorem_and_endpoints(self):
        tight = []
        for n in range(1, 6):
            tight.append(0)
            for d in labelled_dags(n):
                sets, brute = enumerate_brute(d, CONNECTED_CONVEX)
                assert count_connected_convex(d) == brute
                want = masks(sets)
                assert sorted(masks(enumerate_cc_extension(d)[0])) == want
                for k in range(1, n + 1):
                    got = masks(enumerate_cc_extension(d, max_size=k)[0])
                    assert sorted(got) == [m for m in want if m.bit_count() <= k]
                if d.is_connected():
                    table = verify_size_lower_bound(d)
                    assert table.passed
                    tight[-1] += all(row.count == row.bound for row in table.rows)
                    assert n < 2 or len(find_non_cut_endpoints(d)) >= 2
        # how many meet n - k + 1 with equality at every k: a regression
        # value of this labelling, not a claim of the paper
        assert tight == [1, 1, 4, 25, 226]

    def test_sets_within_every_subset_and_limit(self):
        # set by set, so that a duplicate cannot hide a missing set
        for n in range(1, 5):
            for d in labelled_dags(n):
                cc = sorted(sum(1 << v for v in s) for s in oracles.oracle_cc_sets(d))
                for u_mask in range(1, 1 << n):
                    for k in range(1, n + 1):
                        got = list(_cc_sets(d, k, u_mask))
                        assert len(set(got)) == len(got)
                        want = [m for m in cc if m & ~u_mask == 0 and m.bit_count() <= k]
                        assert sorted(got) == want

    def test_count_within_every_subset(self):
        for n in range(1, 5):
            for d in labelled_dags(n):
                cc = [sum(1 << v for v in s) for s in oracles.oracle_cc_sets(d)]
                for u_mask in range(1, 1 << n):
                    u = VertexSet.from_mask(n, u_mask)
                    inside = [m for m in cc if m & ~u_mask == 0]
                    assert count_cc_within(d, u) == len(inside)
                    for need in range(1 << n):
                        want = sum(1 for m in inside if m & need == need)
                        got = count_cc_within(d, u, containing=VertexSet.from_mask(n, need))
                        assert got == want
