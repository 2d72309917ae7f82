import random
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from test_io import dags
from dagconvex import (
    ConvexityWitness,
    Digraph,
    DisconnectedInput,
    FullSet,
    InvalidParameter,
    NotConnectedConvex,
    OrderTooSmall,
    VertexSet,
    convex_hull,
    convexity_witness,
    enumerate_cc_extension,
    find_extension_vertex,
    find_non_cut_endpoints,
    gen_gi,
    gen_path,
    gen_random_connected_dag,
    is_convex,
    is_cut_vertex,
    is_underlying_connected,
    reachable_from,
    reaching_to,
)
from dagconvex import convexity, core
from dagconvex.cli import main
from dagconvex.errors import EmptySet
from dagconvex.io import load_digraph, write_edge_list


def sampled_sets(d, rng, count=5):
    """A few non-empty subsets of d's vertices, plus the extremes."""
    out = [{0}, set(range(d.n))]
    for _ in range(count):
        s = {v for v in range(d.n) if rng.random() < 0.5}
        if s:
            out.append(s)
    return out


class TestIsConvex:
    def test_path_examples(self):
        d = gen_path(3)
        assert not is_convex(d, VertexSet(3, [0, 2]))
        assert is_convex(d, VertexSet(3, [0, 1]))
        assert is_convex(d, VertexSet(3, [1]))

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySet):
            is_convex(gen_path(3), VertexSet(3))
        with pytest.raises(EmptySet):
            convex_hull(gen_path(3), VertexSet(3))
        with pytest.raises(EmptySet):
            convexity_witness(gen_path(3), VertexSet(3))

    def test_universe_mismatch(self):
        with pytest.raises(InvalidParameter):
            is_convex(gen_path(3), VertexSet(4, [0]))

    def test_exhaustive_agreement_with_path_oracle(self):
        # every subset of a few small digraphs, against path enumeration
        instances = [
            gen_path(5),
            gen_gi(2)[0],
            Digraph(5, [(0, 2), (1, 2), (2, 3), (2, 4)]),
            gen_random_connected_dag(6, 0.4, 11),
        ]
        for d in instances:
            for k in range(1, d.n + 1):
                for combo in combinations(range(d.n), k):
                    expected = oracles.oracle_is_convex(d, combo)
                    assert is_convex(d, VertexSet(d.n, combo)) == expected

    def test_sampled_agreement_on_random_corpus(self):
        # 200 connected DAGs, a handful of subsets each
        rng = random.Random(1234)
        for idx in range(200):
            d = gen_random_connected_dag(1 + idx % 10, (0.2, 0.35, 0.5)[idx % 3], 5000 + idx)
            for s in sampled_sets(d, rng):
                assert is_convex(d, VertexSet(d.n, s)) == oracles.oracle_is_convex(d, s)


class TestWitness:
    def test_p3_witness(self):
        w = convexity_witness(gen_path(3), VertexSet(3, [0, 2]))
        assert w is not None
        assert w.path == (0, 1, 2)
        assert (w.u, w.v) == (0, 2)

    def test_none_for_convex(self):
        assert convexity_witness(gen_path(3), VertexSet(3, [0, 1])) is None

    def test_witness_validity_on_corpus(self):
        rng = random.Random(99)
        for idx in range(80):
            d = gen_random_connected_dag(2 + idx % 9, 0.4, 6000 + idx)
            for s in sampled_sets(d, rng):
                x = VertexSet(d.n, s)
                w = convexity_witness(d, x)
                if w is None:
                    assert is_convex(d, x)
                else:
                    assert not is_convex(d, x)
                    assert w.is_valid_for(d, x)
                    # interior vertices certify non-convexity definitionally
                    assert any(v not in s for v in w.path[1:-1])

    def test_is_valid_for_rejects_junk(self):
        d = gen_path(4)
        x = VertexSet(4, [0, 2])
        w = convexity_witness(d, x)
        assert w.is_valid_for(d, x)

        # wrong endpoints, non-arcs, all-inside paths
        assert not ConvexityWitness(0, 2, (0, 2)).is_valid_for(d, x)
        assert not ConvexityWitness(0, 2, (0, 3, 2)).is_valid_for(d, x)
        assert not ConvexityWitness(0, 1, (0, 1)).is_valid_for(d, VertexSet(4, [0, 1]))
        # a repeated vertex; an endpoint outside x on a real path
        assert not ConvexityWitness(0, 2, (0, 1, 1, 2)).is_valid_for(d, x)
        assert not ConvexityWitness(0, 3, (0, 1, 2, 3)).is_valid_for(d, x)
        # labels outside 0..n-1 are no vertices of d: False, never another
        # row or an IndexError
        assert not ConvexityWitness(0, 2, (0, -1, 2)).is_valid_for(d, x)
        assert not ConvexityWitness(0, 2, (0, 4, 2)).is_valid_for(d, x)
        # a set from another universe is refused, as is_convex refuses it
        for other, w, y in [
            (d, ConvexityWitness(4, 2, (4, 1, 2)), VertexSet(5, [2, 4])),
            (d, ConvexityWitness(0, 2, (0, 1, 2)), VertexSet(3, [0, 2])),
            (gen_path(3), ConvexityWitness(0, 2, (0, 1, 2)), VertexSet(5, [0, 2])),
        ]:
            with pytest.raises(InvalidParameter):
                w.is_valid_for(other, y)

    @pytest.mark.parametrize(
        "n, arcs, x, path",
        [
            (5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)], [0, 4], (0, 1, 3, 4)),
            (5, [(4, 3), (4, 2), (3, 1), (2, 1), (1, 0)], [0, 4], (4, 2, 1, 0)),
            (6, [(5, 3), (5, 4), (3, 1), (4, 1), (4, 2), (1, 0), (2, 0)], [0, 5], (5, 3, 1, 0)),
            # two members one arc from w: the lower one starts the path
            (4, [(3, 1), (2, 1), (1, 0)], [0, 2, 3], (2, 1, 0)),
        ],
    )
    def test_shortest_path_tie_breaks(self, n, arcs, x, path):
        # of several shortest paths, the witness takes the one whose BFS
        # reaches the target first: sources in ascending order, each row's
        # heads in ascending order, also where the labels descend
        w = convexity_witness(Digraph(n, arcs), VertexSet(n, x))
        assert w.path == path and (w.u, w.v) == (path[0], path[-1])


class TestHull:
    def test_fill_the_path(self):
        got = convex_hull(gen_path(3), VertexSet(3, [0, 2]))
        assert got.members() == (0, 1, 2)

    def test_hull_of_convex_set_is_identity(self):
        d = gen_path(5)
        x = VertexSet(5, [1, 2, 3])
        assert convex_hull(d, x) == x

    def test_matches_path_closure_oracle(self, small_corpus):
        rng = random.Random(31)
        for d in small_corpus:
            for s in sampled_sets(d, rng, count=3):
                got = convex_hull(d, VertexSet(d.n, s))
                assert set(got) == oracles.oracle_hull(d, s)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_hull_properties(self, seed, n):
        d = gen_random_connected_dag(n, 0.4, seed)
        rng = random.Random(seed ^ 0xA5)
        members = {v for v in range(n) if rng.random() < 0.4} or {rng.randrange(n)}
        x = VertexSet(n, members)
        h = convex_hull(d, x)
        assert x.issubset(h)
        assert is_convex(d, h)
        assert convex_hull(d, h) == h
        # minimality: no convex set strictly between x and h exists; the
        # path-closure oracle builds the least one, so equality suffices
        assert set(h) == oracles.oracle_hull(d, members)

    @pytest.mark.parametrize("reverse, width", [(False, 3), (True, 200)])
    def test_label_order_window(self, monkeypatch, reverse, width):
        # with ascending arcs each search runs on the subdigraph induced by
        # [min X, max X], one byte per vertex of the window, and reading the
        # topological order must not turn that off; when an arc descends,
        # the searches span the digraph
        d = gen_path(200)
        if reverse:
            d = Digraph(200, [(v, u) for u, v in d.arcs])
        assert d.topological_order == d.topological_order
        widths = []

        def spy(adjs, seeds, seen):
            widths.append(len(seen))
            return search(adjs, seeds, seen)

        search = convexity._search
        monkeypatch.setattr(convexity, "_search", spy)
        x = VertexSet(200, [100, 102])
        assert convex_hull(d, x).members() == (100, 101, 102)
        assert not is_convex(d, x)
        assert convexity_witness(d, x).path == ((102, 101, 100) if reverse else (100, 101, 102))
        assert widths == [width] * 6


class TestExtensionVertex:
    def test_gi2_lowest_label(self):
        d, labels = gen_gi(2)
        h = VertexSet(d.n, [labels["s"], labels["a1"]])
        assert find_extension_vertex(d, h) == labels["b1"]

    def test_extension_keeps_connected_convex(self, small_corpus):
        for d in small_corpus:
            if d.n < 2:
                continue
            sets, _ = enumerate_cc_extension(d)
            for h in sets:
                if len(h) == d.n:
                    continue
                w = find_extension_vertex(d, h)
                grown = h.with_vertex(w)
                assert is_convex(d, grown)
                assert is_underlying_connected(d, grown)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 9), st.sampled_from([0.2, 0.4, 0.7]), st.data())
    @settings(max_examples=80, deadline=None)
    def test_lowest_label_matches_path_oracle(self, seed, n, p, data):
        # the local in/out-neighbour test picks the same vertex as testing
        # every neighbour of h with the path-enumerating convexity oracle
        d = gen_random_connected_dag(n, p, seed)
        proper = [h for h in oracles.oracle_cc_sets(d) if len(h) < n]
        h = data.draw(st.sampled_from(proper))
        inside = set(h)
        boundary = {w for v in h for w in oracles.und_neighbours(d)[v]} - inside
        want = min(w for w in boundary if oracles.oracle_is_convex(d, sorted(inside | {w})))
        assert find_extension_vertex(d, VertexSet(n, h)) == want

    def test_errors(self):
        d = gen_path(4)
        with pytest.raises(FullSet):
            find_extension_vertex(d, VertexSet.universe(4))
        with pytest.raises(NotConnectedConvex):
            find_extension_vertex(d, VertexSet(4))
        with pytest.raises(NotConnectedConvex):
            find_extension_vertex(d, VertexSet(4, [0, 2]))
        shortcut = Digraph(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(NotConnectedConvex):  # connected, but 1 lies between
            find_extension_vertex(shortcut, VertexSet(3, [0, 2]))
        split = Digraph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedInput):
            find_extension_vertex(split, VertexSet(4, [0]))


class TestNonCutEndpoints:
    def test_path_endpoints(self):
        for n in range(2, 8):
            assert find_non_cut_endpoints(gen_path(n)) == [0, n - 1]

    def test_gi2(self):
        d, labels = gen_gi(2)
        got = find_non_cut_endpoints(d)
        assert labels["s"] in got and labels["t"] in got

    def test_errors(self):
        with pytest.raises(OrderTooSmall):
            find_non_cut_endpoints(gen_path(1))
        with pytest.raises(DisconnectedInput):
            find_non_cut_endpoints(Digraph(4, [(0, 1), (2, 3)]))

    def test_at_least_two_verified(self, small_corpus):
        for d in small_corpus:
            if d.n < 2:
                continue
            got = find_non_cut_endpoints(d)
            assert len(got) >= 2
            for v in got:
                assert not oracles.oracle_is_cut(d, v)
                assert not d.in_adj[v] or not d.out_adj[v]

    @staticmethod
    def zigzag(n):
        # every vertex is a source or a sink; only the two ends do not cut
        return Digraph(n, [(i, i + 1) if i % 2 else (i + 1, i) for i in range(n - 1)])

    @given(st.one_of(
        dags(),
        st.builds(gen_random_connected_dag, st.integers(2, 14), st.sampled_from([0.05, 0.15, 0.3]),
                  st.integers(0, 2**32 - 1)),
    ))
    @example(zigzag(2))
    @example(zigzag(9))
    @example(zigzag(40))
    @example(Digraph(4, [(1, 0), (0, 2), (3, 0)]))  # a star around 0, the search's root
    @example(Digraph(5, [(4, 0), (4, 1), (2, 4), (3, 4)]))
    @settings(max_examples=150, deadline=None)
    def test_matches_cut_oracle(self, d):
        # the one lowpoint search against a search per vertex; sparse
        # random DAGs are mostly trees, whose inner vertices all cut, and
        # their labels are shuffled, so vertex 0, the search's root, may cut
        assume(d.n >= 2 and d.is_connected())
        want = [v for v in range(d.n) if not (d.in_adj[v] and d.out_adj[v]) and not oracles.oracle_is_cut(d, v)]
        assert find_non_cut_endpoints(d) == want

    def test_one_search_for_all_endpoints(self, monkeypatch):
        # 2,001 vertices, all sources or sinks: one connectivity search, not
        # one search per endpoint
        calls = []

        def spy(adjs, seeds, seen):
            calls.append(len(seen))
            return search(adjs, seeds, seen)

        search = core._search
        monkeypatch.setattr(core, "_search", spy)
        assert find_non_cut_endpoints(self.zigzag(2001)) == [0, 2000]
        assert len(calls) <= 1


class TestNoReachabilityRows:
    """Single-set queries search the adjacency lists, O(n + m), and build
    none of the per-vertex rows (O(n^2) bits) that enumeration uses."""

    @pytest.fixture(autouse=True)
    def refuse_rows(self, monkeypatch):
        def refuse(self):
            raise AssertionError("per-vertex rows built for a single-set query")

        for name in ("descendant_masks", "ancestor_masks", "underlying_masks"):
            monkeypatch.setattr(Digraph, name, refuse)

    def test_library_queries(self):
        d, labels = gen_gi(2)
        s, t = labels["s"], labels["t"]
        x = VertexSet(d.n, [s, t])
        assert not is_convex(d, x)
        assert convexity_witness(d, x).is_valid_for(d, x)
        assert convex_hull(d, x) == VertexSet.universe(d.n)
        assert find_extension_vertex(d, VertexSet(d.n, [s, labels["a1"]])) == labels["b1"]
        assert find_non_cut_endpoints(d) == [s, t]
        assert not is_cut_vertex(d, s) and not is_underlying_connected(d, x)
        assert reachable_from(d, VertexSet(d.n, [s])) == reaching_to(d, VertexSet(d.n, [t]))

    def test_cli_queries(self, tmp_path, capsys):
        target = tmp_path / "p3.txt"
        target.write_text("3 2\n0 1\n1 2\n")
        assert main(["check-convex", str(target), "--set", "0,2"]) == 1
        assert main(["check-convex", str(target), "--set", "1,2"]) == 0
        assert main(["hull", str(target), "--set", "0,2"]) == 0
        assert capsys.readouterr().out == (
            "convex: false\nwitness: 0 -> 1 -> 2\nconvex: true\nhull: 0 1 2\nadded: 1\n"
        )


@given(dags(), st.data())
@settings(max_examples=60, deadline=None)
def test_both_label_orders(d, data):
    # Relabelled along its topological order, every arc ascends and the
    # queries search only [min X, max X]; along the reverse order, every arc
    # descends and they search everything.  Both answer as the oracles do.
    members = data.draw(st.sets(st.integers(0, d.n - 1), min_size=1, max_size=4))
    convex = oracles.oracle_is_convex(d, members)
    hull = oracles.oracle_hull(d, members)
    rank = {v: i for i, v in enumerate(d.topological_order)}
    up = Digraph(d.n, [(rank[u], rank[v]) for u, v in d.arcs])
    assert up.topological_order == tuple(range(d.n))
    down = Digraph(d.n, [(d.n - 1 - rank[u], d.n - 1 - rank[v]) for u, v in d.arcs])
    for g, label in ((d, lambda v: v), (up, rank.get), (down, lambda v: d.n - 1 - rank[v])):
        x = VertexSet(d.n, map(label, members))
        assert is_convex(g, x) == convex
        assert set(convex_hull(g, x)) == set(map(label, hull))
        witness = convexity_witness(g, x)
        assert witness is None if convex else witness.is_valid_for(g, x)


@given(dags(), st.data())
@settings(max_examples=100, deadline=None)
def test_witness_steps_must_be_arcs(d, data):
    # a path of distinct vertices whose ends alone form X is accepted as a
    # witness exactly when each step is an arc, looked up in the arc
    # columns whether every arc ascends or a Kahn order was needed
    assume(d.n >= 3)
    path = tuple(data.draw(st.lists(st.integers(0, d.n - 1), min_size=3, max_size=5, unique=True)))
    x = VertexSet(d.n, [path[0], path[-1]])
    rank = {v: i for i, v in enumerate(d.topological_order)}
    up = Digraph(d.n, [(rank[u], rank[v]) for u, v in d.arcs])
    down = Digraph(d.n, [(d.n - 1 - rank[u], d.n - 1 - rank[v]) for u, v in d.arcs])
    for g in (d, up, down):
        adj = oracles.out_neighbours(g)
        steps_are_arcs = all(b in adj[a] for a, b in zip(path, path[1:]))
        assert ConvexityWitness(path[0], path[-1], path).is_valid_for(g, x) == steps_are_arcs


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.sampled_from([0.05, 0.15, 0.4]), st.data())
@settings(max_examples=60, deadline=None)
def test_searches_agree_with_rows(seed, n, p, data):
    # the O(n + m) searches give what the reachability rows give:
    # the hull is D(X) & A(X), and X is convex when that adds nothing
    d = gen_random_connected_dag(n, p, seed)
    members = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=4))
    x = VertexSet(n, members)
    down = up = 0
    for v in members:
        down |= d.descendant_masks()[v]
        up |= d.ancestor_masks()[v]
    assert convex_hull(d, x).mask == down & up
    assert is_convex(d, x) == (down & up == x.mask)
    assert (convexity_witness(d, x) is None) == is_convex(d, x)


@given(dags(), st.data())
@settings(max_examples=100, deadline=None)
def test_window_on_ascending_arcs(d, data):
    # relabelled so that every arc ascends, the queries run on the window
    # [min X, max X]: they answer as the oracles and the full-width searches
    # do, and the witness leaves X first at the least vertex of hull - X
    rank = {v: i for i, v in enumerate(d.topological_order)}
    d = Digraph(d.n, [(rank[u], rank[v]) for u, v in d.arcs])
    members = sorted(data.draw(st.sets(st.integers(0, d.n - 1), min_size=1, max_size=6)))
    x = VertexSet(d.n, members)
    hull = oracles.oracle_hull(d, members)
    assert set(convex_hull(d, x)) == hull
    assert is_convex(d, x) == oracles.oracle_is_convex(d, members)
    witness = convexity_witness(d, x)
    added = sorted(hull.difference(members))
    assert (witness is None) == (not added)
    if witness is not None:
        assert witness.is_valid_for(d, x)
        assert next(v for v in witness.path if v not in x) == added[0]
        head = convexity._shortest_path(d.out_adj, members, {added[0]})
        tail = convexity._shortest_path(d.out_adj, added[:1], set(members))
        assert witness.path == tuple(head + tail[1:])


def test_label_order_queries_build_no_rows(tmp_path):
    # the queries cut their windows from the arc columns of a file's
    # 20,000-vertex path, and a witness is checked on the columns: the
    # path's own adjacency lists are never built
    target = tmp_path / "path.txt"
    write_edge_list(gen_path(20_000), target)
    d = load_digraph(target)
    x = VertexSet(d.n, [5, 9])
    assert not is_convex(d, x)
    witness = convexity_witness(d, x)
    assert witness.path == (5, 6, 7, 8, 9) and witness.is_valid_for(d, x)
    assert not ConvexityWitness(5, 9, (5, 6, 8, 9)).is_valid_for(d, x)
    assert convex_hull(d, x).members() == (5, 6, 7, 8, 9)
    assert convex_hull(d, VertexSet(d.n, [0, 19_999])) == VertexSet.universe(d.n)
    assert d._out is None and d._in is None
