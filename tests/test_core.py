import importlib
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

import dagconvex
import oracles
from dagconvex import (
    CycleDetected,
    Digraph,
    InvalidArc,
    InvalidParameter,
    OrderTooSmall,
    DisconnectedInput,
    VertexSet,
    gen_dt,
    gen_path,
    gen_random_connected_dag,
    is_cut_vertex,
    is_underlying_connected,
    parse_edge_list,
    reachable_from,
    reaching_to,
    sources_and_sinks,
)
from dagconvex.core import iter_bits
from dagconvex.errors import EmptySet
from test_io import dags


def p3():
    return Digraph(3, [(0, 1), (1, 2)])


class TestVertexSet:
    def test_basics(self):
        s = VertexSet(5, [3, 0])
        assert list(s) == [0, 3]
        assert len(s) == 2
        assert 0 in s and 3 in s and 1 not in s and 7 not in s
        assert s.members() == (0, 3)
        assert bool(s)
        assert not VertexSet(5)

    @given(st.integers(1, 100_000), st.data())
    @settings(max_examples=40, deadline=None)
    def test_members_of_wide_sets(self, n, data):
        # a member list with repeats, in any order, sparse or filling a
        # stretch of a universe up to 100,000 wide, lists as its sorted set
        members = data.draw(st.lists(st.integers(0, n - 1), max_size=200))
        if data.draw(st.booleans()):
            start, step = data.draw(st.integers(0, n - 1)), data.draw(st.integers(1, 3))
            members += range(start, n, step)
        members += members[::3]
        data.draw(st.randoms()).shuffle(members)
        assert VertexSet(n, members).members() == tuple(sorted(set(members)))

    @pytest.mark.parametrize("width", [1, 7, 8, 9, 63, 64, 65, 1_000, 65_536, 65_537, 70_001])
    def test_iter_bits_matches_lowbit_loop(self, width):
        rng = random.Random(width)
        half = rng.getrandbits(width)
        eighth = half & rng.getrandbits(width) & rng.getrandbits(width)
        sparse = 1 << width - 1 | sum(1 << i for i in {rng.randrange(width) for _ in range(5)})
        for mask in (0, (1 << width) - 1, half, eighth, sparse):
            assert list(iter_bits(mask)) == oracles.lowbit_members(mask)

    @pytest.mark.parametrize(
        "n, members, bad",
        [
            (3, [0, 5, -1], 5),
            (3, [-1, 0, 5], -1),
            (3, [2, 3, 4, 3, -7], 3),
            (16, [-1], -1),  # would set bit 15 if it indexed the mask's bytes from the end
            (16, iter([4, 16, -9]), 16),
            (0, [0], 0),
        ],
    )
    def test_first_bad_member_is_named(self, n, members, bad):
        with pytest.raises(InvalidParameter, match=rf"^vertex {bad} outside universe 0\.\.{n - 1}$"):
            VertexSet(n, members)

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            VertexSet(3, [3])
        with pytest.raises(InvalidParameter):
            VertexSet(3, [-1])
        with pytest.raises(InvalidParameter):
            VertexSet(-1)
        with pytest.raises(InvalidParameter, match=r"vertex 3 outside universe 0\.\.2"):
            VertexSet(3, [0]).with_vertex(3)
        with pytest.raises(InvalidParameter):
            VertexSet.from_mask(3, 1 << 3)
        with pytest.raises(InvalidParameter):
            VertexSet(4, [0]) | VertexSet(5, [0])

    def test_ops(self):
        a = VertexSet(6, [0, 2, 4])
        b = VertexSet(6, [2, 3])
        assert (a | b).members() == (0, 2, 3, 4)
        assert (a & b).members() == (2,)
        assert (a - b).members() == (0, 4)
        assert b.issubset(a | b)
        assert not b.issubset(a)
        assert a.with_vertex(5).members() == (0, 2, 4, 5)
        assert VertexSet.universe(3).members() == (0, 1, 2)

    def test_eq_hash(self):
        assert VertexSet(4, [1]) == VertexSet(4, [1])
        assert VertexSet(4, [1]) != VertexSet(5, [1])
        assert hash(VertexSet(4, [1])) == hash(VertexSet.from_mask(4, 2))
        assert VertexSet(4, [1]) != 2 and VertexSet(4, [1]) != {1}
        assert repr(VertexSet(4, [3, 1])) == "VertexSet(n=4, members=(1, 3))"

    @given(
        st.sets(st.integers(0, 9)),
        st.sets(st.integers(0, 9)),
    )
    def test_ops_match_python_sets(self, xs, ys):
        a, b = VertexSet(10, xs), VertexSet(10, ys)
        assert set(a | b) == xs | ys
        assert set(a & b) == xs & ys
        assert set(a - b) == xs - ys
        assert a.issubset(b) == (xs <= ys)
        assert len(a) == len(xs)


class TestDigraphConstruction:
    def test_p3(self):
        d = p3()
        assert d.n == 3
        assert d.arcs == ((0, 1), (1, 2))
        assert d.arc_count == 2
        assert d.topological_order == (0, 1, 2)

    def test_arc_validation(self):
        with pytest.raises(InvalidArc):
            Digraph(3, [(0, 3)])
        with pytest.raises(InvalidArc):
            Digraph(3, [(1, 1)])
        with pytest.raises(InvalidArc):
            Digraph(3, [(0, 1), (0, 1)])
        with pytest.raises(InvalidParameter):
            Digraph(-1, [])
        # an arc is a pair, wherever it sits in the list; a shorter arc is
        # refused as one of 3 is, and a list of empty arcs is not "no arcs"
        for arcs in ([(0, 1), (1, 2, 0)], [(0, 1), (2,)], [(0, 1), ()], [()], [(), ()], [(0,)]):
            with pytest.raises(ValueError, match="values to unpack"):
                Digraph(3, arcs)

    def test_first_fault_in_input_order_is_named(self):
        # the arcs are checked in bulk; a fault still names the first bad
        # arc of the input, whichever kind of fault comes later
        with pytest.raises(InvalidArc, match="^duplicate arc 0->1$"):
            Digraph(3, [(0, 1), (1, 2), (0, 1), (0, 5)])
        with pytest.raises(InvalidArc, match="^duplicate arc 0->1$"):
            Digraph(3, [(0, 1), (0, 1), (2, 2)])
        with pytest.raises(InvalidArc, match="^arc 0->5 has an endpoint outside 0..2$"):
            Digraph(3, [(0, 1), (0, 5), (0, 1)])
        with pytest.raises(InvalidArc, match="^self-loop 2->2$"):
            Digraph(3, iter([(2, 2), (0, 1), (0, 1)]))
        # every arc ascends, so only the least tail and the greatest head
        # are range-checked
        with pytest.raises(InvalidArc, match="^duplicate arc 0->1$"):
            Digraph(3, [(0, 1), (1, 2), (0, 1), (1, 5)])
        with pytest.raises(InvalidArc, match="^arc -1->2 has an endpoint outside 0..2$"):
            Digraph(3, [(0, 1), (-1, 2)])
        # not every arc ascends: both ends of every arc are range-checked,
        # and a self-loop is named before the cycle that follows it
        with pytest.raises(InvalidArc, match="^self-loop 1->1$"):
            Digraph(3, [(2, 1), (1, 1), (1, 0), (0, 2)])
        with pytest.raises(InvalidArc, match="^arc 2->1 has an endpoint outside 0..1$"):
            Digraph(2, [(1, 0), (2, 1)])
        with pytest.raises(InvalidArc, match="^arc 1->-1 has an endpoint outside 0..2$"):
            Digraph(3, [(2, 1), (1, -1)])
        # an arc that is not a pair is a fault too, named in input order:
        # a bad arc before it is named first, and it fails to unpack when
        # it comes first
        with pytest.raises(InvalidArc, match="^arc 0->5 has an endpoint outside 0..2$"):
            Digraph(3, [(0, 5), (1, 2, 0)])
        with pytest.raises(ValueError, match="values to unpack"):
            Digraph(3, [(1, 2, 0), (0, 5)])

    def test_rows_do_not_depend_on_arc_order_at_scale(self):
        # a 20,000-vertex sparse DAG shaped like the benchmark's probe
        # inputs: up to three arcs from each u to heads within u + 40
        n, span = 20_000, 40
        rng = random.Random(2024)
        arcs = [
            (u, v)
            for u in range(n - 1)
            for v in sorted(rng.sample(range(u + 1, min(n, u + span + 1)), min(3, n - 1 - u)))
        ]
        shuffled = arcs[:]
        random.Random(7).shuffle(shuffled)
        d, desc, shuf = (Digraph(n, order) for order in (arcs, arcs[::-1], shuffled))
        assert d == desc == shuf
        # the same arcs as edge-list text, read in one pass into columns
        for order in (arcs, arcs[::-1], shuffled):
            text = f"{n} {len(order)}\n" + "".join(f"{u} {v}\n" for u, v in order)
            assert parse_edge_list(text) == d
        assert d.arcs == tuple(arcs) and d.topological_order == tuple(range(n))
        for e in (d, desc, shuf):
            assert all(list(row) == sorted(row) for row in e.out_adj + e.in_adj)
            assert sorted((u, v) for v, row in enumerate(e.in_adj) for u in row) == arcs

    def test_arcs_and_adjacency_sorted(self):
        d = Digraph(4, [(2, 3), (0, 3), (1, 2), (0, 1), (0, 2)])
        assert d.arcs == ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3))
        assert d.out_adj == ((1, 2, 3), (2,), (3,), ())
        assert d.in_adj == ((), (0,), (0, 1), (0, 2))

    def test_cycle_rejected(self):
        with pytest.raises(CycleDetected, match="^arc set contains a directed cycle$"):
            Digraph(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(CycleDetected, match="^arc set contains a directed cycle$"):
            Digraph(2, [(0, 1), (1, 0)])

    def test_one_kahn_pass_and_only_when_an_arc_descends(self, monkeypatch):
        calls = []
        kahn = Digraph._kahn

        def counted(self):
            calls.append(self.n)
            return kahn(self)

        monkeypatch.setattr(Digraph, "_kahn", counted)
        d = Digraph(4, [(1, 0), (2, 0), (3, 1), (3, 2)])
        assert calls == [4]
        assert d.topological_order == (3, 1, 2, 0)
        assert list(d.descendant_masks()) == [0b0001, 0b0011, 0b0101, 0b1111]
        assert list(d.ancestor_masks()) == [0b1111, 0b1010, 0b1100, 0b1000]
        assert calls == [4]
        e = gen_path(5)
        assert e.topological_order == (0, 1, 2, 3, 4)
        e.descendant_masks(), e.ancestor_masks()
        assert calls == [4]

    def test_topo_is_lexicographically_smallest(self):
        # both 0,1,2,3 and 0,2,1,3 are valid; the heap picks 1 before 2
        d = Digraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert d.topological_order == (0, 1, 2, 3)

    def test_acyclicity_matches_brute_force_cycle_search(self):
        # random arc sets, accepted iff the DFS colouring finds no cycle
        rng = random.Random(4242)
        for _ in range(300):
            n = rng.randint(1, 8)
            arcs = set()
            for _ in range(rng.randint(0, 2 * n)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    arcs.add((u, v))
            cyclic = oracles.oracle_has_cycle(n, arcs)
            try:
                Digraph(n, sorted(arcs))
                assert not cyclic
            except CycleDetected:
                assert cyclic

    def test_eq_and_hash_by_structure(self):
        assert p3() == Digraph(3, [(1, 2), (0, 1)])
        assert p3() == Digraph(3, [[1, 2], (0, 1)])  # list and tuple arcs sort together
        assert hash(p3()) == hash(Digraph(3, [(1, 2), (0, 1)]))
        assert p3() != gen_path(4)
        assert p3() != p3().out_adj and p3() != 3

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_arcs_eq_and_hash_derived_from_adjacency(self, data):
        # arcs given in any order; a digraph stores only its adjacency
        # lists, and arcs, arc_count, == and hash are read off them
        n = data.draw(st.integers(1, 7))
        order = data.draw(st.permutations(range(n)))
        pairs = [(order[a], order[b]) for a in range(n) for b in range(a + 1, n)]
        arc_sets = st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)).map(
            lambda keep: {pair for pair, k in zip(pairs, keep) if k}
        )
        first = data.draw(arc_sets)
        second = data.draw(st.one_of(st.just(first), arc_sets))
        m = data.draw(st.sampled_from([n, n + 1])) if first == second else n
        d = Digraph(n, data.draw(st.permutations(sorted(first))))
        e = Digraph(m, data.draw(st.permutations(sorted(second))))
        assert "arcs" not in Digraph.__slots__
        assert d.arcs == tuple(sorted(first)) and d.arc_count == len(first)
        assert (d == e) == (n == m and first == second)
        if d == e:
            assert hash(d) == hash(e)
        assert all(list(row) == sorted(row) for row in d.in_adj)
        assert sorted((u, v) for v, row in enumerate(d.in_adj) for u in row) == sorted(first)


class TestReachability:
    def test_path_closure(self):
        d = p3()
        assert reachable_from(d, VertexSet(3, [0])).members() == (0, 1, 2)
        assert reaching_to(d, VertexSet(3, [2])).members() == (0, 1, 2)
        assert reachable_from(d, VertexSet(3, [2])).members() == (2,)

    def test_dt1_hand_walk(self):
        # in the 5-vertex chain-fan digraph, z reaches only y'1 and x'1
        d, labels = gen_dt(1)
        z = VertexSet(d.n, [labels["z"]])
        got = reachable_from(d, z)
        assert set(got) == {labels["z"], labels["y'1"], labels["x'1"]}

    def test_universe_mismatch(self):
        with pytest.raises(InvalidParameter):
            reachable_from(p3(), VertexSet(4, [0]))

    def test_agrees_with_transitive_closure_on_random_dags(self):
        for seed in range(30):
            d = gen_random_connected_dag(1 + seed % 12, 0.35, 7000 + seed)
            desc = d.descendant_masks()
            anc = d.ancestor_masks()
            for v in range(d.n):
                closure = oracles.oracle_reachable(d, [v])
                assert set(reachable_from(d, VertexSet(d.n, [v]))) == closure
                assert desc[v] == sum(1 << w for w in closure)
                # reaching_to is reachable_from in the reversed digraph
                rev = Digraph(d.n, [(v2, u2) for u2, v2 in d.arcs])
                back = oracles.oracle_reachable(rev, [v])
                assert set(reaching_to(d, VertexSet(d.n, [v]))) == back
                assert anc[v] == sum(1 << w for w in back)

    @given(dags())
    @settings(deadline=None)
    def test_underlying_masks_match_oracle(self, d):
        und = oracles.und_neighbours(d)
        assert list(d.underlying_masks()) == [sum(1 << w for w in und[v]) for v in range(d.n)]

    @given(st.integers(0, 2**32 - 1), st.integers(2, 10))
    @settings(max_examples=40, deadline=None)
    def test_multi_seed_closure_is_union_of_singletons(self, seed, n):
        d = gen_random_connected_dag(n, 0.4, seed)
        rng = random.Random(seed)
        seeds = [v for v in range(n) if rng.random() < 0.5] or [0]
        union = set()
        for v in seeds:
            union |= set(reachable_from(d, VertexSet(n, [v])))
        assert set(reachable_from(d, VertexSet(n, seeds))) == union


class TestConnectivityAndEndpoints:
    def test_is_underlying_connected(self):
        d = Digraph(4, [(0, 1), (2, 3)])
        assert is_underlying_connected(d, VertexSet(4, [0, 1]))
        assert not is_underlying_connected(d, VertexSet(4, [1, 2]))
        assert not d.is_connected()
        with pytest.raises(EmptySet):
            is_underlying_connected(d, VertexSet(4))
        assert Digraph(0, []).is_connected() is False

    def test_sources_and_sinks(self):
        src, snk = sources_and_sinks(p3())
        assert src.members() == (0,)
        assert snk.members() == (2,)
        d, labels = gen_dt(4)
        src, snk = sources_and_sinks(d)
        assert src.members() == (labels["x1"],)
        assert snk.members() == (labels["x'4"],)

    def test_cut_vertex_path_interior(self):
        d = p3()
        assert is_cut_vertex(d, 1)
        assert not is_cut_vertex(d, 0)
        assert not is_cut_vertex(d, 2)

    def test_cut_vertex_errors(self):
        with pytest.raises(InvalidParameter):
            is_cut_vertex(p3(), 5)
        with pytest.raises(OrderTooSmall):
            is_cut_vertex(Digraph(1, []), 0)
        with pytest.raises(DisconnectedInput):
            is_cut_vertex(Digraph(4, [(0, 1), (2, 3)]), 0)

    def test_cut_vertex_matches_oracle(self, small_corpus):
        # zigzag paths, where every vertex is a source or a sink, and stars
        # around 0, the one vertex searched from vertex 1, which cuts them
        zigzags = [
            Digraph(n, [(i, i + 1) if i % 2 else (i + 1, i) for i in range(n - 1)]) for n in (2, 3, 8, 9)
        ]
        stars = [Digraph(4, [(1, 0), (0, 2), (3, 0)]), Digraph(3, [(0, 1), (0, 2)])]
        for d in [*small_corpus, *zigzags, *stars]:
            if d.n < 2:
                continue
            for v in range(d.n):
                assert is_cut_vertex(d, v) == oracles.oracle_is_cut(d, v)
        assert all(is_cut_vertex(d, 0) for d in stars)


class TestPackageExports:
    MODULES = ("core", "convexity", "enumeration", "families", "structure", "io", "errors")
    # imported by name by the CLI, not part of the package surface
    CLI_ONLY = ("BUDGET", "SizeBoundRow", "charge_setup")
    # helper shared between modules, not part of the package surface
    INTERNAL = CLI_ONLY + ("iter_bits",)

    def test_each_name_declared_in_one_module(self):
        owners = {}
        for name in self.MODULES:
            module = importlib.import_module(f"dagconvex.{name}")
            for public in module.__all__:
                owners.setdefault(public, []).append(module)
        assert len(set(dagconvex.__all__)) == len(dagconvex.__all__)
        assert set(dagconvex.__all__) == set(owners)
        for public in dagconvex.__all__:
            (module,) = owners[public]
            obj = getattr(module, public)
            assert getattr(dagconvex, public) is obj
            assert getattr(obj, "__module__", module.__name__) == module.__name__

    def test_no_public_definition_left_out(self):
        # a class or function dropped from its module's __all__ would
        # silently leave the package surface
        for name in self.MODULES:
            module = importlib.import_module(f"dagconvex.{name}")
            for public, obj in vars(module).items():
                if getattr(obj, "__module__", None) == module.__name__ and not public.startswith("_"):
                    assert public in module.__all__ or public in self.INTERNAL, public

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from dagconvex import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(dagconvex.__all__)

    def test_cli_only_names_not_exported(self):
        from dagconvex import enumeration

        for name in self.CLI_ONLY:
            assert hasattr(enumeration, name)
            assert name not in dagconvex.__all__ and not hasattr(dagconvex, name)


class TestLazyNamespace:
    # import dagconvex loads no submodule; the first name looked up loads
    # all seven.  Each check runs in a fresh interpreter, since this session
    # loaded every module long ago.
    MODULES = TestPackageExports.MODULES

    def check(self, body):
        script = f"import sys\nMODULES = {self.MODULES!r}\n" + textwrap.dedent(body)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_import_loads_no_submodule(self):
        self.check("""
            import dagconvex
            assert [m for m in sys.modules if m.startswith("dagconvex.")] == []
        """)

    def test_all_in_module_order(self):
        self.check("""
            import dagconvex
            names = dagconvex.__all__
            assert names == [n for m in MODULES for n in sys.modules[f"dagconvex.{m}"].__all__]
        """)

    def test_star_import_binds_each_module_object(self):
        self.check("""
            from dagconvex import *
            import dagconvex
            for m in MODULES:
                module = sys.modules[f"dagconvex.{m}"]
                for name in module.__all__:
                    assert globals()[name] is getattr(module, name), name
        """)

    def test_dir_lists_every_public_name(self):
        self.check("""
            import dagconvex
            listed = dir(dagconvex)
            assert set(dagconvex.__all__) <= set(listed)
            assert listed == sorted(vars(dagconvex))
        """)

    def test_unknown_attribute_raises_naming_it(self):
        # before the first load and after it
        self.check("""
            import dagconvex
            for _ in range(2):
                try:
                    dagconvex.no_such_name
                except AttributeError as exc:
                    assert "no_such_name" in str(exc), exc
                else:
                    raise AssertionError("no AttributeError")
            assert "dagconvex.core" in sys.modules
        """)

    def test_cli_import_loads_every_module(self):
        # perfbench/replay.py relies on this: its `from dagconvex import cli`
        # asks the package for `cli` first, which loads all seven modules, so
        # the tracer that lists sys.modules next finds and wraps them all
        self.check("""
            import dagconvex
            from dagconvex import cli
            assert all(f"dagconvex.{m}" in sys.modules for m in MODULES)
            assert cli.main and dagconvex.load_digraph
        """)
