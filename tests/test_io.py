import contextlib
import gc
import io

import pytest
from hypothesis import example, given, settings, strategies as st

from dagconvex import (
    MAX_ORDER,
    DagConvexError,
    Digraph,
    ParseError,
    digraph_to_edge_list,
    gen_gi,
    gen_path,
    gen_random_connected_dag,
    load_digraph,
    parse_dot,
    parse_edge_list,
    write_edge_list,
)
from dagconvex.cli import main
from dagconvex.io import _CHUNK, _meaningful_lines, _parse_edge_lines, _parse_usual_layout


class TestEdgeList:
    def test_render(self):
        d = Digraph(3, [(1, 2), (0, 1)])
        assert digraph_to_edge_list(d) == "3 2\n0 1\n1 2\n"
        assert digraph_to_edge_list(d, header=["family: path:3"]) == (
            "# family: path:3\n3 2\n0 1\n1 2\n"
        )

    def test_parse_ignores_comments_and_blanks(self):
        text = "# hello\n\n3 2\n0 1\n\n# mid\n1 2\n"
        assert parse_edge_list(text) == Digraph(3, [(0, 1), (1, 2)])

    def test_round_trip(self):
        for seed in range(10):
            d = gen_random_connected_dag(2 + seed, 0.4, seed)
            assert parse_edge_list(digraph_to_edge_list(d)) == d

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "# only comments\n",
            "3\n",
            "a b\n",
            "3 2\n0 1\n",  # promises 2 arcs, gives 1
            "3 1\n0 1\n1 2\n",  # promises 1 arc, gives 2
            "3 1\n0 x\n",
            "3 1\n0 -1\n",
            "3 1\n0 \u00b2\n",  # a digit that int() does not read
            "2 1\n0 3\n",  # endpoint out of range
            "2 2\n0 1\n0 1\n",  # duplicate
            "2 2\n0 1\n1 0\n",  # cycle
        ],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ParseError):
            parse_edge_list(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# c\n\n3\n", "line 3: expected header 'n m', got '3'"),
            ("3 2\n0 1\n", "header promises 2 arcs but 1 lines follow"),
            ("3 2\n0 1\n# c\n1 x\n", "line 4: expected arc 'u v', got '1 x'"),
            ("3 1\n0 1 2\n", "line 2: expected arc 'u v', got '0 1 2'"),
            ("3 3\n0 1\n0 1\n0 7\n", "invalid digraph: duplicate arc 0->1"),
            ("# c\n0 0\n", "input declares no vertices"),  # as in DOT; Digraph(0, []) is valid
        ],
    )
    def test_parse_messages(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_edge_list(text)
        assert str(info.value) == message

    def test_order_limit(self):
        assert parse_edge_list(f"{MAX_ORDER} 1\n0 {MAX_ORDER - 1}\n").n == MAX_ORDER
        with pytest.raises(ParseError, match="exceeds the parser limit"):
            parse_edge_list(f"{MAX_ORDER + 1} 0\n")
        with pytest.raises(ParseError, match="exceeds the parser limit"):
            parse_dot(f"digraph {{ 0 -> {MAX_ORDER}; }}")


class TestDot:
    def test_basic(self):
        d = parse_dot("digraph { 0 -> 1; 1 -> 2; }")
        assert d == Digraph(3, [(0, 1), (1, 2)])

    def test_named_and_multiline(self):
        d = parse_dot("digraph g {\n  0 -> 2\n  1 -> 2\n  3\n}")
        assert d.n == 4
        assert d.arcs == ((0, 2), (1, 2))

    def test_isolated_vertex_only(self):
        assert parse_dot("digraph { 0; }").n == 1

    @pytest.mark.parametrize(
        "text",
        [
            "graph { 0 -- 1; }",
            "digraph { }",
            "digraph { a -> b; }",
            "digraph { 0 -> 1",
            "digraph { 0 -> 1; 1 -> 0; }",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_dot(text)


class TestLoad:
    def test_sniffs_both_formats(self, tmp_path):
        d, _ = gen_gi(2)
        edge = tmp_path / "g.txt"
        write_edge_list(d, edge, header=["anything"])
        assert load_digraph(edge) == d
        dot = tmp_path / "g.dot"
        dot.write_text("digraph { 0 -> 1; 1 -> 2; }")
        assert load_digraph(dot) == Digraph(3, [(0, 1), (1, 2)])

    @pytest.mark.parametrize(
        "text",
        [
            "# made by hand\ndigraph { 0 -> 1; 1 -> 2; }\n",
            "digraph {\n  0 -> 1;\n  # comment\n  1 -> 2;\n}\n",
        ],
    )
    def test_dot_comment_lines(self, tmp_path, text):
        # Graphviz discards lines that begin with '#', as the edge-list
        # parser does
        dot = tmp_path / "g.dot"
        dot.write_text(text)
        assert load_digraph(dot) == Digraph(3, [(0, 1), (1, 2)])

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_digraph(tmp_path / "nope.txt")

    def test_non_ascii_file(self, tmp_path):
        target = tmp_path / "accent.txt"
        target.write_bytes("3 1\n0 1é\n".encode("utf-8"))
        with pytest.raises(ParseError, match="cannot read"):
            load_digraph(target)

    def test_line_parser_reached_by_tabs_not_by_crlf(self, tmp_path, monkeypatch):
        # reading turns CRLF into LF, so a CRLF file is read in one pass; a
        # tab between the numbers sends the file to the line parser
        calls = []

        def counted(lines):
            calls.append(len(lines))
            return _parse_edge_lines(lines)

        monkeypatch.setattr("dagconvex.io._parse_edge_lines", counted)
        d, _ = gen_gi(2)
        text = digraph_to_edge_list(d, header=["made by gen"])
        crlf, tab = tmp_path / "crlf.txt", tmp_path / "tab.txt"
        crlf.write_bytes(text.replace("\n", "\r\n").encode("ascii"))
        tab.write_text(text.replace(" ", "\t"))
        assert load_digraph(crlf) == d and calls == []
        assert load_digraph(tab) == d and calls == [1 + d.arc_count]

    def test_collector_restored(self, tmp_path):
        # loading leaves the cyclic collector as it found it, on or off,
        # also when the input is rejected, and freezes nothing (only cli.run,
        # the entry of a process that ends after one command, switches the
        # collector off and freezes the heap)
        good = tmp_path / "g.txt"
        good.write_text("2 1\n0 1\n")
        bad = tmp_path / "b.txt"
        bad.write_text("2 1\n0 x\n")
        frozen = gc.get_freeze_count()
        assert load_digraph(good).n == 2
        with pytest.raises(ParseError):
            load_digraph(bad)
        assert gc.isenabled()
        gc.disable()
        try:
            assert load_digraph(good).n == 2
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert gc.get_freeze_count() == frozen


@st.composite
def dags(draw):
    """A DAG on up to 12 vertices whose topological order is a random
    permutation of the labels, so arcs need not ascend."""
    n = draw(st.integers(1, 12))
    order = draw(st.permutations(range(n)))
    pairs = [(order[a], order[b]) for a in range(n) for b in range(a + 1, n)]
    return Digraph(n, [pair for pair in pairs if draw(st.booleans())])


class TestFuzz:
    @given(dags())
    @settings(deadline=None)
    def test_edge_list_round_trip(self, d):
        assert parse_edge_list(digraph_to_edge_list(d)) == d

    @given(dags(), st.sampled_from(["; ", "\n", ";\n  "]), st.sampled_from(["digraph", "digraph g"]))
    @settings(deadline=None)
    def test_dot_round_trip(self, d, sep, head):
        statements = [str(v) for v in range(d.n)] + [f"{u} -> {v}" for u, v in d.arcs]
        assert parse_dot(f"{head} {{ {sep.join(statements)} }}") == d

    @given(
        st.one_of(
            st.text(),
            st.text(alphabet="0123456789 \n\t#;{}->digraph\u00b2"),
            st.binary().map(lambda raw: raw.decode("latin-1")),
        )
    )
    # labels past the interpreter's 4,300-digit limit on int(str)
    @example("3 1\n0 " + "9" * 5000 + "\n")
    @example("9" * 5000 + " 0\n")
    @example("digraph { 0 -> " + "9" * 5000 + "; }")
    @settings(deadline=None)
    def test_cli_on_arbitrary_file(self, tmp_path_factory, text):
        # whatever the file holds, the CLI answers with an exit code and at
        # most a one-line message, never a traceback
        target = tmp_path_factory.mktemp("fuzz") / "input.txt"
        target.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check-convex", str(target), "--set", "0"])
        assert code in (0, 1, 2)
        if code == 2:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        else:
            assert err.getvalue() == "" and out.getvalue() == "convex: true\n"


def _line_parser(text):
    return _parse_edge_lines(_meaningful_lines(text))


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


# Each rewrite replaces the line at a drawn index of text.split("\n"),
# whose last entry is the empty string after the final newline.
_REWRITES = {
    "crlf": lambda line: line + "\r",
    "hash and cr": lambda line: "#\r" + line,
    "tab": lambda line: line.replace(" ", "\t", 1),
    "double space": lambda line: line.replace(" ", "  ", 1),
    "trailing space": lambda line: line + " ",
    "blank line before": lambda line: "\n" + line,
    "comment line before": lambda line: "# between\n" + line,
    "emptied": lambda line: "",
    "repeated": lambda line: line + "\n" + line,
    "split in two": lambda line: line.replace(" ", " \n ", 1),
    "one token": lambda line: line.partition(" ")[0],
    "three tokens": lambda line: line + " 1",
    "leading zeros": lambda line: "00" + line,
    "plus sign": lambda line: "+" + line,
    "superscript two": lambda line: line + "\u00b2",
    "arabic-indic three": lambda line: line[:-1] + "\u0663",
}


class TestOnePass:
    """The one-pass reader of the usual layout against the line parser."""

    @given(
        dags(),
        st.booleans(),
        st.lists(st.tuples(st.sampled_from(sorted(_REWRITES)), st.integers(0, 1 << 16)), max_size=3),
        st.booleans(),
    )
    # a CR ends a line for the line parser, so "#\r3 2" is no header comment
    @example(Digraph(3, [(0, 1), (1, 2)]), True, [("hash and cr", 1)], True)
    # "1 \n 2" keeps one space per line and two numbers per line on average
    @example(Digraph(3, [(0, 1), (1, 2)]), False, [("split in two", 2)], True)
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_line_parser(self, d, commented, rewrites, final_newline):
        text = digraph_to_edge_list(d, header=["made by gen"] if commented else None)
        for kind, at in rewrites:
            lines = text.split("\n")
            lines[at % len(lines)] = _REWRITES[kind](lines[at % len(lines)])
            text = "\n".join(lines)
        if not final_newline:
            text = text.rstrip("\n")
        elif not rewrites:
            assert _parse_usual_layout(text) is not None
        assert _outcome(parse_edge_list, text) == _outcome(_line_parser, text)

    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.tuples(st.just(n), st.lists(st.tuples(st.integers(0, n), st.integers(0, n)), max_size=16))
        )
    )
    # a duplicate after a cycle, a cycle alone, an endpoint past the order
    @example((3, [(1, 2), (2, 0), (0, 1), (1, 2)]))
    @example((3, [(2, 1), (1, 0), (0, 2)]))
    @example((3, [(0, 1), (1, 3)]))
    @settings(max_examples=300, deadline=None)
    def test_arc_lists_in_any_order(self, case):
        # arcs in any order, with duplicates, self-loops, endpoints past the
        # order and cycles: the columns name the fault the constructor names
        n, arcs = case
        text = f"{n} {len(arcs)}\n" + "".join(f"{u} {v}\n" for u, v in arcs)
        try:
            expected = Digraph(n, arcs)
        except DagConvexError as exc:
            expected = f"invalid digraph: {exc}"
        assert _outcome(_parse_usual_layout, text) == _outcome(parse_edge_list, text) == expected
        assert _outcome(_line_parser, text) == expected

    @given(dags())
    @settings(deadline=None)
    def test_topological_order_is_lexicographically_smallest(self, d):
        # the smallest vertex whose in-neighbours are all placed comes next
        d = parse_edge_list(digraph_to_edge_list(d))
        placed: list[int] = []
        while len(placed) < d.n:
            placed.append(min(v for v in range(d.n) if v not in placed and set(d.in_adj[v]) <= set(placed)))
        assert d.topological_order == tuple(placed)

    @given(dags(), st.data())
    @settings(deadline=None)
    def test_cycle_named(self, d, data):
        # an arc back from a descendant closes a directed cycle
        desc = d.descendant_masks()
        pairs = [(u, v) for u in range(d.n) for v in range(d.n) if u != v and desc[u] >> v & 1]
        if not pairs:
            return
        u, v = data.draw(st.sampled_from(pairs))
        arcs = [*d.arcs, (v, u)]
        text = f"{d.n} {len(arcs)}\n" + "".join(f"{a} {b}\n" for a, b in arcs)
        for parse in (_parse_usual_layout, parse_edge_list):
            with pytest.raises(ParseError) as info:
                parse(text)
            assert str(info.value) == "invalid digraph: arc set contains a directed cycle"


class TestChunks:
    """The one-pass reader turns the body into ints in line-aligned chunks
    of about ``_CHUNK`` characters; a line may end at a chunk's boundary
    or straddle it, and a fault in a later chunk is named as before."""

    N = 20_000  # a path whose body runs to about four chunks

    def test_lines_at_and_across_the_boundary(self):
        d = gen_path(self.N)
        body = digraph_to_edge_list(d)
        assert len(body) > 3 * _CHUNK
        at_boundary = set()
        for pad in range(12):  # leading zeros on the header shift every line
            text = "0" * pad + body
            at_boundary.add(text[_CHUNK - 1] == "\n")
            assert _parse_usual_layout(text) == _line_parser(text) == d
        assert at_boundary == {True, False}  # one line ends there, others straddle it

    @pytest.mark.parametrize(
        "last, message",
        [
            ("0 1", "invalid digraph: duplicate arc 0->1"),
            (f"{N - 1} {N}", f"invalid digraph: arc {N - 1}->{N} has an endpoint outside 0..{N - 1}"),
            ("0 " + "9" * 5000, f"line {N}: number of 5000 digits is too long"),
        ],
    )
    def test_fault_in_a_later_chunk(self, tmp_path, last, message):
        # the last arc line, chunks away from the header, is replaced
        lines = digraph_to_edge_list(gen_path(self.N)).splitlines()
        target = tmp_path / "faulty.txt"
        target.write_text("\n".join(lines[:-1] + [last]) + "\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check-convex", str(target), "--set", "0"])
        assert (code, out.getvalue(), err.getvalue()) == (2, "", f"error: {message}\n")
