import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dagconvex import (
    CONNECTED_CONVEX,
    CONVEX,
    Digraph,
    EnumerationReport,
    SizeBoundTable,
    digraph_to_edge_list,
    enumerate_cc_extension,
    gen_dt,
    gen_path,
    gen_random_connected_dag,
    report_from_json,
    report_to_json,
)
from dagconvex import cli
from dagconvex.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[case["argv"] for case in GOLDEN])
def test_golden_bytes(capsys, case):
    # exact stdout, stderr and exit code, so that a change to a separator,
    # a key order or a message cannot pass unnoticed
    assert run(capsys, *case["argv"].split()) == (case["exit"], case["stdout"], case["stderr"])


class TestGen:
    def test_stdout(self, capsys):
        code, out, _ = run(capsys, "gen", "path", "3")
        assert code == 0
        assert out == "# family: path:3\n3 2\n0 1\n1 2\n"

    def test_to_file_and_load(self, capsys, tmp_path):
        target = tmp_path / "d4.txt"
        code, out, _ = run(capsys, "gen", "dt", "4", "-o", str(target))
        assert code == 0 and out == ""
        text = target.read_text()
        assert text.startswith("# family: dt:4\n13 14\n")

    def test_rand_defaults_and_flags(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        assert run(capsys, "gen", "rand", "8", "-p", "0.3", "--seed", "42", "-o", str(a))[0] == 0
        assert run(capsys, "gen", "rand", "8", "-p", "0.3", "--seed", "42", "-o", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        code, out, _ = run(capsys, "gen", "rand", "3")
        assert code == 0 and out.startswith("# family: rand:3:0.5:0\n")

    def test_seed_on_wrong_family(self, capsys):
        code, _, err = run(capsys, "gen", "dt", "3", "--seed", "5")
        assert code == 2
        assert "rand" in err

    def test_bad_param(self, capsys):
        code, _, err = run(capsys, "gen", "dt", "0")
        assert code == 2 and "error:" in err


class TestStats:
    def test_human_both(self, capsys):
        code, out, _ = run(capsys, "stats", "--family", "gi:2")
        assert code == 0
        assert "class: convex" in out and "class: connected-convex" in out
        assert "count: 34" in out and "count: 25" in out
        assert "average: 46/17 (2.705882)" in out

    def test_json_single_round_trips(self, capsys):
        code, out, _ = run(capsys, "stats", "--family", "path:3", "--class", "cc", "--json")
        assert code == 0
        line = out.strip()
        rep = report_from_json(line)
        assert report_to_json(rep) == line
        assert rep.count == 6

    def test_json_both_is_array(self, capsys):
        code, out, _ = run(capsys, "stats", "--family", "path:3", "--json")
        assert code == 0
        objs = json.loads(out)
        assert [o["class"] for o in objs] == ["convex", "connected-convex"]

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "stats", "--family", "path:5", "--class", "cc", "--csv")
        assert code == 0
        assert out.splitlines()[0] == "k,count,bound,pass"
        assert out.splitlines()[1] == "1,5,5,true"

    def test_file_input(self, capsys, tmp_path):
        target = tmp_path / "p4.txt"
        run(capsys, "gen", "path", "4", "-o", str(target))
        code, out, _ = run(capsys, "stats", str(target), "--class", "cc")
        assert code == 0 and "count: 10" in out

    def test_input_xor_family(self, capsys, tmp_path):
        target = tmp_path / "x.txt"
        run(capsys, "gen", "path", "3", "-o", str(target))
        code, _, err = run(capsys, "stats", str(target), "--family", "path:3")
        assert code == 2 and "exactly one input" in err
        code, _, err = run(capsys, "stats")
        assert code == 2 and "exactly one input" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "stats", "/nonexistent/g.txt")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("fmt", [[], ["--json"], ["--csv"]])
    def test_order_zero_file(self, capsys, tmp_path, fmt):
        target = tmp_path / "empty.txt"
        target.write_text("0 0\n")
        assert run(capsys, "stats", str(target), *fmt) == (
            2, "", "error: input declares no vertices\n"
        )

    def test_budget_refusal_and_override(self, capsys):
        # dt:25 has n = 61 but only 5,511 convex sets and at most 5 frontier
        # states: 716 steps
        code, out, err = run(capsys, "stats", "--family", "dt:25", "--class", "co")
        assert (code, err) == (0, "")
        assert "n: 61\ncount: 5511\n" in out
        code, out, err = run(capsys, "stats", "--family", "dt:25", "--class", "co", "--budget", "500")
        assert (code, out) == (2, "")
        assert err == (
            "error: frontier count spent the work budget of 500 steps; raise it with --budget\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["stats", "--family", "dt:4", "--budget", "0"],
            ["verify", "--family", "dt:4", "--budget", "0"],
            ["trend", "dt", "--params", "2", "--budget", "0"],
            ["trend", "gi", "--params", "2", "--budget", "0"],
        ],
    )
    def test_budget_zero_refused(self, capsys, argv):
        # refused alike by every command that takes --budget, even by
        # trend gi, which counts by a closed form and spends none
        assert run(capsys, *argv) == (2, "", "error: budget must be >= 1, got 0\n")

    def test_raised_budget_is_silent(self, capsys):
        default = run(capsys, "stats", "--family", "dt:4", "--class", "co")
        assert run(capsys, "stats", "--family", "dt:4", "--class", "co", "--budget", "99999999") == default
        assert default[0] == 0 and default[2] == ""

    def test_out_of_memory(self, capsys, monkeypatch):
        def exhaust(d, *, budget):
            raise MemoryError

        monkeypatch.setitem(cli._COUNTERS, CONVEX, exhaust)
        assert run(capsys, "stats", "--family", "dt:4", "--class", "co") == (2, "", "error: out of memory\n")

    def test_disconnected_file_still_counts(self, capsys, tmp_path):
        target = tmp_path / "split.txt"
        target.write_text("2 0\n")
        code, out, _ = run(capsys, "stats", str(target), "--class", "cc")
        assert code == 0 and "count: 2" in out

    def test_disconnected_beyond_brute_cap(self, capsys, tmp_path):
        # 31 vertices in two components: connected convex sets are counted
        # per component
        a = gen_random_connected_dag(18, 0.3, 5)
        b, _ = gen_dt(4)
        shift = [(a.n + u, a.n + v) for u, v in b.arcs]
        target = tmp_path / "split.txt"
        target.write_text(digraph_to_edge_list(Digraph(a.n + b.n, [*a.arcs, *shift])))
        want = [0] * (a.n + b.n)
        for part in (a, b):
            for k, c in enumerate(enumerate_cc_extension(part)[1].histogram):
                want[k] += c
        code, out, err = run(capsys, "stats", str(target), "--class", "cc")
        assert code == 0 and err == ""
        assert f"histogram: {' '.join(map(str, want))}\n" in out
        assert f"count: {sum(want)}\n" in out


class TestVerify:
    def test_dt4_all_checks(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "dt:4")
        assert code == 0
        assert "check size-lower-bound: pass" in out
        assert "check non-cut-endpoints: pass (0 12)" in out
        assert "check dt-inner-count: pass (16 vs 2^4 = 16)" in out
        assert out.rstrip().endswith("result: pass")

    @pytest.mark.parametrize("t, r", [(1, 1), (2, 2), (5, 3), (10, 4), (17, 5)])
    def test_dt_inner_count_at_each_width(self, capsys, t, r):
        # r = ceil(sqrt(t)); the middle layers hold 4^r connected convex
        # sets through z, the centre of their 2r + 1 labels
        code, out, _ = run(capsys, "verify", "--family", f"dt:{t}")
        assert code == 0
        lines = out.splitlines()
        assert f"check dt-inner-count: pass ({4**r} vs 2^{2 * r} = {4**r})" in lines
        assert lines[-1] == "result: pass"

    def test_path10(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "path:10")
        assert code == 0 and "result: pass" in out

    def test_random(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "rand:10:0.3:7")
        assert code == 0 and "result: pass" in out

    def test_single_vertex_skips_endpoints(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "path:1")
        assert code == 0 and "skipped" in out

    def test_disconnected_rejected(self, capsys, tmp_path):
        target = tmp_path / "split.txt"
        target.write_text("4 2\n0 1\n2 3\n")
        code, _, err = run(capsys, "verify", str(target))
        assert code == 2 and "error:" in err

    def test_failures_reported(self, capsys, monkeypatch):
        # the paper's claims hold on every input, so the FAIL path is
        # reached only through a patched check; one set of size 1 is below
        # the bound n - k + 1 = 2
        failing = SizeBoundTable(EnumerationReport(CONNECTED_CONVEX, (1, 1)))
        monkeypatch.setattr(cli, "verify_size_lower_bound", lambda d, budget: failing)
        code, out, err = run(capsys, "verify", "--family", "path:3")
        assert code == 1
        assert out == (
            "check size-lower-bound: FAIL\n"
            "check non-cut-endpoints: pass (0 2)\n"
            "result: FAIL\n"
        )
        assert err == (
            "k,count,bound,pass\n1,1,2,false\n2,1,1,true\n"
            "# failing instance\n3 2\n0 1\n1 2\n"
        )
        monkeypatch.undo()
        monkeypatch.setattr(cli, "find_non_cut_endpoints", lambda d: [0])
        code, out, _ = run(capsys, "verify", "--family", "path:3")
        assert code == 1
        assert "check size-lower-bound: pass\ncheck non-cut-endpoints: FAIL (0)\n" in out
        assert out.endswith("result: FAIL\n")


# family specs too large for the command's default work budget or for the
# generators' own limits
OVER_CAP = [
    (
        ["stats", "--family", "dt:1000000", "--class", "cc"],
        "error: connected search set-up on n = 2002001 needs 5871105475 steps, "
        "over the work budget of 1048576; raise it with --budget\n",
    ),
    (
        ["stats", "--family", "path:3000000", "--class", "cc"],
        "error: connected search set-up on n = 3000000 needs 13183593750 steps, "
        "over the work budget of 1048576; raise it with --budget\n",
    ),
    (
        ["stats", "--family", "rand:20000:0.1:1", "--class", "cc"],
        "error: rand order 20000 with p = 0.1 expects 19999000 arcs, over the limit of 1000000\n",
    ),
    (
        ["stats", "--family", "path:3000000", "--class", "co"],
        "error: frontier count set-up on n = 3000000 needs 303222750000 steps, "
        "over the work budget of 1048576; raise it with --budget\n",
    ),
    (
        ["verify", "--family", "path:20000000"],
        "error: connected search set-up on n = 20000000 needs 585937500000 steps, "
        "over the work budget of 1048576; raise it with --budget\n",
    ),
    (
        ["trend", "dt", "--params", "1000000"],
        "error: frontier count set-up on n = 2002001 needs 135035488479 steps, "
        "over the work budget of 1048576; raise it with --budget\n",
    ),
    (
        ["gen", "path", "3000000"],
        "error: order 3000000 exceeds the limit of 100000 vertices that the parsers read\n",
    ),
    (
        ["gen", "dt", "1000000"],
        "error: order 2002001 exceeds the limit of 100000 vertices that the parsers read\n",
    ),
    (
        ["gen", "rand", "3500", "-p", "1", "--seed", "1"],
        "error: rand order 3500 with p = 1.0 expects 6123250 arcs, over the limit of 1000000\n",
    ),
    (
        ["gen", "rand", "50000", "-p", "0.0001", "--seed", "1"],
        "error: rand order 50000 exceeds the limit of 20000 vertices\n",
    ),
    (
        ["trend", "gi", "--params", "8000"],
        "error: gi parameter 8000 too large: 4^i + 2*3^i has over 4300 digits\n",
    ),
    (
        ["trend", "gi", "--params", "8000", "--json"],
        "error: gi parameter 8000 too large: 4^i + 2*3^i has over 4300 digits\n",
    ),
]


def run_in_1_gib(argv):
    """Exit code, stdout, stderr and wall seconds of the CLI run in a fresh
    interpreter under a 1 GiB address-space limit, which keeps a regression
    from eating the machine's memory."""

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "dagconvex", *argv],
        capture_output=True,
        text=True,
        timeout=30,
        preexec_fn=limit_memory,
    )
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


class TestSetCommands:
    @pytest.fixture()
    def p3_file(self, tmp_path, capsys):
        target = tmp_path / "p3.txt"
        main(["gen", "path", "3", "-o", str(target)])
        capsys.readouterr()
        return str(target)

    def test_check_convex_false(self, capsys, p3_file):
        code, out, _ = run(capsys, "check-convex", p3_file, "--set", "0,2")
        assert code == 1
        assert out == "convex: false\nwitness: 0 -> 1 -> 2\n"

    def test_check_convex_true(self, capsys, p3_file):
        code, out, _ = run(capsys, "check-convex", p3_file, "--set", "0,1")
        assert code == 0 and out == "convex: true\n"

    def test_check_convex_bad_set(self, capsys, p3_file):
        assert run(capsys, "check-convex", p3_file, "--set", "0,9")[0] == 2
        assert run(capsys, "check-convex", p3_file, "--set", "a,b")[0] == 2

    def test_hull(self, capsys, p3_file):
        code, out, _ = run(capsys, "hull", p3_file, "--set", "0,2")
        assert code == 0
        assert out == "hull: 0 1 2\nadded: 1\n"

    def test_hull_already_convex(self, capsys, p3_file):
        code, out, _ = run(capsys, "hull", p3_file, "--set", "1,2")
        assert code == 0 and out == "hull: 1 2\nadded: -\n"

    def test_order_over_parser_limit(self, tmp_path):
        # a 10-byte header asking for two million vertices is refused with
        # one line before any per-vertex work
        target = tmp_path / "big.txt"
        target.write_text("2000000 0")
        code, out, err, seconds = run_in_1_gib(["check-convex", str(target), "--set", "0"])
        assert seconds < 5
        assert (code, out) == (2, "")
        assert err == "error: order 2000000 exceeds the parser limit of 100000 vertices\n"

    @pytest.mark.parametrize("argv, err", OVER_CAP, ids=[" ".join(argv) for argv, _ in OVER_CAP])
    def test_family_over_cap_refused_before_build(self, argv, err):
        # the set-up a family's order needs is charged before the digraph
        # is built, so even orders that would not fit in memory cost nothing
        code, out, got_err, seconds = run_in_1_gib(argv)
        assert seconds < 5
        assert (code, out, got_err) == (2, "", err)

    def test_scan_beyond_one_chunk_in_small_memory(self):
        # on a path the frontier count holds at most 3 states at a time
        argv = ["stats", "--family", "path:45", "--class", "co"]
        code, out, err, seconds = run_in_1_gib(argv)
        assert seconds < 5
        assert (code, err) == (0, "")
        assert out == (
            "class: convex\nn: 45\ncount: 1035\nsum: 16215\naverage: 47/3 (15.666667)\n"
            f"histogram: {' '.join(str(45 - k) for k in range(45))}\n"
        )

    def test_scan_beyond_63_vertices(self):
        # the frontier count runs on Python ints of any width, so the budget
        # is its only limit; path:64 has n - k + 1 convex sets of each size k
        argv = ["stats", "--family", "path:64", "--class", "co"]
        code, out, err, seconds = run_in_1_gib(argv)
        assert seconds < 5
        assert (code, err) == (0, "")
        assert "count: 2080\n" in out
        assert f"histogram: {' '.join(str(64 - k) for k in range(64))}\n" in out

    def test_star_over_budget_in_small_memory(self, tmp_path):
        # the 40-vertex star 0 -> 1..39 has 2**39 + 39 connected convex
        # sets; the search spends its budget in about a second
        target = tmp_path / "star40.txt"
        target.write_text("40 39\n" + "".join(f"0 {v}\n" for v in range(1, 40)))
        code, out, err, seconds = run_in_1_gib(["stats", str(target), "--class", "cc"])
        assert seconds < 5
        assert (code, out) == (2, "")
        assert err == (
            "error: connected search spent the work budget of 1048576 steps; raise it with --budget\n"
        )

    def test_frontier_states_over_budget_in_small_memory(self):
        # the frontier states of rand:100:0.05:1 keep growing, to 63,483
        # before its 27th vertex, where the budget runs out
        argv = ["stats", "--family", "rand:100:0.05:1", "--class", "co"]
        code, out, err, seconds = run_in_1_gib(argv)
        assert seconds < 5
        assert (code, out) == (2, "")
        assert err == (
            "error: frontier count spent the work budget of 1048576 steps; raise it with --budget\n"
        )

    def test_long_path_over_budget_in_small_memory(self, tmp_path):
        # a search node at n = 20,000 works on 2,500-byte masks, so the
        # steps left after set-up count 20 times over
        target = tmp_path / "path20000.txt"
        target.write_text(digraph_to_edge_list(gen_path(20000)))
        code, out, err, seconds = run_in_1_gib(["stats", str(target), "--class", "cc"])
        assert seconds < 5
        assert (code, out) == (2, "")
        assert err == (
            "error: connected search spent the work budget of 1048576 steps; raise it with --budget\n"
        )

    def test_queries_do_not_import_numpy(self, p3_file):
        script = (
            "import sys\n"
            "from dagconvex.cli import main\n"
            f"assert main(['check-convex', {p3_file!r}, '--set', '0,2']) == 1\n"
            f"assert main(['hull', {p3_file!r}, '--set', '0,2']) == 0\n"
            "print('numpy' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith("\nFalse\n")


class TestStartup:
    # every CLI job is a fresh interpreter, so what it imports is part of
    # its wall time: dataclasses (which imports inspect, ast, dis and
    # tokenize) stays off every path, and json off all but --json output
    def test_commands_leave_out_dataclasses_inspect_and_json(self, tmp_path):
        p3, split = tmp_path / "p3.txt", tmp_path / "split.txt"
        p3.write_text(digraph_to_edge_list(gen_path(3)))
        split.write_text("6 4\n0 1\n1 2\n3 4\n4 5\n")
        jobs = [
            (["stats", "--class", "co", "--family", "rand:22:0.119:3195485255"], 0),
            (["stats", str(split), "--class", "cc"], 0),
            (["verify", "--family", "dt:4"], 0),
            (["hull", str(p3), "--set", "0,2"], 0),
            (["check-convex", str(p3), "--set", "0,2"], 1),
        ]
        show = "print(*sorted(sys.modules), file=sys.stderr)\n"
        script = (
            "import sys\n"
            "from dagconvex.cli import main\n"
            f"for argv, code in {jobs!r}:\n"
            "    assert main(argv) == code, argv\n"
            f"{show}"
            f"assert main(['stats', {str(split)!r}, '--json']) == 0\n"
            f"{show}"
        )
        bare = subprocess.run([sys.executable, "-c", "import sys\n" + show], capture_output=True, text=True)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        preloaded = set(bare.stderr.split())
        after_jobs, after_json = (set(line.split()) - preloaded for line in proc.stderr.splitlines())
        heavy = {"dataclasses", "inspect", "json"}
        assert "dagconvex.cli" in after_jobs
        assert not after_jobs & heavy
        assert after_json & heavy == {"json"} - preloaded


class TestTrend:
    def test_gi_table(self, capsys):
        code, out, _ = run(capsys, "trend", "gi", "--params", "1,2,3,4,5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["param", "n", "co", "cc", "cc/co"]
        ratios = [line.split()[-1] for line in lines[1:]]
        assert ratios[0] == "1.000000" and ratios[1] == "0.735294"
        assert ratios == sorted(ratios, reverse=True)

    def test_dt_csv(self, capsys):
        code, out, _ = run(capsys, "trend", "dt", "--params", "1,4", "--csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "param,n,class,count,sum,average,average_per_sqrt_n"
        assert lines[1].startswith("1,5,convex,15,35,2.333333,")
        assert len(lines) == 5

    def test_dt_json(self, capsys):
        code, out, _ = run(capsys, "trend", "dt", "--params", "4", "--json")
        assert code == 0
        rows = json.loads(out)
        cc_row = [r for r in rows if r["class"] == "connected-convex"][0]
        assert cc_row["count"] == 112
        assert cc_row["average_num"] == 69  # 552/112 reduced
        assert cc_row["average"] == "4.928571"

    def test_dt_counts_both_classes_at_default_budget(self, capsys):
        # dt:10 has n = 29; its order alone refuses nothing
        code, out, err = run(capsys, "trend", "dt", "--params", "10")
        assert (code, err) == (0, "")
        assert [row.split()[2] for row in out.splitlines()[1:]] == ["convex", "connected-convex"]

    def test_dt_over_budget_prints_no_rows(self, capsys):
        code, out, err = run(capsys, "trend", "dt", "--params", "1,10", "--budget", "100")
        assert (code, out) == (2, "")
        assert err == "error: frontier count spent the work budget of 100 steps; raise it with --budget\n"

    def test_bad_params(self, capsys):
        assert run(capsys, "trend", "gi", "--params", "1,x")[0] == 2
        assert run(capsys, "trend", "gi", "--params", "0")[0] == 2
        # gi spends no budget, but a bad one is still refused
        assert run(capsys, "trend", "gi", "--params", "2", "--budget", "0") == (
            2, "", "error: budget must be >= 1, got 0\n"
        )

    @pytest.mark.parametrize("argv", ["trend dt --params 0", "trend gi --params 0", "gen dt 0"])
    def test_parameter_below_1_refused_as_by_gen(self, capsys, argv):
        assert run(capsys, *argv.split()) == (2, "", "error: family parameter must be >= 1, got 0\n")

    def test_gi_largest_printable_count(self, capsys):
        # 4^7142 + 2*3^7142 has 4300 digits, the most str() renders
        code, out, _ = run(capsys, "trend", "gi", "--params", "7142", "--json")
        assert code == 0 and len(str(json.loads(out)[0]["co"])) == 4300
        code, out, err = run(capsys, "trend", "gi", "--params", "1,7143")
        assert (code, out) == (2, "")
        assert err == "error: gi parameter 7143 too large: 4^i + 2*3^i has over 4300 digits\n"

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["trend", "gi"])  # --params required
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["stats", "trend"])
    def test_json_and_csv_exclude_each_other(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--json", "--csv"])
        assert exc.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last == f"dagconvex {command}: error: argument --csv: not allowed with argument --json"


class TestIntDigitLimit:
    """An answer over Python's limit on the digits of a printed int exits 2
    with one line, in an interpreter started with a limit of 640."""

    LINE = "error: an answer has over 640 digits; raise -X int_max_str_digits\n"

    def run_at_640(self, *argv):
        proc = subprocess.run(
            [sys.executable, "-X", "int_max_str_digits=640", "-m", "dagconvex", *argv],
            capture_output=True,
            text=True,
            timeout=60,
        )
        return proc.returncode, proc.stdout, proc.stderr

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_stats_on_the_2201_vertex_out_star(self, tmp_path, fmt):
        # co = 2^2201 - 1 has 663 digits
        star = tmp_path / "star2201.txt"
        star.write_text("2201 2200\n" + "".join(f"0 {v}\n" for v in range(1, 2201)))
        assert self.run_at_640("stats", str(star), "--class", "co", *fmt) == (2, "", self.LINE)

    def test_gi_refusal_reads_the_limit(self):
        assert self.run_at_640("trend", "gi", "--params", "1100") == (
            2, "", "error: gi parameter 1100 too large: 4^i + 2*3^i has over 640 digits\n"
        )
        # 4^1063 + 2*3^1063 has 640 digits
        code, out, err = self.run_at_640("trend", "gi", "--params", "1063", "--csv")
        assert (code, err) == (0, "") and len(out.splitlines()[1].split(",")[2]) == 640

    def test_other_value_errors_are_not_caught(self, monkeypatch):
        def fail(args):
            raise ValueError("not a digit limit")

        monkeypatch.setattr(cli, "_cmd_hull", fail)
        with pytest.raises(ValueError, match="^not a digit limit$"):
            main(["hull", "any.txt", "--set", "0"])


class TestDeterminism:
    def test_repeated_stats_identical(self, capsys):
        outs = set()
        for _ in range(2):
            _, out, _ = run(capsys, "stats", "--family", "rand:9:0.4:11", "--json")
            outs.add(out)
        assert len(outs) == 1

    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dagconvex", "trend", "gi", "--params", "1,2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "0.735294" in proc.stdout
