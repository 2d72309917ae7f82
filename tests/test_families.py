import hashlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from dagconvex import (
    CONNECTED_CONVEX,
    CONVEX,
    FamilySpec,
    InvalidParameter,
    closed_form_gi_counts,
    closed_form_path_counts,
    dt_middle_vertices,
    dt_order,
    dt_width,
    enumerate_brute,
    enumerate_cc_extension,
    gen_dt,
    gen_gi,
    gen_path,
    gen_random_connected_dag,
    is_cut_vertex,
)

# pinned output of gen_random_connected_dag(8, 0.3, 42); a change here means
# the generator's stream or repair rule changed and old corpora are invalid
GOLDEN_RAND_8_03_42 = ((2, 7), (3, 1), (3, 4), (4, 5), (6, 0), (6, 5), (7, 0))

TESTS = Path(__file__).parent
# the benchmark's catalogues at both scales
BENCH_CATALOGUES = [
    scale["catalogue"]
    for scale in json.loads((TESTS.parent / "perfbench" / "references.json").read_text()).values()
]
# every rand spec the scan and grow catalogues run
BENCH_RAND_SPECS = [
    entry["spec"] for cat in BENCH_CATALOGUES for workload in ("scan", "grow") for entry in cat[workload]
]
BENCH_SCAN_ENTRIES = [entry for cat in BENCH_CATALOGUES for entry in cat["scan"]]


class TestGenDt:
    def test_t1_is_the_5_path(self):
        d, labels = gen_dt(1)
        assert d == gen_path(5)
        assert labels == {"x1": 0, "y1": 1, "z": 2, "y'1": 3, "x'1": 4}

    def test_t4_shape(self):
        d, labels = gen_dt(4)
        assert d.n == 13
        assert d.arc_count == 14  # 2 chains of 3 plus 4 fan arcs per side
        assert dt_width(4) == 2
        assert labels["z"] == 6
        assert labels["x4"] == 3 and labels["x'1"] == 9

    def test_t9_shape(self):
        d, _ = gen_dt(9)
        assert dt_width(9) == 3
        assert d.n == 25

    def test_arc_set_matches_layout(self):
        d, labels = gen_dt(3)
        r = dt_width(3)
        expected = set()
        for i in range(1, 3):
            expected.add((labels[f"x{i}"], labels[f"x{i + 1}"]))
            expected.add((labels[f"x'{i}"], labels[f"x'{i + 1}"]))
        for j in range(1, r + 1):
            expected.add((labels["x3"], labels[f"y{j}"]))
            expected.add((labels[f"y{j}"], labels["z"]))
            expected.add((labels["z"], labels[f"y'{j}"]))
            expected.add((labels[f"y'{j}"], labels["x'1"]))
        assert set(d.arcs) == expected

    @pytest.mark.parametrize("t", [1, 2, 3, 5, 8, 13, 40, 64])
    def test_connected_and_sized(self, t):
        d, _ = gen_dt(t)
        assert d.is_connected()
        assert d.n == dt_order(t) == 2 * t + 2 * dt_width(t) + 1

    def test_middle_vertices(self):
        d, labels = gen_dt(4)
        mids = dt_middle_vertices(4)
        names = {labels["y1"], labels["y2"], labels["z"], labels["y'1"], labels["y'2"]}
        assert set(mids) == names

    def test_bad_param(self):
        with pytest.raises(InvalidParameter):
            gen_dt(0)
        with pytest.raises(InvalidParameter):
            dt_width(-3)


class TestGenGi:
    def test_i1_is_p4(self):
        d, _ = gen_gi(1)
        assert d == gen_path(4)

    def test_i2_shape(self):
        d, labels = gen_gi(2)
        assert d.n == 6 and d.arc_count == 6
        assert labels == {"s": 0, "a1": 1, "b1": 2, "a2": 3, "b2": 4, "t": 5}

    def test_i4_order(self):
        d, _ = gen_gi(4)
        assert d.n == 10

    def test_source_is_not_a_cut_vertex(self):
        # removing s leaves the paths joined through t
        d, labels = gen_gi(2)
        assert not is_cut_vertex(d, labels["s"])
        assert not is_cut_vertex(d, labels["t"])
        assert not oracles.oracle_is_cut(d, labels["s"])

    @pytest.mark.parametrize("i", [1, 2, 3, 4, 5])
    def test_brute_counts_match_closed_forms(self, i):
        d, _ = gen_gi(i)
        _, co = enumerate_brute(d, CONVEX)
        _, cc = enumerate_brute(d, CONNECTED_CONVEX)
        assert (co.count, cc.count) == closed_form_gi_counts(i)

    def test_bad_param(self):
        with pytest.raises(InvalidParameter):
            gen_gi(0)
        with pytest.raises(InvalidParameter):
            closed_form_gi_counts(0)


class TestGenPath:
    def test_orders(self):
        assert gen_path(1).n == 1 and gen_path(1).arc_count == 0
        assert gen_path(3).arcs == ((0, 1), (1, 2))
        assert gen_path(10).arc_count == 9

    def test_bad_param(self):
        with pytest.raises(InvalidParameter):
            gen_path(0)

    def test_closed_form_counts(self):
        assert closed_form_path_counts(3) == (6, (3, 2, 1))
        assert closed_form_path_counts(1) == (1, (1,))
        count, hist = closed_form_path_counts(10)
        assert count == 55 and hist == tuple(range(10, 0, -1))
        _, rep = enumerate_cc_extension(gen_path(10))
        assert (rep.count, rep.histogram) == (count, hist)


class TestRandom:
    def test_reproducible(self):
        a = gen_random_connected_dag(9, 0.3, 7)
        b = gen_random_connected_dag(9, 0.3, 7)
        assert a == b

    def test_golden_instance(self):
        d = gen_random_connected_dag(8, 0.3, 42)
        assert d.arcs == GOLDEN_RAND_8_03_42

    @given(
        st.integers(1, 120),
        st.sampled_from([0.01, 0.05, 0.2, 0.5, 1.0]),
        st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_match_one_shot_draw(self, n, p, seed):
        # orders up to 120 draw in pure Python, one row of pairs at a time,
        # and read the same PCG64 stream as numpy drawing them all at once
        assert gen_random_connected_dag(n, p, seed).arcs == oracles.oracle_random_arcs(n, p, seed)

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("n", [1, 2, 362, 363])
    def test_stream_on_both_sides_of_the_numpy_threshold(self, n, seed):
        # n = 362 has 65,341 <= 2**16 pairs and draws in pure Python, n = 363
        # has 65,703 and draws with numpy; seeds below 2**32 give the seed
        # sequence one 32-bit word of entropy, larger ones two
        assert gen_random_connected_dag(n, 0.01, seed).arcs == oracles.oracle_random_arcs(n, 0.01, seed)

    @pytest.mark.parametrize("text", BENCH_RAND_SPECS)
    def test_benchmark_specs_match_numpy(self, text):
        spec = FamilySpec.parse(text)
        assert spec.build().arcs == oracles.oracle_random_arcs(spec.param, spec.p, spec.seed)

    @pytest.mark.parametrize(
        "argv, imports_numpy",
        [
            ("stats --family rand:40:0.3:2736794843 --class cc", False),
            ("stats --family dt:4 --class both", False),
            ("stats --class co --family rand:23:0.109:50088365", False),
            ("gen rand 363 -p 0.01 --seed 1", True),
        ],
    )
    def test_numpy_imported_only_above_2_16_pairs(self, argv, imports_numpy):
        # every count runs on Python ints, so numpy is needed only by rand
        # specs with more than 2**16 pairs
        script = (
            "import sys\n"
            "from dagconvex.cli import main\n"
            f"code = main({argv.split()!r})\n"
            "print(code, 'numpy' in sys.modules, file=sys.stderr)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.stderr == f"0 {imports_numpy}\n"
        if imports_numpy:
            assert proc.stdout.startswith("# family: rand:363:0.01:1\n363 ")
        elif argv.startswith("stats --class co --family "):
            # a scan catalogue entry, against the stdout digest it was written with
            entry = next(e for e in BENCH_SCAN_ENTRIES if e["spec"] == argv.split()[-1])
            assert hashlib.sha256(proc.stdout.encode()).hexdigest() == entry["stdout_sha256"]
        else:
            golden = json.loads((TESTS / "cli_golden.json").read_text())
            assert proc.stdout == next(case["stdout"] for case in golden if case["argv"] == argv)

    def test_missing_numpy_is_one_line(self):
        # without numpy, a rand spec over 2**16 pairs is refused with one
        # line and exit 2, not a traceback
        script = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from dagconvex.cli import main\n"
            "sys.exit(main(['gen', 'rand', '363', '-p', '0.01']))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            "error: rand order 363 has 65703 pairs; "
            "more than 2**16 are drawn with numpy, which cannot be imported\n"
        )

    def test_large_sparse_in_linear_memory(self):
        # the n(n-1)/2 = 2e8 pair draws would take 1.5 GiB as one array
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        argv = ["gen", "rand", "20000", "-p", "0.0001", "--seed", "1"]
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "dagconvex", *argv],
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=limit_memory,
        )
        assert time.perf_counter() - start < 20
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.startswith("# family: rand:20000:0.0001:1\n20000 ")

    def test_connected_across_seeds(self):
        for seed in range(60):
            d = gen_random_connected_dag(1 + seed % 13, 0.25, seed)
            assert d.is_connected()

    def test_p1_is_transitive_tournament(self):
        d = gen_random_connected_dag(7, 1.0, 5)
        assert d.arc_count == 21
        assert d.is_connected()

    def test_single_vertex(self):
        d = gen_random_connected_dag(1, 0.5, 123)
        assert d.n == 1 and d.arc_count == 0

    def test_bad_params(self):
        with pytest.raises(InvalidParameter):
            gen_random_connected_dag(0, 0.5, 1)
        with pytest.raises(InvalidParameter):
            gen_random_connected_dag(3, 0.0, 1)
        with pytest.raises(InvalidParameter):
            gen_random_connected_dag(3, 1.5, 1)
        with pytest.raises(InvalidParameter):
            gen_random_connected_dag(3, 0.5, -1)
        with pytest.raises(InvalidParameter):
            gen_random_connected_dag(3, 0.5, 2**64)
        with pytest.raises(InvalidParameter, match="rand order 20001 exceeds the limit of 20000"):
            gen_random_connected_dag(20001, 0.0001, 1)  # refused before anything is drawn


class TestFamilySpec:
    @pytest.mark.parametrize(
        "text,order",
        [("dt:4", 13), ("gi:3", 8), ("path:7", 7), ("rand:8:0.3:42", 8)],
    )
    def test_parse_build_order(self, text, order):
        spec = FamilySpec.parse(text)
        assert spec.order == order
        assert spec.build().n == order
        assert FamilySpec.parse(spec.spec_string()) == spec

    def test_rand_spec_builds_golden(self):
        d = FamilySpec.parse("rand:8:0.3:42").build()
        assert d.arcs == GOLDEN_RAND_8_03_42

    @pytest.mark.parametrize(
        "text",
        ["", "dt", "dt:", "dt:x", "dt:0", "blah:3", "rand:8:0.3", "rand:8:2.0:1", "path:1:2"],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(InvalidParameter):
            FamilySpec.parse(text)

    def test_single_param_families_reject_rand_fields(self):
        with pytest.raises(InvalidParameter):
            FamilySpec("dt", 3, p=0.5)
        with pytest.raises(InvalidParameter):
            FamilySpec("rand", 3)
