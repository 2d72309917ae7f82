"""Command-line front end.

Subcommands: ``gen`` writes family instances as edge lists, ``stats``
enumerates and reports counts, ``verify`` runs the structural checks,
``check-convex`` and ``hull`` answer single-set queries, and ``trend``
emits the average-size and count-ratio tables across a parameter range.

Exit status: 0 when everything passed, 1 when a verification or convexity
check failed, 2 on usage, parse, or validation errors, when an enumeration
would spend more than its work budget (``--budget``), when memory runs
out, and when an answer has more digits than Python's int-to-str limit
(``-X int_max_str_digits``).  All output is deterministic: fixed seeds
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from typing import TYPE_CHECKING

from .core import Digraph, VertexSet
from .errors import BUDGET, BudgetExceeded, DagConvexError, InvalidParameter

if TYPE_CHECKING:
    from .enumeration import EnumerationReport
    from .families import FamilySpec

__all__ = ["main"]

# Each command imports what it uses from its defining module, so a job loads
# only these modules beyond core and errors, "{}" being the input's: families
# for --family, io for a FILE.  main imports them before it builds the parser,
# whose objects then reuse the memory compiling them freed, not add to peak RSS.
_MODULES = {
    "gen": "families io", "stats": "enumeration {}", "verify": "enumeration convexity io {}",
    "check-convex": "convexity io", "hull": "convexity io", "trend": "enumeration families",
}


def _build(spec: FamilySpec, kinds: list[str], budget: int) -> Digraph:
    """The digraph of ``spec``, built once the loop of each class in
    ``kinds`` has paid its set-up charge at the spec's order, so an
    oversized one costs nothing to refuse."""
    from .enumeration import charge_setup
    for kind in kinds:
        charge_setup(kind, spec.order, budget)
    return spec.build()


def _resolve_input(args: argparse.Namespace, kinds: list[str]) -> tuple[Digraph, FamilySpec | None]:
    """The input digraph and its family spec if any."""
    if (args.input is None) == (args.family is None):
        raise InvalidParameter("give exactly one input: a FILE or --family SPEC")
    if args.family is None:
        from .io import load_digraph
        return load_digraph(args.input), None
    from .families import FamilySpec
    spec = FamilySpec.parse(args.family)
    return _build(spec, kinds, args.budget), spec


def _parse_ints(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise InvalidParameter(f"bad {what} {text!r}: {exc}") from exc


def _count(kind: str, d: Digraph, budget: int) -> EnumerationReport:
    from .enumeration import CONVEX, count_connected_convex, count_convex
    return (count_convex if kind == CONVEX else count_connected_convex)(d, budget=budget)


def _cmd_gen(args: argparse.Namespace) -> int:
    from .families import FamilySpec
    from .io import MAX_ORDER, digraph_to_edge_list, write_edge_list
    if args.family == "rand":
        p = 0.5 if args.p is None else args.p
        seed = 0 if args.seed is None else args.seed
        spec = FamilySpec("rand", args.param, p, seed)
    else:
        if args.p is not None or args.seed is not None:
            raise InvalidParameter("-p/--seed apply only to the rand family")
        spec = FamilySpec(args.family, args.param)
    if spec.order > MAX_ORDER:
        raise InvalidParameter(
            f"order {spec.order} exceeds the limit of {MAX_ORDER} vertices that the parsers read"
        )
    d, header = spec.build(), [f"family: {spec.spec_string()}"]
    if args.out is None:
        sys.stdout.write(digraph_to_edge_list(d, header))
    else:
        write_edge_list(d, args.out, header)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .enumeration import CONNECTED_CONVEX, CONVEX, format_fraction, report_to_csv, report_to_json
    kinds = {
        "co": [CONVEX],
        "cc": [CONNECTED_CONVEX],
        "both": [CONVEX, CONNECTED_CONVEX],
    }[args.cls]
    d, _ = _resolve_input(args, kinds)
    reports = [_count(kind, d, args.budget) for kind in kinds]
    if args.fmt == "json":
        texts = [report_to_json(rep) for rep in reports]
        print(texts[0] if len(texts) == 1 else "[" + ", ".join(texts) + "]")
        return 0
    if args.fmt == "csv":
        blocks = []
        for rep in reports:
            prefix = f"# class: {rep.kind}\n" if len(reports) > 1 else ""
            blocks.append(prefix + report_to_csv(rep))
        sys.stdout.write("\n".join(blocks))
        return 0
    chunks = []
    for rep in reports:
        avg = rep.average
        chunks.append(
            f"class: {rep.kind}\n"
            f"n: {rep.n}\n"
            f"count: {rep.count}\n"
            f"sum: {rep.size_sum}\n"
            f"average: {avg.numerator}/{avg.denominator} ({format_fraction(avg)})\n"
            f"histogram: {' '.join(map(str, rep.histogram))}\n"
        )
    sys.stdout.write("\n".join(chunks))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .convexity import find_non_cut_endpoints
    from .enumeration import CONNECTED_CONVEX, count_cc_within, report_to_csv, verify_size_lower_bound
    from .io import digraph_to_edge_list
    d, spec = _resolve_input(args, [CONNECTED_CONVEX])
    failed = False

    table = verify_size_lower_bound(d, budget=args.budget)
    print(f"check size-lower-bound: {'pass' if table.passed else 'FAIL'}")
    if not table.passed:
        failed = True
        sys.stderr.write(report_to_csv(table.report))

    if d.n >= 2:
        pts = find_non_cut_endpoints(d)
        ok = len(pts) >= 2
        listed = " ".join(map(str, pts)) or "-"
        print(f"check non-cut-endpoints: {'pass' if ok else 'FAIL'} ({listed})")
        failed |= not ok
    else:
        print("check non-cut-endpoints: skipped (order 1)")

    if spec is not None and spec.family == "dt":
        from .families import dt_middle_vertices
        middle = dt_middle_vertices(spec.param)  # the 2r + 1 labels y's, z, y-primes
        z = VertexSet(d.n, [middle[len(middle) // 2]])
        got = count_cc_within(d, VertexSet(d.n, middle), containing=z, budget=args.budget)
        two_r = len(middle) - 1
        want = 1 << two_r
        ok = got == want
        print(f"check dt-inner-count: {'pass' if ok else 'FAIL'} ({got} vs 2^{two_r} = {want})")
        failed |= not ok

    if failed:
        sys.stderr.write(digraph_to_edge_list(d, header=["failing instance"]))
        print("result: FAIL")
        return 1
    print("result: pass")
    return 0


def _cmd_check_convex(args: argparse.Namespace) -> int:
    from .convexity import convexity_witness
    from .io import load_digraph
    d = load_digraph(args.input)
    x = VertexSet(d.n, _parse_ints(args.set, "vertex list"))
    witness = convexity_witness(d, x)
    if witness is None:
        print("convex: true")
        return 0
    print("convex: false")
    print("witness: " + " -> ".join(map(str, witness.path)))
    return 1


def _cmd_hull(args: argparse.Namespace) -> int:
    from .convexity import convex_hull
    from .io import load_digraph
    d = load_digraph(args.input)
    x = VertexSet(d.n, _parse_ints(args.set, "vertex list"))
    hull = convex_hull(d, x)
    print("hull: " + " ".join(map(str, hull.members())))
    added = hull - x
    print("added: " + (" ".join(map(str, added.members())) if added else "-"))
    return 0


# A trend column: (table heading, CSV and JSON key, and for a Fraction
# column the JSON prefix of its exact numerator and denominator).
_GI_COLUMNS = [
    ("param", "param", None),
    ("n", "n", None),
    ("co", "co", None),
    ("cc", "cc", None),
    ("cc/co", "cc_over_co", "ratio"),
]
_DT_COLUMNS = [
    ("param", "param", None),
    ("n", "n", None),
    ("class", "class", None),
    ("count", "count", None),
    ("sum", "sum", None),
    ("average", "average", "average"),
    ("average/sqrt(n)", "average_per_sqrt_n", None),
]


def _trend_rows_gi(params: list[int]) -> list[tuple]:
    from fractions import Fraction
    from .families import FamilySpec, closed_form_gi_counts
    rows = []
    for i in params:
        n = FamilySpec("gi", i).order
        # str() refuses 4^i + 2*3^i's floor(i log10 4) + 1 digits over its limit;
        # with none (0, or before 3.10.7), 4,300 keeps 3**i from running for ages
        limit = getattr(sys, "get_int_max_str_digits", int)() or 4300
        if i * math.log10(4) >= limit:
            raise InvalidParameter(f"gi parameter {i} too large: 4^i + 2*3^i has over {limit} digits")
        co, cc = closed_form_gi_counts(i)
        rows.append((i, n, co, cc, Fraction(cc, co)))
    return rows


def _trend_rows_dt(params: list[int], budget: int) -> list[tuple]:
    from .enumeration import CONNECTED_CONVEX, CONVEX
    from .families import FamilySpec
    rows = []
    kinds = [CONVEX, CONNECTED_CONVEX]
    for t in params:
        d = _build(FamilySpec("dt", t), kinds, budget)
        for kind in kinds:
            rep = _count(kind, d, budget)
            avg = rep.average
            per_sqrt_n = f"{float(avg) / math.sqrt(d.n):.6f}"
            rows.append((t, d.n, kind, rep.count, rep.size_sum, avg, per_sqrt_n))
    return rows


def _render_rows(columns: list[tuple], rows: list[tuple], fmt: str) -> str:
    """The rows as an aligned table, CSV, or a JSON array of objects."""
    from .enumeration import format_fraction
    if fmt == "json":
        import json  # here, not at the top: jobs without JSON output skip it
        objs = []
        for row in rows:
            obj = {}
            for (_, key, prefix), value in zip(columns, row):
                if prefix is not None:
                    obj[f"{prefix}_num"] = value.numerator
                    obj[f"{prefix}_den"] = value.denominator
                    value = format_fraction(value)
                obj[key] = value
            objs.append(obj)
        return json.dumps(objs) + "\n"
    cells = [
        [format_fraction(v) if prefix else str(v) for (_, _, prefix), v in zip(columns, row)]
        for row in rows
    ]
    if fmt == "csv":
        lines = [[key for _, key, _ in columns], *cells]
        return "".join(",".join(line) + "\n" for line in lines)
    lines = [[heading for heading, _, _ in columns], *cells]
    widths = [max(map(len, column)) for column in zip(*lines)]
    return "".join(
        "  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip() + "\n" for line in lines
    )


def _cmd_trend(args: argparse.Namespace) -> int:
    params = _parse_ints(args.params, "parameter list")
    if args.family == "gi":
        columns, rows = _GI_COLUMNS, _trend_rows_gi(params)
    else:
        columns, rows = _DT_COLUMNS, _trend_rows_dt(params, args.budget)
    sys.stdout.write(_render_rows(columns, rows, args.fmt))
    return 0


def _add_format_flags(sub: argparse.ArgumentParser) -> None:
    fmt = sub.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="fmt", action="store_const", const="json", help="machine-readable JSON")
    fmt.add_argument("--csv", dest="fmt", action="store_const", const="csv", help="CSV table")
    sub.set_defaults(fmt="table")


def _add_budget(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--budget",
        type=int,
        default=BUDGET,
        metavar="N",
        help="work budget of each count, in steps: one per search node and candidate "
        f"tried, per frontier state and vertex, and per 256 bytes held (default {BUDGET})",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dagconvex",
        description="Enumerate and count convex vertex sets of acyclic digraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a family instance as an edge list")
    g.add_argument("family", choices=["dt", "gi", "path", "rand"])
    g.add_argument("param", type=int, help="t, i, or n depending on the family")
    g.add_argument("-p", type=float, default=None, help="arc probability (rand only, default 0.5)")
    g.add_argument("--seed", type=int, default=None, help="PRNG seed (rand only, default 0)")
    g.add_argument("-o", "--out", default=None, help="output file (default stdout)")
    g.set_defaults(func=_cmd_gen)

    s = sub.add_parser("stats", help="count convex and connected convex sets")
    s.add_argument("input", nargs="?", help="edge-list or DOT file")
    s.add_argument("--family", metavar="SPEC", help="generate input, e.g. dt:4 or rand:8:0.3:42")
    s.add_argument("--class", dest="cls", choices=["co", "cc", "both"], default="both")
    _add_format_flags(s)
    _add_budget(s)
    s.set_defaults(func=_cmd_stats)

    v = sub.add_parser("verify", help="run the structural checks on one digraph")
    v.add_argument("input", nargs="?", help="edge-list or DOT file")
    v.add_argument("--family", metavar="SPEC", help="generate input, e.g. dt:4")
    _add_budget(v)
    v.set_defaults(func=_cmd_verify)

    for name, help_, handler in (
        ("check-convex", "test one vertex set for convexity", _cmd_check_convex),
        ("hull", "convex hull of one vertex set", _cmd_hull),
    ):
        q = sub.add_parser(name, help=help_)
        q.add_argument("input", help="edge-list or DOT file")
        q.add_argument("--set", required=True, metavar="V,V,...", help="comma-separated labels")
        q.set_defaults(func=handler)

    t = sub.add_parser("trend", help="average-size and ratio tables over a parameter range")
    t.add_argument("family", choices=["dt", "gi"])
    t.add_argument("--params", required=True, metavar="T,T,...", help="comma-separated parameters")
    _add_format_flags(t)
    _add_budget(t)
    t.set_defaults(func=_cmd_trend)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _MODULES:  # a wrong guess at the input costs only memory
        source = "families" if any(arg.startswith("--f") for arg in argv) else "io"
        for name in _MODULES[argv[0]].format(source).split():
            __import__(f"{__package__}.{name}")  # seen by -X importtime, unlike import_module
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "budget", BUDGET) < 1:
            raise InvalidParameter(f"budget must be >= 1, got {args.budget}")
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}; raise it with --budget", file=sys.stderr)
        return 2
    except (DagConvexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except ValueError as exc:  # str() of an int over Python's digit limit
        if "integer string conversion" not in str(exc):
            raise
        digits = sys.get_int_max_str_digits()
        print(f"error: an answer has over {digits} digits; raise -X int_max_str_digits", file=sys.stderr)
        return 2


def run() -> int:
    """:func:`main` as the whole life of its process (``python -m dagconvex``,
    the ``dagconvex`` script): a command's objects form no reference cycle,
    so the collector stays off, and the heap is frozen so exit skips it."""
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()
