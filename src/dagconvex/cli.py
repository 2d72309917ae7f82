"""Command-line front end.

Subcommands: ``gen`` writes family instances as edge lists, ``stats``
enumerates and reports counts, ``verify`` runs the structural checks,
``check-convex`` and ``hull`` answer single-set queries, and ``trend``
emits the average-size and count-ratio tables across a parameter range.

Exit status: 0 when everything passed, 1 when a verification or convexity
check failed, 2 on usage, parse, or validation errors.  All output is
deterministic: fixed seeds produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from .convexity import convex_hull, convexity_witness, find_non_cut_endpoints
from .core import Digraph, VertexSet, is_cut_vertex, sources_and_sinks
from .enumeration import (
    BRUTE_SIZE_CAP,
    CONNECTED_CONVEX,
    CONVEX,
    EXTENSION_SIZE_CAP,
    EnumerationReport,
    count_cc_within,
    count_connected_convex,
    count_convex,
    format_fraction,
    report_to_csv,
    report_to_json,
    report_to_obj,
    verify_size_lower_bound,
)
from .errors import DagConvexError, InvalidParameter
from .families import (
    FamilySpec,
    closed_form_gi_counts,
    dt_middle_vertices,
    dt_width,
    gen_dt,
    gi_convex_count,
)
from .io import digraph_to_edge_list, load_digraph

__all__ = ["main"]

MAX_N_ENV = "DAGCONVEX_MAX_N"


def _caps(args: argparse.Namespace) -> tuple[int, int]:
    """Resolve (brute cap, extension cap) from --max-n or the environment."""
    override = getattr(args, "max_n", None)
    if override is None:
        raw = os.environ.get(MAX_N_ENV)
        if raw is not None:
            try:
                override = int(raw)
            except ValueError:
                raise InvalidParameter(f"{MAX_N_ENV} must be an integer, got {raw!r}")
    if override is None:
        return BRUTE_SIZE_CAP, EXTENSION_SIZE_CAP
    if override < 1:
        raise InvalidParameter(f"size cap must be >= 1, got {override}")
    if override > BRUTE_SIZE_CAP:
        print(
            f"warning: enumeration caps raised to n <= {override}; "
            "runtime and memory grow exponentially",
            file=sys.stderr,
        )
    return override, override


def _resolve_input(args: argparse.Namespace) -> tuple[Digraph, FamilySpec | None]:
    has_file = args.input is not None
    has_family = args.family is not None
    if has_file == has_family:
        raise InvalidParameter("give exactly one input: a FILE or --family SPEC")
    if has_family:
        spec = FamilySpec.parse(args.family)
        return spec.build(), spec
    return load_digraph(args.input), None


def _parse_set(text: str, n: int) -> VertexSet:
    try:
        members = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise InvalidParameter(f"bad vertex list {text!r}: {exc}") from exc
    return VertexSet(n, members)


def _render_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
        for i, h in enumerate(header)
    ]
    lines = ["  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip() for cells in [header, *rows]]
    return "\n".join(lines) + "\n"


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.family == "rand":
        p = 0.5 if args.p is None else args.p
        seed = 0 if args.seed is None else args.seed
        spec = FamilySpec("rand", args.param, p, seed)
    else:
        if args.p is not None or args.seed is not None:
            raise InvalidParameter("-p/--seed apply only to the rand family")
        spec = FamilySpec(args.family, args.param)
    text = digraph_to_edge_list(spec.build(), header=[f"family: {spec.spec_string()}"])
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="ascii")
    return 0


def _compute_report(
    d: Digraph, kind: str, brute_cap: int, ext_cap: int
) -> EnumerationReport:
    if kind == CONNECTED_CONVEX:
        return count_connected_convex(d, cap=ext_cap)
    return count_convex(d, cap=brute_cap)


def _cmd_stats(args: argparse.Namespace) -> int:
    d, _ = _resolve_input(args)
    brute_cap, ext_cap = _caps(args)
    kinds = {
        "co": [CONVEX],
        "cc": [CONNECTED_CONVEX],
        "both": [CONVEX, CONNECTED_CONVEX],
    }[args.cls]
    reports = [_compute_report(d, kind, brute_cap, ext_cap) for kind in kinds]
    if args.json:
        if len(reports) == 1:
            print(report_to_json(reports[0]))
        else:
            print(json.dumps([report_to_obj(r) for r in reports]))
        return 0
    if args.csv:
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
    d, spec = _resolve_input(args)
    _, ext_cap = _caps(args)
    failed = False

    table = verify_size_lower_bound(d, cap=ext_cap)
    print(f"check size-lower-bound: {'pass' if table.passed else 'FAIL'}")
    if not table.passed:
        failed = True
        sys.stderr.write(table.to_csv())

    if d.n >= 2:
        try:
            pts = find_non_cut_endpoints(d)
        except RuntimeError:
            pts = []
        src, snk = sources_and_sinks(d)
        ok = len(pts) >= 2 and all(
            (v in src or v in snk) and not is_cut_vertex(d, v) for v in pts
        )
        listed = " ".join(map(str, pts)) or "-"
        print(f"check non-cut-endpoints: {'pass' if ok else 'FAIL'} ({listed})")
        failed |= not ok
    else:
        print("check non-cut-endpoints: skipped (order 1)")

    if spec is not None and spec.family == "dt":
        t = spec.param
        r = dt_width(t)
        middle = VertexSet(d.n, dt_middle_vertices(t))
        z = VertexSet(d.n, [gen_dt(t)[1]["z"]])
        got = count_cc_within(d, middle, containing=z)
        want = 1 << (2 * r)
        ok = got == want
        print(f"check dt-inner-count: {'pass' if ok else 'FAIL'} ({got} vs 2^{2 * r} = {want})")
        failed |= not ok

    if failed:
        sys.stderr.write(digraph_to_edge_list(d, header=["failing instance"]))
        print("result: FAIL")
        return 1
    print("result: pass")
    return 0


def _cmd_check_convex(args: argparse.Namespace) -> int:
    d = load_digraph(args.input)
    x = _parse_set(args.set, d.n)
    witness = convexity_witness(d, x)
    if witness is None:
        print("convex: true")
        return 0
    print("convex: false")
    print("witness: " + " -> ".join(map(str, witness.path)))
    return 1


def _cmd_hull(args: argparse.Namespace) -> int:
    d = load_digraph(args.input)
    x = _parse_set(args.set, d.n)
    hull = convex_hull(d, x)
    print("hull: " + " ".join(map(str, hull.members())))
    added = hull - x
    print("added: " + (" ".join(map(str, added.members())) if added else "-"))
    return 0


def _parse_params(text: str) -> list[int]:
    try:
        params = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise InvalidParameter(f"bad parameter list {text!r}: {exc}") from exc
    if not params:
        raise InvalidParameter("empty parameter list")
    return params


def _sqrt_ratio(avg: Fraction, n: int) -> str:
    return f"{float(avg) / math.sqrt(n):.6f}"


def _trend_rows_gi(params: list[int]) -> list[dict]:
    rows = []
    for i in params:
        co = gi_convex_count(i)
        cc = closed_form_gi_counts(i)[1]
        rows.append({"param": i, "n": 2 * i + 2, "co": co, "cc": cc, "ratio": Fraction(cc, co)})
    return rows


def _trend_rows_dt(params: list[int], brute_cap: int, ext_cap: int) -> list[dict]:
    rows = []
    # The override may lower the subset-scan threshold but never raise it
    # past the module cap: a 2^n scan across a whole parameter sweep is
    # never intended.  Raising it for one instance is what stats is for.
    co_cap = min(brute_cap, BRUTE_SIZE_CAP)
    for t in params:
        d, _ = gen_dt(t)
        per_class = []
        if d.n <= co_cap:
            per_class.append(count_convex(d, cap=co_cap))
        else:
            print(
                f"note: skipping convex class for t={t} (n={d.n} exceeds cap {co_cap})",
                file=sys.stderr,
            )
        per_class.append(count_connected_convex(d, cap=ext_cap))
        for rep in per_class:
            rows.append(
                {
                    "param": t,
                    "n": d.n,
                    "class": rep.kind,
                    "count": rep.count,
                    "sum": rep.size_sum,
                    "average": rep.average,
                }
            )
    return rows


def _cmd_trend(args: argparse.Namespace) -> int:
    params = _parse_params(args.params)
    brute_cap, ext_cap = _caps(args)
    if args.family == "gi":
        rows = _trend_rows_gi(params)
        header = ["param", "n", "co", "cc", "cc/co"]
        csv_header = ["param", "n", "co", "cc", "cc_over_co"]
        cells = [
            [str(r["param"]), str(r["n"]), str(r["co"]), str(r["cc"]), format_fraction(r["ratio"])]
            for r in rows
        ]
        if args.json:
            print(
                json.dumps(
                    [
                        {
                            "param": r["param"],
                            "n": r["n"],
                            "co": r["co"],
                            "cc": r["cc"],
                            "ratio_num": r["ratio"].numerator,
                            "ratio_den": r["ratio"].denominator,
                            "cc_over_co": format_fraction(r["ratio"]),
                        }
                        for r in rows
                    ]
                )
            )
            return 0
    else:
        rows = _trend_rows_dt(params, brute_cap, ext_cap)
        header = ["param", "n", "class", "count", "sum", "average", "average/sqrt(n)"]
        csv_header = ["param", "n", "class", "count", "sum", "average", "average_per_sqrt_n"]
        cells = [
            [
                str(r["param"]),
                str(r["n"]),
                r["class"],
                str(r["count"]),
                str(r["sum"]),
                format_fraction(r["average"]),
                _sqrt_ratio(r["average"], r["n"]),
            ]
            for r in rows
        ]
        if args.json:
            print(
                json.dumps(
                    [
                        {
                            "param": r["param"],
                            "n": r["n"],
                            "class": r["class"],
                            "count": r["count"],
                            "sum": r["sum"],
                            "average_num": r["average"].numerator,
                            "average_den": r["average"].denominator,
                            "average": format_fraction(r["average"]),
                            "average_per_sqrt_n": _sqrt_ratio(r["average"], r["n"]),
                        }
                        for r in rows
                    ]
                )
            )
            return 0
    if args.csv:
        lines = [",".join(csv_header)]
        lines.extend(",".join(row) for row in cells)
        sys.stdout.write("\n".join(lines) + "\n")
        return 0
    sys.stdout.write(_render_table(header, cells))
    return 0


def _add_format_flags(sub: argparse.ArgumentParser) -> None:
    fmt = sub.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="machine-readable JSON")
    fmt.add_argument("--csv", action="store_true", help="CSV table")


def _add_max_n(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--max-n",
        type=int,
        default=None,
        metavar="N",
        help=f"override the enumeration size caps (default brute {BRUTE_SIZE_CAP}, "
        f"extension {EXTENSION_SIZE_CAP}; env {MAX_N_ENV})",
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
    _add_max_n(s)
    s.set_defaults(func=_cmd_stats)

    v = sub.add_parser("verify", help="run the structural checks on one digraph")
    v.add_argument("input", nargs="?", help="edge-list or DOT file")
    v.add_argument("--family", metavar="SPEC", help="generate input, e.g. dt:4")
    _add_max_n(v)
    v.set_defaults(func=_cmd_verify)

    c = sub.add_parser("check-convex", help="test one vertex set for convexity")
    c.add_argument("input", help="edge-list or DOT file")
    c.add_argument("--set", required=True, metavar="V,V,...", help="comma-separated labels")
    c.set_defaults(func=_cmd_check_convex)

    h = sub.add_parser("hull", help="convex hull of one vertex set")
    h.add_argument("input", help="edge-list or DOT file")
    h.add_argument("--set", required=True, metavar="V,V,...", help="comma-separated labels")
    h.set_defaults(func=_cmd_hull)

    t = sub.add_parser("trend", help="average-size and ratio tables over a parameter range")
    t.add_argument("family", choices=["dt", "gi"])
    t.add_argument("--params", required=True, metavar="T,T,...", help="comma-separated parameters")
    _add_format_flags(t)
    _add_max_n(t)
    t.set_defaults(func=_cmd_trend)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DagConvexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
