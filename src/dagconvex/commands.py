"""The handlers of ``gen``, ``verify`` and ``trend``, with the trend columns,
rows and renderer.  :mod:`dagconvex.cli` parses every command and finds
each handler through its one table; no other command loads this module.
"""

from __future__ import annotations

import argparse
import math
import sys

from .cli import _build, _count, _parse_ints, _resolve_input
from .core import VertexSet
from .errors import InvalidParameter


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


def _cmd_verify(args: argparse.Namespace) -> int:
    from .enumeration import CONNECTED_CONVEX, report_to_csv
    from .io import digraph_to_edge_list
    from .structure import count_cc_within, dt_middle_vertices, find_non_cut_endpoints, verify_size_lower_bound
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
    from .families import FamilySpec
    from .structure import closed_form_gi_counts
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
