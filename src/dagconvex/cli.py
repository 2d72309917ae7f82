"""Command-line front end.

Subcommands: ``gen`` writes family instances as edge lists, ``stats``
enumerates and reports counts, ``verify`` runs the structural checks,
``check-convex`` and ``hull`` answer single-set queries, and ``trend``
emits the average-size and count-ratio tables across a parameter range.
The handlers of ``gen``, ``verify`` and ``trend`` are in
:mod:`dagconvex.commands`, so that no other job compiles them.

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
import sys
from typing import TYPE_CHECKING

from .core import Digraph, VertexSet
from .errors import BUDGET, BudgetExceeded, DagConvexError, InvalidParameter

if TYPE_CHECKING:
    from types import ModuleType

    from .enumeration import EnumerationReport
    from .families import FamilySpec

__all__ = ["main"]

# Each command's handler, by module and name, and the modules a job of it
# loads beyond those, core and errors, "{}" being the input's: families for
# --family, io for a FILE.  Each command imports what it uses from its
# defining module; run imports these before main builds the parser, whose
# objects then reuse the memory compiling them freed, not add to peak RSS.
_COMMANDS = {
    "gen": ("commands", "_cmd_gen", "families io"),
    "stats": ("cli", "_cmd_stats", "enumeration {}"),
    "verify": ("commands", "_cmd_verify", "structure enumeration convexity families io"),
    "check-convex": ("cli", "_cmd_query", "convexity io"),
    "hull": ("cli", "_cmd_query", "convexity io"),
    "trend": ("commands", "_cmd_trend", "structure enumeration families"),
}


def _module(stem: str) -> ModuleType:
    """The package's module ``stem``, imported where -X importtime lists it, unlike import_module."""
    __import__(f"{__package__}.{stem}")
    return sys.modules[f"{__package__}.{stem}"]


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


def _cmd_stats(args: argparse.Namespace) -> int:
    from .enumeration import CONNECTED_CONVEX, CONVEX, _average, _decimal, report_to_csv, report_to_json
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
        num, den = _average(rep)
        chunks.append(
            f"class: {rep.kind}\n"
            f"n: {rep.n}\n"
            f"count: {rep.count}\n"
            f"sum: {rep.size_sum}\n"
            f"average: {num}/{den} ({_decimal(num, den)})\n"
            f"histogram: {' '.join(map(str, rep.histogram))}\n"
        )
    sys.stdout.write("\n".join(chunks))
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    """``check-convex`` or ``hull``, by ``args.command``, on one file and set."""
    from .convexity import convex_hull, convexity_witness
    from .io import load_digraph
    d = load_digraph(args.input)
    x = VertexSet(d.n, _parse_ints(args.set, "vertex list"))
    if args.command == "hull":
        hull = convex_hull(d, x)
        print("hull: " + " ".join(map(str, hull.members())))
        print("added: " + (" ".join(map(str, (hull - x).members())) or "-"))
        return 0
    witness = convexity_witness(d, x)
    if witness is None:
        print("convex: true")
        return 0
    print("convex: false")
    print("witness: " + " -> ".join(map(str, witness.path)))
    return 1


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

    s = sub.add_parser("stats", help="count convex and connected convex sets")
    s.add_argument("input", nargs="?", help="edge-list or DOT file")
    s.add_argument("--family", metavar="SPEC", help="generate input, e.g. dt:4 or rand:8:0.3:42")
    s.add_argument("--class", dest="cls", choices=["co", "cc", "both"], default="both")
    _add_format_flags(s)
    _add_budget(s)

    v = sub.add_parser("verify", help="run the structural checks on one digraph")
    v.add_argument("input", nargs="?", help="edge-list or DOT file")
    v.add_argument("--family", metavar="SPEC", help="generate input, e.g. dt:4")
    _add_budget(v)

    for name, help_ in (
        ("check-convex", "test one vertex set for convexity"),
        ("hull", "convex hull of one vertex set"),
    ):
        q = sub.add_parser(name, help=help_)
        q.add_argument("input", help="edge-list or DOT file")
        q.add_argument("--set", required=True, metavar="V,V,...", help="comma-separated labels")

    t = sub.add_parser("trend", help="average-size and ratio tables over a parameter range")
    t.add_argument("family", choices=["dt", "gi"])
    t.add_argument("--params", required=True, metavar="T,T,...", help="comma-separated parameters")
    _add_format_flags(t)
    _add_budget(t)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "budget", BUDGET) < 1:
            raise InvalidParameter(f"budget must be >= 1, got {args.budget}")
        module, handler, _ = _COMMANDS[args.command]
        return getattr(_module(module), handler)(args)
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
    the ``dagconvex`` script), and the one place that sets process policy: it
    preloads the command's modules, keeps the collector off (a command's
    objects form no reference cycle) and freezes the heap so exit skips it."""
    gc.disable()
    try:
        argv = sys.argv[1:]
        if argv and argv[0] in _COMMANDS:  # a wrong guess at the input costs only memory
            source = "families" if any(arg.startswith("--f") for arg in argv) else "io"
            module, _, stems = _COMMANDS[argv[0]]
            for stem in [module, *stems.format(source).split()]:
                _module(stem)
        return main(argv)
    finally:
        gc.freeze()
