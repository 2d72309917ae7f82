"""Replay one dagconvex CLI job in-process, traced or untraced.

Run as ``python perfbench/replay.py JOB_JSON`` in a fresh interpreter with
the package's ``src`` on ``PYTHONPATH``; JOB_JSON holds ``argv`` (the CLI
arguments) and ``traced``.  Each replay is a cold start, like a CLI job, so
the traced and untraced in-process times of one job compare like for like.

The traced run wraps the public names of each module and records a span
``[name, start, end, parent index]`` around every call; the imports get a
span each.  Row methods get a span only on the call that builds the rows.
Per-job counters are derived from the calls' arguments and results.  One
JSON object is printed: the spans, the counters, the seconds the span clock
was paused for counting, and the exit code, stdout, stderr and in-process
seconds of ``cli.main``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import traceback
from time import perf_counter

# Public functions timed as a layer: name exported by dagconvex -> span name.
FUNCTIONS = {
    "load_digraph": "io.load",
    "enumerate_brute": "enumeration.brute",
    "enumerate_cc_extension": "enumeration.extension",
    "convexity_witness": "convexity.query",
    "convex_hull": "convexity.query",
}
# Public methods: (class exported by dagconvex, method, span name, first call only).
METHODS = [
    ("Digraph", "__init__", "core.digraph", False),
    ("FamilySpec", "build", "families.build", False),
    ("Digraph", "descendant_masks", "core.rows", True),
    ("Digraph", "ancestor_masks", "core.rows", True),
    ("Digraph", "underlying_masks", "core.rows", True),
]
COUNTERS = (
    "core.rows_bytes",
    "enumeration.brute_subsets",
    "enumeration.brute_sets",
    "enumeration.extension_sets",
    "enumeration.extension_singletons",
    "enumeration.extension_pairs",
    "enumeration.peak_level",
)


class Tracer:
    """Installs span-recording wrappers and removes them again.

    Counters are taken from each call's arguments and result as soon as the
    call returns, so that no result outlives the job's own references and
    its deallocation stays inside the span that causes it.  Spans are timed
    on a clock that stops while the tracer counts, so counting adds to the
    traced run's wall time (and so to ``trace.overhead``) but to no span.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._rows_seen: set[int] = set()
        self._patched: list[tuple[object, str, object]] = []
        self.paused = 0.0
        self._counting = False

    def _now(self) -> float:
        return perf_counter() - self.paused

    def _wrap(self, span: str, fn, first_call_only: bool = False):
        name = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._counting:
                return fn(*args, **kwargs)
            index = len(self.spans)
            rec = [span, 0.0, 0.0, self._stack[-1] if self._stack else None]
            self.spans.append(rec)
            self._stack.append(index)
            rec[1] = self._now()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = self._now()
                self._stack.pop()
            start = perf_counter()
            self._counting = True
            try:
                if first_call_only and id(result) in self._rows_seen and index == len(self.spans) - 1:
                    del self.spans[index]  # a cached row list: not built by this call
                else:
                    self._count(name, args, result)
            finally:
                self._counting = False
                self.paused += perf_counter() - start
            return result

        return traced

    def _count(self, name: str, args: tuple, result) -> None:
        c = self.counters
        if name in ("descendant_masks", "ancestor_masks", "underlying_masks"):
            self._rows_seen.add(id(result))
            c["core.rows_bytes"] += sum((row.bit_length() + 7) // 8 for row in result)
        elif name == "enumerate_brute":
            c["enumeration.brute_subsets"] += (1 << args[0].n) - 1
            c["enumeration.brute_sets"] += result[1].count
        elif name == "enumerate_cc_extension":
            d, (sets, report) = args[0], result
            c["enumeration.extension_sets"] += report.count
            c["enumeration.extension_singletons"] += report.histogram[0]
            c["enumeration.peak_level"] = max(c["enumeration.peak_level"], max(report.histogram))
            c["enumeration.extension_pairs"] += extension_attempts(d, sets)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package, cli) -> None:
        modules = [m for n, m in sys.modules.items() if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for name, span in FUNCTIONS.items():
            original = getattr(package, name, None)
            if original is None:
                continue
            wrapper = self._wrap(span, original)
            for module in modules:
                if module.__dict__.get(name) is original:
                    self._patch(module, name, wrapper)
        for cls_name, method, span, first_call_only in METHODS:
            cls = getattr(package, cls_name)
            self._patch(cls, method, self._wrap(span, cls.__dict__[method], first_call_only))
        self._patch(cli, "main", self._wrap("cli.main", cli.main))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def extension_attempts(d, sets) -> int:
    """Sum of |N(S) minus S| over the sets below full size: the (set,
    neighbour) pairs the extension enumerator tries, counted from outside."""
    und = d.underlying_masks()
    full = (1 << d.n) - 1
    total = 0
    for s in sets:
        mask = s.mask
        if mask == full:
            continue
        nb = 0
        rest = mask
        while rest:
            low = rest & -rest
            nb |= und[low.bit_length() - 1]
            rest ^= low
        total += (nb & ~mask).bit_count()
    return total


def run_main(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "seconds": perf_counter() - start}


def main() -> int:
    job = json.loads(sys.argv[1])
    t0 = perf_counter()
    import numpy  # noqa: F401  (timed on its own: the package imports it first)

    t1 = perf_counter()
    import dagconvex
    from dagconvex import cli

    t2 = perf_counter()
    tracer = Tracer()
    tracer.spans += [["import.numpy", t0, t1, None], ["import.dagconvex", t1, t2, None]]
    if job["traced"]:
        tracer.install(dagconvex, cli)
    try:
        run = run_main(cli.main, job["argv"])
    finally:
        tracer.uninstall()
    print(json.dumps({
        "dagconvex_file": dagconvex.__file__,
        "spans": tracer.spans,
        "counters": tracer.counters,
        "paused": tracer.paused,
        "run": run,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
