"""Reading and writing digraphs as text.

Edge-list format: optional ``#`` comment lines and blanks, then a header
line ``n m``, then m lines ``u v`` with 0-based labels.  A restricted DOT
subset (``digraph { u -> v; ... }`` with integer node ids) is accepted as
alternative input; :func:`load_digraph` sniffs which one it is looking at.
Both parsers need at least one vertex and refuse orders above :data:`MAX_ORDER`.
"""

from __future__ import annotations

import gc
import re
from pathlib import Path

from .core import Digraph
from .errors import DagConvexError, ParseError

__all__ = [
    "MAX_ORDER",
    "write_edge_list",
    "parse_edge_list",
    "parse_dot",
    "load_digraph",
    "digraph_to_edge_list",
]

# Largest order the parsers accept.  The header alone fixes the order, so
# without a limit the 10-byte file "2000000 0" asks for millions of
# adjacency lists; 100,000 vertices cost about 30 MB and well under a
# second to build, and admit the 20,000-vertex files single-set queries
# are benchmarked on.
MAX_ORDER = 100_000


def digraph_to_edge_list(d: Digraph, header: list[str] | None = None) -> str:
    """Render a digraph in edge-list form, arcs in ascending label order."""
    lines = [f"# {text}" for text in header or []]
    lines.append(f"{d.n} {d.arc_count}")
    lines.extend(f"{u} {v}" for u, v in d.arcs)
    return "\n".join(lines) + "\n"


def write_edge_list(d: Digraph, path: str | Path, header: list[str] | None = None) -> None:
    Path(path).write_text(digraph_to_edge_list(d, header), encoding="ascii")


def _meaningful_lines(text: str) -> list[tuple[int, str]]:
    lines = enumerate(map(str.strip, text.splitlines()), 1)
    return [(lineno, line) for lineno, line in lines if line and line[0] != "#"]


def _build(n: int, arcs: list[tuple[int, int]]) -> Digraph:
    if n == 0:
        raise ParseError("input declares no vertices")
    if n > MAX_ORDER:
        raise ParseError(f"order {n} exceeds the parser limit of {MAX_ORDER} vertices")
    try:
        return Digraph(n, arcs)
    except DagConvexError as exc:
        raise ParseError(f"invalid digraph: {exc}") from exc


def _parse_edge_lines(lines: list[tuple[int, str]]) -> Digraph:
    if not lines:
        raise ParseError("empty edge list: expected a header line 'n m'")
    lineno, head = lines[0]
    fields = head.split()
    if len(fields) != 2 or not (fields[0].isdecimal() and fields[1].isdecimal()):
        raise ParseError(f"line {lineno}: expected header 'n m', got {head!r}")
    n, m = int(fields[0]), int(fields[1])
    if len(lines) - 1 != m:
        raise ParseError(f"header promises {m} arcs but {len(lines) - 1} lines follow")
    arcs = []
    for lineno, line in lines[1:]:
        fields = line.split()
        if len(fields) != 2 or not (fields[0].isdecimal() and fields[1].isdecimal()):
            raise ParseError(f"line {lineno}: expected arc 'u v', got {line!r}")
        arcs.append((int(fields[0]), int(fields[1])))
    return _build(n, arcs)


def parse_edge_list(text: str) -> Digraph:
    """Parse the ``n m`` edge-list format; raises ParseError on bad input."""
    return _parse_edge_lines(_meaningful_lines(text))


_DOT_ARC = re.compile(r"^(\d+)\s*->\s*(\d+)$")
_DOT_NODE = re.compile(r"^(\d+)$")


def parse_dot(text: str) -> Digraph:
    """Parse ``digraph { u -> v; ... }`` with integer ids only.

    Bare ``u;`` statements declare isolated vertices; the order is one more
    than the highest id mentioned anywhere.  Lines that begin with ``#``
    are dropped, as Graphviz does.
    """
    kept = "\n".join(line for _, line in _meaningful_lines(text))
    match = re.match(r"^digraph(\s+\w+)?\s*\{(.*)\}\s*$", kept, re.DOTALL)
    if not match:
        raise ParseError("expected 'digraph { ... }'")
    arcs: list[tuple[int, int]] = []
    top = -1
    for part in match.group(2).replace("\n", ";").split(";"):
        stmt = part.strip()
        if not stmt:
            continue
        if arc := _DOT_ARC.match(stmt):
            u, v = int(arc.group(1)), int(arc.group(2))
            arcs.append((u, v))
            top = max(top, u, v)
        elif node := _DOT_NODE.match(stmt):
            top = max(top, int(node.group(1)))
        else:
            raise ParseError(f"unsupported DOT statement {stmt!r}")
    return _build(top + 1, arcs)


def load_digraph(path: str | Path) -> Digraph:
    """Load a digraph from a file, sniffing edge-list versus DOT syntax."""
    try:
        text = Path(path).read_text(encoding="ascii")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    # Parsing allocates a few objects per arc and none of them can be part
    # of a reference cycle, so the cyclic collector's repeated passes over
    # the growing heap find nothing; on a 60,000-arc file they took about a
    # third of the load time.
    enabled = gc.isenabled()
    gc.disable()
    try:
        lines = _meaningful_lines(text)
        if lines and lines[0][1].startswith("digraph"):
            return parse_dot(text)
        return _parse_edge_lines(lines)
    finally:
        if enabled:
            gc.enable()
