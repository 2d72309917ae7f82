"""Reading and writing digraphs as text.

Edge-list format: optional ``#`` comment lines and blanks, then a header
line ``n m``, then m lines ``u v`` with 0-based labels.  The usual layout,
as :func:`digraph_to_edge_list` writes it, is read in one pass over
line-aligned chunks of about 64 KiB: per chunk one ``split()``, one
``map(int, ...)`` and checks of its shape; all other text goes to the line
parser, which names the faulty line.  A DOT subset (``digraph { u -> v;
... }`` with integer node ids) is accepted too; :func:`load_digraph` sniffs
which one it is looking at.  Both parsers need at least one vertex and
refuse orders above :data:`MAX_ORDER`.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Sequence

from .core import Digraph, _Columns
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
# adjacency lists.  At 100,000 vertices and 300,000 arcs of span at most 40,
# `check-convex` on a set 100 labels wide takes about 0.23 s and 45 MB peak
# RSS with every arc ascending, where it builds rows for that window only,
# and 0.53 s and 73 MB with every arc descending, where the Kahn pass builds
# them all (medians of 5 runs on a 2-core Xeon with Python 3.11); the limit
# admits the 20,000-vertex files single-set queries are benchmarked on.
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


def _build(n: int, tails: list[int], heads: list[int]) -> Digraph:
    if n == 0:
        raise ParseError("input declares no vertices")
    if n > MAX_ORDER:
        raise ParseError(f"order {n} exceeds the parser limit of {MAX_ORDER} vertices")
    try:
        return Digraph(n, _Columns((tails, heads)))
    except DagConvexError as exc:
        raise ParseError(f"invalid digraph: {exc}") from exc


def _numbers(fields: Sequence[str], where: str = "") -> tuple[int, ...]:
    try:
        return tuple(map(int, fields))
    except ValueError:  # past the interpreter's limit on int-string digits
        raise ParseError(f"{where}number of {max(map(len, fields))} digits is too long") from None


def _pair(lineno: int, line: str, expected: str) -> tuple[int, ...]:
    fields = line.split()
    if len(fields) != 2 or not (fields[0].isdecimal() and fields[1].isdecimal()):
        raise ParseError(f"line {lineno}: expected {expected}, got {line!r}")
    return _numbers(fields, f"line {lineno}: ")


def _parse_edge_lines(lines: list[tuple[int, str]]) -> Digraph:
    if not lines:
        raise ParseError("empty edge list: expected a header line 'n m'")
    n, m = _pair(*lines[0], "header 'n m'")
    if len(lines) - 1 != m:
        raise ParseError(f"header promises {m} arcs but {len(lines) - 1} lines follow")
    ends = [end for lineno, line in lines[1:] for end in _pair(lineno, line, "arc 'u v'")]
    return _build(n, ends[0::2], ends[1::2])


_COMMENT_LINES = re.compile(r"(?:#[^\n]*\n)*")
_CHUNK = 1 << 16  # characters of body text turned into ints at a time


def _parse_usual_layout(text: str) -> Digraph | None:
    """The digraph of an edge list in the usual layout, None for other text:
    leading ``#`` lines with no line break but their ``\n``, then lines that
    are ``b" \n"`` once their ASCII digits are deleted and hold two numbers,
    read as bytes, one line-aligned chunk at a time, into a tail and a head
    column (non-ASCII encodes as ``?``)."""
    start = _COMMENT_LINES.match(text).end()
    if len(text[:start].splitlines()) != text.count("\n", 0, start):
        return None
    tails, heads = [], []
    while start < len(text):
        end = text.find("\n", start + _CHUNK) + 1 or len(text)
        chunk = text[start:end].encode("ascii", "replace")
        shape = chunk.translate(None, b"0123456789")
        try:
            numbers = list(map(int, chunk.split()))
        except ValueError:  # past the interpreter's limit on int-string digits
            return None
        if shape != b" \n" * (len(shape) // 2) or len(numbers) != len(shape):
            return None
        tails += numbers[0::2]
        heads += numbers[1::2]
        start = end
    if not tails or heads[0] != len(heads) - 1:  # the header 'n m' heads the columns
        return None
    n, _ = tails.pop(0), heads.pop(0)
    return _build(n, tails, heads)


def parse_edge_list(text: str) -> Digraph:
    """Parse the ``n m`` edge-list format; raises ParseError on bad input."""
    d = _parse_usual_layout(text)
    return _parse_edge_lines(_meaningful_lines(text)) if d is None else d


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
    ends: list[int] = []
    top = -1
    for part in match.group(2).replace("\n", ";").split(";"):
        stmt = part.strip()
        if not stmt:
            continue
        found = _DOT_ARC.match(stmt) or _DOT_NODE.match(stmt)
        if not found:
            raise ParseError(f"unsupported DOT statement {stmt!r}")
        ids = _numbers(found.groups())
        top = max(top, *ids)
        if len(ids) == 2:
            ends.extend(ids)
    return _build(top + 1, ends[0::2], ends[1::2])


def load_digraph(path: str | Path) -> Digraph:
    """Load a digraph from a file, sniffing edge-list versus DOT syntax."""
    try:
        text = Path(path).read_text(encoding="ascii")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    d = _parse_usual_layout(text)
    if d is not None:
        return d
    lines = _meaningful_lines(text)
    if lines and lines[0][1].startswith("digraph"):
        return parse_dot(text)
    return _parse_edge_lines(lines)
