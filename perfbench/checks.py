"""Output checks for benchmark jobs.

Every job's output is checked three ways where the way exists:

* against references: catalogued instances carry their exact histogram and
  output digest for any seed, and ``references.json`` holds the digest and
  exit code of every other job of the default seed;
* against a route independent of the job's own code path: the cc histogram
  of a disconnected input must equal the sum of ``enumerate_cc_extension``
  over its components, a printed witness must pass
  ``ConvexityWitness.is_valid_for``, and a convexity answer or hull must
  agree with the BFS-based ``reachable_from`` and ``reaching_to``;
* for self-consistency: count = sum of the histogram, sum = sum of k times
  the histogram, and the average equals sum/count, exactly and to six
  digits.

The package must be importable (the caller puts ``src`` on ``sys.path``).
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import dagconvex as dc


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _six_digits(value: Fraction) -> str:
    q, r = divmod(value.numerator * 10**6, value.denominator)
    if 2 * r > value.denominator or (2 * r == value.denominator and q & 1):
        q += 1
    return f"{q // 10**6}.{q % 10**6:06d}"


def parse_report(text: str) -> dict:
    """Parse and cross-check the text report of ``stats`` for one class."""
    fields = {}
    for line in text.splitlines():
        name, sep, value = line.partition(": ")
        if not sep or name in fields:
            raise ValueError(f"unexpected line {line!r}")
        fields[name] = value
    if list(fields) != ["class", "n", "count", "sum", "average", "histogram"]:
        raise ValueError(f"unexpected fields {list(fields)}")
    n, count, total = int(fields["n"]), int(fields["count"]), int(fields["sum"])
    hist = [int(h) for h in fields["histogram"].split()]
    if len(hist) != n:
        raise ValueError(f"histogram has {len(hist)} entries for n = {n}")
    if count != sum(hist):
        raise ValueError("count differs from the histogram total")
    if total != sum(k * h for k, h in enumerate(hist, 1)):
        raise ValueError("sum differs from the histogram")
    if count == 0:
        raise ValueError("no sets counted")
    avg = Fraction(total, count)
    if fields["average"] != f"{avg.numerator}/{avg.denominator} ({_six_digits(avg)})":
        raise ValueError(f"average {fields['average']!r} is not sum/count")
    return {"class": fields["class"], "n": n, "count": count, "histogram": hist}


class Checker:
    """Checks job outputs; keeps the digraph of the last input file read.

    ``seed_refs`` maps job keys to ``[exit code, stdout digest]`` when the
    run uses the default seed, and is empty otherwise.
    """

    def __init__(self, root, seed_refs: dict):
        self._root = root
        self._seed_refs = seed_refs
        self._path: str | None = None
        self._digraph: dc.Digraph | None = None

    def __call__(self, job, code: int, out: str, err: str) -> tuple[str | None, int]:
        """Return (reason for failure or None, sets the job emitted)."""
        if err:
            return f"stderr: {err.strip().splitlines()[-1][:200]}", 0
        ref = self._seed_refs.get(job.key)
        if ref is not None and [code, digest(out)] != ref:
            return f"exit {code} / stdout digest differ from the default-seed reference", 0
        try:
            if job.check in ("check-convex", "hull"):
                return self._probe(job, code, out), 1
            if code != 0:
                return f"exit code {code}", 0
            report = parse_report(out)
            return getattr(self, "_" + job.check)(job, report, out), report["count"]
        except (ValueError, dc.DagConvexError) as exc:
            return f"malformed output: {exc}", 0

    def _catalogue(self, job, report: dict, out: str) -> str | None:
        ref = job.ref
        if report["histogram"] != ref["histogram"]:
            return "histogram differs from the catalogue"
        if digest(out) != ref["stdout_sha256"]:
            return "stdout digest differs from the catalogue"
        return None

    def _components(self, job, report: dict, out: str) -> str | None:
        if report["class"] != dc.CONNECTED_CONVEX:
            return f"class {report['class']!r}"
        d = self._graph(job.path)
        want = [0] * d.n
        for part in _components(d):
            sub = dc.Digraph(len(part), [(part.index(u), part.index(v)) for u, v in d.arcs if u in part])
            for k, c in enumerate(dc.enumerate_cc_extension(sub)[1].histogram):
                want[k] += c
        if report["histogram"] != want:
            return "histogram differs from the per-component extension enumeration"
        return None

    def _probe(self, job, code: int, out: str) -> str | None:
        d = self._graph(job.path)
        x = dc.VertexSet(d.n, job.members)
        between = dc.reachable_from(d, x).mask & dc.reaching_to(d, x).mask
        lines = out.splitlines()
        if job.check == "check-convex":
            if lines == ["convex: true"]:
                if code != 0:
                    return f"exit code {code} for a convex set"
                return None if between == x.mask else "set reported convex but a path leaves it"
            if len(lines) != 2 or lines[0] != "convex: false" or not lines[1].startswith("witness: "):
                return "malformed check-convex output"
            if code != 1:
                return f"exit code {code} for a non-convex set"
            path = tuple(int(v) for v in lines[1][len("witness: "):].split(" -> "))
            witness = dc.ConvexityWitness(u=path[0], v=path[-1], path=path)
            return None if witness.is_valid_for(d, x) else "invalid witness"
        if code != 0:
            return f"exit code {code}"
        if len(lines) != 2 or not lines[0].startswith("hull: ") or not lines[1].startswith("added: "):
            return "malformed hull output"
        hull = dc.VertexSet(d.n, [int(v) for v in lines[0][len("hull: "):].split()])
        added = lines[1][len("added: "):]
        if added != (" ".join(map(str, (hull - x).members())) or "-"):
            return "added vertices differ from hull minus the set"
        if not x.issubset(hull) or hull.mask != between or not dc.is_convex(d, hull):
            return "hull differs from the vertices between members of the set"
        return None

    def _graph(self, path: str) -> dc.Digraph:
        # One digraph at a time: the reachability rows of a probe file take
        # about 100 MB, so callers check jobs grouped by input file.
        if path != self._path:
            self._path, self._digraph = None, None
            self._digraph = dc.load_digraph(self._root / path)
            self._path = path
        return self._digraph


def _components(d: dc.Digraph) -> list[list[int]]:
    """Vertex lists of the underlying undirected components, ascending."""
    seen: set[int] = set()
    parts = []
    for start in range(d.n):
        if start in seen:
            continue
        part = [start]
        seen.add(start)
        for v in part:
            for w in d.out_adj[v] + d.in_adj[v]:
                if w not in seen:
                    seen.add(w)
                    part.append(w)
        parts.append(sorted(part))
    return parts
