"""Job pools of the three workloads, derived from a seed.

Every job is one ``python -m dagconvex ...`` command.  A pool is the list
of jobs a run cycles through; it mixes several instances because the number
of sets an instance has is heavy-tailed in its seed, and one instance per
run would make runs with different seeds measure very different work.

* ``scan``: ``stats --class co`` on catalogued connected ``rand:22..24``
  instances, plus ``stats --class cc`` on disconnected two-component edge
  lists, which the CLI answers with the subset scan (``enumerate_brute``).
* ``grow``: ``stats --class cc`` on catalogued connected ``rand:40``
  instances, answered by the extension enumerator.
* ``probe``: ``check-convex`` and ``hull`` on large sparse edge lists; the
  single-set queries build reachability rows once and enumerate nothing.

Catalogued instances come from ``references.json``: family specs whose set
count lies in a fixed band, each with its exact histogram and the digest of
the CLI's output.  A pool takes one entry from each of equal slices of the
catalogue ranked by set count, so that every seed's pool spans the band
alike.  Edge-list inputs are generated here without the code under test, so
the inputs of a seed do not change with it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("scan", "grow", "probe")


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``full`` is the benchmark, ``tiny`` the self-test."""

    co_jobs: int  # catalogued convex-class jobs in the scan pool
    dis_jobs: int  # disconnected jobs in the scan pool
    dis_order: tuple[int, int]  # order range of each of the two components
    dis_band: tuple[int, int]  # accepted convex-set count of the union
    cc_jobs: int  # catalogued jobs in the grow pool
    probe_n: int
    probe_files: int
    probe_queries: int  # queries per probe file
    probe_span: int  # arcs go from u to at most u + probe_span
    probe_window: int  # query vertices lie within this distance of the first


SCALES = {
    "full": Scale(6, 3, (10, 11), (250_000, 450_000), 6, 20_000, 3, 4, 40, 300),
    "tiny": Scale(2, 2, (4, 5), (120, 400), 2, 300, 2, 2, 8, 30),
}


@dataclass(frozen=True)
class Job:
    """One CLI job and what its output is checked against."""

    key: str  # unique within the pool; names the job in results and references
    argv: tuple[str, ...]  # arguments after ``python -m dagconvex``
    check: str  # "catalogue", "components", "check-convex" or "hull"
    ref: dict | None = None  # catalogue entry, for "catalogue" jobs
    path: str | None = None  # input file relative to the checkout root
    members: tuple[int, ...] = ()  # query set of probe jobs


def make_pool(workload: str, seed: int, scale: Scale, catalogue: dict, root: Path, work: Path) -> list[Job]:
    """Write the workload's input files under ``work`` and return its pool."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scan":
        co = _catalogue_jobs("co", _stratified(rng, catalogue["scan"], scale.co_jobs))
        dis = _disconnected_jobs(rng, scale, root, work)
        # Interleave so that any prefix of the loop mixes both job kinds.
        per = max(1, len(co) // max(1, len(dis)))
        pool = []
        for i, job in enumerate(dis):
            pool.extend(co[i * per:(i + 1) * per])
            pool.append(job)
        pool.extend(co[len(dis) * per:])
        return pool
    if workload == "grow":
        return _catalogue_jobs("cc", _stratified(rng, catalogue["grow"], scale.cc_jobs))
    if workload == "probe":
        return _probe_jobs(rng, scale, root, work)
    raise ValueError(f"unknown workload {workload!r}")


def _stratified(rng: random.Random, entries: list[dict], k: int) -> list[dict]:
    """One entry from each of k equal slices of ``entries`` ranked by count."""
    ranked = sorted(entries, key=lambda e: e["count"])
    return [rng.choice(ranked[i * len(ranked) // k:(i + 1) * len(ranked) // k]) for i in range(k)]


def _catalogue_jobs(cls: str, entries: list[dict]) -> list[Job]:
    return [
        Job(f"{cls}:{e['spec']}", ("stats", "--class", cls, "--family", e["spec"]), "catalogue", ref=e)
        for e in entries
    ]


def _random_connected_dag(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """Arcs of a connected DAG on 0..n-1: a random spanning tree oriented
    along a random order, plus each other forward pair with probability p."""
    order = list(range(n))
    rng.shuffle(order)
    arcs = set()
    for b in range(1, n):
        arcs.add((order[rng.randrange(b)], order[b]))
    for b in range(1, n):
        for a in range(b):
            if rng.random() < p:
                arcs.add((order[a], order[b]))
    return sorted(arcs)


def _convex_count(n: int, arcs: list[tuple[int, int]]) -> int:
    """Number of non-empty convex subsets, by testing all 2^n of them."""
    desc = [1 << v for v in range(n)]
    out = [[] for _ in range(n)]
    for u, v in arcs:
        out[u].append(v)
    changed = True
    while changed:  # closure by relaxation; n is small
        changed = False
        for u in range(n):
            grown = desc[u]
            for v in out[u]:
                grown |= desc[v]
            if grown != desc[u]:
                desc[u], changed = grown, True
    anc = [sum(1 << u for u in range(n) if desc[u] >> v & 1) for v in range(n)]
    # du[mask] / au[mask]: union of the rows of the bits of mask, by doubling.
    du = au = np.zeros(1, dtype=np.int64)
    for v in range(n):
        du = np.concatenate((du, du | desc[v]))
        au = np.concatenate((au, au | anc[v]))
    masks = np.arange(1 << n, dtype=np.int64)
    return int(np.count_nonzero(du & au & ~masks == 0)) - 1


def _write_edge_list(path: Path, n: int, arcs: list[tuple[int, int]], comment: str) -> None:
    lines = [f"# {comment}", f"{n} {len(arcs)}"]
    lines.extend(f"{u} {v}" for u, v in arcs)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _disconnected_jobs(rng: random.Random, scale: Scale, root: Path, work: Path) -> list[Job]:
    """Inputs of two random connected components with interleaved labels.

    Job i pairs two components, drawn once for all jobs, whose union's
    convex-set count (c1 + 1)(c2 + 1) - 1 lies in the i-th of ``dis_jobs``
    equal slices of the band: the CLI tests connectivity once per convex
    set, so that count sets the job's cost.
    """
    parts: list[tuple[int, list, int]] = []
    jobs = []
    for i in range(scale.dis_jobs):
        lo, hi = scale.dis_band
        lo, hi = lo + (hi - lo) * i // scale.dis_jobs, lo + (hi - lo) * (i + 1) // scale.dis_jobs
        fits: list[tuple[int, int]] = []
        while not fits:
            if len(parts) > 1000:
                raise RuntimeError(f"no two-component input with {lo}..{hi} convex sets")
            for _ in range(16):
                n = rng.randint(*scale.dis_order)
                arcs = _random_connected_dag(rng, n, rng.uniform(0.15, 0.3))
                parts.append((n, arcs, _convex_count(n, arcs)))
            fits = [(a, b) for a in range(len(parts)) for b in range(a)
                    if lo <= (parts[a][2] + 1) * (parts[b][2] + 1) - 1 <= hi]
        a, b = rng.choice(fits)
        (n1, arcs1, c1), (n2, arcs2, c2) = parts[a], parts[b]
        del parts[a], parts[b]  # a > b, so b's index is still valid
        label = list(range(n1 + n2))
        rng.shuffle(label)
        arcs = [(label[u], label[v]) for u, v in arcs1] + [(label[n1 + u], label[n1 + v]) for u, v in arcs2]
        path = work / f"disconnected-{i}.txt"
        _write_edge_list(path, n1 + n2, sorted(arcs), f"two components, {(c1 + 1) * (c2 + 1) - 1} convex sets")
        rel = str(path.relative_to(root))
        jobs.append(Job(f"dis:{i}", ("stats", "--class", "cc", rel), "components", path=rel))
    return jobs


def _probe_jobs(rng: random.Random, scale: Scale, root: Path, work: Path) -> list[Job]:
    """Sparse DAGs with about 3n arcs of span at most ``probe_span``, and
    small query sets of 1 to 3 nearby vertices; singletons are convex and
    spread-out sets usually are not, so both answers occur."""
    n, span = scale.probe_n, scale.probe_span
    files = []
    for f in range(scale.probe_files):
        arcs = []
        for u in range(n - 1):
            top = min(n - 1, u + span)
            arcs.extend((u, v) for v in sorted(rng.sample(range(u + 1, top + 1), min(3, top - u))))
        path = work / f"probe-{f}.txt"
        _write_edge_list(path, n, arcs, f"sparse DAG, span {span}")
        files.append(str(path.relative_to(root)))
    jobs = []
    for q in range(scale.probe_queries):
        for f, rel in enumerate(files):
            first = rng.randrange(n - scale.probe_window)
            members = {first}
            for _ in range(rng.randint(0, 2)):
                members.add(first + rng.randrange(1, scale.probe_window))
            members = tuple(sorted(members))
            cmd = "check-convex" if (q + f) % 2 == 0 else "hull"
            argv = (cmd, rel, "--set", ",".join(map(str, members)))
            jobs.append(Job(f"{cmd}:{f}:{q}", argv, cmd, path=rel, members=members))
    return jobs
