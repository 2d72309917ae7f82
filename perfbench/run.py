"""Benchmark of the dagconvex CLI: scan, grow and probe workloads.

    python3 perfbench/run.py [--workload scan|grow|probe|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from anywhere; it works in the checkout that contains this file, builds
nothing, and runs the working tree's ``src``.  The load is a closed loop
with one client: each job is a ``python -m dagconvex ...`` child process,
started when the previous one has been reaped, for ``--seconds`` seconds.
Jobs cycle through the workload's pool (see ``workloads.py``).  Every
output is checked (see ``checks.py``) after the timed loop.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  Set-up
(writing the inputs and one untimed warm-up job) is repeated three times
and its median reported.  Every job and every set-up is followed by a
calibration child, ``calibrate.py``, fixed work that does not use the package;
end-to-end times are reported in reference seconds, each wall time divided
by that of the calibration after it and multiplied by ``REF_CAL_S``.  The
speed of the shared host swings by a third within seconds, and jobs and
calibrations swing together, so the ratio holds still where wall times do
not.  Raw wall times are printed next to the metrics and kept in the
results.

``--trace 1`` replays each job with ``replay.py`` in two fresh
interpreters, once as is and once with spans around the package's public
names (the order alternates from job to job).  It reports the per-layer
metrics of BENCHMARK.json: per-job medians of span times and counters over
the jobs where the layer ran (0 where it never ran), and the traced over
untraced in-process time.  The spans are written as JSON lines to
``.perfbench-out/``.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every job passed its checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench-out"
SETUPS = 3
DEFAULT_SEED = 0
TAIL_BEYOND = 10  # job_tail_s is the highest percentile with this many jobs above it
REF_CAL_S = 0.5  # typical wall time of calibrate.py on the 2-core box the bounds were set on

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


class Launcher:
    """Runs jobs through ``launcher.py``, a small process started for the
    purpose, so that each job's ``wait4`` peak RSS is its own and not this
    process's (see that file)."""

    def __init__(self, env: dict):
        self.env = env
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.hwm_kib = 0

    def __call__(self, argv: list[str], out: Path, err: Path) -> tuple[float, int, int]:
        """Run one child to completion: (wall seconds, peak RSS in KiB, exit code)."""
        self.proc.stdin.write(json.dumps({"argv": argv, "env": self.env, "out": str(out), "err": str(err)}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the launcher exited with code {self.proc.wait()}")
        answer = json.loads(line)
        self.hwm_kib = max(self.hwm_kib, answer["launcher_hwm_kib"])
        return answer["seconds"], answer["rss_kib"], answer["code"]

    def close(self) -> None:
        """Stop the launcher, and with it a job it may still be running."""
        self.proc.stdin.close()
        self.proc.terminate()
        self.proc.wait()
        self.proc.stdout.close()


class ReplayError(Exception):
    pass


class Runner:
    """Spawns jobs of one workload with the working tree's ``src``."""

    def __init__(self, work: Path, job_prefix: list[str]):
        self.work = work
        self.prefix = job_prefix
        self.spawn = Launcher(dict(os.environ, PYTHONPATH=str(ROOT / "src")))

    def job(self, job) -> dict:
        seconds, rss, code = self.spawn(self.prefix + list(job.argv), self.work / "job.out", self.work / "job.err")
        rec = {"key": job.key, "seconds": seconds, "rss_kib": rss, "code": code,
               "stdout": self.read("job.out"), "stderr": self.read("job.err")}
        if rss <= self.spawn.hwm_kib:
            rec["error"] = f"peak RSS {rss} KiB is not above the launcher's own {self.spawn.hwm_kib} KiB"
        return rec

    def calibrate(self) -> float:
        """Wall seconds of one calibration child."""
        seconds, _, code = self.spawn([sys.executable, str(HERE / "calibrate.py")], self.work / "cal.out", self.work / "cal.err")
        if code != 0:
            raise RuntimeError(f"the calibration failed with exit code {code}: {self.read('cal.err').strip()[-300:]}")
        return seconds

    def timed_job(self, job) -> dict:
        """A job followed by the calibration it is scaled by."""
        rec = self.job(job)
        rec["cal_seconds"] = self.calibrate()
        return rec

    def replay(self, job, traced: bool) -> dict:
        spec = json.dumps({"argv": list(job.argv), "traced": traced})
        _, _, code = self.spawn([sys.executable, str(HERE / "replay.py"), spec],
                                self.work / "replay.out", self.work / "replay.err")
        text = self.read("replay.out")
        try:
            if code != 0:
                raise ValueError(f"exit code {code}")
            return json.loads(text)
        except ValueError as exc:
            raise ReplayError(f"replay failed ({exc}): {self.read('replay.err').strip()[-300:]}") from exc

    def replay_pair(self, job, traced_first: bool) -> dict:
        """Replay a job traced and untraced, in fresh interpreters each."""
        rec = {"key": job.key}
        try:
            first = self.replay(job, traced_first)
            second = self.replay(job, not traced_first)
        except ReplayError as exc:
            return dict(rec, error=str(exc))
        traced, untraced = (first, second) if traced_first else (second, first)
        rec.update(traced, **traced["run"])
        rec["untraced_seconds"] = untraced["run"]["seconds"]
        if any(untraced["run"][k] != rec[k] for k in ("code", "stdout", "stderr")):
            rec["error"] = "traced and untraced runs differ"
        elif not Path(rec["dagconvex_file"]).resolve().is_relative_to(ROOT / "src"):
            rec["error"] = f"replay imported {rec['dagconvex_file']}"
        else:
            rec["error"] = analyse_replay(rec)
        return rec

    def read(self, name: str) -> str:
        return (self.work / name).read_text(errors="replace")


def environment(runner: Runner) -> dict:
    """What the results depend on, including the tree the children ran."""
    probe = "import json, sys, numpy, dagconvex; print(json.dumps([dagconvex.__file__, numpy.__version__]))"
    _, _, code = runner.spawn([sys.executable, "-c", probe], runner.work / "env.out", runner.work / "env.err")
    if code != 0:
        raise RuntimeError("the package does not import: " + runner.read("env.err").strip()[-300:])
    module_file, numpy_version = json.loads(runner.read("env.out"))
    src = ROOT / "src"
    if not Path(module_file).resolve().is_relative_to(src):
        raise RuntimeError(f"children import dagconvex from {module_file}, not from {src}")
    tree = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*.py") if "__pycache__" not in p.parts):
        tree.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes() + b"\0")
    return {
        "commit": _git_commit(),
        "src": str(src),
        "src_sha256": tree.hexdigest(),
        "dagconvex_file": module_file,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree of its own."""
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = res.stdout.split()
    if res.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def set_up(name: str, seed: int, scale, catalogue: dict, runner: Runner) -> tuple[list, float]:
    """Write the inputs, run the untimed warm-up job; return (pool, seconds)."""
    start = perf_counter()
    shutil.rmtree(runner.work)
    runner.work.mkdir(parents=True)
    pool = workloads.make_pool(name, seed, scale, catalogue, ROOT, runner.work)
    runner.job(pool[0])
    return pool, perf_counter() - start


def timed_loop(pool: list, seconds: float, run_one) -> list[dict]:
    """Closed loop, one client: run pool jobs in turn for ``seconds``."""
    records = []
    start = perf_counter()
    while not records or perf_counter() - start < seconds:
        records.append(run_one(pool[len(records) % len(pool)], len(records)))
    return records


def check_all(pool: list, records: list[dict], checker) -> None:
    """Set ``reason`` (None when passed) and ``sets`` on every record.

    A job's first run is checked; later runs of the same job must repeat
    its output exactly.  Jobs are checked grouped by input file.
    """
    by_key = {job.key: job for job in pool}
    first: dict[str, dict] = {}
    for rec in records:
        first.setdefault(rec["key"], rec)
    for key in sorted(first, key=lambda k: by_key[k].path or ""):
        rec = first[key]
        if not rec.get("error"):
            rec["reason"], rec["sets"] = checker(by_key[key], rec["code"], rec["stdout"], rec["stderr"])
    for rec in records:
        head = first[rec["key"]]
        if rec.get("error"):
            rec["reason"], rec["sets"] = rec["error"], 0
        elif rec is not head:
            rec["sets"] = head["sets"]
            same = all(rec[k] == head.get(k) for k in ("code", "stdout", "stderr"))
            rec["reason"] = head["reason"] if same else "output differs from an earlier run of the same job"


def _tail(values: list[float]) -> float:
    """The highest percentile with ``TAIL_BEYOND`` values above it, or the
    largest value when there are too few."""
    values = sorted(values)
    return values[max(len(values) - TAIL_BEYOND - 1, 0)]


def end_to_end(name: str, records: list[dict], setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """End-to-end metric values and the notes printed next to them.

    Times are in reference seconds (see the module docstring); the notes
    give the raw wall times.  ``us_per_set`` is the time of one pass over
    the jobs that ran, each at its median time, divided by the sets that
    pass emits; the median keeps one slowed job and the uneven mix of a
    loop cut off mid-pass out of it.  ``probe`` jobs emit no sets; each
    answers a query about one set, so its ``us_per_set`` is microseconds
    per query set.
    """
    walls = [r["seconds"] for r in records]
    scaled = [r["seconds"] / r["cal_seconds"] * REF_CAL_S for r in records]
    by_key: dict[str, list] = {}
    for rec, t in zip(records, scaled):
        by_key.setdefault(rec["key"], []).append((t, rec["seconds"], rec["sets"]))
    pass_sets = sum(runs[0][2] for runs in by_key.values())
    pass_scaled, pass_raw = (sum(statistics.median(run[i] for run in runs) for runs in by_key.values()) for i in (0, 1))
    setup_walls = [s for s, _ in setups]
    n = len(walls)
    if n > TAIL_BEYOND:
        tail_note = f"p{100 * (n - TAIL_BEYOND) // n} of {n} jobs"
    else:
        tail_note = f"max of {n} jobs; fewer than {TAIL_BEYOND + 1} for a tail percentile"
    values = {
        "setup_s": statistics.median(s / c * REF_CAL_S for s, c in setups),
        "job_p50_s": statistics.median(scaled),
        "job_tail_s": _tail(scaled),
        "us_per_set": pass_scaled / max(pass_sets, 1) * 1e6,
        "peak_rss_mb": max(r["rss_kib"] for r in records) / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups; raw {statistics.median(setup_walls):.4g} s",
        "job_p50_s": f"{n} jobs; raw {statistics.median(walls):.4g} s; calibration median "
                     f"{statistics.median(r['cal_seconds'] for r in records):.4g} s",
        "job_tail_s": f"{tail_note}; raw {_tail(walls):.4g} s",
        "us_per_set": f"{pass_sets} {'query sets answered' if name == 'probe' else 'sets emitted'} "
                      f"by {len(by_key)} jobs; raw {pass_raw / max(pass_sets, 1) * 1e6:.4g} us",
    }
    return values, notes


def _self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    selfs = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered, reach = 0.0, start
        for a, b in sorted(children.get(i, [])):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        selfs.append(end - start - covered)
    return selfs


# Per-layer time metrics: metric -> (span name, use self time).
SPAN_METRICS = {
    "import.numpy_s": ("import.numpy", False),
    "import.dagconvex_s": ("import.dagconvex", False),
    "io.load_s": ("io.load", False),
    "io.self_s": ("io.load", True),
    "families.build_s": ("families.build", False),
    "core.digraph_s": ("core.digraph", False),
    "core.rows_s": ("core.rows", False),
    "enumeration.brute_s": ("enumeration.brute", False),
    "enumeration.extension_s": ("enumeration.extension", False),
    "convexity.query_s": ("convexity.query", True),
    "cli.main_s": ("cli.main", False),
    "cli.self_s": ("cli.main", True),
}
# The spans of a job may miss its traced in-process time by this much: the
# tracer's own entry into and exit from cli.main lie outside every span.
SPAN_TOLERANCE_S, SPAN_TOLERANCE = 1e-3, 0.005
COUNT_METRICS = ("core.rows_bytes", "enumeration.brute_subsets", "enumeration.extension_pairs",
                 "enumeration.peak_level", "enumeration.sets")


def analyse_replay(rec: dict) -> str | None:
    """Per-layer totals of one replayed job into ``rec['layers']``; returns
    a failure reason when the spans do not account for the job's traced
    in-process time (``seconds``, less the ``paused`` time the tracer spent
    counting, which no span covers)."""
    spans = rec["spans"]
    selfs = _self_times(spans)
    layers: dict[str, float] = {}
    for metric, (span, use_self) in SPAN_METRICS.items():
        hits = [selfs[i] if use_self else s[2] - s[1] for i, s in enumerate(spans) if s[0] == span]
        if hits:
            layers[metric] = sum(hits)
    c = rec["counters"]
    c["enumeration.sets"] = c["enumeration.brute_sets"] + c["enumeration.extension_sets"]
    rec["layers"] = layers
    roots = [i for i, s in enumerate(spans) if s[0] == "cli.main"]
    if len(roots) != 1:
        return f"{len(roots)} cli.main spans"
    covered = sum(selfs[i] for i in range(len(spans)) if _root_of(spans, i) == roots[0])
    measured = rec["seconds"] - rec["paused"]
    if abs(covered - measured) > SPAN_TOLERANCE_S + SPAN_TOLERANCE * measured:
        return f"span self times add up to {covered:.6f} s, not the job's traced {measured:.6f} s"
    return None


def _root_of(spans: list[list], i: int) -> int:
    while spans[i][3] is not None:
        i = spans[i][3]
    return i


def per_layer(records: list[dict]) -> dict:
    ok = [r for r in records if "layers" in r]
    values = {}
    for metric in SPAN_METRICS:
        hits = [r["layers"][metric] for r in ok if metric in r["layers"]]
        values[metric] = statistics.median(hits) if hits else 0.0
    for metric in COUNT_METRICS:
        hits = [r["counters"][metric] for r in ok if r["counters"][metric]]
        values[metric] = statistics.median_low(hits) if hits else 0
    total = {k: sum(r["counters"][k] for r in ok) for k in ok[0]["counters"]} if ok else {}
    brute, pairs = total.get("enumeration.brute_subsets", 0), total.get("enumeration.extension_pairs", 0)
    values["enumeration.brute_yield"] = total["enumeration.brute_sets"] / brute if brute else 0.0
    grown = total.get("enumeration.extension_sets", 0) - total.get("enumeration.extension_singletons", 0)
    values["enumeration.extension_yield"] = grown / pairs if pairs else 0.0
    untraced = sum(r["untraced_seconds"] for r in ok)
    values["trace.overhead"] = sum(r["seconds"] for r in ok) / untraced if untraced else 0.0
    return values


def run_workload(name: str, args, spec: dict, catalogue: dict, seed_refs: dict, runner: Runner) -> dict:
    from checks import Checker

    scale = workloads.SCALES[args.scale]
    setups = []
    for _ in range(1 if args.trace else SETUPS):
        pool, seconds = set_up(name, args.seed, scale, catalogue, runner)
        setups.append((seconds, runner.calibrate()))
    checker = Checker(ROOT, seed_refs.get(name, {}) if args.seed == DEFAULT_SEED else {})
    if args.trace:
        records = timed_loop(pool, args.seconds, lambda job, i: runner.replay_pair(job, i % 2 == 0))
    else:
        records = timed_loop(pool, args.seconds, lambda job, i: runner.timed_job(job))
    check_all(pool, records, checker)
    if args.trace:
        values, notes, metric_list = per_layer(records), {}, spec["per_layer"]
    else:
        values, notes = end_to_end(name, records, setups)
        metric_list = spec["end_to_end"]
    failed = sum(r["reason"] is not None for r in records)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_list}
    print(f"{name}: seed {args.seed}, {len(records)} jobs from a pool of {len(pool)}, trace {args.trace}")
    for metric, entry in metrics.items():
        note = f"  ({notes[metric]})" if metric in notes else ""
        print(f"  {metric:30} {entry['value']:.6g} {entry['unit']}{note}")
    print(f"  {'fail_ratio':30} {failed / len(records):.6g}  ({failed} failed of {len(records)} attempted)")
    for rec in records:
        if rec["reason"] is not None:
            print(f"  FAIL {rec['key']}: {rec['reason']}")
    return {"workload": name, "seed": args.seed, "trace": args.trace, "metrics": metrics,
            "attempted": len(records), "failed": failed,
            "setups": setups,
            "jobs": [{k: r.get(k) for k in ("key", "seconds", "cal_seconds", "untraced_seconds", "rss_kib", "code", "sets", "reason")}
                     for r in records],
            "spans": [dict(zip(("name", "start", "end", "parent"), s), job=j, id=i)
                      for j, r in enumerate(records) for i, s in enumerate(r.get("spans", []))]}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                        help="input sizes; 'tiny' is for the self-test")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None, job_prefix: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dagconvex" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'dagconvex'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    refs = json.loads((HERE / "references.json").read_text())[args.scale]
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))  # so that the launcher is stopped
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work, job_prefix or [sys.executable, "-m", "dagconvex"])
    try:
        try:
            env = environment(runner)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        results = [run_workload(name, args, spec, refs["catalogue"], refs["default_seed"], runner) for name in names]
    finally:
        runner.spawn.close()
        shutil.rmtree(runner.work, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()
    env["launcher_hwm_kib"] = runner.spawn.hwm_kib
    print("env: " + json.dumps(env))
    for res in results:
        stem = OUT / f"{res['workload']}-seed{args.seed}-trace{args.trace}"
        spans = res.pop("spans")
        stem.with_suffix(".json").write_text(json.dumps(dict(res, env=env), indent=1))
        if args.trace:
            with open(stem.with_suffix(".spans.jsonl"), "w") as f:
                f.writelines(json.dumps(s) + "\n" for s in spans)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
