"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Checks that every metric of BENCHMARK.json prints by name with its unit,
for each workload and both trace settings; that a job with corrupted
stdout, an unexpected exit code or a traceback counts as failed and makes
the command exit non-zero; that span self times add up only for properly
nested spans; and that the command fails without printing a result where
the package source is missing.  Exits 0 when every check passed.

``selftest.py --fault KIND ARGS...`` is the faulty stand-in for
``python -m dagconvex ARGS...`` that the fault checks run as their jobs.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FAULTS = ("stdout", "exit", "traceback")


def fault_job(kind: str, argv: list[str]) -> int:
    """Run the CLI, then spoil its result the way ``kind`` says."""
    from dagconvex import cli

    if kind == "traceback":
        raise RuntimeError("injected fault")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    text = out.getvalue()
    if kind == "stdout":
        digits = [i for i, ch in enumerate(text) if ch.isdigit()]
        if digits:
            i = digits[-1]
            text = text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]
        else:
            text += "x\n"
    sys.stdout.write(text)
    return 3 if kind == "exit" else code


def run_bench(argv: list[str], job_prefix: list[str] | None = None) -> tuple[int, list[str]]:
    import run

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--scale", "tiny", "--seconds", "1", *argv], job_prefix=job_prefix)
    return code, out.getvalue().splitlines()


def main() -> int:
    sys.path.insert(0, str(HERE))
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        for name in ("scan", "grow", "probe"):
            code, lines = run_bench(["--workload", name, "--trace", str(trace)])
            result = json.loads(lines[-1])
            expect(code == 0 and result["correct"] and result["failed"] == 0, f"{name} trace {trace} passes")
            for m in spec[kind]:
                got = result["metrics"].get(m["name"], {})
                printed = any(line.split()[:1] == [m["name"]] and line.split()[2] == m["unit"] for line in lines)
                expect(got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float)) and printed,
                       f"{name} trace {trace} prints {m['name']} in {m['unit']}")
            expect(set(result["metrics"]) == {m["name"] for m in spec[kind]}, f"{name} trace {trace} metric set")
            expect(any(line.split()[:1] == ["fail_ratio"] for line in lines), f"{name} trace {trace} prints fail_ratio")

    for fault in FAULTS:
        for name in ("scan", "probe"):
            prefix = [sys.executable, str(Path(__file__).resolve()), "--fault", fault]
            code, lines = run_bench(["--workload", name], job_prefix=prefix)
            result = json.loads(lines[-1])
            expect(code != 0 and not result["correct"] and result["failed"] == result["attempted"] > 0,
                   f"{name} jobs with a faulty {fault} fail and the command exits non-zero")

    spans = [["cli.main", 0.0, 10.0, None], ["io.load", 1.0, 4.0, 0], ["core.digraph", 2.0, 3.0, 1],
             ["core.rows", 5.0, 6.0, 0]]
    expect(run._self_times(spans) == [6.0, 2.0, 1.0, 1.0], "self time is the span minus its children")
    counters = dict.fromkeys(("enumeration.brute_sets", "enumeration.extension_sets"), 0)

    def replayed(seconds: float, paused: float) -> dict:
        return {"spans": [list(s) for s in spans], "counters": dict(counters), "seconds": seconds, "paused": paused}

    expect(run.analyse_replay(replayed(10.0, 0.0)) is None, "nested spans add up to the traced time")
    expect(run.analyse_replay(replayed(12.0, 2.0)) is None, "time paused for counting is left out")
    expect(run.analyse_replay(replayed(12.0, 0.0)) is not None, "time outside every span is reported")
    spans[3] = ["core.rows", 9.0, 12.0, 0]
    expect(run.analyse_replay(replayed(10.0, 0.0)) is not None, "a child span outside its parent is reported")

    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run([sys.executable, *spec["command"][1:], "--workload", "scan", "--seconds", "1"],
                         cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    expect(res.returncode != 0 and '"correct"' not in res.stdout, "without src it exits non-zero and prints no result")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--fault"]:
        sys.exit(fault_job(sys.argv[2], sys.argv[3:]))
    sys.exit(main())
