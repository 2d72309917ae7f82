"""Build ``references.json``: the instance catalogues and the default-seed
references that ``checks.py`` compares job outputs with.

    python3 perfbench/references.py

For each scale, the catalogue lists ``rand`` family specs whose set count
lies in a fixed band, so that every seed's pool holds jobs of comparable
cost, with the exact histogram and the stdout digest of the CLI job.  The
default-seed references hold the exit code and stdout digest of every
other job in the default seed's pools; each output is first passed through
the same checks the benchmark applies.

Outputs come from the working tree's ``src``; run this only at a commit
whose answers are trusted, since the benchmark then holds later commits
to them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from dagconvex import FamilySpec, cli, enumerate_cc_extension  # noqa: E402

# scale -> workload -> (class, orders, arc probability range, set count band, entries)
CATALOGUES = {
    "full": {
        "scan": ("co", (22, 24), (0.10, 0.12), (500_000, 800_000), 24),
        "grow": ("cc", (40, 40), (0.28, 0.30), (25_000, 45_000), 18),
    },
    "tiny": {
        "scan": ("co", (9, 10), (0.2, 0.3), (30, 300), 6),
        "grow": ("cc", (10, 10), (0.3, 0.4), (20, 300), 6),
    },
}
OUT = ROOT / ".perfbench-out" / "references-work"


def cli_output(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def catalogue(name: str, cls: str, orders, probs, band, size: int) -> list[dict]:
    """Draw specs until ``size`` of them have a set count inside ``band``."""
    rng = random.Random(f"catalogue:{name}:{orders}")
    entries = []
    while len(entries) < size:
        n = rng.randint(*orders)
        spec = f"rand:{n}:{round(rng.uniform(*probs), 3)}:{rng.randrange(2**32)}"
        if cls == "cc" and _exceeds(FamilySpec.parse(spec).build(), band[1]):
            continue
        code, out = cli_output(["stats", "--class", cls, "--family", spec])
        report = checks.parse_report(out)
        if code != 0 or not band[0] <= report["count"] <= band[1]:
            continue
        entries.append({"spec": spec, "count": report["count"], "histogram": report["histogram"],
                        "stdout_sha256": checks.digest(out)})
        print(f"{name}: {len(entries)}/{size} {spec} {report['count']}", file=sys.stderr)
    return entries


def _exceeds(d, limit: int) -> bool:
    """Whether ``d`` has more than ``limit`` connected convex sets, decided
    cheaply: counts up to a size bound that grows by 4 stop the search as
    soon as they pass ``limit``."""
    for size in range(4, d.n + 4, 4):
        if enumerate_cc_extension(d, max_size=size)[1].count > limit:
            return True
    return False


def default_seed_refs(scale_name: str, cat: dict) -> dict:
    """Exit code and stdout digest of every non-catalogue job of the default seed."""
    import run

    refs = {}
    checker = checks.Checker(ROOT, {})
    for name in workloads.WORKLOADS:
        shutil.rmtree(OUT, ignore_errors=True)
        OUT.mkdir(parents=True)
        pool = workloads.make_pool(name, run.DEFAULT_SEED, workloads.SCALES[scale_name], cat, ROOT, OUT)
        refs[name] = {}
        for job in sorted(pool, key=lambda j: j.path or ""):
            if job.check == "catalogue":
                continue
            code, out = cli_output(list(job.argv))
            reason, _ = checker(job, code, out, "")
            if reason is not None:
                raise SystemExit(f"{scale_name} {job.key}: {reason}")
            refs[name][job.key] = [code, checks.digest(out)]
    shutil.rmtree(OUT)
    return refs


def main() -> int:
    result = {}
    with contextlib.chdir(ROOT):
        for scale_name, specs in CATALOGUES.items():
            cat = {name: catalogue(name, *spec) for name, spec in specs.items()}
            result[scale_name] = {"catalogue": cat, "default_seed": default_seed_refs(scale_name, cat)}
    (HERE / "references.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
