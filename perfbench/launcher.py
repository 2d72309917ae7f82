"""Start benchmark jobs one at a time and report each one's wall time and peak RSS.

    python3 perfbench/launcher.py

Each line on stdin is a JSON request ``{"argv", "env", "out", "err"}``:
the launcher runs ``argv`` with stdout and stderr written to the files
``out`` and ``err``, waits for it, and answers with one JSON line
``{"seconds", "rss_kib", "code", "launcher_hwm_kib"}``.  It exits at the end
of stdin; on SIGTERM or SIGINT it kills and reaps a running job first.

Jobs are started from this small process rather than from ``run.py``
because a child's ``wait4`` peak RSS is at least the peak RSS of the memory
it was started from: ``exec`` records the replaced memory's high-water mark
in the child's ``ru_maxrss``, and ``posix_spawn`` starts the child in its
parent's memory.  This process imports neither numpy nor dagconvex, and
``launcher_hwm_kib`` is its own high-water mark, so that ``run.py`` can tell
a job's own peak from an inherited one.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from time import perf_counter


def spawn(argv: list[str], env: dict, out: str, err: str) -> tuple[float, int, int]:
    """Run one child to completion: (wall seconds, peak RSS in KiB, exit code).

    The peak RSS is the child's own, from ``wait4``, not the aggregate of
    all children.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644), (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)]
    start = perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    return perf_counter() - start, usage.ru_maxrss, os.waitstatus_to_exitcode(status)


def high_water_kib() -> int:
    """This process's own peak RSS (``VmHWM``), without what it inherited."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    for line in sys.stdin:
        req = json.loads(line)
        seconds, rss, code = spawn(req["argv"], req["env"], req["out"], req["err"])
        answer = {"seconds": seconds, "rss_kib": rss, "code": code, "launcher_hwm_kib": high_water_kib()}
        print(json.dumps(answer), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(128 + signal.SIGINT)
