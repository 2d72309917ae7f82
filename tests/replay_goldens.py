"""Replay every case of cli_golden.json in a fresh ``-W error`` interpreter.

pytest captures interpreter-level warnings, so the in-process golden test
cannot see one reach stderr; this script can.  Run it as
``python tests/replay_goldens.py``: it puts the checkout's ``src`` first on
its children's ``PYTHONPATH``.  It prints the argv of each case whose exit
code, stdout or stderr differs and exits 1 if there is any.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

here = Path(__file__).resolve().parent
cases = json.loads((here / "cli_golden.json").read_text())
path = [str(here.parent / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
bad = []
for case in cases:
    argv = [sys.executable, "-W", "error", "-m", "dagconvex", *case["argv"].split()]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    if (proc.returncode, proc.stdout, proc.stderr) != (case["exit"], case["stdout"], case["stderr"]):
        bad.append(case["argv"])
print(f"{len(cases) - len(bad)} of {len(cases)} golden cases match", *bad, sep="\n")
sys.exit(1 if bad else 0)
