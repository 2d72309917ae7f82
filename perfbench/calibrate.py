"""Fixed work that measures how fast the host runs right now.

    python3 perfbench/calibrate.py

``run.py`` runs this after every job and every set-up and reports times
relative to it (see the README, "Reference seconds").  It does what the
jobs do without the package: interpreter start, the numpy import, many
small objects holding integer masks, and integer bit operations with a
dict.  Exits non-zero if its result is not the fixed expected one.
"""

import sys

import numpy

EXPECTED = (705230761112, 20515, 1439997, 45)


class Item:
    __slots__ = ("mask", "size")

    def __init__(self, mask: int):
        self.mask = mask
        self.size = mask.bit_count()


items = [Item((i * 2654435761) & 0xFFFFFF) for i in range(120_000)]
acc, seen = 0, {}
for i in range(250_000):
    m = (i * 2654435761) & 0xFFFFFFFFFF
    acc ^= m | acc >> 3
    seen[m & 1023] = acc.bit_count()
result = (acc, sum(seen.values()), sum(it.size for it in items), int(numpy.arange(10).sum()))
sys.exit(0 if result == EXPECTED else f"calibration result {result}, expected {EXPECTED}")
