"""Deterministic digraph family generators.

Four families are provided:

* ``dt`` -- two directed chains of length t joined through fan layers of
  width r = ceil(sqrt(t)) around a middle vertex z,
* ``gi`` -- a source and a sink joined by i internally disjoint paths with
  two internal vertices each,
* ``path`` -- the directed path on n vertices,
* ``rand`` -- seeded random connected DAGs for test corpora, drawn from
  numpy's PCG64 stream, which orders up to 362 compute without numpy.

Label layouts are part of the contract: every generator documents exactly
which integer each named vertex gets, so callers can address x_t or z by
arithmetic instead of isomorphism searches.  The families' closed-form
counts and the labels of dt's middle layers are in :mod:`dagconvex.structure`.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from typing import NamedTuple

from .core import Digraph
from .errors import InvalidParameter

__all__ = [
    "FamilySpec",
    "gen_dt",
    "gen_gi",
    "gen_path",
    "gen_random_connected_dag",
    "dt_width",
    "dt_order",
]


def _require_positive(value: int, what: str) -> None:
    if value < 1:
        raise InvalidParameter(f"{what} must be >= 1, got {value}")


# Limits of gen_random_connected_dag: every one of the n(n-1)/2 pairs gets
# a draw and every arc costs about 200 bytes, so 20,000 vertices or a
# million expected arcs take a few seconds and about 225 MB.
_RAND_MAX_ORDER = 20_000
_RAND_MAX_ARCS = 1_000_000


# Measured on a 2-core box (Python 3.11.7, numpy 2.4.6): a pure-Python
# draw costs about 1 us, importing numpy and numpy.random 0.15-0.19 s,
# and numpy draws about 15 times faster.  So up to 2**16 pair draws (n <=
# 362, about 70 ms) the stream is drawn by _pcg64 without importing numpy.
_PURE_MAX_DRAWS = 2**16
_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1


def _seed_hasher(const: int, mult: int) -> Callable[[int], int]:
    """The 32-bit hash that ``SeedSequence`` applies with a running constant."""
    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16

    return hashmix


def _pcg64(seed: int) -> Iterator[int]:
    """numpy's ``PCG64(seed)`` outputs, bit for bit: ``SeedSequence`` mixes
    the seed's 32-bit words into a pool of four, ``generate_state`` hashes it
    into the 128-bit state and increment, then LCG steps feed XSL-RR."""
    hash_a, hash_b = _seed_hasher(0x43B0D7E5, 0x931E8875), _seed_hasher(0x8B51F9DD, 0x58F38DED)
    words = [seed & _M32, seed >> 32] if seed >> 32 else [seed]
    pool = [hash_a(word) for word in (words + [0, 0, 0])[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = 0xCA01F9DD * pool[dst] - 0x4973F715 * hash_a(pool[src]) & _M32
                pool[dst] = mixed ^ mixed >> 16
    val = [hash_b(pool[2 * i % 4]) | hash_b(pool[(2 * i + 1) % 4]) << 32 for i in range(4)]
    mult, inc = 0x2360ED051FC65DA44385DF649FCCF645, (val[2] << 65 | val[3] << 1 | 1) & _M128
    state = ((inc + (val[0] << 64 | val[1])) * mult + inc) & _M128
    while True:
        state = (state * mult + inc) & _M128
        low, rot = (state >> 64 ^ state) & _M64, state >> 122
        yield (low >> rot | low << (64 - rot)) & _M64


def _pcg64_permutation(stream: Iterator[int], n: int) -> list[int]:
    """numpy's ``Generator.permutation(n)``: Fisher-Yates, each index drawn
    by masked rejection on the 32-bit halves of outputs, low half first."""
    halves = (half for word in stream for half in (word & _M32, word >> 32))
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        j = next(v for v in (half & mask for half in halves) if v <= i)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def _check_rand(p: float, seed: int) -> None:
    if not 0.0 < p <= 1.0:
        raise InvalidParameter(f"arc probability must be in (0, 1], got {p}")
    if not 0 <= seed < 2**64:
        raise InvalidParameter("seed must fit in 64 unsigned bits")


def _ceil_sqrt(t: int) -> int:
    r = math.isqrt(t)
    return r if r * r == t else r + 1


def dt_width(t: int) -> int:
    """Fan width r = ceil(sqrt(t)) of the dt family."""
    _require_positive(t, "dt parameter")
    return _ceil_sqrt(t)


def dt_order(t: int) -> int:
    """Order 2t + 2r + 1 of the dt family."""
    return 2 * t + 2 * dt_width(t) + 1


def gen_dt(t: int) -> tuple[Digraph, dict[str, int]]:
    """Chain-fan-z-fan-chain digraph of parameter t.

    Layout (consecutive labels): x1..xt are 0..t-1, y1..yr are t..t+r-1,
    z is t+r, y'1..y'r are t+r+1..t+2r, x'1..x't are t+2r+1..2t+2r.
    Arcs: the two chains x_i -> x_{i+1} and x'_i -> x'_{i+1}, plus
    x_t -> y_j, y_j -> z, z -> y'_j, y'_j -> x'_1 for every j.

    Returns the digraph and a label map with keys like "x1", "y2", "z",
    "y'1", "x'3".
    """
    r = dt_width(t)
    z = t + r
    xp = t + 2 * r + 1  # label of x'_1
    arcs: list[tuple[int, int]] = []
    for i in range(t - 1):
        arcs.append((i, i + 1))
        arcs.append((xp + i, xp + i + 1))
    for j in range(r):
        arcs.append((t - 1, t + j))
        arcs.append((t + j, z))
        arcs.append((z, z + 1 + j))
        arcs.append((z + 1 + j, xp))
    labels = {"z": z}
    for i in range(t):
        labels[f"x{i + 1}"] = i
        labels[f"x'{i + 1}"] = xp + i
    for j in range(r):
        labels[f"y{j + 1}"] = t + j
        labels[f"y'{j + 1}"] = z + 1 + j
    return Digraph(2 * t + 2 * r + 1, arcs), labels


def gen_gi(i: int) -> tuple[Digraph, dict[str, int]]:
    """Source s, sink t, and i disjoint paths s -> a_j -> b_j -> t.

    Layout: s is 0, a_j is 2j-1, b_j is 2j, t is 2i+1.  Returns the
    digraph and a label map with keys "s", "t", "a1", "b1", ...
    """
    _require_positive(i, "gi parameter")
    sink = 2 * i + 1
    arcs: list[tuple[int, int]] = []
    labels = {"s": 0, "t": sink}
    for j in range(1, i + 1):
        a, b = 2 * j - 1, 2 * j
        arcs.extend([(0, a), (a, b), (b, sink)])
        labels[f"a{j}"] = a
        labels[f"b{j}"] = b
    return Digraph(2 * i + 2, arcs), labels


def gen_path(n: int) -> Digraph:
    """Directed path 0 -> 1 -> ... -> n-1."""
    _require_positive(n, "path order")
    return Digraph(n, [(j, j + 1) for j in range(n - 1)])


def gen_random_connected_dag(n: int, p: float, seed: int) -> Digraph:
    """Seeded random connected DAG; identical output for identical inputs.

    Draws a uniform permutation as the topological order, keeps each of the
    n(n-1)/2 forward pairs with probability p (one PCG64 stream, fixed draw
    order, one row of pairs per draw so that memory stays O(n + m)), then
    repairs connectivity by sweeping the order once and adding the arc
    between topologically consecutive vertices whenever they still lie in
    different underlying components.  Repair arcs are forward, so the
    result stays acyclic; the stream is pinned by a golden-file test.
    Up to 2**16 pairs (n <= 362) the stream is drawn in pure Python, larger
    orders draw it with numpy; the two read the same bits, so agree.
    Orders above 20,000 and more than 1,000,000 expected arcs
    (p * n(n-1)/2) are refused before anything is drawn.
    """
    _require_positive(n, "order")
    _check_rand(p, seed)
    if n > _RAND_MAX_ORDER:
        raise InvalidParameter(f"rand order {n} exceeds the limit of {_RAND_MAX_ORDER} vertices")
    pairs = n * (n - 1) // 2
    expected = p * pairs
    if expected > _RAND_MAX_ARCS:
        raise InvalidParameter(
            f"rand order {n} with p = {p!r} expects {expected:.0f} arcs, over the limit of {_RAND_MAX_ARCS}"
        )
    if pairs <= _PURE_MAX_DRAWS:
        stream = _pcg64(seed)
        perm = _pcg64_permutation(stream, n)

        def hits(k: int) -> list[int]:  # random() is the top 53 bits of an output
            return [j for j in range(k) if (next(stream) >> 11) * 2.0**-53 < p]
    else:
        try:
            import numpy as np
        except ImportError:
            raise InvalidParameter(
                f"rand order {n} has {pairs} pairs; more than 2**16 are drawn with numpy, which cannot be imported"
            ) from None
        rng = np.random.Generator(np.random.PCG64(seed))
        perm = [int(v) for v in rng.permutation(n)]

        def hits(k: int) -> list[int]:
            return np.flatnonzero(rng.random(k) < p).tolist()

    arcs: list[tuple[int, int]] = []
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a in range(n - 1):
        u = perm[a]
        for j in hits(n - 1 - a):
            v = perm[a + 1 + j]
            arcs.append((u, v))
            parent[find(u)] = find(v)
    for a in range(n - 1):
        ra, rb = find(perm[a]), find(perm[a + 1])
        if ra != rb:
            arcs.append((perm[a], perm[a + 1]))
            parent[ra] = rb
    return Digraph(n, arcs)


_FIELDS = [("family", str), ("param", int), ("p", float | None), ("seed", int | None)]


class FamilySpec(NamedTuple("FamilySpec", _FIELDS)):
    """A parsed family selector such as ``dt:4`` or ``rand:8:0.3:42``.

    ``param`` is t, i, or n depending on the family; ``p`` and ``seed`` are
    only set for ``rand``.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(
        cls, family: str, param: int, p: float | None = None, seed: int | None = None
    ) -> FamilySpec:
        if family not in ("dt", "gi", "path", "rand"):
            raise InvalidParameter(f"unknown family {family!r}")
        _require_positive(param, "family parameter")
        if family == "rand":
            if p is None or seed is None:
                raise InvalidParameter("rand family needs an arc probability and a seed")
            _check_rand(p, seed)
        elif p is not None or seed is not None:
            raise InvalidParameter(f"family {family!r} takes a single parameter")
        return super().__new__(cls, family, param, p, seed)

    @classmethod
    def parse(cls, text: str) -> FamilySpec:
        """Parse ``dt:T``, ``gi:I``, ``path:N``, or ``rand:N:P:SEED``."""
        parts = text.split(":")
        try:
            if len(parts) == 2:
                return cls(parts[0], int(parts[1]))
            if len(parts) == 4 and parts[0] == "rand":
                return cls("rand", int(parts[1]), float(parts[2]), int(parts[3]))
        except ValueError as exc:
            raise InvalidParameter(f"bad family spec {text!r}: {exc}") from exc
        raise InvalidParameter(f"bad family spec {text!r}")

    def spec_string(self) -> str:
        if self.family == "rand":
            return f"rand:{self.param}:{self.p!r}:{self.seed}"
        return f"{self.family}:{self.param}"

    @property
    def order(self) -> int:
        """Order of the digraph this spec generates."""
        if self.family == "dt":
            return dt_order(self.param)
        if self.family == "gi":
            return 2 * self.param + 2
        return self.param

    def build(self) -> Digraph:
        if self.family == "dt":
            return gen_dt(self.param)[0]
        if self.family == "gi":
            return gen_gi(self.param)[0]
        if self.family == "path":
            return gen_path(self.param)
        return gen_random_connected_dag(self.param, self.p, self.seed)
