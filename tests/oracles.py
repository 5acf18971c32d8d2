"""Independent oracles for the test suite.

fenwick_lis computes LIS lengths with a max-prefix Fenwick tree over value
ranks: a different algorithm family from the patience-sorting code under
test, so replay checks do not compare an implementation against itself.
"""

from __future__ import annotations

import random


def fenwick_lis(values) -> int:
    prefixes = fenwick_lis_prefixes(values)
    return prefixes[-1] if prefixes else 0


def fenwick_lis_prefixes(values) -> list[int]:
    """The LIS of every prefix of values, in one pass."""
    n = len(values)
    out: list[int] = []
    order = sorted(values)
    rank = {v: i + 1 for i, v in enumerate(order)}
    tree = [0] * (n + 1)
    best = 0
    for v in values:
        r = rank[v] - 1
        cur = 0
        i = r
        while i > 0:
            if tree[i] > cur:
                cur = tree[i]
            i -= i & (-i)
        cur += 1
        i = rank[v]
        while i <= n:
            if tree[i] < cur:
                tree[i] = cur
            i += i & (-i)
        if cur > best:
            best = cur
        out.append(best)
    return out


def fenwick_dtm(values) -> int:
    return len(values) - fenwick_lis(values)


def fresh_values(rng: random.Random, used: set, count: int = 1,
                 hi: int = 1 << 40) -> list[int]:
    out = []
    while len(out) < count:
        v = rng.randint(0, hi)
        if v not in used:
            used.add(v)
            out.append(v)
    return out
