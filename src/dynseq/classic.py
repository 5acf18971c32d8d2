"""Exact sequential algorithms and brute-force oracles.

Patience sorting and its relatives: LIS length and witness extraction,
per-element levels, weighted heaviest increasing subsequence, and the
quadratic / exhaustive oracles the randomized test suites replay against.

"Increasing" is strict throughout.  Witness extraction returns the
lexicographically smallest optimal index sequence so tests are deterministic.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations
from typing import Sequence

ORACLE_DP_LIMIT = 10_000
ORACLE_EXHAUSTIVE_LIMIT = 18


class OracleScaleError(ValueError):
    """Input too large for a brute-force oracle."""


def lis_length(values: Sequence[int]) -> int:
    """Length of the longest strictly increasing subsequence, O(n log n)."""
    tails: list[int] = []
    for v in values:
        i = bisect_left(tails, v)
        if i == len(tails):
            tails.append(v)
        else:
            tails[i] = v
    return len(tails)


def levels(values: Sequence[int]) -> list[int]:
    """Level of each element: the length of the longest increasing
    subsequence ending there.  Equals the patience-sorting pile index."""
    tails: list[int] = []
    out: list[int] = []
    for v in values:
        i = bisect_left(tails, v)
        if i == len(tails):
            tails.append(v)
        else:
            tails[i] = v
        out.append(i + 1)
    return out


def _suffix_levels(values: Sequence[int]) -> list[int]:
    """Length of the longest increasing subsequence starting at each element."""
    rev = [-v for v in reversed(values)]
    back = levels(rev)
    back.reverse()
    return back


def lis_extract(values: Sequence[int]) -> list[int]:
    """0-based indices of one LIS witness: among all optimal subsequences,
    the lexicographically smallest index sequence."""
    n = len(values)
    if n == 0:
        return []
    f = _suffix_levels(values)
    target = max(f)
    out: list[int] = []
    prev_val = None
    i = 0
    while target > 0:
        while f[i] != target or (prev_val is not None and values[i] <= prev_val):
            i += 1
        out.append(i)
        prev_val = values[i]
        target -= 1
        i += 1
    return out


def heaviest_increasing(keys: Sequence, weights: Sequence[int]) -> int:
    """Maximum total weight of a strictly increasing run of ``keys``, item i
    weighing ``weights[i]``: one sort to rank the keys, then one prefix-max
    Fenwick pass, O(k log k).  Unchecked: keys must be distinct and weights
    positive; ``weighted_his`` is the validating entry point."""
    k = len(keys)
    rank = [0] * k
    for r, i in enumerate(sorted(range(k), key=keys.__getitem__), 1):
        rank[i] = r
    tree = [0] * (k + 1)
    best = 0
    for i in range(k):
        r = rank[i]
        j = r - 1
        cur = 0
        while j:
            if tree[j] > cur:
                cur = tree[j]
            j &= j - 1
        cur += weights[i]
        while r <= k:
            if tree[r] < cur:
                tree[r] = cur
            r += r & -r
        if cur > best:
            best = cur
    return best


def weighted_his(items: Sequence[tuple[int, int]]) -> int:
    """Maximum total weight of a strictly increasing subsequence of
    (value, weight) items, O(k log k) via a prefix-max Fenwick tree."""
    keys = [v for v, _ in items]
    weights = [w for _, w in items]
    for w in weights:
        if w < 1:
            raise ValueError("weights must be >= 1")
    if len(set(keys)) != len(keys):
        raise ValueError("values must be distinct")
    return heaviest_increasing(keys, weights)


def weighted_dtm(items: Sequence[tuple[int, int]]) -> int:
    """Minimum total weight to delete so the remaining items increase."""
    return sum(w for _, w in items) - weighted_his(items)


def brute_lis(values: Sequence[int]) -> int:
    """Quadratic DP oracle; guarded against oversized inputs."""
    n = len(values)
    if n > ORACLE_DP_LIMIT:
        raise OracleScaleError(f"n={n} exceeds DP oracle limit {ORACLE_DP_LIMIT}")
    best = [0] * n
    top = 0
    for i in range(n):
        vi = values[i]
        b = 0
        for j in range(i):
            if values[j] < vi and best[j] > b:
                b = best[j]
        best[i] = b + 1
        if best[i] > top:
            top = best[i]
    return top


def brute_dtm(values: Sequence[int]) -> int:
    return len(values) - brute_lis(values)


def exhaustive_lis(values: Sequence[int]) -> int:
    """Check every subsequence; n <= 18 only."""
    n = len(values)
    if n > ORACLE_EXHAUSTIVE_LIMIT:
        raise OracleScaleError(
            f"n={n} exceeds exhaustive oracle limit {ORACLE_EXHAUSTIVE_LIMIT}")
    best = 0
    for size in range(n, best, -1):
        for idxs in combinations(range(n), size):
            vals = [values[i] for i in idxs]
            if all(vals[i] < vals[i + 1] for i in range(len(vals) - 1)):
                return size
    return best


def exhaustive_weighted_his(items: Sequence[tuple[int, int]]) -> int:
    """Try every subset; k <= 18 only."""
    k = len(items)
    if k > ORACLE_EXHAUSTIVE_LIMIT:
        raise OracleScaleError(
            f"k={k} exceeds exhaustive oracle limit {ORACLE_EXHAUSTIVE_LIMIT}")
    best = 0
    for size in range(1, k + 1):
        for idxs in combinations(range(k), size):
            vals = [items[i][0] for i in idxs]
            if all(vals[i] < vals[i + 1] for i in range(len(vals) - 1)):
                total = sum(items[i][1] for i in idxs)
                if total > best:
                    best = total
    return best


def longest_decreasing_extract(values: Sequence[int]) -> list[int]:
    """0-based indices of a longest strictly decreasing subsequence."""
    return lis_extract([-v for v in values])
