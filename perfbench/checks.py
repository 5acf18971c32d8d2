"""Oracles and output checkers, independent of the package under test.

Nothing here imports ``dynseq``: the LIS/LDS oracle is a patience sort
written from scratch, and the checkers validate engine
outputs (estimates, witnesses, partitions) against the benchmark's own
shadow copy of the array.  Each checker returns ``None`` when the output is
valid and a one-line reason otherwise.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional, Sequence


def lis_len(values: Sequence[int]) -> int:
    """Length of the longest strictly increasing subsequence (patience sort)."""
    tails: list[int] = []
    for v in values:
        k = bisect_left(tails, v)
        if k == len(tails):
            tails.append(v)
        else:
            tails[k] = v
    return len(tails)


def lds_len(values: Sequence[int]) -> int:
    """Length of the longest strictly decreasing subsequence."""
    return lis_len([-v for v in values])


def check_lis_estimate(estimate: int, oracle: int, epsilon: Optional[float]) -> Optional[str]:
    """A LIS estimate must not exceed the oracle, must be positive on a
    non-empty array, and with ``epsilon`` given must reach oracle/(1+eps)."""
    if estimate > oracle:
        return f"estimate {estimate} exceeds the LIS {oracle}"
    if oracle > 0 and estimate < 1:
        return f"estimate {estimate} on a non-empty array"
    if epsilon is not None and estimate * (1.0 + epsilon) < oracle:
        return f"estimate {estimate} below LIS {oracle} / (1+{epsilon})"
    return None


def check_dtm_estimate(estimate: int, exact: int, epsilon: float) -> Optional[str]:
    """A DTM estimate must lie in [exact, (1+eps) * exact]."""
    if estimate < exact:
        return f"estimate {estimate} below the DTM {exact}"
    if estimate > (1.0 + epsilon) * exact:
        return f"estimate {estimate} above (1+{epsilon}) * DTM {exact}"
    return None


def check_witness(array: Sequence[int], witness, length: int) -> Optional[str]:
    """``witness`` is a list of (1-based position, value) pairs claimed to be
    a strictly increasing subsequence of ``array`` with ``length`` items."""
    if len(witness) != length:
        return f"witness has {len(witness)} items, estimate is {length}"
    prev_pos, prev_val = 0, None
    for pos, val in witness:
        if not isinstance(pos, int) or not 1 <= pos <= len(array):
            return f"witness position {pos!r} outside [1, {len(array)}]"
        if array[pos - 1] != val:
            return f"witness claims {val} at position {pos}, array has {array[pos - 1]}"
        if pos <= prev_pos:
            return f"witness positions not increasing at {pos}"
        if prev_val is not None and val <= prev_val:
            return f"witness values not increasing at position {pos}"
        prev_pos, prev_val = pos, val
    return None


def check_partition(values: Sequence[int], parts: Sequence[Sequence[int]],
                    directions: Sequence[str]) -> Optional[str]:
    """Parts of 1-based indices must be disjoint, cover every index, and each
    read in index order be strictly increasing ('+') or decreasing ('-')."""
    if len(parts) != len(directions):
        return f"{len(parts)} parts but {len(directions)} directions"
    seen = [False] * len(values)
    for part, direction in zip(parts, directions):
        if direction not in ("+", "-"):
            return f"unknown direction {direction!r}"
        if not part:
            return "empty part"
        prev_idx, prev_val = 0, None
        for idx in part:
            if not isinstance(idx, int) or not 1 <= idx <= len(values):
                return f"index {idx!r} outside [1, {len(values)}]"
            if seen[idx - 1]:
                return f"index {idx} in two parts"
            seen[idx - 1] = True
            if idx <= prev_idx:
                return f"part indices not increasing at {idx}"
            v = values[idx - 1]
            if prev_val is not None and (v <= prev_val if direction == "+" else v >= prev_val):
                return f"part '{direction}' not strictly monotone at index {idx}"
            prev_idx, prev_val = idx, v
    if not all(seen):
        return f"index {seen.index(False) + 1} in no part"
    return None


def min_parts(values: Sequence[int]) -> int:
    """Lower bound on the parts of any monotone partition:
    ceil(n / max(LIS, LDS)), since no part is longer than that maximum."""
    n = len(values)
    if n == 0:
        return 0
    longest = max(lis_len(values), lds_len(values))
    return -(-n // longest)
