"""Decomposition of a distinct-valued sequence into monotone subsequences.

Both routes repeatedly strip the longer of (an estimate of) the longest
increasing and longest decreasing subsequence.  The baseline computes both
exactly with patience sorting per round; the dynamic route keeps two
approximate engines alive, one fed in original order and one in reverse
order (whose increasing subsequences are the original's decreasing ones),
extracts the winner's witness, and deletes it from both engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .classic import lis_extract, longest_decreasing_extract
from .dynamic_lis import hierarchy_engine
from .indexed_sequence import dele, ins
from .work import WorkMeter

INCREASING = "+"
DECREASING = "-"


@dataclass
class Partition:
    """Disjoint covering parts of 1-based input indices, each strictly
    monotone in its stated direction; ``ops_issued`` counts the engine
    operations the dynamic route spent."""

    parts: list[list[int]] = field(default_factory=list)
    directions: list[str] = field(default_factory=list)
    ops_issued: int = 0

    def __len__(self) -> int:
        return len(self.parts)


def partition_is_valid(values: Sequence[int], partition: Partition) -> bool:
    seen: set[int] = set()
    for part, direction in zip(partition.parts, partition.directions):
        if not part:
            return False
        prev = None
        for idx in part:
            if not 1 <= idx <= len(values) or idx in seen:
                return False
            seen.add(idx)
            if prev is not None:
                if idx <= prev[0]:
                    return False
                if direction == INCREASING and values[idx - 1] <= prev[1]:
                    return False
                if direction == DECREASING and values[idx - 1] >= prev[1]:
                    return False
            prev = (idx, values[idx - 1])
    return len(seen) == len(values) and len(partition.parts) == len(partition.directions)


def partition_baseline(values: Sequence[int]) -> Partition:
    """Exact greedy: strip the longer of LIS / longest decreasing, repeat."""
    if len(set(values)) != len(values):
        raise ValueError("values must be distinct")
    remaining = list(range(len(values)))
    out = Partition()
    while remaining:
        vals = [values[i] for i in remaining]
        up = lis_extract(vals)
        down = longest_decreasing_extract(vals)
        if len(up) >= len(down):
            chosen, direction = up, INCREASING
        else:
            chosen, direction = down, DECREASING
        out.parts.append([remaining[i] + 1 for i in chosen])
        out.directions.append(direction)
        chosen_set = set(chosen)
        remaining = [r for i, r in enumerate(remaining) if i not in chosen_set]
    return out


def partition_dynamic(values: Sequence[int], epsilon: float,
                      meter: Optional[WorkMeter] = None) -> Partition:
    """Approximate route via two dynamic LIS engines; the result's
    ``ops_issued`` is the engine-operation count."""
    n = len(values)
    if len(set(values)) != n:
        raise ValueError("values must be distinct")
    fwd = hierarchy_engine(epsilon, meter=meter)
    rev = hierarchy_engine(epsilon, meter=meter)
    # values are distinct, so a witness's values name its inputs; rev holds
    # fwd's array reversed, so fwd position p is rev position len + 1 - p
    index_of = {v: i for i, v in enumerate(values)}
    ops = 0
    for i, v in enumerate(values):
        fwd.apply(ins(i + 1, v))
        ops += 1
    for i, v in enumerate(reversed(values)):
        rev.apply(ins(i + 1, v))
        ops += 1
    out = Partition()
    while len(fwd):
        qf = fwd.query()
        qr = rev.query()
        if qf >= qr:
            witness = fwd.extract()
            direction = INCREASING
        else:
            witness = rev.extract()
            direction = DECREASING
        if not witness:
            raise AssertionError("empty witness on a nonempty array")
        # the witness's fwd positions, ascending
        mirrored = len(fwd) + 1
        positions = sorted(p for p, _ in witness)
        if direction == DECREASING:
            positions = [mirrored - p for p in reversed(positions)]
        for p in reversed(positions):
            fwd.apply(dele(p))
            ops += 1
        for p in positions:
            rev.apply(dele(mirrored - p))
            ops += 1
        out.parts.append(sorted(index_of[v] + 1 for _, v in witness))
        out.directions.append(direction)
    out.ops_issued = ops
    return out
