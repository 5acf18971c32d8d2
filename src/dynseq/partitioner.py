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
    ops = 0
    shadow_f: list[int] = []
    shadow_r: list[int] = []
    for i, v in enumerate(values):
        fwd.apply(ins(i + 1, v))
        ops += 1
        shadow_f.append(i)
    for i in range(n - 1, -1, -1):
        rev.apply(ins(len(shadow_r) + 1, values[i]))
        ops += 1
        shadow_r.append(i)
    out = Partition()
    while shadow_f:
        qf = fwd.query()
        qr = rev.query()
        if qf >= qr:
            witness = fwd.extract()
            originals = [shadow_f[p - 1] for p, _ in witness]
            direction = INCREASING
        else:
            witness = rev.extract()
            originals = [shadow_r[p - 1] for p, _ in witness]
            direction = DECREASING
        if not originals:
            raise AssertionError("empty witness on a nonempty array")
        chosen = set(originals)
        for shadow, engine in ((shadow_f, fwd), (shadow_r, rev)):
            doomed = sorted((i for i, orig in enumerate(shadow) if orig in chosen),
                            reverse=True)
            for i in doomed:
                engine.apply(dele(i + 1))
                ops += 1
                shadow.pop(i)
        out.parts.append(sorted(o + 1 for o in originals))
        out.directions.append(direction)
    out.ops_issued = ops
    return out
