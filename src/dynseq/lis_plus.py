"""Insert-only LIS with power-of-two buckets.

Every inserted element becomes a finalized size-1 bucket.  Whenever two
finalized buckets of the same size are free, they merge into one pending
bucket of twice the size whose LIS computation is paced across the
following operations (a size-2k bucket finalizes within 2k of them); on
finalization the two constituents retire.  Elements are therefore covered
by exactly one finalized bucket at all times, at most one bucket per size
is pending, and at most three finalized buckets exist per size.  The
estimate is the maximum LIS over finalized buckets: a lower bound on the
true LIS and within a factor of the number of finalized buckets (O(log n))
of it.

A bucket's member order is frozen at creation; insert-only streams never
reorder existing elements, so frozen bucket LIS values stay valid.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, Optional

from .indexed_sequence import INSERT, IndexedSeq, Operation
from .work import WorkMeter


class InsertOnlyError(ValueError):
    """Deletion fed to the insert-only engine."""


class Bucket:
    __slots__ = ("size", "handles", "state", "lis_value", "task", "age",
                 "reserved", "parts")

    PENDING = "pending"
    FINAL = "finalized"

    def __init__(self, size: int, handles: list, state: str, lis_value: int = 0):
        self.size = size
        self.handles = handles
        self.state = state
        self.lis_value = lis_value
        self.task: Optional[Iterator[None]] = None
        self.age = 0
        self.reserved = False
        self.parts: Optional[tuple["Bucket", "Bucket"]] = None


class LisPlus:
    """Dynamic LIS estimator for insert-only operation streams."""

    def __init__(self, meter: Optional[WorkMeter] = None, seed: int = 0) -> None:
        self.meter = meter if meter is not None else WorkMeter()
        self.backing = IndexedSeq(meter=self.meter, seed=seed)
        self.finalized: dict[int, list[Bucket]] = {}
        self.pending: dict[int, Bucket] = {}

    def __len__(self) -> int:
        return len(self.backing)

    def apply(self, op: Operation) -> None:
        if op.kind != INSERT:
            raise InsertOnlyError("this engine accepts insertions only")
        self.insert(op.position, op.value)

    def insert(self, pos: int, value) -> None:
        # checked once, before _pump, so that a rejected insert changes nothing
        op = Operation(INSERT, pos, value)
        self.backing._check(op)
        self._pump()
        h = self.backing._insert_checked(op)
        unit = Bucket(1, [h], Bucket.FINAL, lis_value=1)
        self.finalized.setdefault(1, []).append(unit)
        self._start_merges()

    def query(self) -> int:
        best = 0
        for buckets in self.finalized.values():
            for b in buckets:
                if b.lis_value > best:
                    best = b.lis_value
        return best

    # -- bucket mechanics -----------------------------------------------------

    def _start_merges(self) -> None:
        changed = True
        while changed:
            changed = False
            for size in sorted(self.finalized):
                if 2 * size in self.pending:
                    continue
                free = [b for b in self.finalized[size] if not b.reserved]
                if len(free) >= 2:
                    left, right = free[0], free[1]
                    left.reserved = right.reserved = True
                    merged = Bucket(2 * size, [], Bucket.PENDING)
                    merged.parts = (left, right)
                    merged.task = self._merge_task(merged, left, right)
                    next(merged.task)  # prime: aligns pacing with 2 units/op
                    self.pending[2 * size] = merged
                    changed = True

    def _pump(self) -> None:
        """Advance every pending bucket by two work units."""
        done: list[int] = []
        for size, b in self.pending.items():
            b.age += 1
            try:
                next(b.task)
                next(b.task)
            except StopIteration:
                done.append(size)
        for size in done:
            b = self.pending.pop(size)
            assert b.age <= size, "bucket finalized later than its pacing window"
            b.state = Bucket.FINAL
            b.task = None
            left, right = b.parts
            self.finalized[size // 2] = [
                x for x in self.finalized[size // 2] if x is not left and x is not right]
            if not self.finalized[size // 2]:
                del self.finalized[size // 2]
            b.parts = None
            self.finalized.setdefault(size, []).append(b)
        if done:
            self._start_merges()

    def _merge_task(self, merged: Bucket, left: Bucket, right: Bucket) -> Iterator[None]:
        order: list = []
        a, b = left.handles, right.handles
        i = j = 0
        pos = self.backing.position_of
        while i < len(a) and j < len(b):
            if pos(a[i]) < pos(b[j]):
                order.append(a[i])
                i += 1
            else:
                order.append(b[j])
                j += 1
            yield
        while i < len(a):
            order.append(a[i])
            i += 1
            yield
        while j < len(b):
            order.append(b[j])
            j += 1
            yield
        tails: list = []
        for idx, h in enumerate(order):
            v = h.value
            t = bisect_left(tails, v)
            if t == len(tails):
                tails.append(v)
            else:
                tails[t] = v
            self.meter.ticks += max(1, len(tails).bit_length())
            if idx < len(order) - 1:
                yield
        merged.handles = order
        merged.lis_value = len(tails)

    # -- introspection for tests ------------------------------------------------

    def bucket_sizes(self) -> dict[str, list[int]]:
        out = {"finalized": [], "pending": []}
        for size, buckets in sorted(self.finalized.items()):
            out["finalized"].extend([size] * len(buckets))
        out["pending"] = sorted(self.pending)
        return out

    def coverage_ids(self) -> list[int]:
        ids = []
        for buckets in self.finalized.values():
            for b in buckets:
                ids.extend(id(h) for h in b.handles)
        return ids

    def finalized_count(self) -> int:
        return sum(len(v) for v in self.finalized.values())
