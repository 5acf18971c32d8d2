"""Segment families over a length-m array and the interval-covering routine.

Two families are committed before any weights are known:

* family 1: every segment of length 1..d from every start, where d is the
  largest power of two with d*d <= m**kappa;
* family 2: for each i in [0, floor(log2 m)], segments of length d*2**i
  whose starts are 1, 1+2**i, 1+2*2**i, ... (anchored at cell 1).

The union is deduplicated: for d = 1 the i = 0 row of family 2 repeats the
singletons of family 1, and keeping one copy lowers per-cell coverage
without weakening any guarantee.

cover_spans builds the greedy interval cover of [x, y]: from p = x it takes
the committed segment inside [x, y] that covers p and reaches farthest, then
moves p past its end, until [x, y] is covered.  This is the textbook greedy
for covering an interval with given intervals, so it uses the fewest
committed segments possible, never more than the paper's two-sided
construction (grow from both edges, then bridge the middle with segments of
the longest fitting length).  The count is checked against
2*log_{d'}(m) + 2 (d' = max(d, 2)) exhaustively at small m by acceptance
criterion 4 rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True, order=True)
class ArraySegment:
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not 1 <= self.lo <= self.hi:
            raise ValueError(f"bad segment [{self.lo}, {self.hi}]")

    def __len__(self) -> int:
        return self.hi - self.lo + 1


def _largest_d(m: int, kappa: float) -> int:
    cap = m ** kappa
    d = 1
    while (2 * d) * (2 * d) <= cap:
        d *= 2
    return d


class ArrayPacking:
    """Immutable segment families for one (m, kappa) instance."""

    def __init__(self, m: int, kappa: float, family2: bool = True) -> None:
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        if not 0.0 < kappa < 1.0:
            raise ValueError(f"kappa must lie in (0, 1), got {kappa}")
        self.m = m
        self.kappa = kappa
        self.d = _largest_d(m, kappa)
        segs: set[ArraySegment] = set()
        for length in range(1, self.d + 1):
            for j in range(1, m - length + 2):
                segs.add(ArraySegment(j, j + length - 1))
        self._family2_lengths: list[int] = []
        if family2:
            i = 0
            while (1 << i) <= m:
                length = self.d << i
                if length <= m:
                    self._family2_lengths.append(length)
                    step = 1 << i
                    for j in range(1, m - length + 2, step):
                        segs.add(ArraySegment(j, j + length - 1))
                i += 1
        self._f2_desc: list[tuple[int, int]] = [
            (length, length // self.d) for length in reversed(self._family2_lengths)]
        self.segments: list[ArraySegment] = sorted(segs)
        cov = [0] * (m + 2)
        for s in self.segments:
            cov[s.lo] += 1
            cov[s.hi + 1] -= 1
        run = 0
        self.coverage: list[int] = []
        for c in range(1, m + 1):
            run += cov[c]
            self.coverage.append(run)

    @property
    def d_prime(self) -> int:
        return max(self.d, 2)

    def max_coverage(self) -> int:
        return max(self.coverage)

    def family2_starts(self, length: int) -> list[int]:
        if length not in self._family2_lengths:
            return []
        step = length // self.d
        return list(range(1, self.m - length + 2, step))

    # -- operations ----------------------------------------------------------

    def _span_reaching(self, p: int, y: int, lo_bound: int) -> tuple[int, int]:
        """Farthest-reaching committed segment with start in [lo_bound, p]
        and end <= y, ties broken toward the smaller start, as (lo, hi)."""
        d = self.d
        m = self.m
        length = min(d, y - p + 1)
        blo, bhi = p, p + length - 1
        for length, step in self._f2_desc:
            if p + length - 1 <= bhi:
                break
            limit = p
            if y - length + 1 < limit:
                limit = y - length + 1
            if m - length + 1 < limit:
                limit = m - length + 1
            if limit < 1:
                continue
            j = limit - (limit - 1) % step
            if j < lo_bound:
                continue
            end = j + length - 1
            if end > bhi or (end == bhi and j < blo):
                blo, bhi = j, end
        return blo, bhi

    def cover_spans(self, x: int, y: int) -> list[tuple[int, int]]:
        """Fewest committed segments inside [x, y] whose union is exactly
        [x, y], as (lo, hi) tuples from left to right."""
        if not 1 <= x <= y <= self.m:
            raise ValueError(f"bad interval [{x}, {y}] for m={self.m}")
        out: list[tuple[int, int]] = []
        p = x
        while p <= y:
            # family 1 holds a segment starting at p, so hi >= p
            lo, hi = self._span_reaching(p, y, x)
            out.append((lo, hi))
            p = hi + 1
        return out

    def best_segment_in_interval(self, weights: Sequence[float], x: int, y: int
                                 ) -> tuple[ArraySegment, float]:
        """Heaviest committed segment lying inside [x, y], for any weights;
        among equal scores the first in ``segments`` order."""
        if len(weights) != self.m:
            raise ValueError("weights length must equal m")
        if not 1 <= x <= y <= self.m:
            raise ValueError(f"bad interval [{x}, {y}] for m={self.m}")
        prefix = [0.0]
        for w in weights:
            prefix.append(prefix[-1] + w)

        def score(seg: ArraySegment) -> float:
            return prefix[seg.hi] - prefix[seg.lo - 1]

        best = max((s for s in self.segments if x <= s.lo and s.hi <= y), key=score)
        return best, score(best)


def build_array_packing(m: int, kappa: float, family2: bool = True) -> ArrayPacking:
    return ArrayPacking(m, kappa, family2=family2)
