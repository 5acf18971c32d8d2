"""Segment families over a length-m array and the interval-covering routine.

Two families are committed before any weights are known:

* family 1: every segment of length 1..d from every start, where d is the
  largest power of two with d*d <= m**kappa;
* family 2: for each i in [0, floor(log2 m)], segments of length d*2**i
  whose starts are 1, 1+2**i, 1+2*2**i, ... (anchored at cell 1).

The union is deduplicated: for d = 1 the i = 0 row of family 2 repeats the
singletons of family 1, and keeping one copy lowers per-cell coverage
without weakening any guarantee.

cover_interval reproduces the two-sided covering construction: grow a cover
from the left edge and from the right edge, picking the farthest-reaching
segment each time, then bridge the middle greedily with segments of the
longest length q that fits.  The bridge can need more than two q-segments
under unlucky alignment; the emitted count is checked against
2*log_{d'}(m) + 2 (d' = max(d, 2)) exhaustively at small m rather than
assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence


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
        self.has_family2 = family2
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

    # -- family-2 geometry -------------------------------------------------

    def _f2_first_start(self, length: int, at_least: int) -> Optional[int]:
        """Smallest admitted start >= at_least whose segment fits in [1, m]."""
        step = length // self.d
        j = at_least + (-(at_least - 1)) % step
        if j + length - 1 > self.m:
            return None
        return j

    def _largest_inside(self, x: int, y: int) -> int:
        """Largest committed segment length with an instance inside [x, y]."""
        room = y - x + 1
        for length, step in self._f2_desc:
            if length > room:
                continue
            j = x + (-(x - 1)) % step
            if j + length - 1 <= y:
                return length
        return min(self.d, room)

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

    def _span_back(self, x: int, r: int, hi_bound: int) -> tuple[int, int]:
        """Earliest-starting committed segment with start >= x and end in
        [r, hi_bound], ties broken toward the smaller end, as (lo, hi)."""
        d = self.d
        m = self.m
        length = min(d, r - x + 1)
        blo, bhi = r - length + 1, r
        for length, step in self._f2_desc:
            if r - length + 1 >= blo:
                break
            at_least = x if x > r - length + 1 else r - length + 1
            j = at_least + (-(at_least - 1)) % step
            end = j + length - 1
            if j > r or end > m or end > hi_bound:
                continue
            if j < blo or (j == blo and end < bhi):
                blo, bhi = j, end
        return blo, bhi

    def cover_spans(self, x: int, y: int) -> list[tuple[int, int]]:
        """Covering as raw (lo, hi) tuples; see cover_interval."""
        if not 1 <= x <= y <= self.m:
            raise ValueError(f"bad interval [{x}, {y}] for m={self.m}")
        if y - x + 1 <= self.d:
            return [(x, y)]
        q = self._largest_inside(x, y)
        margin = q // self.d
        if margin < 1:
            margin = 1
        out: list[tuple[int, int]] = []
        p = x
        while p - x < margin and p <= y:
            lo, hi = self._span_reaching(p, y, x)
            out.append((lo, hi))
            p = hi + 1
        right: list[tuple[int, int]] = []
        r = y
        while y - r < margin and r >= p:
            lo, hi = self._span_back(x, r, y)
            right.append((lo, hi))
            r = lo - 1
        while p <= r:
            lo_bound = p - q + 1
            if lo_bound < x:
                lo_bound = x
            lo, hi = self._span_reaching(p, y, lo_bound)
            if hi < p:
                raise AssertionError("covering invariant broken (bridge)")
            out.append((lo, hi))
            p = hi + 1
        out.extend(reversed(right))
        return out

    def cover_interval(self, x: int, y: int) -> list[ArraySegment]:
        """Committed segments inside [x, y] whose union is exactly [x, y]."""
        return [ArraySegment(lo, hi) for lo, hi in self.cover_spans(x, y)]

    def best_segment_in_interval(self, weights: Sequence[float], x: int, y: int
                                 ) -> tuple[ArraySegment, float]:
        """Heaviest committed segment lying inside [x, y]."""
        if len(weights) != self.m:
            raise ValueError("weights length must equal m")
        if not 1 <= x <= y <= self.m:
            raise ValueError(f"bad interval [{x}, {y}] for m={self.m}")
        prefix = [0.0]
        for w in weights:
            prefix.append(prefix[-1] + w)

        def score(seg: ArraySegment) -> float:
            return prefix[seg.hi] - prefix[seg.lo - 1]

        best_seg = ArraySegment(x, x)
        best = score(best_seg)
        # family 1: with non-negative weights only the longest fitting
        # segment from each start can win, plus each singleton.
        for j in range(x, y + 1):
            length = min(self.d, y - j + 1)
            s = score(ArraySegment(j, j + length - 1))
            if s > best:
                best, best_seg = s, ArraySegment(j, j + length - 1)
            w = prefix[j] - prefix[j - 1]
            if w > best:
                best, best_seg = w, ArraySegment(j, j)
        if self.has_family2:
            for length in self._family2_lengths:
                step = length // self.d
                j = self._f2_first_start(length, x)
                while j is not None and j + length - 1 <= y:
                    s = score(ArraySegment(j, j + length - 1))
                    if s > best:
                        best, best_seg = s, ArraySegment(j, j + length - 1)
                    j += step
        return best_seg, best


def build_array_packing(m: int, kappa: float, family2: bool = True) -> ArrayPacking:
    return ArrayPacking(m, kappa, family2=family2)
