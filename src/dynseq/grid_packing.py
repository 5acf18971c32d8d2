"""Row/column segment families over an m x m grid, the precedes relation,
the non-conflicting-chain DP, and the monotone-path table score.

Orientation: row 1 is the bottom (smallest values), column 1 the left.
A segment A precedes B when every cell of A is strictly above and strictly
to the right of every cell of B; a chain of segments is any set in which
one of each pair precedes the other.  The chain DP maximizes total segment
score over chains; the table score (best monotone bottom-left to top-right
path) upper-bounds it for cell-sum scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .array_packing import ArrayPacking

ROW = "row"
COL = "col"


@dataclass(frozen=True)
class GridSegment:
    id: int
    orientation: str
    line: int
    lo: int
    hi: int

    @property
    def min_row(self) -> int:
        return self.line if self.orientation == ROW else self.lo

    @property
    def max_row(self) -> int:
        return self.line if self.orientation == ROW else self.hi

    @property
    def min_col(self) -> int:
        return self.lo if self.orientation == ROW else self.line

    @property
    def max_col(self) -> int:
        return self.hi if self.orientation == ROW else self.line

    @property
    def bottom_left(self) -> tuple[int, int]:
        return (self.min_row, self.min_col)

    @property
    def top_right(self) -> tuple[int, int]:
        return (self.max_row, self.max_col)

    def cells(self):
        if self.orientation == ROW:
            return ((self.line, c) for c in range(self.lo, self.hi + 1))
        return ((r, self.line) for r in range(self.lo, self.hi + 1))


def precedes(a: GridSegment, b: GridSegment) -> bool:
    """True iff every cell of a is strictly higher and strictly to the
    right of every cell of b."""
    return a.min_row > b.max_row and a.min_col > b.max_col


def non_conflicting(a: GridSegment, b: GridSegment) -> bool:
    return precedes(a, b) or precedes(b, a)


class GridPacking:
    """2m array packings (one per row and per column) over an m x m grid.

    ``child_of[sid]`` is the index of segment sid's cell set among the
    distinct ones, and ``cell_children[cell]`` the sorted indices of the
    cell sets covering a cell: a grid level keeps one child per cell set.
    """

    def __init__(self, m: int, kappa: float, family2: bool = True) -> None:
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        self.m = m
        self.kappa = kappa
        self.line_packing = ArrayPacking(m, kappa, family2=family2)
        segs: list[GridSegment] = []
        for r in range(1, m + 1):
            for sp in self.line_packing.segments:
                segs.append(GridSegment(len(segs), ROW, r, sp.lo, sp.hi))
        for c in range(1, m + 1):
            for sp in self.line_packing.segments:
                segs.append(GridSegment(len(segs), COL, c, sp.lo, sp.hi))
        self.segments = segs
        # per-cell covering ids; for the DP, per top-right cell [row][col]
        # the segments ending there as (id, 0-based bottom-left row, col)
        self.cell_cover: dict[tuple[int, int], list[int]] = {}
        self._by_top_right = [[[] for _ in range(m + 1)] for _ in range(m + 1)]
        for s in segs:
            row, col = s.top_right
            r0, c0 = s.bottom_left
            self._by_top_right[row][col].append((s.id, r0 - 1, c0 - 1))
            for cell in s.cells():
                self.cell_cover.setdefault(cell, []).append(s.id)
        # one child per distinct cell set, numbered in first-seen order: the
        # row segment [c, c] of row r covers the cell of the column segment
        # [r, r] of column c; a segment's two corners fix its cell set
        index: dict[tuple, int] = {}
        self.child_of = [index.setdefault((s.bottom_left, s.top_right), len(index))
                         for s in segs]
        self.cell_children = {
            cell: sorted({self.child_of[sid] for sid in sids})
            for cell, sids in self.cell_cover.items()}

    def coverage_at(self, row: int, col: int) -> int:
        return len(self.cell_cover.get((row, col), ()))

    def max_coverage(self) -> int:
        return max(len(v) for v in self.cell_cover.values())

    def segment_score(self, seg: GridSegment, weights: Sequence[Sequence[float]]) -> float:
        """Sum of cell weights under one segment; weights[r-1][c-1] layout."""
        if seg.orientation == ROW:
            row = weights[seg.line - 1]
            return sum(row[c - 1] for c in range(seg.lo, seg.hi + 1))
        return sum(weights[r - 1][seg.line - 1] for r in range(seg.lo, seg.hi + 1))

    def all_scores(self, weights: Sequence[Sequence[float]]) -> list[float]:
        """Cell-weight sums for every segment, via per-line prefix sums."""
        m = self.m
        rowpre = []
        for r in range(m):
            acc = [0.0]
            for c in range(m):
                acc.append(acc[-1] + weights[r][c])
            rowpre.append(acc)
        colpre = []
        for c in range(m):
            acc = [0.0]
            for r in range(m):
                acc.append(acc[-1] + weights[r][c])
            colpre.append(acc)
        out = []
        for s in self.segments:
            if s.orientation == ROW:
                pre = rowpre[s.line - 1]
            else:
                pre = colpre[s.line - 1]
            out.append(pre[s.hi] - pre[s.lo - 1])
        return out

    def chain_dp(self, scores: Sequence[float]) -> tuple[float, list[int]]:
        """Best total score of a chain of pairwise non-conflicting segments,
        plus one witness chain (ids, bottom-left to top-right order).

        D[i][j] is the best chain confined to the bottom i rows and left j
        columns; a segment with top-right (i, j) extends D[i'-1][j'-1] where
        (i', j') is its bottom-left corner.
        """
        if len(scores) != len(self.segments):
            raise ValueError("one score per segment required")
        m = self.m
        width = m + 1
        D = [[0.0] * width for _ in range(width)]
        # decision per cell: -1 take D[i-1][j], -2 take D[i][j-1], else the
        # (id, corner row, corner col) entry of the segment taken
        decision: list[list] = [[-1] * width for _ in range(width)]
        for i in range(1, width):
            Di = D[i]
            deci = decision[i]
            Dprev = D[i - 1]
            ends = self._by_top_right[i]
            for j in range(1, width):
                best = Dprev[j]
                pick = -1
                if Di[j - 1] > best:
                    best = Di[j - 1]
                    pick = -2
                for end in ends[j]:
                    sid, r0, c0 = end
                    cand = D[r0][c0] + scores[sid]
                    if cand > best:
                        best = cand
                        pick = end
                Di[j] = best
                deci[j] = pick
        chain: list[int] = []
        i = j = m
        while i > 0 and j > 0:
            pick = decision[i][j]
            if pick == -1:
                i -= 1
            elif pick == -2:
                j -= 1
            else:
                sid, i, j = pick
                chain.append(sid)
        chain.reverse()
        return D[m][m], chain


def table_score(weights: Sequence[Sequence[float]]) -> tuple[float, list[tuple[int, int]]]:
    """Best monotone path (up/right moves) from cell (1,1) to (m,m):
    score and the path as (row, col) cells."""
    m = len(weights)
    if m == 0:
        return 0.0, []
    P = [[0.0] * (m + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        wrow = weights[i - 1]
        Pi = P[i]
        Pprev = P[i - 1]
        for j in range(1, m + 1):
            best = Pprev[j] if Pprev[j] > Pi[j - 1] else Pi[j - 1]
            Pi[j] = wrow[j - 1] + best
    path = []
    i = j = m
    while True:
        path.append((i, j))
        if i == 1 and j == 1:
            break
        if j == 1 or (i > 1 and P[i - 1][j] >= P[i][j - 1]):
            i -= 1
        else:
            j -= 1
    path.reverse()
    return P[m][m], path


def build_grid_packing(m: int, kappa: float, family2: bool = True) -> GridPacking:
    return GridPacking(m, kappa, family2=family2)


def random_cell_weights(m: int, rng) -> list[list[int]]:
    """Adversarial-leaning weight matrices: uniform noise, sparse spikes,
    or weight concentrated along one row / column interval (the patterns
    long segments exist to capture)."""
    style = rng.randrange(4)
    w = [[0] * m for _ in range(m)]
    if style == 0:
        for i in range(m):
            for j in range(m):
                w[i][j] = rng.randint(0, 9)
    elif style == 1:
        for _ in range(max(1, m // 2)):
            w[rng.randrange(m)][rng.randrange(m)] = rng.randint(5, 100)
    elif style == 2:
        r = rng.randrange(m)
        lo, hi = (0, m - 1) if rng.random() < 0.5 else sorted(
            (rng.randrange(m), rng.randrange(m)))
        level = rng.randint(5, 20)  # even spread: no single cell dominates
        for j in range(lo, hi + 1):
            w[r][j] = level
        if rng.random() < 0.5:
            for _ in range(m):
                w[rng.randrange(m)][rng.randrange(m)] += rng.randint(0, 3)
    else:
        c = rng.randrange(m)
        lo, hi = (0, m - 1) if rng.random() < 0.5 else sorted(
            (rng.randrange(m), rng.randrange(m)))
        level = rng.randint(5, 20)
        for i in range(lo, hi + 1):
            w[i][c] = level
        if rng.random() < 0.5:
            for _ in range(m):
                w[rng.randrange(m)][rng.randrange(m)] += rng.randint(0, 3)
    return w


def exhaustive_chain_score(g: GridPacking, scores: Sequence[float],
                           limit: int = 22) -> float:
    """Brute-force oracle: best total over all subsets of pairwise
    non-conflicting segments, after dropping zero-score segments."""
    idxs = [i for i, s in enumerate(scores) if s > 0]
    if len(idxs) > limit:
        raise ValueError(f"{len(idxs)} nonzero segments exceed oracle limit {limit}")
    segs = g.segments
    best = 0.0

    def rec(pos: int, chosen: list[int], total: float) -> None:
        nonlocal best
        if total > best:
            best = total
        for t in range(pos, len(idxs)):
            sid = idxs[t]
            if all(non_conflicting(segs[sid], segs[c]) for c in chosen):
                chosen.append(sid)
                rec(t + 1, chosen, total + scores[sid])
                chosen.pop()

    rec(0, [], 0.0)
    return best
