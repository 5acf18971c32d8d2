"""Exact dynamic LIS via per-level ordered structures.

The level of an element is the length of the longest increasing subsequence
ending at it; level k's elements, read in index order, have strictly
decreasing values.  The number of nonempty levels equals the LIS.

An insertion places the new element at its level and then, per level above,
promotes one contiguous (by value) interval of elements to the next level;
a deletion mirrors this with one demoted interval per level.  An interval
that arrives at a level lands exactly in the hole the leaving interval
leaves there (or, if none leaves, at the rank where its values fit), so
each moved level costs one ``Seq.replace_range``, two splits and two
joins, plus a bounded number of tree searches to find the ranks.  The
levels hold the handles of a backing ``IndexedSeq`` and the searches order
them by its order labels, one comparison each, so an update looks up no
positions; only ``extract`` and ``levels_snapshot`` turn handles into
positions, for their output.

The demotion procedure is derived symmetrically from the promotion rule
(an element falls exactly when no surviving element one level down is
before it with a smaller value); the randomized oracle suite replays every
operation against patience sorting to validate both directions.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from typing import Iterator, Optional

from . import classic
from .indexed_sequence import DELETE, IndexedSeq, Node, Operation, Seq
from .work import WorkMeter


class ExactDynamicLis:
    """Exact LIS over the handles of a backing ``IndexedSeq``.

    ``insert_handle`` and ``delete_handle`` take the handle the backing's
    ``apply`` returned; a deleted one must still be ordered, so unlinked in
    the same step or a tombstone.  Built from ``values``, the structure owns
    its backing, which ``insert`` and ``delete`` update by position; built
    from None, it has none until ``seed_steps``."""

    def __init__(self, values=(), meter: Optional[WorkMeter] = None,
                 seed: int = 0) -> None:
        self.meter = meter if meter is not None else WorkMeter()
        self._rng = random.Random(seed ^ 0xC4E2)
        self.backing: Optional[IndexedSeq] = None
        self.levels: list[Seq] = []
        if values is None:
            return
        values = list(values)
        piles = classic.levels(values)   # one patience pass, charged here
        self.meter.ticks += len(values) * max(1, max(piles, default=0).bit_length())
        backing = IndexedSeq(meter=self.meter, seed=seed)
        for _ in self.seed_steps(backing, list(backing._load(values)), piles):
            pass

    def seed_steps(self, backing: IndexedSeq, handles: list,
                   piles: list) -> Iterator[None]:
        """Resumable bulk construction over ``backing`` from its ``handles``
        in sequence order and each one's 1-based patience pile
        (``classic.levels``), which is its level: one yield per 64 handles
        grouped by level, then per 64 elements of each level tree and once
        after each, so at most 2 * (n // 64) + (number of levels) yields."""
        self.backing = backing
        n = len(handles)
        if n == 0:
            return
        meter = self.meter
        groups: list[list] = [[] for _ in range(max(piles))]
        # index order means each level receives values in descending order
        for i, h in enumerate(handles):
            groups[piles[i] - 1].append((h.value, h))
            if i % 64 == 63:
                meter.ticks += 64
                yield
        meter.ticks += n % 64
        for pairs in groups:
            level = self._new_seq()
            for i, _ in enumerate(level._load(pairs)):
                if i % 64 == 63:
                    yield
            self.levels.append(level)
            yield

    def _new_seq(self) -> Seq:
        return Seq(meter=self.meter, rng=self._rng)

    # -- queries -------------------------------------------------------------

    def lis(self) -> int:
        return len(self.levels)

    def __len__(self) -> int:
        return len(self.backing)

    def extract(self) -> list[tuple[int, int]]:
        """One LIS witness as (position, value) pairs, increasing in both."""
        if not self.levels:
            return []
        node = self.levels[-1].node_at(1)
        chain = [node]
        for k in range(len(self.levels) - 1, 0, -1):
            lvl = self.levels[k - 1]
            node = lvl.node_at(lvl.rank_after(node.extra.label) - 1)
            chain.append(node)
        chain.reverse()
        position_of = self.backing.position_of
        return [(position_of(n.extra), n.value) for n in chain]

    def levels_snapshot(self) -> list[list[tuple[int, int]]]:
        position_of = self.backing.position_of
        return [[(position_of(n.extra), n.value) for n in lvl.nodes()]
                for lvl in self.levels]

    # -- updates -------------------------------------------------------------

    def insert(self, pos: int, value) -> None:
        self.insert_handle(self.backing.insert(pos, value))

    def delete(self, pos: int) -> None:
        self.delete_handle(self.backing.apply(Operation(DELETE, pos)))

    def insert_handle(self, h: Node) -> None:
        carry = self._new_seq()
        carry.insert(1, h.value, extra=h)
        levels = self.levels
        for k in range(self._level_for(h.label, h.value), len(levels) + 1):
            lvl = levels[k - 1]
            carry = lvl.replace_range(*self._promoted_interval(lvl, carry),
                                      carry)
            if carry.root is None:
                return
        levels.append(carry)

    def delete_handle(self, h: Node) -> None:
        levels = self.levels
        lev = self._level_for(h.label, h.value)
        r = levels[lev - 1].first_value_lt(h.value)[0] - 1
        # every level's dropped interval, bottom up, read before any moves
        spans = [(r, r)]
        for k in range(lev, len(levels)):
            span = self._dropped_interval(levels[k], levels[k - 1], *spans[-1])
            if span is None:
                break
            spans.append(span)
        # then top down: each level takes the interval from above into the
        # hole its own interval leaves
        fell = self._new_seq()
        for j in range(len(spans) - 1, -1, -1):
            fell = levels[lev + j - 1].replace_range(*spans[j], fell)
        assert fell.root.extra is h
        while levels and levels[-1].root is None:
            levels.pop()

    # -- internals -------------------------------------------------------------

    def _level_for(self, label: int, value) -> int:
        """1 + the largest k such that level k holds an element before the
        one labelled ``label`` with a smaller value (the candidate-level
        predicate is monotone): one descent per probe."""
        levels = self.levels
        lo, hi = 0, len(levels)
        while lo < hi:
            mid = (lo + hi + 1) // 2
            _, node = levels[mid - 1].first_value_lt(value)
            if node is not None and node.extra.label < label:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1

    def _promoted_interval(self, lvl: Seq, carry: Seq) -> tuple[int, int]:
        """Ranks [a, b] of lvl's elements that move up one level when the
        elements of `carry` arrive at this level, or (r + 1, r) when none
        do, r being the last rank whose value is above the carry's.

        An element is promoted exactly when some arriving element sits
        before it with a smaller value.  Everything positioned after the
        whole carry only needs the value test against the carry's minimum
        (closed form); positions interleaved with the carry are resolved by
        a short walk over the carry's gaps.  The affected set is one
        contiguous interval, and no element that stays has a value between
        the carry's extremes (the single-interval invariant that the replay
        tests check against patience sorting).  So the carry lands at rank
        a, or at r + 1 when nothing is promoted, and the caller swaps the
        two intervals with one ``replace_range(a, b, carry)``.

        Cost, for t = len(lvl) and u = len(carry): O(log t) label
        descents to find the window of lvl interleaved with the carry; when
        that window [w_lo, end1] is not empty, one read of it and of the
        carry (labels and values, O(w + u) nodes), then two or three
        bisections over those lists per carry gap the walk visits.
        """
        u = len(carry)
        last = carry.node_at(u)
        r_limit = lvl.first_value_lt(last.value)[0] - 1
        nothing = r_limit + 1, r_limit
        if r_limit < 1:
            return nothing
        first = last if u == 1 else carry.node_at(1)
        w_lo = lvl.rank_after(first.extra.label)
        if w_lo > r_limit:
            return nothing
        s2 = w_lo if u == 1 else lvl.rank_after(last.extra.label)
        a = b = None
        # interleaved region: positions strictly inside the carry's span.
        # The window elements between carry elements iw and iw + 1 share
        # the witness value cval[iw]; values descend, so the promoted ones
        # are a prefix of that run.
        end1 = min(s2 - 1, r_limit)
        if w_lo <= end1:
            window = lvl.node_range(w_lo, end1)
            wlab = [n.extra.label for n in window]
            wneg = [-n.value for n in window]   # ascending
            cnodes = carry.node_range(1, u)
            clab = [n.extra.label for n in cnodes]
            cval = [n.value for n in cnodes]
            w = len(window)
            probe = u.bit_length() + 2 * w.bit_length()
            j = 0
            while j < w:
                self.meter.ticks += probe
                iw = bisect_left(clab, wlab[j]) - 1
                v = cval[iw]
                j_next = bisect_right(wlab, clab[iw + 1])
                if -wneg[j] > v:
                    run_end = min(j_next, bisect_left(wneg, -v)) - 1
                    if a is None:
                        a = w_lo + j
                    elif w_lo + j > b + 1:
                        raise AssertionError("promoted set is not one interval")
                    b = w_lo + run_end
                    if run_end < j_next - 1:
                        break
                elif a is not None:
                    break
                j = j_next
        # suffix region: positioned after the whole carry, the carry's last
        # (lowest-valued) element is the witness, so the value cap decides
        if s2 <= r_limit:
            if a is None:
                a = s2
            elif s2 > b + 1:
                raise AssertionError("promoted set is not one interval")
            b = r_limit
        if a is None:
            return nothing
        return a, b

    def _dropped_interval(self, lvl: Seq, support: Seq, lo: int,
                          hi: int) -> Optional[tuple[int, int]]:
        """Ranks of lvl's elements that fall one level when support, the
        level below, loses its ranks [lo, hi].

        The surviving neighbours of that hole are support's ranks lo - 1
        and hi + 1, read before anything moves.  Only elements positioned
        between them can have lost support; they all share the same
        surviving predecessor, whose value caps the dropped set to the
        window's low-value suffix.  (Window elements that kept their old
        predecessor pass the value test automatically.)  The fallen
        interval lands in the hole, so each level then takes it with one
        ``replace_range(lo, hi, fallen)``.
        """
        if lo >= 2:
            prev = support.node_at(lo - 1)
            a = max(lvl.rank_after(prev.extra.label),
                    lvl.first_value_lt(prev.value)[0])
        else:
            a = 1
        if hi < len(support):
            w_hi = lvl.rank_after(support.node_at(hi + 1).extra.label) - 1
        else:
            w_hi = len(lvl)
        if a > w_hi:
            return None
        return a, w_hi
