"""Dynamic LIS engines.

Three estimators share one public surface (apply / query / extract):

* naive: recompute patience sorting per query, exact;
* sqrt: block algorithm that either freezes a long witness and reports
  ``r - i`` (when the LIS is large) or runs the exact level structure live
  (when it is small), giving a (1+eps) guarantee at every step;
* hierarchy: grid-packing levels whose per-segment sub-problems are solved
  by child estimators one level shallower, combined by the
  non-conflicting-chain DP, exact below a size cutoff.

Internally the grid family addresses elements by immutable order keys
rather than positions: a key is assigned once at insertion, so per-segment
membership can be kept in plain sorted lists and an element's routing never
changes while positions shift.  A key is a byte string read as a base-256
number: a ``KEY_WHOLE``-byte big-endian whole part, then fraction bytes with
no trailing zero byte, so byte order (compared in C) is numeric order.  The
first key is 2^63, a prepend or an append steps the neighbor's whole part
by one, and an insert between two keys takes their midpoint, one fraction
byte longer when the two are closer than 2 units in their last byte.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import islice
from typing import Any, Optional

from .block_scheduler import GeneratorBlock, WrappedEstimator
from .classic import lis_extract, lis_length
from .exact_lis import ExactDynamicLis
from .grid_packing import GridPacking
from .indexed_sequence import DELETE, INSERT, IndexedSeq, Operation, _check_op
from .work import WorkMeter

KEY_WHOLE = 8
FIRST_KEY = (1 << 63).to_bytes(KEY_WHOLE, "big")
BASE_CUTOFF = 64


def _key_step(key: bytes, step: int) -> bytes:
    """The fraction-free key ``step`` units from key's whole part."""
    whole = int.from_bytes(key[:KEY_WHOLE], "big") + step
    return whole.to_bytes(KEY_WHOLE, "big")


def _key_between(lo: bytes, hi: bytes) -> bytes:
    """A fresh key strictly between the keys lo < hi."""
    width = max(len(lo), len(hi))
    a = int.from_bytes(lo, "big") << 8 * (width - len(lo))
    b = int.from_bytes(hi, "big") << 8 * (width - len(hi))
    if b - a < 2:
        a <<= 8
        b <<= 8
        width += 1
    mid = ((a + b) >> 1).to_bytes(width, "big")
    return mid[:KEY_WHOLE] + mid[KEY_WHOLE:].rstrip(b"\0")


class EngineContext:
    """Shared configuration and counters for one engine stack."""

    __slots__ = ("kappa", "cutoff", "meter", "touched_segments",
                 "fault_skip_segment", "_grids")

    def __init__(self, kappa: float, meter: WorkMeter,
                 cutoff: int = BASE_CUTOFF) -> None:
        self.kappa = kappa
        self.cutoff = cutoff
        self.meter = meter
        self.touched_segments = 0
        self.fault_skip_segment = False   # mutation-testing hook (CLI --fault)
        self._grids: dict[int, GridPacking] = {}

    def grid(self, m: int) -> GridPacking:
        """The m x m packing at this engine's kappa; immutable, so every
        generation of every level shares one."""
        g = self._grids.get(m)
        if g is None:
            g = self._grids[m] = GridPacking(m, self.kappa)
        return g


# ---------------------------------------------------------------------------
# keyed engines (internal): elements addressed by stable order keys


def _exact(level: int, n: int, ctx: EngineContext) -> bool:
    """The one exact-or-grid rule: exact at recursion depth 0 or for fewer
    than ``ctx.cutoff`` elements, a grid level otherwise."""
    return level < 1 or n < ctx.cutoff


class KeyedNaive:
    """Exact keyed estimator: sorted key/value lists, patience per query.

    It is also the mirror of a ``KeyedWrapped`` (``len``, ``apply``), so a
    keyed engine holds its elements in one pair of lists: its exact
    generations answer from them, its grid generations copy them when they
    are built, and ``HierarchyLis``, the top keyed engine, reads positions
    from its own.  It takes over the lists it is given.
    """

    __slots__ = ("keys", "values", "ctx", "_dirty", "_lis")

    def __init__(self, keys: list, values: list, ctx: EngineContext) -> None:
        self.keys = keys
        self.values = values
        self.ctx = ctx
        self._dirty = True
        self._lis = 0

    def __len__(self) -> int:
        return len(self.keys)

    def apply(self, token) -> None:
        """One (kind, key, value) operation, charged at the shorter length:
        before an insert, after a delete."""
        kind, key, value = token
        keys = self.keys
        i = bisect_left(keys, key)
        if kind == INSERT:
            self.ctx.meter.ticks += max(1, len(keys).bit_length())
            keys.insert(i, key)
            self.values.insert(i, value)
        else:
            keys.pop(i)
            self.values.pop(i)
            self.ctx.meter.ticks += max(1, len(keys).bit_length())
        self._dirty = True

    def query(self) -> int:
        if self._dirty:
            n = len(self.values)
            self._lis = lis_length(self.values)
            self.ctx.meter.ticks += n * max(1, n.bit_length())
            self._dirty = False
        return self._lis

    def extract(self) -> list[tuple[Any, Any]]:
        idxs = lis_extract(self.values)
        return [(self.keys[i], self.values[i]) for i in idxs]

    def describe(self) -> list[tuple[int, int]]:
        return []

    def leaf_elements(self) -> int:
        return len(self.keys)


class KeyedNaiveBlock(GeneratorBlock):
    """Exact block generation used when its engine is below the cutoff.

    It answers from its engine's mirror, ``inner``: the active generation
    has applied every operation the mirror has, and a successor is not
    queried before its handover.  So it is built done and replays nothing.
    """

    def __init__(self, mirror: KeyedNaive) -> None:
        super().__init__()
        self.done = True
        self.inner = mirror
        self.capacity = max(16, (len(mirror) + 1) // 2)

    def apply(self, token, ctx) -> None:
        pass

    def query(self) -> int:
        return self.inner.query()

    def extract(self):
        return self.inner.extract()

    def describe(self) -> list[tuple[int, int]]:
        return []

    def leaf_elements(self) -> int:
        return len(self.inner)


class GridBlock(GeneratorBlock):
    """One grid-packing generation: value thresholds fix rows, key ranges fix
    columns, each distinct cell set owns a child estimator over its elements.
    Segments over one cell set (the single-cell row and column segments of a
    cell) share its child: a child is a function of its seed lists and the
    tokens routed to it, so copies would hold equal engines and answer equal
    scores.  ``chain_dp`` still scores every segment, each read from its
    child through ``grid.child_of``.  The block is built over a frozen copy
    of its engine's lists, ``snap``, which it releases once its children are
    seeded.

    Queries are incremental.  The block keeps its children's last scores, and
    ``apply`` records the child-index list it routed to (one append per
    operation).  ``query`` re-queries only the recorded children and reruns
    ``chain_dp``, a pure function of the scores, only when one of them moved.
    The first query, and one after more recorded lists than children, makes
    a full pass instead.
    """

    def __init__(self, snap: tuple[list, list], level: int,
                 ctx: EngineContext) -> None:
        super().__init__()
        self.snap = snap
        self.level = level
        self.ctx = ctx
        n = len(snap[0])
        self.m = max(2, int(n ** (1.0 / (level + 2))))
        # capacity follows n^((k+1)/(k+2)) but never exceeds the per-column
        # budget n/m, which clamping m to small integers can undercut
        self.capacity = max(1, min(
            math.ceil(n ** ((level + 1.0) / (level + 2.0))), n // self.m))
        self.work = max(64, 4 * n + 2 * self.m * self.m)
        self.thresholds: list = []
        self.col_bounds: list = []
        self.col_sizes: list[int] = []
        self.grid: Optional[GridPacking] = None
        self.children: list = []
        self._col_limit = 0
        self._scores: Optional[list[int]] = None   # children's last answers
        self._touched: list = []   # child-index lists applied since the last query
        self._cached = 0
        self._chain: list[int] = []

    def preprocess_gen(self):
        keys, values = self.snap
        n = len(keys)
        m = self.m
        meter = self.ctx.meter
        ordered = sorted(values)
        meter.ticks += n * max(1, n.bit_length())
        for _ in range(0, n, 64):
            yield
        # row thresholds: values at the boundaries of m near-equal parts
        base, extra = divmod(n, m)
        cuts = []
        acc = 0
        for r in range(m - 1):
            acc += base + (1 if r < extra else 0)
            cuts.append(ordered[acc - 1])
        self.thresholds = cuts
        # column boundaries: key of the first element of each column >= 2
        ccuts = []
        acc = 0
        sizes = []
        for c in range(m):
            size = base + (1 if c < extra else 0)
            if c > 0:
                ccuts.append(keys[acc])
            acc += size
            sizes.append(size)
        self.col_bounds = ccuts
        self.col_sizes = sizes
        self._col_limit = 2 * max(sizes) + 2
        yield
        self.grid = self.ctx.grid(m)
        meter.ticks += len(self.grid.segments)
        yield
        # per-child membership in array order
        count = max(self.grid.child_of) + 1
        seed_keys: list[list] = [[] for _ in range(count)]
        seed_vals: list[list] = [[] for _ in range(count)]
        cell_children = self.grid.cell_children
        col = 0
        acc = sizes[0] if sizes else 0
        for i in range(n):
            while i >= acc and col < m - 1:
                col += 1
                acc += sizes[col]
            row = bisect_left(self.thresholds, values[i]) + 1
            for child in cell_children.get((row, col + 1), ()):
                seed_keys[child].append(keys[i])
                seed_vals[child].append(values[i])
            meter.ticks += 1
            if i % 64 == 63:
                yield
        yield
        self.children = []
        for child in range(count):
            self.children.append(make_keyed_engine(
                self.level - 1, seed_keys[child], seed_vals[child], self.ctx))
            yield
        self.snap = None

    # -- routing -------------------------------------------------------------

    def _locate(self, key, value) -> tuple[int, int]:
        row = bisect_left(self.thresholds, value) + 1
        col = bisect_right(self.col_bounds, key) + 1
        return row, col

    def apply(self, token, _ctx) -> None:
        kind, key, value = token
        row, col = self._locate(key, value)
        if kind == INSERT:
            self.col_sizes[col - 1] += 1
            if self.col_sizes[col - 1] > self._col_limit:
                raise AssertionError("column grew beyond twice its initial load")
        else:
            self.col_sizes[col - 1] -= 1
        cell = (row, col)
        self.ctx.touched_segments += len(self.grid.cell_cover.get(cell, ()))
        idxs = self.grid.cell_children.get(cell, ())
        if self.ctx.fault_skip_segment and len(idxs) > 1:
            idxs = idxs[:-1]
        children = self.children
        for child in idxs:
            children[child].apply(token)
        self._touched.append(idxs)

    def query(self) -> int:
        touched = self._touched
        children = self.children
        if self._scores is None or len(touched) > len(children):
            self._scores = [child.query() for child in children]
            ticks = len(children)
            moved = True
        elif touched:
            idxs = touched[0] if len(touched) == 1 else set().union(*touched)
            scores = self._scores
            ticks = len(idxs)
            moved = False
            for child in idxs:
                score = children[child].query()
                if score != scores[child]:
                    scores[child] = score
                    moved = True
        else:
            return self._cached
        touched.clear()
        if moved:
            scores = self._scores
            total, self._chain = self.grid.chain_dp(
                [scores[child] for child in self.grid.child_of])
            self._cached = int(round(total))
            ticks += self.m * self.m
        self.ctx.meter.ticks += ticks
        return self._cached

    def extract(self) -> list[tuple[Any, Any]]:
        self.query()
        out: list[tuple[Any, Any]] = []
        child_of = self.grid.child_of
        for sid in self._chain:
            out.extend(self.children[child_of[sid]].extract())
        return out

    def describe(self) -> list[tuple[int, int]]:
        prof = [(self.level, self.m)]
        best: list[tuple[int, int]] = []
        for child in self.children:
            sub = child.describe()
            if len(sub) > len(best):
                best = sub
        return prof + best

    def leaf_elements(self) -> int:
        """Copies held by the leaves below: an element has one in every
        child whose cell set covers its cell, not one per segment."""
        return sum(child.leaf_elements() for child in self.children)


class KeyedWrapped(WrappedEstimator):
    """Keyed estimator running GridBlock / KeyedNaiveBlock generations over
    a ``KeyedNaive`` mirror of its elements; ``apply`` takes one
    (kind, key, value) token."""

    def __init__(self, level: int, keys: list, values: list,
                 ctx: EngineContext) -> None:
        self.ctx = ctx
        self.level = level
        # the factory is a bound method, so the estimator refers to itself:
        # it forms a reference cycle, and retired engines are freed by the
        # cyclic collector rather than inline (inline freeing measured
        # slower on partitioning, for less memory)
        super().__init__(self._block, KeyedNaive(keys, values, ctx))

    def _block(self) -> GeneratorBlock:
        mirror = self.mirror
        if _exact(self.level, len(mirror), self.ctx):
            return KeyedNaiveBlock(mirror)
        self.ctx.meter.ticks += len(mirror)
        return GridBlock((list(mirror.keys), list(mirror.values)),
                         self.level, self.ctx)

    def describe(self) -> list[tuple[int, int]]:
        return self.active.describe()

    def leaf_elements(self) -> int:
        """Elements held by the exact leaves under the active generations,
        counting each copy: each grid level copies an element once per
        distinct cell set covering its cell (3 of the 4 covering segments'
        sets at m = 2).  Counted by a walk on every call."""
        return self.active.leaf_elements()


def make_keyed_engine(level: int, keys: list, values: list, ctx: EngineContext):
    """A grid child ``level`` steps above the exact leaves: exact by the rule
    of ``_exact``, otherwise a wrapped grid level."""
    if _exact(level, len(keys), ctx):
        return KeyedNaive(keys, values, ctx)
    return KeyedWrapped(level, keys, values, ctx)


# ---------------------------------------------------------------------------
# public position-based estimators


class NaiveLis:
    """Exact estimator recomputing the LIS from scratch (lazily per query)."""

    def __init__(self, meter: Optional[WorkMeter] = None) -> None:
        self.meter = meter if meter is not None else WorkMeter()
        self.items: list = []
        self._values: set = set()
        self._dirty = True
        self._lis = 0

    def __len__(self) -> int:
        return len(self.items)

    def apply(self, op: Operation) -> None:
        _check_op(op, len(self), self._values)
        if op.kind == INSERT:
            self.items.insert(op.position - 1, op.value)
            self._values.add(op.value)
        else:
            self._values.discard(self.items.pop(op.position - 1))
        self.meter.ticks += max(1, len(self).bit_length())
        self._dirty = True

    def query(self) -> int:
        if self._dirty:
            self._lis = lis_length(self.items)
            n = len(self.items)
            self.meter.ticks += n * max(1, n.bit_length())
            self._dirty = False
        return self._lis

    def extract(self) -> list[tuple[int, int]]:
        idxs = lis_extract(self.items)
        return [(i + 1, self.items[i]) for i in idxs]


class SqrtBlock(GeneratorBlock):
    """One sqrt-engine generation.

    After computing the exact LIS r of the array as it stood when the block
    was built (the mirror's snapshot, ``snap``): if r clears the
    threshold (2/eps + 1) * sqrt(n), freeze a witness and report r - i at
    local step i (each operation costs the solution at most one element);
    otherwise run the exact level structure live, whose update cost stays
    near sqrt(n) because the LIS remains small for the whole generation.

    Preprocessing makes one patience pass over the snapshot's handles with
    a pile and a back-pointer each, yielding every 64; the block drops the
    walk as the pass starts, and the next generation's build closes the
    snapshot, once this block has replayed every buffered update.  The
    frozen branch walks the witness back from the last pile and keeps its
    values, distinct among live elements: a delete pops the one the mirror
    removed, and ``extract`` places them by one walk of the live mirror.
    The exact branch seeds its levels with the handles, and each update
    passes on the mirror's handle (``ctx``).

    An exact generation whose live LIS, when the next generation is due, is
    still below that generation's threshold continues on the same level
    structure (``continuation``): it already holds the array's levels, so
    it opens no snapshot and rebuilds nothing.  Only the first generation
    and a change of branch walk a snapshot.
    """

    def __init__(self, epsilon: float, mirror: IndexedSeq, seed: int = 0,
                 exact: Optional[ExactDynamicLis] = None) -> None:
        super().__init__()
        mirror.close_snapshot()
        self.epsilon = epsilon
        self.mirror = mirror
        self.seed = seed
        n0 = len(mirror)
        self.capacity = max(1, math.isqrt(n0))
        if self.capacity * self.capacity < n0:
            self.capacity += 1
        self.tau = math.ceil((2.0 / epsilon + 1.0) * math.sqrt(n0))
        # the pass yields n0 // 64 times; then the frozen branch's witness
        # walk at most r0 // 64 <= n0 // 64 times, or the exact branch's
        # seeding at most 2 * (n0 // 64) + r0 times, with r0 < tau
        self.work = 3 * (n0 // 64) + self.tau + 1
        self.i = 0
        self.r0 = 0
        self.witness: dict = {}   # values in witness order, O(1) removal
        # a continuation runs on ``exact``'s live levels and walks nothing
        self.exact = exact
        self.branch = "" if exact is None else "exact"
        self.snap = mirror.snapshot() if exact is None else None
        self.done = exact is not None

    def preprocess_gen(self):
        meter = self.mirror.meter
        walk, self.snap = self.snap, None
        handles: list = []
        piles: list = []   # per handle: its pile, 1-based
        tails: list = []   # top value of each patience pile
        tops: list = []    # its index
        back: list = []    # per handle: the top index of the previous pile
        for h in walk:
            v = h.value
            i = bisect_left(tails, v)
            meter.ticks += 1 + max(1, len(tails).bit_length())
            back.append(tops[i - 1] if i else -1)
            piles.append(i + 1)
            if i == len(tails):
                tails.append(v)
                tops.append(len(handles))
            else:
                tails[i] = v
                tops[i] = len(handles)
            handles.append(h)
            if len(handles) % 64 == 0:
                yield
        r = len(tails)
        self.r0 = r
        if r >= self.tau:
            self.branch = "frozen"
            chain = []
            j = tops[-1] if tops else -1
            while j >= 0:
                chain.append(handles[j].value)
                j = back[j]
                meter.ticks += 1
                if len(chain) % 64 == 0:
                    yield
            self.witness = dict.fromkeys(reversed(chain))
        else:
            self.branch = "exact"
            self.exact = ExactDynamicLis(None, meter=meter, seed=self.seed)
            for _ in self.exact.seed_steps(self.mirror, handles, piles):
                yield

    def continuation(self) -> Optional["SqrtBlock"]:
        if self.branch != "exact":
            return None
        nxt = SqrtBlock(self.epsilon, self.mirror, self.seed, exact=self.exact)
        return nxt if self.exact.lis() < nxt.tau else None

    def apply(self, op: Operation, ctx) -> None:
        self.i += 1
        if self.branch == "frozen":
            if op.kind != INSERT:
                self.witness.pop(ctx.value, None)
        elif op.kind == INSERT:
            self.exact.insert_handle(ctx)
        else:
            self.exact.delete_handle(ctx)

    def query(self) -> int:
        if self.branch == "frozen":
            return self.r0 - self.i
        return self.exact.lis()

    def extract(self) -> list[tuple[int, int]]:
        if self.branch != "frozen":
            return self.exact.extract()
        want = self.r0 - self.i
        first = set(islice(self.witness, want))
        out: list[tuple[int, int]] = []
        for pos, v in enumerate(self.mirror, 1):
            if len(out) == want:
                break
            self.mirror.meter.ticks += 1
            if v in first:
                out.append((pos, v))
        return out


class SqrtLis(WrappedEstimator):
    """(1+eps)-approximate dynamic LIS with near-sqrt(n) worst-case step cost.
    Its array is the scheduler's mirror, one ``IndexedSeq``."""

    def __init__(self, epsilon: float, meter: Optional[WorkMeter] = None,
                 seed: int = 0) -> None:
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        self.epsilon = epsilon
        self.meter = meter if meter is not None else WorkMeter()
        # IndexedSeq XORs its seed with 0x1D5EC, so this draws priorities
        # from Random(seed ^ 0x9E3779B9)
        mirror = IndexedSeq(meter=self.meter, seed=seed ^ 0x9E3779B9 ^ 0x1D5EC)
        # the factory closes over the locals, not self: no reference cycle
        super().__init__(lambda: SqrtBlock(epsilon, mirror, seed=seed), mirror)

    def apply(self, op: Operation) -> None:
        # defined here, not inherited, so that perfbench's --trace times it
        # as SqrtLis.apply; the mirror's handle is not handed out
        super().apply(op)


class HierarchyLis(KeyedWrapped):
    """Recursive grid hierarchy: depth ceil(4/eps), kappa = eps/2.

    The top keyed engine, taking positional operations: an insert takes a
    fresh order key between its neighbours', a delete the key at its
    position, both read from the mirror's element lists.
    """

    def __init__(self, epsilon: float, meter: Optional[WorkMeter] = None,
                 cutoff: int = BASE_CUTOFF) -> None:
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        # a grid level needs an element per column: it is built over at
        # least ``cutoff`` elements, into at least two columns
        if cutoff < 2:
            raise ValueError("cutoff must be at least 2")
        self.epsilon = epsilon
        self.meter = meter if meter is not None else WorkMeter()
        self.depth = math.ceil(4.0 / epsilon)
        self.kappa = epsilon / 2.0
        self._values: set = set()
        super().__init__(self.depth, [], [],
                         EngineContext(self.kappa, self.meter, cutoff=cutoff))

    def apply(self, op: Operation) -> None:
        _check_op(op, len(self), self._values)
        p = op.position
        keys = self.mirror.keys
        if op.kind == INSERT:
            if p > len(keys):
                key = _key_step(keys[-1], 1) if keys else FIRST_KEY
            elif p == 1:
                key = _key_step(keys[0], -1)
            else:
                key = _key_between(keys[p - 2], keys[p - 1])
            super().apply((INSERT, key, op.value))
            self._values.add(op.value)
        else:
            value = self.mirror.values[p - 1]
            super().apply((DELETE, keys[p - 1], value))
            self._values.discard(value)

    def extract(self) -> list[tuple[int, int]]:
        keys = self.mirror.keys
        return [(bisect_left(keys, key) + 1, value)
                for key, value in super().extract()]

    @property
    def touched_segments(self) -> int:
        return self.ctx.touched_segments


# -- engine constructors -------------------------------------------------


def naive_engine(meter: Optional[WorkMeter] = None) -> NaiveLis:
    return NaiveLis(meter=meter)


def sqrt_engine(epsilon: float, meter: Optional[WorkMeter] = None,
                seed: int = 0) -> SqrtLis:
    return SqrtLis(epsilon, meter=meter, seed=seed)


def hierarchy_engine(epsilon: float, meter: Optional[WorkMeter] = None,
                     cutoff: int = BASE_CUTOFF) -> HierarchyLis:
    return HierarchyLis(epsilon, meter=meter, cutoff=cutoff)
