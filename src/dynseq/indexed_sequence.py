"""Order-statistic sequence with stable handles.

The substrate of every dynamic structure here: a randomized balanced tree
(treap) addressed by 1-based position.  Nodes double as stable handles, so
the position of an element can be recovered after arbitrary interleaved
insertions and deletions.  ``Seq.replace_range`` swaps one range for another
tree's elements by split and join, because the exact dynamic-LIS level
structure moves whole intervals between trees.

The handles of an ``IndexedSeq`` also carry integer order labels that
strictly increase along the sequence, so two live handles are ordered by
one comparison, where a position lookup walks to the root.  An interior
insert takes the midpoint of its neighbours' labels and an append or
prepend steps ``LABEL_SPACING`` past the end label.  When a gap is used up,
the smallest aligned label range around it that is sparse enough is spread
out evenly (Bender, Cole, Demaine, Farach-Colton & Zito, "Two simplified
algorithms for maintaining order in a list", ESA 2002): O(log n) relabelled
nodes per insert, amortized.  Every node walked or relabelled is charged.

While an ``IndexedSeq`` snapshot is open, a delete leaves its node in the
tree, dead, as a tombstone that keeps its place and so its label's order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional

from .work import WorkMeter, default_meter

INSERT = "I"
DELETE = "D"

# Label gap left by an append or prepend.  Midpoints halve a gap, so only
# about 62 inserts nested in one gap can use it up and force a relabel.
LABEL_SPACING = 1 << 62
# A relabelled range of 2**i labels holds at most RELABEL_GROWTH**i nodes:
# Bender et al.'s density threshold T**-i with T = 3/2.
RELABEL_GROWTH = 4 / 3


class PositionError(IndexError):
    """Position outside the valid range for the current length."""


class DuplicateValueError(ValueError):
    """Value already present in a distinct-valued sequence."""


class DeadHandleError(LookupError):
    """Handle refers to an element that was deleted or belongs elsewhere."""


@dataclass(frozen=True)
class Operation:
    """A positional update: insert value at position, or delete at position."""

    kind: str
    position: int
    value: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in (INSERT, DELETE):
            raise ValueError(f"unknown operation kind {self.kind!r}")
        if self.kind == INSERT and self.value is None:
            raise ValueError("insert requires a value")


def _check_op(op: Operation, n: int, values: set) -> None:
    """The rule every engine applies before an update changes any state:
    positions within the current length ``n``, no value of ``values``
    inserted twice."""
    if op.kind == INSERT:
        if not 1 <= op.position <= n + 1:
            raise PositionError(f"insert position {op.position} outside [1, {n + 1}]")
        if op.value in values:
            raise DuplicateValueError(f"value {op.value} already present")
    elif not 1 <= op.position <= n:
        raise PositionError(f"delete position {op.position} outside [1, {n}]")


def ins(position: int, value: int) -> Operation:
    return Operation(INSERT, position, value)


def dele(position: int) -> Operation:
    return Operation(DELETE, position)


class Node:
    """Treap node; also the stable handle returned to callers.

    ``live`` is 1, or 0 once the node is deleted: a dead node counts in no
    size.  ``label`` is the order label of an ``IndexedSeq`` handle and
    unused in other trees.  It is a slot of every node, not of a subclass,
    because the tree code serves every tree, and CPython's attribute-read
    specialization slows that code down when it sees two node types."""

    __slots__ = ("value", "extra", "prio", "size", "left", "right", "parent",
                 "label", "live")

    def __init__(self, value: Any, prio: float, extra: Any = None,
                 label: int = 0) -> None:
        self.value = value
        self.extra = extra
        self.prio = prio
        self.size = 1
        self.left: Optional[Node] = None
        self.right: Optional[Node] = None
        self.parent: Optional[Node] = None
        self.label = label
        self.live = 1

    def __repr__(self) -> str:  # pragma: no cover
        return f"Node({self.value!r}, size={self.size})"


def _update(n: Node) -> None:
    s = n.live
    if n.left is not None:
        s += n.left.size
    if n.right is not None:
        s += n.right.size
    n.size = s


def _join(a: Optional[Node], b: Optional[Node], meter: WorkMeter) -> Optional[Node]:
    """Concatenate two trees.  Each node passed gains the other side's size,
    so no size is recomputed from children."""
    if a is None:
        return b
    if b is None:
        return a
    meter.ticks += 1
    if a.prio > b.prio:
        a.size += b.size
        r = _join(a.right, b, meter)
        a.right = r
        r.parent = a
        return a
    b.size += a.size
    l = _join(a, b.left, meter)
    b.left = l
    l.parent = b
    return b


def _split(t: Optional[Node], k: int, meter: WorkMeter):
    """Split a tree without dead nodes into (first k elements, rest).  A
    cut at either end of a subtree returns at once, with no walk down its
    spine.  Each node passed keeps k elements or gives k away, which sets
    its size; the roots returned may keep a stale parent for the caller to
    clear."""
    if t is None or k <= 0:
        return None, t
    if k >= t.size:
        return t, None
    meter.ticks += 1
    lsize = t.left.size if t.left is not None else 0
    if k <= lsize:
        a, b = _split(t.left, k, meter)
        t.left = b
        if b is not None:
            b.parent = t
        t.size -= k
        return a, t
    a, b = _split(t.right, k - lsize - 1, meter)
    t.right = a
    if a is not None:
        a.parent = t
    t.size = k
    return t, b


def _select(t: Node, k: int, meter: WorkMeter) -> Node:
    """k-th live node, 1-based; caller guarantees 1 <= k <= t.size."""
    while True:
        meter.ticks += 1
        lsize = t.left.size if t.left is not None else 0
        if k <= lsize:
            t = t.left
        else:
            k -= lsize + t.live
            if k == 0:
                return t
            t = t.right


def _rotate_up(x: Node) -> None:
    """Rotate x above its parent, keeping the in-order sequence."""
    p = x.parent
    g = p.parent
    if p.left is x:
        b = x.right
        p.left = b
        x.right = p
    else:
        b = x.left
        p.right = b
        x.left = p
    if b is not None:
        b.parent = p
    p.parent = x
    x.parent = g
    if g is not None:
        if g.left is p:
            g.left = x
        else:
            g.right = x
    _update(p)
    _update(x)


def _next(x: Node, meter: WorkMeter) -> Optional[Node]:
    """In-order successor of x, or None; one tick per pointer followed."""
    if x.right is not None:
        x = x.right
        meter.ticks += 1
        while x.left is not None:
            x = x.left
            meter.ticks += 1
        return x
    while x.parent is not None:
        meter.ticks += 1
        if x.parent.left is x:
            return x.parent
        x = x.parent
    return None


def _prev(x: Node, meter: WorkMeter) -> Optional[Node]:
    """In-order predecessor of x, or None; one tick per pointer followed."""
    if x.left is not None:
        x = x.left
        meter.ticks += 1
        while x.right is not None:
            x = x.right
            meter.ticks += 1
        return x
    while x.parent is not None:
        meter.ticks += 1
        if x.parent.right is x:
            return x.parent
        x = x.parent
    return None


def _iter_nodes(t: Optional[Node]) -> Iterator[Node]:
    stack: list[Node] = []
    cur = t
    while stack or cur is not None:
        while cur is not None:
            stack.append(cur)
            cur = cur.left
        cur = stack.pop()
        yield cur
        cur = cur.right


def _build(seq: "Seq", nodes: Iterable[Node]) -> Iterator[Node]:
    """Linear-time treap build of the empty ``seq`` from nodes in sequence
    order, one tick per node.  A generator, so a caller can spread the
    build: it yields each node once it is linked in, and ``seq.root`` is set
    when it ends.

    The nodes form a Cartesian tree over their priorities, kept as its right
    spine.  A node's subtree is complete when a later node pops it off the
    spine, or when the input ends, and it then spans from its first
    descendant to the last node read, so sizes are set in the same pass."""
    meter = seq.meter
    stack: list[Node] = []
    starts: list[int] = []   # index of each spine node's first descendant
    n = 0
    for node in nodes:
        meter.ticks += 1
        last: Optional[Node] = None
        start = n
        while stack and stack[-1].prio < node.prio:
            last = stack.pop()
            start = starts.pop()
            last.size = n - start
        node.left = last
        if last is not None:
            last.parent = node
        if stack:
            stack[-1].right = node
            node.parent = stack[-1]
        stack.append(node)
        starts.append(start)
        n += 1
        yield node
    for node, start in zip(stack, starts):
        node.size = n - start
    seq.root = stack[0] if stack else None


class Seq:
    """Positional treap sequence; the shared machinery behind IndexedSeq and
    the per-level trees of the exact dynamic-LIS structure.

    All mutators charge the meter one unit per node touched.  Only an
    ``IndexedSeq`` holds dead nodes, and it uses only descents that skip them.
    """

    __slots__ = ("root", "meter", "rng")

    def __init__(self, meter: Optional[WorkMeter] = None,
                 rng: Optional[random.Random] = None,
                 items: Iterable = ()):
        self.meter = meter if meter is not None else default_meter()
        self.rng = rng if rng is not None else random.Random(0x5E9)
        self.root = None
        if items:
            for _ in self._load((v, None) for v in items):
                pass

    def _load(self, pairs: Iterable[tuple]) -> Iterator[Node]:
        """Build this empty sequence from (value, extra) pairs in sequence
        order, resumably (``_build``)."""
        rnd = self.rng.random
        return _build(self, (Node(v, rnd(), extra) for v, extra in pairs))

    def first_value_lt(self, v) -> tuple[int, Optional[Node]]:
        """First rank whose value is below v, with the node there (None past
        the end), which its descent passes through; assumes values descend
        along the sequence (the level-tree order)."""
        t = self.root
        acc = 0     # elements before the rank sought
        ticks = 0
        found = None
        while t is not None:
            ticks += 1
            if t.value < v:
                found = t
                t = t.left
            else:
                acc += (t.left.size if t.left is not None else 0) + 1
                t = t.right
        self.meter.ticks += ticks
        return acc + 1, found

    def value_neighbours(self, v) -> tuple[int, Optional[Node], Optional[Node]]:
        """First rank whose value is above v, with the nodes just before and
        at that rank (None past either end), which its descent passes
        through; assumes values ascend along the sequence (the
        unmatched-element tree of the DTM matching)."""
        t = self.root
        acc = 0
        ticks = 0
        pred = succ = None
        while t is not None:
            ticks += 1
            if t.value > v:
                succ = t
                t = t.left
            else:
                acc += (t.left.size if t.left is not None else 0) + 1
                pred = t
                t = t.right
        self.meter.ticks += ticks
        return acc + 1, pred, succ

    def __len__(self) -> int:
        return self.root.size if self.root is not None else 0

    def __iter__(self) -> Iterator[Any]:
        return (n.value for n in _iter_nodes(self.root) if n.live)

    def nodes(self) -> Iterator[Node]:
        return _iter_nodes(self.root)

    def insert(self, pos: int, value: Any, extra: Any = None) -> Node:
        """Insert before position pos (1-based, pos in [1, len+1])."""
        node = Node(value, self.rng.random(), extra)
        self._attach(pos, node)
        return node

    def insert_node(self, pos: int, node: Node) -> Node:
        node.left = node.right = node.parent = None
        node.size = node.live = 1
        self._attach(pos, node)
        return node

    def _attach(self, pos: int,
                node: Node) -> tuple[Optional[Node], Optional[Node]]:
        """Link a detached node in before position pos; returns its
        neighbours (None past either end).

        One descent to the gap finds both neighbours and adds one to the
        size of every node it passes; the node hangs there as a leaf and
        rotates up to its priority's place, which gives the same treap as a
        split and two joins."""
        pred = succ = parent = None
        t = self.root
        k = pos - 1
        ticks = 0
        while t is not None:
            ticks += 1
            t.size += 1
            parent = t
            lsize = t.left.size if t.left is not None else 0
            if k <= lsize:
                succ = t
                t = t.left
            else:
                pred = t
                k -= lsize + t.live
                t = t.right
        node.parent = parent
        if parent is None:
            self.root = node
        elif parent is succ:
            parent.left = node
        else:
            parent.right = node
        while node.parent is not None and node.parent.prio < node.prio:
            ticks += 1
            _rotate_up(node)
        if node.parent is None:
            self.root = node
        self.meter.ticks += ticks
        return pred, succ

    def unlink(self, node: Node) -> None:
        """Remove a node of this sequence, live or a tombstone, in place.

        Its children's join takes its slot, and a live node's ancestors'
        sizes drop by one.  A treap is unique for its priorities, so the
        tree is the one a split around the node and a join would leave.
        The node is left unlinked and dead (live and size 0)."""
        if node.parent is None and node is not self.root:
            raise DeadHandleError("handle was deleted")
        meter = self.meter
        sub = _join(node.left, node.right, meter)
        p = node.parent
        if sub is not None:
            sub.parent = p
        if p is None:
            self.root = sub
        else:
            if p.left is node:
                p.left = sub
            else:
                p.right = sub
            if node.live:
                ticks = 0
                while p is not None:
                    ticks += 1
                    p.size -= 1
                    p = p.parent
                meter.ticks += ticks
        node.parent = node.left = node.right = None
        node.live = node.size = 0

    def node_at(self, pos: int) -> Node:
        return _select(self.root, pos, self.meter)

    def node_range(self, a: int, b: int) -> list[Node]:
        """Nodes of ranks a..b (1-based, inclusive, 1 <= a <= b <= len) in
        order: one descent, then an in-order walk; O(log n + b - a)."""
        stack: list[Node] = []
        t = self.root
        k = a
        ticks = 0
        while True:
            ticks += 1
            lsize = t.left.size if t.left is not None else 0
            if k <= lsize:
                stack.append(t)
                t = t.left
            elif k == lsize + 1:
                stack.append(t)
                break
            else:
                k -= lsize + 1
                t = t.right
        out: list[Node] = []
        for _ in range(b - a + 1):
            node = stack.pop()
            out.append(node)
            cur = node.right
            while cur is not None:
                ticks += 1
                stack.append(cur)
                cur = cur.left
        self.meter.ticks += ticks + len(out)
        return out

    def rank_of(self, node: Node) -> int:
        """1-based position of a live node; O(depth) via parent pointers."""
        if not node.live:
            raise DeadHandleError("handle was deleted")
        r = (node.left.size if node.left is not None else 0) + 1
        cur = node
        while cur.parent is not None:
            self.meter.ticks += 1
            p = cur.parent
            if p.right is cur:
                r += (p.left.size if p.left is not None else 0) + p.live
            cur = p
        if cur is not self.root:
            raise DeadHandleError("handle does not belong to this sequence")
        return r

    def rank_after(self, label: int) -> int:
        """First rank whose node's handle (``extra``) has an order label
        above ``label``, or len+1; assumes the handles are in sequence order
        (the level-tree order)."""
        t = self.root
        acc = 0     # elements before the rank sought
        ticks = 0
        while t is not None:
            ticks += 1
            if t.extra.label > label:
                t = t.left
            else:
                acc += (t.left.size if t.left is not None else 0) + 1
                t = t.right
        self.meter.ticks += ticks
        return acc + 1

    def replace_range(self, a: int, b: int, src: "Seq") -> "Seq":
        """Put src's elements in place of ranks [a, b] (1-based, inclusive;
        b = a - 1 for none, so src lands before rank a) and return the
        ranks taken out as a new Seq; src is left empty.

        Two splits and two joins; a split at either end of its tree, or a
        join with an empty side, returns at once and charges nothing."""
        meter = self.meter
        pre, post = _split(self.root, a - 1, meter)
        mid, post = _split(post, b - a + 1, meter)
        root = _join(_join(pre, src.root, meter), post, meter)
        if root is not None:
            root.parent = None
        if mid is not None:
            mid.parent = None
        self.root = root
        src.root = None
        out = Seq.__new__(Seq)
        out.root = mid
        out.meter = meter
        out.rng = self.rng
        return out

    def materialize(self) -> list:
        return list(self)


class IndexedSeq:
    """Distinct-valued integer sequence with positional access, stable
    handles, and logarithmic updates.

    Positions are 1-based.  Values must be pairwise distinct; duplicates are
    rejected at ingestion rather than tie-broken silently.  Handles carry
    order labels (module docstring); ``relabelled`` counts the nodes that
    inserts have given a new label so far.

    ``snapshot`` opens a walk over the handles as they stand, which stays
    correct while updates go on.  While it is open a delete leaves its node
    in the tree as a tombstone: dead, so positions, ``position_of`` and
    iteration skip it, but in its place in order, so relabels keep its
    label ordered against every other handle.  ``close_snapshot`` unlinks
    the tombstones.
    """

    def __init__(self, values: Iterable[int] = (),
                 meter: Optional[WorkMeter] = None,
                 seed: int = 0) -> None:
        self._seq = Seq(meter=meter, rng=random.Random(seed ^ 0x1D5EC))
        self.relabelled = 0
        self._values: set[int] = set()
        # the open snapshot's nodes inserted and deleted since its opening;
        # _born is None while none is open
        self._born: Optional[set[Node]] = None
        self._tombs: list[Node] = []
        for _ in self._load(values):
            pass

    def _load(self, values: Iterable[int]) -> Iterator[Node]:
        """Build this empty sequence from ``values``, resumably
        (``_build``)."""
        rnd = self._seq.rng.random
        seen = self._values

        def nodes() -> Iterator[Node]:
            for i, v in enumerate(values):
                if v in seen:
                    raise DuplicateValueError("seed values must be pairwise distinct")
                seen.add(v)
                yield Node(v, rnd(), None, i * LABEL_SPACING)
        return _build(self._seq, nodes())

    @property
    def meter(self) -> WorkMeter:
        return self._seq.meter

    def __len__(self) -> int:
        return len(self._seq)

    def __iter__(self) -> Iterator[int]:
        return iter(self._seq)

    def snapshot(self) -> Iterator[Node]:
        """Open a snapshot and return a walk over the handles as they stand
        now.  No node leaves the tree while it is open, so an in-order walk
        that skips the nodes inserted since stays correct while updates go
        on.  One is open at a time (a second call raises ``RuntimeError``)
        until ``close_snapshot``."""
        if self._born is not None:
            raise RuntimeError("a snapshot of this sequence is already open")
        self._born = set()
        return self._walk(self._born)

    def _walk(self, born: set) -> Iterator[Node]:
        # the walk charges nothing: its consumer charges each handle it
        # reads, which covers the walk's O(n) steps, first descent included
        free = WorkMeter()
        node = self._seq.root
        if node is None:
            return
        while node.left is not None:
            node = node.left
        while node is not None:
            if node not in born:
                yield node
            node = _next(node, free)

    def close_snapshot(self) -> None:
        """Close the open snapshot, if any, and unlink its tombstones."""
        self._born = None
        for node in self._tombs:
            self._seq.unlink(node)
        self._tombs = []

    def apply(self, op: Operation):
        """Apply one operation. Returns the element's handle, new for an
        insert and removed for a delete (unlinked, or a tombstone while a
        snapshot is open); a rejected one changes nothing."""
        _check_op(op, len(self), self._values)
        seq = self._seq
        if op.kind != INSERT:
            node = seq.node_at(op.position)
            if self._born is None:
                seq.unlink(node)
            else:   # a tombstone: out of its own and its ancestors' sizes
                node.live = 0
                self._tombs.append(node)
                t: Optional[Node] = node
                while t is not None:
                    seq.meter.ticks += 1
                    t.size -= 1
                    t = t.parent
            self._values.discard(node.value)
            return node
        self._values.add(op.value)
        node = Node(op.value, seq.rng.random())
        pred, succ = seq._attach(op.position, node)
        if pred is None:
            node.label = 0 if succ is None else succ.label - LABEL_SPACING
        elif succ is None:
            node.label = pred.label + LABEL_SPACING
        elif succ.label - pred.label > 1:
            node.label = (pred.label + succ.label) // 2
        else:
            self._relabel(node, pred)
        if self._born is not None:
            self._born.add(node)
        return node

    def _relabel(self, node: Node, pred: Node) -> None:
        """Label ``node``, just inserted after ``pred`` in a used-up gap, by
        spreading out evenly the smallest aligned range of 2**i labels
        around ``pred``'s that holds at most RELABEL_GROWTH**i nodes, the new
        one included (Bender et al.).  Charges every node walked and
        relabelled."""
        meter = self._seq.meter
        lo = pred.label
        left: list[Node] = []     # pred and the nodes before it, backwards
        right: list[Node] = []    # the nodes after node, forwards
        lnext: Optional[Node] = pred
        rnext = _next(node, meter)
        i = 0
        while True:
            i += 1
            base = lo >> i << i
            top = base + (1 << i)
            while lnext is not None and lnext.label >= base:
                left.append(lnext)
                lnext = _prev(lnext, meter)
            while rnext is not None and rnext.label < top:
                right.append(rnext)
                rnext = _next(rnext, meter)
            count = len(left) + len(right) + 1
            if count <= RELABEL_GROWTH ** i:
                break
        left.reverse()
        left.append(node)
        left.extend(right)
        size = 1 << i
        for j, x in enumerate(left):
            x.label = base + (2 * j + 1) * size // (2 * count)
        meter.ticks += count
        self.relabelled += count - 1

    def insert(self, position: int, value: int):
        return self.apply(Operation(INSERT, position, value))

    def delete(self, position: int) -> int:
        return self.apply(Operation(DELETE, position)).value

    def value_at(self, position: int) -> int:
        return self.handle_at(position).value

    def handle_at(self, position: int):
        if not 1 <= position <= len(self):
            raise PositionError(f"index {position} outside [1, {len(self)}]")
        return self._seq.node_at(position)

    def position_of(self, handle) -> int:
        return self._seq.rank_of(handle)

    def materialize(self) -> list[int]:
        return list(self._seq)

    def __contains__(self, value: int) -> bool:
        return value in self._values
