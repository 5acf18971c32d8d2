"""Order-statistic sequence with stable handles.

The substrate of every dynamic structure here: a randomized balanced tree
(treap) addressed by 1-based position.  Nodes double as stable handles, so
the position of an element can be recovered after arbitrary interleaved
insertions and deletions.  Split and join are first-class because the exact
dynamic-LIS level structure moves whole intervals between trees.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional

from .work import WorkMeter, default_meter

INSERT = "I"
DELETE = "D"


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
    """Treap node; also the stable handle returned to callers."""

    __slots__ = ("value", "extra", "prio", "size", "left", "right", "parent")

    def __init__(self, value: Any, prio: float, extra: Any = None) -> None:
        self.value = value
        self.extra = extra
        self.prio = prio
        self.size = 1
        self.left: Optional[Node] = None
        self.right: Optional[Node] = None
        self.parent: Optional[Node] = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"Node({self.value!r}, size={self.size})"


def _update(n: Node) -> None:
    s = 1
    if n.left is not None:
        s += n.left.size
    if n.right is not None:
        s += n.right.size
    n.size = s


def _join(a: Optional[Node], b: Optional[Node], meter: WorkMeter) -> Optional[Node]:
    if a is None:
        return b
    if b is None:
        return a
    meter.ticks += 1
    if a.prio > b.prio:
        r = _join(a.right, b, meter)
        a.right = r
        r.parent = a
        _update(a)
        return a
    l = _join(a, b.left, meter)
    b.left = l
    l.parent = b
    _update(b)
    return b


def _split(t: Optional[Node], k: int, meter: WorkMeter):
    """Split into (first k elements, rest)."""
    if t is None:
        return None, None
    meter.ticks += 1
    lsize = t.left.size if t.left is not None else 0
    if k <= lsize:
        a, b = _split(t.left, k, meter)
        t.left = b
        if b is not None:
            b.parent = t
        _update(t)
        if a is not None:
            a.parent = None
        return a, t
    a, b = _split(t.right, k - lsize - 1, meter)
    t.right = a
    if a is not None:
        a.parent = t
    _update(t)
    if b is not None:
        b.parent = None
    return t, b


def _select(t: Node, k: int, meter: WorkMeter) -> Node:
    """k-th node, 1-based; caller guarantees 1 <= k <= t.size."""
    while True:
        meter.ticks += 1
        lsize = t.left.size if t.left is not None else 0
        if k == lsize + 1:
            return t
        if k <= lsize:
            t = t.left
        else:
            k -= lsize + 1
            t = t.right


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


def _build(nodes: list[Node], meter: WorkMeter) -> Optional[Node]:
    """Linear-time treap build from nodes in sequence order."""
    if not nodes:
        return None
    stack: list[Node] = []
    for node in nodes:
        meter.ticks += 1
        last: Optional[Node] = None
        while stack and stack[-1].prio < node.prio:
            last = stack.pop()
        node.left = last
        if last is not None:
            last.parent = node
        if stack:
            stack[-1].right = node
            node.parent = stack[-1]
        stack.append(node)
    root = stack[0]
    root.parent = None
    _recompute_sizes(root)
    return root


def _recompute_sizes(root: Node) -> None:
    order: list[Node] = []
    stack = [root]
    while stack:
        n = stack.pop()
        order.append(n)
        if n.left is not None:
            stack.append(n.left)
        if n.right is not None:
            stack.append(n.right)
    for n in reversed(order):
        _update(n)


class Seq:
    """Positional treap sequence; the shared machinery behind IndexedSeq and
    the per-level trees of the exact dynamic-LIS structure.

    All mutators charge the meter one unit per node touched.
    """

    __slots__ = ("root", "meter", "rng")

    def __init__(self, meter: Optional[WorkMeter] = None,
                 rng: Optional[random.Random] = None,
                 items: Iterable = ()):
        self.meter = meter if meter is not None else default_meter()
        self.rng = rng if rng is not None else random.Random(0x5E9)
        nodes = [Node(v, self.rng.random()) for v in items]
        self.root = _build(nodes, self.meter)

    @classmethod
    def from_pairs(cls, pairs, meter: WorkMeter, rng: random.Random) -> "Seq":
        """Linear-time build from (value, extra) pairs in sequence order."""
        out = cls.__new__(cls)
        out.meter = meter
        out.rng = rng
        rnd = rng.random
        nodes = [Node(v, rnd(), extra) for v, extra in pairs]
        out.root = _build(nodes, meter)
        return out

    def rank_first_value_lt(self, v) -> int:
        """First rank whose value is below v; assumes values descend along
        the sequence (the level-tree order)."""
        t = self.root
        res = (t.size + 1) if t is not None else 1
        acc = 0
        ticks = 0
        while t is not None:
            ticks += 1
            if t.value < v:
                res = acc + (t.left.size if t.left is not None else 0) + 1
                t = t.left
            else:
                acc += (t.left.size if t.left is not None else 0) + 1
                t = t.right
        self.meter.ticks += ticks
        return res

    def rank_first_value_gt(self, v) -> int:
        """First rank whose value is above v; assumes values ascend along
        the sequence (the unmatched-element tree of the DTM matching)."""
        t = self.root
        res = (t.size + 1) if t is not None else 1
        acc = 0
        ticks = 0
        while t is not None:
            ticks += 1
            if t.value > v:
                res = acc + (t.left.size if t.left is not None else 0) + 1
                t = t.left
            else:
                acc += (t.left.size if t.left is not None else 0) + 1
                t = t.right
        self.meter.ticks += ticks
        return res

    def __len__(self) -> int:
        return self.root.size if self.root is not None else 0

    def __iter__(self) -> Iterator[Any]:
        return (n.value for n in _iter_nodes(self.root))

    def nodes(self) -> Iterator[Node]:
        return _iter_nodes(self.root)

    def insert(self, pos: int, value: Any, extra: Any = None) -> Node:
        """Insert before position pos (1-based, pos in [1, len+1])."""
        node = Node(value, self.rng.random(), extra)
        a, b = _split(self.root, pos - 1, self.meter)
        self.root = _join(_join(a, node, self.meter), b, self.meter)
        self.root.parent = None
        return node

    def insert_node(self, pos: int, node: Node) -> Node:
        node.left = node.right = node.parent = None
        node.size = 1
        a, b = _split(self.root, pos - 1, self.meter)
        self.root = _join(_join(a, node, self.meter), b, self.meter)
        self.root.parent = None
        return node

    def delete_at(self, pos: int) -> Node:
        a, rest = _split(self.root, pos - 1, self.meter)
        mid, b = _split(rest, 1, self.meter)
        self.root = _join(a, b, self.meter)
        if self.root is not None:
            self.root.parent = None
        mid.parent = None
        mid.left = mid.right = None
        mid.size = 0  # dead marker
        return mid

    def node_at(self, pos: int) -> Node:
        return _select(self.root, pos, self.meter)

    def rank_of(self, node: Node) -> int:
        """1-based position of a live node; O(depth) via parent pointers."""
        if node.size == 0:
            raise DeadHandleError("handle was deleted")
        r = (node.left.size if node.left is not None else 0) + 1
        cur = node
        while cur.parent is not None:
            self.meter.ticks += 1
            p = cur.parent
            if p.right is cur:
                r += (p.left.size if p.left is not None else 0) + 1
            cur = p
        if cur is not self.root:
            raise DeadHandleError("handle does not belong to this sequence")
        return r

    def rank_first(self, pred: Callable[[Node], bool]) -> int:
        """Smallest 1-based rank whose node satisfies pred, assuming pred is
        monotone (all-False prefix, all-True suffix) along the sequence.
        Returns len+1 when no node satisfies it."""
        t = self.root
        res = (t.size + 1) if t is not None else 1
        acc = 0
        while t is not None:
            self.meter.ticks += 1
            if pred(t):
                res = acc + (t.left.size if t.left is not None else 0) + 1
                t = t.left
            else:
                acc += (t.left.size if t.left is not None else 0) + 1
                t = t.right
        return res

    def split(self, k: int) -> "Seq":
        """Detach and return the first k elements as a new Seq."""
        a, b = _split(self.root, k, self.meter)
        self.root = b
        out = Seq.__new__(Seq)
        out.root = a
        out.meter = self.meter
        out.rng = self.rng
        return out

    def detach_range(self, a: int, b: int) -> "Seq":
        """Detach ranks [a, b] (1-based, inclusive) as a new Seq."""
        pre, rest = _split(self.root, a - 1, self.meter)
        mid, post = _split(rest, b - a + 1, self.meter)
        self.root = _join(pre, post, self.meter)
        if self.root is not None:
            self.root.parent = None
        out = Seq.__new__(Seq)
        out.root = mid
        out.meter = self.meter
        out.rng = self.rng
        return out

    def join_right(self, other: "Seq") -> None:
        """Append all of other's elements after this sequence's last one."""
        self.root = _join(self.root, other.root, self.meter)
        if self.root is not None:
            self.root.parent = None
        other.root = None

    def materialize(self) -> list:
        return list(self)


class IndexedSeq:
    """Distinct-valued integer sequence with positional access, stable
    handles, and logarithmic updates.

    Positions are 1-based.  Values must be pairwise distinct; duplicates are
    rejected at ingestion rather than tie-broken silently.
    """

    def __init__(self, values: Iterable[int] = (),
                 meter: Optional[WorkMeter] = None,
                 seed: int = 0) -> None:
        values = list(values)
        self._seq = Seq(meter=meter, rng=random.Random(seed ^ 0x1D5EC),
                        items=values)
        self._values: set[int] = set(values)
        if len(self._values) != len(values):
            raise DuplicateValueError("seed values must be pairwise distinct")

    @property
    def meter(self) -> WorkMeter:
        return self._seq.meter

    def __len__(self) -> int:
        return len(self._seq)

    def __iter__(self) -> Iterator[int]:
        return iter(self._seq)

    def _check(self, op: Operation) -> None:
        _check_op(op, len(self), self._values)

    def apply(self, op: Operation):
        """Apply one operation. Returns the new handle for an insert, the
        removed value for a delete."""
        if op.kind == INSERT:
            self._check(op)
            return self._insert_checked(op)
        return self._pop(op).value

    def _insert_checked(self, op: Operation) -> Node:
        """Insert ``op``, which the caller has already passed through
        ``_check``; returns the new handle."""
        self._values.add(op.value)
        return self._seq.insert(op.position, op.value)

    def _pop(self, op: Operation) -> Node:
        """Check and apply a delete, with no separate lookup of the handle;
        returns the removed node, which is the element's handle."""
        self._check(op)
        node = self._seq.delete_at(op.position)
        self._values.discard(node.value)
        return node

    def insert(self, position: int, value: int):
        return self.apply(Operation(INSERT, position, value))

    def delete(self, position: int) -> int:
        return self.apply(Operation(DELETE, position))

    def value_at(self, position: int) -> int:
        if not 1 <= position <= len(self):
            raise PositionError(f"index {position} outside [1, {len(self)}]")
        return self._seq.node_at(position).value

    def handle_at(self, position: int):
        if not 1 <= position <= len(self):
            raise PositionError(f"index {position} outside [1, {len(self)}]")
        return self._seq.node_at(position)

    def position_of(self, handle) -> int:
        return self._seq.rank_of(handle)

    def rank_first(self, pred) -> int:
        return self._seq.rank_first(pred)

    def materialize(self) -> list[int]:
        return list(self._seq)

    def __contains__(self, value: int) -> bool:
        return value in self._values
