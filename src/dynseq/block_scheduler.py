"""Deamortization of block-based algorithms (global rebuilding).

A block is one generation of an estimator: it preprocesses the array as it
stands when it is built (resumably, in small quanta), then serves a bounded
number of operations at a bounded per-operation cost.  A
``WrappedEstimator`` chains such blocks into a continuously running
estimator: when the active block has consumed 9/10 of its capacity a
successor is built and starts preprocessing, spread over the next tenth;
operations arriving meanwhile are buffered and replayed to the successor at
two per step, so the successor is caught up exactly when the active block's
capacity runs out.

A block may instead continue into the next generation itself: when the
active block reports (``continuation``) that its live state already is what
a successor built now would preprocess, the scheduler skips the build, the
preprocessing and the replay, and the continuation takes over at handover
with no second instance alive.

Queries are always answered by the active, fully preprocessed block, so any
approximation guarantee of the block algorithm carries over unchanged.

The engines are ``WrappedEstimator`` subclasses: ``SqrtLis`` (``SqrtBlock``
generations), ``DtmDynamic`` (``_DtmBlock``) and ``KeyedWrapped``
(``GridBlock`` and ``KeyedNaiveBlock``), each passing the scheduler a
factory and its mirror.

The scheduler reads the array through a mirror, which offers ``len`` and
``apply(op) -> ctx`` (mutate, and return a context handed on to the blocks
with the operation).  A block reads what it needs from the mirror when it
is built; one that reads the array while it warms opens the mirror's
snapshot (``IndexedSeq.snapshot``), which walks the array as it stood at
the opening while the mirror keeps moving.  That mirror's context is the
element's handle, for a delete the removed one, which stays in the tree as
a tombstone until the snapshot closes, so a successor can still order it
when it replays the delete.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterator, Optional

from .indexed_sequence import Operation


class ContractViolationError(RuntimeError):
    """A block instance broke its contract (e.g. capacity ran out before the
    successor finished preprocessing, indicating a relativity breach)."""


class GeneratorBlock:
    """One block generation, the base of every block.

    Lifecycle: construct over the array, drive ``preprocess_step`` until
    ``done``, then serve up to ``capacity`` operations.  A block sets
    ``capacity`` and ``work``, the yields its ``preprocess_gen`` may take,
    when it is built; the scheduler paces a successor by ``work``, so one
    whose preprocessing yields more often is not ready at handover.  A
    block with nothing to preprocess sets ``done`` when it is built and is
    never stepped.
    """

    capacity: int
    work = 0

    def __init__(self) -> None:
        self._gen: Optional[Iterator[None]] = None
        self.done = False

    def preprocess_gen(self) -> Iterator[None]:
        raise NotImplementedError

    def preprocess_step(self, budget: int) -> bool:
        """Run up to ``budget`` preprocessing yields; returns ``done``."""
        if self.done:
            return True
        if self._gen is None:
            self._gen = self.preprocess_gen()
        try:
            for _ in range(budget):
                next(self._gen)
        except StopIteration:
            self.done = True
            self._gen = None
        return self.done

    def apply(self, op: Operation, ctx: Any) -> None:
        raise NotImplementedError

    def query(self) -> int:
        raise NotImplementedError

    def extract(self):
        raise NotImplementedError("this block algorithm has no witness")

    def continuation(self) -> Optional["GeneratorBlock"]:
        """The next generation, over the array as it stands now, when it can
        run on this block's live state: every operation the active block
        applies from here on reaches it too, so it needs no preprocessing and
        no replay.  None (the default) has the factory build the
        successor."""
        return None


SYNC_BASE_LEN = 32    # below this array size, preprocess synchronously
SYNC_BASE_CAP = 20    # below this capacity, build the successor synchronously


class WrappedEstimator:
    """Dynamic estimator built from a block-algorithm factory.

    ``factory()`` must return a fresh GeneratorBlock over the array as the
    mirror holds it at the call.  At most two instances are ever alive.
    ``generations_rebuilt`` and ``generations_continued`` count the
    handovers to a successor built by the factory and to a continuation.
    """

    def __init__(self, factory: Callable[[], GeneratorBlock], mirror) -> None:
        self.factory = factory
        self.mirror = mirror
        self.live_instances = 0
        self.max_live_instances = 0
        self._active: Optional[GeneratorBlock] = None
        self._active_used = 0
        self._warming: Optional[GeneratorBlock] = None
        self._continuing = False   # _warming shares the active block's state
        self._warm_quantum = 0
        self._warm_applied = 0
        # operations a rebuilt successor has yet to replay while it warms;
        # None otherwise: an empty deque holds a 64-slot block, and
        # partitioning 600 elements keeps about a thousand estimators
        self._buffer: Optional[deque[tuple[Operation, Any]]] = None
        self.generations_rebuilt = 0
        self.generations_continued = 0
        # first generation: preprocessed on the spot, charged to the caller
        inst = self.factory()
        self._alive(+1)
        while not inst.done:
            inst.preprocess_step(max(64, inst.work))
        self._active = inst

    def _begin_warming(self) -> None:
        self._warm_applied = 0
        inst = self._active.continuation()
        self._continuing = inst is not None
        if self._continuing:
            self._warming = inst
            return
        self._buffer = deque()
        inst = self.factory()
        self._alive(+1)
        g = self._active.capacity
        if g < SYNC_BASE_CAP or len(self.mirror) < SYNC_BASE_LEN:
            # degenerate/tiny generations: finish preprocessing on the spot
            while not inst.done:
                inst.preprocess_step(max(64, inst.work))
            self._warm_quantum = 0
        else:
            pieces = max(1, g // 20)
            self._warm_quantum = -(-inst.work // pieces)
        self._warming = inst

    def _alive(self, delta: int) -> None:
        self.live_instances += delta
        if self.live_instances > self.max_live_instances:
            self.max_live_instances = self.live_instances

    # -- estimator surface ----------------------------------------------------

    @property
    def active(self) -> GeneratorBlock:
        return self._active

    def apply(self, op: Operation):
        """Feed one operation; returns the mirror's op context (an
        ``IndexedSeq``'s is the element's handle, for a delete the removed
        one)."""
        ctx = self.mirror.apply(op)
        self._active.apply(op, ctx)
        self._active_used += 1
        g = self._active.capacity
        if self._warming is not None:
            if self._continuing:
                self._warm_applied += 1
            else:
                self._buffer.append((op, ctx))
                if not self._warming.done:
                    self._warming.preprocess_step(self._warm_quantum)
                if self._warming.done:
                    drained = 0
                    while self._buffer and drained < 2:
                        b_op, b_ctx = self._buffer.popleft()
                        self._warming.apply(b_op, b_ctx)
                        self._warm_applied += 1
                        drained += 1
        if self._warming is None and self._active_used >= (9 * g + 9) // 10:
            self._begin_warming()
        if self._active_used >= g:
            self._handover()
        return ctx

    def _handover(self) -> None:
        # warming began at step (9g+9)//10 <= g, and a successor of an active
        # block below SYNC_BASE_CAP was preprocessed when it was built
        if self._continuing:
            self._continuing = False
            self.generations_continued += 1
        else:
            if not self._warming.done:
                raise ContractViolationError(
                    "successor not preprocessed at handover; relativity breach?")
            while self._buffer:
                b_op, b_ctx = self._buffer.popleft()
                self._warming.apply(b_op, b_ctx)
                self._warm_applied += 1
            self._buffer = None
            self._alive(-1)
            self.generations_rebuilt += 1
        self._active = self._warming
        self._warming = None
        # the successor has already consumed the replayed operations
        self._active_used = self._warm_applied
        self._warm_applied = 0

    def query(self) -> int:
        return self._active.query()

    def extract(self):
        return self._active.extract()

