import gc
import math
import random
import weakref

import pytest

from dynseq import indexed_sequence
from dynseq.block_scheduler import (SYNC_BASE_CAP, SYNC_BASE_LEN,
                                    ContractViolationError, GeneratorBlock,
                                    WrappedEstimator)
from dynseq.classic import lis_length
from dynseq.dynamic_dtm import DtmDynamic
from dynseq.dynamic_lis import (HierarchyLis, NaiveLis, SqrtBlock, SqrtLis,
                                sqrt_engine)
from dynseq.exact_lis import ExactDynamicLis
from dynseq.indexed_sequence import INSERT, IndexedSeq, dele, ins
from dynseq.streams import generate_stream
from dynseq.work import WorkMeter
from oracles import fenwick_lis, fenwick_lis_prefixes, fresh_values


class RecomputeBlock(GeneratorBlock):
    """Exact block algorithm with a tiny capacity: the wrapper must then
    degenerate to recompute-per-operation and stay exact throughout."""

    def __init__(self, mirror, capacity=1):
        super().__init__()
        self.items = list(mirror)
        self.capacity = capacity
        self.work = max(1, len(self.items))

    def preprocess_gen(self):
        self._lis = lis_length(self.items)
        yield

    def apply(self, op, ctx):
        if op.kind == INSERT:
            self.items.insert(op.position - 1, op.value)
        else:
            self.items.pop(op.position - 1)
        self._lis = lis_length(self.items)

    def query(self):
        return self._lis


def test_capacity_one_degenerates_to_recompute():
    meter = WorkMeter()
    mirror = IndexedSeq(meter=meter)
    est = WrappedEstimator(lambda: RecomputeBlock(mirror, capacity=1), mirror)
    rng = random.Random(1)
    ref = []
    used = set()
    for _ in range(300):
        if ref and rng.random() < 0.4:
            p = rng.randint(1, len(ref))
            est.apply(dele(p))
            ref.pop(p - 1)
        else:
            (v,) = fresh_values(rng, used)
            p = rng.randint(1, len(ref) + 1)
            est.apply(ins(p, v))
            ref.insert(p - 1, v)
        assert est.query() == lis_length(ref)
    assert est.max_live_instances <= 2


class PacedBlock(RecomputeBlock):
    """RecomputeBlock whose preprocessing yields once per 4 elements."""

    def __init__(self, mirror, capacity=1):
        super().__init__(mirror, capacity)
        self.work = len(self.items) // 4 + 2

    def preprocess_gen(self):
        for _ in range(len(self.items) // 4):
            yield
        self._lis = lis_length(self.items)
        self.ready = True
        yield


@pytest.mark.parametrize("capacity", range(1, 26))
def test_every_successor_is_ready_before_its_handover(capacity, monkeypatch):
    # capacities 1-25 and sizes 30-34 straddle SYNC_BASE_CAP and
    # SYNC_BASE_LEN: successors are preprocessed on the spot below either
    # and paced above both, and each must be ready before the handover
    # starts
    assert 1 < SYNC_BASE_CAP <= 25 and 30 < SYNC_BASE_LEN <= 34
    handover = WrappedEstimator._handover
    handovers = 0

    def checked_handover(self):
        nonlocal handovers
        handovers += 1
        assert getattr(self._warming, "ready", False)
        handover(self)

    monkeypatch.setattr(WrappedEstimator, "_handover", checked_handover)
    mirror = IndexedSeq(meter=WorkMeter(), seed=capacity)
    est = WrappedEstimator(lambda: PacedBlock(mirror, capacity=capacity), mirror)
    rng = random.Random(capacity)
    used = set()
    ref = []
    sizes = set()
    for _ in range(150 + 8 * capacity):
        if len(ref) == 34 or (len(ref) > 30 and rng.random() < 0.5):
            p = rng.randint(1, len(ref))
            est.apply(dele(p))
            ref.pop(p - 1)
        else:
            (v,) = fresh_values(rng, used)
            p = rng.randint(1, len(ref) + 1)
            est.apply(ins(p, v))
            ref.insert(p - 1, v)
        assert est.query() == lis_length(ref)
        if len(ref) >= 30:
            sizes.add(len(ref))
    assert handovers == est.generations_rebuilt >= 10
    assert sizes == set(range(30, 35))


def test_engines_are_freed_without_the_cyclic_collector():
    # the zero-argument factories close over their parts, never over the
    # engine: with the collector off, dropping an engine frees it at once.
    # (Trees with parent pointers form cycles of their own, so only the
    # engine object itself is checked.)
    rng = random.Random(4)
    gc.disable()
    try:
        for make in (lambda: SqrtLis(0.5, seed=1), lambda: DtmDynamic(0.5),
                     NaiveLis):
            eng = make()
            used = set()
            for i in range(300):
                (v,) = fresh_values(rng, used)
                eng.apply(ins(rng.randint(1, i + 1), v))
            ref = weakref.ref(eng)
            del eng
            assert ref() is None, make
    finally:
        gc.enable()


def mixed_stream(seed, steps, delete_prob):
    """Inserts of fresh values and deletes, both at uniform positions."""
    rng = random.Random(seed)
    used = set()
    n = 0
    for _ in range(steps):
        if n and rng.random() < delete_prob:
            yield dele(rng.randint(1, n))
            n -= 1
        else:
            (v,) = fresh_values(rng, used)
            yield ins(rng.randint(1, n + 1), v)
            n += 1


def test_never_more_than_two_instances():
    # uniform: the LIS stays below the threshold, so exact generations
    # continue on one level structure and rarely overlap
    eng = sqrt_engine(0.5, seed=2)
    for op in mixed_stream(2, 3000, 0.3):
        eng.apply(op)
    assert eng.max_live_instances <= 2
    assert eng.generations_continued > 0
    # sorted: every frozen generation is built from its snapshot while the
    # active one still serves
    eng = sqrt_engine(0.5, seed=2)
    for i in range(3000):
        eng.apply(ins(i + 1, i))
    assert eng.max_live_instances == 2  # generations really did overlap


@pytest.mark.parametrize("seed", range(3, 9))
def test_per_step_work_budget(seed):
    # instrumented per-step units stay within a fitted multiple of
    # max(h, 20 f/g + 2h); for the sqrt engine that envelope is
    # sqrt(n) log^2 n up to a constant
    meter = WorkMeter()
    eng = sqrt_engine(0.5, meter=meter, seed=seed)
    ratios = []
    for op in mixed_stream(seed, 4000, 0.25):
        before = meter.ticks
        eng.apply(op)
        n = len(eng)
        units = meter.ticks - before
        envelope = math.sqrt(n + 2) * math.log2(n + 4) ** 2
        ratios.append(units / envelope)
    ratios.sort()
    # fit on the typical mass; the max must stay within a small factor of it
    p95 = ratios[int(0.95 * (len(ratios) - 1))]
    assert ratios[-1] <= max(6.0, 8.0 * p95), (ratios[-1], p95)


def test_exact_updates_look_up_no_positions(monkeypatch):
    # the level searches compare order labels, so no update walks to a
    # position
    inside = False
    lookups = 0
    ran = {"insert_handle": 0, "delete_handle": 0}
    position_of = IndexedSeq.position_of

    def counting_position_of(self, handle):
        nonlocal lookups
        lookups += inside
        return position_of(self, handle)

    def tracked(name):
        update = getattr(ExactDynamicLis, name)

        def run(self, *args):
            nonlocal inside
            inside = True
            ran[name] += 1
            try:
                update(self, *args)
            finally:
                inside = False
        monkeypatch.setattr(ExactDynamicLis, name, run)

    monkeypatch.setattr(IndexedSeq, "position_of", counting_position_of)
    tracked("insert_handle")
    tracked("delete_handle")
    eng = sqrt_engine(0.5, seed=3)
    for op in mixed_stream(3, 4000, 0.25):
        eng.apply(op)
    # the wrapped updates ran
    assert ran["insert_handle"] > 0 and ran["delete_handle"] > 0
    assert lookups == 0


@pytest.mark.parametrize("seed", range(1, 7))
def test_frozen_branch_preprocessing_is_paced(seed):
    # a sorted stream keeps the LIS above the threshold, so every generation
    # is a frozen one built from its snapshot while the active one serves;
    # that build must be spread over the warm-up steps
    meter = WorkMeter()
    eng = sqrt_engine(0.5, meter=meter, seed=seed)
    worst = 0.0
    for op in generate_stream("sorted", 4000, seed, insert_prob=0.55):
        before = meter.ticks
        eng.apply(op)
        n = len(eng)
        envelope = math.sqrt(n + 2) * math.log2(n + 4) ** 2
        worst = max(worst, (meter.ticks - before) / envelope)
    assert eng.generations_rebuilt > 0
    assert worst <= 4.5, worst


@pytest.mark.parametrize("kind", ["random", "sorted", "reverse"])
def test_sqrt_work_estimate_covers_preprocessing(kind):
    # the scheduler paces a successor by its estimate, and sees it finish
    # one step after its last yield, so the estimate must exceed the yields
    for n in (0, 1, 24, 63, 64, 65, 200, 1000, 3000):
        values = list(range(n))
        if kind == "random":
            random.Random(n).shuffle(values)
        elif kind == "reverse":
            values.reverse()
        mirror = IndexedSeq(meter=WorkMeter(), seed=n)
        for i, v in enumerate(values):
            mirror.apply(ins(i + 1, v))
        blk = SqrtBlock(0.5, mirror)
        yields = sum(1 for _ in blk.preprocess_gen())
        assert blk.work > yields, (n, blk.branch)
        assert blk.query() == fenwick_lis(values)
    # at n = 3000 a sorted snapshot freezes and the others run exact
    assert blk.branch == ("frozen" if kind == "sorted" else "exact")


@pytest.mark.parametrize("kind", ["random", "reverse"])
def test_exact_branch_seeding_is_paced(kind):
    # building the backing sequence, grouping by level and building each
    # level tree all yield every 64 elements, so no stretch between two
    # yields of the preprocessing charges more than about 64 log n ticks
    for n in (1000, 3000, 10000):
        values = list(range(n))
        if kind == "random":
            random.Random(n).shuffle(values)
        else:
            values.reverse()
        meter = WorkMeter()
        mirror = IndexedSeq(meter=meter, seed=n)
        for i, v in enumerate(values):
            mirror.apply(ins(i + 1, v))
        blk = SqrtBlock(0.5, mirror)
        marks = [meter.ticks]
        for _ in blk.preprocess_gen():
            marks.append(meter.ticks)
        marks.append(meter.ticks)
        worst = max(b - a for a, b in zip(marks, marks[1:]))
        assert blk.branch == "exact"
        assert worst < 64 * (2 + n.bit_length()), (n, worst)


@pytest.mark.parametrize("kind", ["sorted", "uniform"])
def test_snapshot_lives_from_a_rebuilt_generation_to_the_next_build(kind):
    # only a generation the factory builds opens a snapshot, and it drops
    # the walk as its patience pass starts; the next generation's build
    # closes the snapshot, and until then its tombstones are at most the
    # deletes since the opening
    eng = sqrt_engine(0.5, seed=1)
    wrapped = eng._wrapped
    mirror = wrapped.mirror
    built = [wrapped.active]   # the generations the factory built
    factory = wrapped.factory

    def counted_factory():
        built.append(factory())
        return built[-1]

    wrapped.factory = counted_factory
    newest = wrapped.active
    deletes = 0
    seen = {"open": 0, "closed": 0}
    for op in generate_stream(kind, 3000, 1):
        eng.apply(op)
        deletes += op.kind != INSERT
        active, warming = wrapped.active, wrapped._warming
        walking = [blk for blk in (active, warming) if blk is not None
                   and (blk.snap is not None or blk._gen is not None)]
        assert walking in ([], [warming])
        if warming is not None and wrapped._continuing:
            assert warming.snap is None and warming._gen is None
        latest = warming if warming is not None else active
        if latest is not newest:   # built in this step, after its update
            newest = latest
            deletes = 0
        if newest is built[-1]:
            seen["open"] += 1
            assert mirror._born is not None
            assert len(mirror._tombs) <= deletes
        else:
            seen["closed"] += 1
            assert mirror._born is None and not mirror._tombs
    # sorted: frozen generations, each rebuilt while the active one serves;
    # uniform: exact generations, which continue
    assert seen["open"] > 0
    if kind == "sorted":
        assert eng.generations_rebuilt > 0
    else:
        assert eng.generations_continued > 0 and seen["closed"] > 0


@pytest.mark.parametrize("seed", range(1, 4))
def test_frozen_witness_survives_deletes_and_reinserts(seed, monkeypatch):
    # sorted appends keep the LIS above the threshold; deleting witness
    # elements and re-inserting deleted values anywhere checks that a frozen
    # generation keys its witness by live values alone
    preprocessing: list = []   # the SqrtBlock whose preprocessing is running
    owners: list = []          # the block that was preprocessing at each build
    frozen_builds = 0
    seq_init = IndexedSeq.__init__
    preprocess_gen = SqrtBlock.preprocess_gen

    def counted_init(self, *args, **kwargs):
        if preprocessing:
            owners.append(preprocessing[-1])
        seq_init(self, *args, **kwargs)

    def traced_gen(self):
        nonlocal frozen_builds
        inner = preprocess_gen(self)
        while True:
            preprocessing.append(self)
            try:
                next(inner)
            except StopIteration:
                frozen_builds += self.branch == "frozen"
                return
            finally:
                preprocessing.pop()
            yield

    monkeypatch.setattr(IndexedSeq, "__init__", counted_init)
    monkeypatch.setattr(SqrtBlock, "preprocess_gen", traced_gen)
    rng = random.Random(seed)
    eng = sqrt_engine(0.5, seed=seed)
    shadow: list = []
    deleted: list = []
    top = 0
    for _ in range(1500):
        roll = rng.random()
        if shadow and roll < 0.15:
            pos, _ = rng.choice(eng.extract() or [(rng.randint(1, len(shadow)), 0)])
            deleted.append(shadow[pos - 1])
            op = dele(pos)
        elif deleted and roll < 0.3:
            op = ins(rng.randint(1, len(shadow) + 1),
                     deleted.pop(rng.randrange(len(deleted))))
        else:
            top += rng.randint(1, 9)
            op = ins(len(shadow) + 1, top)
        eng.apply(op)
        if op.kind == INSERT:
            shadow.insert(op.position - 1, op.value)
        else:
            shadow.pop(op.position - 1)
        est = eng.query()
        witness = eng.extract()
        assert len(witness) == est <= fenwick_lis(shadow) <= 1.5 * est
        for (p, v), (q, w) in zip(witness, witness[1:]):
            assert p < q and v < w
        for p, v in witness:
            assert shadow[p - 1] == v
    assert frozen_builds > 3
    assert not [blk for blk in owners if blk.branch == "frozen"]


def _staircase(runs: int, base: int) -> list[int]:
    """``runs`` runs of 16 values, each run descending and above the last:
    LIS ``runs``."""
    return [base + 32 * j + 15 - t for j in range(runs) for t in range(16)]


def _one_spot_replay(epsilon, seed, steps, check):
    """Replay the sqrt engine over appends of a staircase, a sorted stretch
    and a second staircase, then ``steps`` updates at the one spot after the
    stretch: deletes of its last element and inserts that extend it, which
    steer the LIS across the threshold and back so that frozen and exact
    generations are rebuilt in turn, and between them inserts nested in
    that spot, whose values keep the LIS.  While a rebuilt successor warms,
    the stream deletes once and then nests inserts, so the delete waits in
    the buffer while inserts land where its element was.
    ``check(eng, shadow, lis, t)`` runs after every update, with the shadow
    array's LIS."""
    rng = random.Random(seed)
    stretch = [2 * 10 ** 8 + (i << 16) for i in range(90)]
    prefill = _staircase(120, 0) + stretch + _staircase(120, 4 * 10 ** 8)
    eng = sqrt_engine(epsilon, seed=seed)
    shadow: list = []
    for t, (v, lis) in enumerate(zip(prefill, fenwick_lis_prefixes(prefill))):
        eng.apply(ins(t + 1, v))
        shadow.append(v)
        check(eng, shadow, lis, t)
    used = set(prefill)
    nested = 10 ** 8
    spot = 120 * 16 + len(stretch) + 1   # first position after the stretch
    down = True
    for step in range(steps):
        tau = (2 / epsilon + 1) * math.sqrt(len(shadow))
        if lis >= tau + 6:
            down = True
        elif lis <= tau - 6:
            down = False
        buffer = eng._wrapped._buffer
        if buffer is not None:   # a rebuilt successor warms
            kind = ("delete" if all(op.kind == INSERT for op, _ in buffer)
                    else "nested")
        elif step % 3 == 0:
            kind = "delete" if down else "extend"
        else:
            kind = "nested"
        if kind == "delete":
            op = dele(spot - 1)
            spot -= 1
        elif kind == "extend":
            v = shadow[spot - 2] + rng.randint(1, 1 << 10)
            while v in used:
                v += 1
            used.add(v)
            op = ins(spot, v)
            spot += 1
        else:
            nested += rng.randint(1, 9)
            op = ins(spot, nested)
        eng.apply(op)
        if op.kind == INSERT:
            shadow.insert(op.position - 1, op.value)
        else:
            shadow.pop(op.position - 1)
        lis = fenwick_lis(shadow)
        check(eng, shadow, lis, len(prefill) + step)
    return eng


@pytest.mark.parametrize("seed", range(1, 3))
def test_rebuilt_exact_successors_replay_deletes_across_relabels(seed,
                                                                 monkeypatch):
    # a label spacing of 4 uses a gap up after two nested inserts, and a
    # relabel that may leave up to 1.9**i nodes in 2**i labels leaves gaps
    # of a few labels, so the inserts at the spot relabel the handles
    # around it, deleted ones included, while a rebuilt exact successor has
    # their deletes buffered
    monkeypatch.setattr(indexed_sequence, "LABEL_SPACING", 4)
    monkeypatch.setattr(indexed_sequence, "RELABEL_GROWTH", 1.9)
    eps = 0.5
    built: list = []
    sqrt_init = SqrtBlock.__init__

    def counted_init(self, *args, **kwargs):
        sqrt_init(self, *args, **kwargs)
        if self.exact is None:
            built.append(self)

    monkeypatch.setattr(SqrtBlock, "__init__", counted_init)
    relabelled = 0   # the mirror's relabels so far
    across = 0       # steps that relabel while an exact successor waits to
                     # replay a delete

    def check(eng, shadow, lis, t):
        nonlocal relabelled, across
        wrapped = eng._wrapped
        mirror = wrapped.mirror
        deletes = [h for op, h in wrapped._buffer or () if op.kind != INSERT]
        # every delete a rebuilt successor has yet to replay names a handle
        # still in the mirror's tree, where relabels reach it
        for h in deletes:
            while h.parent is not None:
                h = h.parent
            assert h is mirror._seq.root, t
        if deletes and wrapped._warming.branch == "exact":
            across += mirror.relabelled > relabelled
        relabelled = mirror.relabelled
        est = eng.query()
        assert est <= lis <= (1 + eps) * est, t
        if t % 50 == 0:
            witness = eng.extract()
            assert len(witness) == est
            for (p, v), (q, w) in zip(witness, witness[1:]):
                assert p < q and v < w
            assert all(shadow[p - 1] == v for p, v in witness)

    _one_spot_replay(eps, seed, 900, check)
    rebuilt = [blk.branch for blk in built[1:]]
    assert "frozen" in rebuilt and rebuilt.count("exact") >= 2
    assert across > 0


def test_one_treap_per_sqrt_engine(monkeypatch):
    # a stream that rebuilds frozen and exact generations in turn builds no
    # sequence but the mirror
    seqs = 0
    built: list = []
    seq_init = IndexedSeq.__init__
    sqrt_init = SqrtBlock.__init__

    def counted_seq(self, *args, **kwargs):
        nonlocal seqs
        seqs += 1
        seq_init(self, *args, **kwargs)

    def counted_block(self, *args, **kwargs):
        sqrt_init(self, *args, **kwargs)
        if self.exact is None:
            built.append(self)

    monkeypatch.setattr(IndexedSeq, "__init__", counted_seq)
    monkeypatch.setattr(SqrtBlock, "__init__", counted_block)
    _one_spot_replay(0.5, 1, 600, lambda *args: None)
    rebuilt = [blk.branch for blk in built[1:]]
    assert "frozen" in rebuilt and "exact" in rebuilt
    assert seqs == 1


def test_unready_successor_is_a_contract_violation():
    meter = WorkMeter()
    est = WrappedEstimator(_FirstFine, IndexedSeq(meter=meter))
    rng = random.Random(5)
    with pytest.raises(ContractViolationError):
        for i in range(200):
            est.apply(ins(1, i))


class _FirstFine(GeneratorBlock):
    """First generation works; successors never finish preprocessing."""

    count = 0

    def __init__(self):
        super().__init__()
        _FirstFine.count += 1
        self.broken = _FirstFine.count > 1
        self.capacity = 40
        self.work = 1

    def preprocess_gen(self):
        if self.broken:
            while True:
                yield
        yield

    def apply(self, op, ctx):
        pass

    def query(self):
        return 0


class _SerialMirror:
    """A mirror that keeps only the length, and hands each operation its
    serial number as the context."""

    def __init__(self):
        self.n = 0
        self.serial = 0

    def __len__(self):
        return self.n

    def apply(self, op):
        self.n += 1 if op.kind == INSERT else -1
        self.serial += 1
        return self.serial


class _BuiltDone(GeneratorBlock):
    """Nothing to preprocess: built done, and records what it applies."""

    def __init__(self, mirror, capacity):
        super().__init__()
        self.done = True
        self.capacity = capacity
        self.start = mirror.serial
        self.applied = []

    def preprocess_step(self, budget):
        raise AssertionError("a block built done was stepped")

    def apply(self, op, ctx):
        self.applied.append(ctx)


@pytest.mark.parametrize("capacity", [5, SYNC_BASE_CAP, 40])
def test_successor_built_done_replays_every_buffered_operation_once(capacity):
    # successors are built on the spot while the array is short and paced
    # past SYNC_BASE_LEN; one built done is never stepped, and the active
    # block has applied every operation since its build, in order, once
    mirror = _SerialMirror()
    est = WrappedEstimator(lambda: _BuiltDone(mirror, capacity), mirror)
    for i in range(300):
        est.apply(ins(1, i) if i % 3 or not len(mirror) else dele(1))
        active = est.active
        assert active.applied == list(range(active.start + 1, mirror.serial + 1))
        warming = est._warming
        if warming is not None:
            # a successor catches up at two buffered operations per step
            assert warming.applied == list(
                range(warming.start + 1, warming.start + 1 + len(warming.applied)))
    assert est.generations_rebuilt > 300 // capacity - 2
    assert len(mirror) > SYNC_BASE_LEN


def test_traced_methods_stay_on_their_own_class():
    # perfbench/run.py --trace 1 times these by name on the class that
    # defines them; an inherited one would be traced under another name
    for cls, name in ((SqrtLis, "apply"), (DtmDynamic, "apply"),
                      (HierarchyLis, "apply"),
                      (GeneratorBlock, "preprocess_step"),
                      (WrappedEstimator, "apply")):
        assert name in vars(cls), (cls.__name__, name)
