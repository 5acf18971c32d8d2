import math
import random
from bisect import bisect_right
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynseq import indexed_sequence
from dynseq.indexed_sequence import (DeadHandleError, DuplicateValueError,
                                     IndexedSeq, Operation, PositionError,
                                     Seq, _next, dele, ins)
from dynseq.streams import KINDS, generate_stream
from dynseq.work import WorkMeter


def labels_increase(s: IndexedSeq) -> bool:
    labels = [h.label for h in s._seq.nodes()]
    return all(a < b for a, b in zip(labels, labels[1:]))


def test_empty_base_case():
    s = IndexedSeq()
    s.apply(ins(1, 5))
    assert s.materialize() == [5]


def test_shift_by_one():
    s = IndexedSeq()
    s.apply(ins(1, 5))
    h5 = s.handle_at(1)
    s.apply(ins(1, 2))
    assert s.materialize() == [2, 5]
    assert s.position_of(h5) == 2


def test_delete_returns_value():
    s = IndexedSeq([2, 5])
    assert s.apply(dele(1)).value == 2
    assert s.materialize() == [5]


def test_value_at():
    s = IndexedSeq([2, 5])
    assert s.value_at(2) == 5
    assert s.value_at(1) == 2


def test_len_after_ops():
    s = IndexedSeq()
    for i in range(10):
        s.insert(1, i)
    for _ in range(4):
        s.delete(1)
    assert len(s) == 6


def test_position_errors():
    s = IndexedSeq([1, 2])
    with pytest.raises(PositionError):
        s.apply(ins(4, 9))
    with pytest.raises(PositionError):
        s.apply(dele(3))
    with pytest.raises(PositionError):
        s.value_at(0)


def test_duplicate_rejected():
    s = IndexedSeq([1, 2])
    with pytest.raises(DuplicateValueError):
        s.apply(ins(1, 2))


def test_dead_handle():
    s = IndexedSeq([1, 2, 3])
    h = s.handle_at(2)
    s.delete(2)
    with pytest.raises(DeadHandleError):
        s.position_of(h)


def test_pop_returns_the_handle_and_checks_once():
    s = IndexedSeq([1, 2, 3])
    h = s.handle_at(2)
    assert s.apply(dele(2)) is h
    assert s.materialize() == [1, 3] and 2 not in s
    with pytest.raises(PositionError, match=r"delete position 3 outside \[1, 2\]"):
        s.apply(dele(3))
    assert s.materialize() == [1, 3]


def test_rank_first_value_gt_matches_bisect():
    rng = random.Random(14)
    for n in (0, 1, 2, 7, 200):
        vals = sorted(rng.sample(range(0, 10 * n + 10, 2), n))
        seq = Seq(items=vals)
        for v in range(-1, 10 * n + 12):
            i = bisect_right(vals, v)
            r, pred, succ = seq.value_neighbours(v)
            assert r == i + 1
            assert pred is (seq.node_at(i) if i else None)
            assert succ is (seq.node_at(i + 1) if i < n else None)


def test_replay_equivalence_random_stream():
    rng = random.Random(12)
    s = IndexedSeq(seed=12)
    ref: list[int] = []
    handles = {}
    used = set()
    for step in range(4000):
        if ref and rng.random() < 0.4:
            p = rng.randint(1, len(ref))
            got = s.apply(dele(p)).value
            want = ref.pop(p - 1)
            assert got == want
            handles.pop(want)
        else:
            p = rng.randint(1, len(ref) + 1)
            while True:
                v = rng.randint(0, 1 << 40)
                if v not in used:
                    break
            used.add(v)
            handles[v] = s.apply(ins(p, v))
            ref.insert(p - 1, v)
        if step % 200 == 0:
            assert s.materialize() == ref
    assert s.materialize() == ref
    # handle stability after arbitrary interleaving
    for v, h in handles.items():
        p = s.position_of(h)
        assert ref[p - 1] == v


def test_position_of_matches_array_replay():
    s = IndexedSeq()
    h1 = s.apply(ins(1, 10))
    h2 = s.apply(ins(2, 20))
    h3 = s.apply(ins(1, 30))
    s.apply(dele(2))  # removes 10
    assert s.materialize() == [30, 20]
    assert s.position_of(h3) == 1
    assert s.position_of(h2) == 2


def test_work_bound_logarithmic():
    # node touches per op stay within a fixed multiple of log2(len + 2)
    meter = WorkMeter()
    rng = random.Random(5)
    s = IndexedSeq(meter=meter, seed=5)
    used = set()
    worst = 0.0
    n_ops = 6000
    for _ in range(n_ops):
        before = meter.ticks
        if len(s) and rng.random() < 0.35:
            s.apply(dele(rng.randint(1, len(s))))
        else:
            while True:
                v = rng.randint(0, 1 << 40)
                if v not in used:
                    break
            used.add(v)
            s.apply(ins(rng.randint(1, len(s) + 1), v))
        touches = meter.ticks - before
        worst = max(worst, touches / math.log2(len(s) + 2))
    assert worst <= 16.0, worst


@settings(max_examples=120, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 1 << 20)), max_size=60))
def test_replay_property(moves):
    s = IndexedSeq(seed=3)
    ref: list[int] = []
    used = set()
    for slot, val in moves:
        if ref and slot == 0:
            p = slot % len(ref) + 1
            assert s.apply(dele(p)).value == ref.pop(p - 1)
        else:
            if val in used:
                continue
            used.add(val)
            p = slot % (len(ref) + 1) + 1
            s.apply(ins(p, val))
            ref.insert(p - 1, val)
        assert labels_increase(s)
    assert s.materialize() == ref


@pytest.mark.parametrize("kind", KINDS)
def test_labels_follow_stream_without_relabels(kind):
    # appends step a fixed spacing past the end and interior inserts halve a
    # gap, so these streams never use a gap up
    s = IndexedSeq(seed=4)
    for step, op in enumerate(generate_stream(kind, 20_000, 4)):
        s.apply(op)
        if step % 500 == 0:
            assert labels_increase(s)
    assert labels_increase(s)
    assert s.relabelled == 0


@pytest.mark.parametrize("position", [1, 2])
def test_labels_increase_under_repeated_inserts_at_one_position(position):
    s = IndexedSeq(seed=6)
    for i in range(2000):
        s.insert(min(position, len(s) + 1), i)
        assert labels_increase(s)
    assert s.materialize()[:position - 1] == list(range(position - 1))


def test_labels_increase_when_gaps_run_out_often(monkeypatch):
    # a spacing of 4 uses a gap up after two nested inserts, so relabels
    # run all the time, between deletes and inserts at random positions
    monkeypatch.setattr(indexed_sequence, "LABEL_SPACING", 4)
    rng = random.Random(9)
    s = IndexedSeq(list(range(0, 40, 2)), seed=9)
    ref = list(range(0, 40, 2))
    for v in range(1001, 4001):
        if ref and rng.random() < 0.3:
            p = rng.randint(1, len(ref))
            assert s.apply(dele(p)).value == ref.pop(p - 1)
        else:
            p = rng.randint(1, len(ref) + 1)
            s.apply(ins(p, v))
            ref.insert(p - 1, v)
        assert labels_increase(s)
    assert s.materialize() == ref
    assert s.relabelled > 0


def test_relabel_cost_is_n_log_n_in_total():
    # 20 000 inserts at position 2 use up a gap about every few inserts;
    # the local relabels stay O(log n) nodes per insert, amortized
    # (measured: 0.64 n log2 n relabelled nodes)
    c = 1.0
    meter = WorkMeter()
    s = IndexedSeq(meter=meter, seed=8)
    n = 20_000
    for i in range(n):
        s.insert(min(2, len(s) + 1), i)
    assert labels_increase(s)
    assert 0 < s.relabelled <= c * n * math.log2(n)
    assert meter.ticks <= 4 * c * n * math.log2(n)


def test_split_detach_rejoin_keeps_order():
    s = IndexedSeq(list(range(0, 100, 2)), seed=1)
    inner = s._seq
    mid = inner.detach_range(10, 20)
    assert mid.materialize() == [v for v in range(0, 100, 2)][9:20]
    rest = inner.materialize()
    assert len(rest) == 50 - 11


def _shape(seq: Seq) -> list[tuple]:
    """In-order (value, size, parent, left, right) of every node, by value,
    after checking sizes, parent links and heap order on the way."""
    root = seq.root
    assert root is None or root.parent is None
    out = []
    for n in seq.nodes():
        size = 1
        for c in (n.left, n.right):
            if c is not None:
                assert c.parent is n
                assert c.prio <= n.prio
                size += c.size
        assert n.size == size
        out.append((n.value, n.size,
                    *(None if x is None else x.value
                      for x in (n.parent, n.left, n.right))))
    return out


def test_unlink_matches_split_join_removal():
    rng = random.Random(71)
    for trial in range(20):
        n = rng.randint(1, 120)
        by_unlink = Seq(meter=WorkMeter(), rng=random.Random(trial),
                        items=range(n))
        by_split = Seq(meter=WorkMeter(), rng=random.Random(trial),
                       items=range(n))
        assert _shape(by_unlink) == _shape(by_split)
        while len(by_split):
            pos = rng.randint(1, len(by_split))
            node = by_unlink.node_at(pos)
            by_unlink.unlink(node)
            by_split.detach_range(pos, pos)
            assert _shape(by_unlink) == _shape(by_split)
            assert node.size == 0
            assert node.parent is node.left is node.right is None
            with pytest.raises(DeadHandleError):
                by_unlink.rank_of(node)
            with pytest.raises(DeadHandleError):
                by_unlink.unlink(node)
        assert by_unlink.root is None


def test_unlink_charges_fewer_ticks_than_split_join():
    ticks = []
    for remove in (lambda s, pos: s.unlink(s.node_at(pos)),
                   lambda s, pos: s.detach_range(pos, pos)):
        meter = WorkMeter()
        s = Seq(meter=meter, rng=random.Random(3), items=range(2000))
        rng = random.Random(4)
        meter.ticks = 0
        for _ in range(1000):
            remove(s, rng.randint(1, len(s)))
        ticks.append(meter.ticks)
    assert ticks[0] < ticks[1], ticks


def test_snapshot_walk_matches_a_copy_taken_at_opening():
    # between steps of the walk: deletes at, ahead of and behind it, runs of
    # deletes ahead of it in random order, deletes of elements inserted since
    # the opening, and bursts of inserts nested in one gap, which use its
    # labels up and force relabels
    counts = dict.fromkeys(["at", "ahead", "behind", "run", "born",
                            "insert", "nested"], 0)
    relabelled = 0
    free = WorkMeter()
    for seed in range(300):
        rng = random.Random(seed)
        fresh = count()
        s = IndexedSeq(rng.sample(range(10 ** 6, 2 * 10 ** 6),
                                  rng.randint(0, 40)), seed=seed)
        for _ in range(rng.randint(0, 10)):
            s.insert(rng.randint(1, len(s) + 1), next(fresh))
        copy = s.materialize()
        walk = s.snapshot()
        with pytest.raises(RuntimeError):
            s.snapshot()
        born: list = []
        last = None     # the handle the walk yielded last
        before = s.relabelled

        def update():
            # the position of the first live element past the walk's last
            nxt = None if last is None else _next(last, free)
            while nxt is not None and not nxt.live:
                nxt = _next(nxt, free)
            at = (1 if last is None else
                  len(s) + 1 if nxt is None else s.position_of(nxt))
            live = [h for h in born if h.live]
            kind = rng.choice(list(counts))
            if kind == "at" and at <= len(s):
                s.delete(at)
            elif kind == "ahead" and at < len(s):
                s.delete(rng.randint(at + 1, len(s)))
            elif kind == "behind" and at > 1:
                s.delete(rng.randint(1, at - 1))
            elif kind == "run" and at <= len(s):
                first = rng.randint(at, len(s))
                run = [s.handle_at(p)
                       for p in range(first, min(len(s), first + 7) + 1)]
                rng.shuffle(run)
                for h in run:
                    s.delete(s.position_of(h))
            elif kind == "born" and live:
                s.delete(s.position_of(rng.choice(live)))
            elif kind in ("insert", "nested"):
                pos = rng.randint(1, len(s) + 1)
                for _ in range(70 if kind == "nested" else 1):
                    born.append(s.insert(pos, next(fresh)))
            else:
                return
            counts[kind] += 1

        for _ in range(rng.randint(0, 2)):
            update()
        out = []
        for h in walk:
            out.append(h.value)
            last = h
            if rng.random() < 0.3:
                update()
        assert out == copy, seed
        relabelled += s.relabelled - before
        assert labels_increase(s)   # tombstones included
        with pytest.raises(RuntimeError):
            s.snapshot()            # open after the walk ended
        s.close_snapshot()
        walk = s.snapshot()
        del walk
        with pytest.raises(RuntimeError):
            s.snapshot()            # and after its walk was dropped
        s.close_snapshot()
        assert [h.value for h in s.snapshot()] == s.materialize()
        s.close_snapshot()
        assert labels_increase(s)
    assert relabelled > 0
    assert min(counts.values()) > 0, counts


def test_deleted_handles_stay_ordered_while_a_snapshot_is_open(monkeypatch):
    # a spacing of 4 uses a gap up after two nested inserts, so inserts
    # nested between a deleted handle's former neighbours relabel the
    # nodes around it
    monkeypatch.setattr(indexed_sequence, "LABEL_SPACING", 4)
    for seed in range(50):
        rng = random.Random(seed)
        ref = list(range(0, 80, 2))
        s = IndexedSeq(ref, seed=seed)
        walk = s.snapshot()
        fresh = count(1000)
        dead = []
        for _ in range(5):
            p = rng.randint(2, len(ref) - 1)
            h = s.handle_at(p)
            after = s.handle_at(p + 1)
            dead.append((s.handle_at(p - 1), h, after))
            s.delete(p)
            ref.pop(p - 1)
            for _ in range(120):
                q = s.position_of(after)
                v = next(fresh)
                s.insert(q, v)
                ref.insert(q - 1, v)
        assert s.relabelled > 0
        assert labels_increase(s)
        for pred, h, succ in dead:
            assert pred.label < h.label < succ.label
        assert len(s) == len(ref)
        assert s.materialize() == list(s) == ref
        assert [s.value_at(p) for p in range(1, len(s) + 1)] == ref
        handles = {s.handle_at(p) for p in range(1, len(s) + 1)}
        for _, h, _ in dead:
            assert h not in handles
            with pytest.raises(DeadHandleError):
                s.position_of(h)
        assert all(s.position_of(h) == p
                   for p, h in enumerate(map(s.handle_at, range(1, len(s) + 1)), 1))
        assert [h.value for h in walk] == list(range(0, 80, 2))
        s.close_snapshot()
        assert labels_increase(s)
        for _, h, _ in dead:
            assert h.size == 0 and h.parent is None
            with pytest.raises(DeadHandleError):
                s.position_of(h)
        assert s.materialize() == ref
