import math
import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynseq.indexed_sequence import (DeadHandleError, DuplicateValueError,
                                     IndexedSeq, Operation, PositionError,
                                     Seq, dele, ins)
from dynseq.work import WorkMeter


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
    assert s.apply(dele(1)) == 2
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
    assert s._pop(dele(2)) is h
    assert s.materialize() == [1, 3] and 2 not in s
    with pytest.raises(PositionError, match=r"delete position 3 outside \[1, 2\]"):
        s._pop(dele(3))
    assert s.materialize() == [1, 3]


def test_rank_first_value_gt_matches_bisect():
    rng = random.Random(14)
    for n in (0, 1, 2, 7, 200):
        vals = sorted(rng.sample(range(0, 10 * n + 10, 2), n))
        seq = Seq(items=vals)
        for v in range(-1, 10 * n + 12):
            assert seq.rank_first_value_gt(v) == bisect_right(vals, v) + 1


def test_replay_equivalence_random_stream():
    rng = random.Random(12)
    s = IndexedSeq(seed=12)
    ref: list[int] = []
    handles = {}
    used = set()
    for step in range(4000):
        if ref and rng.random() < 0.4:
            p = rng.randint(1, len(ref))
            got = s.apply(dele(p))
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
            assert s.apply(dele(p)) == ref.pop(p - 1)
        else:
            if val in used:
                continue
            used.add(val)
            p = slot % (len(ref) + 1) + 1
            s.apply(ins(p, val))
            ref.insert(p - 1, val)
    assert s.materialize() == ref


def test_split_detach_rejoin_keeps_order():
    s = IndexedSeq(list(range(0, 100, 2)), seed=1)
    inner = s._seq
    mid = inner.detach_range(10, 20)
    assert mid.materialize() == [v for v in range(0, 100, 2)][9:20]
    rest = inner.materialize()
    assert len(rest) == 50 - 11
