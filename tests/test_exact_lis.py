import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynseq.exact_lis import ExactDynamicLis
from dynseq.classic import levels, lis_length
from dynseq.indexed_sequence import INSERT, dele, ins
from dynseq.streams import KINDS, generate_stream
from oracles import fenwick_lis, fresh_values

LEVEL_ARRAY = [1, 5, 2, 4, 6, 7, 9, 10, 8]


def level_values(ch):
    return [[v for _, v in lvl] for lvl in ch.levels_snapshot()]


def assert_levels(ch, arr):
    """Every element sits at its patience level, and every level tree runs
    in position order with descending values: the order its searches and
    range replaces rely on."""
    got = [0] * len(arr)
    for k, lvl in enumerate(ch.levels_snapshot(), start=1):
        assert lvl, f"level {k} is empty"
        for (p1, v1), (p2, v2) in zip(lvl, lvl[1:]):
            assert p1 < p2 and v1 > v2, k
        for pos, v in lvl:
            assert arr[pos - 1] == v
            got[pos - 1] = k
    assert got == levels(arr)


def replay(ch, arr, op):
    if op.kind == INSERT:
        ch.insert(op.position, op.value)
        arr.insert(op.position - 1, op.value)
    else:
        ch.delete(op.position)
        del arr[op.position - 1]


def test_seed_matches_worked_example():
    ch = ExactDynamicLis(LEVEL_ARRAY)
    assert ch.lis() == 7
    assert level_values(ch) == [[1], [5, 2], [4], [6], [7], [9, 8], [10]]


def test_worked_insertion():
    ch = ExactDynamicLis(LEVEL_ARRAY)
    ch.insert(4, 3)
    assert ch.lis() == 8
    arr = [1, 5, 2, 3, 4, 6, 7, 9, 10, 8]
    want = levels(arr)
    got = {}
    for k, lvl in enumerate(ch.levels_snapshot(), start=1):
        for pos, _v in lvl:
            got[pos] = k
    assert [got[i + 1] for i in range(len(arr))] == want
    # the example's moved elements: 3 lands at level 3, everything from 4 up
    # shifts one level higher
    by_value = {arr[pos - 1]: lv for pos, lv in got.items()}
    assert by_value[3] == 3 and by_value[4] == 4 and by_value[6] == 5
    assert by_value[7] == 6 and by_value[9] == 7 and by_value[8] == 7
    assert by_value[10] == 8


def test_insert_new_maximum_at_end():
    ch = ExactDynamicLis([3, 1, 4, 2, 6])
    before = level_values(ch)
    ch.insert(6, 99)
    after = level_values(ch)
    assert after[:-1] == before
    assert after[-1] == [99]


def test_empty_lis():
    assert ExactDynamicLis().lis() == 0


def test_oracle_replay_streams():
    rng = random.Random(21)
    for trial in range(25):
        ch = ExactDynamicLis(seed=trial)
        arr = []
        used = set()
        for _ in range(150):
            if arr and rng.random() < 0.45:
                p = rng.randint(1, len(arr))
                ch.delete(p)
                arr.pop(p - 1)
            else:
                (v,) = fresh_values(rng, used)
                p = rng.randint(1, len(arr) + 1)
                ch.insert(p, v)
                arr.insert(p - 1, v)
            assert ch.lis() == fenwick_lis(arr)
            assert_levels(ch, arr)


def test_within_level_monotonicity_and_interval_locality():
    rng = random.Random(22)
    ch = ExactDynamicLis(seed=99)
    arr = []
    used = set()
    prev_levels = {}
    for step in range(400):
        if arr and rng.random() < 0.4:
            p = rng.randint(1, len(arr))
            ch.delete(p)
            arr.pop(p - 1)
        else:
            (v,) = fresh_values(rng, used)
            p = rng.randint(1, len(arr) + 1)
            ch.insert(p, v)
            arr.insert(p - 1, v)
        snap = ch.levels_snapshot()
        cur_levels = {}
        for k, lvl in enumerate(snap, start=1):
            prev_pos = 0
            prev_val = None
            for pos, val in lvl:
                assert pos > prev_pos
                if prev_val is not None:
                    assert val < prev_val  # decreasing values along the level
                prev_pos, prev_val = pos, val
                cur_levels[val] = k
        # interval locality: per level, the elements that changed level form
        # one contiguous value interval within the old level
        for k in set(prev_levels.values()):
            old_members = sorted(v for v, lv in prev_levels.items() if lv == k)
            moved = [v for v in old_members
                     if cur_levels.get(v) is not None and cur_levels[v] != k]
            if moved:
                lo = old_members.index(moved[0])
                hi = old_members.index(moved[-1])
                assert moved == old_members[lo:hi + 1], (k, moved)
        prev_levels = cur_levels


def test_extract_valid_witness():
    rng = random.Random(23)
    ch = ExactDynamicLis(seed=5)
    arr = []
    used = set()
    for _ in range(250):
        if arr and rng.random() < 0.35:
            p = rng.randint(1, len(arr))
            ch.delete(p)
            arr.pop(p - 1)
        else:
            (v,) = fresh_values(rng, used)
            p = rng.randint(1, len(arr) + 1)
            ch.insert(p, v)
            arr.insert(p - 1, v)
        w = ch.extract()
        assert len(w) == ch.lis() == lis_length(arr)
        for (p1, v1), (p2, v2) in zip(w, w[1:]):
            assert p1 < p2 and v1 < v2
        for p1, v1 in w:
            assert arr[p1 - 1] == v1


def _lis_uniform_ops(rng, n, steps):
    """The perfbench ``lis-uniform`` shape: alternating inserts of fresh
    uniform values at uniform positions and deletes at uniform positions,
    so the array stays at n."""
    used = set()
    start = fresh_values(rng, used, n)
    ops = []
    for i in range(steps):
        if i % 2 == 0:
            (v,) = fresh_values(rng, used)
            ops.append(ins(rng.randint(1, n + 1), v))
            n += 1
        else:
            ops.append(dele(rng.randint(1, n)))
            n -= 1
    return start, ops


@pytest.mark.parametrize("kind", ["lis-uniform", *KINDS])
def test_levels_match_patience_along_streams(kind):
    # every moved interval lands in the hole the leaving one left; a wrong
    # landing rank shows as a level out of order or an element at the wrong
    # level, long before the LIS itself goes wrong
    if kind == "lis-uniform":
        arr, ops = _lis_uniform_ops(random.Random(18), 2500, 4000)
    else:
        arr, ops = [], generate_stream(kind, 3000, 18)
    ch = ExactDynamicLis(arr, seed=18)
    arr = list(arr)
    for step, op in enumerate(ops, start=1):
        replay(ch, arr, op)
        assert ch.lis() == fenwick_lis(arr)
        if step % 100 == 0:
            assert_levels(ch, arr)
    assert_levels(ch, arr)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 40),
                          st.integers(0, 10 ** 6)), max_size=60))
def test_levels_after_every_operation(steps):
    # small values collide often, so intervals of several elements move
    ch = ExactDynamicLis()
    arr = []
    for is_insert, value, where in steps:
        if is_insert or not arr:
            if value in arr:
                continue
            op = ins(where % (len(arr) + 1) + 1, value)
        else:
            op = dele(where % len(arr) + 1)
        replay(ch, arr, op)
        assert ch.lis() == fenwick_lis(arr)
        assert_levels(ch, arr)
