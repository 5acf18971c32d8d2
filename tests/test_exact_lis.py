import random

from dynseq.exact_lis import ExactDynamicLis
from dynseq.classic import levels, lis_length
from oracles import fenwick_lis, fresh_values

LEVEL_ARRAY = [1, 5, 2, 4, 6, 7, 9, 10, 8]


def level_values(ch):
    return [[v for _, v in lvl] for lvl in ch.levels_snapshot()]


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
    assert ch.merge_fallbacks == 0


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


def test_interleaved_merge_falls_back_to_element_moves():
    # the fallback of _merge_by_value, which no replay reaches: values that
    # interleave with the destination move one node at a time
    ch = ExactDynamicLis(seed=4)
    dst = ch._new_seq()
    src = ch._new_seq()
    for i, v in enumerate([90, 70, 50, 30]):
        dst.insert(i + 1, v)
    for i, v in enumerate([80, 60, 40]):
        src.insert(i + 1, v)
    ch._merge_by_value(dst, src)
    assert ch.merge_fallbacks == 1
    assert src.root is None
    assert dst.materialize() == [90, 80, 70, 60, 50, 40, 30]
    assert [dst.rank_of(n) for n in dst.nodes()] == list(range(1, 8))
