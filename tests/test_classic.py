import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynseq.classic import (OracleScaleError, brute_dtm, brute_lis,
                            exhaustive_lis, exhaustive_weighted_his, levels,
                            lis_extract, lis_length, weighted_his)
from oracles import fenwick_lis

FIG_ARRAY = [7, 2, 4, 1, 9, 6, 3, 5, 8]
LEVEL_ARRAY = [1, 5, 2, 4, 6, 7, 9, 10, 8]


def test_fig_array_lis():
    assert brute_lis(FIG_ARRAY) == 4
    assert lis_length(FIG_ARRAY) == 4


def test_level_array_lis():
    assert lis_length(LEVEL_ARRAY) == 7


def test_decreasing_and_empty():
    assert lis_length([3, 2, 1]) == 1
    assert lis_length([]) == 0


def test_levels_worked_example():
    got = levels(LEVEL_ARRAY)
    by_level: dict[int, list[int]] = {}
    for v, l in zip(LEVEL_ARRAY, got):
        by_level.setdefault(l, []).append(v)
    assert by_level == {1: [1], 2: [5, 2], 3: [4], 4: [6], 5: [7],
                        6: [9, 8], 7: [10]}


def test_levels_increasing_array():
    assert levels(list(range(1, 12))) == list(range(1, 12))


def test_levels_match_dp():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(0, 50)
        arr = rng.sample(range(1000), n)
        got = levels(arr)
        for i in range(n):
            want = 1 + max((got[j] for j in range(i) if arr[j] < arr[i]),
                           default=0)
            assert got[i] == want


def test_extract_is_valid_and_lex_smallest():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(0, 40)
        arr = rng.sample(range(10000), n)
        idxs = lis_extract(arr)
        assert len(idxs) == lis_length(arr)
        vals = [arr[i] for i in idxs]
        assert all(a < b for a, b in zip(idxs, idxs[1:]))
        assert all(a < b for a, b in zip(vals, vals[1:]))
    # lexicographic tie-break, small case: both [0,2] and [1,2] are optimal
    assert lis_extract([5, 3, 9]) == [0, 2]
    assert lis_extract([3, 5, 1, 9]) == [0, 1, 3]


def test_weighted_unit_reduces_to_lis():
    assert weighted_his([(v, 1) for v in FIG_ARRAY]) == 4
    rng = random.Random(4)
    for _ in range(100):
        arr = rng.sample(range(10000), rng.randint(0, 60))
        assert weighted_his([(v, 1) for v in arr]) == lis_length(arr)


def test_weighted_prefers_heavy():
    assert weighted_his([(2, 5), (1, 1)]) == 5


def test_weighted_vs_exhaustive():
    rng = random.Random(5)
    for _ in range(150):
        k = rng.randint(1, 10)
        vals = rng.sample(range(100), k)
        items = [(v, rng.randint(1, 9)) for v in vals]
        assert weighted_his(items) == exhaustive_weighted_his(items)


def test_weighted_rejects_bad_weight():
    with pytest.raises(ValueError):
        weighted_his([(1, 0)])


def test_brute_examples():
    assert brute_lis([2, 1]) == 1 and brute_dtm([2, 1]) == 1
    assert brute_dtm(FIG_ARRAY) == 9 - 4
    assert brute_dtm(sorted(FIG_ARRAY)) == 0


def test_dtm_identity():
    rng = random.Random(6)
    for _ in range(100):
        arr = rng.sample(range(10000), rng.randint(0, 80))
        assert brute_dtm(arr) + brute_lis(arr) == len(arr)


def test_oracle_scale_guard():
    with pytest.raises(OracleScaleError):
        brute_lis(list(range(10_001)))
    with pytest.raises(OracleScaleError):
        exhaustive_lis(list(range(19)))


def test_patience_matches_dp_and_fenwick():
    rng = random.Random(7)
    for _ in range(40):
        arr = rng.sample(range(1 << 30), rng.randint(0, 400))
        dp = brute_lis(arr)
        assert lis_length(arr) == dp
        assert fenwick_lis(arr) == dp
    for _ in range(300):
        arr = rng.sample(range(200), rng.randint(0, 14))
        assert lis_length(arr) == exhaustive_lis(arr)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 1 << 30), unique=True, max_size=80))
def test_lis_properties(arr):
    l = lis_length(arr)
    assert l == fenwick_lis(arr)
    idxs = lis_extract(arr)
    assert len(idxs) == l
    vals = [arr[i] for i in idxs]
    assert all(a < b for a, b in zip(vals, vals[1:]))
