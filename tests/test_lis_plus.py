import math
import random
from collections import Counter

import pytest

from dynseq.classic import lis_length
from dynseq.lis_plus import InsertOnlyError, LisPlus
from dynseq.indexed_sequence import dele
from oracles import fresh_values


def test_single_insert():
    lp = LisPlus()
    lp.insert(1, 42)
    assert lp.query() == 1
    assert lp.bucket_sizes() == {"finalized": [1], "pending": []}


def test_rejects_deletes():
    lp = LisPlus()
    lp.insert(1, 1)
    with pytest.raises(InsertOnlyError):
        lp.apply(dele(1))


def test_first_ten_operations_schedule():
    # deterministic bucket schedule: merges start as soon as two finalized
    # buckets of a size are free and no merge of that target size is running
    lp = LisPlus()
    rng = random.Random(1)
    used = set()
    seen = []
    for i in range(10):
        (v,) = fresh_values(rng, used)
        lp.insert(rng.randint(1, i + 1), v)
        seen.append(lp.bucket_sizes())
    assert seen[0] == {"finalized": [1], "pending": []}
    assert seen[1] == {"finalized": [1, 1], "pending": [2]}
    assert seen[3] == {"finalized": [1, 1, 2], "pending": [2]}
    assert seen[9] == {"finalized": [1, 1, 2, 2, 4], "pending": [2, 4]}
    for states in seen:
        counts = Counter(states["finalized"])
        assert all(c <= 3 for c in counts.values())
        assert len(states["pending"]) == len(set(states["pending"]))


def test_invariants_and_sandwich_per_step():
    rng = random.Random(2)
    lp = LisPlus(seed=2)
    arr = []
    used = set()
    for step in range(1200):
        (v,) = fresh_values(rng, used)
        p = rng.randint(1, len(arr) + 1)
        lp.insert(p, v)
        arr.insert(p - 1, v)
        n = len(arr)
        counts = Counter(lp.bucket_sizes()["finalized"])
        assert all(c <= 3 for c in counts.values())
        ids = lp.coverage_ids()
        assert len(ids) == n and len(set(ids)) == n
        q = lp.query()
        true = lis_length(arr)
        assert q <= true
        factor = 3 * int(math.log2(n)) + 3 if n > 1 else 1
        assert true <= q * factor
        assert lp.finalized_count() <= factor


def test_sorted_stream_ratio():
    lp = LisPlus(seed=3)
    n = 3000
    for i in range(n):
        lp.insert(i + 1, i)
    q = lp.query()
    # merge latency keeps the largest finalized bucket within a couple of
    # doublings of n, and on sorted input its LIS equals its size
    assert q >= 2 ** (int(math.log2(n)) - 2)
    assert n <= q * (3 * int(math.log2(n)) + 3)


def test_bucket_lis_matches_patience_on_members():
    rng = random.Random(4)
    lp = LisPlus(seed=4)
    arr = []
    used = set()
    for _ in range(600):
        (v,) = fresh_values(rng, used)
        p = rng.randint(1, len(arr) + 1)
        lp.insert(p, v)
        arr.insert(p - 1, v)
    for buckets in lp.finalized.values():
        for b in buckets:
            member_vals = [h.value for h in sorted(
                b.handles, key=lp.backing.position_of)]
            frozen_vals = [h.value for h in b.handles]
            assert member_vals == frozen_vals  # frozen order = array order
            assert b.lis_value == lis_length(member_vals)
