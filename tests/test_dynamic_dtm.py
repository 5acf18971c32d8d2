import random

import pytest

from dynseq.dynamic_dtm import (CoverContractError, DtmDynamic,
                                InversionMatching, exact_from_cover_labels,
                                exact_from_cover_vc, labels_reduction,
                                sequential_dtm, stack_matching)
from dynseq.classic import brute_dtm
from dynseq.indexed_sequence import dele, ins
from dynseq.streams import generate_stream
from oracles import fenwick_dtm, fresh_values


def test_sorted_insert_stream_stays_unmatched():
    m = InversionMatching()
    for i, v in enumerate([1, 2, 3]):
        m.apply(ins(i + 1, v))
    assert m.approx2_query() == (0, 0)
    assert m.unmatched_double_monotone()


def test_single_inversion_pair():
    m = InversionMatching()
    for i, v in enumerate([3, 1, 2]):
        m.apply(ins(i + 1, v))
    s, two_s = m.approx2_query()
    assert (s, two_s) == (1, 2)
    assert brute_dtm([3, 1, 2]) == 1
    assert m.exact_dtm() == 1


def test_bracket_and_monotonicity_over_streams():
    rng = random.Random(31)
    for trial in range(30):
        m = InversionMatching(seed=trial)
        arr = []
        used = set()
        for _ in range(120):
            if arr and rng.random() < 0.4:
                p = rng.randint(1, len(arr))
                m.apply(dele(p))
                arr.pop(p - 1)
            else:
                (v,) = fresh_values(rng, used)
                p = rng.randint(1, len(arr) + 1)
                m.apply(ins(p, v))
                arr.insert(p - 1, v)
            s, two_s = m.approx2_query()
            dtm = fenwick_dtm(arr)
            assert s <= dtm <= two_s
            assert m.unmatched_double_monotone()


def test_exact_from_cover_examples():
    assert exact_from_cover_labels([1, 2, 3, 4], []) == 0
    assert exact_from_cover_vc([1, 2, 3, 4], []) == 0
    assert exact_from_cover_labels([3, 1, 2], [0]) == 1
    assert exact_from_cover_vc([3, 1, 2], [0]) == 1


def test_invalid_cover_rejected():
    with pytest.raises(CoverContractError):
        exact_from_cover_labels([3, 1, 2], [2])  # removal leaves (3, 1)
    with pytest.raises(CoverContractError):
        exact_from_cover_vc([5, 4, 3], [0])


def test_sorted_array_single_super_element():
    items, classes = labels_reduction(list(range(1, 11)), [])
    assert classes == 1
    assert items == [(0, 1, 10)]


def test_three_way_exactness():
    rng = random.Random(33)
    for _ in range(500):
        n = rng.randint(0, 300)
        arr = rng.sample(range(1 << 30), n)
        pairs = stack_matching(arr)
        cover = [i for p in pairs for i in p]
        want = fenwick_dtm(arr)
        assert exact_from_cover_labels(arr, cover) == want
        assert exact_from_cover_vc(arr, cover) == want


def test_label_class_bound():
    rng = random.Random(34)
    for _ in range(300):
        n = rng.randint(0, 120)
        arr = rng.sample(range(1 << 30), n)
        pairs = stack_matching(arr)
        cover = [i for p in pairs for i in p]
        _, classes = labels_reduction(arr, cover)
        assert classes <= 2 * len(cover) + 1


def test_stack_pass_examples():
    assert stack_matching([3, 1, 2]) == [(0, 1)]
    assert stack_matching([1, 2, 3]) == []
    assert sequential_dtm([3, 1, 2]) == 1
    assert sequential_dtm(list(range(50))) == 0
    # reverse-sorted array of even length: the pass pairs adjacent elements
    arr = list(range(40, 0, -1))
    assert len(stack_matching(arr)) == 20
    assert sequential_dtm(arr) == brute_dtm(arr) == 39


def test_sequential_matches_brute():
    rng = random.Random(35)
    for _ in range(300):
        n = rng.randint(0, 200)
        arr = rng.sample(range(1 << 30), n)
        assert sequential_dtm(arr) == fenwick_dtm(arr)


def test_dynamic_engine_audit():
    for eps in (0.1, 0.25):
        e = DtmDynamic(eps, seed=41)
        arr = []
        used = set()
        rng = random.Random(41)
        for step in range(1200):
            if arr and rng.random() < 0.35:
                p = rng.randint(1, len(arr))
                e.apply(dele(p))
                arr.pop(p - 1)
            else:
                (v,) = fresh_values(rng, used)
                p = rng.randint(1, len(arr) + 1)
                e.apply(ins(p, v))
                arr.insert(p - 1, v)
            rep = e.query()
            exact = fenwick_dtm(arr)
            assert exact <= rep, (step, rep, exact)
            assert rep <= (1 + 3 * eps) * max(exact, 1) + 1e-9, (step, rep, exact)


def test_dynamic_engine_sorted_stream_stays_exact():
    # with no inversions the matching stays empty, forcing capacity-1
    # generations that refresh the exact zero after every operation
    e = DtmDynamic(0.25, seed=2)
    for i in range(200):
        e.apply(ins(i + 1, i * 3))
        assert e.query() == 0


def test_estimate_never_exceeds_length_on_reverse_stream():
    # a reversed array has DTM n - 1 and long generations, so d + i would
    # pass n at most steps without the cap
    for eps in (0.1, 0.5):
        e = DtmDynamic(eps, seed=1)
        for step, op in enumerate(generate_stream("reverse", 500, 1)):
            e.apply(op)
            assert e.query() <= len(e), (eps, step)


def test_deletions_shrinking_dtm_keep_upper_bound():
    e = DtmDynamic(0.25, seed=3)
    arr = []
    rng = random.Random(43)
    vals = rng.sample(range(10**6), 300)
    for i, v in enumerate(vals):
        e.apply(ins(i + 1, v))
        arr.append(v)
    while len(arr) > 5:
        # deleting the current worst offenders shrinks the optimum
        pairs = stack_matching(arr)
        if not pairs:
            break
        p = pairs[0][0] + 1
        e.apply(dele(p))
        arr.pop(p - 1)
        rep = e.query()
        exact = fenwick_dtm(arr)
        assert rep >= exact
