import math
import random

import pytest

from dynseq.dynamic_dtm import (CoverContractError, DtmDynamic,
                                InversionMatching, exact_from_cover_labels,
                                exact_from_cover_vc, labels_reduction,
                                sequential_dtm, stack_matching)
from dynseq.classic import brute_dtm, lis_length
from dynseq.indexed_sequence import IndexedSeq, dele, ins
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


def _assert_matched_set_live(m):
    # every live element is matched or sits in the unmatched tree, so the
    # matched set is the live handles less the tree's members
    live = {id(m.backing.handle_at(p)) for p in range(1, len(m) + 1)}
    unmatched = {id(node.extra) for node in m.tn.nodes()}
    matched = {id(h) for h in m.matched_handles()}
    assert matched == live - unmatched
    assert len(m.matched_handles()) == 2 * m.s_count


def _replay_exact(ops):
    m = InversionMatching(seed=5)
    arr = []
    for step, op in enumerate(ops):
        m.apply(op)
        if op.kind == "I":
            arr.insert(op.position - 1, op.value)
        else:
            arr.pop(op.position - 1)
        assert m.exact_dtm() == len(arr) - lis_length(arr), step
        _assert_matched_set_live(m)
    return m


@pytest.mark.parametrize("kind", ["sorted", "reverse", "uniform"])
def test_exact_dtm_after_every_operation(kind):
    m = _replay_exact(generate_stream(kind, 400, 3))
    if kind == "sorted":
        assert m.s_count == 0


def _near_sorted_hitting_partners(seed):
    """A sorted array with a few outliers, whose deletes remove matched
    elements, so that partners return to the unmatched set and are placed
    again.  Returns the operations and the number of such deletes."""
    rng = random.Random(seed)
    m = InversionMatching(seed=seed)
    ops = [ins(i + 1, i << 20) for i in range(150)]
    for op in ops:
        m.apply(op)
    hits = 0
    for step in range(300):
        if step % 3 == 0 and m.s_count:
            matched = sorted(m.backing.position_of(h) for h in m.matched_handles())
            op = dele(rng.choice(matched))
            hits += 1
        elif step % 3 == 1:
            op = dele(rng.randint(1, len(m)))
        else:
            p = rng.randint(1, len(m) + 1)
            if rng.random() < 0.3:  # an outlier
                v = rng.randint(0, 200 << 20) | 1
            else:  # between its neighbours
                lo = m.backing.value_at(p - 1) if p > 1 else -(1 << 20)
                hi = m.backing.value_at(p) if p <= len(m) else lo + (1 << 21)
                v = (lo + hi) // 2
            if v in m.backing:
                continue
            op = ins(p, v)
        m.apply(op)
        ops.append(op)
    return ops, hits


def test_exact_dtm_on_near_sorted_stream_deleting_partners():
    ops, hits = _near_sorted_hitting_partners(9)
    assert hits >= 50
    m = _replay_exact(ops)
    assert m.s_count < len(m) // 4


def test_exact_dtm_when_every_element_is_matched():
    arr = [2, 1, 4, 3, 6, 5]
    ops = [ins(i + 1, v) for i, v in enumerate(arr)]
    ops += [dele(2), ins(2, 0), dele(6), dele(1)]
    m = _replay_exact(ops[:len(arr)])
    assert len(m.tn) == 0 and m.s_count == 3
    _replay_exact(ops)


@pytest.mark.parametrize("n", [1000, 16000])
def test_exact_dtm_position_lookups_scale_with_matching(n, monkeypatch):
    m = InversionMatching(seed=1)
    for i in range(n):
        m.apply(ins(i + 1, 10 * i))
    # eight outliers, each smaller than everything before it
    for j in range(8):
        m.apply(ins(100 * (j + 1), -1 - j))
    assert m.s_count == 8
    calls = 0
    position_of = IndexedSeq.position_of

    def counting(self, handle):
        nonlocal calls
        calls += 1
        return position_of(self, handle)

    monkeypatch.setattr(IndexedSeq, "position_of", counting)
    assert m.exact_dtm() == 8
    assert calls <= 2 * m.s_count + 2, calls


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
            assert rep <= (1 + eps) * exact + 1e-9, (step, rep, exact)


@pytest.mark.parametrize("kind", ["uniform", "sorted", "reverse", "sawtooth"])
def test_dynamic_engine_bound_after_every_operation(kind):
    # d + a after a inserts and b deletes, with a + b <= eps*d/(1+eps)
    for eps in (0.1, 0.25, 0.5):
        e = DtmDynamic(eps, seed=17)
        arr = []
        for step, op in enumerate(generate_stream(kind, 500, 17)):
            e.apply(op)
            if op.kind == "I":
                arr.insert(op.position - 1, op.value)
            else:
                arr.pop(op.position - 1)
            rep = e.query()
            exact = fenwick_dtm(arr)
            assert exact <= rep <= len(arr), (eps, step, rep, exact)
            assert rep <= (1 + eps) * exact + 1e-9, (eps, step, rep, exact)


def _near_sorted_ops(seed, n, steps, outliers):
    """n near-sorted inserts, then alternating near-sorted insert / uniform
    delete.  While fewer than ``outliers`` outliers are present an insert
    gets a uniform value, otherwise one between its nearest non-outlier
    neighbours, so the DTM stays at ``outliers`` at most."""
    rng = random.Random(seed)
    gap = 1 << 40
    arr: list[int] = []
    out: set[int] = set()
    ops = []

    def insert():
        p = rng.randint(1, len(arr) + 1)
        if len(out) < outliers:
            v = rng.randrange(0, (len(arr) + 2) * gap, 2) + 1
            while v in out or v in arr:
                v += 2
            out.add(v)
        else:
            lo = next((x for x in reversed(arr[:p - 1]) if x not in out), 0)
            hi = next((x for x in arr[p - 1:] if x not in out), lo + 2 * gap)
            v = (lo + hi) // 2 & ~1
            assert lo < v < hi
        arr.insert(p - 1, v)
        ops.append(ins(p, v))

    for _ in range(n):
        insert()
    for step in range(steps):
        if step % 2:
            p = rng.randint(1, len(arr))
            out.discard(arr.pop(p - 1))
            ops.append(dele(p))
        else:
            insert()
    return ops, arr


def test_recompute_frequency_follows_exact_dtm(monkeypatch):
    # generations last floor(eps*d/(1+eps)) operations for the exact d, so
    # with d near 30 and eps = 0.5 about one recompute per 9 operations
    n, steps, outliers, eps = 1000, 3000, 30, 0.5
    ops, final = _near_sorted_ops(5, n, steps, outliers)
    exact = fenwick_dtm(final)
    assert outliers - 3 <= exact <= outliers
    calls = 0
    exact_dtm = InversionMatching.exact_dtm

    def counting(self):
        nonlocal calls
        calls += 1
        return exact_dtm(self)

    monkeypatch.setattr(InversionMatching, "exact_dtm", counting)
    e = DtmDynamic(eps, seed=5)
    for op in ops[:n]:
        e.apply(op)
    calls = 0
    for op in ops[n:]:
        e.apply(op)
    assert exact <= e.query() <= (1 + eps) * exact
    cap = math.floor(eps * (outliers - 3) / (1 + eps))
    assert calls <= steps / cap + 20, calls


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
