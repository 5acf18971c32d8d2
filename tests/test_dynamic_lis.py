import math
import random

import pytest

from dynseq.classic import lis_length
from dynseq.dynamic_dtm import DtmDynamic
from dynseq.dynamic_lis import (GridBlock, grid_engine, hierarchy_engine,
                                naive_engine, sqrt_engine)
from dynseq.indexed_sequence import (INSERT, DuplicateValueError, PositionError,
                                     dele, ins)
from dynseq.lis_plus import LisPlus
from dynseq.work import WorkMeter
from oracles import fenwick_lis, fresh_values


def drive(engine, steps, seed, delete_prob=0.4, check=None):
    rng = random.Random(seed)
    arr = []
    used = set()
    for step in range(steps):
        if arr and rng.random() < delete_prob:
            p = rng.randint(1, len(arr))
            engine.apply(dele(p))
            arr.pop(p - 1)
        else:
            (v,) = fresh_values(rng, used)
            p = rng.randint(1, len(arr) + 1)
            engine.apply(ins(p, v))
            arr.insert(p - 1, v)
        if check:
            check(step, engine, arr)
    return arr


def witness_ok(engine, arr):
    est = engine.query()
    w = engine.extract()
    assert len(w) == est
    prev = None
    for p, v in w:
        assert arr[p - 1] == v
        if prev:
            assert p > prev[0] and v > prev[1]
        prev = (p, v)


def test_naive_exact_and_empty():
    eng = naive_engine()
    assert eng.query() == 0
    assert eng.extract() == []

    def check(step, engine, arr):
        assert engine.query() == fenwick_lis(arr)
        if step % 25 == 0:
            witness_ok(engine, arr)

    drive(naive_engine(), 400, 1, check=check)


def test_engine_validation():
    engines = {"naive": naive_engine(), "sqrt": sqrt_engine(0.5),
               "hier": hierarchy_engine(0.8), "grid": grid_engine(0.5),
               "dtm": DtmDynamic(0.5), "lisplus": LisPlus()}
    for eng in engines.values():
        for i, v in enumerate([50, 20, 70, 10, 40, 60, 30]):
            eng.apply(ins(i + 1, v))

    def state(name, eng):
        buckets = eng.bucket_sizes() if name == "lisplus" else None
        return len(eng), eng.query(), buckets

    for op in (ins(99, 5), ins(0, 5), ins(3, 40), dele(8), dele(0)):
        errors = set()
        for name, eng in engines.items():
            if name == "lisplus" and op.kind != INSERT:
                continue  # deletes are rejected as such; test_lis_plus covers them
            before = state(name, eng)
            with pytest.raises((PositionError, DuplicateValueError)) as exc:
                eng.apply(op)
            errors.add((type(exc.value), str(exc.value)))
            assert state(name, eng) == before, (name, op)
        assert len(errors) == 1, (op, errors)
    with pytest.raises(ValueError):
        sqrt_engine(0.0)
    with pytest.raises(ValueError):
        hierarchy_engine(1.5)


def test_sqrt_ratio_every_step():
    for eps in (0.25, 0.5):
        eng = sqrt_engine(eps, seed=7)

        def check(step, engine, arr, eps=eps):
            est = engine.query()
            true = lis_length(arr)
            assert est <= true
            assert true <= (1 + eps) * est + 1e-9

        drive(eng, 1500, 11, delete_prob=0.35, check=check)


def test_sqrt_frozen_branch_on_increasing_stream():
    eps = 0.5
    eng = sqrt_engine(eps, seed=3)
    arr = []
    branches = set()
    rng = random.Random(3)
    for step in range(2500):
        if arr and rng.random() < 0.1:
            p = rng.randint(1, len(arr))
            eng.apply(dele(p))
            arr.pop(p - 1)
        else:
            v = (max(arr) if arr else 0) + rng.randint(1, 9)
            eng.apply(ins(len(arr) + 1, v))
            arr.append(v)
        est = eng.query()
        true = lis_length(arr)
        assert est <= true <= (1 + eps) * est + 1e-9
        branches.add(eng._wrapped.active.branch)
        if step % 500 == 17:
            witness_ok(eng, arr)
    assert "frozen" in branches and "exact" in branches


def test_sqrt_continues_exact_generations_across_branch_flips():
    # sorted appends (exact, then frozen), uniform deletes and inserts
    # until the LIS is below the threshold and an exact generation has
    # continued into the next, then sorted appends once more (frozen)
    eps = 0.5
    eng = sqrt_engine(eps, seed=5)
    rng = random.Random(5)
    arr = []
    used = set()
    phases = []

    def step(op):
        eng.apply(op)
        if op.kind == INSERT:
            arr.insert(op.position - 1, op.value)
        else:
            arr.pop(op.position - 1)
        est = eng.query()
        true = fenwick_lis(arr)
        assert est <= true <= (1 + eps) * est + 1e-9
        witness_ok(eng, arr)
        branch = eng._wrapped.active.branch
        if not phases or phases[-1] != branch:
            phases.append(branch)

    def append_sorted(count):
        for _ in range(count):
            v = (max(arr) if arr else 0) + rng.randint(1, 9)
            used.add(v)
            step(ins(len(arr) + 1, v))

    append_sorted(300)
    continued = eng.generations_continued
    mixed = 0
    while eng.generations_continued == continued:
        if rng.random() < 0.5:
            step(dele(rng.randint(1, len(arr))))
        else:
            (v,) = fresh_values(rng, used)
            step(ins(rng.randint(1, len(arr) + 1), v))
        mixed += 1
        assert mixed < 5000
    append_sorted(300)
    assert phases[-4:] == ["exact", "frozen", "exact", "frozen"]
    assert eng.generations_rebuilt > 0
    assert eng.generations_continued > 0


def test_grid_engine_tracks_oracle_within_factor():
    for m in (4, 8):
        eng = grid_engine(0.5, level=1, seed=m, cutoff=24, m_override=m)
        worst = 1.0

        def check(step, engine, arr):
            nonlocal worst
            est = engine.query()
            true = fenwick_lis(arr)
            assert est <= true
            if est:
                worst = max(worst, true / est)
            if step % 60 == 0:
                witness_ok(engine, arr)

        drive(eng, 500, 31 + m, check=check)
        bound = 2 * (2 * math.log(m, 2) + 2)
        assert worst <= bound, (m, worst, bound)


def test_grid_block_equal_split_small():
    # a snapshot of 27 elements at the first recursion level: m = 3 and
    # every row/column starts with 9 elements
    meter = WorkMeter()
    from dynseq.dynamic_lis import EngineContext, KeyedNaive

    ctx = EngineContext(0.5, meter)
    rng = random.Random(5)
    values = rng.sample(range(1000), 27)
    keys = [i * 100 for i in range(27)]
    blk = GridBlock((keys, values), 1, ctx,
                    lambda lvl, k, v: KeyedNaive(k, v, ctx))
    while not blk.preprocess_step(64):
        pass
    assert blk.m == 3
    assert blk.col_sizes == [9, 9, 9]
    ordered = sorted(values)
    rows = [0, 0, 0]
    for v in values:
        from bisect import bisect_left
        rows[bisect_left(blk.thresholds, v)] += 1
    assert rows == [9, 9, 9]


def test_insert_max_at_end_routes_to_top_corner():
    meter = WorkMeter()
    from dynseq.dynamic_lis import EngineContext, KeyedNaive

    ctx = EngineContext(0.5, meter)
    rng = random.Random(6)
    values = rng.sample(range(1000), 27)
    keys = [i * 100 for i in range(27)]
    blk = GridBlock((keys, values), 1, ctx,
                    lambda lvl, k, v: KeyedNaive(k, v, ctx))
    while not blk.preprocess_step(64):
        pass
    row, col = blk._locate(keys[-1] + 50, 5000)
    assert (row, col) == (3, 3)
    touched_before = ctx.touched_segments
    blk.apply(("I", keys[-1] + 50, 5000), None)
    assert ctx.touched_segments - touched_before == len(
        blk.grid.cell_cover[(3, 3)])


def test_hierarchy_sound_and_extractable():
    eng = hierarchy_engine(0.8, seed=9, cutoff=48)
    worst = 1.0

    def check(step, engine, arr):
        nonlocal worst
        est = engine.query()
        true = fenwick_lis(arr)
        assert est <= true
        if est:
            worst = max(worst, true / est)
        if step % 50 == 0:
            witness_ok(engine, arr)

    drive(eng, 600, 41, check=check)
    assert worst <= 8.0, worst  # far below the constructive ceiling
    assert eng.touched_segments > 0


def test_hierarchy_growing_maximum_keeps_estimate():
    eng = hierarchy_engine(0.8, seed=10, cutoff=32)
    arr = []
    prev = 0
    for i in range(300):
        v = i * 10 + 5
        eng.apply(ins(len(arr) + 1, v))
        arr.append(v)
        est = eng.query()
        assert est >= prev  # appending a new maximum never shrinks a chain
        prev = est


def test_routing_touch_bound():
    eng = hierarchy_engine(0.8, seed=12, cutoff=48)
    rng = random.Random(13)
    n = 0
    used = set()
    worst = 0
    for _ in range(500):
        before = eng.touched_segments
        if n and rng.random() < 0.35:
            eng.apply(dele(rng.randint(1, n)))
            n -= 1
        else:
            (v,) = fresh_values(rng, used)
            eng.apply(ins(rng.randint(1, n + 1), v))
            n += 1
        worst = max(worst, eng.touched_segments - before)
    # per level the per-op touched count is the coverage of one cell; the
    # stack multiplies it per recursion level
    assert worst <= 6 ** 4, worst


def test_column_assignment_matches_recount():
    # an element's cell, derived from boundary keys, must agree with
    # recomputing the column from the mirror's key order
    from bisect import bisect_left, bisect_right

    from dynseq.dynamic_lis import EngineContext, KeyedNaive

    meter = WorkMeter()
    ctx = EngineContext(0.5, meter)
    rng = random.Random(8)
    values = rng.sample(range(100000), 64)
    keys = [i * 1000 for i in range(64)]
    blk = GridBlock((keys, values), 1, ctx,
                    lambda lvl, k, v: KeyedNaive(k, v, ctx))
    while not blk.preprocess_step(64):
        pass
    live = sorted(keys)
    used = set(values)
    boundary_ranks = [bisect_left(live, b) for b in blk.col_bounds]
    for _ in range(30):
        gap = rng.randrange(len(live) - 1)
        key = live[gap] + (live[gap + 1] - live[gap]) // 2
        if key == live[gap]:
            continue
        (v,) = fresh_values(rng, used)
        blk.apply(("I", key, v), None)
        live.insert(gap + 1, key)
        # from scratch: count how many column boundaries sit at or before it
        scratch_col = sum(1 for b in blk.col_bounds if b <= key) + 1
        assert blk._locate(key, v)[1] == scratch_col
        assert scratch_col == bisect_right(blk.col_bounds, key) + 1
