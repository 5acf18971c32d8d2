import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dynseq.block_scheduler import WrappedEstimator
from dynseq.classic import lis_length
from dynseq.dynamic_dtm import DtmDynamic
from dynseq.dynamic_lis import (KEY_WHOLE, GridBlock, KeyedNaive,
                                KeyedNaiveBlock, KeyedWrapped, _key_between,
                                grid_engine, hierarchy_engine, naive_engine,
                                sqrt_engine)
from dynseq.indexed_sequence import (INSERT, DuplicateValueError, PositionError,
                                     dele, ins)
from dynseq.lis_plus import LisPlus
from dynseq.streams import generate_stream
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
    # a grid level needs an element per column
    for make in (lambda: grid_engine(0.5, cutoff=0),
                 lambda: hierarchy_engine(0.5, cutoff=1),
                 lambda: grid_engine(0.5, m_override=0),
                 lambda: grid_engine(0.5, cutoff=24, m_override=25)):
        with pytest.raises(ValueError):
            make()


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
        eng = grid_engine(0.5, cutoff=24, m_override=m)
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
    from dynseq.dynamic_lis import EngineContext

    ctx = EngineContext(0.5, meter)
    rng = random.Random(5)
    values = rng.sample(range(1000), 27)
    keys = [i * 100 for i in range(27)]
    blk = GridBlock((keys, values), 1, ctx)
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
    from dynseq.dynamic_lis import EngineContext

    ctx = EngineContext(0.5, meter)
    rng = random.Random(6)
    values = rng.sample(range(1000), 27)
    keys = [i * 100 for i in range(27)]
    blk = GridBlock((keys, values), 1, ctx)
    while not blk.preprocess_step(64):
        pass
    row, col = blk._locate(keys[-1] + 50, 5000)
    assert (row, col) == (3, 3)
    touched_before = ctx.touched_segments
    blk.apply(("I", keys[-1] + 50, 5000), None)
    assert ctx.touched_segments - touched_before == len(
        blk.grid.cell_cover[(3, 3)])


def test_hierarchy_sound_and_extractable():
    eng = hierarchy_engine(0.8, cutoff=48)
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
    eng = hierarchy_engine(0.8, cutoff=32)
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
    eng = hierarchy_engine(0.8, cutoff=48)
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

    from dynseq.dynamic_lis import EngineContext

    meter = WorkMeter()
    ctx = EngineContext(0.5, meter)
    rng = random.Random(8)
    values = rng.sample(range(100000), 64)
    keys = [i * 1000 for i in range(64)]
    blk = GridBlock((keys, values), 1, ctx)
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


# -- frontend keys ----------------------------------------------------------


def key_value(key):
    """The number a frontend key stands for: whole part, then base-256
    fraction digits."""
    return Fraction(int.from_bytes(key, "big"), 256 ** (len(key) - KEY_WHOLE))


def check_keys(keys):
    for key in keys:
        assert isinstance(key, bytes) and len(key) >= KEY_WHOLE, key
        assert len(key) == KEY_WHOLE or key[-1] != 0, key   # no trailing zero
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert all(key_value(a) < key_value(b) for a, b in zip(keys, keys[1:]))


def test_frontend_keys_are_ordered_byte_strings():
    eng = hierarchy_engine(0.5)
    drive(eng, 1500, 21)
    check_keys(eng._elements.keys)
    for pos in (1, 2):
        eng = hierarchy_engine(0.5)
        rng = random.Random(pos)
        for i, v in enumerate(rng.sample(range(10 ** 6), 2000)):
            eng.apply(ins(min(pos, i + 1), v))
        check_keys(eng._elements.keys)
    # 1999 inserts at position 2 halve one gap each time: 8 bits per byte
    assert max(map(len, eng._elements.keys)) <= KEY_WHOLE + 1999 // 8 + 1


frontend_keys = st.builds(
    lambda whole, frac: whole.to_bytes(KEY_WHOLE, "big") + frac.rstrip(b"\0"),
    st.integers(0, (1 << 8 * KEY_WHOLE) - 1), st.binary(max_size=5))


@settings(max_examples=300, deadline=None)
@given(frontend_keys, frontend_keys)
def test_key_between_is_strictly_between(a, b):
    assume(a != b)
    assert (a < b) == (key_value(a) < key_value(b))   # byte order is numeric order
    lo, hi = min(a, b), max(a, b)
    key = _key_between(lo, hi)
    check_keys([lo, key, hi])
    assert len(key) <= max(len(lo), len(hi)) + 1


# -- incremental grid queries ------------------------------------------------


def cursor_stream(ops, seed, hold=50):
    """Editor-cursor inserts, ``hold`` in a row at one position, and
    uniform deletes."""
    rng = random.Random(seed)
    used = set()
    n = cursor = left = 0
    items = []
    for _ in range(ops):
        if n and rng.random() < 0.3:
            items.append(dele(rng.randint(1, n)))
            n -= 1
            continue
        if left == 0:
            cursor, left = rng.randint(1, n + 1), hold
        left -= 1
        (v,) = fresh_values(rng, used)
        items.append(ins(min(cursor, n + 1), v))
        n += 1
    return items


def checked_score(est):
    """An estimator's answer rebuilt from its leaves, asserting on the way
    that every active GridBlock answers chain_dp over all of its children's
    fresh scores, one per segment, read through ``child_of``."""
    if isinstance(est, KeyedWrapped):
        est = est.active
    if isinstance(est, GridBlock):
        scores = [checked_score(c) for c in est.children]
        total, _ = est.grid.chain_dp([scores[c] for c in est.grid.child_of])
        assert est.query() == int(round(total))
        return est.query()
    if isinstance(est, KeyedNaiveBlock):
        est = est.inner
    return fenwick_lis(est.values)


@pytest.mark.parametrize("stream", ["uniform", "cursor"])
def test_grid_block_answer_equals_full_recompute(stream):
    items = (generate_stream("uniform", 500, 4) if stream == "uniform"
             else cursor_stream(500, 4))
    eng = hierarchy_engine(0.5, cutoff=16)
    depth = 0
    for op in items:
        eng.apply(op)
        assert checked_score(eng._keyed) == eng.query()
        depth = max(depth, len(eng.describe()))
    assert depth >= 3


def test_query_requeries_only_touched_children(monkeypatch):
    calls = handovers = 0
    leaf_query = KeyedNaive.query
    handover = WrappedEstimator._handover

    def counted_query(self):
        nonlocal calls
        calls += 1
        return leaf_query(self)

    def counted_handover(self):
        nonlocal handovers
        handovers += 1
        handover(self)

    monkeypatch.setattr(KeyedNaive, "query", counted_query)
    monkeypatch.setattr(WrappedEstimator, "_handover", counted_handover)
    eng = hierarchy_engine(0.5)
    checked = 0
    for t, op in enumerate(generate_stream("uniform", 3000, 5)):
        touched, seen = eng.touched_segments, handovers
        eng.apply(op)
        calls = 0
        eng.query()
        # a block's first query re-queries all of its children; after a
        # warm-up, steps without a handover have no first queries
        if t >= 1000 and handovers == seen:
            assert calls <= eng.touched_segments - touched, t
            checked += 1
    assert checked >= 1000, checked


def test_leaf_elements_counts_every_copy():
    eng = hierarchy_engine(0.5, cutoff=16)
    drive(eng, 400, 17)
    leaves = []

    def walk(est):
        if isinstance(est, KeyedWrapped):
            walk(est.active)
        elif isinstance(est, GridBlock):
            for child in est.children:
                walk(child)
        elif isinstance(est, KeyedNaiveBlock):
            leaves.append(est.inner.keys)
        else:
            leaves.append(est.keys)

    walk(eng._keyed)
    assert eng.leaf_elements == sum(map(len, leaves)) > 2 * len(eng)
    assert {k for leaf in leaves for k in leaf} == set(eng._elements.keys)


def test_copy_count_gate_and_one_child_per_cell_set():
    # a gate that may be tightened, never loosened: 41 copies per element
    # here, 76 when every segment owned a child of its own
    n = 1000
    rng = random.Random(5)
    eng = hierarchy_engine(0.5)
    for i, v in enumerate(rng.sample(range(10 * n), n)):
        eng.apply(ins(rng.randint(1, i + 1), v))
    assert eng.leaf_elements <= 45 * n, eng.leaf_elements
    blocks = 0

    def walk(est):
        nonlocal blocks
        if isinstance(est, KeyedWrapped):
            walk(est.active)
        elif isinstance(est, GridBlock):
            blocks += 1
            # one child per distinct cell set (test_grid_packing checks
            # that child_of indexes the distinct cell sets)
            assert len(est.children) == max(est.grid.child_of) + 1
            for child in est.children:
                walk(child)

    walk(eng._keyed)
    assert blocks > 1


@pytest.mark.parametrize("stream", ["uniform", "cursor"])
@pytest.mark.parametrize("make", [
    lambda: hierarchy_engine(0.5, cutoff=16),
    lambda: grid_engine(0.5, cutoff=24, m_override=3),
], ids=["hier", "grid"])
def test_top_mirror_is_the_array(make, stream):
    """The top engine's element lists are the only copy of the array the
    frontend reads: after every operation their values are the array, and
    witness positions read from their keys name the right values."""
    items = (generate_stream("uniform", 500, 9) if stream == "uniform"
             else cursor_stream(500, 9))
    eng = make()
    shadow = []
    for op in items:
        eng.apply(op)
        if op.kind == INSERT:
            shadow.insert(op.position - 1, op.value)
        else:
            shadow.pop(op.position - 1)
        assert eng._elements.values == shadow
        for pos, value in eng.extract():
            assert shadow[pos - 1] == value
    # the stream crossed warm-ups and handovers of the top engine
    assert eng._keyed.generations_rebuilt > 2


def test_hierarchy_top_engine_crosses_the_cutoff_both_ways():
    # grow past the cutoff, shrink below it, grow again: the top engine's
    # generations go exact -> grid -> exact -> grid.  An exact one answers
    # from the top mirror, so its estimate is the exact LIS.  A generation's
    # kind is fixed at its snapshot, so a grid one still serves the steps
    # just below the cutoff, and an exact one those just above it.
    eng = hierarchy_engine(0.5, cutoff=48)
    rng = random.Random(23)
    used = set()
    shadow = []
    phases = []

    def step(op):
        eng.apply(op)
        if op.kind == INSERT:
            shadow.insert(op.position - 1, op.value)
        else:
            shadow.pop(op.position - 1)
        active = eng._keyed.active
        phase = "exact" if isinstance(active, KeyedNaiveBlock) else "grid"
        if not phases or phases[-1] != phase:
            phases.append(phase)
        if phase == "exact":
            assert len(shadow) < 2 * 48
            assert eng.query() == fenwick_lis(shadow)
        witness_ok(eng, shadow)

    for target in (150, 10, 150):
        while len(shadow) != target:
            if len(shadow) < target:
                (v,) = fresh_values(rng, used)
                step(ins(rng.randint(1, len(shadow) + 1), v))
            else:
                step(dele(rng.randint(1, len(shadow))))
    assert phases == ["exact", "grid", "exact", "grid"]


def test_only_grid_generations_copy_the_mirror(monkeypatch):
    # below the cutoff every generation is exact and answers from the
    # engine's mirror, so an update costs the mirror's own charge and no
    # generation copies the array; past it, a grid generation copies the
    # mirror's lists when it is built and drops the copy once its children
    # are seeded
    eng = hierarchy_engine(0.5)
    wrapped = eng._keyed
    mirror = eng._keyed.mirror
    grids = []
    grid_init = GridBlock.__init__

    def recording_init(self, snap, level, ctx):
        grid_init(self, snap, level, ctx)
        if level == eng.depth:
            assert snap[0] is not mirror.keys and snap[1] is not mirror.values
            assert snap == (mirror.keys, mirror.values) and snap[1] == shadow
            grids.append(self)

    monkeypatch.setattr(GridBlock, "__init__", recording_init)
    rng = random.Random(12)
    used = set()
    shadow = []

    def step(op):
        if op.kind == INSERT:
            shadow.insert(op.position - 1, op.value)
        else:
            shadow.pop(op.position - 1)
        eng.apply(op)

    for t in range(400):
        n = len(shadow)
        grow = n < 20 or (n < 50 and rng.random() < 0.5)
        before = eng.meter.ticks
        if grow:
            (v,) = fresh_values(rng, used)
            step(ins(rng.randint(1, n + 1), v))
            charge = max(1, n.bit_length())
        else:
            step(dele(rng.randint(1, n)))
            charge = max(1, (n - 1).bit_length())
        assert eng.meter.ticks - before == charge, t
        assert wrapped.active.inner is mirror
    assert wrapped.generations_rebuilt >= 5
    assert not grids
    while len(shadow) < 300:
        (v,) = fresh_values(rng, used)
        step(ins(rng.randint(1, len(shadow) + 1), v))
        assert eng.query() <= fenwick_lis(shadow)
    assert len(grids) >= 2
    for blk in grids:
        if blk.preprocess_step(0):
            assert blk.snap is None
    assert isinstance(wrapped.active, GridBlock) and wrapped.active.snap is None
