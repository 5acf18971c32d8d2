import math
import random

import pytest

from dynseq.array_packing import build_array_packing


def test_d_examples():
    assert build_array_packing(16, 0.5).d == 2
    assert build_array_packing(256, 0.5).d == 4


def test_singletons_always_present():
    p = build_array_packing(10, 0.5)
    spans = set((s.lo, s.hi) for s in p.segments)
    for j in range(1, 11):
        assert (j, j) in spans


def test_family1_complete():
    p = build_array_packing(32, 0.5)
    spans = set((s.lo, s.hi) for s in p.segments)
    for length in range(1, p.d + 1):
        for j in range(1, 32 - length + 2):
            assert (j, j + length - 1) in spans


def test_family2_spacing():
    for m in (16, 64, 257):
        for kappa in (0.3, 0.5, 0.7):
            p = build_array_packing(m, kappa)
            for length in p._family2_lengths:
                starts = p.family2_starts(length)
                assert starts[0] == 1
                step = length // p.d
                assert all(b - a == step for a, b in zip(starts, starts[1:]))


def test_parameter_validation():
    with pytest.raises(ValueError):
        build_array_packing(0, 0.5)
    with pytest.raises(ValueError):
        build_array_packing(8, 0.0)
    with pytest.raises(ValueError):
        build_array_packing(8, 1.0)


def test_coverage_bound_shared_constant():
    # one constant across all sizes; the acceptance suite pins it for the
    # full m range, this checks stability at module scale
    worst = 0.0
    for m in (16, 32, 64, 128, 256):
        p = build_array_packing(m, 0.5)
        bound = (m ** 0.5) * (math.log2(m) + 1)
        worst = max(worst, p.max_coverage() / bound)
    assert worst <= 3.0, worst


def test_cover_single_segment_short_interval():
    p = build_array_packing(64, 0.5)
    for x in range(1, 60):
        y = min(64, x + p.d - 1)
        assert p.cover_spans(x, y) == [(x, y)]


def test_cover_singleton():
    p = build_array_packing(40, 0.5)
    assert p.cover_spans(7, 7) == [(7, 7)]


def test_cover_exhaustive_small():
    for kappa in (0.3, 0.5, 0.7):
        for m in list(range(1, 49)) + [63, 64, 65]:
            p = build_array_packing(m, kappa)
            bound = 2 * (math.log(m, p.d_prime) if m > 1 else 0) + 2
            for x in range(1, m + 1):
                for y in range(x, m + 1):
                    spans = p.cover_spans(x, y)
                    assert len(spans) <= bound, (m, kappa, x, y, spans)
                    spans.sort()
                    reach = x - 1
                    for lo, hi in spans:
                        assert x <= lo <= hi <= y
                        assert lo <= reach + 1, (m, kappa, x, y, spans)
                        reach = max(reach, hi)
                    assert reach == y


def _fewest_segments(p, x: int, y: int) -> int:
    """Fewest committed segments inside [x, y] whose union is exactly
    [x, y], by a DP over right ends: g[r] covers exactly [x, r], and in a
    fewest cover the union of all but the segment ending at r is [x, r']
    with lo - 1 <= r' < r."""
    ending: dict[int, list[int]] = {}
    for s in p.segments:
        if x <= s.lo and s.hi <= y:
            ending.setdefault(s.hi, []).append(s.lo)
    inf = float("inf")
    g = {x - 1: 0}
    for r in range(x, y + 1):
        # after the loop, low[lo] = min(g[lo - 1], ..., g[r - 1])
        low = {}
        run = inf
        for lo in range(r, x - 1, -1):
            run = min(run, g[lo - 1])
            low[lo] = run
        g[r] = min((1 + low[lo] for lo in ending.get(r, ())), default=inf)
    return g[y]


def test_cover_uses_fewest_segments():
    for kappa in (0.3, 0.5, 0.7):
        for m in range(1, 41):
            p = build_array_packing(m, kappa)
            for x in range(1, m + 1):
                for y in range(x, m + 1):
                    assert len(p.cover_spans(x, y)) == _fewest_segments(p, x, y), \
                        (m, kappa, x, y)


def test_cover_full_interval_bound():
    for kappa in (0.3, 0.5, 0.7):
        for m in range(2, 513):
            p = build_array_packing(m, kappa)
            bound = 2 * math.log(m, p.d_prime) + 2
            assert len(p.cover_spans(1, m)) <= bound, (m, kappa)


def test_best_segment_unit_weight_single_cell():
    p = build_array_packing(32, 0.5)
    rng = random.Random(1)
    for _ in range(40):
        x = rng.randint(1, 32)
        y = rng.randint(x, 32)
        c = rng.randint(x, y)
        weights = [0.0] * 32
        weights[c - 1] = 1.0
        seg, score = p.best_segment_in_interval(weights, x, y)
        assert score == 1.0
        assert seg.lo <= c <= seg.hi


def test_best_segment_all_ones():
    m = 64
    p = build_array_packing(m, 0.5)
    weights = [1.0] * m
    seg, score = p.best_segment_in_interval(weights, 1, m)
    longest = max(s.hi - s.lo + 1 for s in p.segments)
    assert score == float(longest)


def test_best_segment_matches_brute_force_mixed_weights():
    rng = random.Random(20)
    packings = {}
    for case in range(1500):
        m = rng.randint(1, 70)
        kappa = (0.3, 0.5, 0.7)[case % 3]
        p = packings.get((m, kappa))
        if p is None:
            p = packings[(m, kappa)] = build_array_packing(m, kappa)
        weights = [float(rng.randint(-9, 9)) for _ in range(m)]
        x = rng.randint(1, m)
        y = rng.randint(x, m)
        inside = [s for s in p.segments if x <= s.lo and s.hi <= y]
        scores = [sum(weights[s.lo - 1:s.hi]) for s in inside]
        top = max(scores)
        first = inside[scores.index(top)]
        assert p.best_segment_in_interval(weights, x, y) == (first, top), \
            (m, kappa, x, y)


def test_score_loss_guarantee():
    # max segment score x cover count >= interval score, and the direct
    # bound via the cover-size cap
    m = 128
    p = build_array_packing(m, 0.5)
    rng = random.Random(9)
    bound = 2 * math.log(m, p.d_prime) + 2
    for _ in range(200):
        weights = [rng.random() * rng.choice([0, 1, 1, 5]) for _ in range(m)]
        x = rng.randint(1, m)
        y = rng.randint(x, m)
        total = sum(weights[x - 1:y])
        spans = p.cover_spans(x, y)
        _seg, best = p.best_segment_in_interval(weights, x, y)
        assert best * len(spans) >= total - 1e-9
        assert best * bound >= total - 1e-9
