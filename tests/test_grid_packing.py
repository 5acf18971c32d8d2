import itertools
import random

import pytest

from dynseq.grid_packing import (COL, ROW, GridSegment, build_grid_packing,
                                 exhaustive_chain_score, non_conflicting,
                                 precedes, random_cell_weights, table_score)


def test_m1_grid():
    g = build_grid_packing(1, 0.5)
    assert len(g.segments) == 2  # the single cell as a row and as a column
    assert g.coverage_at(1, 1) == 2


def test_coverage_recount():
    g = build_grid_packing(4, 0.5)
    for r in range(1, 5):
        for c in range(1, 5):
            row_cov = sum(1 for s in g.segments
                          if s.orientation == ROW and s.line == r and s.lo <= c <= s.hi)
            col_cov = sum(1 for s in g.segments
                          if s.orientation == COL and s.line == c and s.lo <= r <= s.hi)
            assert g.coverage_at(r, c) == row_cov + col_cov


def test_total_segment_count_is_disjoint_union():
    for m in (2, 4, 8):
        g = build_grid_packing(m, 0.5)
        assert len(g.segments) == 2 * m * len(g.line_packing.segments)


def test_precedes_examples():
    a = GridSegment(0, ROW, 3, 2, 4)
    b = GridSegment(1, ROW, 1, 1, 1)
    assert precedes(a, b)
    # sharing a row conflicts
    c = GridSegment(2, ROW, 3, 5, 6)
    assert not precedes(a, c) and not precedes(c, a)
    assert not non_conflicting(a, c)
    # a segment conflicts with itself
    assert not non_conflicting(a, a)


def test_precedes_mixed_orientations():
    a = GridSegment(0, COL, 5, 4, 6)   # column 5, rows 4..6
    b = GridSegment(1, ROW, 2, 1, 3)   # row 2, cols 1..3
    assert precedes(a, b)
    assert non_conflicting(a, b)


def test_chain_dp_zero_and_single():
    g = build_grid_packing(4, 0.5)
    scores = [0.0] * len(g.segments)
    total, chain = g.chain_dp(scores)
    assert total == 0.0 and chain == []
    scores[17] = 7.0
    total, chain = g.chain_dp(scores)
    assert total == 7.0 and chain == [17]


def test_chain_dp_score_mismatch():
    g = build_grid_packing(2, 0.5)
    with pytest.raises(ValueError):
        g.chain_dp([1.0])


def test_chain_dp_vs_exhaustive():
    rng = random.Random(11)
    for m in (2, 3, 4, 5):
        g = build_grid_packing(m, 0.5)
        for _ in range(40):
            scores = [0.0] * len(g.segments)
            for sid in rng.sample(range(len(g.segments)), min(12, len(g.segments))):
                scores[sid] = float(rng.randint(0, 9))
            total, chain = g.chain_dp(scores)
            best = exhaustive_chain_score(g, scores)
            assert abs(total - best) < 1e-9, (m, total, best)
            # witness chain is pairwise non-conflicting and adds up
            assert abs(sum(scores[i] for i in chain) - total) < 1e-9
            for a, b in itertools.combinations(chain, 2):
                assert non_conflicting(g.segments[a], g.segments[b])


def test_table_score_all_ones():
    m = 6
    weights = [[1.0] * m for _ in range(m)]
    score, path = table_score(weights)
    assert score == 2 * m - 1
    assert len(path) == 2 * m - 1


def test_table_score_single_cell():
    weights = [[0.0] * 4 for _ in range(4)]
    weights[2][1] = 5.0
    score, path = table_score(weights)
    assert score == 5.0
    assert (3, 2) in path


def test_table_score_vs_path_enumeration():
    rng = random.Random(13)
    m = 4
    moves = 2 * m - 2
    for _ in range(50):
        weights = [[rng.randint(0, 9) for _ in range(m)] for _ in range(m)]
        best = 0
        count = 0
        for ups in itertools.combinations(range(moves), m - 1):
            count += 1
            i = j = 1
            s = weights[0][0]
            for t in range(moves):
                if t in ups:
                    i += 1
                else:
                    j += 1
                s += weights[i - 1][j - 1]
            best = max(best, s)
        assert count == 20  # C(6, 3) monotone paths on a 4x4 grid
        score, _path = table_score(weights)
        assert score == best


def test_chain_bounded_by_table():
    rng = random.Random(17)
    for m in (4, 8):
        g = build_grid_packing(m, 0.5)
        for _ in range(60):
            weights = random_cell_weights(m, rng)
            scores = g.all_scores(weights)
            chain, _ = g.chain_dp(scores)
            table, _ = table_score(weights)
            assert chain <= table + 1e-9


def test_two_sided_guarantee_random_matrices():
    import math
    rng = random.Random(19)
    for m, kappa in ((8, 0.3), (8, 0.5), (16, 0.5)):
        g = build_grid_packing(m, kappa)
        bound = 2 * (2 * math.log(m, g.line_packing.d_prime) + 2)
        for _ in range(80):
            weights = random_cell_weights(m, rng)
            scores = g.all_scores(weights)
            chain, _ = g.chain_dp(scores)
            table, _ = table_score(weights)
            if table > 0:
                assert chain > 0
                assert table / chain <= bound, (m, kappa, table, chain)


def test_segment_scores_match_cells():
    g = build_grid_packing(5, 0.5)
    rng = random.Random(23)
    weights = [[rng.randint(0, 9) for _ in range(5)] for _ in range(5)]
    scores = g.all_scores(weights)
    for s in g.segments:
        direct = sum(weights[r - 1][c - 1] for r, c in s.cells())
        assert scores[s.id] == direct == g.segment_score(s, weights)


@pytest.mark.parametrize("kappa", [0.25, 0.4])
@pytest.mark.parametrize("m", range(1, 9))
def test_children_are_the_distinct_cell_sets(m, kappa):
    g = build_grid_packing(m, kappa)
    count = max(g.child_of) + 1
    assert sorted(set(g.child_of)) == list(range(count))
    cells = [None] * count
    for s in g.segments:
        mine = set(s.cells())
        child = g.child_of[s.id]
        # first-seen order: a new child takes the next index
        if cells[child] is None:
            assert child == sum(c is not None for c in cells)
            cells[child] = mine
        assert cells[child] == mine
    assert all(a != b for a, b in itertools.combinations(cells, 2))
    assert g.cell_children.keys() == g.cell_cover.keys()
    for cell, sids in g.cell_cover.items():
        assert g.cell_children[cell] == sorted({g.child_of[s] for s in sids})
    if m == 2:
        assert (len(g.segments), count) == (12, 8)
