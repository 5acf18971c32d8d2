"""Acceptance gate: one test per criterion, each printing a PASS line with
the measured quantities.  Run with ``pytest tests/test_acceptance.py -v -s``.

Replay oracles are independent of the engines under test: patience sorting
(validated against the quadratic DP and a Fenwick-tree LIS in the module
suites) plus direct quadratic DP spot checks.
"""

import math
import random
import time

import pytest

from dynseq.array_packing import build_array_packing
from dynseq.exact_lis import ExactDynamicLis
from dynseq.classic import brute_dtm, brute_lis, lis_length
from dynseq.cli import main as cli_main
from dynseq.dynamic_dtm import (DtmDynamic, InversionMatching,
                                exact_from_cover_labels, exact_from_cover_vc,
                                labels_reduction, sequential_dtm,
                                stack_matching)
from dynseq.dynamic_lis import hierarchy_engine, naive_engine, sqrt_engine
from dynseq.grid_packing import (build_grid_packing, random_cell_weights,
                                 table_score)
from dynseq.indexed_sequence import INSERT
from dynseq.lis_plus import LisPlus
from dynseq.partitioner import (partition_baseline, partition_dynamic,
                                partition_is_valid)
from dynseq.streams import generate_stream
from dynseq.work import WorkMeter


def report(num, name, detail):
    print(f"\nACCEPTANCE {num} {name}: PASS  ({detail})")


def apply_to_shadow(shadow, op):
    if op.kind == INSERT:
        shadow.insert(op.position - 1, op.value)
    else:
        shadow.pop(op.position - 1)


# ---------------------------------------------------------------------------


def test_criterion_1_exactness():
    t0 = time.time()
    streams = 100
    ops_per_stream = 1000
    checked = 0
    dp_checks = 0
    for seed in range(streams):
        items = generate_stream("uniform", ops_per_stream, 9000 + seed,
                                insert_prob=0.55)
        exact = ExactDynamicLis(seed=seed)
        naive = naive_engine()
        shadow = []
        for t, op in enumerate(items):
            if op.kind == INSERT:
                exact.insert(op.position, op.value)
            else:
                exact.delete(op.position)
            naive.apply(op)
            apply_to_shadow(shadow, op)
            want = lis_length(shadow)
            assert exact.lis() == want, (seed, t)
            assert naive.query() == want, (seed, t)
            checked += 1
            if t % 100 == 99 and len(shadow) <= 1000:
                assert brute_lis(shadow) == want, (seed, t)
                dp_checks += 1
        assert len(shadow) <= 1000
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    report(1, "exactness",
           f"{streams} streams x {ops_per_stream} ops, {checked} per-op checks, "
           f"{dp_checks} DP spot checks, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_2_sqrt_engine():
    t0 = time.time()
    kinds = ["uniform"] * 20 + ["sorted"] * 10 + ["sawtooth"] * 10 + ["reverse"] * 10
    ops_per_stream = 10_000
    fit_streams = 10  # work-unit constant is fitted on the first streams
    results = {}
    for eps in (0.25, 0.5):
        worst_ratio = 1.0
        fitted_c = 0.0
        worst_rest = 0.0
        for i, kind in enumerate(kinds):
            meter = WorkMeter()
            eng = sqrt_engine(eps, meter=meter, seed=1000 + i)
            items = generate_stream(kind, ops_per_stream, 31 * i + 7,
                                    insert_prob=0.55)
            shadow = []
            peak = 0.0
            for op in items:
                before = meter.ticks
                eng.apply(op)
                apply_to_shadow(shadow, op)
                est = eng.query()
                true = lis_length(shadow)
                assert est <= true, (eps, kind, i)
                assert true <= (1.0 + eps) * est + 1e-9, (eps, kind, i, est, true)
                if est:
                    worst_ratio = max(worst_ratio, true / est)
                n = len(shadow)
                envelope = math.sqrt(n + 2) * (math.log2(n + 4) ** 2)
                peak = max(peak, (meter.ticks - before) / envelope)
            if i < fit_streams:
                fitted_c = max(fitted_c, peak)
            else:
                worst_rest = max(worst_rest, peak)
        # one constant covers all steps of all streams: the max outside the
        # calibration set must not outgrow the fitted constant
        assert worst_rest <= 1.5 * fitted_c, (eps, worst_rest, fitted_c)
        results[eps] = (worst_ratio, fitted_c, max(fitted_c, worst_rest))
    elapsed = time.time() - t0
    detail = "; ".join(
        f"eps={eps}: worst oracle/estimate {r:.4f} <= {1 + eps}, "
        f"work c fitted {c:.2f}, global {g:.2f}"
        for eps, (r, c, g) in results.items())
    report(2, "sqrt engine", f"{detail}; {elapsed:.0f}s")


def test_criterion_3_grid_packing():
    t0 = time.time()
    trials = 500
    recorded = {}
    for m in (8, 16, 32):
        for kappa in (0.3, 0.5):
            g = build_grid_packing(m, kappa)
            bound = 2 * (2 * math.log(m, g.line_packing.d_prime) + 2)
            rng = random.Random(f"c3:{m}:{kappa}")
            worst = 1.0
            for _ in range(trials):
                weights = random_cell_weights(m, rng)
                table, _ = table_score(weights)
                chain, _ = g.chain_dp(g.all_scores(weights))
                assert chain <= table + 1e-9, (m, kappa)
                if table > 0:
                    assert chain > 0, (m, kappa)
                    worst = max(worst, table / chain)
            assert worst <= bound, (m, kappa, worst, bound)
            recorded[(m, kappa)] = (worst, bound)
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds"
    detail = ", ".join(f"m={m} k={k}: B={w:.2f}<={b:.0f}"
                       for (m, k), (w, b) in recorded.items())
    report(3, "grid packing", f"{trials} matrices each; {detail}; {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_4_array_packing():
    t0 = time.time()
    # (a) one coverage constant across the size range
    big_c = 0.0
    for kappa in (0.3, 0.5, 0.7):
        for m in (16, 24, 32, 64, 100, 128, 256, 300, 512, 777, 1024):
            p = build_array_packing(m, kappa)
            c = p.max_coverage() / ((m ** kappa) * (math.log2(m) + 1))
            big_c = max(big_c, c)
    assert big_c <= 3.0, big_c
    # (b) cover-interval count bound, exhaustive where the single-core
    # budget allows: every interval for all m <= 160 at three kappas, then a
    # stride-and-boundary sample of m up to 512 (a one-off full sweep over
    # all m <= 512 during development found no violation; see notes)
    checked = 0
    for kappa in (0.3, 0.5, 0.7):
        for m in range(1, 161):
            p = build_array_packing(m, kappa)
            bound = 2 * (math.log(m, p.d_prime) if m > 1 else 0) + 2
            cover = p.cover_spans
            for x in range(1, m + 1):
                for y in range(x, m + 1):
                    if len(cover(x, y)) > bound:
                        raise AssertionError((m, kappa, x, y))
                    checked += 1
    sampled = sorted(set(range(161, 513, 7)) |
                     {191, 192, 193, 255, 256, 257, 319, 320, 383, 384,
                      447, 448, 510, 511, 512})
    for kappa in (0.3, 0.5):
        for m in sampled:
            p = build_array_packing(m, kappa)
            bound = 2 * math.log(m, p.d_prime) + 2
            cover = p.cover_spans
            for x in range(1, m + 1):
                for y in range(x, m + 1):
                    if len(cover(x, y)) > bound:
                        raise AssertionError((m, kappa, x, y))
                    checked += 1
    elapsed = time.time() - t0
    report(4, "array packing",
           f"coverage constant C={big_c:.3f}<=3.0; {checked} covers within "
           f"2 log_d' m + 2; {elapsed:.0f}s")


def test_criterion_5_hierarchy_engine():
    t0 = time.time()
    eps = 0.8
    streams = 30
    ops_per_stream = 450
    worst_ratio = 1.0
    fitted_c = 0.0
    worst_rest = 0.0
    fit_streams = 10
    depth_seen = 0
    for i in range(streams):
        eng = hierarchy_engine(eps)
        # five long insert-heavy streams push the recursion deeper
        long_run = i % 6 == 5
        items = generate_stream("uniform" if i % 3 else "sawtooth",
                                1400 if long_run else ops_per_stream,
                                77 * i + 3,
                                insert_prob=0.9 if long_run else 0.62)
        shadow = []
        peak = 0.0
        budget = 1.0
        for op in items:
            before = eng.touched_segments
            eng.apply(op)
            apply_to_shadow(shadow, op)
            est = eng.query()
            true = lis_length(shadow)
            assert est <= true, (i, est, true)
            if est:
                worst_ratio = max(worst_ratio, true / est)
            profile = eng.describe()
            depth_seen = max(depth_seen, len(profile))
            # normalize against the deepest level schedule reached so far;
            # during generation overlap ops route through two live stacks
            budget = max(budget, sum((m ** eng.kappa) * (math.log2(m) + 1)
                                     for _lvl, m in profile))
            peak = max(peak, (eng.touched_segments - before) / budget)
        if i < fit_streams:
            fitted_c = max(fitted_c, peak)
        else:
            worst_rest = max(worst_rest, peak)
        assert len(shadow) <= 5000
    # constructive ceiling: per level the chain DP loses at most the
    # score-loss factor of one line packing, doubled for the row/column split
    per_level = 2 * (2 * math.log(3, 2) + 2)
    ceiling = per_level ** max(depth_seen, 1)
    assert worst_ratio <= ceiling, (worst_ratio, ceiling)
    assert worst_rest <= 2.0 * fitted_c, (worst_rest, fitted_c)
    elapsed = time.time() - t0
    report(5, "hierarchy engine",
           f"{streams} streams, worst LIS/estimate {worst_ratio:.3f} <= ceiling "
           f"{ceiling:.0f} (depth {depth_seen}), touched-segment c fitted "
           f"{fitted_c:.1f} global {max(fitted_c, worst_rest):.1f}; {elapsed:.0f}s")


def test_criterion_6_dtm_suite():
    t0 = time.time()
    # (a) bracket after every op on 100 streams
    for seed in range(100):
        m = InversionMatching(seed=seed)
        shadow = []
        items = generate_stream("uniform", 250, 4000 + seed, insert_prob=0.55)
        for op in items:
            m.apply(op)
            apply_to_shadow(shadow, op)
            s, two_s = m.approx2_query()
            dtm = len(shadow) - lis_length(shadow)
            assert s <= dtm <= two_s, seed
    # (b) + (c): both exact routes equal the DP oracle; label classes bounded
    rng = random.Random("c6b")
    max_classes_ratio = 0.0
    for _ in range(500):
        n = rng.randint(0, 300)
        arr = rng.sample(range(1 << 30), n)
        cover = [i for p in stack_matching(arr) for i in p]
        want = brute_dtm(arr)
        assert exact_from_cover_labels(arr, cover) == want
        assert exact_from_cover_vc(arr, cover) == want
        _, classes = labels_reduction(arr, cover)
        assert classes <= 2 * len(cover) + 1
        if cover:
            max_classes_ratio = max(max_classes_ratio,
                                    classes / (2 * len(cover) + 1))
    # (d) dynamic audit over full replays
    for eps in (0.1, 0.25):
        for seed in (1, 2):
            eng = DtmDynamic(eps, seed=seed)
            shadow = []
            items = generate_stream("uniform", 1500, 6000 + seed,
                                    insert_prob=0.6)
            for op in items:
                eng.apply(op)
                apply_to_shadow(shadow, op)
                rep = eng.query()
                exact = len(shadow) - lis_length(shadow)
                assert exact <= rep <= (1 + eps) * exact + 1e-9, \
                    (eps, seed, rep, exact)
    # (e) sequential: the small-cover branch fires and agrees with the oracle
    small_branch = 0
    for trial in range(200):
        rng2 = random.Random(8100 + trial)
        n = rng2.randint(2, 240)
        arr = sorted(rng2.sample(range(1 << 30), n))
        for _ in range(rng2.randint(0, max(1, int(math.isqrt(n)) // 2))):
            i = rng2.randrange(n - 1)
            arr[i], arr[i + 1] = arr[i + 1], arr[i]
        pairs = stack_matching(arr)
        if len(pairs) <= math.isqrt(n):
            small_branch += 1
        assert sequential_dtm(arr) == brute_dtm(arr)
    assert small_branch >= 150
    elapsed = time.time() - t0
    report(6, "dtm suite",
           f"bracket on 100 streams; 500 three-way arrays; label classes "
           f"<= 2|S|+1 (peak ratio {max_classes_ratio:.2f}); audits at eps "
           f"0.1/0.25; sequential small-branch {small_branch}/200; {elapsed:.0f}s")


def test_criterion_7_lis_plus():
    t0 = time.time()
    from collections import Counter

    for seed in (1, 2):
        lp = LisPlus(seed=seed)
        shadow = []
        anchor = 0
        since = 0
        items = generate_stream("uniform", 10_000, 7000 + seed,
                                insert_only=True)
        for t, op in enumerate(items):
            lp.apply(op)
            shadow.insert(op.position - 1, op.value)
            n = len(shadow)
            sizes = lp.bucket_sizes()
            counts = Counter(sizes["finalized"])
            assert all(c <= 3 for c in counts.values()), (seed, t)
            assert len(sizes["pending"]) == len(set(sizes["pending"]))
            covered = sum(sizes["finalized"])
            assert covered == n, (seed, t)
            if t % 500 == 499 or t == len(items) - 1:
                ids = lp.coverage_ids()
                assert len(ids) == n and len(set(ids)) == n, (seed, t)
            q = lp.query()
            factor = 3 * int(math.log2(n)) + 3 if n > 1 else 1
            since += 1
            # anchored exact verification: LIS grows by at most one per
            # insert, so cheap bounds certify most steps
            if q > anchor or anchor + since > q * factor:
                anchor = lis_length(shadow)
                since = 0
                assert q <= anchor, (seed, t, q, anchor)
                assert anchor <= q * factor, (seed, t, q, anchor)
            else:
                assert q <= anchor <= q * factor, (seed, t)
    elapsed = time.time() - t0
    report(7, "insert-only buckets",
           f"2 streams x 10k inserts, structural invariants and sandwich at "
           f"every step; {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_8_partitioning():
    t0 = time.time()
    eps = 0.8
    stats = {}
    for n in (256, 1024, 4096):
        rng = random.Random(f"c8:{n}")
        cs = []
        for seed in range(10):
            vals = rng.sample(range(1 << 40), n)
            base = partition_baseline(vals)
            assert partition_is_valid(vals, base), (n, seed)
            assert len(base) <= 2 * math.isqrt(n) + 1, (n, seed, len(base))
            dyn = partition_dynamic(vals, eps)
            assert partition_is_valid(vals, dyn), (n, seed)
            assert dyn.ops_issued == 4 * n, (n, seed, dyn.ops_issued)
            cs.append(len(dyn) / math.sqrt(n))
        mean = sum(cs) / len(cs)
        assert max(cs) <= 1.2 * mean and min(cs) >= 0.8 * mean, (n, cs)
        stats[n] = (mean, min(cs), max(cs))
    elapsed = time.time() - t0
    detail = ", ".join(f"n={n}: C={m:.2f} [{lo:.2f},{hi:.2f}]"
                       for n, (m, lo, hi) in stats.items())
    report(8, "monotone partitioning", f"{detail}; ops = 4n exactly; {elapsed:.0f}s")


def test_criterion_9_mutation_sensitivity(tmp_path, capsys):
    import io

    # family 2 disabled: the score-loss bound of criterion 3 must break
    rc = cli_main(["gridpack", "--m", "32", "--kappa", "0.3", "--trials",
                   "300", "--fault", "no-family2"], out=io.StringIO())
    assert rc == 4
    rc = cli_main(["gridpack", "--m", "32", "--kappa", "0.3", "--trials",
                   "300"], out=io.StringIO())
    assert rc == 0
    # one covering-segment update skipped per op: the soundness audit of
    # criterion 5 must break on a stream whose LIS collapses
    lines = []
    for i in range(500):
        lines.append(f"I {i + 1} {-i * 3}")
    for i in range(100):
        lines.append(f"I {500 + i + 1} {1000 + i * 5}")
    n = 600
    for _ in range(100):
        lines.append(f"D {n}")
        n -= 1
        lines.append("Q")
    path = tmp_path / "mutation.txt"
    path.write_text("\n".join(lines) + "\n")
    rc = cli_main(["lis-dyn", "--engine", "hier", "--stream", str(path),
                   "--audit", "--fault", "skip-segment"], out=io.StringIO())
    assert rc == 4
    rc = cli_main(["lis-dyn", "--engine", "hier", "--stream", str(path),
                   "--audit"], out=io.StringIO())
    assert rc == 0
    report(9, "mutation sensitivity",
           "family-2 removal -> gridpack audit exit 4; skipped segment "
           "update -> lis-dyn audit exit 4; healthy runs exit 0")
