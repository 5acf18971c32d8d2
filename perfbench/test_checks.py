"""Tests of the benchmark's own oracle, checkers and tracer.

    python3 -m pytest perfbench -q

The oracle is compared with a quadratic DP on small random arrays, and each
checker must reject a planted fault.
"""

import dataclasses
import json
import random
import types
from bisect import bisect_left
from pathlib import Path

import pytest

import checks
import run
import speed
import workloads
from spans import Tracer
from speed import SpeedProbe


def dp_lis(values):
    best = []
    for i, v in enumerate(values):
        best.append(1 + max((best[j] for j in range(i) if values[j] < v), default=0))
    return max(best, default=0)


def lis_indices(values):
    """0-based indices of one longest strictly increasing subsequence, by
    patience sorting with predecessor links."""
    tail_vals = []   # smallest tail value of an increasing run of each length
    tail_idx = []    # index of that tail element
    prev = [-1] * len(values)
    for i, v in enumerate(values):
        k = bisect_left(tail_vals, v)
        if k:
            prev[i] = tail_idx[k - 1]
        if k == len(tail_vals):
            tail_vals.append(v)
            tail_idx.append(i)
        else:
            tail_vals[k] = v
            tail_idx[k] = i
    out = []
    i = tail_idx[-1] if tail_idx else -1
    while i >= 0:
        out.append(i)
        i = prev[i]
    out.reverse()
    return out


def random_arrays(count=300, max_len=40, seed=7):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, max_len)
        yield rng.sample(range(-3 * n - 1, 3 * n + 1), n)


def test_oracle_matches_quadratic_dp():
    for values in random_arrays():
        assert checks.lis_len(values) == dp_lis(values)
        assert checks.lds_len(values) == dp_lis([-v for v in values])
        idx = lis_indices(values)
        witness = [(i + 1, values[i]) for i in idx]
        assert checks.check_witness(values, witness, dp_lis(values)) is None


def test_min_parts_is_a_lower_bound_met_by_a_greedy_partition():
    for values in random_arrays(count=100, max_len=25):
        lower = checks.min_parts(values)
        remaining = list(range(len(values)))
        parts, directions = [], []
        while remaining:
            vals = [values[i] for i in remaining]
            up = lis_indices(vals)
            down = lis_indices([-v for v in vals])
            pick, d = (up, "+") if len(up) >= len(down) else (down, "-")
            parts.append([remaining[i] + 1 for i in pick])
            directions.append(d)
            chosen = set(pick)
            remaining = [r for i, r in enumerate(remaining) if i not in chosen]
        assert checks.check_partition(values, parts, directions) is None
        assert len(parts) >= lower


def test_lis_estimate_checker_rejects_planted_faults():
    assert checks.check_lis_estimate(10, 10, 0.5) is None
    assert checks.check_lis_estimate(7, 10, 0.5) is None
    assert checks.check_lis_estimate(11, 10, 0.5)          # above the oracle
    assert checks.check_lis_estimate(6, 10, 0.5)           # below oracle / (1+eps)
    assert checks.check_lis_estimate(0, 3, None)           # zero on a non-empty array
    assert checks.check_lis_estimate(1, 3, None) is None


def test_dtm_estimate_checker_rejects_planted_faults():
    assert checks.check_dtm_estimate(12, 10, 0.5) is None
    assert checks.check_dtm_estimate(9, 10, 0.5)           # below the exact DTM
    assert checks.check_dtm_estimate(16, 10, 0.5)          # above (1+eps) * DTM
    assert checks.check_dtm_estimate(1, 0, 0.5)            # nonzero on a sorted array


def test_witness_checker_rejects_planted_faults():
    arr = [5, 1, 7, 3, 9, 4]
    good = [(2, 1), (4, 3), (6, 4)]
    assert checks.check_witness(arr, good, 3) is None
    assert checks.check_witness(arr, good, 4)                          # too short
    assert checks.check_witness(arr, [(1, 5), (2, 1), (3, 7)], 3)      # non-increasing values
    assert checks.check_witness(arr, [(4, 3), (2, 1), (6, 4)], 3)      # positions out of order
    assert checks.check_witness(arr, [(2, 1), (4, 2), (6, 4)], 3)      # fabricated value
    assert checks.check_witness(arr, [(2, 1), (4, 3), (7, 8)], 3)      # position out of range
    assert checks.check_witness(arr, [(2, 1), (2, 1), (6, 4)], 3)      # repeated position


def test_partition_checker_rejects_planted_faults():
    vals = [3, 1, 2, 5, 4]
    good = ([[2, 3, 4], [1], [5]], ["+", "+", "+"])
    assert checks.check_partition(vals, *good) is None
    assert checks.check_partition(vals, [[2, 3, 4], [1, 3], [5]], ["+", "+", "+"])  # overlap
    assert checks.check_partition(vals, [[2, 3, 4], [1]], ["+", "+"])                # 5 uncovered
    assert checks.check_partition(vals, [[1, 2, 3], [4, 5]], ["+", "-"])            # 3,1,2 not increasing
    assert checks.check_partition(vals, [[1, 2], [3, 4, 5]], ["-", "-"])            # 2,5,4 not decreasing
    assert checks.check_partition(vals, [[2, 3, 4], [1], [5], []], ["+"] * 4)      # empty part
    assert checks.check_partition(vals, [[2, 3, 4], [1], [5]], ["+", "+"])          # missing direction
    assert checks.check_partition(vals, [[2, 3, 4], [1], [6]], ["+", "+", "+"])     # index out of range


FAKE_MODULE = """
class Leaf:
    def work(self, n):
        return sum(range(n))


class Outer:
    def __init__(self):
        self.leaf = Leaf()

    def run(self, n):
        return self.leaf.work(n) + self.leaf.work(n)
"""


def test_tracer_self_time_excludes_traced_callees(monkeypatch):
    fake = types.ModuleType("fake")
    exec(FAKE_MODULE, fake.__dict__)
    package = types.ModuleType("pkg")
    package.fake = fake
    monkeypatch.setattr("spans.TRACED_MODULES", ("fake",))
    tracer = Tracer()
    tracer.install(package)
    try:
        fake.Outer().run(200_000)
        with tracer.paused():
            fake.Outer().run(10)
    finally:
        tracer.uninstall()
    assert not hasattr(fake.Leaf.work, "__wrapped__")
    assert tracer.get("fake.Outer.run", "calls") == 1
    assert tracer.get("fake.Leaf.work", "calls") == 2
    outer_self = tracer.get("fake.Outer.run", "self_s")
    leaf_self = tracer.get("fake.Leaf.work", "self_s")
    assert 0 <= outer_self < leaf_self
    assert tracer.get("fake.Leaf.work", "max_ms") * 2 >= leaf_self * 1e3 * 0.99


def test_benchmark_json_lists_the_metrics_run_py_reports():
    spec = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    layer_names = set(run.LAYER_METRICS) | {"work.ticks", "work.ticks_per_ms",
                                            "trace.ops_per_s", "trace.overhead"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "ops_per_s", "op_p50_us", "op_p99_us", "peak_rss_mb", "approx_ratio"}


class FaultyEngine:
    """Wraps an engine and raises on one chosen ``apply``."""

    def __init__(self, engine, fail_at: int) -> None:
        self.engine, self.fail_at, self.applied = engine, fail_at, 0

    def apply(self, op):
        self.applied += 1
        if self.applied == self.fail_at:
            raise RuntimeError("planted fault")
        self.engine.apply(op)

    def query(self):
        return self.engine.query()

    def extract(self):
        return self.engine.extract()


def test_an_engine_exception_is_a_failed_operation_and_the_json_still_prints(monkeypatch, capsys):
    small = dataclasses.replace(
        workloads.UPDATE_SPECS["lis-uniform"], size=50, round_ops=20,
        make_engine=lambda ds, meter: FaultyEngine(ds.naive_engine(meter=meter), 60))
    monkeypatch.setitem(workloads.UPDATE_SPECS, "lis-uniform", small)
    code = run.main(["--workload", "lis-uniform", "--seed", "1", "--seconds", "1", "--trace", "0"])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    # 50 prefill inserts, then the 10th measured update raises
    assert (out["correct"], out["attempted"], out["failed"]) == (True, 10, 1)


def test_timings_pool_every_rounds_operations():
    res = workloads.Pass(units_per_round=3)
    res.spans = res.latencies = [[1.0, 5.0, 2.0], [2.0, 3.0, 9.0], [4.0, 4.0, 1.0]]
    assert res.ops_per_s() == 9 / 31
    assert res.latency(0.5) == 3.0 and res.latency(0.99) == 9.0


def test_timings_are_scaled_by_the_probe_samples_around_each_operation(monkeypatch):
    monkeypatch.setattr("speed.CYCLE_LEN", 16)
    probe = SpeedProbe()
    assert sorted(probe.cycle) == list(range(16))
    unit = speed.NOMINAL_S
    probe.samples = [unit, unit, 2 * unit, 2 * unit, 2 * unit]
    factors = probe.factors()
    assert factors == pytest.approx([1, 1 / 1.5, 0.5, 0.5])
    # samples taken before ops 0, 2, 4 and 6 (and after the last)
    assert workloads.scaled([[1.0] * 8], [([0, 2, 4, 6], factors)])[0] == \
        pytest.approx([1, 1, 1 / 1.5, 1 / 1.5, 0.5, 0.5, 0.5, 0.5])
    res = workloads.Pass(units_per_round=2)
    res.spans = res.latencies = [[1.0, 4.0]] * 3
    res.factors = res.lat_factors = [([0], [1.0]), ([0], [0.5]), ([0, 1], [0.5, 0.25])]
    # scaled: (1, 4), (0.5, 2), (0.5, 1)
    assert res.ops_per_s() == 6 / 9
    assert res.latency(0.99) == 4.0


def test_each_round_draws_new_operations_and_checks_them():
    dynseq = run.load_package()
    small = dataclasses.replace(workloads.UPDATE_SPECS["dtm-nearsorted"], size=200, round_ops=100)
    runner = workloads.UpdateRun(small, dynseq, 5)
    runner.prefill()
    first_array = list(runner.gen.array)
    res = runner.measure(None, rounds=3)
    assert (res.rounds, res.ops, res.checks) == (3, 300, 3 * 100 // workloads.CHECK_EVERY)
    assert len(res.outputs) == 100 and [len(x) for x in res.latencies] == [100] * 3
    assert [len(r) for r in res.ratios] == [100 // workloads.CHECK_EVERY] * 3
    assert res.issued == 3 * (200 + 100)
    runner.prefill()
    assert runner.gen.array != first_array
    assert workloads.partition_inputs(5, 0) != workloads.partition_inputs(5, 1)


@pytest.mark.parametrize("q,expect", [(0.5, 50), (0.99, 99), (1.0, 100), (0.001, 1)])
def test_nearest_rank_percentile(q, expect):
    assert workloads.percentile(list(range(1, 101)), q) == expect
