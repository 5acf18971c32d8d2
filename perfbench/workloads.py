"""Workload generators and the loops that run them.

Inputs come from the benchmark's own ``random.Random``, seeded from the
workload, ``--seed`` and the round; the package under test receives only
the generated operations (or, for ``partition``, the generated
permutations).  Every update workload keeps a shadow copy of the array,
and the checks in ``checks.py`` compare engine outputs with it.

A run is a number of rounds, each on inputs of its own.  An update round
builds a fresh engine, prefills it (untimed) and then issues ``round_ops``
updates, alternating insert and delete so the array stays at its prefill
size; a query follows every update, and the pair is timed as one
operation.  A ``partition`` round partitions ``PARTITION_PERMS`` fresh
permutations once each, timing every call and every engine update the
partitioner issues.  Every round's outputs are checked against the oracles.

One stream of operations leaves its mark on the timings: the cost of an
update depends on the array it finds, and single streams drawn from five
seeds spread by 7-9% in throughput.  Each round therefore draws a new stream, and
the timings a run reports pool every round's operations, after each timed
operation is scaled to one machine speed by ``speed.SpeedProbe``, which is
timed between the round's operations.
"""

from __future__ import annotations

import gc
import math
from bisect import bisect_right
import random
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Optional

import checks

CHECK_EVERY = 25
MIN_ROUNDS = 3
PROBES_PER_ROUND = 20
VALUE_SPACE = 1 << 60


class CheckFailed(AssertionError):
    """An engine output failed an independent check."""


class EngineFailed(Exception):
    """The package under test raised during an operation; the pass stops
    there and the operation counts as failed."""


@dataclass
class Pass:
    """What one pass over a workload measured and produced."""

    ops: int = 0                     # measured updates, or elements partitioned, that completed
    failed: int = 0                  # operations on which the engine raised
    busy_s: float = 0.0              # time inside the program's calls
    rounds: int = 0                  # completed rounds
    units_per_round: int = 0         # ops (updates, or elements partitioned) per round
    spans: list = field(default_factory=list)     # per round: the timed calls, in order
    latencies: list = field(default_factory=list)  # per round: per-update latencies, in order
    factors: list = field(default_factory=list)   # per round: (marks, factors) for the spans
    lat_factors: list = field(default_factory=list)  # per round: (marks, factors) for latencies
    probe_s: list = field(default_factory=list)   # per round: median speed-probe time
    outputs: list = field(default_factory=list)   # first round's estimates / partitions
    ratios: list = field(default_factory=list)    # per round: the checked steps' ratios
    checks: int = 0
    ticks: int = 0
    issued: int = 0                  # engine updates issued, prefill included

    @property
    def approx_ratio(self) -> float:
        """Mean ratio over the checked steps of the first MIN_ROUNDS rounds,
        which every timed run completes, so that it does not depend on
        how many rounds the machine's speed allowed."""
        return statistics.fmean(r for rnd in self.ratios[:MIN_ROUNDS] for r in rnd)

    @property
    def first_ratio(self) -> float:
        """Mean ratio over the first round's checked steps."""
        return statistics.fmean(self.ratios[0])

    def ops_per_s(self) -> float:
        """Ops per second over every round's scaled call times."""
        total = sum(map(sum, scaled(self.spans, self.factors)))
        return self.units_per_round * len(self.spans) / total

    def latency(self, q: float) -> float:
        """The q-quantile of every round's scaled update latencies, in seconds."""
        pooled = [t for lat in scaled(self.latencies, self.lat_factors) for t in lat]
        return percentile(sorted(pooled), q)

    def end_round(self, probe, marks: list, lat_marks: Optional[list] = None) -> None:
        """Take the round's last probe sample and record its factors, if the
        pass has a probe.  ``marks`` (``lat_marks``) give, per sample, the
        spans (latencies) timed before it; None means the same as ``marks``."""
        if probe is None:
            return
        probe.sample()
        factors = probe.factors()
        self.factors.append((marks, factors))
        self.lat_factors.append((marks if lat_marks is None else lat_marks, factors))
        self.probe_s.append(probe.end_round())


def scaled(per_round: list, factors: list) -> list:
    """Per-round timings, each times the factor of the stretch between
    probe samples it fell in; unscaled without factors."""
    if not factors:
        return per_round
    return [[t * fs[bisect_right(marks, i) - 1] for i, t in enumerate(times)]
            for times, (marks, fs) in zip(per_round, factors)]


def percentile(sorted_xs: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_xs[max(0, math.ceil(round(q * len(sorted_xs), 6)) - 1)]


# ---------------------------------------------------------------------------
# operation generators


class ShadowGen:
    """Random positional updates over a shadow array of distinct values."""

    def __init__(self, rng: random.Random, op_cls, insert_kind, delete_kind) -> None:
        self.rng = rng
        self.array: list[int] = []
        self.present: set[int] = set()
        self._op = op_cls
        self._ins = insert_kind
        self._del = delete_kind

    def fresh_value(self, lo: int = 0, hi: int = VALUE_SPACE) -> Optional[int]:
        """A value in [lo, hi) not yet present; None if a few tries fail."""
        for _ in range(8):
            v = self.rng.randrange(lo, hi)
            if v not in self.present:
                return v
        return None

    def any_value(self) -> int:
        """A fresh value, uniform over the whole value space."""
        while True:
            v = self.fresh_value()
            if v is not None:
                return v

    def insert(self, pos: int, value: int):
        self.array.insert(pos - 1, value)
        self.present.add(value)
        return self._op(self._ins, pos, value)

    def delete(self, pos: int):
        self.present.discard(self.array.pop(pos - 1))
        return self._op(self._del, pos)

    def delete_uniform(self):
        return self.delete(self.rng.randint(1, len(self.array)))

    def prefill_insert(self):
        """A fresh uniform value at a uniform position."""
        v = self.any_value()
        return self.insert(self.rng.randint(1, len(self.array) + 1), v)

    def steady_insert(self):
        return self.prefill_insert()


class NearSortedGen(ShadowGen):
    """Keeps the array sorted except for exactly ``outliers`` elements.

    An insert lands at a uniform position.  While fewer than ``outliers``
    outliers are present its value is uniform (a new outlier); otherwise it
    falls between the nearest non-outlier neighbours, so the non-outliers
    stay increasing.  Deletes are uniform.  The DTM is then at most
    ``outliers`` and, an outlier rarely landing in order, almost always
    equal to it, so the cost of a step does not depend on the seed's luck.
    """

    def __init__(self, rng, op_cls, insert_kind, delete_kind, outliers: int) -> None:
        super().__init__(rng, op_cls, insert_kind, delete_kind)
        self.target = outliers
        self.outliers: set[int] = set()

    def prefill_insert(self):
        arr = self.array
        while True:
            pos = self.rng.randint(1, len(arr) + 1)
            if len(self.outliers) < self.target:
                v = self.any_value()
                self.outliers.add(v)
                return self.insert(pos, v)
            i = pos - 2
            while i >= 0 and arr[i] in self.outliers:
                i -= 1
            j = pos - 1
            while j < len(arr) and arr[j] in self.outliers:
                j += 1
            lo = arr[i] + 1 if i >= 0 else 0
            hi = arr[j] if j < len(arr) else VALUE_SPACE
            if hi > lo:
                v = self.fresh_value(lo, hi)
                if v is not None:
                    return self.insert(pos, v)

    def delete(self, pos: int):
        self.outliers.discard(self.array[pos - 1])
        return super().delete(pos)


class HotspotGen(ShadowGen):
    """Editor-cursor inserts: ``hold`` inserts in a row at one position,
    then the cursor jumps to a uniform position; deletes stay uniform.

    A cursor that never moves makes every midpoint key one bit longer than
    the last.  Even a moving one leaves the array, once turned over, made
    of clusters whose keys the next clusters refine further, and the cost
    per operation keeps growing with the length of the stream (its median
    tripled over 22000 operations at n = 1000).  A round is short and
    starts from a fresh engine, so its cost does not depend on how long
    the run is; each stay at a cursor still turns about 165 keys into
    ``Fraction``s with denominators up to ~165 bits.
    """

    def __init__(self, rng, op_cls, insert_kind, delete_kind, hold: int) -> None:
        super().__init__(rng, op_cls, insert_kind, delete_kind)
        self.hold = hold
        self._left = 0
        self._cursor = 1

    def steady_insert(self):
        if self._left == 0:
            self._cursor = self.rng.randint(1, len(self.array) + 1)
            self._left = self.hold
        self._left -= 1
        return self.insert(min(self._cursor, len(self.array) + 1), self.any_value())


# ---------------------------------------------------------------------------
# update workloads


@dataclass
class UpdateSpec:
    """An engine, a prefill, and the steady insert/delete mix that follows."""

    name: str
    size: int                         # prefill length, held during the round
    round_ops: int                    # measured updates per round
    make_engine: Callable             # (dynseq, meter) -> engine
    make_gen: Callable                # (rng, dynseq) -> ShadowGen
    check: Callable                   # (engine, estimate, shadow) -> ratio; raises CheckFailed


def _ops_types(dynseq):
    iseq = dynseq.indexed_sequence
    return dynseq.Operation, iseq.INSERT, iseq.DELETE


def _check_lis(epsilon: Optional[float]):
    def check(engine, estimate: int, shadow: list) -> float:
        oracle = checks.lis_len(shadow)
        err = checks.check_lis_estimate(estimate, oracle, epsilon)
        err = err or checks.check_witness(shadow, engine.extract(), estimate)
        if err:
            raise CheckFailed(err)
        return oracle / estimate
    return check


def _check_dtm(epsilon: float):
    def check(engine, estimate: int, shadow: list) -> float:
        exact = len(shadow) - checks.lis_len(shadow)
        err = checks.check_dtm_estimate(estimate, exact, epsilon)
        if err:
            raise CheckFailed(err)
        return estimate / exact if exact else 1.0
    return check



HOTSPOT_HOLD = 250


UPDATE_SPECS = {
    "lis-uniform": UpdateSpec(
        name="lis-uniform", size=2500, round_ops=4000,
        make_engine=lambda ds, meter: ds.sqrt_engine(0.5, meter=meter),
        make_gen=lambda rng, ds: ShadowGen(rng, *_ops_types(ds)),
        check=_check_lis(0.5)),
    "dtm-nearsorted": UpdateSpec(
        name="dtm-nearsorted", size=3000, round_ops=8000,
        make_engine=lambda ds, meter: ds.DtmDynamic(0.5, meter=meter),
        make_gen=lambda rng, ds: NearSortedGen(rng, *_ops_types(ds), outliers=30),
        check=_check_dtm(0.5)),
    "hier-hotspot": UpdateSpec(
        name="hier-hotspot", size=1000, round_ops=1000,
        make_engine=lambda ds, meter: ds.hierarchy_engine(0.5, meter=meter),
        make_gen=lambda rng, ds: HotspotGen(rng, *_ops_types(ds), hold=HOTSPOT_HOLD),
        check=_check_lis(None)),
}


def enough(res: Pass, start: float, seconds: Optional[float], rounds: Optional[int]) -> bool:
    """Whether a pass has done its rounds: exactly ``rounds`` if given, else
    at least MIN_ROUNDS and ``seconds`` since ``start``."""
    if rounds is not None:
        return res.rounds >= rounds
    return res.rounds >= MIN_ROUNDS and time.perf_counter() - start >= seconds


class UpdateRun:
    """Rounds of one update workload: fresh engine, prefill, measured updates."""

    def __init__(self, spec: UpdateSpec, dynseq, seed: int, result: Optional[Pass] = None) -> None:
        self.spec = spec
        self.dynseq = dynseq
        self.seed = seed
        self.meter = dynseq.WorkMeter()
        self.result = result if result is not None else Pass()
        self.result.units_per_round = spec.round_ops
        self.engine = self.gen = None

    def prefill(self) -> None:
        """A fresh engine and array, filled by ``size`` inserts drawn from
        the seed and the round: a new stream each round."""
        spec = self.spec
        rng = random.Random(f"{spec.name}/{self.seed}/{self.result.rounds}")
        self.engine = spec.make_engine(self.dynseq, self.meter)
        self.gen = spec.make_gen(rng, self.dynseq)
        for i in range(spec.size):
            op = self.gen.prefill_insert()
            try:
                self.engine.apply(op)
            except Exception as exc:
                self.result.failed += 1
                raise EngineFailed(f"{spec.name} prefill insert {i + 1}: {exc!r}") from exc
        self.result.issued += spec.size

    def measure(self, seconds: Optional[float], rounds: Optional[int] = None,
                pause: Callable = nullcontext, probe=None) -> Pass:
        """Run whole rounds, the first one on the engine ``prefill`` built,
        until ``enough``.  ``pause`` wraps the checks; ``probe``, a
        ``speed.SpeedProbe``, is timed PROBES_PER_ROUND times a round
        between updates.  An exception from the engine (its ``extract`` in
        a check included) ends the pass with that operation counted as
        failed."""
        spec, res = self.spec, self.result
        probe_every = max(1, spec.round_ops // PROBES_PER_ROUND)
        clock = time.perf_counter
        start = clock()
        while True:
            if res.rounds:
                gc.collect()   # the previous round's engine is cyclic garbage
                self.prefill()
            first = res.rounds == 0
            ticks0 = self.meter.ticks
            check_ticks = 0    # ticks of the checks' extract() calls, left out of res.ticks
            engine, gen, lat, marks, ratios = self.engine, self.gen, [], [], []
            for step in range(spec.round_ops):
                if probe is not None and step % probe_every == 0:
                    marks.append(step)
                    probe.sample()
                op = gen.steady_insert() if step % 2 == 0 else gen.delete_uniform()
                try:
                    t0 = clock()
                    engine.apply(op)
                    est = engine.query()
                    lat.append(clock() - t0)
                    if (step + 1) % CHECK_EVERY == 0:
                        with pause():
                            before = self.meter.ticks
                            ratios.append(spec.check(engine, est, gen.array))
                            check_ticks += self.meter.ticks - before
                except CheckFailed:
                    res.ops += 1
                    raise
                except Exception as exc:
                    res.failed += 1
                    raise EngineFailed(f"{spec.name} round {res.rounds + 1} step {step + 1}: "
                                       f"{exc!r}") from exc
                res.ops += 1
                if first:
                    res.outputs.append(est)
            res.checks += len(ratios)
            res.ratios.append(ratios)
            res.ticks += self.meter.ticks - ticks0 - check_ticks
            res.issued += spec.round_ops
            res.busy_s += sum(lat)
            res.spans.append(lat)
            res.latencies.append(lat)
            res.end_round(probe, marks)
            res.rounds += 1
            if enough(res, start, seconds, rounds):
                return res


# ---------------------------------------------------------------------------
# partition workload

PARTITION_N = 600
PARTITION_EPS = 0.8
PARTITION_PERMS = 8


@contextmanager
def timed_engine_updates(partitioner, latencies: list):
    """Time each update the partitioner issues to its engines, by wrapping
    the engine constructor it looks up in its own module."""
    make = partitioner.hierarchy_engine

    def timed_engine(*args, **kwargs):
        engine = make(*args, **kwargs)
        apply = engine.apply
        clock = time.perf_counter

        def timed_apply(op):
            t0 = clock()
            apply(op)
            latencies.append(clock() - t0)
        engine.apply = timed_apply
        return engine

    partitioner.hierarchy_engine = timed_engine
    try:
        yield
    finally:
        partitioner.hierarchy_engine = make


def partition_inputs(seed: int, round_no: int) -> list[list[int]]:
    """PARTITION_PERMS random permutations of 1..PARTITION_N for one round.
    One would do, but the approximation ratio and speed of one permutation
    vary from seed to seed; several keep seeds comparable."""
    rng = random.Random(f"partition/{seed}/{round_no}")
    return [rng.sample(range(1, PARTITION_N + 1), PARTITION_N)
            for _ in range(PARTITION_PERMS)]


def run_partition(dynseq, seed: int, seconds: Optional[float],
                  rounds: Optional[int] = None, time_updates: bool = False,
                  res: Optional[Pass] = None, probe=None) -> Pass:
    """Partition each round's inputs once, in whole rounds, until
    ``enough``, checking every partition.  ``probe``, a
    ``speed.SpeedProbe``, is timed before every call.  A call on which the
    package raises ends the pass, and its elements count as failed."""
    res = res if res is not None else Pass()
    res.units_per_round = PARTITION_N * PARTITION_PERMS
    meter = dynseq.WorkMeter()
    partitioner = dynseq.partitioner
    clock = time.perf_counter
    start = clock()
    while True:
        inputs = partition_inputs(seed, res.rounds)
        calls: list = []
        lat: list = []
        marks: list = []
        lat_marks: list = []
        ratios: list = []
        for k, values in enumerate(inputs):
            gc.collect()   # the previous call's engines are cyclic garbage
            if probe is not None:
                marks.append(k)
                lat_marks.append(len(lat))
                probe.sample()
            with (timed_engine_updates(partitioner, lat) if time_updates
                  else nullcontext()):
                t0 = clock()
                try:
                    part = partitioner.partition_dynamic(values, PARTITION_EPS, meter=meter)
                except Exception as exc:
                    res.failed += len(values)
                    raise EngineFailed(f"partition round {res.rounds + 1} input {k + 1}: "
                                       f"{exc!r}") from exc
                calls.append(clock() - t0)
            res.ops += len(values)
            got = (part.parts, part.directions)
            lower = checks.min_parts(values)
            err = checks.check_partition(values, *got)
            if err is None and len(part.parts) < lower:
                err = f"{len(part.parts)} parts, below the bound {lower}"
            if err:
                raise CheckFailed(f"partition round {res.rounds + 1} input {k + 1}: {err}")
            ratios.append(len(part.parts) / lower)
            if res.rounds == 0:
                res.outputs.append(got)
            res.issued += 4 * len(values)
        res.checks += len(ratios)
        res.ratios.append(ratios)
        res.busy_s += sum(calls)
        res.spans.append(calls)
        res.latencies.append(lat)
        res.end_round(probe, marks, lat_marks)
        res.rounds += 1
        if enough(res, start, seconds, rounds):
            break
    res.ticks = meter.ticks
    return res
