"""Command-line surface.

Subcommands: lis-dyn, lis-plus, dtm-dyn, dtm-seq, partition, packing,
gridpack, oracle, bench.  Audit modes replay an independent oracle next to
the engine and exit nonzero on any breach, so injected faults surface as a
distinct exit code.

Exit codes: 0 ok, 2 usage, 3 input, 4 audit failure, 5 oracle-scale guard.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Optional, Sequence

from .array_packing import build_array_packing
from .classic import OracleScaleError, brute_lis, lis_length
from .dynamic_dtm import DtmDynamic, sequential_dtm
from .dynamic_lis import hierarchy_engine, naive_engine, sqrt_engine
from .grid_packing import build_grid_packing, random_cell_weights, table_score
from .indexed_sequence import INSERT, DuplicateValueError, PositionError
from .lis_plus import InsertOnlyError, LisPlus
from .partitioner import partition_baseline, partition_dynamic, partition_is_valid
from .streams import (KINDS, QUERY, StreamError, generate_stream, parse_stream,
                      serialize_stream)
from .work import WorkMeter

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_AUDIT = 4
EXIT_SCALE = 5


class AuditError(RuntimeError):
    pass


def _default_seed() -> int:
    return int(os.environ.get("DYNSEQ_SEED", "0"))


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise StreamError(f"cannot read {path}: {exc}") from exc


def _read_array(path: str) -> list[int]:
    text = _read_text(path)
    try:
        values = [int(tok) for tok in text.split()]
    except ValueError as exc:
        raise StreamError(f"{path}: array files hold whitespace-separated integers") from exc
    if len(set(values)) != len(values):
        raise StreamError(f"{path}: values must be pairwise distinct")
    return values


# ---------------------------------------------------------------------------
# engines and the replay driver

# name -> (epsilon, meter, seed) -> engine, for the commands that pick one
ENGINES = {
    "naive": lambda eps, meter, seed: naive_engine(meter=meter),
    "sqrt": lambda eps, meter, seed: sqrt_engine(eps, meter=meter, seed=seed),
    "hier": lambda eps, meter, seed: hierarchy_engine(eps, meter=meter),
    "dtm": lambda eps, meter, seed: DtmDynamic(eps, meter=meter, seed=seed),
    "lisplus": lambda eps, meter, seed: LisPlus(meter=meter, seed=seed),
}


def replay(engine, items, on_query) -> None:
    """Apply each update to ``engine`` and to a shadow list of the array;
    hand each query to ``on_query(step, shadow)``, where ``step`` counts
    the updates so far."""
    shadow: list[int] = []
    step = 0
    for item in items:
        if item == QUERY:
            on_query(step, shadow)
            continue
        engine.apply(item)
        if item.kind == INSERT:
            shadow.insert(item.position - 1, item.value)
        else:
            shadow.pop(item.position - 1)
        step += 1


def _lis_audit(ratio_bound: Optional[float]):
    """A lower bound on the LIS, within ``ratio_bound`` of it if one is
    given, with a witness of that length drawn from the array."""
    def audit(engine, est, oracle, step, shadow) -> None:
        if est > oracle:
            raise AuditError(f"estimate {est} exceeds oracle {oracle} at step {step}")
        if ratio_bound is not None and oracle > ratio_bound * max(est, 1) + 1e-9:
            raise AuditError(f"ratio {oracle}/{est} above {ratio_bound} at step {step}")
        witness = engine.extract()
        if len(witness) != est:
            raise AuditError(f"witness length {len(witness)} != estimate {est}")
        prev = None
        for pos, val in witness:
            if not 1 <= pos <= len(shadow) or shadow[pos - 1] != val:
                raise AuditError(f"witness element ({pos}, {val}) not in array")
            if prev is not None and (pos <= prev[0] or val <= prev[1]):
                raise AuditError("witness not strictly increasing")
            prev = (pos, val)
    return audit


def _lis_plus_audit(engine, est, oracle, step, shadow) -> None:
    """A lower bound on the LIS within a factor 3 log2(n) + 3 of it."""
    n = len(shadow)
    factor = 3 * int(math.log2(n)) + 3 if n > 1 else 1
    if est > oracle:
        raise AuditError(f"estimate {est} exceeds oracle {oracle}")
    if oracle > est * factor:
        raise AuditError(f"oracle {oracle} above {est} * {factor}")


def _dtm_audit(epsilon: float):
    """An upper bound on the DTM within a factor 1 + eps of it."""
    def audit(engine, rep, exact, step, shadow) -> None:
        if rep < exact:
            raise AuditError(f"reported {rep} below exact {exact}")
        if rep > (1 + epsilon) * exact + 1e-9:
            raise AuditError(f"reported {rep} above bound for exact {exact}")
    return audit


def _dtm_oracle(shadow: list[int]) -> int:
    return len(shadow) - lis_length(shadow)


def _replay_stream(args, out, engine, audit, oracle=lis_length) -> int:
    """Replay ``--stream`` through ``engine`` and print each estimate; under
    ``--audit`` print the oracle's value next to it, then hold the estimate
    to ``audit(engine, estimate, oracle_value, step, shadow)``."""
    items = parse_stream(_read_text(args.stream))

    def on_query(step: int, shadow: list[int]) -> None:
        est = engine.query()
        if not args.audit:
            print(f"step={step} estimate={est}", file=out)
            return
        exact = oracle(shadow)
        print(f"step={step} estimate={est} oracle={exact}", file=out)
        audit(engine, est, exact, step, shadow)

    replay(engine, items, on_query)
    return EXIT_OK


def cmd_lis_dyn(args, out) -> int:
    engine = ENGINES[args.engine](args.epsilon, None, args.seed)
    if args.fault == "skip-segment":
        if args.engine != "hier":
            raise StreamError("--fault skip-segment applies to the hier engine")
        engine.ctx.fault_skip_segment = True
    # hier is a constant-factor engine: audited for soundness only
    bound = {"naive": 1.0, "sqrt": 1.0 + args.epsilon}.get(args.engine)
    return _replay_stream(args, out, engine, _lis_audit(bound))


def cmd_lis_plus(args, out) -> int:
    return _replay_stream(args, out, LisPlus(seed=args.seed), _lis_plus_audit)


def cmd_dtm_dyn(args, out) -> int:
    return _replay_stream(args, out, DtmDynamic(args.epsilon, seed=args.seed),
                          _dtm_audit(args.epsilon), oracle=_dtm_oracle)


def cmd_dtm_seq(args, out) -> int:
    values = _read_array(args.array)
    print(f"DTM {sequential_dtm(values)}", file=out)
    return EXIT_OK


def cmd_partition(args, out) -> int:
    values = _read_array(args.input)
    if args.engine == "baseline":
        part = partition_baseline(values)
    else:
        part = partition_dynamic(values, args.epsilon)
    if not partition_is_valid(values, part):
        raise AuditError("partitioner produced an invalid partition")
    # one line per part, so zero parts write an empty file
    text = "".join(direction + " " + " ".join(str(i) for i in idxs) + "\n"
                   for idxs, direction in zip(part.parts, part.directions))
    if args.output == "-":
        out.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(f"parts={len(part)} n={len(values)}", file=out)
    return EXIT_OK


def cmd_packing(args, out) -> int:
    p = build_array_packing(args.m, args.kappa, family2=args.fault != "no-family2")
    print(f"m={p.m} kappa={p.kappa} d={p.d} segments={len(p.segments)} "
          f"max_coverage={p.max_coverage()}", file=out)
    if args.dump:
        for seg in p.segments:
            print(f"segment {seg.lo} {seg.hi}", file=out)
        hist: dict[int, int] = {}
        for c in p.coverage:
            hist[c] = hist.get(c, 0) + 1
        for cov in sorted(hist):
            print(f"coverage {cov} cells={hist[cov]}", file=out)
    return EXIT_OK


def cmd_gridpack(args, out) -> int:
    import random as _random

    g = build_grid_packing(args.m, args.kappa, family2=args.fault != "no-family2")
    rng = _random.Random(f"gridpack:{args.seed}")
    m = args.m
    worst = 1.0
    total_ratio = 0.0
    counted = 0
    for _ in range(args.trials):
        weights = random_cell_weights(m, rng)
        table, _path = table_score(weights)
        scores = g.all_scores(weights)
        chain, _ids = g.chain_dp(scores)
        if chain > table + 1e-9:
            raise AuditError(f"chain score {chain} above table score {table}")
        if table > 0 and chain > 0:
            ratio = table / chain
            worst = max(worst, ratio)
            total_ratio += ratio
            counted += 1
        elif table > 0 and chain == 0:
            raise AuditError("zero chain score against a positive table score")
    dp = g.line_packing.d_prime
    bound = 2 * (2 * math.log(m, dp) + 2)
    mean = total_ratio / counted if counted else 1.0
    print(f"m={m} kappa={args.kappa} trials={args.trials} segments={len(g.segments)} "
          f"alpha={g.max_coverage()} beta_worst={worst:.4f} beta_mean={mean:.4f} "
          f"beta_bound={bound:.4f}", file=out)
    if worst > bound:
        raise AuditError(f"worst score ratio {worst:.4f} above bound {bound:.4f}")
    return EXIT_OK


def cmd_oracle(args, out) -> int:
    values = _read_array(args.array)
    l = brute_lis(values)
    print(f"LIS {l} DTM {len(values) - l}", file=out)
    return EXIT_OK


def _percentile(sorted_vals, q: float):
    i = min(len(sorted_vals) - 1, int(q * (len(sorted_vals) - 1) + 0.5))
    return sorted_vals[i]


def cmd_bench(args, out) -> int:
    for name in args.engines.split(","):
        if name not in ENGINES:
            raise StreamError(f"unknown engine {name!r}")
        for kind in args.kinds.split(","):
            if kind not in KINDS:
                raise StreamError(f"unknown stream kind {kind!r}")
            for n in args.sizes:
                print(_bench_record(args, name, kind, n), file=out)
    return EXIT_OK


def _bench_record(args, name: str, kind: str, n: int) -> str:
    """One engine on one stream of n updates, each followed by a query: the
    ticks of each update with its query, and the worst estimate-to-oracle
    ratio over every (n/50)-th step."""
    meter = WorkMeter()
    engine = ENGINES[name](args.epsilon, meter, args.seed)
    items = generate_stream(kind, n, args.seed, insert_only=name == "lisplus",
                            query_every=1)
    check_every = max(1, n // 50)
    marks = [meter.ticks]   # after each query; only one update ticks in between
    ratios = [1.0]

    def on_query(step: int, shadow: list[int]) -> None:
        est = engine.query()
        marks.append(meter.ticks)
        if est > 0 and (step - 1) % check_every == 0:
            if name == "dtm":
                ratios.append(est / max(_dtm_oracle(shadow), 1))
            else:
                ratios.append(lis_length(shadow) / est)

    replay(engine, items, on_query)
    per_step = sorted(b - a for a, b in zip(marks, marks[1:]))
    touched = getattr(getattr(engine, "ctx", None), "touched_segments", 0)
    return (f"bench engine={name} kind={kind} n={n} seed={args.seed} "
            f"epsilon={args.epsilon} steps={len(per_step)} "
            f"work_p50={_percentile(per_step, 0.50)} "
            f"work_p95={_percentile(per_step, 0.95)} "
            f"work_max={per_step[-1]} "
            f"touched={touched} ratio_max={max(ratios):.4f}")


# ---------------------------------------------------------------------------
# parameter types: argparse turns their ValueError into a usage error (exit 2)


def _checked(parse, ok, name: str):
    def convert(text: str):
        value = parse(text)
        if not ok(value):
            raise ValueError(text)
        return value
    convert.__name__ = name   # argparse says "invalid <name> value"
    return convert


_FRACTION = _checked(float, lambda x: 0.0 < x < 1.0, "number in (0, 1)")
_POSITIVE = _checked(float, lambda x: 0.0 < x < math.inf, "positive number")
_COUNT = _checked(int, lambda n: n > 0, "positive integer")
_COUNTS = _checked(lambda text: [int(tok) for tok in text.split(",")],
                   lambda ns: min(ns) > 0, "list of positive integers")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dynseq",
                                 description="dynamic LIS / DTM toolbox")
    sub = ap.add_subparsers(dest="command", required=True)
    seed_default = _default_seed()

    def add_seed(p):
        p.add_argument("--seed", type=int, default=seed_default,
                       help="RNG seed (default: env DYNSEQ_SEED or 0)")

    p = sub.add_parser("lis-dyn", help="dynamic LIS over an operation stream")
    p.add_argument("--engine", choices=["naive", "sqrt", "hier"], required=True)
    p.add_argument("--epsilon", type=_FRACTION, default=0.5)
    p.add_argument("--stream", required=True)
    p.add_argument("--audit", action="store_true",
                   help="cross-check estimates and witnesses per query")
    p.add_argument("--fault", choices=["none", "skip-segment"], default="none",
                   help="fault-injection hook for mutation testing")
    add_seed(p)
    p.set_defaults(func=cmd_lis_dyn)

    p = sub.add_parser("lis-plus", help="insert-only LIS over a stream")
    p.add_argument("--stream", required=True)
    p.add_argument("--audit", action="store_true")
    add_seed(p)
    p.set_defaults(func=cmd_lis_plus)

    p = sub.add_parser("dtm-dyn", help="dynamic distance to monotonicity")
    p.add_argument("--epsilon", type=_POSITIVE, default=0.1)
    p.add_argument("--stream", required=True)
    p.add_argument("--audit", action="store_true")
    add_seed(p)
    p.set_defaults(func=cmd_dtm_dyn)

    p = sub.add_parser("dtm-seq", help="sequential distance to monotonicity")
    p.add_argument("--array", required=True)
    p.set_defaults(func=cmd_dtm_seq)

    p = sub.add_parser("partition", help="monotone partitioning")
    p.add_argument("--engine", choices=["dynamic", "baseline"], required=True)
    p.add_argument("--epsilon", type=_FRACTION, default=0.8)
    p.add_argument("--input", required=True)
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("packing", help="inspect an array packing")
    p.add_argument("--m", type=_COUNT, required=True)
    p.add_argument("--kappa", type=_FRACTION, required=True)
    p.add_argument("--dump", action="store_true")
    p.add_argument("--fault", choices=["none", "no-family2"], default="none")
    p.set_defaults(func=cmd_packing)

    p = sub.add_parser("gridpack", help="measure grid-packing quality")
    p.add_argument("--m", type=_COUNT, required=True)
    p.add_argument("--kappa", type=_FRACTION, required=True)
    p.add_argument("--trials", type=_COUNT, default=100)
    p.add_argument("--fault", choices=["none", "no-family2"], default="none")
    add_seed(p)
    p.set_defaults(func=cmd_gridpack)

    p = sub.add_parser("oracle", help="exact LIS/DTM of an array file")
    p.add_argument("--array", required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="work-unit benchmark harness")
    p.add_argument("--engines", required=True,
                   help="comma list: naive,sqrt,hier,dtm,lisplus")
    p.add_argument("--sizes", type=_COUNTS, required=True,
                   help="comma list of op counts")
    p.add_argument("--kinds", default="uniform,sorted,reverse,sawtooth")
    p.add_argument("--epsilon", type=_FRACTION, default=0.5)
    add_seed(p)
    p.set_defaults(func=cmd_bench)
    return ap


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except OracleScaleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCALE
    except AuditError as exc:
        print(f"audit failure: {exc}", file=sys.stderr)
        return EXIT_AUDIT
    except (StreamError, PositionError, DuplicateValueError,
            InsertOnlyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
