"""Wall-clock benchmark of the dynseq engines, one workload per process.

    python3 perfbench/run.py --workload lis-uniform --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the process first runs the
workload untraced for half the time, then replays its first round (a
fixed count of operations per workload) on a fresh engine with every public
function of the package wrapped by ``spans.Tracer``, checks that both
passes produced the same outputs, and reports the per-layer metrics: totals
over that one round, so they do not grow with the machine's speed.  The
end-to-end timings are scaled to one machine speed by ``speed.SpeedProbe``
(see speed.py); the per-layer ones are not.  A detailed record of each run
is written to ``perfbench/results/``.  See README.md for the workloads and
metrics.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402  (set-up is timed from the script's first line)
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import NOMINAL_S, SpeedProbe  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
WORKLOADS = ("lis-uniform", "dtm-nearsorted", "partition", "hier-hotspot")

APPLY = {"lis-uniform": "dynamic_lis.SqrtLis.apply",
         "dtm-nearsorted": "dynamic_dtm.DtmDynamic.apply",
         "hier-hotspot": "dynamic_lis.HierarchyLis.apply",
         "partition": "dynamic_lis.HierarchyLis.apply"}

# per-layer metric -> (traced name, field); a bare module name sums the module
LAYER_METRICS = {
    "block_scheduler.preprocess_step.calls": ("block_scheduler.GeneratorBlock.preprocess_step", "calls"),
    "block_scheduler.preprocess_step.self_s": ("block_scheduler.GeneratorBlock.preprocess_step", "self_s"),
    "block_scheduler.preprocess_step.max_ms": ("block_scheduler.GeneratorBlock.preprocess_step", "max_ms"),
    "block_scheduler.WrappedEstimator.apply.self_s": ("block_scheduler.WrappedEstimator.apply", "self_s"),
    "block_scheduler.PersistentMirror.apply.self_s": ("block_scheduler.PersistentMirror.apply", "self_s"),
    "exact_lis.ExactDynamicLis.insert.self_s": ("exact_lis.ExactDynamicLis.insert", "self_s"),
    "exact_lis.ExactDynamicLis.delete.self_s": ("exact_lis.ExactDynamicLis.delete", "self_s"),
    "indexed_sequence.self_s": ("indexed_sequence", "self_s"),
    "indexed_sequence.calls": ("indexed_sequence", "calls"),
    "dynamic_dtm.InversionMatching.exact_dtm.calls": ("dynamic_dtm.InversionMatching.exact_dtm", "calls"),
    "dynamic_dtm.InversionMatching.exact_dtm.self_s": ("dynamic_dtm.InversionMatching.exact_dtm", "self_s"),
    "dynamic_dtm.InversionMatching.exact_dtm.max_ms": ("dynamic_dtm.InversionMatching.exact_dtm", "max_ms"),
    "dynamic_dtm.InversionMatching.apply.self_s": ("dynamic_dtm.InversionMatching.apply", "self_s"),
    "classic.weighted_his.self_s": ("classic.weighted_his", "self_s"),
    "dynamic_lis.HierarchyLis.apply.self_s": ("dynamic_lis.HierarchyLis.apply", "self_s"),
    "dynamic_lis.KeyedListMirror.apply.self_s": ("dynamic_lis.KeyedListMirror.apply", "self_s"),
    "dynamic_lis.KeyedNaive.insert.self_s": ("dynamic_lis.KeyedNaive.insert", "self_s"),
    "dynamic_lis.KeyedNaive.delete.self_s": ("dynamic_lis.KeyedNaive.delete", "self_s"),
    "dynamic_lis.GridBlock.query.calls": ("dynamic_lis.GridBlock.query", "calls"),
    "dynamic_lis.GridBlock.query.self_s": ("dynamic_lis.GridBlock.query", "self_s"),
    "grid_packing.GridPacking.chain_dp.self_s": ("grid_packing.GridPacking.chain_dp", "self_s"),
    "dynamic_lis.KeyedNaive.query.self_s": ("dynamic_lis.KeyedNaive.query", "self_s"),
    "classic.lis_length.self_s": ("classic.lis_length", "self_s"),
    "grid_packing.GridPacking.init.calls": ("grid_packing.GridPacking.init", "calls"),
    "grid_packing.GridPacking.init.self_s": ("grid_packing.GridPacking.init", "self_s"),
    "array_packing.ArrayPacking.init.calls": ("array_packing.ArrayPacking.init", "calls"),
    "partitioner.partition_dynamic.self_s": ("partitioner.partition_dynamic", "self_s"),
    "dynamic_lis.HierarchyLis.extract.self_s": ("dynamic_lis.HierarchyLis.extract", "self_s"),
    "dynamic_lis.SqrtLis.apply.self_s": ("dynamic_lis.SqrtLis.apply", "self_s"),
    "dynamic_dtm.DtmDynamic.apply.self_s": ("dynamic_dtm.DtmDynamic.apply", "self_s"),
    "dynamic_lis.SqrtLis.apply.calls": ("dynamic_lis.SqrtLis.apply", "calls"),
    "dynamic_dtm.DtmDynamic.apply.calls": ("dynamic_dtm.DtmDynamic.apply", "calls"),
    "dynamic_lis.HierarchyLis.apply.calls": ("dynamic_lis.HierarchyLis.apply", "calls"),
}
UNITS = {"calls": "count", "self_s": "s", "max_ms": "ms"}


def load_package():
    """Import dynseq from this checkout's src/, and nowhere else."""
    init = SRC / "dynseq" / "__init__.py"
    if not init.is_file():
        sys.exit(f"run.py: package source {init} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import dynseq
    if Path(dynseq.__file__).resolve() != init.resolve():
        sys.exit(f"run.py: imported {dynseq.__file__}, expected {init}")
    return dynseq


def run_pass(dynseq, workload: str, seed: int, res, seconds=None, rounds=None, tracer=None,
             probe=None):
    """One pass over a workload into the Pass ``res``, which keeps what was
    done if the pass raises; returns the clock at the first measured
    operation.  ``rounds`` runs that many rounds instead of timing; a
    SpeedProbe ``probe`` scales the pass's timings."""
    if workload == "partition":
        ready = time.perf_counter()
        workloads.run_partition(dynseq, seed, seconds, rounds,
                                time_updates=tracer is None, res=res, probe=probe)
        return ready
    run = workloads.UpdateRun(workloads.UPDATE_SPECS[workload], dynseq, seed, res)
    run.prefill()
    ready = time.perf_counter()
    run.measure(seconds, rounds, pause=tracer.paused if tracer else nullcontext, probe=probe)
    return ready


def end_to_end(res, setup_s: float, probe: SpeedProbe) -> dict:
    """Timings pool every round's scaled operations (see workloads.py);
    ``setup_s`` is one cold set-up, less the probe's construction, scaled
    by the first round's median probe time.  Peak memory leaves out the
    probe's structure."""
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": ((setup_s - probe.build_s) * NOMINAL_S / res.probe_s[0], "s"),
        "ops_per_s": (res.ops_per_s(), "ops/s"),
        "op_p50_us": (res.latency(0.50) * 1e6, "us"),
        "op_p99_us": (res.latency(0.99) * 1e6, "us"),
        "peak_rss_mb": (peak_mb - probe.resident_mb, "MB"),
        "approx_ratio": (res.approx_ratio, "ratio"),
    }


def per_layer(workload: str, base, traced, tracer: Tracer) -> tuple[dict, list]:
    """Per-layer metrics plus the list of failed cross-checks."""
    out = {}
    for metric, (name, field) in LAYER_METRICS.items():
        value = tracer.get(name, field) if "." in name else tracer.module_total(name, field)
        out[metric] = (value, UNITS[field])
    base_rate = base.ops / base.busy_s
    traced_rate = traced.ops / traced.busy_s
    out["work.ticks"] = (traced.ticks, "count")    # over the one traced round
    out["work.ticks_per_ms"] = (base.ticks / (base.busy_s * 1e3), "count/ms")
    out["trace.ops_per_s"] = (traced_rate, "ops/s")
    out["trace.overhead"] = (base_rate / traced_rate, "ratio")
    problems = []
    if traced.outputs != base.outputs:
        problems.append("traced outputs differ from untraced outputs")
    if traced.first_ratio != base.first_ratio:
        problems.append("traced approx_ratio differs from the untraced first round's")
    calls = tracer.get(APPLY[workload], "calls")
    if calls != traced.issued:
        problems.append(f"{APPLY[workload]} called {calls} times, {traced.issued} updates issued")
    return out, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    # built on a fresh heap, so that its resident size is all its own
    probe = None if args.trace else SpeedProbe()
    dynseq = load_package()

    problems: list[str] = []     # failed checks
    errors: list[str] = []       # exceptions raised by the package
    detail: dict = {}
    metrics: dict = {}
    base = res = workloads.Pass()
    try:
        if not args.trace:
            ready = run_pass(dynseq, args.workload, args.seed, res, seconds=args.seconds,
                             probe=probe)
            metrics = end_to_end(res, ready - _T0, probe)
        else:
            run_pass(dynseq, args.workload, args.seed, base, seconds=args.seconds / 2)
            res = workloads.Pass()
            tracer = Tracer()
            tracer.install(dynseq)
            try:
                run_pass(dynseq, args.workload, args.seed, res, rounds=1, tracer=tracer)
            finally:
                tracer.uninstall()
            metrics, problems = per_layer(args.workload, base, res, tracer)
            detail["spans"] = tracer.table()
    except workloads.CheckFailed as exc:
        problems.append(str(exc))
    except workloads.EngineFailed as exc:
        errors.append(str(exc))
        traceback.print_exception(exc.__cause__, file=sys.stderr)

    passes = [base] if res is base else [base, res]
    result = {
        "correct": not problems,
        "attempted": sum(p.ops + p.failed for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, problems=problems, errors=errors, checks=res.checks,
                  rounds=res.rounds, round_busy_s=[sum(s) for s in res.spans],
                  round_probe_ms=[t * 1e3 for t in res.probe_s],
                  probe_mb=probe.resident_mb if probe else None, **detail)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    for e in errors:
        print(f"ENGINE RAISED: {e}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not (problems or errors) else 1


if __name__ == "__main__":
    sys.exit(main())
