"""Reference figures for README.md: the exact baselines on the benchmark's inputs.

    python3 perfbench/reference.py --seed 1 --seconds 15

Runs ``naive_engine`` (exact, patience sort per query) on the ``lis-uniform``
and ``hier-hotspot`` operation streams, and ``partition_baseline`` (exact
greedy) and one ``partition_dynamic`` call on the ``partition`` input.
Prints one line per figure, timings scaled by ``speed.SpeedProbe`` as
in the benchmark.  Not part of the measured benchmark.
"""

import argparse
import dataclasses
import time

import run
import workloads
from speed import SpeedProbe


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    args = ap.parse_args()
    probe = SpeedProbe()
    dynseq = run.load_package()

    for name in ("lis-uniform", "hier-hotspot"):
        spec = dataclasses.replace(workloads.UPDATE_SPECS[name],
                                   make_engine=lambda ds, meter: ds.naive_engine(meter=meter))
        runner = workloads.UpdateRun(spec, dynseq, args.seed)
        runner.prefill()
        res = runner.measure(args.seconds, probe=probe)
        print(f"naive_engine on {name}: {res.ops_per_s():.0f} ops/s, "
              f"p50 {res.latency(0.50) * 1e6:.0f} us, "
              f"p99 {res.latency(0.99) * 1e6:.0f} us over {res.rounds} rounds")

    values = workloads.partition_inputs(args.seed, 0)[0]
    for label, fn in (("partition_baseline", dynseq.partition_baseline),
                      ("partition_dynamic", lambda v: dynseq.partition_dynamic(
                          v, workloads.PARTITION_EPS))):
        t0 = time.perf_counter()
        part = fn(values)
        print(f"{label} on partition (n={len(values)}): "
              f"{time.perf_counter() - t0:.2f} s, {len(part.parts)} parts")


if __name__ == "__main__":
    main()
