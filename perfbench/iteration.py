"""One benchmark iteration in a fresh interpreter: set up, solve, check.

Started by ``run.py`` with ``--spawned-at`` set to the parent's
``time.perf_counter()`` just before it started this interpreter.  On Linux
that clock is CLOCK_MONOTONIC, shared by all processes, so ``setup_s`` is
the time from interpreter start to the first workload call: imports plus
input generation.  The result is one JSON object written to
``<workdir>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _cpu_and_rss() -> tuple[float, float]:
    """CPU seconds of this process and its reaped children, and the larger peak RSS in MB."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--workers", type=int, default=len(os.sched_getaffinity(0)))
    ap.add_argument("--spawned-at", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--dump", default=None, help="also write the outputs to this JSON file")
    ap.add_argument("--no-check", action="store_true")
    args = ap.parse_args()

    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    result = {"workload": args.workload, "seed": args.seed, "inputs": inputs}
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer(os.path.join(args.workdir, "spans"))
        os.makedirs(tracer.spill_dir)
        tracer.install()
    t0 = time.perf_counter()
    if args.spawned_at is not None:
        result["setup_s"] = t0 - args.spawned_at
    if not args.setup_only:
        cpu0, _ = _cpu_and_rss()
        outcome = workloads.solve(args.workload, inputs, os.path.join(args.workdir, "out"),
                                  args.workers)
        t1 = time.perf_counter()
        cpu1, rss = _cpu_and_rss()
        result.update(solve_s=t1 - t0, cpu_s=cpu1 - cpu0, peak_rss_mb=rss,
                      attempted=outcome.attempted, failed=outcome.failed)
        outputs = workloads.read_outputs(outcome)
        if args.dump:
            with open(args.dump, "w") as fh:
                json.dump(outputs, fh)
        if not args.no_check:
            import reference

            report = reference.check(args.workload, args.seed, outputs)
            result.update(compared=report.compared, mismatched=report.mismatched,
                          mismatches=report.mismatches[:10])
        if tracer is not None:
            result["layers"] = spans.layer_metrics(tracer.collect(), args.workers, tracer.root_pid,
                                                   list(outputs.get("tables", {}).values()))
    with open(os.path.join(args.workdir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
