"""lossywalk benchmark: three figure-slice workloads, end to end and per layer.

    python3 perfbench/run.py --workload chern_loss --seed 0 --seconds 42 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Every iteration runs in a fresh interpreter (``iteration.py``) with a fresh
output directory and checkpoint paths under ``.perfbench_work/`` in the
checkout, which is removed again.  Iterations repeat until the next one
would overrun ``--seconds``; timings are medians over them.  ``setup_s``
also samples two set-up-only interpreters before each iteration, after one
uncounted warm-up that fills the bytecode and file caches.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics of the
traced ones plus ``trace.overhead_frac``.  Failed operations and
mismatched outputs are carried by ``failed``/``attempted`` and ``correct``
in the last line, and printed as ``error_frac`` and ``mismatch_frac``; the
run exits 1 when either is non-zero.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
POOLED = ("chern_loss", "winding_loss")
SETUP_SAMPLES_PER_ITERATION = 2
RUN_LIMIT_S = 170.0  # one run must end within 180 s


class BenchError(Exception):
    """The benchmark could not run or an iteration crashed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads(workload: str) -> int:
    # pooled workloads: nproc workers x 1 BLAS thread; realspace is serial
    return 1 if workload in POOLED else nproc()


def _child_env(workload: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    # set-up is timed with warm bytecode caches, as an installed package runs
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    threads = str(blas_threads(workload))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def load_spec() -> dict:
    """Metric names and units, from the benchmark definition at the checkout root."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def iterate(workload: str, seed: int, work_dir: str, *, trace: int = 0,
            setup_only: bool = False, timeout: float = RUN_LIMIT_S) -> dict:
    """One iteration in a fresh interpreter and a fresh work directory."""
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=work_dir)
    try:
        argv = [sys.executable, os.path.join(HERE, "iteration.py"), "--workload", workload,
                "--seed", str(seed), "--workdir", workdir, "--workers", str(nproc()),
                "--trace", str(trace)]
        if setup_only:
            argv.append("--setup-only")
        spawned_at = time.perf_counter()
        proc = subprocess.Popen(argv + ["--spawned-at", repr(spawned_at)], env=_child_env(workload),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the iteration and its pool workers
            proc.communicate()
            raise BenchError(f"{workload} iteration exceeded {timeout:.0f} s") from None
        if proc.returncode != 0:
            raise BenchError(f"{workload} iteration exited {proc.returncode}:\n{err[-3000:]}")
        with open(os.path.join(workdir, "result.json")) as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(workload: str, seed: int, seconds: float, trace: int, work_dir: str) -> dict:
    """Repeat iterations for ``seconds``; return per-metric samples and counts."""
    started = time.perf_counter()

    def remaining() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - started)

    iterate(workload, seed, work_dir, setup_only=True, timeout=remaining())  # warm-up, not counted
    setups, runs, durations = [], [], []
    t0 = time.perf_counter()
    min_runs = 2 if trace else 1
    while True:
        t = time.perf_counter()
        # set-up samples spread over the whole run, not bunched at its start
        setups += [iterate(workload, seed, work_dir, setup_only=True, timeout=remaining())["setup_s"]
                   for _ in range(SETUP_SAMPLES_PER_ITERATION)]
        traced = trace and len(runs) % 2 == 1
        runs.append(iterate(workload, seed, work_dir, trace=int(traced), timeout=remaining()))
        durations.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - t0
        if len(runs) >= min_runs and elapsed + statistics.median(durations) > seconds:
            break
    untraced = [r for r in runs if "layers" not in r]
    return {"setups": setups + [r["setup_s"] for r in untraced], "runs": runs,
            "untraced": untraced, "traced": [r for r in runs if "layers" in r]}


def summarize(m: dict, trace: int, spec: dict) -> tuple[dict, dict]:
    """(result line, extra figures) from ``measure`` output."""
    runs = m["runs"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    compared = sum(r["compared"] for r in runs)
    mismatched = sum(r["mismatched"] for r in runs)
    samples = {"setup_s": m["setups"]}
    for name in ("solve_s", "cpu_s", "peak_rss_mb"):
        samples[name] = [r[name] for r in m["untraced"]]
    if trace:
        metrics = {}
        for name, unit in ((x["name"], x["unit"]) for x in spec["per_layer"]):
            if name == "trace.overhead_frac":
                traced = statistics.median(r["solve_s"] for r in m["traced"])
                value = traced / statistics.median(samples["solve_s"]) - 1.0
            else:
                value = statistics.median(r["layers"][name] for r in m["traced"])
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {x["name"]: {"value": statistics.median(samples[x["name"]]), "unit": x["unit"]}
                   for x in spec["end_to_end"]}
    extra = {
        "samples": samples,
        "error_frac": failed / attempted if attempted else 1.0,
        "mismatch_frac": mismatched / compared if compared else 1.0,
        "mismatches": sorted({s for r in runs for s in r["mismatches"]})[:10],
    }
    line = {"correct": mismatched == 0 and compared > 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}
    return line, extra


def environment(workloads: list[str]) -> dict:
    """What the figures were measured on."""
    import platform

    import numpy as np

    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    with open(os.path.join(ROOT, "src", "lossywalk", "_version.py")) as fh:
        version = re.search(r"__version__\s*=\s*['\"]([^'\"]+)", fh.read())
    return {
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_threads": {w: blas_threads(w) for w in workloads},
        "cpu_count": os.cpu_count(), "affinity": nproc(), "workers": nproc(),
        "lossywalk": version.group(1) if version else None, "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout; None when it is not a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _print_figures(workload: str, line: dict, extra: dict) -> None:
    for name, metric in line["metrics"].items():
        vals = extra["samples"].get(name)
        spread = ""
        if vals and len(vals) > 1:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"  (median of {len(vals)}, q1 {q1:.4g}, q3 {q3:.4g})"
        print(f"{workload:13s} {name:48s} {metric['value']:12.6g} {metric['unit']}{spread}")
    print(f"{workload:13s} {'error_frac':48s} {extra['error_frac']:12.6g} 1  "
          f"({line['failed']} of {line['attempted']} operations)")
    print(f"{workload:13s} {'mismatch_frac':48s} {extra['mismatch_frac']:12.6g} 1")
    for s in extra["mismatches"]:
        print(f"{workload:13s}   mismatch: {s}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lossywalk", "__init__.py")):
        print(f"error: no lossywalk sources under {ROOT}/src; run from a repository checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    known = [w["name"] for w in spec["workloads"]]
    if args.workload not in known + ["all"]:
        ap.error(f"--workload must be one of {', '.join(known)} or all")
    names = known if args.workload == "all" else [args.workload]
    os.makedirs(WORK_ROOT, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    print("env " + json.dumps(environment(names), default=str))
    ok, line = True, None
    try:
        for workload in names:
            m = measure(workload, args.seed, seconds, args.trace, run_dir)
            line, extra = summarize(m, args.trace, spec)
            _print_figures(workload, line, extra)
            ok = ok and line["failed"] == 0 and line["correct"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)
    if args.workload != "all":
        print(json.dumps(line))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
