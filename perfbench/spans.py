"""Span tracer for the traced benchmark run, and the per-layer metrics it yields.

The tracer wraps public ``lossywalk`` functions at the module attribute where
their caller looks them up (the modules import names directly, so the
builder called by ``band_spectrum_2d`` is ``invariants.u2d_k``, not
``walks.u2d_k``).  A span is (id, parent id, name, start, end, count, pid);
``count`` is the work the call did (matrices built or diagonalised, cells in
a row, bytes written).  Span names use the module that defines the function,
so one function wrapped at two lookup sites is one name.

Sweeps run their rows in forked pool workers.  A worker inherits the
tracer and its open-span stack, so its first span's parent is the sweep span
of the parent process; it appends its spans to ``spill_dir`` whenever its own
stack empties (a worker exits through ``os._exit`` and runs no exit hooks).
``collect`` merges the parent's in-memory spans with every spill file.

Self time of a span is its duration minus the union of its children's
intervals (children in several workers overlap in time).
"""

from __future__ import annotations

import functools
import glob
import importlib
import json
import os
import time
from collections import defaultdict

import numpy as np


def _matrices_out(args, kwargs, result) -> int:
    return int(np.size(result) // 4)


def _matrices_in(args, kwargs, result) -> int:
    return int(np.size(args[0]) // 4)


def _cells_in_row(args, kwargs, result) -> int:
    return len(result[0])


def _bytes_at(pos: int, name: str):
    def count(args, kwargs, result) -> int:
        path = kwargs[name] if name in kwargs else args[pos]
        return os.path.getsize(path)
    return count


# (lookup module, attribute, span name, work counter)
PATCHES = [
    ("lossywalk.cli", "cli_dispatch", "cli.cli_dispatch", None),
    ("lossywalk.cli", "sweep_chern_vs_gamma", "sweeps.sweep_chern_vs_gamma", None),
    ("lossywalk.cli", "sweep_winding_vs_gamma", "sweeps.sweep_winding_vs_gamma", None),
    ("lossywalk.cli", "build_chain_operator", "lattice.build_chain_operator", None),
    ("lossywalk.cli", "chain_spectrum", "lattice.chain_spectrum", None),
    ("lossywalk.cli", "detect_edge_states", "lattice.detect_edge_states", None),
    ("lossywalk.cli", "strip_band_structure", "lattice.strip_band_structure", None),
    ("lossywalk.cli", "write_table", "tables.write_table", _bytes_at(1, "path")),
    ("lossywalk.cli", "write_spectrum_csv", "tables.write_spectrum_csv", _bytes_at(0, "path")),
    ("lossywalk.cli", "emit_plot_script", "tables.emit_plot_script", _bytes_at(1, "path")),
    ("lossywalk.sweeps", "_chern_gamma_row", "sweeps.row", _cells_in_row),
    ("lossywalk.sweeps", "_winding_gamma_row", "sweeps.row", _cells_in_row),
    ("lossywalk.sweeps", "_Checkpoint.write_row", "sweeps.checkpoint_write", None),
    ("lossywalk.sweeps", "band_spectrum_1d", "invariants.band_spectrum_1d", None),
    ("lossywalk.sweeps", "band_spectrum_2d", "invariants.band_spectrum_2d", None),
    ("lossywalk.sweeps", "winding_number", "invariants.winding_number", None),
    ("lossywalk.sweeps", "chern_number", "invariants.chern_number", None),
    ("lossywalk.invariants", "u1d_ssqw_k", "walks.u1d_ssqw_k", _matrices_out),
    ("lossywalk.invariants", "u2d_k", "walks.u2d_k", _matrices_out),
    ("lossywalk.invariants", "eig2_batch", "linalg.eig2_batch", _matrices_in),
    ("lossywalk.symmetries", "find_exceptional_point", "symmetries.find_exceptional_point", None),
    ("lossywalk.symmetries", "check_exact_pt", "symmetries.check_exact_pt", None),
    ("lossywalk.symmetries", "u1d_ssqw_k", "walks.u1d_ssqw_k", _matrices_out),
    ("lossywalk.symmetries", "eig2_batch", "linalg.eig2_batch", _matrices_in),
    ("lossywalk.lattice", "eig_general", "linalg.eig_general", None),
    ("lossywalk.lattice", "build_strip_operator", "lattice.build_strip_operator", None),
]


class Tracer:
    """In-memory span recorder that also collects spans from forked workers."""

    def __init__(self, spill_dir: str):
        self.spill_dir = spill_dir
        self.root_pid = os.getpid()
        self._pid = self.root_pid
        self._spans: list[tuple] = []
        self._stack: list[int] = []
        self._base_depth = 0
        self._next = 0
        self._undo: list[tuple] = []

    def _enter_worker(self, pid: int) -> None:
        # first span in a forked worker: drop the parent's spans, keep its open stack
        self._pid = pid
        self._spans = []
        self._base_depth = len(self._stack)
        self._next = 0

    def _spill(self) -> None:
        path = os.path.join(self.spill_dir, f"spans-{self._pid}.jsonl")
        with open(path, "a") as fh:
            for span in self._spans:
                fh.write(json.dumps(span) + "\n")
        self._spans = []

    def wrap(self, fn, name: str, count=None):
        """Return ``fn`` wrapped so that each call records one span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pid = os.getpid()
            if pid != tracer._pid:
                tracer._enter_worker(pid)
            sid = pid * 10_000_000 + tracer._next
            tracer._next += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            start = time.perf_counter()
            done, n = False, None
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                if count is not None and done:
                    n = count(args, kwargs, result)
                tracer._spans.append((sid, parent, name, start, end, n, pid))
                if pid != tracer.root_pid and len(tracer._stack) == tracer._base_depth:
                    tracer._spill()
            return result

        return traced

    def install(self, patches=PATCHES) -> None:
        """Replace every patched attribute by its traced wrapper."""
        for module_name, attr, name, count in patches:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            setattr(owner, leaf, self.wrap(original, name, count))
            self._undo.append((owner, leaf, original))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._undo):
            setattr(owner, leaf, original)
        self._undo = []

    def collect(self) -> list[tuple]:
        """All spans: this process's plus every worker's spill file."""
        spans = list(self._spans)
        for path in sorted(glob.glob(os.path.join(self.spill_dir, "spans-*.jsonl"))):
            with open(path) as fh:
                spans.extend(tuple(json.loads(line)) for line in fh)
        return spans


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for sid, parent, _name, start, end, _n, _pid in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _parent, _name, start, end, _n, _pid in spans:
        covered = [(max(lo, start), min(hi, end)) for lo, hi in children.get(sid, ())]
        covered = [(lo, hi) for lo, hi in covered if hi > lo]
        out[sid] = (end - start) - _union_length(covered)
    return out


def by_name(spans) -> dict[str, dict]:
    """Per span name: calls, total self time, total duration and summed work count."""
    selfs = self_times(spans)
    agg = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "count": 0})
    for sid, _parent, name, start, end, n, _pid in spans:
        a = agg[name]
        a["calls"] += 1
        a["self_s"] += selfs[sid]
        a["total_s"] += end - start
        a["count"] += n or 0
    return dict(agg)


def tail_value(values) -> float:
    """Highest percentile with at least ten samples beyond it (0 if too few)."""
    vals = sorted(values)
    return float(vals[-11]) if len(vals) > 10 else 0.0


def layer_metrics(spans, workers: int, root_pid: int, tables=()) -> dict[str, float]:
    """The benchmark's per-layer metrics from one traced solve and its sweep tables."""
    agg = by_name(spans)

    def get(name, key="self_s"):
        return float(agg[name][key]) if name in agg else 0.0

    def ns_per(name):
        n = get(name, "count")
        return get(name) / n * 1e9 if n else 0.0

    m = {}
    for name in ("walks.u2d_k", "walks.u1d_ssqw_k", "linalg.eig2_batch"):
        m[f"{name}.self_s"] = get(name)
        m[f"{name}.ns_per_matrix"] = ns_per(name)
    for name in ("linalg.eig_general", "invariants.band_spectrum_2d", "invariants.chern_number",
                 "invariants.band_spectrum_1d", "invariants.winding_number",
                 "symmetries.find_exceptional_point", "symmetries.check_exact_pt",
                 "lattice.build_chain_operator", "lattice.build_strip_operator",
                 "lattice.strip_band_structure", "lattice.detect_edge_states",
                 "tables.write_table", "tables.write_spectrum_csv", "tables.emit_plot_script",
                 "cli.cli_dispatch"):
        m[f"{name}.self_s"] = get(name)
    searches = get("symmetries.find_exceptional_point", "calls")
    m["symmetries.ep_searches"] = searches
    m["symmetries.check_exact_pt.calls_per_search"] = (
        get("symmetries.check_exact_pt", "calls") / searches if searches else 0.0)

    rows = [s for s in spans if s[2] == "sweeps.row"]
    row_s = [end - start for _sid, _p, _n, start, end, _c, _pid in rows]
    sweep_wall = sum(get(n, "total_s") for n in agg if n.startswith("sweeps.sweep_"))
    m["sweeps.rows"] = len(rows)
    m["sweeps.cells"] = get("sweeps.row", "count")
    m["sweeps.row_s.p50"] = float(np.median(row_s)) if row_s else 0.0
    m["sweeps.row_s.tail"] = tail_value(row_s)
    worker_busy = sum(d for d, s in zip(row_s, rows) if s[6] != root_pid)
    m["sweeps.pool_busy_frac"] = worker_busy / (workers * sweep_wall) if sweep_wall else 0.0
    m["sweeps.worker_span_frac"] = (
        sum(1 for s in spans if s[6] != root_pid) / len(spans) if spans else 0.0)
    m["sweeps.self_s"] = sum(a["self_s"] for n, a in agg.items() if n.startswith("sweeps."))
    status = [s for t in tables for s in t["status"]]
    m["sweeps.status_ok_frac"] = status.count("ok") / len(status) if status else 0.0
    m["sweeps.status_gap_closed_frac"] = status.count("gap_closed") / len(status) if status else 0.0
    m["sweeps.checkpoint_bytes"] = sum(t.get("checkpoint_bytes", 0) for t in tables)
    m["tables.bytes_written"] = sum(get(n, "count") for n in agg if n.startswith("tables."))
    return m
