"""Deterministic parameter-grid sweeps with per-row checkpointing.

A sweep evaluates a pure cell function over the Cartesian product of named
axes and stores row-major float results plus a per-cell status marker.
Rows (first axis) are distributed over a process pool; results land in
preallocated slots indexed by grid position, so the table is bit-identical
regardless of worker count or scheduling.

A winding row is one batched ``band_spectrum_1d`` and ``winding_number``
call; its masks make a cell with colliding eigenvalues or vanishing links
NaN and gap_closed.  If the batch raises, the row reruns cell by cell, so
errors are the cells' own.  A batch of one equals the row, bit for bit.
Chern rows stay per cell: one cell already diagonalises a whole 2D grid.

Checkpoint file layout (little-endian, fixed width), version 1:

    bytes 0:4    magic b"LWCK"
    bytes 4:8    format version, uint32
    bytes 8:40   sha256 of the canonical config JSON
    bytes 40:44  n_rows, uint32
    bytes 44:48  n_cols, uint32
    bytes 48:48+n_rows          row-completed bitmap, uint8
    then n_rows*n_cols float64  cell values, row-major
    then n_rows*n_cols uint8    cell status codes

Status codes: 0 = ok, 1 = gap_closed, 2 = error.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CheckpointMismatch,
    DegenerateCoin,
    GapClosed,
    GapClosure,
    OrthogonalLink,
)
from ._version import __version__ as _pkg_version
from .invariants import band_spectrum_1d, band_spectrum_2d, chern_number, winding_number
from .walks import (
    CriticalKind,
    WalkParams1D,
    WalkParams2D,
    critical_gamma,
)

__all__ = [
    "STATUS_OK",
    "STATUS_GAP_CLOSED",
    "STATUS_ERROR",
    "STATUS_LABELS",
    "SweepTable",
    "sweep_phase_diagram_1d",
    "sweep_winding_vs_gamma",
    "sweep_chern_2d",
    "sweep_chern_vs_gamma",
]

STATUS_OK = 0
STATUS_GAP_CLOSED = 1
STATUS_ERROR = 2
STATUS_LABELS = {STATUS_OK: "ok", STATUS_GAP_CLOSED: "gap_closed", STATUS_ERROR: "error"}

_MAGIC = b"LWCK"
_CKPT_VERSION = 1
WORKERS_ENV = "LOSSYWALK_WORKERS"


@dataclass
class SweepTable:
    """Row-major grid of scalar results over named axes, with provenance."""

    axes: list[tuple[str, np.ndarray]]
    values: np.ndarray  # flat float64, len = prod of axis lengths
    status: np.ndarray  # flat uint8
    meta: dict = field(default_factory=dict)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(vals) for _, vals in self.axes)

    def grid(self) -> np.ndarray:
        return self.values.reshape(self.shape)

    def status_grid(self) -> np.ndarray:
        return self.status.reshape(self.shape)

    def to_dict(self) -> dict:
        return {
            "axes": [{"name": name, "values": list(map(float, vals))} for name, vals in self.axes],
            "cells": [None if np.isnan(v) else float(v) for v in self.values],
            "status": [STATUS_LABELS[int(s)] for s in self.status],
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepTable":
        axes = [(ax["name"], np.asarray(ax["values"], dtype=float)) for ax in data["axes"]]
        values = np.array([np.nan if v is None else float(v) for v in data["cells"]])
        labels = {v: k for k, v in STATUS_LABELS.items()}
        status = np.array([labels[s] for s in data["status"]], dtype=np.uint8)
        return cls(axes=axes, values=values, status=status, meta=dict(data["meta"]))


def _workers(workers: int | None) -> int:
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(WORKERS_ENV)
    if env:
        return max(1, int(env))
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _config_hash(meta: dict, axes) -> bytes:
    canon = {
        "meta": {k: v for k, v in sorted(meta.items()) if k != "workers"},
        "axes": [[name, list(map(float, vals))] for name, vals in axes],
    }
    return hashlib.sha256(json.dumps(canon, sort_keys=True).encode()).digest()


class _Checkpoint:
    """Seekable per-row checkpoint store."""

    def __init__(self, path: str, cfg_hash: bytes, n_rows: int, n_cols: int):
        self.path = path
        self.n_rows = n_rows
        self.n_cols = n_cols
        self._hdr = struct.pack("<4sI32sII", _MAGIC, _CKPT_VERSION, cfg_hash, n_rows, n_cols)
        self._bitmap_off = len(self._hdr)
        self._values_off = self._bitmap_off + n_rows
        self._status_off = self._values_off + 8 * n_rows * n_cols
        if os.path.exists(path):
            with open(path, "rb") as fh:
                hdr = fh.read(len(self._hdr))
            if hdr != self._hdr:
                raise CheckpointMismatch(f"{path} does not match this sweep configuration")
        else:
            with open(path, "wb") as fh:
                fh.write(self._hdr)
                fh.write(bytes(n_rows))
                fh.write(np.full(n_rows * n_cols, np.nan).tobytes())
                fh.write(bytes(n_rows * n_cols))

    def load(self):
        with open(self.path, "rb") as fh:
            fh.seek(self._bitmap_off)
            bitmap = np.frombuffer(fh.read(self.n_rows), dtype=np.uint8).astype(bool)
            values = np.frombuffer(fh.read(8 * self.n_rows * self.n_cols), dtype="<f8").copy()
            status = np.frombuffer(fh.read(self.n_rows * self.n_cols), dtype=np.uint8).copy()
        return bitmap, values, status

    def write_row(self, row: int, values: np.ndarray, status: np.ndarray) -> None:
        with open(self.path, "r+b") as fh:
            fh.seek(self._values_off + 8 * row * self.n_cols)
            fh.write(values.astype("<f8").tobytes())
            fh.seek(self._status_off + row * self.n_cols)
            fh.write(status.astype(np.uint8).tobytes())
            fh.seek(self._bitmap_off + row)
            fh.write(b"\x01")


def _run_rows(row_fn, args_list, workers: int):
    """Yield row_fn over args_list in order, each as soon as it is done; pool only if it pays."""
    if workers <= 1 or len(args_list) <= 1:
        yield from map(row_fn, args_list)
        return
    with ProcessPoolExecutor(max_workers=min(workers, len(args_list))) as pool:
        yield from pool.map(row_fn, args_list, chunksize=1)


def _sweep(axes, row_fn, row_args, meta, workers, checkpoint):
    n_rows = len(row_args)
    n_cols = int(np.prod([len(v) for _, v in axes[1:]])) if len(axes) > 1 else 1
    values = np.full(n_rows * n_cols, np.nan)
    status = np.full(n_rows * n_cols, STATUS_ERROR, dtype=np.uint8)
    meta = dict(meta)
    meta.setdefault("artifact_version", _pkg_version)
    ckpt = None
    done = np.zeros(n_rows, dtype=bool)
    if checkpoint is not None:
        ckpt = _Checkpoint(str(checkpoint), _config_hash(meta, axes), n_rows, n_cols)
        done, values, status = ckpt.load()
    todo = [i for i in range(n_rows) if not done[i]]
    nworkers = _workers(workers)
    results = _run_rows(row_fn, [row_args[i] for i in todo], nworkers)
    for i, (row_vals, row_stat) in zip(todo, results):
        values[i * n_cols : (i + 1) * n_cols] = row_vals
        status[i * n_cols : (i + 1) * n_cols] = row_stat
        if ckpt is not None:
            ckpt.write_row(i, row_vals, row_stat)
    return SweepTable(axes=axes, values=values, status=status, meta=meta)


def _as_axis(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("axis ranges must be nonempty 1D arrays")
    return arr


# ---------------------------------------------------------------------------
# cell kernels and the row loop (top level so process pools can pickle them)

def _winding_value(theta1: float, theta2: float, gamma: float, n_k: int) -> float:
    lower, _ = band_spectrum_1d(WalkParams1D(theta1, theta2, gamma), n_k)
    return winding_number(lower).w


def _chern_value(theta1: float, theta2: float, gx: float, gy: float, grid: int) -> float:
    lower, _ = band_spectrum_2d(WalkParams2D(theta1, theta2, gx, gy), grid, grid)
    return float(chern_number(lower)[0])


def _row(cell, cells):
    """Evaluate ``cell(*args)`` for each tuple in ``cells``; return (values, statuses)."""
    vals = np.full(len(cells), np.nan)
    stat = np.full(len(cells), STATUS_OK, dtype=np.uint8)
    for j, args in enumerate(cells):
        try:
            vals[j] = cell(*args)
        except (GapClosure, OrthogonalLink, GapClosed):
            stat[j] = STATUS_GAP_CLOSED
        except Exception:
            stat[j] = STATUS_ERROR
    return vals, stat


# One row function per cell kind; all four sweeps use them.  Keep both names:
# perfbench/spans.py patches them by name to time each row, and its tracer
# refuses to install if either is missing.

def _winding_gamma_row(cells):
    t1, t2, g, n_k = (np.array(col)[:, None] for col in zip(*cells))
    try:
        lower, _ = band_spectrum_1d(WalkParams1D(t1, t2, g), int(n_k[0, 0]))
        w = winding_number(lower).w
    except Exception:
        return _row(_winding_value, cells)
    return w, np.where(np.isnan(w), STATUS_GAP_CLOSED, STATUS_OK).astype(np.uint8)


def _chern_gamma_row(cells):
    return _row(_chern_value, cells)


# ---------------------------------------------------------------------------
# public sweeps

def _gamma_c_overlays(theta1, theta2s) -> dict:
    """Analytic critical scaling per theta2 for the (0,0) and (pi,0) channels."""
    out = {}
    for name, k0 in (("gamma_c_k0", 0.0), ("gamma_c_kpi", np.pi)):
        vals = []
        for t2 in theta2s:
            try:
                res = critical_gamma(theta1, t2, k0, 0.0)
            except DegenerateCoin:
                vals.append(None)
                continue
            vals.append(res.gamma_c if res.kind is CriticalKind.REAL_CRITICAL else None)
        out[name] = {"axis": "theta2", "values": vals}
    return out


def sweep_phase_diagram_1d(
    theta1_range,
    theta2_range,
    n_k: int = 201,
    workers: int | None = None,
    checkpoint=None,
) -> SweepTable:
    """Lower-band winding number over a (theta1, theta2) grid at zero scaling."""
    t1s, t2s = _as_axis(theta1_range), _as_axis(theta2_range)
    meta = {"model": "ssqw_1d_phase_diagram", "gamma": 0.0, "n_k": n_k}
    return _sweep(
        [("theta1", t1s), ("theta2", t2s)],
        _winding_gamma_row,
        [[(t1, t2, 0.0, n_k) for t2 in t2s] for t1 in t1s],
        meta,
        workers,
        checkpoint,
    )


def sweep_winding_vs_gamma(
    theta1: float,
    theta2_range,
    gamma_range,
    n_k: int = 201,
    workers: int | None = None,
    checkpoint=None,
) -> SweepTable:
    """Lower-band winding over (theta2, gamma) at fixed theta1, with critical overlays."""
    t2s, gs = _as_axis(theta2_range), _as_axis(gamma_range)
    meta = {
        "model": "ssqw_1d_winding_vs_gamma",
        "theta1": float(theta1),
        "n_k": n_k,
        "overlays": _gamma_c_overlays(theta1, t2s),
    }
    return _sweep(
        [("theta2", t2s), ("gamma", gs)],
        _winding_gamma_row,
        [[(theta1, t2, g, n_k) for g in gs] for t2 in t2s],
        meta,
        workers,
        checkpoint,
    )


def sweep_chern_2d(
    theta1_range,
    theta2_range,
    grid: int = 101,
    workers: int | None = None,
    checkpoint=None,
) -> SweepTable:
    """Lower-band Chern number over a (theta1, theta2) grid at zero scaling."""
    t1s, t2s = _as_axis(theta1_range), _as_axis(theta2_range)
    meta = {"model": "dtqw_2d_phase_diagram", "gamma_x": 0.0, "gamma_y": 0.0, "grid": grid}
    return _sweep(
        [("theta1", t1s), ("theta2", t2s)],
        _chern_gamma_row,
        [[(t1, t2, 0.0, 0.0, grid) for t2 in t2s] for t1 in t1s],
        meta,
        workers,
        checkpoint,
    )


def sweep_chern_vs_gamma(
    theta1: float,
    theta2_range,
    gamma_x_range,
    gamma_y: float = 0.0,
    grid: int = 51,
    workers: int | None = None,
    checkpoint=None,
) -> SweepTable:
    """Lower-band Chern number over (theta2, gamma_x) at fixed theta1, gamma_y."""
    t2s, gxs = _as_axis(theta2_range), _as_axis(gamma_x_range)
    meta = {
        "model": "dtqw_2d_chern_vs_gamma",
        "theta1": float(theta1),
        "gamma_y": float(gamma_y),
        "grid": grid,
    }
    return _sweep(
        [("theta2", t2s), ("gamma_x", gxs)],
        _chern_gamma_row,
        [[(theta1, t2, gx, gamma_y, grid) for gx in gxs] for t2 in t2s],
        meta,
        workers,
        checkpoint,
    )
