"""Deterministic parameter-grid sweeps with per-row checkpointing.

A sweep evaluates a pure cell function over the grid of two named axes and
stores row-major float results plus a per-cell status marker.  ``_sweep``
is the one sweep body: it validates both axes and builds each row's cells,
the argument tuples of the row function, from the two axes through the
public sweep's ``cell(x, y)`` map.  Rows (first axis) are distributed over
the forked workers of ``pool``; results land in their slots by grid position,
so the table is bit-identical regardless of worker count or scheduling.

A winding row is one batched ``band_spectrum_1d`` and ``winding_number``
call; its masks make a cell with colliding eigenvalues or vanishing links
NaN and gap_closed.  If the batch raises, the row reruns cell by cell, so
errors are the cells' own.  A batch of one equals the row, bit for bit.
Chern rows stay per cell: one cell already diagonalises a whole 2D grid.

Every row lands in one store, ``_Checkpoint``, holding the layout below: in
memory without a checkpoint path, else that file, created blank (bitmap 0,
NaN values, status 0) if missing and mapped shared once its size and header
match (else ``CheckpointMismatch``).  Rows marked done are not run again.
``write_row`` sets the bitmap byte last and nothing is synced, so the file
survives a killed process but not an OS crash.

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
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CheckpointMismatch,
    DegenerateCoin,
    GapClosure,
    OrthogonalLink,
)
from ._version import __version__ as _pkg_version
from .invariants import band_spectrum_1d, band_spectrum_2d, chern_number, winding_number
from .pool import _run_rows
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


def _config_hash(meta: dict, axes) -> bytes:
    canon = {
        "meta": meta,
        "axes": [[name, list(map(float, vals))] for name, vals in axes],
    }
    return hashlib.sha256(json.dumps(canon, sort_keys=True).encode()).digest()


class _Checkpoint:
    """A sweep's rows in the version-1 layout, mapped onto ``path`` or held in memory."""

    def __init__(self, path, cfg_hash: bytes, n_rows: int, n_cols: int):
        hdr = struct.pack("<4sI32sII", _MAGIC, _CKPT_VERSION, cfg_hash, n_rows, n_cols)
        n = n_rows * n_cols
        blank = hdr + bytes(n_rows) + np.full(n, np.nan).astype("<f8").tobytes() + bytes(n)
        if path is None:
            buf = np.frombuffer(bytearray(blank), np.uint8)
        else:
            try:
                if not os.path.exists(path):
                    with open(path, "wb") as fh:
                        fh.write(blank)
                with open(path, "rb") as fh:
                    head, size = fh.read(len(hdr)), os.fstat(fh.fileno()).st_size
                if size != len(blank) or head != hdr:
                    raise CheckpointMismatch(f"{path} does not match this sweep configuration")
                buf = np.memmap(path, np.uint8, "r+")
            except OSError as exc:
                raise OSError(f"cannot write checkpoint to {path}: {exc}") from exc
        off = len(hdr) + n_rows
        self.n_cols = n_cols
        self.done = buf[len(hdr) : off]
        self.values = buf[off : off + 8 * n].view("<f8")
        self.status = buf[off + 8 * n :]

    def write_row(self, row: int, values: np.ndarray, status: np.ndarray) -> None:
        cols = slice(row * self.n_cols, (row + 1) * self.n_cols)
        self.values[cols] = values
        self.status[cols] = status
        self.done[row] = 1


def _sweep(axes, cell, row_fn, meta, workers, checkpoint):
    """Run ``row_fn`` on each row of a two-axis grid; row i's cells are ``cell(x_i, y)`` over y.

    ``cell`` runs in this process; ``row_fn`` runs in the workers, which
    inherit it by fork, so nothing is pickled on the way in.  The table holds
    plain copies of the store's arrays, never views of the mapped file.
    """
    axes = [(name, _as_axis(vals)) for name, vals in axes]
    (_, xs), (_, ys) = axes
    meta = {**meta, "artifact_version": _pkg_version}
    store = _Checkpoint(checkpoint, _config_hash(meta, axes), len(xs), len(ys))
    todo = np.flatnonzero(store.done == 0)
    results = _run_rows(row_fn, [[cell(xs[i], y) for y in ys] for i in todo], workers)
    for i, (row_vals, row_stat) in zip(todo, results):
        store.write_row(i, row_vals, row_stat)
    return SweepTable(axes=axes, values=np.array(store.values), status=np.array(store.status), meta=meta)


def _size(name: str, n: int) -> int:
    """A momentum-grid size, checked before the first row: a bad one fails the whole sweep."""
    if n < 1:
        raise ValueError(f"{name} must be positive, got {n}")
    return n


def _as_axis(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("axis ranges must be nonempty 1D arrays")
    return arr


# ---------------------------------------------------------------------------
# cell kernels and the row loop

def _winding_value(theta1: float, theta2: float, gamma: float, n_k: int) -> float:
    lower = band_spectrum_1d(WalkParams1D(theta1, theta2, gamma), n_k)
    return winding_number(lower).w


def _chern_value(theta1: float, theta2: float, gx: float, gy: float, grid: int) -> float:
    return float(chern_number(band_spectrum_2d(WalkParams2D(theta1, theta2, gx, gy), grid, grid))[0])


def _row(cell, cells):
    """Evaluate ``cell(*args)`` for each tuple in ``cells``; return (values, statuses)."""
    vals = np.full(len(cells), np.nan)
    stat = np.full(len(cells), STATUS_OK, dtype=np.uint8)
    for j, args in enumerate(cells):
        try:
            vals[j] = cell(*args)
        except (GapClosure, OrthogonalLink):
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
        lower = band_spectrum_1d(WalkParams1D(t1, t2, g), int(n_k[0, 0]))
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
    return _sweep([("theta1", theta1_range), ("theta2", theta2_range)],
                  lambda t1, t2: (t1, t2, 0.0, n_k), _winding_gamma_row,
                  {"model": "ssqw_1d_phase_diagram", "gamma": 0.0, "n_k": _size("n_k", n_k)},
                  workers, checkpoint)


def sweep_winding_vs_gamma(
    theta1: float,
    theta2_range,
    gamma_range,
    n_k: int = 201,
    workers: int | None = None,
    checkpoint=None,
) -> SweepTable:
    """Lower-band winding over (theta2, gamma) at fixed theta1, with critical overlays."""
    return _sweep([("theta2", theta2_range), ("gamma", gamma_range)],
                  lambda t2, g: (theta1, t2, g, n_k), _winding_gamma_row,
                  {"model": "ssqw_1d_winding_vs_gamma", "theta1": float(theta1), "n_k": _size("n_k", n_k),
                   "overlays": _gamma_c_overlays(theta1, _as_axis(theta2_range))}, workers, checkpoint)


def sweep_chern_2d(
    theta1_range,
    theta2_range,
    grid: int = 101,
    workers: int | None = None,
    checkpoint=None,
) -> SweepTable:
    """Lower-band Chern number over a (theta1, theta2) grid at zero scaling."""
    return _sweep([("theta1", theta1_range), ("theta2", theta2_range)],
                  lambda t1, t2: (t1, t2, 0.0, 0.0, grid), _chern_gamma_row,
                  {"model": "dtqw_2d_phase_diagram", "gamma_x": 0.0, "gamma_y": 0.0,
                   "grid": _size("grid", grid)}, workers, checkpoint)


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
    return _sweep([("theta2", theta2_range), ("gamma_x", gamma_x_range)],
                  lambda t2, gx: (theta1, t2, gx, gamma_y, grid), _chern_gamma_row,
                  {"model": "dtqw_2d_chern_vs_gamma", "theta1": float(theta1),
                   "gamma_y": float(gamma_y), "grid": _size("grid", grid)}, workers, checkpoint)
