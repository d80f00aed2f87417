"""The benchmark's three workloads: seeded inputs, the solve, and its outputs.

Each workload is a slice of a paper figure driven through the public
``lossywalk`` entry points: ``cli.cli_dispatch`` for everything the CLI
offers, and ``symmetries.find_exceptional_point`` / ``walks.critical_gamma``
for the exceptional-point searches, which have no CLI.  Entry points are
looked up as module attributes at call time so that the tracer's wrappers
(see ``trace.py``) are the ones called.

Seed 0 passes exactly the figure-preset strings (so the CLI parses them
bit-identically to a user typing them).  Any other seed shifts every axis by
its own random fraction of one grid step and keeps all sizes.

Why these three workloads:

* ``chern_loss`` (fig 5, panel 4): 961 cells of 51x51 2x2 stacks, about 80%
  of a cell in ``u2d_k``; 31 heavy rows.  Exercises the k-space builder and
  ``eig2_batch`` on large stacks; sweep-engine overhead is small.
* ``winding_loss`` (fig 4, three panels, plus criterion-2 style EP
  searches): 5043 tiny cells in 123 light rows with a checkpoint write each,
  6 emitted tables and about 70 bisections.  Same walks/linalg layers at
  small batch sizes, where per-call overhead dominates; the workload for
  sweep-engine, checkpoint, tables and symmetries changes.
* ``realspace`` (fig 6 chains and fig 8 strips): dense 402x402 builds and
  LAPACK, once with eigenvectors (chain) and once without (strip).  Never
  touches ``u2d_k``, ``eig2_batch`` or the process pool, so it is the
  "predict no change" workload for k-space and sweep-engine changes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
from dataclasses import dataclass, field

import numpy as np

from lossywalk import cli, errors, symmetries, walks

NAMES = ("chern_loss", "winding_loss", "realspace")

CHERN_THETA1 = "3pi/8"
CHERN_GAMMA_Y = "0.5"
CHERN_GRID = 51
WINDING_THETA1S = ("-pi/2", "-3pi/4", "-pi")
WINDING_NK = 201
EP_WINDOW = (0.1, 0.8)  # closed-form gamma_c reachable by bisection on 201 points
EP_HEADROOM = 0.5
CHAIN = {"n": 201, "boundary": 50, "inner": "-3pi/8,5pi/8", "outer": "-3pi/8,pi/4"}
CHAIN_GAMMAS = ("0.0", "0.2", "0.2110", "0.25")
STRIP = {"ny": 201, "boundary": 50, "inner": "7pi/6,7pi/6", "outer": "3pi/2,pi", "kx": 4}
STRIP_GAMMAS = ("0.0", "0.2", "0.3", "0.47")
# the fig-6/fig-8 loss values are not evenly spaced; seeds shift them by a
# fraction of this step, below the smallest gap between them (0.011)
GAMMA_LIST_STEP = 0.01


@dataclass
class Outcome:
    """What one solve attempted, what failed, and the outputs to check."""

    attempted: int = 0
    failed: int = 0
    outputs: dict = field(default_factory=dict)


def _axis(seed_rng, start: str, stop: str, count: int) -> str:
    """A 'start:stop:count' range; seeds > 0 shift it by a fraction of a step."""
    if seed_rng is None:
        return f"{start}:{stop}:{count}"
    a, b = cli.parse_angle(start), cli.parse_angle(stop)
    shift = seed_rng.random() * (b - a) / (count - 1)
    return f"{a + shift!r}:{b + shift!r}:{count}"


def _gamma_list(seed_rng, values) -> list[str]:
    if seed_rng is None:
        return list(values)
    shift = seed_rng.random() * GAMMA_LIST_STEP
    return [repr(float(v) + shift) for v in values]


def make_inputs(workload: str, seed: int) -> dict:
    """Generated axes and parameter values for one workload and seed."""
    # stdlib generator: numpy.random would add its import to set-up time and memory
    rng = None if seed == 0 else random.Random(seed)
    if workload == "chern_loss":
        return {
            "theta2_range": _axis(rng, "0", "2pi", 31),
            "gamma_x_range": _axis(rng, "0", "2", 31),
        }
    if workload == "winding_loss":
        return {
            "theta2_range": _axis(rng, "0", "2pi", 41),
            "gamma_range": _axis(rng, "0", "1.5", 41),
        }
    if workload == "realspace":
        return {
            "chain_gammas": _gamma_list(rng, CHAIN_GAMMAS),
            "strip_gammas": _gamma_list(rng, STRIP_GAMMAS),
        }
    raise ValueError(f"unknown workload {workload!r}; expected one of {NAMES}")


def _dispatch(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.cli_dispatch(argv)
    return code, out.getvalue()


def _read_table(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    return {"status": data["status"], "values": data["cells"],
            "axes": [ax["values"] for ax in data["axes"]]}


def _ep_targets(theta1: float, theta2s) -> list[tuple[float, float]]:
    """(theta2, gamma_c) for every theta2 whose k0=0, E0=0 closing is real and reachable."""
    out = []
    for t2 in theta2s:
        try:
            res = walks.critical_gamma(theta1, float(t2), 0.0, 0.0)
        except errors.DegenerateCoin:
            continue
        if res.kind is walks.CriticalKind.REAL_CRITICAL and EP_WINDOW[0] < res.gamma_c < EP_WINDOW[1]:
            out.append((float(t2), res.gamma_c))
    return out


def solve(workload: str, inputs: dict, workdir: str, workers: int) -> Outcome:
    """Run one workload into a fresh ``workdir``; the part the benchmark times."""
    # fails if it exists: an existing checkpoint would make winding-sweep resume
    # and skip every row, turning the run into a no-op
    os.makedirs(workdir)
    if workload == "chern_loss":
        return _solve_chern(inputs, workdir, workers)
    if workload == "winding_loss":
        return _solve_winding(inputs, workdir, workers)
    if workload == "realspace":
        return _solve_realspace(inputs, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def _solve_chern(inputs, workdir, workers) -> Outcome:
    n_cells = 31 * 31
    code, _ = _dispatch(["--outdir", workdir, "--workers", str(workers), "chern-sweep",
                         "--theta1", CHERN_THETA1, "--theta2-range", inputs["theta2_range"],
                         "--gamma-x-range", inputs["gamma_x_range"],
                         "--gamma-y", CHERN_GAMMA_Y, "--grid", str(CHERN_GRID)])
    if code != 0:
        return Outcome(attempted=n_cells, failed=n_cells)
    table = _read_table(os.path.join(workdir, "chern_sweep.json"))
    failed = table["status"].count("error")
    return Outcome(attempted=n_cells, failed=failed, outputs={"tables": {"chern": table}})


def _solve_winding(inputs, workdir, workers) -> Outcome:
    n_cells = 41 * 41
    out = Outcome()
    tables, eps = {}, []
    theta2s = cli.parse_range(inputs["theta2_range"])
    for i, t1s in enumerate(WINDING_THETA1S):
        panel_dir = os.path.join(workdir, f"panel{i}")
        ckpt = os.path.join(workdir, f"panel{i}.ckpt")
        code, _ = _dispatch(["--outdir", panel_dir, "--workers", str(workers), "winding-sweep",
                             "--theta1", t1s, "--theta2-range", inputs["theta2_range"],
                             "--gamma-range", inputs["gamma_range"], "--nk", str(WINDING_NK),
                             "--checkpoint", ckpt])
        out.attempted += n_cells
        if code != 0:
            out.failed += n_cells
        theta1 = cli.parse_angle(t1s)
        if code == 0:
            table = _read_table(os.path.join(panel_dir, "winding_sweep.json"))
            out.failed += table["status"].count("error")
            table["theta1"] = theta1
            table["checkpoint_bytes"] = os.path.getsize(ckpt)
            tables[f"winding_{i}"] = table
        for t2, gamma_c in _ep_targets(theta1, theta2s):
            out.attempted += 1
            try:
                ep = symmetries.find_exceptional_point(theta1, t2, gamma_hi=gamma_c + EP_HEADROOM,
                                                       n_points=WINDING_NK)
            except Exception:  # noqa: BLE001 - any exception is a failed operation
                out.failed += 1
                continue
            eps.append([theta1, t2, gamma_c, ep])
    out.outputs = {"tables": tables, "eps": eps}
    return out


_CHAIN_LINE = re.compile(r"(\d+) eigenvalues, (\d+) edge state")


def _solve_realspace(inputs, workdir) -> Outcome:
    out = Outcome()
    chains, strips = [], []
    for i, g in enumerate(inputs["chain_gammas"]):
        d = os.path.join(workdir, f"chain{i}")
        code, text = _dispatch(["--outdir", d, "chain-spectrum", "--n", str(CHAIN["n"]),
                                "--boundary", str(CHAIN["boundary"]), f"--inner={CHAIN['inner']}",
                                f"--outer={CHAIN['outer']}", "--gamma", g])
        out.attempted += 1
        m = _CHAIN_LINE.search(text)
        if code != 0 or m is None:
            out.failed += 1
            continue
        chains.append({"gamma": float(g), "dir": d, "edge_states": int(m.group(2))})
    for i, g in enumerate(inputs["strip_gammas"]):
        d = os.path.join(workdir, f"strip{i}")
        code, _ = _dispatch(["--outdir", d, "strip-bands", "--ny", str(STRIP["ny"]),
                             "--boundary", str(STRIP["boundary"]), f"--inner={STRIP['inner']}",
                             f"--outer={STRIP['outer']}", "--gamma-x", g, "--gamma-y", g,
                             "--kx-samples", str(STRIP["kx"])])
        out.attempted += 1
        if code != 0:
            out.failed += 1
            continue
        strips.append({"gamma": float(g), "dir": d})
    out.outputs = {"chain": chains, "strip": strips}
    return out


def read_outputs(outcome: Outcome) -> dict:
    """Load the emitted spectrum files into plain lists (done after timing)."""
    outputs = dict(outcome.outputs)
    if "chain" in outputs:
        chains = []
        for c in outputs["chain"]:
            data = np.loadtxt(os.path.join(c["dir"], "chain_spectrum.csv"), delimiter=",", skiprows=1)
            chains.append({"gamma": c["gamma"], "edge_states": c["edge_states"],
                           "re_lambda": data[:, 0].tolist(), "im_lambda": data[:, 1].tolist()})
        outputs["chain"] = chains
    if "strip" in outputs:
        strips = []
        for s in outputs["strip"]:
            data = np.loadtxt(os.path.join(s["dir"], "strip_bands.csv"), delimiter=",", skiprows=1,
                              ndmin=2)
            strips.append({"gamma": s["gamma"], "kx": data[:, 0].tolist(),
                           "re_energies": data[:, 1:].tolist()})
        outputs["strip"] = strips
    return outputs
