"""Correctness gate: seed-0 reference comparison and input-independent checks.

Seed 0 is compared with ``reference/seed0.json``, taken from the code this
benchmark was defined on, by the ROADMAP north-star rule: same cell
statuses, same integers, floats within 1e-9.  Where a float output does not
repeat to 1e-9 between runs of the same code (a LAPACK eigenvalue of a
strongly non-normal lossy strip operator moves by up to 3e-2 between BLAS
kernels), the reference stores derived integers instead (counts of states
in the bulk-gap windows), and only those that do repeat; ``--write``
decides this by re-running seed 0 under several BLAS configurations and
records the reason next to each such output.

Every seed is also checked against what the code guarantees for any input:
integer invariants on ``ok`` cells, each exceptional point within 1e-3 of
the closed-form critical scaling, no ``error`` cells, and well-formed
spectra.  The known-failing paper claims (criteria 5a and 7) are the
tests' business; nothing here depends on them.

Regenerate the reference (about a minute):

    python3 perfbench/reference.py --write
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference", "seed0.json")

FLOAT_TOL = 1e-9
EP_TOL = 1e-3
INTEGER_TOL = 1e-6
GAP_MARGIN = 1e-3
# winding stays exactly quantised only below the first real critical scaling
PLATEAU_MARGIN = 1e-3
# |sum log|lambda|| = |log|det U||; every factor of U has |det| = 1
DET_TOL = 1e-6

# BLAS/SIMD configurations a float must survive to be compared at 1e-9
VARIANTS = {
    "default": {},
    "blas_threads_2": {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"},
    "haswell_kernels": {
        "OPENBLAS_CORETYPE": "Haswell",
        "NPY_DISABLE_CPU_FEATURES": "AVX512F AVX512CD AVX512_SKX AVX512_CLX AVX512_CNL "
                                    "AVX512_ICL AVX512_SPR",
    },
}


@dataclass
class Report:
    """Outputs compared and the ones that did not match."""

    compared: int = 0
    mismatched: int = 0
    mismatches: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.expect_all([ok], what)

    def expect_all(self, oks, what: str) -> None:
        """One check per output; ``what`` describes the failures."""
        oks = np.asarray(oks, dtype=bool)
        bad = int(oks.size - oks.sum())
        self.compared += int(oks.size)
        self.mismatched += bad
        if bad:
            self.mismatches.append(f"{what} ({bad} of {oks.size})")


def _cells(table: dict) -> np.ndarray:
    return np.array([math.nan if v is None else float(v) for v in table["values"]])


def _circle(values) -> np.ndarray:
    # Re E near -pi and near +pi are the same point; compare on the unit circle
    return np.exp(1j * np.asarray(values, dtype=float))


def nearest_distances(got, want) -> np.ndarray:
    """Distance from each point of ``got`` to its nearest point of ``want`` (inf if sizes differ)."""
    got, want = np.asarray(got, dtype=complex), np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        return np.full(max(got.size, 1), math.inf)
    if got.size == 0:
        return np.zeros(0)
    return np.abs(got[:, None] - want[None, :]).min(axis=1)


def multiset_distance(a, b) -> float:
    """Largest distance from a point of either set to its nearest partner."""
    return float(max(np.max(nearest_distances(a, b), initial=0.0),
                     np.max(nearest_distances(b, a), initial=0.0)))


def gap_counts(row, half_gap: float) -> dict[str, int]:
    """States inside the bulk-gap windows around Re E = 0 and Re E = pi."""
    re = np.abs(np.asarray(row, dtype=float))
    window = half_gap - GAP_MARGIN
    return {"zero_gap": int(np.sum(re < window)), "pi_gap": int(np.sum(np.pi - re < window))}


def _gamma_c_min(theta1: float, theta2: float) -> float:
    from lossywalk import errors, walks

    try:
        return walks.min_positive_critical_gamma(theta1, theta2)
    except errors.DegenerateCoin:
        return math.nan


# ---------------------------------------------------------------------------
# input-independent checks

def check_guarantees(outputs: dict, report: Report) -> None:
    """What the code guarantees for any seed."""
    for key, table in outputs.get("tables", {}).items():
        status = table["status"]
        values = _cells(table)
        report.expect_all([s != "error" for s in status], f"{key}: error cells")
        ok = np.array([s == "ok" for s in status])
        if key == "chern":
            report.expect_all(values[ok] == np.rint(values[ok]), f"{key}: non-integer Chern values")
        else:
            theta1 = table["theta1"]
            t2s, gammas = table["axes"]
            grid = values.reshape(len(t2s), len(gammas))
            okg = ok.reshape(grid.shape)
            for i, t2 in enumerate(t2s):
                gc = _gamma_c_min(theta1, t2)
                if math.isnan(gc):
                    continue
                plateau = okg[i] & (np.asarray(gammas) < gc - PLATEAU_MARGIN)
                w = grid[i][plateau]
                report.expect_all(np.abs(w - np.rint(w)) < INTEGER_TOL,
                                  f"{key}: non-integer winding below gamma_c at theta2={t2:.6f}")
    for theta1, theta2, _gamma_c, ep in outputs.get("eps", []):
        gc = _gamma_c_min(theta1, theta2)
        report.expect(abs(ep - gc) < EP_TOL,
                      f"EP at ({theta1:.4f},{theta2:.4f}) = {ep:.6f}, closed form {gc:.6f}")
    for chain in outputs.get("chain", []):
        lam = np.asarray(chain["re_lambda"]) + 1j * np.asarray(chain["im_lambda"])
        report.expect(lam.size == 402 and bool(np.all(np.isfinite(lam))),
                      f"chain gamma={chain['gamma']}: {lam.size} eigenvalues")
        report.expect(abs(float(np.sum(np.log(np.abs(lam))))) < DET_TOL,
                      f"chain gamma={chain['gamma']}: |det U| != 1")
    for strip in outputs.get("strip", []):
        e = np.asarray(strip["re_energies"], dtype=float)
        ok = e.shape == (4, 402) and bool(np.all(np.isfinite(e)))
        ok = ok and bool(np.all(np.abs(e) <= np.pi + 1e-12)) and bool(np.all(np.diff(e, axis=1) >= 0))
        report.expect(ok, f"strip gamma={strip['gamma']}: malformed band rows")


# ---------------------------------------------------------------------------
# seed-0 reference

def compare_reference(outputs: dict, ref: dict, report: Report) -> None:
    """Compare one workload's seed-0 outputs with its stored reference."""
    for key, want in ref.get("tables", {}).items():
        got = outputs.get("tables", {}).get(key)
        if got is None:
            report.expect(False, f"{key}: table missing")
            continue
        report.expect(got["axes"] == want["axes"], f"{key}: axes differ")
        g, w = _cells(got), _cells(want)
        if g.shape != w.shape:
            report.expect(False, f"{key}: {g.size} cells, reference {w.size}")
            continue
        report.expect_all([a == b for a, b in zip(got["status"], want["status"])],
                          f"{key}: cell statuses differ")
        ok = np.array([s == "ok" for s in want["status"]])
        report.expect_all(np.abs(g[ok] - w[ok]) <= FLOAT_TOL, f"{key}: values off by > {FLOAT_TOL}")
    if "eps" in ref:
        got, want = np.asarray(outputs.get("eps", [])), np.asarray(ref["eps"])
        report.expect(got.shape == want.shape, f"eps: {len(got)} searches, reference {len(want)}")
        if got.shape == want.shape:
            report.expect_all(np.all(np.abs(got - want) <= FLOAT_TOL, axis=1),
                              f"EPs off by > {FLOAT_TOL}")
    for key in ("chain", "strip"):
        got_all = outputs.get(key, [])
        if key in ref:
            report.expect(len(got_all) == len(ref[key]), f"{key}: {len(got_all)} spectra")
        for got, want in zip(got_all, ref.get(key, [])):
            report.expect(abs(got["gamma"] - want["gamma"]) <= FLOAT_TOL, f"{key}: gamma differs")
            (_compare_chain if key == "chain" else _compare_strip)(got, want, report)


def _compare_chain(got: dict, want: dict, report: Report) -> None:
    g = want["gamma"]
    report.expect(got["edge_states"] == want["edge_states"],
                  f"chain gamma={g}: {got['edge_states']} edge states, reference {want['edge_states']}")
    if want["compare"] == "floats":
        d = nearest_distances(np.asarray(got["re_lambda"]) + 1j * np.asarray(got["im_lambda"]),
                              np.asarray(want["re_lambda"]) + 1j * np.asarray(want["im_lambda"]))
        report.expect_all(d <= FLOAT_TOL, f"chain gamma={g}: eigenvalues moved by > {FLOAT_TOL}")


def _compare_strip(got: dict, want: dict, report: Report) -> None:
    g = want["gamma"]
    rows = got["re_energies"]
    report.expect(len(rows) == len(want["rows"]), f"strip gamma={g}: {len(rows)} kx rows")
    for i, (row, spec) in enumerate(zip(rows, want["rows"])):
        if spec["compare"] == "floats":
            d = nearest_distances(_circle(row), _circle(want["re_energies"][i]))
            report.expect_all(d <= FLOAT_TOL, f"strip gamma={g} kx#{i}: Re E moved by > {FLOAT_TOL}")
        counts = gap_counts(row, want["half_gaps"][i])
        for name, value in spec.get("counts", {}).items():
            report.expect(counts[name] == value,
                          f"strip gamma={g} kx#{i}: {name} {counts[name]}, reference {value}")


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def check(workload: str, seed: int, outputs: dict, reference: dict | None = None) -> Report:
    """All checks for one run's outputs."""
    report = Report()
    check_guarantees(outputs, report)
    if seed == 0:
        ref = reference if reference is not None else load_reference()
        compare_reference(outputs, ref["workloads"][workload], report)
    return report


# ---------------------------------------------------------------------------
# writing the reference

def _run_variant(workload: str, env_extra: dict, root: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.update(env_extra)
    with tempfile.TemporaryDirectory(dir=os.path.join(root, ".perfbench_work")) as tmp:
        dump = os.path.join(tmp, "outputs.json")
        subprocess.run([sys.executable, os.path.join(HERE, "iteration.py"), "--workload", workload,
                        "--seed", "0", "--workdir", tmp, "--dump", dump, "--no-check"],
                       env=env, check=True, timeout=600)
        with open(dump) as fh:
            return json.load(fh)


def _half_gaps(kx) -> list[float]:
    from lossywalk import cli, lattice
    from workloads import STRIP

    spec = lattice.RegionSpec(STRIP["boundary"], cli.parse_pair(STRIP["inner"]),
                              cli.parse_pair(STRIP["outer"]))
    return [lattice.bulk_gap_half_width(spec, STRIP["ny"], float(k), 0.0, 0.0) for k in kx]


def build_reference(runs: dict[str, dict[str, dict]]) -> dict:
    """Reference from per-variant outputs: {workload: {variant: outputs}}."""
    ref = {"workloads": {}}
    for workload, by_variant in runs.items():
        base = by_variant["default"]
        others = [v for k, v in by_variant.items() if k != "default"]
        entry = {}
        for other in others:  # sweep tables and EPs must repeat exactly as the rule says
            rep = Report()
            compare_reference(other, {"tables": base.get("tables", {}),
                                      **({"eps": base["eps"]} if "eps" in base else {})}, rep)
            if rep.mismatches:
                raise SystemExit(f"{workload}: outputs do not repeat: {rep.mismatches[:3]}")
        if "tables" in base:
            entry["tables"] = {k: {n: t[n] for n in ("axes", "status", "values")}
                               for k, t in base["tables"].items()}
        if "eps" in base:
            entry["eps"] = base["eps"]
        if "chain" in base:
            entry["chain"] = []
            for i, c in enumerate(base["chain"]):
                lam = np.asarray(c["re_lambda"]) + 1j * np.asarray(c["im_lambda"])
                worst = max(multiset_distance(
                    lam, np.asarray(o["chain"][i]["re_lambda"]) + 1j * np.asarray(o["chain"][i]["im_lambda"]))
                    for o in others)
                if any(o["chain"][i]["edge_states"] != c["edge_states"] for o in others):
                    raise SystemExit(f"chain gamma={c['gamma']}: edge-state count does not repeat")
                entry["chain"].append({**c, "compare": "floats" if worst <= FLOAT_TOL else "counts",
                                       "variant_spread": worst})
        if "strip" in base:
            entry["strip"] = []
            for i, s in enumerate(base["strip"]):
                half = _half_gaps(s["kx"])
                rows = []
                for j, row in enumerate(s["re_energies"]):
                    other_rows = [o["strip"][i]["re_energies"][j] for o in others]
                    worst = max(multiset_distance(_circle(row), _circle(r)) for r in other_rows)
                    spec = {"variant_spread": worst}
                    if worst <= FLOAT_TOL:
                        spec["compare"] = "floats"
                    else:
                        spec["compare"] = "counts"
                        counts = gap_counts(row, half[j])
                        spec["counts"] = {name: v for name, v in counts.items()
                                          if all(gap_counts(r, half[j])[name] == v for r in other_rows)}
                        dropped = sorted(set(counts) - set(spec["counts"]))
                        spec["why"] = (f"Re E moves by {worst:.1e} between BLAS configurations "
                                       "(non-normal lossy operator)")
                        if dropped:
                            spec["why"] += f"; {', '.join(dropped)} count does not repeat either"
                    rows.append(spec)
                entry["strip"].append({"gamma": s["gamma"], "kx": s["kx"], "half_gaps": half,
                                       "re_energies": s["re_energies"], "rows": rows})
        ref["workloads"][workload] = entry
    ref["rule"] = ("same statuses, same integers, floats within 1e-9; outputs with "
                   "compare='counts' did not repeat to 1e-9 across " + ", ".join(VARIANTS))
    return ref


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help="regenerate reference/seed0.json")
    args = ap.parse_args()
    if not args.write:
        ap.print_help()
        return 1
    root = os.path.dirname(HERE)
    os.makedirs(os.path.join(root, ".perfbench_work"), exist_ok=True)
    sys.path[:0] = [os.path.join(root, "src"), HERE]
    from workloads import NAMES

    try:
        runs = {w: {name: _run_variant(w, env, root) for name, env in VARIANTS.items()}
                for w in NAMES}
    finally:
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(root, ".perfbench_work"))
    ref = build_reference(runs)
    os.makedirs(os.path.dirname(REFERENCE_PATH), exist_ok=True)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
