"""Command-line interface.

Angles are accepted either as decimals (radians) or as exact fractional-pi
shorthand such as ``-3pi/8`` or ``7pi/6``; the shorthand is evaluated as
``sign * a * math.pi / b`` so figure parameters are bit-exact.  Ranges use
``start:stop:count`` with inclusive endpoints.

``figure <id>`` runs ``_FIGURES[id]``, one function per figure of the paper
that holds its own parameters; the chain and strip figures write through the
same emitters as the ``chain-spectrum`` and ``strip-bands`` subcommands.
Every command and figure solves everything before its first write, which
makes ``--outdir``: a rejected or failing command leaves no output behind.

Exit codes: 0 success, 1 bad input (``ValueError``) or I/O failure
(``OSError``), 2 numerical failure (``ArithmeticError``; see ``errors``).
With ``--json`` errors are emitted as one JSON object on stdout.  No flag
takes an abbreviation: ``--config`` and ``--json`` are read from argv.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from .invariants import band_spectrum_1d, band_spectrum_2d, chern_number, winding_number
from .lattice import (
    CHAIN_REAL_TOL,
    CHAIN_REAL_TOL_LOSSY,
    RegionSpec,
    _site_coords,
    build_chain_operator,
    chain_spectrum,
    detect_edge_states,
    strip_band_structure,
)
from .linalg import quasienergy
from .pool import _run_dense
from .sweeps import (
    sweep_chern_2d,
    sweep_chern_vs_gamma,
    sweep_phase_diagram_1d,
    sweep_winding_vs_gamma,
)
from .symmetries import EXACT_PT_TOL, check_cs, check_exact_pt, check_phs, check_pt_1d
from .tables import emit_plot_script, write_spectrum_csv, write_table
from .walks import (
    CriticalKind,
    WalkParams1D,
    WalkParams2D,
    bloch_ssqw,
    critical_gamma,
    min_positive_critical_gamma,
    momentum_grid,
)

_PI_FORM = re.compile(r"^([+-]?)(\d+)?pi(?:/(\d+))?$")

# values like -3pi/8 or -pi:pi:41 must not be mistaken for option flags
_NEGATIVE_VALUE = re.compile(r"^-(\d+(\.\d+)?([eE][+-]?\d+)?|(\d+)?pi(/\d+)?)(:[^ ]*)?$")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VALUE

    def error(self, message):
        # bad arguments are bad input: cli_dispatch reports them, as JSON under --json
        raise ValueError(f"{self.prog}: {message}")


def parse_angle(text: str) -> float:
    """Radians from a decimal or an exact fractional-pi form like '-3pi/8'."""
    s = str(text).strip().replace(" ", "")
    m = _PI_FORM.match(s)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        a = float(m.group(2)) if m.group(2) else 1.0
        b = float(m.group(3)) if m.group(3) else 1.0
        return sign * a * math.pi / b
    try:
        return float(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}") from None


def parse_range(text: str) -> np.ndarray:
    """Inclusive grid 'start:stop:count' with angle-shorthand endpoints."""
    parts = str(text).split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"range must be start:stop:count, got {text!r}")
    start, stop = parse_angle(parts[0]), parse_angle(parts[1])
    try:
        count = int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"range count must be an integer, got {parts[2]!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError("range count must be >= 1")
    return np.linspace(start, stop, count)


def parse_pair(text: str) -> tuple[float, float]:
    parts = str(text).split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'theta1,theta2', got {text!r}")
    return (parse_angle(parts[0]), parse_angle(parts[1]))


def positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _top_flags() -> argparse.ArgumentParser:
    """The top-level flags without --help; ``_inject_config``'s first pass reads only these."""
    top = _Parser(prog="lossywalk", add_help=False, allow_abbrev=False)
    top.add_argument("--json", action="store_true", help="machine-readable errors on stdout")
    top.add_argument("--config", help="JSON file with defaults for the subcommand flags")
    top.add_argument("--outdir", default="out", help="directory for emitted files")
    top.add_argument("--workers", type=positive_int, default=None,
                     help="process-pool size for sweeps and dense solves (default: the CPU affinity)")
    return top


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="lossywalk", description=__doc__.splitlines()[0], parents=[_top_flags()],
                  allow_abbrev=False)
    sub = top.add_subparsers(dest="command", required=True)
    angles, ckpt, regions = (_Parser(add_help=False) for _ in range(3))
    angles.add_argument("--theta1", type=parse_angle, required=True)
    angles.add_argument("--theta2", type=parse_angle, required=True)
    ckpt.add_argument("--checkpoint", default=None)
    regions.add_argument("--boundary", type=int, default=50)
    regions.add_argument("--inner", type=parse_pair, required=True, help="theta1,theta2 for |n|<=boundary")
    regions.add_argument("--outer", type=parse_pair, required=True)

    def command(name, handler, text, *parents):
        p = sub.add_parser(name, help=text, parents=parents, allow_abbrev=False)
        p.set_defaults(handler=handler)
        return p

    p = command("winding", _cmd_winding, "lower-band winding number at one parameter point", angles)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--nk", type=int, default=201)

    p = command("chern", _cmd_chern, "lower-band Chern number at one parameter point", angles)
    p.add_argument("--gamma-x", type=float, default=0.0)
    p.add_argument("--gamma-y", type=float, default=0.0)
    p.add_argument("--grid", type=int, default=201)

    p = command("critical-gamma", _cmd_critical_gamma, "closed-form critical scaling factor", angles)
    p.add_argument("--k0", type=parse_angle, default=None, help="closing momentum, 0 or pi")
    p.add_argument("--e0", type=parse_angle, default=None, help="closing energy, 0 or pi")

    p = command("phase1d", _cmd_phase1d, "winding phase diagram over (theta1, theta2)", ckpt)
    p.add_argument("--theta1-range", type=parse_range, default=parse_range("-pi:pi:101"))
    p.add_argument("--theta2-range", type=parse_range, default=parse_range("-pi:pi:101"))
    p.add_argument("--nk", type=int, default=201)

    p = command("winding-sweep", _cmd_winding_sweep, "winding over (theta2, gamma) at fixed theta1", ckpt)
    p.add_argument("--theta1", type=parse_angle, required=True)
    p.add_argument("--theta2-range", type=parse_range, required=True)
    p.add_argument("--gamma-range", type=parse_range, required=True)
    p.add_argument("--nk", type=int, default=201)

    p = command("chern-sweep", _cmd_chern_sweep, "Chern number over (theta2, gamma_x)", ckpt)
    p.add_argument("--theta1", type=parse_angle, required=True)
    p.add_argument("--theta2-range", type=parse_range, required=True)
    p.add_argument("--gamma-x-range", type=parse_range, required=True)
    p.add_argument("--gamma-y", type=float, default=0.0)
    p.add_argument("--grid", type=int, default=51)

    p = command("symmetry-check", _cmd_symmetry_check,
                "PT / exact-PT / particle-hole / chiral reports", angles)
    p.add_argument("--model", choices=["1d", "2d"], default="1d")
    p.add_argument("--gamma", type=float, default=0.0, help="loss of the 1d walk (1d only)")
    p.add_argument("--gamma-x", type=float, default=0.0, help="loss along x (2d only)")
    p.add_argument("--gamma-y", type=float, default=0.0, help="loss along y (2d only)")
    p.add_argument("--nk", type=int, default=201, help="grid points; 2d clamps to [3, 51]")
    p.add_argument("--tol", type=float, default=1e-10)

    p = command("chain-spectrum", _cmd_chain_spectrum, "spectrum of the two-region closed chain", regions)
    p.add_argument("--n", type=int, default=201)
    p.add_argument("--gamma", type=float, default=0.0)

    p = command("strip-bands", _cmd_strip_bands, "strip band structure vs transverse momentum", regions)
    p.add_argument("--ny", type=int, default=201)
    p.add_argument("--gamma-x", type=float, default=0.0)
    p.add_argument("--gamma-y", type=float, default=0.0)
    p.add_argument("--kx-samples", type=int, default=64)

    p = command("figure", lambda ns: _FIGURES[ns.id](ns), "one-shot reproduction presets")
    p.add_argument("id", choices=sorted(_FIGURES))
    return top


def _inject_config(argv: list[str]) -> list[str]:
    """Splice config-file values (as flags) after the subcommand, the first non-top-level argument.

    Keys use the flag names; explicit command-line flags win; unknown keys
    are rejected before any computation.
    """
    first = _top_flags()
    first.add_argument("rest", nargs=argparse.REMAINDER)
    known, _ = first.parse_known_args(argv)
    if known.config is None:
        return argv
    try:
        with open(known.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {known.config}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    if not known.rest:
        raise ValueError("config file given but no subcommand found")
    extra = []
    for key, value in cfg.items():
        flag = "--" + str(key).replace("_", "-")
        if flag in ("--config", "--json"):
            continue
        if flag in argv or any(a.startswith(flag + "=") for a in argv):
            continue  # command line wins
        extra.extend([flag, str(value)])
    cmd_end = len(argv) - len(known.rest) + 1
    return argv[:cmd_end] + extra + argv[cmd_end:]


def _emit_sweep(table, outdir: str, stem: str, title: str, value_label: str) -> None:
    write_table(table, os.path.join(outdir, f"{stem}.json"), "json")
    write_table(table, os.path.join(outdir, f"{stem}.csv"), "csv")
    emit_plot_script(
        "heatmap",
        os.path.join(outdir, f"{stem}_plot.py"),
        [f"{stem}.json"],
        f"{stem}.png",
        title=title,
        value_label=value_label,
    )
    print(f"wrote {outdir}/{stem}.json, .csv and {stem}_plot.py")


def _cmd_winding(ns) -> None:
    lower = band_spectrum_1d(WalkParams1D(ns.theta1, ns.theta2, ns.gamma, ns.phi), ns.nk)
    print(f"{winding_number(lower).w:.6f}")


def _cmd_chern(ns) -> None:
    p = WalkParams2D(ns.theta1, ns.theta2, ns.gamma_x, ns.gamma_y)
    c, _ = chern_number(band_spectrum_2d(p, ns.grid, ns.grid))
    print(c)


def _cmd_critical_gamma(ns) -> None:
    if (ns.k0 is None) != (ns.e0 is None):
        raise ValueError("give both --k0 and --e0, or neither")
    if ns.k0 is not None:
        res = critical_gamma(ns.theta1, ns.theta2, ns.k0, ns.e0)
        print("none" if res.kind is CriticalKind.NO_CLOSING else f"{res.gamma_c:.6f}")
    else:
        best = min_positive_critical_gamma(ns.theta1, ns.theta2)
        print("none" if not np.isfinite(best) else f"{best:.6f}")


def _cmd_phase1d(ns) -> None:
    table = sweep_phase_diagram_1d(ns.theta1_range, ns.theta2_range, ns.nk,
                                   workers=ns.workers, checkpoint=ns.checkpoint)
    _emit_sweep(table, ns.outdir, "phase1d", "winding number, zero loss", "W")


def _cmd_winding_sweep(ns) -> None:
    table = sweep_winding_vs_gamma(ns.theta1, ns.theta2_range, ns.gamma_range, ns.nk,
                                   workers=ns.workers, checkpoint=ns.checkpoint)
    _emit_sweep(table, ns.outdir, "winding_sweep", f"winding, theta1={ns.theta1:.4f}", "W")


def _cmd_chern_sweep(ns) -> None:
    table = sweep_chern_vs_gamma(ns.theta1, ns.theta2_range, ns.gamma_x_range, ns.gamma_y,
                                 ns.grid, workers=ns.workers, checkpoint=ns.checkpoint)
    _emit_sweep(table, ns.outdir, "chern_sweep", f"Chern, theta1={ns.theta1:.4f}", "C")


def _cmd_symmetry_check(ns) -> None:
    for name in ("gamma_x", "gamma_y") if ns.model == "1d" else ("gamma",):
        if getattr(ns, name) != 0:
            raise ValueError(f"--{name.replace('_', '-')} does not apply to --model {ns.model}")
    if ns.model == "1d":
        p = WalkParams1D(ns.theta1, ns.theta2, ns.gamma)
        reports = [check_pt_1d(p, ns.nk, ns.tol),
                   check_exact_pt(p, ns.nk, max(ns.tol, EXACT_PT_TOL)),
                   check_phs(p, ns.nk, ns.tol),
                   check_cs(p, ns.nk, ns.tol)]
    else:
        p = WalkParams2D(ns.theta1, ns.theta2, ns.gamma_x, ns.gamma_y)
        reports = [check_phs(p, max(3, min(ns.nk, 51)), ns.tol)]
    for r in reports:
        print(f"{r.relation}: max_violation={r.max_violation:.3e} passed={r.passed}")


def _chain_row(args) -> tuple[np.ndarray, list]:
    """Eigenvalues and edge states of the two-region chain at one loss."""
    n, spec, g = args
    lam, vectors = chain_spectrum(build_chain_operator(n, spec, g))
    reports = detect_edge_states(lam, vectors, CHAIN_REAL_TOL if g == 0 else CHAIN_REAL_TOL_LOSSY,
                                 spec.boundary)
    return lam, [r for r in reports if r.is_edge]


def _emit_chains(spec: RegionSpec, n: int, gammas, outdir: str, stems, name: str,
                 workers: int | None) -> None:
    """One spectrum CSV per loss on the two-region chain, then one plot script."""
    for (lam, edges), stem in zip(_run_dense(_chain_row, [(n, spec, g) for g in gammas], workers), stems):
        es = quasienergy(lam)
        write_spectrum_csv(
            os.path.join(outdir, f"{stem}.csv"),
            {"re_lambda": lam.real, "im_lambda": lam.imag, "re_energy": es.real, "im_energy": es.imag},
        )
        print(f"{stem}: {len(lam)} eigenvalues, {len(edges)} edge state(s)")
    emit_plot_script("spectrum", os.path.join(outdir, f"{name}_plot.py"),
                     [f"{stem}.csv" for stem in stems], f"{name}.png",
                     labels=[f"gamma={g}" for g in gammas])


def _emit_strips(spec: RegionSpec, n_y: int, kx_samples: int, losses, outdir: str, stems,
                 name: str, labels, workers: int | None) -> None:
    """One band CSV (kx, then e0, e1, ...) per (gamma_x, gamma_y) loss, then one plot script."""
    solved = [strip_band_structure(spec, n_y, kx_samples, gx, gy, workers=workers) for gx, gy in losses]
    files = [f"{stem}.csv" for stem in stems]
    for bands, fname in zip(solved, files):
        cols = {"kx": bands.kx}
        cols.update((f"e{j}", e) for j, e in enumerate(bands.re_energies.T))
        write_spectrum_csv(os.path.join(outdir, fname), cols)
    emit_plot_script("bands", os.path.join(outdir, f"{name}_plot.py"), files, f"{name}.png",
                     labels=labels)
    print(f"wrote {outdir}/{', '.join(files)} and {name}_plot.py")


def _cmd_chain_spectrum(ns) -> None:
    _emit_chains(RegionSpec(ns.boundary, ns.inner, ns.outer), ns.n, [ns.gamma], ns.outdir,
                 ["chain_spectrum"], "chain_spectrum", ns.workers)


def _cmd_strip_bands(ns) -> None:
    _emit_strips(RegionSpec(ns.boundary, ns.inner, ns.outer), ns.ny, ns.kx_samples,
                 [(ns.gamma_x, ns.gamma_y)], ns.outdir, ["strip_bands"], "strip_bands",
                 [f"gx={ns.gamma_x} gy={ns.gamma_y}"], ns.workers)


# Each figure is one function holding its own parameters.  Angles stay in
# shorthand so they parse bit-identically to the same values typed as flags.

# the two-region chain of figures 6 and 7
_FIG67_CHAIN = RegionSpec(50, parse_pair("-3pi/8,5pi/8"), parse_pair("-3pi/8,pi/4"))


def _figure_2a(ns) -> None:
    """1D winding phase diagram at zero loss"""
    table = sweep_phase_diagram_1d(parse_range("-pi:pi:101"), parse_range("-pi:pi:101"), 201,
                                   workers=ns.workers)
    _emit_sweep(table, ns.outdir, "fig2a", "1D winding phase diagram at zero loss", "W")


def _figure_2b(ns) -> None:
    """2D Chern phase diagram at zero loss"""
    table = sweep_chern_2d(parse_range("0:2pi:51"), parse_range("0:2pi:51"), 101,
                           workers=ns.workers)
    _emit_sweep(table, ns.outdir, "fig2b", "2D Chern phase diagram at zero loss", "C")


def _figure_3(ns) -> None:
    """Bloch-vector winding trajectories of the lower band"""
    n_k = 201
    ks = momentum_grid(n_k)
    files, columns, labels = [], [], []
    for i, (t1s, t2s, g) in enumerate([("-3pi/8", "pi/8", 0.25), ("-3pi/8", "5pi/8", 0.25),
                                       ("-3pi/8", "pi/8", 1.8), ("-3pi/8", "pi/8", 3.0)]):
        p = WalkParams1D(parse_angle(t1s), parse_angle(t2s), g)
        n = np.array([bloch_ssqw(p, float(k)).n for k in ks])
        cols = {"k": ks}
        for j, axis in enumerate(("nx", "ny", "nz")):
            cols[f"re_{axis}"] = n[:, j].real
            cols[f"im_{axis}"] = n[:, j].imag
        files.append(f"fig3_case{i}.csv")
        columns.append(cols)
        labels.append(f"{t1s},{t2s},g={g}: W={winding_number(band_spectrum_1d(p, n_k)).w:.3f}")
    for fname, cols in zip(files, columns):
        write_spectrum_csv(os.path.join(ns.outdir, fname), cols)
    emit_plot_script("trajectory", os.path.join(ns.outdir, "fig3_plot.py"), files,
                     "fig3.png", labels=labels)
    print(f"wrote {ns.outdir}/fig3_case*.csv and fig3_plot.py")


def _figure_4(ns) -> None:
    """lower-band winding vs (gamma, theta2)"""
    panels = ["-pi/2", "-3pi/4", "-pi"]
    tables = [sweep_winding_vs_gamma(parse_angle(t1s), parse_range("0:2pi:41"),
                                     parse_range("0:1.5:41"), 201, workers=ns.workers)
              for t1s in panels]
    for i, (t1s, table) in enumerate(zip(panels, tables)):
        _emit_sweep(table, ns.outdir, f"fig4_panel{i}", f"winding, theta1={t1s}", "W")


def _figure_5(ns) -> None:
    """Chern number vs (gamma_x, theta2)"""
    panels = [("pi/4", 0.0), ("3pi/8", 0.0), ("3pi/2", 0.0),
              ("pi/4", 0.1), ("3pi/8", 0.5), ("3pi/2", 1.0)]
    tables = [sweep_chern_vs_gamma(parse_angle(t1s), parse_range("0:2pi:31"),
                                   parse_range("0:2:31"), gy, 51, workers=ns.workers)
              for t1s, gy in panels]
    for i, ((t1s, gy), table) in enumerate(zip(panels, tables)):
        _emit_sweep(table, ns.outdir, f"fig5_panel{i}", f"Chern, theta1={t1s}, gamma_y={gy}", "C")


def _figure_6(ns) -> None:
    """chain spectra for increasing loss"""
    gammas = [0.0, 0.2, 0.2110, 0.25]
    _emit_chains(_FIG67_CHAIN, 201, gammas, ns.outdir, [f"fig6_gamma{g}" for g in gammas], "fig6",
                 ns.workers)


def _figure_7(ns) -> None:
    """chain partition and edge-state site profiles"""
    _, edges = _chain_row((201, _FIG67_CHAIN, 0.0))
    t1, t2 = _FIG67_CHAIN.angles(201)
    cols = {"site": _site_coords(201).astype(float), "theta1": t1, "theta2": t2}
    cols.update((f"edge{i}_prob", r.profile) for i, r in enumerate(edges))
    write_spectrum_csv(os.path.join(ns.outdir, "fig7_partition.csv"), cols)
    emit_plot_script("lines", os.path.join(ns.outdir, "fig7_plot.py"),
                     ["fig7_partition.csv"], "fig7.png",
                     title="two-region chain and edge-state profiles")
    print(f"wrote {ns.outdir}/fig7_partition.csv and fig7_plot.py")


def _figure_8(ns) -> None:
    """strip band structure for increasing loss"""
    gammas = [0.0, 0.2, 0.3, 0.47]
    _emit_strips(RegionSpec(50, parse_pair("7pi/6,7pi/6"), parse_pair("3pi/2,pi")), 201, 64,
                 [(g, g) for g in gammas], ns.outdir, [f"fig8_gamma{g}" for g in gammas], "fig8",
                 [f"gamma={g}" for g in gammas], ns.workers)


_FIGURES = {"2a": _figure_2a, "2b": _figure_2b, "3": _figure_3, "4": _figure_4,
            "5": _figure_5, "6": _figure_6, "7": _figure_7, "8": _figure_8}


def cli_dispatch(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    want_json = "--json" in argv

    def fail(code: int, kind: str, message: str) -> int:
        if want_json:
            print(json.dumps({"error": kind, "message": message}))
        else:
            print(f"error ({kind}): {message}", file=sys.stderr)
        return code

    try:
        ns = parser.parse_args(_inject_config(argv))
    except SystemExit as exc:  # --help
        return 1 if exc.code not in (0, None) else 0
    except ValueError as exc:
        return fail(1, "validation", str(exc))
    try:
        ns.handler(ns)
    except ValueError as exc:
        return fail(1, "validation", str(exc))
    except ArithmeticError as exc:
        return fail(2, "numerical", f"{type(exc).__name__}: {exc}")
    except OSError as exc:
        return fail(1, "io", str(exc))
    return 0


def main() -> None:
    raise SystemExit(cli_dispatch())


if __name__ == "__main__":
    main()
