import argparse
import ast
import inspect
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossywalk import cli, errors, lattice, sweeps
from lossywalk.cli import cli_dispatch, parse_angle, parse_range
from lossywalk.lattice import RegionSpec
from lossywalk.sweeps import sweep_chern_vs_gamma, sweep_phase_diagram_1d
from lossywalk.symmetries import check_phs
from lossywalk.tables import read_table, write_table


def run_cli(args, cwd=None):
    from io import StringIO
    import contextlib

    out = StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_dispatch(args)
    return code, out.getvalue()


def test_parse_angle_exact_fractions():
    assert parse_angle("-3pi/8") == -3 * math.pi / 8
    assert parse_angle("7pi/6") == 7 * math.pi / 6
    assert parse_angle("pi") == math.pi
    assert parse_angle("-pi/2") == -1 * math.pi / 2
    assert parse_angle("2pi") == 2 * math.pi
    assert parse_angle("0.75") == 0.75
    with pytest.raises(Exception):
        parse_angle("threepi")


def test_parse_range():
    r = parse_range("0:pi:5")
    assert len(r) == 5 and r[0] == 0.0 and r[-1] == math.pi


finite = st.floats(allow_nan=False, allow_infinity=False)
small = st.one_of(st.none(), st.integers(1, 64))


def pi_form(sign, a, b):
    """Shorthand text and the value the CLI docstring promises for it."""
    text = f"{sign}{'' if a is None else a}pi{'' if b is None else f'/{b}'}"
    return text, (-1.0 if sign == "-" else 1.0) * (a or 1) * math.pi / (b or 1)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(["", "+", "-"]), small, small)
def test_parse_angle_pi_form_is_bit_exact(sign, a, b):
    text, want = pi_form(sign, a, b)
    assert parse_angle(text).hex() == want.hex()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(finite)
def test_parse_angle_decimal_round_trips(x):
    assert parse_angle(repr(x)).hex() == x.hex()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(finite, finite, st.integers(1, 50))
def test_parse_range_matches_linspace(x, y, n):
    with np.errstate(over="ignore", invalid="ignore"):
        np.testing.assert_array_equal(parse_range(f"{x!r}:{y!r}:{n}"), np.linspace(x, y, n))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(small, small, st.floats(max_value=0.0, exclude_max=True, allow_infinity=False))
def test_cli_accepts_negative_angle_values(a, b, x):
    # negative shorthand and decimals must reach the handler as values, not
    # be taken for option flags
    shorthand, want = pi_form("-", a, b)
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_cmd_critical_gamma", lambda ns: seen.append(ns) or 0)
        mp.setattr(cli, "_cmd_phase1d", lambda ns: seen.append(ns) or 0)
        assert cli_dispatch(["critical-gamma", "--theta1", shorthand, "--theta2", repr(x)]) == 0
        assert cli_dispatch(["phase1d", "--theta1-range", f"{shorthand}:{x!r}:3"]) == 0
    assert seen[0].theta1.hex() == want.hex()
    assert seen[0].theta2.hex() == x.hex()
    np.testing.assert_array_equal(seen[1].theta1_range, np.linspace(want, x, 3))


def test_critical_gamma_command():
    code, out = run_cli(["critical-gamma", "--theta1", "-1.1781", "--theta2", "0.7854"])
    assert code == 0
    assert out.strip().startswith("0.2110")


def test_python_dash_m_runs_the_cli():
    # ``python -m lossywalk`` from a source checkout, with only src on the path
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "lossywalk", "critical-gamma", "--theta1=-3pi/8",
                           "--theta2", "pi/4"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0.211006"


def test_critical_gamma_channel_flags():
    code, out = run_cli(["critical-gamma", "--theta1", "-3pi/8", "--theta2", "5pi/8",
                         "--k0", "0", "--e0", "0"])
    assert code == 0
    assert abs(float(out) - 0.2832) < 5e-4


@pytest.mark.parametrize("k0, e0, code, out", [
    ("pi", "pi", 0, "0.211006\n"),
    ("-pi", "-pi", 0, "0.211006\n"),
    ("pi/2", "0", 1, '{"error": "validation", "message": "k0 and e0 must be 0 or pi, got k0=1.5708, e0=0"}\n'),
    ("0", "pi/4", 1, '{"error": "validation", "message": "k0 and e0 must be 0 or pi, got k0=0, e0=0.785398"}\n'),
])
def test_critical_gamma_rejects_channels_off_zero_and_pi(k0, e0, code, out):
    assert run_cli(["--json", "critical-gamma", "--theta1", "-3pi/8", "--theta2", "pi/4",
                    "--k0", k0, "--e0", e0]) == (code, out)


def test_winding_command_fig3a():
    code, out = run_cli(["winding", "--theta1", "-1.1781", "--theta2", "0.3927",
                         "--gamma", "0.25", "--nk", "201"])
    assert code == 0
    assert out.strip() == "1.000000"


def test_chern_command():
    code, out = run_cli(["chern", "--theta1", "3pi/2", "--theta2", "7pi/6", "--grid", "61"])
    assert code == 0
    assert out.strip() == "1"


def test_chern_rejects_loss_beyond_overflow_bound():
    code, out = run_cli(["--json", "chern", "--theta1", "3pi/8", "--theta2", "1.0",
                         "--gamma-x", "200", "--grid", "21"])
    assert code == 1
    assert json.loads(out) == {"error": "validation", "message": (
        "|gamma_x| + |gamma_y| must be below 177.4, "
        "where the eigensolver's e^(4 (|gamma_x| + |gamma_y|)) overflows")}


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_strip_bands_rejects_nonpositive_kx_samples(tmp_path, samples):
    code, out = run_cli(["--json", "--outdir", str(tmp_path), "strip-bands", "--ny", "11",
                         "--boundary", "2", "--inner", "0.3,0.4", "--outer", "1.0,2.0",
                         "--kx-samples", samples])
    assert code == 1
    assert json.loads(out) == {"error": "validation", "message": "n_points must be positive"}
    assert not list(tmp_path.glob("*.csv"))


def test_symmetry_check_command():
    code, out = run_cli(["symmetry-check", "--theta1", "-3pi/8", "--theta2", "pi/4",
                         "--gamma", "0.15", "--nk", "101"])
    assert code == 0
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["PT", "ExactPT", "PHS", "CS"]
    assert all(line.endswith(" passed=True") for line in lines)


@pytest.mark.parametrize("nk, grid", [("101", 51), ("2", 3)])
def test_symmetry_check_command_2d(nk, grid):
    grids = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "check_phs", lambda p, n, tol: grids.append(n) or check_phs(p, n, tol))
        code, out = run_cli(["symmetry-check", "--model", "2d", "--theta1", "7pi/6", "--theta2", "7pi/6",
                             "--gamma-x", "0.2", "--gamma-y", "0.2", "--nk", nk])
    assert code == 0
    assert grids == [grid]
    lines = out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("PHS: ") and lines[0].endswith(" passed=True")


@pytest.mark.parametrize("model, flag", [("2d", "--gamma"), ("1d", "--gamma-x"), ("1d", "--gamma-y")])
def test_symmetry_check_rejects_the_other_models_loss(model, flag):
    args = ["symmetry-check", "--model", model, "--theta1", "-3pi/8", "--theta2", "pi/4", "--nk", "21"]
    code, out = run_cli(["--json", *args, flag, "0.3"])
    assert (code, json.loads(out)) == (1, {"error": "validation",
                                           "message": f"{flag} does not apply to --model {model}"})
    assert run_cli([*args, flag, "0"])[0] == 0


def test_validation_error_exit_code():
    code, _ = run_cli(["winding", "--theta1", "nonsense", "--theta2", "0"])
    assert code == 1


@pytest.mark.parametrize("args, message", [
    (["winding", "--theta1", "nonsense", "--theta2", "0"],
     "lossywalk winding: argument --theta1: cannot parse angle 'nonsense'"),
    (["winding", "--theta1", "0"], "lossywalk winding: the following arguments are required: --theta2"),
    (["winding", "--theta1", "0", "--theta2", "0", "--bogus"], "lossywalk: unrecognized arguments: --bogus"),
    ([], "lossywalk: the following arguments are required: command"),
])
def test_argument_errors_are_one_json_object_under_json(args, message):
    code, out = run_cli(["--json", *args])
    assert code == 1
    assert json.loads(out) == {"error": "validation", "message": message}
    assert run_cli(args) == (1, "")  # without --json the error goes to stderr


def test_numerical_error_exit_code_and_json():
    # gapless point with an even grid lands exactly on the closure: exit 2
    code, out = run_cli(["--json", "winding", "--theta1", "-pi/2", "--theta2", "pi/2",
                         "--nk", "200"])
    assert code == 2
    msg = json.loads(out)
    assert msg["error"] == "numerical"


def test_config_file_defaults_and_unknown_keys(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"theta2": "0.3927", "gamma": 0.25, "nk": 201}))
    code, out = run_cli(["--config", str(cfg), "winding", "--theta1", "-1.1781"])
    assert code == 0
    assert out.strip() == "1.000000"
    cfg.write_text(json.dumps({"bogus_key": 1}))
    code, out = run_cli(["--json", "--config", str(cfg), "winding",
                         "--theta1", "0", "--theta2", "0"])
    assert code == 1


def test_top_level_flags_are_not_abbreviated(tmp_path):
    # --config and --json are read from the raw arguments, so a prefix such
    # as --conf must be rejected rather than parsed and then ignored
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"theta2": "0.3927"}))
    code, out = run_cli(["--conf", str(cfg), "winding", "--theta1", "-1.1781"])
    assert (code, out) == (1, "")
    code, out = run_cli(["--js", "winding", "--theta1", "0", "--theta2", "0"])
    assert (code, out) == (1, "")


def test_subcommand_flags_and_config_keys_are_not_abbreviated(tmp_path):
    # --gam would otherwise be taken for --gamma, and a config key "gam" with it
    args = ["winding", "--theta1", "0.1", "--theta2", "0.2"]
    code, out = run_cli(["--json"] + args + ["--gam", "0.1"])
    assert code == 1 and json.loads(out)["error"] == "validation"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"gam": 0.3}))
    code, out = run_cli(["--json", "--config", str(cfg)] + args)
    assert code == 1 and json.loads(out)["error"] == "validation"


_REQUIRED = (True, None)
_FULL_TURN = (False, parse_range("-pi:pi:101").tolist())

# per subcommand, each flag's option string (or a positional's dest) -> (required, default)
_SURFACE = {
    "winding": {"--theta1": _REQUIRED, "--theta2": _REQUIRED, "--gamma": (False, 0.0),
                "--phi": (False, 0.0), "--nk": (False, 201)},
    "chern": {"--theta1": _REQUIRED, "--theta2": _REQUIRED, "--gamma-x": (False, 0.0),
              "--gamma-y": (False, 0.0), "--grid": (False, 201)},
    "critical-gamma": {"--theta1": _REQUIRED, "--theta2": _REQUIRED, "--k0": (False, None),
                       "--e0": (False, None)},
    "phase1d": {"--theta1-range": _FULL_TURN, "--theta2-range": _FULL_TURN,
                "--nk": (False, 201), "--checkpoint": (False, None)},
    "winding-sweep": {"--theta1": _REQUIRED, "--theta2-range": _REQUIRED, "--gamma-range": _REQUIRED,
                      "--nk": (False, 201), "--checkpoint": (False, None)},
    "chern-sweep": {"--theta1": _REQUIRED, "--theta2-range": _REQUIRED, "--gamma-x-range": _REQUIRED,
                    "--gamma-y": (False, 0.0), "--grid": (False, 51), "--checkpoint": (False, None)},
    "symmetry-check": {"--model": (False, "1d"), "--theta1": _REQUIRED, "--theta2": _REQUIRED,
                       "--gamma": (False, 0.0), "--gamma-x": (False, 0.0), "--gamma-y": (False, 0.0),
                       "--nk": (False, 201), "--tol": (False, 1e-10)},
    "chain-spectrum": {"--n": (False, 201), "--boundary": (False, 50), "--inner": _REQUIRED,
                       "--outer": _REQUIRED, "--gamma": (False, 0.0)},
    "strip-bands": {"--ny": (False, 201), "--boundary": (False, 50), "--inner": _REQUIRED,
                    "--outer": _REQUIRED, "--gamma-x": (False, 0.0), "--gamma-y": (False, 0.0),
                    "--kx-samples": (False, 64)},
    "figure": {"id": _REQUIRED},
}


def _subcommands() -> dict:
    parser = cli._build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_every_subcommand_keeps_its_flags_required_flags_and_defaults():
    got = {}
    for name, p in _subcommands().items():
        got[name] = {}
        for a in p._actions:
            if not isinstance(a, argparse._HelpAction):
                default = a.default.tolist() if isinstance(a.default, np.ndarray) else a.default
                got[name]["/".join(a.option_strings) or a.dest] = (a.required, default)
    assert got == _SURFACE
    assert sum(map(len, _SURFACE.values())) == 50


@pytest.mark.parametrize("name", list(_SURFACE))
def test_every_subcommand_answers_help(name):
    code, out = run_cli([name, "--help"])
    assert code == 0 and out.startswith(f"usage: lossywalk {name}")


# exit code, JSON error kind and category base of each exception a handler may raise
_FAILURES = {
    errors.ConvergenceFailure: (2, "numerical", ArithmeticError),
    errors.GapClosure: (2, "numerical", ArithmeticError),
    errors.OrthogonalLink: (2, "numerical", ArithmeticError),
    errors.DegenerateCoin: (2, "numerical", ArithmeticError),
    errors.NoBracket: (2, "numerical", ArithmeticError),
    errors.InvalidRegion: (1, "validation", ValueError),
    errors.CheckpointMismatch: (1, "validation", ValueError),
    ValueError: (1, "validation", ValueError),
    ArithmeticError: (2, "numerical", ArithmeticError),
    np.linalg.LinAlgError: (1, "validation", ValueError),
    OSError: (1, "io", OSError),
}


def test_every_package_error_has_a_listed_failure():
    declared = {c for _, c in inspect.getmembers(errors, inspect.isclass)
                if c.__module__ == errors.__name__}
    assert declared and declared <= set(_FAILURES)


@pytest.mark.parametrize("exc_type", list(_FAILURES), ids=lambda c: c.__name__)
def test_failure_category_follows_the_exception_base(monkeypatch, exc_type):
    code, kind, base = _FAILURES[exc_type]
    assert issubclass(exc_type, base)
    exc = exc_type([0.5]) if exc_type is errors.GapClosure else exc_type("boom")

    def handler(ns):
        raise exc

    monkeypatch.setattr(cli, "_cmd_winding", handler)
    got, out = run_cli(["--json", "winding", "--theta1", "0", "--theta2", "0"])
    message = f"{exc_type.__name__}: {exc}" if kind == "numerical" else str(exc)
    assert got == code
    assert json.loads(out) == {"error": kind, "message": message}


def test_table_csv_and_json_emission(tmp_path):
    table = sweep_phase_diagram_1d(np.array([-3 * np.pi / 8]), np.array([np.pi / 8, 5 * np.pi / 8]),
                                   n_k=51, workers=1)
    jpath = tmp_path / "t.json"
    cpath = tmp_path / "t.csv"
    write_table(table, str(jpath), "json")
    write_table(table, str(cpath), "csv")
    back = read_table(str(jpath))
    assert back.values.tobytes() == table.values.tobytes()
    lines = cpath.read_text().strip().split("\n")
    assert lines[0] == "theta1,theta2,value,status"
    assert len(lines) == 1 + 2  # header + one row per cell
    assert all(row.endswith(("ok", "gap_closed", "error")) for row in lines[1:])


def test_sweep_command_emits_files(tmp_path):
    code, _ = run_cli(["--outdir", str(tmp_path), "winding-sweep",
                       "--theta1", "-3pi/8", "--theta2-range", "pi/8:5pi/8:2",
                       "--gamma-range", "0:0.2:2", "--nk", "51"])
    assert code == 0
    assert (tmp_path / "winding_sweep.json").exists()
    assert (tmp_path / "winding_sweep.csv").exists()
    assert (tmp_path / "winding_sweep_plot.py").exists()


def _assert_emitted_table(outdir, stem, direct):
    # json, csv and plot script on disk; the table equals the direct sweep's
    back = read_table(str(outdir / f"{stem}.json"))
    assert [(n, v.tolist()) for n, v in back.axes] == [(n, v.tolist()) for n, v in direct.axes]
    assert back.values.tobytes() == direct.values.tobytes()
    assert back.status.tobytes() == direct.status.tobytes()
    assert back.meta == direct.meta
    write_table(direct, str(outdir / "direct.csv"), "csv")
    assert (outdir / f"{stem}.csv").read_bytes() == (outdir / "direct.csv").read_bytes()
    assert (outdir / f"{stem}_plot.py").is_file()


def test_phase1d_command_matches_sweep(tmp_path):
    code, out = run_cli(["--outdir", str(tmp_path), "--workers", "1", "phase1d",
                         "--theta1-range=-pi:pi:5", "--theta2-range", "-pi/2:pi:4", "--nk", "51"])
    assert code == 0
    assert out == f"wrote {tmp_path}/phase1d.json, .csv and phase1d_plot.py\n"
    direct = sweep_phase_diagram_1d(parse_range("-pi:pi:5"), parse_range("-pi/2:pi:4"), 51,
                                    workers=1)
    _assert_emitted_table(tmp_path, "phase1d", direct)


def test_chern_sweep_command_matches_sweep(tmp_path):
    code, out = run_cli(["--outdir", str(tmp_path), "--workers", "1", "chern-sweep",
                         "--theta1", "pi/4", "--theta2-range", "0:2pi:3",
                         "--gamma-x-range", "0:0.4:2", "--gamma-y", "0.1", "--grid", "11"])
    assert code == 0
    assert out == f"wrote {tmp_path}/chern_sweep.json, .csv and chern_sweep_plot.py\n"
    direct = sweep_chern_vs_gamma(parse_angle("pi/4"), parse_range("0:2pi:3"),
                                  parse_range("0:0.4:2"), 0.1, 11, workers=1)
    _assert_emitted_table(tmp_path, "chern_sweep", direct)


def test_plot_script_deterministic_and_runnable(tmp_path):
    pytest.importorskip("matplotlib")
    code, _ = run_cli(["--outdir", str(tmp_path), "winding-sweep",
                       "--theta1", "-3pi/8", "--theta2-range", "pi/8:5pi/8:3",
                       "--gamma-range", "0:0.3:3", "--nk", "51"])
    assert code == 0
    script = tmp_path / "winding_sweep_plot.py"
    first = script.read_bytes()
    code, _ = run_cli(["--outdir", str(tmp_path), "winding-sweep",
                       "--theta1", "-3pi/8", "--theta2-range", "pi/8:5pi/8:3",
                       "--gamma-range", "0:0.3:3", "--nk", "51"])
    assert script.read_bytes() == first  # byte-identical regeneration
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "winding_sweep.png").exists()


def test_plot_script_byte_identical_and_compiles(tmp_path):
    # the matplotlib-free half of the check above: regeneration is
    # byte-identical, the script compiles, and its data files sit next to it
    args = ["--outdir", str(tmp_path), "winding-sweep",
            "--theta1", "-3pi/8", "--theta2-range", "pi/8:5pi/8:3",
            "--gamma-range", "0:0.3:3", "--nk", "51"]
    code, _ = run_cli(args)
    assert code == 0
    script = tmp_path / "winding_sweep_plot.py"
    first = script.read_bytes()
    code, _ = run_cli(args)
    assert code == 0
    assert script.read_bytes() == first
    compile(first, str(script), "exec")
    data_files = {node.value for node in ast.walk(ast.parse(first))
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.endswith((".json", ".csv"))}
    assert "winding_sweep.json" in data_files
    assert all((tmp_path / name).is_file() for name in data_files), data_files


def test_figure_six_emits_four_spectra(tmp_path):
    code, _ = run_cli(["--outdir", str(tmp_path), "figure", "6"])
    assert code == 0
    files = sorted(p.name for p in tmp_path.glob("fig6_gamma*.csv"))
    assert len(files) == 4
    assert (tmp_path / "fig6_plot.py").exists()
    # gamma list from the caption: 0, 0.2, 0.2110, 0.25
    assert files == ["fig6_gamma0.0.csv", "fig6_gamma0.2.csv",
                     "fig6_gamma0.211.csv", "fig6_gamma0.25.csv"]
    # chain-spectrum on the figure's chain writes the same bytes at one loss,
    # and its stdout line is the one the benchmark parses
    chain = tmp_path / "chain"
    code, out = run_cli(["--outdir", str(chain), "chain-spectrum", "--n", "201",
                         "--boundary", "50", "--inner=-3pi/8,5pi/8", "--outer=-3pi/8,pi/4",
                         "--gamma", "0.2"])
    assert code == 0
    assert (chain / "chain_spectrum.csv").read_bytes() == (tmp_path / "fig6_gamma0.2.csv").read_bytes()
    assert (chain / "chain_spectrum_plot.py").exists()
    m = re.search(r"(\d+) eigenvalues, (\d+) edge state", out)
    assert m is not None and m.group(1) == "402"


def test_chain_spectra_are_bit_equal_at_one_and_two_workers(tmp_path, capsys):
    spec = RegionSpec(25, cli.parse_pair("-3pi/8,5pi/8"), cli.parse_pair("-3pi/8,pi/4"))
    gammas = [0.0, 0.2, 0.25]
    for workers in (1, 2):
        cli._emit_chains(spec, 101, gammas, str(tmp_path / str(workers)), ["a", "b", "c"], "chains", workers)
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == lines[3:] and "edge state" in lines[0]
    for stem in ("a", "b", "c", "chains_plot"):
        name = f"{stem}.py" if stem == "chains_plot" else f"{stem}.csv"
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_strip_bands_emits_columns_and_plot(tmp_path):
    ny, kx = 11, 8
    code, out = run_cli(["--outdir", str(tmp_path), "strip-bands", "--ny", str(ny),
                         "--boundary", "2", "--inner", "7pi/6,7pi/6", "--outer", "3pi/2,pi",
                         "--gamma-x", "0.1", "--gamma-y", "0.1", "--kx-samples", str(kx)])
    assert code == 0
    lines = (tmp_path / "strip_bands.csv").read_text().splitlines()
    assert lines[0].split(",") == ["kx"] + [f"e{j}" for j in range(2 * ny)]
    assert len(lines) == 1 + kx and all(len(row.split(",")) == 2 * ny + 1 for row in lines)
    assert (tmp_path / "strip_bands_plot.py").exists()
    assert out == f"wrote {tmp_path}/strip_bands.csv and strip_bands_plot.py\n"


def test_figure_choices_are_the_papers_figures():
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    figure_id = next(a for a in commands.choices["figure"]._actions if a.dest == "id")
    assert set(figure_id.choices) == {"2a", "2b", "3", "4", "5", "6", "7", "8"}


def test_figure_three_trajectories(tmp_path):
    code, _ = run_cli(["--outdir", str(tmp_path), "figure", "3"])
    assert code == 0
    assert len(list(tmp_path.glob("fig3_case*.csv"))) == 4
    assert (tmp_path / "fig3_plot.py").exists()


def test_figure_seven_partition(tmp_path):
    code, _ = run_cli(["--outdir", str(tmp_path), "figure", "7"])
    assert code == 0
    text = (tmp_path / "fig7_partition.csv").read_text().splitlines()
    assert text[0].startswith("site,theta1,theta2")
    assert "edge0_prob" in text[0] and "edge1_prob" in text[0]
    assert len(text) == 1 + 201


def test_config_is_spliced_after_the_subcommand_not_after_an_option_value(tmp_path):
    # "figure" here is the value of --outdir, not the subcommand
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"nk": 51}))
    code, out = run_cli(["--outdir", "figure", "--config", str(cfg), "winding",
                         "--theta1", "-3pi/8", "--theta2", "pi/4"])
    assert code == 0
    assert out == run_cli(["winding", "--theta1", "-3pi/8", "--theta2", "pi/4", "--nk", "51"])[1]
    code, out = run_cli(["--json", f"--config={cfg}"])
    assert code == 1
    assert json.loads(out)["message"] == "config file given but no subcommand found"


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_are_rejected(workers):
    code, out = run_cli(["--json", "--workers", workers, "winding", "--theta1", "0", "--theta2", "0"])
    assert code == 1
    assert json.loads(out) == {"error": "validation",
                               "message": f"lossywalk: argument --workers: must be >= 1, got {workers}"}


@pytest.mark.parametrize("args, message", [
    (["chern", "--theta1", "pi/4", "--theta2", "pi/2", "--grid", "0"],
     "grid sizes must be positive, got 0 x 0"),
    (["chern", "--theta1", "pi/4", "--theta2", "pi/2", "--grid", "-2"],
     "grid sizes must be positive, got -2 x -2"),
    (["chern-sweep", "--theta1", "pi/4", "--theta2-range", "0:1:2", "--gamma-x-range", "0:1:2",
      "--grid", "0"], "grid must be positive, got 0"),
    (["phase1d", "--theta1-range", "0:1:2", "--theta2-range", "0:1:2", "--nk", "0"],
     "n_k must be positive, got 0"),
    (["winding-sweep", "--theta1", "-3pi/8", "--theta2-range", "0:1:2", "--gamma-range", "0:1:2",
      "--nk", "-1"], "n_k must be positive, got -1"),
    # the dense commands too: rejected input leaves no --outdir behind
    (["strip-bands", "--ny", "11", "--boundary", "2", "--inner", "0.3,0.4", "--outer", "1.0,2.0",
      "--kx-samples", "0"], "n_points must be positive"),
    (["chain-spectrum", "--n", "20", "--inner=-3pi/8,5pi/8", "--outer=-3pi/8,pi/4"],
     "ring size must be odd, got 20"),
    (["chain-spectrum", "--n", "21", "--boundary", "0", "--inner=-3pi/8,5pi/8", "--outer=-3pi/8,pi/4"],
     "boundary 0 outside (0, 10) for 21 sites"),
])
def test_grid_sizes_below_one_are_bad_input_and_write_nothing(tmp_path, args, message):
    code, out = run_cli(["--json", "--outdir", str(tmp_path / "out"), *args])
    assert (code, json.loads(out)) == (1, {"error": "validation", "message": message})
    assert not (tmp_path / "out").exists()


def test_a_failing_loss_leaves_no_partial_figure(monkeypatch, tmp_path):
    # figure 6's third loss fails after the first two are solved: nothing is written
    def build(n, spec, gamma):
        if gamma == 0.211:
            raise errors.ConvergenceFailure("Eigenvalues did not converge")
        return lattice.build_chain_operator(n, spec, gamma)

    monkeypatch.setattr(cli, "build_chain_operator", build)
    code, out = run_cli(["--json", "--workers", "1", "--outdir", str(tmp_path / "out"), "figure", "6"])
    assert (code, json.loads(out)) == (2, {"error": "numerical",
                                           "message": "ConvergenceFailure: Eigenvalues did not converge"})
    assert not (tmp_path / "out").exists()


def test_strip_emitter_solves_every_loss_before_writing(monkeypatch, tmp_path):
    def solve(spec, n_y, kx_samples, gamma_x, gamma_y, workers=None):
        if gamma_x:
            raise errors.ConvergenceFailure("Eigenvalues did not converge")
        return lattice.strip_band_structure(spec, n_y, kx_samples, gamma_x, gamma_y, workers=workers)

    monkeypatch.setattr(cli, "strip_band_structure", solve)
    spec = RegionSpec(2, cli.parse_pair("7pi/6,7pi/6"), cli.parse_pair("3pi/2,pi"))
    with pytest.raises(errors.ConvergenceFailure):
        cli._emit_strips(spec, 11, 4, [(0.0, 0.0), (0.2, 0.2)], str(tmp_path / "out"), ["a", "b"],
                         "strips", ["g=0", "g=0.2"], 1)
    assert not (tmp_path / "out").exists()


_CHAIN_ARGS = ["chain-spectrum", "--n", "21", "--boundary", "4", "--inner=-3pi/8,5pi/8", "--outer=-3pi/8,pi/4"]
_STRIP_ARGS = ["strip-bands", "--ny", "11", "--boundary", "2", "--inner", "7pi/6,7pi/6", "--outer", "3pi/2,pi",
               "--kx-samples", "4"]


@pytest.mark.parametrize("args", [_CHAIN_ARGS, _STRIP_ARGS], ids=["chain", "strip"])
def test_dense_failures_are_reported_alike_by_chain_and_strip(monkeypatch, tmp_path, args):
    # both commands solve through linalg.eig_general: a non-finite operator is
    # bad input, and a LAPACK failure is numerical
    def with_nan(build):
        def build_nan(*a):
            op = build(*a)
            op[0, 0] = np.nan
            return op
        return build_nan

    monkeypatch.setattr(cli, "build_chain_operator", with_nan(cli.build_chain_operator))
    monkeypatch.setattr(lattice, "build_strip_operator", with_nan(lattice.build_strip_operator))
    argv = ["--json", "--workers", "1", "--outdir", str(tmp_path), *args]
    code, out = run_cli(argv)
    assert (code, json.loads(out)) == (1, {"error": "validation", "message": "matrix entries must be finite"})
    monkeypatch.undo()

    def fail(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", fail)
    monkeypatch.setattr(np.linalg, "eigvals", fail)
    code, out = run_cli(argv)
    assert (code, json.loads(out)) == (2, {"error": "numerical",
                                           "message": "ConvergenceFailure: Eigenvalues did not converge"})


_PHASE1D_ARGS = ["phase1d", "--theta1-range", "0:1:3", "--theta2-range", "0:1:3", "--nk", "21"]


@pytest.mark.parametrize("cut", [
    lambda raw: b"",
    lambda raw: raw[:48],
    lambda raw: raw[:-1],
    lambda raw: raw + b"\x00",
], ids=["empty", "header_only", "one_byte_short", "one_byte_long"])
def test_checkpoint_of_the_wrong_size_is_bad_input(tmp_path, cut):
    ck = tmp_path / "p.ckpt"
    assert run_cli(["--outdir", str(tmp_path / "first"), *_PHASE1D_ARGS, "--checkpoint", str(ck)])[0] == 0
    ck.write_bytes(cut(ck.read_bytes()))
    code, out = run_cli(["--json", "--outdir", str(tmp_path / "out"), *_PHASE1D_ARGS,
                         "--checkpoint", str(ck)])
    assert (code, json.loads(out)) == (1, {"error": "validation",
                                           "message": f"{ck} does not match this sweep configuration"})
    assert not (tmp_path / "out").exists()


def test_checkpoint_in_a_missing_directory_fails_before_the_first_row(monkeypatch, tmp_path):
    rows = []
    monkeypatch.setattr(sweeps, "_winding_gamma_row", lambda cells: rows.append(cells))
    ck = tmp_path / "nodir" / "p.ckpt"
    code, out = run_cli(["--json", "--workers", "1", "--outdir", str(tmp_path / "out"), *_PHASE1D_ARGS,
                         "--checkpoint", str(ck)])
    assert (code, json.loads(out)) == (1, {
        "error": "io",
        "message": f"cannot write checkpoint to {ck}: [Errno 2] No such file or directory: '{ck}'"})
    assert rows == []
    assert not (tmp_path / "out").exists() and not ck.parent.exists()


def _fail_on_call(n, real):
    """``real`` on the first 2 x 2 cells of its grid for the first n - 1 calls, then a ValueError."""
    calls = []

    def wrapped(theta1, theta2s, gammas, *args, **kwargs):
        calls.append(theta1)
        if len(calls) == n:
            raise ValueError("injected failure")
        return real(theta1, theta2s[:2], gammas[:2], *args, **kwargs)

    return wrapped


@pytest.mark.parametrize("figure, name, n", [("4", "sweep_winding_vs_gamma", 3),
                                             ("5", "sweep_chern_vs_gamma", 6)])
def test_a_failing_panel_leaves_no_partial_figure(monkeypatch, tmp_path, figure, name, n):
    # every panel is solved before the first is written: one JSON line, no --outdir
    monkeypatch.setattr(cli, name, _fail_on_call(n, getattr(cli, name)))
    code, out = run_cli(["--json", "--workers", "1", "--outdir", str(tmp_path / "out"), "figure", figure])
    assert (code, out.count("\n"), json.loads(out)) == (
        1, 1, {"error": "validation", "message": "injected failure"})
    assert not (tmp_path / "out").exists()


def test_a_failing_trajectory_leaves_no_partial_figure(monkeypatch, tmp_path):
    # figure 3's fourth case is the only one at g = 3.0
    def bloch(p, k):
        if p.gamma == 3.0:
            raise ValueError("injected failure")
        return real(p, k)

    real = cli.bloch_ssqw
    monkeypatch.setattr(cli, "bloch_ssqw", bloch)
    code, out = run_cli(["--json", "--outdir", str(tmp_path / "out"), "figure", "3"])
    assert (code, out.count("\n"), json.loads(out)) == (
        1, 1, {"error": "validation", "message": "injected failure"})
    assert not (tmp_path / "out").exists()
