import ast
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossywalk import cli
from lossywalk.cli import cli_dispatch, parse_angle, parse_range
from lossywalk.sweeps import sweep_phase_diagram_1d
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
        mp.setitem(cli._HANDLERS, "critical-gamma", lambda ns: seen.append(ns) or 0)
        mp.setitem(cli._HANDLERS, "phase1d", lambda ns: seen.append(ns) or 0)
        assert cli_dispatch(["critical-gamma", "--theta1", shorthand, "--theta2", repr(x)]) == 0
        assert cli_dispatch(["phase1d", "--theta1-range", f"{shorthand}:{x!r}:3"]) == 0
    assert seen[0].theta1.hex() == want.hex()
    assert seen[0].theta2.hex() == x.hex()
    np.testing.assert_array_equal(seen[1].theta1_range, np.linspace(want, x, 3))


def test_critical_gamma_command():
    code, out = run_cli(["critical-gamma", "--theta1", "-1.1781", "--theta2", "0.7854"])
    assert code == 0
    assert out.strip().startswith("0.2110")


def test_critical_gamma_channel_flags():
    code, out = run_cli(["critical-gamma", "--theta1", "-3pi/8", "--theta2", "5pi/8",
                         "--k0", "0", "--e0", "0"])
    assert code == 0
    assert abs(float(out) - 0.2832) < 5e-4


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
    assert "PT: " in out and "CS: " in out and "passed=True" in out


def test_validation_error_exit_code():
    code, _ = run_cli(["winding", "--theta1", "nonsense", "--theta2", "0"])
    assert code == 1


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
