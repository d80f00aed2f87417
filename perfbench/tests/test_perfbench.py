"""Self-tests of the benchmark: tracer arithmetic, worker spans, reference checker, run hygiene.

    python3 -m pytest -q perfbench/tests
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import reference
import spans
import workloads
from conftest import BENCH, ROOT


def _span(sid, parent, name, start, end, count=None, pid=1):
    return (sid, parent, name, start, end, count, pid)


def test_self_time_subtracts_union_of_children():
    trace = [
        _span(1, None, "a.outer", 0.0, 10.0),
        _span(2, 1, "b.child", 1.0, 4.0),
        _span(3, 1, "b.child", 3.0, 6.0, pid=2),  # overlaps span 2, as workers do
        _span(4, 1, "c.late", 8.0, 12.0),  # runs past its parent: clipped to 10
        _span(5, 2, "d.grandchild", 2.0, 3.0),
    ]
    selfs = spans.self_times(trace)
    assert selfs == {1: 3.0, 2: 2.0, 3: 3.0, 4: 4.0, 5: 1.0}
    agg = spans.by_name(trace)
    assert agg["b.child"]["calls"] == 2 and agg["b.child"]["self_s"] == 5.0


def test_layer_metrics_rates_and_tail():
    trace = [_span(1, None, "walks.u2d_k", 0.0, 2.0, count=4)]
    trace += [_span(10 + i, None, "sweeps.row", 0.0, float(i + 1), count=3, pid=7) for i in range(12)]
    m = spans.layer_metrics(trace, workers=2, root_pid=1)
    assert m["walks.u2d_k.ns_per_matrix"] == pytest.approx(0.5e9)
    assert m["sweeps.rows"] == 12 and m["sweeps.cells"] == 36
    assert m["sweeps.row_s.tail"] == 2.0  # 10 rows (3 s .. 12 s) lie beyond it
    assert m["sweeps.row_s.p50"] == 6.5


def test_per_layer_metric_names_all_produced():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    produced = set(spans.layer_metrics([], workers=1, root_pid=1))
    wanted = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_frac"}
    assert wanted <= produced


def test_nested_wrapped_calls_link_parent_and_child(tmp_path):
    tracer = spans.Tracer(str(tmp_path))
    inner = tracer.wrap(lambda x: x + 1, "m.inner")
    outer = tracer.wrap(lambda x: inner(x) * 2, "m.outer")
    assert outer(1) == 4
    (child, parent) = tracer.collect()
    assert child[2] == "m.inner" and parent[2] == "m.outer"
    assert child[1] == parent[0] and parent[1] is None


def test_worker_spans_reach_the_trace(tmp_path):
    from lossywalk import cli

    tracer = spans.Tracer(str(tmp_path / "spans"))
    os.makedirs(tracer.spill_dir)
    tracer.install()
    try:
        code = cli.cli_dispatch(["--outdir", str(tmp_path / "out"), "--workers", "2",
                                 "winding-sweep", "--theta1", "-pi/2", "--theta2-range",
                                 "0.3:2.8:4", "--gamma-range", "0:1:3", "--nk", "21"])
    finally:
        tracer.uninstall()
    assert code == 0
    trace = tracer.collect()
    root = tracer.root_pid
    sweep = [s for s in trace if s[2] == "sweeps.sweep_winding_vs_gamma"]
    rows = [s for s in trace if s[2] == "sweeps.row"]
    assert len(sweep) == 1 and len(rows) == 4
    assert all(r[6] != root and r[1] == sweep[0][0] for r in rows)
    m = spans.layer_metrics(trace, workers=2, root_pid=root)
    assert m["walks.u1d_ssqw_k.self_s"] > 0 and m["linalg.eig2_batch.self_s"] > 0
    assert m["sweeps.cells"] == 12 and m["sweeps.worker_span_frac"] > 0.5


@pytest.fixture(scope="module")
def ref():
    return reference.load_reference()


def _as_outputs(ref_entry):
    return copy.deepcopy(ref_entry)


def test_reference_matches_itself(ref):
    for name, entry in ref["workloads"].items():
        report = reference.Report()
        reference.compare_reference(_as_outputs(entry), entry, report)
        assert report.mismatches == [] and report.compared > 0, name


def test_checker_catches_flipped_status(ref):
    entry = ref["workloads"]["winding_loss"]
    out = _as_outputs(entry)
    table = out["tables"]["winding_0"]
    i = table["status"].index("ok")
    table["status"][i] = "gap_closed"
    report = reference.Report()
    reference.compare_reference(out, entry, report)
    assert report.mismatched == 1


def test_checker_catches_changed_integer_invariant(ref):
    entry = ref["workloads"]["chern_loss"]
    out = _as_outputs(entry)
    out["tables"]["chern"]["values"][17] += 1.0
    report = reference.Report()
    reference.compare_reference(out, entry, report)
    assert report.mismatched == 1


@pytest.mark.parametrize("where", ["winding", "ep", "chain", "strip"])
def test_checker_catches_float_moved_by_1e6(ref, where):
    name = "realspace" if where in ("chain", "strip") else "winding_loss"
    entry = ref["workloads"][name]
    out = _as_outputs(entry)
    if where == "winding":
        values = out["tables"]["winding_1"]["values"]
        values[values.index(next(v for v in values if v is not None))] += 1e-6
    elif where == "ep":
        out["eps"][5][3] += 1e-6
    elif where == "chain":
        out["chain"][2]["re_lambda"][100] += 1e-6
    else:
        out["strip"][0]["re_energies"][1][50] += 1e-6
    report = reference.Report()
    reference.compare_reference(out, entry, report)
    assert report.mismatched >= 1


def test_guarantees_flag_error_cells_and_distant_eps(ref):
    out = _as_outputs(ref["workloads"]["winding_loss"])
    for i, t in enumerate(out["tables"].values()):
        t["theta1"] = workloads.cli.parse_angle(workloads.WINDING_THETA1S[i])
    report = reference.Report()
    reference.check_guarantees(out, report)
    assert report.mismatches == []
    out["tables"]["winding_2"]["status"][0] = "error"
    out["eps"][0][3] += 2e-3
    report = reference.Report()
    reference.check_guarantees(out, report)
    assert report.mismatched == 2


def test_leftover_checkpoint_cannot_make_a_run_a_no_op(tmp_path):
    # a previous run's work directory, checkpoint included, must not be reused
    workdir = tmp_path / "out"
    workdir.mkdir()
    (workdir / "panel0.ckpt").write_bytes(b"LWCK")
    inputs = workloads.make_inputs("winding_loss", 0)
    with pytest.raises(FileExistsError):
        workloads.solve("winding_loss", inputs, str(workdir), 1)


def test_seeds_shift_axes_and_keep_sizes():
    base = workloads.make_inputs("chern_loss", 0)
    assert base == {"theta2_range": "0:2pi:31", "gamma_x_range": "0:2:31"}
    a, b = workloads.make_inputs("chern_loss", 3), workloads.make_inputs("chern_loss", 3)
    assert a == b and a != base
    axis = workloads.cli.parse_range(a["theta2_range"])
    ref_axis = workloads.cli.parse_range(base["theta2_range"])
    step = ref_axis[1] - ref_axis[0]
    assert len(axis) == 31 and 0 < axis[0] - ref_axis[0] < step


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "chern_loss",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
