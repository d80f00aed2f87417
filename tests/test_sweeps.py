import multiprocessing
import os
import signal
import time
import warnings
from concurrent.futures.process import BrokenProcessPool
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import winding_row_by_cells
from lossywalk import sweeps
from lossywalk.errors import CheckpointMismatch, DegenerateCoin
from lossywalk.sweeps import (
    STATUS_ERROR,
    STATUS_GAP_CLOSED,
    STATUS_OK,
    SweepTable,
    sweep_chern_2d,
    sweep_chern_vs_gamma,
    sweep_phase_diagram_1d,
    sweep_winding_vs_gamma,
)
from lossywalk.walks import min_positive_critical_gamma

T1S = np.linspace(-3 * np.pi / 8, -np.pi / 8, 3)
T2S = np.linspace(np.pi / 8, 5 * np.pi / 8, 4)


def test_phase_diagram_values_and_shape():
    table = sweep_phase_diagram_1d(np.array([-3 * np.pi / 8]), np.array([np.pi / 8, 5 * np.pi / 8]),
                                   n_k=201, workers=1)
    assert table.shape == (1, 2)
    grid = table.grid()
    assert abs(grid[0, 0] - 1.0) < 1e-6   # nontrivial phase
    assert abs(grid[0, 1]) < 1e-6          # trivial phase
    assert np.all(table.status == STATUS_OK)


def test_gapless_cells_get_markers_not_exceptions():
    # theta1 = -theta2 closes the gap at k = 0; grid with odd n_k dodges the
    # exact momentum, so force the even-grid closure case instead
    table = sweep_phase_diagram_1d(np.array([-np.pi / 2]), np.array([np.pi / 2]), n_k=200, workers=1)
    assert table.status[0] == STATUS_GAP_CLOSED
    assert np.isnan(table.values[0])


@st.composite
def winding_rows(draw):
    """One row of (theta1, theta2, gamma, n_k) cells at a shared theta1 and n_k.

    theta2 is either free or on a gap line theta1 +- theta2 in 2 pi Z (even
    n_k puts both closing momenta 0 and pi on the grid), and gamma runs from
    0 to twice the smallest critical scaling, so rows mix gapped, closed and
    complex-spectrum cells.
    """
    theta1 = draw(st.floats(-np.pi, np.pi))
    n_k = draw(st.sampled_from([16, 51, 64, 101, 200]))
    cells = []
    for _ in range(draw(st.integers(1, 8))):
        on_line = st.tuples(st.sampled_from([-1.0, 1.0]), st.sampled_from([-1, 0, 1]))
        theta2 = draw(st.one_of(st.floats(-np.pi, np.pi),
                                on_line.map(lambda sm: sm[0] * theta1 + 2 * np.pi * sm[1])))
        try:
            gamma_c = min(min_positive_critical_gamma(theta1, theta2), 1.0)
        except DegenerateCoin:
            gamma_c = 1.0
        cells.append((theta1, theta2, draw(st.floats(0.0, 2.0)) * gamma_c, n_k))
    return cells


@settings(derandomize=True, max_examples=150, deadline=None)
@given(winding_rows())
def test_batched_winding_row_equals_per_cell_loop(cells):
    with mock.patch.object(sweeps, "band_spectrum_1d", wraps=sweeps.band_spectrum_1d) as spy:
        vals, stat = sweeps._winding_gamma_row(cells)
    assert spy.call_count == 1  # the batch ran; no per-cell fallback
    want_vals, want_stat = winding_row_by_cells(cells)
    assert vals.tobytes() == want_vals.tobytes()
    assert stat.tobytes() == want_stat.tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_overflowing_cell_stays_error_next_to_ok_cells():
    # e^{2 gamma} overflows near gamma = 355: the scalar call ends in a NaN
    # winding (error), which the batch must not report as a gap closure
    cells = [(-3 * np.pi / 8, np.pi / 8, g, 51) for g in (0.1, 400.0, 0.2)]
    vals, stat = sweeps._winding_gamma_row(cells)
    want_vals, want_stat = winding_row_by_cells(cells)
    assert stat.tolist() == [STATUS_OK, STATUS_ERROR, STATUS_OK] == want_stat.tolist()
    assert vals.tobytes() == want_vals.tobytes()


def test_fig2a_row_runs_batched_without_warnings(monkeypatch):
    # a warning turned into an exception would send the row to the per-cell
    # fallback, so one band_spectrum_1d call also proves the batch was clean
    calls = []
    real = sweeps.band_spectrum_1d

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sweeps, "band_spectrum_1d", counting)
    t2s = np.linspace(-np.pi, np.pi, 101)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = sweep_phase_diagram_1d(np.array([-np.pi / 2]), t2s, n_k=201, workers=1)
    assert len(calls) == 1
    assert np.any(table.status == STATUS_GAP_CLOSED)
    want_vals, want_stat = winding_row_by_cells([(-np.pi / 2, t2, 0.0, 201) for t2 in t2s])
    assert table.values.tobytes() == want_vals.tobytes()
    assert table.status.tobytes() == want_stat.tobytes()


def test_determinism_across_worker_counts():
    a = sweep_winding_vs_gamma(-3 * np.pi / 8, T2S, np.linspace(0, 0.4, 3), n_k=101, workers=1)
    b = sweep_winding_vs_gamma(-3 * np.pi / 8, T2S, np.linspace(0, 0.4, 3), n_k=101, workers=2)
    assert a.values.tobytes() == b.values.tobytes()
    assert a.status.tobytes() == b.status.tobytes()


def test_cell_recomputed_in_isolation_matches():
    gammas = np.linspace(0, 0.4, 3)
    table = sweep_winding_vs_gamma(-3 * np.pi / 8, T2S, gammas, n_k=101, workers=1)
    single = sweep_winding_vs_gamma(-3 * np.pi / 8, T2S[2:3], gammas[1:2], n_k=101, workers=1)
    flat = 2 * len(gammas) + 1
    assert table.values[flat] == single.values[0]


def test_checkpoint_resume_identical(tmp_path):
    ck = tmp_path / "sweep.ckpt"
    full = sweep_winding_vs_gamma(-3 * np.pi / 8, T2S, np.linspace(0, 0.3, 3), n_k=101, workers=1)
    # run once with a checkpoint, then corrupt the last rows' completion bits
    first = sweep_winding_vs_gamma(-3 * np.pi / 8, T2S, np.linspace(0, 0.3, 3), n_k=101,
                                   workers=1, checkpoint=str(ck))
    raw = bytearray(ck.read_bytes())
    bitmap_off = 48
    raw[bitmap_off + 2 : bitmap_off + 4] = b"\x00\x00"  # pretend rows 2..3 never ran
    ck.write_bytes(bytes(raw))
    resumed = sweep_winding_vs_gamma(-3 * np.pi / 8, T2S, np.linspace(0, 0.3, 3), n_k=101,
                                     workers=1, checkpoint=str(ck))
    assert resumed.values.tobytes() == full.values.tobytes() == first.values.tobytes()
    assert resumed.status.tobytes() == full.status.tobytes()


def test_interrupted_sweep_keeps_finished_rows(tmp_path, monkeypatch):
    ck = tmp_path / "sweep.ckpt"
    gammas = np.linspace(0, 0.3, 3)
    full = sweep_winding_vs_gamma(-3 * np.pi / 8, T2S, gammas, n_k=101, workers=1)
    rows_done = 2
    calls = 0
    real = sweeps.band_spectrum_1d

    def interrupt_after_rows(*args, **kwargs):
        # one batched band_spectrum_1d call per row
        nonlocal calls
        if calls == rows_done:
            raise KeyboardInterrupt
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(sweeps, "band_spectrum_1d", interrupt_after_rows)
    with pytest.raises(KeyboardInterrupt):
        sweep_winding_vs_gamma(-3 * np.pi / 8, T2S, gammas, n_k=101, workers=1, checkpoint=str(ck))
    bitmap = np.frombuffer(ck.read_bytes()[48 : 48 + len(T2S)], dtype=np.uint8)
    assert bitmap.tolist() == [1] * rows_done + [0] * (len(T2S) - rows_done)
    monkeypatch.setattr(sweeps, "band_spectrum_1d", real)
    resumed = sweep_winding_vs_gamma(-3 * np.pi / 8, T2S, gammas, n_k=101, workers=1,
                                     checkpoint=str(ck))
    assert resumed.values.tobytes() == full.values.tobytes()
    assert resumed.status.tobytes() == full.status.tobytes()


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="pool workers must inherit the patched cell function")
def test_killed_worker_keeps_finished_rows(tmp_path, monkeypatch):
    # the first cell of row 1 kills its own pool worker, but only once row 0
    # is in the checkpoint; pool.map yields in order, so rows 2 and 3 are
    # never written even if they finish
    ck = tmp_path / "sweep.ckpt"
    marker = tmp_path / "resume"
    gammas = np.linspace(0, 0.3, 3)
    full = sweep_winding_vs_gamma(-3 * np.pi / 8, T2S, gammas, n_k=101, workers=1)
    real = sweeps.band_spectrum_1d
    test_pid = os.getpid()

    def kill_in_row_one(params, *args):
        if np.any(params.theta2 == T2S[1]) and not marker.exists() and os.getpid() != test_pid:
            deadline = time.monotonic() + 60.0
            while ck.read_bytes()[48] == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            os.kill(os.getpid(), signal.SIGKILL)
        return real(params, *args)

    monkeypatch.setattr(sweeps, "band_spectrum_1d", kill_in_row_one)
    with pytest.raises(BrokenProcessPool):
        sweep_winding_vs_gamma(-3 * np.pi / 8, T2S, gammas, n_k=101, workers=2, checkpoint=str(ck))
    bitmap = np.frombuffer(ck.read_bytes()[48 : 48 + len(T2S)], dtype=np.uint8)
    assert bitmap.tolist() == [1, 0, 0, 0]
    marker.touch()
    resumed = sweep_winding_vs_gamma(-3 * np.pi / 8, T2S, gammas, n_k=101, workers=2,
                                     checkpoint=str(ck))
    assert resumed.values.tobytes() == full.values.tobytes()
    assert resumed.status.tobytes() == full.status.tobytes()


@pytest.mark.parametrize("spectrum, sweep", [
    ("band_spectrum_1d",
     lambda: sweep_winding_vs_gamma(-3 * np.pi / 8, T2S[:2], np.array([0.0, 0.1]), n_k=51, workers=1)),
    ("band_spectrum_2d",
     lambda: sweep_chern_vs_gamma(np.pi / 4, T2S[:2], np.array([0.0, 0.1]), 0.0, grid=21, workers=1)),
])
def test_failing_cell_is_error_and_neighbours_are_ok(monkeypatch, spectrum, sweep):
    # a cell whose computation raises something other than a gap closure is
    # marked error with a NaN value; the rest of the row still runs.  The
    # winding row passes its cells as one batch, so the hook tests any cell
    real = getattr(sweeps, spectrum)

    def fail_at_second_theta2_second_gamma(params, *args):
        lossy = params.gamma if hasattr(params, "gamma") else params.gamma_x
        if np.any((params.theta2 == T2S[1]) & (lossy == 0.1)):
            raise ValueError("injected failure")
        return real(params, *args)

    monkeypatch.setattr(sweeps, spectrum, fail_at_second_theta2_second_gamma)
    table = sweep()
    assert table.status.tolist() == [STATUS_OK, STATUS_OK, STATUS_OK, STATUS_ERROR]
    assert np.isnan(table.values[3])
    assert not np.any(np.isnan(table.values[:3]))


def test_checkpoint_rejects_other_config(tmp_path):
    ck = tmp_path / "sweep.ckpt"
    sweep_winding_vs_gamma(-3 * np.pi / 8, T2S, np.linspace(0, 0.3, 3), n_k=101,
                           workers=1, checkpoint=str(ck))
    with pytest.raises(CheckpointMismatch):
        sweep_winding_vs_gamma(-3 * np.pi / 8, T2S, np.linspace(0, 0.3, 3), n_k=51,
                               workers=1, checkpoint=str(ck))


def test_winding_sweep_overlays_present():
    table = sweep_winding_vs_gamma(-3 * np.pi / 8, T2S, np.linspace(0, 0.2, 2), n_k=101, workers=1)
    ov = table.meta["overlays"]
    assert set(ov) == {"gamma_c_k0", "gamma_c_kpi"}
    assert len(ov["gamma_c_k0"]["values"]) == len(T2S)
    # anchor channel value appears in the overlay at theta2 = pi/4... not on
    # this grid; check the first theta2 = pi/8 instead against the closed form
    from lossywalk.walks import critical_gamma

    want = critical_gamma(-3 * np.pi / 8, T2S[0], 0.0, 0.0).gamma_c
    assert abs(ov["gamma_c_k0"]["values"][0] - want) < 1e-12


def test_winding_plateau_matches_zero_loss_value():
    gammas = np.array([0.0, 0.1])
    table = sweep_winding_vs_gamma(-3 * np.pi / 8, np.array([np.pi / 4]), gammas, n_k=201, workers=1)
    grid = table.grid()
    assert abs(grid[0, 1] - grid[0, 0]) < 1e-6  # persists below gamma_c = 0.2110


def test_chern_sweep_zero_loss_column_matches_phase_diagram():
    t2s = np.array([np.pi / 4, 7 * np.pi / 6])
    sweep = sweep_chern_vs_gamma(np.pi / 4, t2s, np.array([0.0, 0.8]), 0.0, grid=51, workers=1)
    diagram = sweep_chern_2d(np.array([np.pi / 4]), t2s, grid=51, workers=1)
    assert np.allclose(sweep.grid()[:, 0], diagram.grid()[0, :], equal_nan=True)


def test_table_roundtrip_json():
    table = sweep_phase_diagram_1d(np.array([-3 * np.pi / 8]), np.array([np.pi / 8]), n_k=51, workers=1)
    back = SweepTable.from_dict(table.to_dict())
    assert back.values.tobytes() == table.values.tobytes()
    assert back.status.tobytes() == table.status.tobytes()
    assert back.meta == table.meta
    assert [n for n, _ in back.axes] == [n for n, _ in table.axes]


def test_default_workers_follow_cpu_affinity(monkeypatch):
    monkeypatch.delenv(sweeps.WORKERS_ENV, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert sweeps._workers(None) == 3
    assert sweeps._workers(2) == 2
    monkeypatch.setenv(sweeps.WORKERS_ENV, "4")
    assert sweeps._workers(None) == 4
    monkeypatch.delenv(sweeps.WORKERS_ENV)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert sweeps._workers(None) == 8
