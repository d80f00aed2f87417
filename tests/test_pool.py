import ctypes
import operator
import os
import pickle
import subprocess
import sys
import time
import types
from concurrent.futures.process import BrokenProcessPool

import pytest

from lossywalk import cli, errors, linalg, pool
from lossywalk.errors import ConvergenceFailure


def _forks(monkeypatch) -> list[int]:
    """The pids of the workers forked from here on."""
    pids, real = [], os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


ERRORS = [c for c in vars(errors).values() if isinstance(c, type) and c.__module__ == errors.__name__]


@pytest.mark.parametrize("cls", ERRORS, ids=lambda c: c.__name__)
def test_every_error_survives_a_pickle_round_trip(cls):
    # a pooled result crosses the result pipe as a pickle
    exc = cls([0.1, 0.2]) if cls is errors.GapClosure else cls("a message")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls and str(back) == str(exc)
    assert getattr(back, "k_samples", None) == getattr(exc, "k_samples", None)


def test_more_tasks_than_the_index_pipe_holds_come_back_in_order():
    # more indices than one pipe holds (16 Ki at 4 bytes each): the parent sends one per
    # result that comes back, and the rows still come back in list order
    n = 20_000
    assert list(pool._run_rows(operator.neg, list(range(n)), 2)) == [-i for i in range(n)]
    # more workers than cores, each racing for the few indices in the pipe
    assert list(pool._run_rows(operator.neg, list(range(2000)), 5)) == [-i for i in range(2000)]


def _fails_in_worker(k):
    if k == 2:
        raise ConvergenceFailure(f"no convergence for task {k} in {os.getpid()}")
    return os.getpid()


def test_a_pooled_dense_failure_is_raised_in_the_parent_with_its_message(monkeypatch, fresh_policy):
    monkeypatch.setattr(linalg, "_openblas", lambda: (lambda: 1, lambda n: None))
    pids = _forks(monkeypatch)
    with pytest.raises(ConvergenceFailure, match="no convergence for task 2 in ") as info:
        pool._run_dense(_fails_in_worker, list(range(4)), 2)
    assert int(str(info.value).split()[-1]) in pids and len(pids) == 2


def test_closing_the_generator_leaves_no_worker_alive(monkeypatch):
    pids = _forks(monkeypatch)
    rows = pool._run_rows(lambda k: time.sleep(0.01) or k, list(range(50)), 2)
    assert next(rows) == 0
    rows.close()
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_without_fork_rows_run_serially_in_this_process(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert list(pool._run_rows(lambda _: os.getpid(), [0, 1, 2], 2)) == [os.getpid()] * 3


def _slow_row_zero_and_dying_row_one(k):
    if k == 0:
        time.sleep(0.3)
    elif k == 1:
        os._exit(3)
    return k


def test_a_dead_worker_lets_the_live_one_finish_its_row_first(monkeypatch):
    # row 1's worker dies at once while row 0 is still running in the other:
    # row 0 is yielded, then the pool raises, and every worker is reaped
    pids = _forks(monkeypatch)
    rows = pool._run_rows(_slow_row_zero_and_dying_row_one, [0, 1, 2, 3], 2)
    assert next(rows) == 0
    with pytest.raises(BrokenProcessPool, match=r"ended abruptly \(wait status 768\)"):
        next(rows)
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _fake_libc(monkeypatch, **symbols) -> None:
    """Make every ``ctypes.CDLL`` this C library, and stub the BLAS lookup, which opens one too."""
    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(**symbols))
    monkeypatch.setattr(linalg, "_openblas", lambda: None)


def _recording_mallopt(calls: list):
    def mallopt(param, value):
        calls.append((param, value))
        return 1

    return mallopt


@pytest.mark.skipif(os.name != "posix", reason="the policy is looked up in the C library of a POSIX process")
def test_the_heap_policy_sets_both_thresholds_once_per_process(monkeypatch, fresh_policy):
    calls = []
    _fake_libc(monkeypatch, mallopt=(mallopt := _recording_mallopt(calls)))
    assert list(pool._run_rows(operator.neg, [1, 2], 1)) == [-1, -2]
    # forked workers inherit the policy and make no call of their own
    assert list(pool._run_rows(lambda _: len(calls), [0, 1, 2], 2)) == [2, 2, 2]
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
    assert mallopt.argtypes == [ctypes.c_int, ctypes.c_int] and mallopt.restype is ctypes.c_int


@pytest.mark.skipif(os.name != "posix", reason="the policy is looked up in the C library of a POSIX process")
def test_a_cli_command_that_runs_no_pool_sets_the_heap_policy(monkeypatch, fresh_policy):
    # the CLI owns its process: a single chern cell gets the policy too
    calls = []
    _fake_libc(monkeypatch, mallopt=_recording_mallopt(calls))
    args = ["chern", "--theta1", "3pi/8", "--theta2", "1.0", "--gamma-x", "0.7", "--gamma-y", "0.5", "--grid", "11"]
    assert cli.cli_dispatch(args) == 0 and cli.cli_dispatch(args) == 0
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]


def test_a_c_library_without_mallopt_leaves_the_pool_working(monkeypatch, fresh_policy):
    _fake_libc(monkeypatch)
    assert list(pool._run_rows(operator.neg, list(range(5)), 2)) == [0, -1, -2, -3, -4]
    assert list(pool._run_rows(operator.neg, [7], 1)) == [-7]


_ROW_FAULTS = """
import resource
import numpy as np
from lossywalk import pool, sweeps

def faults(cells):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    sweeps._chern_gamma_row(cells)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

cells = [(3 * np.pi / 8, 1.0, gamma_x, 0.5, 51) for gamma_x in (0.0, 0.7, 1.4)]
print(*pool._run_rows(faults, [cells, cells], 1))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc's allocator and Linux fault counts")
def test_a_chern_row_after_the_first_takes_no_fresh_pages():
    # a fresh interpreter, so no earlier test has grown glibc's own dynamic
    # thresholds; without the policy each 51x51 cell faults in about 60 pages
    src = os.path.dirname(os.path.dirname(os.path.abspath(pool.__file__)))
    proc = subprocess.run([sys.executable, "-c", _ROW_FAULTS], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    warm, second = map(int, proc.stdout.split())
    assert warm > 0  # the counter counts: the first row touches new pages
    assert second <= 5, (warm, second)


_CLI_FAULTS = """
import contextlib, io, resource
from lossywalk.cli import cli_dispatch

for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        cli_dispatch(["chern", "--theta1", "3pi/8", "--theta2", "1.0", "--gamma-x", "0.7", "--gamma-y", "0.5"])
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc's allocator and Linux fault counts")
def test_a_chern_command_after_the_first_takes_no_fresh_pages():
    # lossywalk chern at the default 201x201 grid runs no pool, yet its
    # process gets the policy: without it each call faults in over 1600 pages
    src = os.path.dirname(os.path.dirname(os.path.abspath(pool.__file__)))
    proc = subprocess.run([sys.executable, "-c", _CLI_FAULTS], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    first, *later = map(int, proc.stdout.split())
    assert first > 0  # the counter counts: the first call touches new pages
    assert max(later) <= 50, (first, later)
