import operator
import os
import pickle
import time

import pytest

from lossywalk import errors, linalg, pool
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


def test_a_pooled_dense_failure_is_raised_in_the_parent_with_its_message(monkeypatch, fresh_pin):
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
