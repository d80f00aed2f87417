"""The one process pool: sweep rows and dense solves, fanned out the same way.

``_run_rows`` maps a function over a list of argument tuples and yields the
results in list order, so a caller that stores each result in its own slot
gets the same output at every worker count.  For two or more tasks and more
than one worker it forks ``min(workers, tasks)`` children; elsewhere, and
where ``os.fork`` does not exist, it runs them serially in this process.

The children inherit ``row_fn`` and the task list, so nothing is pickled on
the way in, and they inherit the parent's module globals (including any
wrapper installed on them) and its BLAS thread count.  Each child takes the
next task index from one shared pipe (a 4-byte read, atomic on a pipe), so
a child on a slower core simply takes fewer rows.  It writes each result,
or the exception its task raised, as a length-framed pickle to its own pipe,
and ends with ``os._exit`` once the index pipe is closed.  The parent runs
no threads.  It writes two indices per worker (at most ``PIPE_BUF`` bytes)
before the fork and one more for each result that comes back, so the index
pipe never fills, and closes it after the last index.  It polls the result
pipes and yields each row as soon as it and every row before it are in.
Once a child dies, no more indices go out and the queued ones are taken
back; the rows that the live children finish are yielded in order, then
``BrokenProcessPool`` is raised.  Leaving the generator early, or any
error, kills and reaps every child.

``_run_rows`` first sets ``linalg._process_policy``, so the children
inherit it.  Dense solves (``lattice``, ``cli``) go through ``_run_dense``,
which pools only where that policy pinned a BLAS library: forked children
at the default BLAS threads compete for the same cores and run slower than
one serial solve at a time.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import struct

from . import linalg

_INDEX = struct.Struct("<I")  # one task index on the shared pipe
_FRAME = struct.Struct("<Q")  # byte length of one pickled (index, ok, value) result


def _workers(workers: int | None) -> int:
    if workers is not None:
        return max(1, int(workers))
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _run_dense(row_fn, args_list, workers: int | None) -> list:
    """All rows of ``_run_rows`` for dense solves: serial where ``linalg`` found no BLAS to pin."""
    return list(_run_rows(row_fn, args_list, workers if linalg._process_policy() else 1))


def _run_rows(row_fn, args_list, workers: int | None):
    """Yield row_fn over args_list in order, each as soon as it is done; fork only if it pays."""
    linalg._process_policy()
    n = min(_workers(workers), len(args_list))
    if n <= 1 or not hasattr(os, "fork"):
        yield from map(row_fn, args_list)
        return
    yield from _forked(row_fn, args_list, n)


def _forked(row_fn, args_list, n_workers: int):
    index_r, index_w = os.pipe()
    # the pipe never holds more than this first batch, so no write of an index can block
    sent = min(len(args_list), 2 * n_workers, select.PIPE_BUF // _INDEX.size)
    os.write(index_w, b"".join(map(_INDEX.pack, range(sent))))
    children = {}  # result pipe (read end) -> [pid, unread bytes]
    try:
        for _ in range(n_workers):
            out_r, out_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(row_fn, args_list, index_r, index_w, out_w)
            os.close(out_w)
            children[out_r] = [pid, bytearray()]
        poller = select.poll()
        for fd in children:
            poller.register(fd, select.POLLIN)
        done, nxt, broken = {}, 0, None
        while True:
            while nxt in done:
                ok, value = done.pop(nxt)
                if not ok:
                    raise value
                yield value
                nxt += 1
            if nxt == len(args_list):
                return
            if not children:
                from concurrent.futures.process import BrokenProcessPool  # imports multiprocessing

                raise BrokenProcessPool(broken or "every worker exited with rows left")
            if sent == len(args_list) and index_w >= 0:
                os.close(index_w)  # no tasks left: each child exits at EOF
                index_w = -1
            while broken and os.read(index_r, select.PIPE_BUF):
                pass  # take back the queued indices, so the live workers stop after their rows
            for fd, _ in poller.poll():
                pid, buf = children[fd]
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    poller.unregister(fd)
                    os.close(fd)
                    del children[fd]
                    status = os.waitpid(pid, 0)[1]
                    if status:
                        broken = f"worker {pid} ended abruptly (wait status {status})"
                        sent = len(args_list)  # hand out no more tasks
                    continue
                buf += chunk
                while len(buf) >= _FRAME.size:
                    end = _FRAME.size + _FRAME.unpack_from(buf)[0]
                    if len(buf) < end:
                        break
                    i, ok, value = pickle.loads(buf[_FRAME.size : end])
                    del buf[:end]
                    done[i] = ok, value
                    if sent < len(args_list):  # one index in for each result out
                        os.write(index_w, _INDEX.pack(sent))
                        sent += 1
    finally:
        for fd, (pid, _) in children.items():  # not yet reaped, so kill cannot miss
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.close(index_r)
        if index_w >= 0:
            os.close(index_w)


def _child(row_fn, args_list, index_r: int, index_w: int, out_w: int) -> None:
    """A forked worker: run tasks by index until the index pipe is closed, then exit."""
    code = 1
    try:
        os.close(index_w)  # else no child would see EOF once the parent closes its copy
        while len(raw := os.read(index_r, _INDEX.size)) == _INDEX.size:
            (i,) = _INDEX.unpack(raw)
            try:
                data = pickle.dumps((i, True, row_fn(args_list[i])), pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                data = pickle.dumps((i, False, exc), pickle.HIGHEST_PROTOCOL)
            frame = memoryview(_FRAME.pack(len(data)) + data)
            while frame:
                frame = frame[os.write(out_w, frame) :]
        code = 0
    finally:
        os._exit(code)
