"""One callable run in a forked child process, beside the caller's own work.

This module holds the package's fork policy: ``Worker`` is the only place
that forks, and ``usable_cpus`` is the CPU count every caller sizes its
workers by.  ``Worker(fn)`` forks a child that runs ``fn()`` at once, and
``result()`` returns the child's value, or raises the exception the child
raised, with the same type and message.  It forks only when this process
may run on more than one CPU and the platform has ``fork``; otherwise, or
when the caller passes ``fork=False``, ``result()`` runs ``fn`` in the
caller, so the value and any exception are the same either way.  Leaving
the ``with`` block without ``result()``, or through an exception, kills
and reaps the child.

Fork safety: the child is a copy of the caller with only the forking
thread, so it must not need a lock that another thread held at the fork.
This package's Python runs on one thread, and it forks only between BLAS
calls: OpenBLAS shuts its idle thread pool down at the fork (its
``pthread_atfork`` handler) and the child starts its own at its first BLAS
call, so a child may call BLAS at any BLAS thread count.  A caller that
runs threads of its own must not fork while they hold locks.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import traceback
from typing import Callable, NoReturn

__all__ = ["Worker", "usable_cpus"]


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot ask or cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


class Worker:
    """``fn()`` run in a forked child when more than one CPU is usable.

    ``pid`` is the child's, or None when ``fn`` runs in the caller;
    ``exitcode`` is set once the child is reaped.
    """

    def __init__(self, fn: Callable[[], object], *, fork: bool = True):
        self._fn = fn
        self.pid: int | None = None
        self.exitcode: int | None = None
        self._report: int | None = None  # read end of the child's report pipe
        if fork and usable_cpus() > 1:
            self._start()

    def __enter__(self) -> Worker:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _start(self) -> None:
        read, write = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(read)
            os.close(write)
            raise
        if pid == 0:
            os.close(read)
            _run_child(self._fn, write)
        os.close(write)
        self.pid, self._report = pid, read

    def result(self):
        """The value of ``fn()``; raises what ``fn`` raised."""
        if self.pid is None:
            return self._fn()
        with open(self._report, "rb") as pipe:
            self._report = None
            report = pipe.read()
        self.exitcode = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        if report:
            ok, value = pickle.loads(report)
            if not ok:
                raise value
            if self.exitcode == 0:
                return value
        raise ChildProcessError(f"worker {self.pid} exited with status {self.exitcode}")

    def close(self) -> None:
        """Kill and reap the child if it is not collected, so no zombie outlives us."""
        if self.pid is not None and self.exitcode is None:
            os.kill(self.pid, signal.SIGKILL)
            self.exitcode = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        if self._report is not None:
            os.close(self._report)
            self._report = None


def _run_child(fn: Callable[[], object], report: int) -> NoReturn:
    """Body of the forked child: run ``fn``, send the outcome through ``report``.

    ``os._exit`` is the only way out, so the child never returns into the
    caller's stack, flushes none of its inherited buffers and runs none of
    its exit handlers.  It sends ``(True, value)`` and exits 0, or sends
    ``(False, exception)`` and exits 1; an outcome it cannot send is printed
    to stderr, and the status alone tells the parent.
    """
    code = 1
    try:
        try:
            outcome = (True, fn())
            code = 0
        except Exception as exc:
            outcome = (False, exc)
        data = pickle.dumps(outcome)
        with open(report, "wb") as pipe:
            pipe.write(data)
    except BaseException:
        code = 1
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)
