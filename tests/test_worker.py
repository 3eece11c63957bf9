"""The fork helper: a callable run in a forked child, its outcome returned.

The tests set the CPU count with the ``set_cpus`` fixture; the
``fork_pids`` fixture records every child.
"""

import os
import time

import pytest

import memwave as mw
from memwave.worker import Worker


def _reaped(pid):
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
    return True


@pytest.mark.parametrize("cpus", [1, 2])
def test_value_and_exception_are_the_callers(fork_pids, set_cpus, cpus):
    set_cpus(cpus)
    with Worker(lambda: {"pid": os.getpid(), "x": [1.5]}) as worker:
        value = worker.result()
    assert value["x"] == [1.5]
    assert (value["pid"] != os.getpid()) == (cpus > 1)

    def unstable():
        raise mw.NumericalInstabilityError("non-finite w at row 3")

    with Worker(unstable) as worker:
        with pytest.raises(mw.NumericalInstabilityError) as exc:
            worker.result()
    assert str(exc.value) == "non-finite w at row 3"
    assert len(fork_pids) == (2 if cpus > 1 else 0)
    assert all(_reaped(pid) for pid in fork_pids)
    assert worker.exitcode == (1 if cpus > 1 else None)


def test_one_cpu_or_no_fork_runs_in_the_caller_at_result(monkeypatch, fork_pids,
                                                         set_cpus):
    calls = []
    set_cpus(2)
    worker = Worker(lambda: calls.append(os.getpid()) or len(calls), fork=False)
    assert calls == []  # nothing runs before result()
    assert worker.result() == 1 and calls == [os.getpid()]
    monkeypatch.delattr(os, "sched_getaffinity")  # a platform that cannot ask
    assert Worker(lambda: 2).result() == 2
    assert fork_pids == [] and worker.pid is None


def test_a_child_that_dies_without_a_report_fails_by_status(fork_pids, set_cpus):
    set_cpus(2)
    with Worker(lambda: os._exit(7)) as worker:
        with pytest.raises(ChildProcessError, match=f"worker {worker.pid} exited "
                                                   "with status 7"):
            worker.result()
    assert _reaped(fork_pids[0])


def test_leaving_the_block_kills_and_reaps_the_child(fork_pids, set_cpus):
    set_cpus(2)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="caller fault"):
        with Worker(lambda: time.sleep(60)) as worker:
            raise RuntimeError("caller fault")
    assert time.monotonic() - start < 30
    assert worker.exitcode == -9  # SIGKILL
    assert _reaped(fork_pids[0])
