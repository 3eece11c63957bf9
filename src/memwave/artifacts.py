"""Deterministic on-disk artifacts (CSV tables, JSON reports).

Floats are written with %.17g (exact float64 round-trip) and JSON keys are
sorted, so re-running a command with the same inputs reproduces every
artifact byte for byte.  Wall-clock measurements live in their own file
(timings.json) for exactly this reason.

A table of more than one write block (``cT.csv`` at large N) is formatted
by up to one process per CPU this process may use.  Its rows are split into
contiguous runs: the calling process formats the first run into the file,
and a forked worker formats each other run into an unnamed temporary file
in the same directory, whose bytes are then appended in order.  The text of
a row does not depend on the process that formats it, so the file has the
same bytes at any worker count.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import tempfile
import traceback
from contextlib import ExitStack

import numpy as np

from .errors import UsageError

__all__ = ["write_csv", "read_csv", "write_json", "read_json"]


# cells formatted per write: bounds the values and the text held in memory at
# once, whether the table is tall (a few columns) or wide (a matrix)
_CSV_BLOCK_CELLS = 3 << 16


def write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> int:
    """Write one column per header field; returns how many processes formatted it."""
    cols = [np.asarray(c, dtype=float) for c in columns]
    if len(cols) != len(header) or any(c.shape != cols[0].shape for c in cols):
        raise UsageError("write_csv needs one equally-sized column per header field")
    row_fmt = ",".join(["%.17g"] * len(cols)) + "\n"
    rows = max(1, _CSV_BLOCK_CELLS // len(cols))  # a block holds at least one row
    n = cols[0].size
    runs = max(1, min(_usable_cpus(), -(-n // rows)))  # at most one per block
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if runs == 1:
            _format_rows(fh, cols, row_fmt, rows, 0, n)
        else:
            _format_in_workers(fh, path, cols, row_fmt, rows, runs)
    return runs


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot ask or cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _format_rows(fh, cols, row_fmt: str, rows: int, start: int, stop: int) -> None:
    """Write rows [start, stop) of the table, at most ``rows`` per block."""
    for lo in range(start, stop, rows):
        block = np.column_stack([c[lo:min(lo + rows, stop)] for c in cols])
        fh.write((row_fmt * block.shape[0]) % tuple(block.ravel().tolist()))


def _format_in_workers(fh, path: str, cols, row_fmt: str, rows: int,
                       runs: int) -> None:
    """Split the rows into ``runs`` contiguous runs of near-equal length;
    format run 0 into ``fh`` and every later run in a forked worker.

    The workers only format Python floats and write a file: they call no
    BLAS and take no lock that another thread of this process could hold at
    the fork, so forking a process with idle BLAS threads is safe here.
    """
    n = cols[0].size
    bounds = [n * k // runs for k in range(runs + 1)]
    fh.flush()  # a worker must inherit no buffered text of this file
    outdir = os.path.dirname(os.path.abspath(path))
    workers: list[tuple[int, object]] = []  # (pid, temporary file) per run 1..
    with ExitStack() as files:
        try:
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                tmp = files.enter_context(tempfile.TemporaryFile(dir=outdir))
                pid = os.fork()
                if pid == 0:
                    _run_worker(tmp, cols, row_fmt, rows, lo, hi)
                workers.append((pid, tmp))
            _format_rows(fh, cols, row_fmt, rows, bounds[0], bounds[1])
            fh.flush()
            while workers:
                pid, tmp = workers[0]
                status = os.waitpid(pid, 0)[1]
                workers.pop(0)
                code = os.waitstatus_to_exitcode(status)
                if code != 0:
                    raise OSError(f"writing {path}: formatting worker {pid} "
                                  f"exited with status {code}")
                _append(fh.fileno(), tmp.fileno())
        finally:
            for pid, _ in workers:  # reap the rest, so no zombie outlives us
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _run_worker(tmp, cols, row_fmt: str, rows: int, start: int, stop: int) -> None:
    """Body of a forked worker: format its run into ``tmp``, then exit.

    ``os._exit`` is the only way out, so the worker never returns into the
    caller's stack, flushes none of its inherited buffers and runs none of
    its exit handlers; the status tells the parent whether the run is whole.
    """
    code = 1
    try:
        with open(tmp.fileno(), "w", newline="\n", closefd=False) as out:
            _format_rows(out, cols, row_fmt, rows, start, stop)
        code = 0
    except BaseException:
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)


def _append(out_fd: int, in_fd: int) -> None:
    """Copy all of ``in_fd`` to the position of ``out_fd`` inside the kernel."""
    offset = 0
    while sent := os.sendfile(out_fd, in_fd, offset, 1 << 30):
        offset += sent


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    if not os.path.exists(path):
        raise UsageError(f"missing input file: {path}")
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise UsageError(f"malformed CSV in {path}: {exc}") from None
    if data.size == 0 or data.shape[1] != len(header):
        raise UsageError(f"{path}: column count does not match header")
    return header, data


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: str) -> dict:
    if not os.path.exists(path):
        raise UsageError(f"missing input file: {path}")
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"malformed JSON in {path}: {exc}") from None
