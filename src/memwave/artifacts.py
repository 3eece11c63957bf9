"""Deterministic on-disk artifacts (CSV tables, JSON reports).

Floats are written with %.17g (exact float64 round-trip) and JSON keys are
sorted, so re-running a command with the same inputs reproduces every
artifact byte for byte.  Wall-clock measurements live in their own file
(timings.json) for exactly this reason.

A CSV table is written in two steps, so that a caller can overlap its
formatting with other work: ``CsvWrite`` starts the write and its ``wait``
makes the file whole (``write_csv`` does both at once).  A table of more
than one write block (``cT.csv`` at large N) is split into contiguous row
runs, one per CPU this process may use, and the start forks one worker per
run, which formats its run into an unnamed temporary file in the target's
directory; the caller formats none of it and returns to its own work.  A
smaller table, or one on a single CPU, is formatted by the caller at the
wait.  The wait writes the header and the runs, in row order, to a
temporary name in the target's directory and renames it over the target
only once the table is whole, so a failed write leaves the old file or none.
The text of a row does not depend on the process that formats it, so the
file has the same bytes at any worker count.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import tempfile
import traceback

import numpy as np

from .errors import UsageError

__all__ = ["CsvWrite", "write_csv", "read_csv", "write_json", "read_json"]


# cells formatted per write: bounds the values and the text held in memory at
# once, whether the table is tall (a few columns) or wide (a matrix)
_CSV_BLOCK_CELLS = 3 << 16


class CsvWrite:
    """One CSV table being written: one column per header field.

    Entering the ``with`` block starts the formatting workers, if the table
    gets any; ``wait`` makes the table whole at ``path`` and returns how many
    processes formatted it.  Leaving the block without ``wait``, or through
    an exception, kills and reaps every worker and leaves ``path`` as it was.
    """

    def __init__(self, path: str, header: list[str], columns: list[np.ndarray]):
        cols = [np.asarray(c, dtype=float) for c in columns]
        if len(cols) != len(header) or any(c.shape != cols[0].shape for c in cols):
            raise UsageError("write_csv needs one equally-sized column per header field")
        self.path = path
        self._header = ",".join(header) + "\n"
        self._cols = cols
        self._row_fmt = ",".join(["%.17g"] * len(cols)) + "\n"
        self._rows = max(1, _CSV_BLOCK_CELLS // len(cols))  # at least one row a block
        n = cols[0].size
        runs = max(1, min(_usable_cpus(), -(-n // self._rows)))  # at most one per block
        self._bounds = [n * k // runs for k in range(runs + 1)]
        self._workers: list[tuple[int, object]] = []  # (pid, temporary file) per run

    def __enter__(self) -> CsvWrite:
        if len(self._bounds) > 2:
            try:
                self._start_workers()
            except BaseException:
                self.close()
                raise
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _start_workers(self) -> None:
        """Fork one worker per run, each formatting into its own temporary file.

        The workers only format Python floats and write a file: they call no
        BLAS and take no lock that another thread of this process could hold
        at the fork, so forking a process with idle BLAS threads is safe here.
        """
        outdir = os.path.dirname(os.path.abspath(self.path))
        for lo, hi in zip(self._bounds, self._bounds[1:]):
            tmp = tempfile.TemporaryFile(dir=outdir)
            try:
                pid = os.fork()
            except BaseException:
                tmp.close()
                raise
            if pid == 0:
                _run_worker(tmp, self._cols, self._row_fmt, self._rows, lo, hi)
            self._workers.append((pid, tmp))

    def wait(self) -> int:
        """Make the table whole at ``path``; returns how many processes formatted it."""
        outdir, name = os.path.split(os.path.abspath(self.path))
        tmp_path = os.path.join(outdir, f".{name}.{os.urandom(6).hex()}.tmp")
        runs = len(self._workers) or 1
        fh = open(tmp_path, "x", newline="\n")  # "x": never a file we did not make
        try:
            with fh:
                fh.write(self._header)
                if self._workers:
                    fh.flush()  # the runs go to the descriptor, after the header
                    self._append_runs(fh.fileno())
                else:
                    _format_rows(fh, self._cols, self._row_fmt, self._rows,
                                 0, self._bounds[-1])
            os.replace(tmp_path, self.path)
        except BaseException:
            os.unlink(tmp_path)
            raise
        return runs

    def _append_runs(self, out_fd: int) -> None:
        """Wait for each worker in row order and append its run to ``out_fd``."""
        while self._workers:
            pid, tmp = self._workers[0]
            status = os.waitpid(pid, 0)[1]
            self._workers.pop(0)
            with tmp:
                code = os.waitstatus_to_exitcode(status)
                if code != 0:
                    raise OSError(f"writing {self.path}: formatting worker {pid} "
                                  f"exited with status {code}")
                _append(out_fd, tmp.fileno())

    def close(self) -> None:
        """Kill and reap the workers not waited for, so no zombie outlives us."""
        while self._workers:
            pid, tmp = self._workers.pop()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            tmp.close()
        self._cols = []  # let the caller free the table's arrays


def write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> int:
    """Write one column per header field; returns how many processes formatted it."""
    with CsvWrite(path, header, columns) as table:
        return table.wait()


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
