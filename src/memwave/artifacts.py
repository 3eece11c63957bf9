"""Deterministic on-disk artifacts (CSV tables, JSON reports).

Floats are written as ``format(v, ".17g")`` writes them (exact float64
round-trip) and JSON keys are sorted, so re-running a command with the same
inputs reproduces every artifact byte for byte.  Wall-clock measurements
live in their own file (timings.json) for exactly this reason.

The cells of a CSV table are formatted by a numpy kernel that writes the
same bytes as ``format(v, ".17g")``.  It scales each ``|x|`` by a power of
ten in double-double arithmetic to the 17-digit integer ``D`` with
``1e16 <= D < 1e17``; the scaling errs by less than 2**-45, so rounding it
gives the correctly rounded digits unless the scaled value lies within 1e-6
of a half-integer.  Those cells, the non-finite ones and magnitudes outside
[1e-280, 1e280) are formatted one by one with ``format``; the catalogue
problems' tables have none.  The digits come from tables of 4-digit words and
are laid out in space-padded cells, whose spaces are dropped at the end.

A CSV table is written in two steps, so that a caller can overlap its
formatting with other work: ``CsvWrite`` starts the write and its ``wait``
makes the file whole (``write_csv`` does both at once).  A table of more
than one write block (``cT.csv`` at large N) is split into contiguous row
runs, one per CPU this process may use, and the start forks one worker per
run, which formats its run into an unnamed temporary file in the target's
directory (``worker.Worker``); the caller formats none of it and returns
to its own work.  A smaller table, or one on a single CPU, is formatted by
the caller at the wait.  The wait writes the header and the runs, in row
order, to a temporary name in the target's directory and renames it over
the target only once the table is whole, so a failed write leaves the old
file or none.
The text of a row does not depend on the process that formats it, so the
file has the same bytes at any worker count.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile

import numpy as np

from .errors import UsageError
from .worker import Worker, usable_cpus

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
        self._header = (",".join(header) + "\n").encode()
        self._cols = cols
        self._rows = max(1, _CSV_BLOCK_CELLS // len(cols))  # at least one row a block
        n = cols[0].size
        runs = max(1, min(usable_cpus(), -(-n // self._rows)))  # at most one per block
        self._bounds = [n * k // runs for k in range(runs + 1)]
        self._workers: list[tuple[Worker, object]] = []  # (worker, temporary file) per run

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
        """Start one worker per run, each formatting into its own temporary file."""
        outdir = os.path.dirname(os.path.abspath(self.path))
        for lo, hi in zip(self._bounds, self._bounds[1:]):
            tmp = tempfile.TemporaryFile(dir=outdir)
            try:
                worker = Worker(functools.partial(_format_run, tmp, self._cols, self._rows,
                                                  lo, hi))
            except BaseException:
                tmp.close()
                raise
            self._workers.append((worker, tmp))

    def wait(self) -> int:
        """Make the table whole at ``path``; returns how many processes formatted it."""
        outdir, name = os.path.split(os.path.abspath(self.path))
        tmp_path = os.path.join(outdir, f".{name}.{os.urandom(6).hex()}.tmp")
        runs = len(self._workers) or 1
        fh = open(tmp_path, "xb")  # "x": never a file we did not make
        try:
            with fh:
                fh.write(self._header)
                if self._workers:
                    fh.flush()  # the runs go to the descriptor, after the header
                    self._append_runs(fh.fileno())
                else:
                    _format_rows(fh, self._cols, self._rows, 0, self._bounds[-1])
            os.replace(tmp_path, self.path)
        except BaseException:
            os.unlink(tmp_path)
            raise
        return runs

    def _append_runs(self, out_fd: int) -> None:
        """Wait for each worker in row order and append its run to ``out_fd``."""
        for worker, tmp in self._workers:
            try:
                worker.result()
            except Exception as exc:
                raise OSError(f"writing {self.path}: formatting worker {worker.pid} "
                              f"exited with status {worker.exitcode}") from exc
            _append(out_fd, tmp.fileno())

    def close(self) -> None:
        """Kill and reap the workers not waited for, so no zombie outlives us."""
        while self._workers:
            worker, tmp = self._workers.pop()
            worker.close()
            tmp.close()
        self._cols = []  # let the caller free the table's arrays


def write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> int:
    """Write one column per header field; returns how many processes formatted it."""
    with CsvWrite(path, header, columns) as table:
        return table.wait()


def _format_rows(fh, cols, rows: int, start: int, stop: int) -> None:
    """Write rows [start, stop) of the table, at most ``rows`` per block."""
    for lo in range(start, stop, rows):
        fh.write(_csv_text(np.column_stack([c[lo:min(lo + rows, stop)] for c in cols])))


def _format_run(tmp, cols, rows: int, start: int, stop: int) -> None:
    """A worker's job: format rows [start, stop) into the temporary file ``tmp``."""
    with open(tmp.fileno(), "wb", closefd=False) as out:
        _format_rows(out, cols, rows, start, stop)


def _append(out_fd: int, in_fd: int) -> None:
    """Copy all of ``in_fd`` to the position of ``out_fd`` inside the kernel."""
    offset = 0
    while sent := os.sendfile(out_fd, in_fd, offset, 1 << 30):
        offset += sent


# The exact %.17g kernel.  A finite x != 0 is |x| = D * 10**(X - 16) after
# rounding to 17 significant digits, with 1e16 <= D < 1e17; %g writes D in
# fixed notation for -4 <= X < 17 and as d.ddd...e+XX otherwise, without
# trailing zeros.  Every 10**p the scaling needs over the fast range
# [1e-280, 1e280) is a pair of normal doubles.
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_P_MIN, _P_MAX = -265, 298  # 10**p for p = 16 - k, k = floor(log10 |x|) +- 1
_X_MIN, _X_MAX = -283, 282  # X over the fast range, with a step to spare
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two 26-bit halves
_TIE = 1e-6  # the scaling errs by < 2**-45; nearer a half-integer goes to format
_CELL = 32  # bytes of one space-padded cell: prefix, 16 digits, exponent
_SLICE_CELLS = 1 << 14  # cells per kernel pass: its temporaries stay in cache


@functools.cache
def _tables():
    """The kernel's tables, built from exact integers on first use.

    ``pow10`` holds four arrays over p = _P_MIN.._P_MAX: ``hi`` and ``lo``
    with ``hi + lo`` the double-double nearest 10**p, then the upper and
    lower half of ``hi``.  ``words`` holds the 4-digit ASCII words of
    0..9999, then the same with trailing zeros as spaces; ``prefix`` and
    ``exponent`` hold the 8-byte texts before and after the 16 last digits.
    """
    hi, lo = [], []
    for p in range(_P_MIN, _P_MAX + 1):
        if p >= 0:
            exact = 10 ** p
            hi.append(float(exact))
            lo.append(float(exact - int(hi[-1])))
        else:  # int / int is correctly rounded
            scale = 10 ** -p
            hi.append(1 / scale)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * scale) / (den * scale))
    hi, lo = np.array(hi), np.array(lo)
    big = hi * _SPLIT
    upper = big - (big - hi)
    pow10 = (hi, lo, upper, hi - upper)

    n = np.arange(10000, dtype=np.uint16)
    digits = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1)
    digits = digits.astype(np.uint8) + ord("0")
    stripped = digits.copy()
    trailing = np.logical_and.accumulate(digits[:, ::-1] == ord("0"), axis=1)[:, ::-1]
    stripped[trailing] = ord(" ")
    words = np.concatenate([digits, stripped]).view(np.uint32).ravel()

    # prefix[kind, sign, d0, more]: kind 0..3 is X = -4..-1 (0.000d), kind 4 is
    # every other X (d, or d. when more digits follow)
    prefix = [
        (f"{sign}0.{'0' * (3 - kind)}{d0}" if kind < 4 else f"{sign}{d0}{'.' * more}")
        .rjust(8) for kind in range(5) for sign in ("", "-") for d0 in range(10)
        for more in (0, 1)
    ]
    exponent = [("" if -4 <= x < 17 else f"e{x:+03d}").ljust(8)
                for x in range(_X_MIN, _X_MAX + 1)]
    return (pow10, words, np.frombuffer("".join(prefix).encode(), np.uint64),
            np.frombuffer("".join(exponent).encode(), np.uint64))


def _scale(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10**(16 - k)`` as a double-double ``(hi, lo)``.

    Dekker's product of ``a`` and ``hi`` is exact (numpy has no fused
    multiply-add); ``a * lo`` adds the rest of 10**p.  The arrays are
    updated in place to spare temporaries.
    """
    at = 16 - _P_MIN - k
    p_hi, p_lo, p_upper, p_lower = (np.take(t, at) for t in _tables()[0])
    hi = a * p_hi
    big = a * _SPLIT
    a_upper = big - (big - a)
    a_lower = a - a_upper
    err = a_upper * p_upper
    err -= hi
    a_upper *= p_lower
    err += a_upper
    p_upper *= a_lower
    err += p_upper
    a_lower *= p_lower
    err += a_lower  # hi + err is a * p_hi exactly
    p_lo *= a
    err += p_lo
    s = hi + err
    hi -= s
    hi += err  # what s dropped of hi + err
    return s, hi


def _decade_step(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """-1, 0 or +1: the step of k that brings ``hi + lo`` into [1e16, 1e17)."""
    return (((hi > 1e17) | ((hi == 1e17) & (lo >= 0))).astype(np.int64)
            - ((hi < 1e16) | ((hi == 1e16) & (lo < 0))))


def _decimal17(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(D, X, slow)``: |x| rounds to ``D * 10**(X - 16)``, with ``D = X = 0``
    at zero; ``slow`` marks the cells the kernel leaves to ``format``."""
    a = np.abs(x)
    slow = ~((a >= _FAST_MIN) & (a < _FAST_MAX))
    zero = a == 0
    a[slow] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scale(a, k)
    step = _decade_step(hi, lo)
    off = np.flatnonzero(step)  # log10 rounded across a power of ten
    if off.size:
        k[off] += step[off]
        hi[off], lo[off] = _scale(a[off], k[off])
        slow[off[_decade_step(hi[off], lo[off]) != 0]] = True
    slow |= np.abs(lo - np.floor(lo) - 0.5) < _TIE
    D = hi.astype(np.int64)  # an integer: 1e16 > 2**53
    D += np.rint(lo).astype(np.int64)
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    k += carry
    slow &= ~zero
    D[zero | slow] = k[zero | slow] = 0  # keeps the text tables' indices in range
    return D, k, slow


def _csv_text(block: np.ndarray) -> bytes:
    """The CSV rows of a 2-D block, each cell as ``format(v, ".17g")``."""
    rows = max(1, _SLICE_CELLS // block.shape[1])
    return b"".join(_slice_text(block[lo:lo + rows])
                    for lo in range(0, block.shape[0], rows))


def _slice_text(block: np.ndarray) -> bytes:
    """``_csv_text`` of one slice.  A cell is 32 bytes: the prefix (sign and
    d0, or 0.000 and d0) right-aligned in 0..7, the 16 digits after d0 in
    8..23, the exponent left-aligned from 24 and the separator in 31."""
    x = block.ravel()
    D, X, slow = _decimal17(x)
    _, words, prefix, exponent = _tables()
    d0, rest = np.divmod(D, 10 ** 16)
    upper, lower = np.divmod(rest, 10 ** 8)
    chunks = np.stack([*np.divmod(upper.astype(np.int32), 10000),
                       *np.divmod(lower.astype(np.int32), 10000)], axis=1)
    cells = np.empty((x.size, _CELL // 4), np.uint32)
    # from the last nonzero 4-digit word on, trailing zeros are spaces
    # (index + 10000)
    trailing = np.full(x.size, 10000, np.int32)
    for col in (3, 2, 1, 0):
        cells[:, 2 + col] = words[chunks[:, col] + trailing]
        trailing *= chunks[:, col] == 0
    # X >= 1 in fixed notation takes kind 4 here and is redone below
    kind = np.where((X >= -4) & (X < 0), X + 4, 4)
    wide = cells.view(np.uint64)
    wide[:, 0] = prefix[((kind * 2 + np.signbit(x)) * 10 + d0) * 2 + (rest != 0)]
    wide[:, 3] = exponent[X - _X_MIN]
    text = cells.view(np.uint8).reshape(block.shape + (_CELL,))
    text[:, :-1, -1] = ord(",")
    text[:, -1, -1] = ord("\n")
    text = text.reshape(x.size, _CELL)
    inside = np.flatnonzero((X >= 1) & (X < 17))
    if inside.size:
        _point_inside(text, inside, words[chunks[inside]].view(np.uint8), d0[inside],
                      X[inside], np.signbit(x[inside]))
    if slow.any():
        fallback = "".join(format(v, ".17g").ljust(_CELL - 1) for v in x[slow].tolist())
        text[slow, :-1] = np.frombuffer(fallback.encode(), np.uint8).reshape(-1, _CELL - 1)
    return text[text != ord(" ")].tobytes()


def _point_inside(text: np.ndarray, rows: np.ndarray, digits: np.ndarray, d0: np.ndarray,
                  X: np.ndarray, negative: np.ndarray) -> None:
    """Rewrite the cells of fixed notation with 1 <= X < 17, whose point
    falls among the digits: d0 and the next X digits, zeros kept, move one
    byte left over the prefix, and the point takes byte 7 + X when a nonzero
    digit follows.  ``digits`` holds the 16 digits after d0 without spaces."""
    text[rows, 5] = np.where(negative, ord("-"), ord(" "))
    text[rows, 6] = d0 + ord("0")
    for e in np.flatnonzero(np.bincount(X)):
        at = X == e
        cells = rows[at]
        text[cells, 7:7 + e] = digits[at, :e]
        text[cells, 7 + e] = np.where(text[cells, 8 + e] != ord(" "), ord("."), ord(" "))


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
