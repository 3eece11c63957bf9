"""Deterministic on-disk artifacts (CSV tables, JSON reports).

Floats are written as ``format(v, ".17g")`` writes them (exact float64
round-trip) and JSON keys are sorted, so re-running a command with the same
inputs reproduces every artifact byte for byte.  Wall-clock measurements
live in their own file (timings.json) for exactly this reason.

A CSV table is one 2-D float array of rows by header fields, the shape
``read_csv`` returns.  Its cells are formatted by a numpy kernel that writes
the same bytes as ``format(v, ".17g")``.  It scales each ``|x|`` by a power
of ten in double-double arithmetic to the 17-digit integer ``D`` with
``1e16 <= D < 1e17``; the scaling errs by less than 2**-45, so rounding it
gives the correctly rounded digits unless the scaled value lies within 1e-6
of a half-integer.  The digits come from tables of 4-digit words and are
laid out in space-padded cells, whose spaces are dropped at the end.  The
layout puts the decimal point right after the first digit or in front of
it, so fixed-notation cells with 10 <= |x| < 1e17 (such as 12.5, or integers
from 10 up) are formatted one by one with ``format``, as are the cells near
a tie, the non-finite ones and magnitudes outside [1e-280, 1e280).  Of the
tables the commands write on the catalogue problems, only convergence.csv
has such cells: its ``N`` column and the NaN ratio and order of its first
row.

Every file, CSV or JSON, is written by ``_write``: it makes the directory,
writes the file under a temporary name beside its target, chunk by chunk
(a table one slice of ``_SLICE_CELLS`` cells at a time), and renames it over
the target only once it is whole, so a failed write leaves the old file or
none.  A directory or temporary that cannot be made (an output path that
names an existing file, say), or a target the temporary cannot replace (a
directory), is a ``UsageError``.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import warnings

import numpy as np

from .errors import UsageError

__all__ = ["write_csv", "read_csv", "write_json", "read_json"]


def write_csv(path: str, header: list[str], table: np.ndarray) -> None:
    """Write a 2-D float array, one column per header field."""
    # a list is refused, not read as rows: a square list of columns would
    # pass the shape check transposed
    if (not isinstance(table, np.ndarray) or table.ndim != 2
            or table.shape[1] != len(header)):
        raise UsageError("write_csv needs a 2-D array with one column per header field")
    table = table.astype(float, copy=False)
    rows = max(1, _SLICE_CELLS // len(header))  # at least one row a slice
    _write(path, itertools.chain(
        [(",".join(header) + "\n").encode()],
        (_slice_text(table[lo:lo + rows]) for lo in range(0, table.shape[0], rows))))


def _write(path: str, chunks) -> None:
    """Write the byte ``chunks``, an iterable formed as it is read, to ``path``
    whole or not at all; the module docstring has the steps."""
    outdir, name = os.path.split(os.path.abspath(path))
    tmp_path = os.path.join(outdir, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        os.makedirs(outdir, exist_ok=True)
        fh = open(tmp_path, "xb")  # "x": never a file we did not make
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None
    try:
        with fh:
            fh.writelines(chunks)  # each chunk released before the next is formed
        try:
            os.replace(tmp_path, path)
        except OSError as exc:  # the target is a directory, say
            raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None
    except BaseException:
        os.unlink(tmp_path)
        raise


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
_SLICE_CELLS = 1 << 14  # cells per kernel pass and write: temporaries stay in cache


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
    at zero; ``slow`` marks the cells whose digits the kernel leaves to
    ``format``."""
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


def _slice_text(block: np.ndarray) -> bytes:
    """The CSV rows of a 2-D block, each cell as ``format(v, ".17g")``.

    A cell is 32 bytes: the prefix (sign and d0, or 0.000 and d0)
    right-aligned in 0..7, the 16 digits after d0 in 8..23, the exponent
    left-aligned from 24 and the separator in 31."""
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
    kind = np.where((X >= -4) & (X < 0), X + 4, 4)
    wide = cells.view(np.uint64)
    wide[:, 0] = prefix[((kind * 2 + np.signbit(x)) * 10 + d0) * 2 + (rest != 0)]
    wide[:, 3] = exponent[X - _X_MIN]
    text = cells.view(np.uint8).reshape(block.shape + (_CELL,))
    text[:, :-1, -1] = ord(",")
    text[:, -1, -1] = ord("\n")
    text = text.reshape(x.size, _CELL)
    # fixed notation with 1 <= X < 17 puts the point among the digits, which
    # this layout cannot (a slow cell has X = 0)
    slow |= (X >= 1) & (X < 17)
    if slow.any():
        fallback = "".join(format(v, ".17g").ljust(_CELL - 1) for v in x[slow].tolist())
        text[slow, :-1] = np.frombuffer(fallback.encode(), np.uint8).reshape(-1, _CELL - 1)
    return text.tobytes().translate(None, b" ")


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    try:
        with open(path) as fh, warnings.catch_warnings():
            # a table with no rows is named below, not warned about
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            header = fh.readline().strip().split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except FileNotFoundError:
        raise UsageError(f"missing input file: {path}") from None
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # a UnicodeDecodeError is one too
        raise UsageError(f"malformed CSV in {path}: {exc}") from None
    if data.shape[0] == 0:
        raise UsageError(f"{path}: no data rows")
    if data.shape[1] != len(header):
        raise UsageError(f"{path}: column count does not match header")
    return header, data


def write_json(path: str, payload: dict) -> None:
    """Write ``payload`` as strict JSON: NaN and infinities, which JSON lacks,
    become ``null``; every other value reads back as it was."""
    strict = json.loads(json.dumps(payload), parse_constant=lambda token: None)
    text = json.dumps(strict, indent=2, sort_keys=True, allow_nan=False) + "\n"
    _write(path, [text.encode()])


def read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"missing input file: {path}") from None
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, deep nesting
        raise UsageError(f"malformed JSON in {path}: {exc}") from None
