"""Deterministic on-disk artifacts (CSV tables, JSON reports).

Floats are written with %.17g (exact float64 round-trip) and JSON keys are
sorted, so re-running a command with the same inputs reproduces every
artifact byte for byte.  Wall-clock measurements live in their own file
(timings.json) for exactly this reason.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import UsageError

__all__ = ["write_csv", "read_csv", "write_json", "read_json"]


# cells formatted per write: bounds the values and the text held in memory at
# once, whether the table is tall (a few columns) or wide (a matrix)
_CSV_BLOCK_CELLS = 3 << 16


def write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    cols = [np.asarray(c, dtype=float) for c in columns]
    if len(cols) != len(header) or any(c.shape != cols[0].shape for c in cols):
        raise UsageError("write_csv needs one equally-sized column per header field")
    row_fmt = ",".join(["%.17g"] * len(cols)) + "\n"
    rows = max(1, _CSV_BLOCK_CELLS // len(cols))  # a block holds at least one row
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, cols[0].size, rows):
            block = np.column_stack([c[start:start + rows] for c in cols])
            fh.write((row_fmt * block.shape[0]) % tuple(block.ravel().tolist()))


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
