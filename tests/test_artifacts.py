"""Deterministic CSV output: the block formatter against per-value formatting.

``_reference_csv`` is the original writer (one ``format(v, ".17g")`` per
value over a full list of lines), kept as the byte-level oracle.  The
worker tests set the CPU count through ``os.sched_getaffinity`` and shrink
the write blocks, so that small tables split over forked workers.
"""

import os
import re

import numpy as np
import pytest

import memwave as mw
from memwave import artifacts
from memwave.artifacts import read_csv, write_csv


def _reference_csv(header, columns):
    cols = [np.asarray(c, dtype=float) for c in columns]
    lines = [",".join(header)]
    for row in np.column_stack(cols):
        lines.append(",".join(format(v, ".17g") for v in row))
    return ("\n".join(lines) + "\n").encode()


def _written(tmp_path, header, columns):
    path = tmp_path / "t.csv"
    write_csv(str(path), header, columns)
    return path.read_bytes()


SPECIAL = [
    0.0, -0.0, 1.0, -3.0, 12345678901234567.0, np.nan, np.inf, -np.inf,
    5e-324, -2.2250738585072014e-308 / 3, np.finfo(float).max, 0.1, 1.0 / 3.0,
]


def test_special_values_match_reference(tmp_path):
    a = np.array(SPECIAL)
    cols = [a, a[::-1], np.arange(a.size)]
    header = ["a", "b", "i"]
    out = _written(tmp_path, header, cols)
    assert out == _reference_csv(header, cols)
    text = out.decode()
    for token in ("nan", "inf", "-inf", "-0", "4.9406564584124654e-324"):
        assert token in text.replace("\n", ",").split(",")


def test_integer_columns_match_reference(tmp_path):
    cols = [np.arange(-5, 5), np.arange(10) ** 3]
    assert _written(tmp_path, ["i", "j"], cols) == _reference_csv(["i", "j"], cols)


def test_one_row_table_matches_reference(tmp_path):
    cols = [np.array([0.5]), np.array([-1e-300])]
    assert _written(tmp_path, ["x", "y"], cols) == _reference_csv(["x", "y"], cols)


def test_multi_block_table_matches_and_round_trips(tmp_path):
    rng = np.random.default_rng(3)
    n = artifacts._CSV_BLOCK_CELLS // 2 + 7  # spans two write blocks
    cols = [rng.standard_normal(n), np.exp(40.0 * rng.standard_normal(n))]
    out = _written(tmp_path, ["a", "b"], cols)
    assert out == _reference_csv(["a", "b"], cols)
    _, data = read_csv(str(tmp_path / "t.csv"))
    assert np.array_equal(data[:, 0], cols[0]) and np.array_equal(data[:, 1], cols[1])


@pytest.mark.parametrize("shape", [(3, 11), (17, 2), (9, 4)])
def test_cell_bounded_blocks_match_one_pass(tmp_path, monkeypatch, shape):
    # a cap of 5 cells: wider rows get one block each, taller tables many
    rng = np.random.default_rng(7)
    table = rng.standard_normal(shape)
    header = [f"s{j}" for j in range(shape[1])]
    whole = _written(tmp_path, header, list(table.T))
    monkeypatch.setattr(artifacts, "_CSV_BLOCK_CELLS", 5)
    assert _written(tmp_path, header, list(table.T)) == whole
    assert whole == _reference_csv(header, list(table.T))
    _, data = read_csv(str(tmp_path / "t.csv"))
    assert np.array_equal(data, table)


def test_width_mismatch_raises(tmp_path):
    with pytest.raises(mw.UsageError):
        write_csv(str(tmp_path / "w.csv"), ["a", "b"], [np.zeros(3)])
    with pytest.raises(mw.UsageError):
        write_csv(str(tmp_path / "w.csv"), ["a", "b"], [np.zeros(3), np.zeros(4)])


def _set_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


# (shape, block cap in cells): 7 one-row blocks of a wide table, 6 blocks of
# 20 rows of a tall one, and 5 blocks of 10 rows
SPLITS = [((7, 50), 5), ((101, 2), 40), ((45, 3), 30)]


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("shape,cap", SPLITS)
def test_worker_split_matches_reference(tmp_path, monkeypatch, fork_pids, shape, cap,
                                        cpus):
    rng = np.random.default_rng(11)
    table = rng.standard_normal(shape) * np.exp(30.0 * rng.standard_normal(shape))
    table[0, 0], table[-1, -1] = np.nan, -0.0
    header = [f"s{j}" for j in range(shape[1])]
    monkeypatch.setattr(artifacts, "_CSV_BLOCK_CELLS", cap)
    _set_cpus(monkeypatch, cpus)
    path = tmp_path / "t.csv"
    assert write_csv(str(path), header, list(table.T)) == cpus
    assert len(fork_pids) == (cpus if cpus > 1 else 0)  # every run goes to a worker
    assert path.read_bytes() == _reference_csv(header, list(table.T))
    assert os.listdir(tmp_path) == ["t.csv"]


def test_one_block_or_one_cpu_never_forks(tmp_path, monkeypatch, fork_pids):
    table = np.arange(30.0).reshape(10, 3)
    _set_cpus(monkeypatch, 3)
    assert _written(tmp_path, ["a", "b", "c"], list(table.T)) == \
        _reference_csv(["a", "b", "c"], list(table.T))
    monkeypatch.setattr(artifacts, "_CSV_BLOCK_CELLS", 3)  # now 10 blocks
    _set_cpus(monkeypatch, 1)
    assert write_csv(str(tmp_path / "t.csv"), ["a", "b", "c"], list(table.T)) == 1
    monkeypatch.delattr(os, "sched_getaffinity")  # a platform that cannot ask
    assert write_csv(str(tmp_path / "t.csv"), ["a", "b", "c"], list(table.T)) == 1
    assert fork_pids == []


def _failing_write(monkeypatch, failing):
    """A 3-CPU, 10-block write whose ``failing`` side raises: a worker while
    formatting its run, the caller while appending the runs, or the body of
    the caller's ``with`` block before its wait."""
    parent = os.getpid()
    real_format, real_append = artifacts._format_rows, artifacts._append

    def format_rows(*args):
        if failing == "worker" and os.getpid() != parent:
            raise RuntimeError("injected formatting fault")
        return real_format(*args)

    def append(*args):
        if failing == "parent":
            raise RuntimeError("injected append fault")
        return real_append(*args)

    monkeypatch.setattr(artifacts, "_format_rows", format_rows)
    monkeypatch.setattr(artifacts, "_append", append)
    monkeypatch.setattr(artifacts, "_CSV_BLOCK_CELLS", 6)
    _set_cpus(monkeypatch, 3)
    table = np.arange(60.0).reshape(20, 3)

    def write(path):
        with artifacts.CsvWrite(str(path), ["a", "b", "c"], list(table.T)) as pending:
            if failing == "body":
                raise RuntimeError("injected caller fault")
            pending.wait()

    return write


FAULTS = {"worker": OSError, "parent": RuntimeError, "body": RuntimeError}


@pytest.mark.parametrize("failing", list(FAULTS))
def test_failed_run_fails_the_write_and_reaps_workers(tmp_path, monkeypatch, fork_pids,
                                                      failing):
    write = _failing_write(monkeypatch, failing)
    path = tmp_path / "t.csv"
    message = re.escape(str(path)) if failing == "worker" else "injected"
    with pytest.raises(FAULTS[failing], match=message):
        write(path)
    assert len(fork_pids) == 3
    assert os.listdir(tmp_path) == []  # neither a partial table nor a temporary
    for pid in fork_pids:  # every worker was reaped: none is left to wait for
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("failing", list(FAULTS))
def test_failed_write_keeps_the_old_table(tmp_path, monkeypatch, failing):
    path = tmp_path / "t.csv"
    path.write_bytes(b"old\n1\n")
    write = _failing_write(monkeypatch, failing)
    with pytest.raises(FAULTS[failing]):
        write(path)
    assert os.listdir(tmp_path) == ["t.csv"]
    assert path.read_bytes() == b"old\n1\n"


def test_one_process_write_replaces_the_table_whole(tmp_path, monkeypatch):
    path = tmp_path / "t.csv"
    path.write_bytes(b"old\n1\n")
    real_format = artifacts._format_rows

    def format_rows(*args):
        real_format(*args)
        raise RuntimeError("injected formatting fault")

    monkeypatch.setattr(artifacts, "_format_rows", format_rows)
    with pytest.raises(RuntimeError, match="injected"):
        write_csv(str(path), ["a"], [np.arange(4.0)])
    assert os.listdir(tmp_path) == ["t.csv"]
    assert path.read_bytes() == b"old\n1\n"
