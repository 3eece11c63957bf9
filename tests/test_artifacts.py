"""Deterministic CSV output: the %.17g kernel against per-value formatting.

``_reference_csv`` is the original writer (one ``format(v, ".17g")`` per
value over a full list of lines), kept as the byte-level oracle; the kernel
tests hold ``artifacts._slice_text`` to the same text on hard value sets.
The writer tests shrink the slices, so that small tables span many
slices, set the CPU count (the ``set_cpus`` fixture) to show that none of
it forks, and inject faults into the formatting, the slice writes and the
final rename.
"""

import decimal
import errno
import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import memwave as mw
from memwave import artifacts
from memwave.artifacts import read_csv, write_csv, write_json


def _reference_text(block):
    return "".join(",".join(map(format, row, itertools.repeat(".17g"))) + "\n"
                   for row in block.tolist()).encode()


def _reference_csv(header, table):
    return (",".join(header) + "\n").encode() + _reference_text(np.asarray(table, dtype=float))


def _written(tmp_path, header, table):
    path = tmp_path / "t.csv"
    write_csv(str(path), header, table)
    return path.read_bytes()


SPECIAL = [
    0.0, -0.0, 1.0, -3.0, 12345678901234567.0, np.nan, np.inf, -np.inf,
    5e-324, -2.2250738585072014e-308 / 3, np.finfo(float).max, 0.1, 1.0 / 3.0,
]


def test_special_values_match_reference(tmp_path):
    a = np.array(SPECIAL)
    table = np.stack([a, a[::-1], np.arange(a.size)], axis=1)
    header = ["a", "b", "i"]
    out = _written(tmp_path, header, table)
    assert out == _reference_csv(header, table)
    text = out.decode()
    for token in ("nan", "inf", "-inf", "-0", "4.9406564584124654e-324"):
        assert token in text.replace("\n", ",").split(",")


def test_integer_columns_match_reference(tmp_path):
    table = np.stack([np.arange(-5, 5), np.arange(10) ** 3], axis=1)
    assert _written(tmp_path, ["i", "j"], table) == _reference_csv(["i", "j"], table)


def test_one_row_table_matches_reference(tmp_path):
    table = np.array([[0.5, -1e-300]])
    assert _written(tmp_path, ["x", "y"], table) == _reference_csv(["x", "y"], table)


def test_multi_block_table_matches_and_round_trips(tmp_path):
    rng = np.random.default_rng(3)
    n = artifacts._SLICE_CELLS // 2 + 7  # spans two slices
    table = np.stack([rng.standard_normal(n), np.exp(40.0 * rng.standard_normal(n))], axis=1)
    out = _written(tmp_path, ["a", "b"], table)
    assert out == _reference_csv(["a", "b"], table)
    _, data = read_csv(str(tmp_path / "t.csv"))
    assert np.array_equal(data[:, 0], table[:, 0]) and np.array_equal(data[:, 1], table[:, 1])


@pytest.mark.parametrize("shape", [(3, 11), (17, 2), (9, 4)])
def test_cell_bounded_blocks_match_one_pass(tmp_path, monkeypatch, shape):
    # a cap of 5 cells: wider rows get one slice each, taller tables many
    rng = np.random.default_rng(7)
    table = rng.standard_normal(shape)
    header = [f"s{j}" for j in range(shape[1])]
    whole = _written(tmp_path, header, table)
    monkeypatch.setattr(artifacts, "_SLICE_CELLS", 5)
    assert _written(tmp_path, header, table) == whole
    assert whole == _reference_csv(header, table)
    _, data = read_csv(str(tmp_path / "t.csv"))
    assert np.array_equal(data, table)


def _assert_kernel_exact(values, ncols=1):
    block = np.asarray(values, dtype=float).reshape(-1, ncols)
    assert artifacts._slice_text(block) == _reference_text(block)


def _with_neighbours(values):
    v = np.asarray(values, dtype=float)
    v = np.concatenate([v, np.nextafter(v, 0.0), np.nextafter(v, np.inf)])
    return np.concatenate([v, -v])


def test_kernel_matches_format_on_random_bit_patterns():
    # every finite double is equally likely as a bit pattern, so exponents
    # span the whole range and subnormals come up (about 1 in 2048)
    rng = np.random.default_rng(20)
    bits = rng.integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64)
    bits[::997] &= np.uint64((1 << 63) | ((1 << 52) - 1))  # explicit subnormals
    x = bits.view(np.float64)
    x = x[np.isfinite(x)]
    assert np.sum(np.abs(x) < np.finfo(float).tiny) > 1000
    for part in np.array_split(x, 4):
        _assert_kernel_exact(part[: part.size // 5 * 5], ncols=5)


def test_kernel_matches_format_on_log_uniform_magnitudes():
    rng = np.random.default_rng(21)
    n = 10 ** 5
    x = np.exp(rng.uniform(np.log(5e-324), np.log(1.7e308), n)) * rng.choice([-1.0, 1.0], n)
    _assert_kernel_exact(x, ncols=4)
    _assert_kernel_exact(rng.standard_normal(n) * 10.0 ** rng.integers(-6, 19, n), ncols=2)


def test_kernel_matches_format_on_powers_of_ten_and_their_neighbours():
    _assert_kernel_exact(_with_neighbours(10.0 ** np.arange(-323, 309)))
    _assert_kernel_exact(_with_neighbours([1e-280, 1e280, 9.999999999999999e279]))


def test_kernel_matches_format_at_the_g_switch_points():
    # %g turns from fixed to exponent notation below 1e-4 and from 1e17 on
    x = _with_neighbours([1e-5, 1e-4, 1e16, 1e17])
    _assert_kernel_exact(x)
    text = artifacts._slice_text(np.array([[1e-4, 1e16, 1e17, np.nextafter(1e-4, 0)]]))
    assert text == b"0.0001,10000000000000000,1e+17,9.9999999999999991e-05\n"


def _exact_ties(rng, n):
    """Doubles whose exact decimal form has 18 significant digits, the last
    a 5: c * 2**-t with odd c < 2**53 is exact and has the digits of
    c * 5**t, which has 18 only for t = 2..25."""
    t = rng.integers(2, 26, n)
    five = 5 ** t
    lo = -(-10 ** 17 // five)
    c = rng.integers(lo, np.minimum(10 ** 18 // five, 2 ** 53)) | 1
    keep = c * five < 10 ** 18  # | 1 may step over the top
    return np.ldexp(c[keep].astype(float), -t[keep])


def _is_tie(v):
    digits = "".join(map(str, decimal.Decimal(float(v)).as_tuple().digits)).rstrip("0")
    return len(digits) == 18 and digits[-1] == "5"


def test_kernel_matches_format_on_exact_ties():
    rng = np.random.default_rng(22)
    ties = _exact_ties(rng, 10 ** 5)
    ties[::2] *= -1
    assert all(_is_tie(v) for v in ties[:1000])
    _, _, slow = artifacts._decimal17(ties)
    assert slow.all()  # a tie is left to format, which rounds it half to even
    _assert_kernel_exact(ties, ncols=4)
    _assert_kernel_exact(2.0 ** -np.arange(1, 1075))  # 2**-25 is a tie


def test_kernel_matches_format_on_zeros_infinities_and_nans():
    nan = np.float64(np.nan)
    negative_nan = np.copysign(nan, -1.0)
    assert np.signbit(negative_nan)
    x = np.array([0.0, -0.0, np.inf, -np.inf, nan, negative_nan, 1.0, -1.0])
    _assert_kernel_exact(x, ncols=2)
    assert artifacts._slice_text(x.reshape(2, 4)) == b"0,-0,inf,-inf\nnan,nan,1,-1\n"


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
                  elements=st.floats()))
def test_kernel_matches_format_on_any_float_array(block):
    assert artifacts._slice_text(block) == _reference_text(block)


def test_kernel_formats_cT_with_no_fallback_but_ties():
    grid = mw.GridSpec(1.0, 256)
    q, K = mw.get_problem("full").fields(grid)
    c = mw.connecting_kernel_from_response(
        mw.response_kernel(mw.solve_goursat(q, K)), K).values.ravel()
    D, X, slow = artifacts._decimal17(c)
    zero = c == 0
    assert zero.sum() == 2 * grid.N + 1  # formatted by the fast path as 0
    assert np.all(D[zero] == 0) and not slow[zero].any()
    assert np.array_equal(np.flatnonzero(slow), [i for i, v in enumerate(c) if _is_tie(v)])
    _assert_kernel_exact(c, ncols=grid.N + 1)


def test_kernel_tables_are_built_on_first_use():
    # importing the package builds none of them; the first table formatted does
    code = ("import memwave.artifacts as a; n = a._tables.cache_info().currsize; "
            "a._slice_text(a.np.ones((1, 1))); print(n, a._tables.cache_info().currsize)")
    src = os.path.dirname(os.path.dirname(artifacts.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["0", "1"]


def test_kernel_matches_format_with_the_point_among_the_digits():
    # fixed notation with 10 <= |x| < 1e17: these cells go to format
    x = np.array([10.0, 11.0, 99.0, 100.0, 12345.0, 2.0 ** 53, 12.5, np.nextafter(10.0, 11.0),
                  1e16, np.nextafter(1e16, 0.0), np.nextafter(1e16, 1e17),
                  99999999999999984.0, np.nextafter(99999999999999984.0, 0.0)])
    x = np.concatenate([x, -x])
    assert np.all((np.abs(x) >= 10.0) & (np.abs(x) < 1e17))
    _assert_kernel_exact(x, ncols=2)
    _assert_kernel_exact(np.arange(10.0, 10010.0), ncols=10)


def test_width_mismatch_raises(tmp_path):
    path = str(tmp_path / "w.csv")
    for table in (np.zeros((3, 1)), np.zeros((3, 3)),
                  [np.zeros(3), np.zeros(3)],  # a list of columns
                  [[1.0, 2.0], [3.0, 4.0]],  # a square list is not read as rows
                  np.zeros(2), np.zeros((3, 2, 2))):
        with pytest.raises(mw.UsageError):
            write_csv(path, ["a", "b"], table)
    assert os.listdir(tmp_path) == []


def test_square_table_round_trips_row_major(tmp_path):
    table = np.arange(9.0).reshape(3, 3) / 7.0
    assert not np.array_equal(table, table.T)
    out = _written(tmp_path, ["a", "b", "c"], table)
    assert out.splitlines()[1] == b",".join(format(v, ".17g").encode() for v in table[0])
    _, data = read_csv(str(tmp_path / "t.csv"))
    assert np.array_equal(data, table)


# (shape, slice cap in cells): 7 one-row slices of a wide table, 6 slices of
# 20 rows of a tall one, and 5 slices of 10 rows
SPLITS = [((7, 50), 5), ((101, 2), 40), ((45, 3), 30)]


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("shape,cap", SPLITS)
def test_block_split_matches_reference(tmp_path, monkeypatch, fork_pids, set_cpus, shape,
                                       cap, cpus):
    rng = np.random.default_rng(11)
    table = rng.standard_normal(shape) * np.exp(30.0 * rng.standard_normal(shape))
    table[0, 0], table[-1, -1] = np.nan, -0.0
    header = [f"s{j}" for j in range(shape[1])]
    monkeypatch.setattr(artifacts, "_SLICE_CELLS", cap)
    set_cpus(cpus)
    path = tmp_path / "t.csv"
    assert write_csv(str(path), header, table) is None
    assert fork_pids == []  # every slice is formatted here, on any CPU count
    assert path.read_bytes() == _reference_csv(header, table)
    assert os.listdir(tmp_path) == ["t.csv"]


def test_write_never_asks_the_cpu_count(tmp_path, monkeypatch, fork_pids):
    def sched_getaffinity(pid):
        raise AssertionError("write_csv asked for the CPU count")

    monkeypatch.setattr(os, "sched_getaffinity", sched_getaffinity)
    monkeypatch.setattr(artifacts, "_SLICE_CELLS", 3)  # 10 slices
    table = np.arange(30.0).reshape(10, 3)
    assert _written(tmp_path, ["a", "b", "c"], table) == _reference_csv(["a", "b", "c"], table)
    assert fork_pids == []


def _failing_write(monkeypatch, failing, writer):
    """A 10-slice table write that raises while formatting its second slice,
    while writing its second slice out (a full disk), or at the rename once
    the table is whole; or a report write that raises while writing its one
    text out, or at the rename."""
    real_text, real_open, real_replace = artifacts._slice_text, open, os.replace
    calls = itertools.count(1)

    def csv_text(block):
        if next(calls) == 2 and failing == "format":
            raise RuntimeError("injected formatting fault")
        return real_text(block)

    def open_full(path, mode):
        fh = real_open(path, mode)
        real_write, writes = fh.write, itertools.count(1)

        def write(data):  # the header, then one write a slice; a report's text
            if next(writes) == (3 if writer == "csv" else 1) and failing == "write":
                raise OSError(errno.ENOSPC, "injected full disk")
            return real_write(data)

        fh.write = write
        return fh

    def replace(*args):
        if failing == "rename":
            raise RuntimeError("injected rename fault")
        return real_replace(*args)

    monkeypatch.setattr(artifacts, "_slice_text", csv_text)
    monkeypatch.setattr(artifacts, "open", open_full, raising=False)
    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(artifacts, "_SLICE_CELLS", 6)
    if writer == "json":
        return lambda path: write_json(str(path), {"a": [1.0, float("nan")], "b": "c"})
    return lambda path: write_csv(str(path), ["a", "b", "c"], np.arange(60.0).reshape(20, 3))


FAULTS = {"format": RuntimeError, "write": OSError, "rename": RuntimeError}
# every fault of a table write, and the write and rename faults of a report
WRITES = [pytest.param("csv", fault, id=fault) for fault in FAULTS] + [
    pytest.param("json", fault, id=f"json_{fault}") for fault in ("write", "rename")]


@pytest.mark.parametrize("writer, failing", WRITES)
def test_failed_write_leaves_no_file(tmp_path, monkeypatch, writer, failing):
    write = _failing_write(monkeypatch, failing, writer)
    with pytest.raises(FAULTS[failing], match="injected"):
        write(tmp_path / f"t.{writer}")
    assert os.listdir(tmp_path) == []  # neither a partial file nor a temporary


@pytest.mark.parametrize("writer, failing", WRITES)
def test_failed_write_keeps_the_old_table(tmp_path, monkeypatch, writer, failing):
    path = tmp_path / f"t.{writer}"
    path.write_bytes(b"old\n1\n")
    write = _failing_write(monkeypatch, failing, writer)
    with pytest.raises(FAULTS[failing], match="injected"):
        write(path)
    assert os.listdir(tmp_path) == [path.name]
    assert path.read_bytes() == b"old\n1\n"


def test_one_block_write_replaces_the_table_whole(tmp_path, monkeypatch):
    # the default slice cap: the table is one slice, and it fails once formatted
    path = tmp_path / "t.csv"
    path.write_bytes(b"old\n1\n")
    real_text = artifacts._slice_text

    def csv_text(block):
        real_text(block)
        raise RuntimeError("injected formatting fault")

    monkeypatch.setattr(artifacts, "_slice_text", csv_text)
    with pytest.raises(RuntimeError, match="injected"):
        write_csv(str(path), ["a"], np.arange(4.0).reshape(4, 1))
    assert os.listdir(tmp_path) == ["t.csv"]
    assert path.read_bytes() == b"old\n1\n"
