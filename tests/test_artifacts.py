"""Deterministic CSV output: the block formatter against per-value formatting.

``_reference_csv`` is the original writer (one ``format(v, ".17g")`` per
value over a full list of lines), kept as the byte-level oracle.
"""

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
