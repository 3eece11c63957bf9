"""Tests of the benchmark itself, at tiny N.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.load_package()

import spans  # noqa: E402
import workloads  # noqa: E402

LADDER = (16, 32)
with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def tiny(name: str, seed: int = 3):
    return {
        "reconstruct": lambda: workloads.ReconstructWorkload(seed, N=32),
        "verify": lambda: workloads.VerifyWorkload(seed, N=32),
        "study": lambda: workloads.StudyWorkload(seed, grids=(32, 64)),
    }[name]()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", ["reconstruct", "verify", "study"])
def test_workload_runs_end_to_end(tmp_path, name, trace):
    result, lines = run.run_benchmark(tiny(name), 0.2, trace, str(tmp_path), LADDER)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in result["metrics"])
    json.dumps(result, allow_nan=False)
    assert any(line.startswith("failed_share") for line in lines)


def test_verify_reports_miss_share(tmp_path):
    wl = tiny("verify")
    run.run_benchmark(wl, 0.0, False, str(tmp_path), LADDER)
    extras = wl.extras()
    assert extras["verify_corrupted"] == len(workloads.SPIKE_AMPLITUDES) * 2
    assert 0.0 <= extras["verify_miss_share"] <= 1.0


def test_failed_check_is_counted(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "Q_ERR_PER_H2", 1e-3)
    result, _ = run.run_benchmark(tiny("reconstruct"), 0.0, False, str(tmp_path), LADDER)
    assert not result["correct"] and result["failed"] == result["attempted"] == 2


def test_fault_generator_is_deterministic_per_seed(tmp_path):
    N = 32
    a = workloads.spike_faults(np.random.default_rng(5), N)
    assert a == workloads.spike_faults(np.random.default_rng(5), N)
    odd, even = a[0][0], a[-1][0]
    assert odd % 2 == 1 and 1 <= odd < 2 * N
    assert even % 2 == 0 and 2 <= even <= 2 * N
    assert [amp for _, amp in a] == list(workloads.SPIKE_AMPLITUDES) * 2

    wl = tiny("verify", seed=5)
    wl.setup(str(tmp_path / "one"))
    clean = np.loadtxt(tmp_path / "one" / "clean" / "response.csv", delimiter=",", skiprows=1)
    for k, (index, amp) in enumerate(wl.faults):
        spiked = np.loadtxt(tmp_path / "one" / f"spike{k}" / "response.csv",
                            delimiter=",", skiprows=1)
        diff = spiked[:, 1] - clean[:, 1]
        assert np.flatnonzero(diff).tolist() == [index]
        assert diff[index] == pytest.approx(amp * np.max(np.abs(clean[:, 1])))
    wl.setup(str(tmp_path / "two"))
    for k in range(len(wl.faults)):
        one = (tmp_path / "one" / f"spike{k}" / "response.csv").read_bytes()
        assert one == (tmp_path / "two" / f"spike{k}" / "response.csv").read_bytes()


def test_self_times_partition_each_op(tmp_path):
    wl = tiny("verify")
    wl.setup(str(tmp_path))
    recorder = spans.Recorder()
    for k, op in enumerate(wl.cycle()[:2]):
        run.run_op(op, recorder, f"op{k}")
    for op_id in ("op0", "op1"):
        op_spans = [s for s in recorder.spans if s.op == op_id]
        root = [s for s in op_spans if s.parent is None]
        assert len(root) == 1 and root[0].name == spans.ROOT_SPAN
        assert len(op_spans) > 1
        assert sum(s.self_s for s in op_spans) == pytest.approx(root[0].duration, abs=1e-9)

    metrics = run.layer_metrics(recorder, run.run_ladder(str(tmp_path), LADDER), [1.0], [1.0])
    layer_sum = sum(v["value"] for k, v in metrics.items()
                    if k.endswith(".self_s"))
    assert layer_sum == pytest.approx(metrics["trace.op_s"]["value"], abs=1e-9)


def test_wrappers_are_removed_after_a_traced_op(tmp_path):
    import memwave.connecting
    import memwave.pipeline

    before = memwave.pipeline.solve_gl, memwave.connecting.apply_response
    wl = tiny("reconstruct")
    wl.setup(str(tmp_path))
    run.run_op(wl.cycle()[0], spans.Recorder(), "op0")
    assert (memwave.pipeline.solve_gl, memwave.connecting.apply_response) == before


def test_command_fails_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "study-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
