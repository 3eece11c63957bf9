"""Top-level acceptance checks for the whole reconstruction pipeline.

Each test states a property of the full system (not of one module) and
checks it at the stated resolution with an independent route as reference:
exact closed forms for trivial/perturbative data, the leapfrog oracle for
anything kernel-based, and interior wave states for the connecting form.
A wall-clock guard keeps every case inside its intended budget.
"""

import json
import shutil
import time

import numpy as np
import pytest

import memwave as mw
from memwave import cli
from memwave.model import cumulative_trapezoid
from memwave.pipeline import config_from_dict, run_synth
from oracles import dense_w


def _pipeline_pieces(name, n):
    grid = mw.GridSpec(1.0, n)
    q, K = mw.get_problem(name).fields(grid)
    sol = mw.solve_goursat(q, K)
    return grid, q, K, sol


def test_trivial_problem_vanishes_at_every_stage():
    t0 = time.perf_counter()
    grid, q, K, sol = _pipeline_pieces("free", 64)
    r = mw.response_kernel(sol)
    cT = mw.connecting_kernel_from_response(r, K)
    gl = mw.solve_gl(cT)
    q_hat = mw.recover_potential(gl)
    assert np.abs(dense_w(sol)).max() < 1e-8
    assert np.abs(r.values).max() < 1e-8
    assert np.abs(cT.values).max() < 1e-8
    assert np.abs(gl.z).max() < 1e-8
    assert np.abs(q_hat.values).max() < 1e-8
    assert time.perf_counter() - t0 < 5.0


def test_perturbative_memory_kernel_closed_form():
    # K0 = 0.01, q = 0:  w = -(K0/2) x (t - x) + O(K0^2)
    t0 = time.perf_counter()
    grid, q, K, sol = _pipeline_pieces("memory_only_small", 128)
    n, n2 = grid.N, grid.N2
    x = np.linspace(0.0, 2.0, n2 + 1)
    i, j = np.meshgrid(np.arange(n + 1), np.arange(n2 + 1), indexing="ij")
    inside = (i <= j) & (i + j <= n2)
    first_order = -(0.01 / 2.0) * x[i] * (x[j] - x[i])
    sup = np.abs((dense_w(sol) - first_order) * inside).max()
    assert sup <= 5e-4  # 5 * K0^2
    assert time.perf_counter() - t0 < 10.0


def test_perturbative_potential_closed_form():
    # q0 = 0.01, K = 0:  w = -(q0/2) x + O(q0^2)
    t0 = time.perf_counter()
    grid, q, K, sol = _pipeline_pieces("potential_only_small", 128)
    n, n2 = grid.N, grid.N2
    x = np.linspace(0.0, 2.0, n2 + 1)
    i, j = np.meshgrid(np.arange(n + 1), np.arange(n2 + 1), indexing="ij")
    inside = (i <= j) & (i + j <= n2)
    first_order = -(0.01 / 2.0) * x[i] + 0.0 * x[j]
    sup = np.abs((dense_w(sol) - first_order) * inside).max()
    assert sup <= 5e-4  # 5 * q0^2
    assert time.perf_counter() - t0 < 10.0


def test_response_routes_converge_at_second_order():
    # boundary response via the kernel march vs. the boundary-derivative
    # trace of the direct leapfrog solve, driven by one fixed bump control
    t0 = time.perf_counter()
    errs = []
    for n in (64, 128, 256):
        grid, q, K, sol = _pipeline_pieces("full", n)
        r = mw.response_kernel(sol)
        f = mw.control_from_family(
            "smooth_bump_control", (0.5, 0.25), grid, full_window=True
        )
        trace = mw.fd_boundary_trace(mw.fd_forward(q, K, f, 2.0 * grid.T), grid.h)
        errs.append(float(np.abs(trace - mw.apply_response(r, f)).max()))
    orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert errs[0] > errs[1] > errs[2]
    for order in orders:
        assert 1.5 <= order <= 2.5
    assert time.perf_counter() - t0 < 120.0


def test_connecting_kernel_three_way_consistency():
    # data route vs. factor route entrywise, then both routes against
    # interior wave-state inner products on ten random control pairs
    t0 = time.perf_counter()
    grid, q, K, sol = _pipeline_pieces("full", 64)
    r = mw.response_kernel(sol)
    cT_resp = mw.connecting_kernel_from_response(r, K)
    cT_w = mw.connecting_kernel_from_w(sol)
    tol = 5e-3 * (1.0 + np.abs(cT_w.values).max())
    assert np.abs(cT_resp.values - cT_w.values).max() <= tol

    rng = np.random.default_rng(20240817)
    for _ in range(10):
        c1, c2 = rng.uniform(0.25, 0.75, size=2)
        w1, w2 = rng.uniform(0.1, 0.2, size=2)
        f = mw.control_from_family("smooth_bump_control", (c1, w1), grid)
        g = mw.control_from_family("smooth_bump_control", (c2, w2), grid)
        oracle = mw.connecting_form_from_interior(q, K, [f, g])[0, 1]
        assert abs(mw.connecting_form_from_kernel(cT_resp, f, g) - oracle) <= tol
        assert abs(mw.connecting_form_from_kernel(cT_w, f, g) - oracle) <= tol
    assert time.perf_counter() - t0 < 300.0


def test_diagonal_law_second_order_on_two_problems():
    # z(x, x) must approach (1/2) int_0^x q at second order when z comes
    # from boundary data alone
    t0 = time.perf_counter()
    for name in ("full", "memory_only_small"):
        res = []
        for n in (64, 128):
            grid, q, K, sol = _pipeline_pieces(name, n)
            r = mw.response_kernel(sol)
            gl = mw.solve_gl(mw.connecting_kernel_from_response(r, K))
            law = 0.5 * cumulative_trapezoid(q.values, grid.h)
            res.append(np.abs(gl.diagonal() - law).max())
        assert res[0] <= 1.0 * (1.0 / 64.0) ** 2  # C h^2 with modest C
        assert 3.0 <= res[0] / res[1] <= 5.0
    assert time.perf_counter() - t0 < 120.0


def test_operator_identity_second_order():
    # (I + Z)^T (I + C)(I + Z) = I in the discrete max norm, data route
    t0 = time.perf_counter()
    res = []
    for n in (64, 128):
        grid, q, K, sol = _pipeline_pieces("full", n)
        r = mw.response_kernel(sol)
        cT = mw.connecting_kernel_from_response(r, K)
        gl = mw.solve_gl(cT)
        res.append(mw.operator_identity_residual(cT, gl))
        scale = 1.0 + np.abs(cT.values).max()
        assert res[-1] <= grid.h * grid.h * scale
    assert 3.0 <= res[0] / res[1] <= 5.0
    assert time.perf_counter() - t0 < 60.0


def test_end_to_end_reconstruction_quality():
    t0 = time.perf_counter()

    def interior_rel(route, n):
        grid, q, K, sol = _pipeline_pieces("full", n)
        if route == "response":
            cT = mw.connecting_kernel_from_response(mw.response_kernel(sol), K)
        else:
            cT = mw.connecting_kernel_from_w(sol)
        q_hat = mw.recover_potential(mw.solve_gl(cT))
        return mw.reconstruction_errors(q.values, q_hat.values, grid)["interior_rel"]

    assert interior_rel("factor", 256) <= 0.02
    assert interior_rel("response", 64) <= 0.10
    for route in ("response", "factor"):
        ladder = [interior_rel(route, n) for n in (32, 64, 128)]
        assert ladder[0] > ladder[1] > ladder[2]
    assert time.perf_counter() - t0 < 600.0


def test_determinism_and_fault_detection(tmp_path):
    # byte-identical artifacts for equal seeds and for repeated runs
    cfg = config_from_dict(
        {"problem": "full", "N": 64, "noise": {"sigma": 1e-4, "seed": 11}}
    )
    run_synth(cfg, str(tmp_path / "d1"))
    run_synth(cfg, str(tmp_path / "d2"))
    assert (tmp_path / "d1" / "response.csv").read_bytes() == (
        tmp_path / "d2" / "response.csv"
    ).read_bytes()
    for run in ("r1", "r2"):
        rc = cli.main(["reconstruct", "--data", str(tmp_path / "d1"),
                       "--out", str(tmp_path / run)])
        assert rc == 0
    for name in ("q_hat.csv", "cT.csv", "report.json"):
        assert (tmp_path / "r1" / name).read_bytes() == (
            tmp_path / "r2" / name
        ).read_bytes()

    # a corrupted response sample must be caught by name with exit code 4
    bad = tmp_path / "bad"
    shutil.copytree(tmp_path / "d1", bad)
    lines = (bad / "response.csv").read_text().splitlines()
    t, _ = lines[65].split(",")
    lines[65] = f"{t},1e3"
    (bad / "response.csv").write_text("\n".join(lines) + "\n")
    rc = cli.main(["verify", "--data", str(bad), "--out", str(tmp_path / "vrep")])
    assert rc == 4
    report = json.loads((tmp_path / "vrep" / "report.json").read_text())
    assert report["status"] == "failed"
    assert "operator_identity" in report["failed_checks"]
