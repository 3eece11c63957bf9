"""Control/response maps and the finite-difference cross-check.

The leapfrog oracle at unit Courant number transports free waves exactly, so
the free catalogue problem gives machine-precision reference cases; the full
problem is checked by mutual convergence of the two independent routes.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import memwave as mw
from memwave.model import (
    CausalHistory,
    causal_convolution,
    sampled_derivative,
    trapz_weights,
)
from oracles import apply_control_operator, duhamel_eval, solve_control


def _problem(name, n):
    grid = mw.GridSpec(1.0, n)
    q, K = mw.get_problem(name).fields(grid)
    return grid, q, K


# ------------------------------------------------------------ leapfrog oracle


def test_fd_free_wave_is_exact_transport():
    grid, q, K = _problem("free", 100)
    f = mw.control_from_family("smooth_bump_control", (0.4, 0.25), grid)
    fld = mw.fd_forward(q, K, f)
    fv = f.padded_full()
    nx = fld.T.shape[0]
    worst = 0.0
    for j in range(101):
        lag = j - np.arange(nx)
        exact = np.where(lag >= 0, fv[np.maximum(lag, 0)], 0.0)
        worst = max(worst, np.abs(fld.T[:, j] - exact).max())
    assert worst < 1e-12


def test_fd_zero_control_stays_at_rest():
    grid, q, K = _problem("full", 32)
    f = mw.control_from_family("zero", (), grid)
    assert np.abs(mw.fd_forward(q, K, f).T).max() == 0.0


def test_fd_rejects_offgrid_horizon():
    grid, q, K = _problem("free", 32)
    f = mw.control_from_family("zero", (), grid)
    with pytest.raises(mw.UsageError):
        mw.fd_forward(q, K, f, t_max=0.33)
    with pytest.raises(mw.UsageError):
        mw.fd_forward(q, K, f, t_max=3.0)


def test_fd_short_horizon_is_the_leading_columns():
    # horizons short of (N - 4)h pad the interval to fewer rows than q has
    grid, q, K = _problem("full", 64)
    f = mw.control_from_family("smooth_bump_control", (0.4, 0.25), grid)
    u = mw.fd_forward(q, K, f).T
    for M in (0, 1, 32, 59):
        u_short = mw.fd_forward(q, K, f, t_max=M * grid.h).T
        assert u_short.shape == (M + 5, M + 1)
        assert np.array_equal(u_short, u[: M + 5, : M + 1])


def test_fd_rejects_negative_horizon():
    grid, q, K = _problem("full", 64)
    f = mw.control_from_family("zero", (), grid)
    for t_max in (-grid.h, -0.5):
        with pytest.raises(mw.UsageError, match="negative"):
            mw.fd_forward(q, K, f, t_max=t_max)


@pytest.mark.parametrize("name", ["full", "classical"])
@pytest.mark.parametrize("n", [33, 64, 256])
@pytest.mark.parametrize("window", [1, 2])
def test_fd_cone_rows_match_the_whole_field(name, n, window):
    # the cone drops only rows that cannot reach the returned ones; with one
    # BLAS thread the rows it keeps are the default field's, bit for bit
    grid, q, K = _problem(name, n)
    f = mw.control_from_family("smooth_bump_control", (0.5, 0.25), grid,
                               full_window=True)
    M = window * n
    u = mw.fd_forward(q, K, f, window * grid.T).T
    assert u.shape == (M + 5, M + 1)
    for R in (0, 2, n // 2):
        u_cone = mw.fd_forward(q, K, f, window * grid.T, x_max=R * grid.h).T
        assert u_cone.shape == (R + 1, M + 1)
        assert np.array_equal(u_cone, u[: R + 1])


def test_fd_rejects_bad_x_max():
    grid, q, K = _problem("full", 32)
    f = mw.control_from_family("smooth_bump_control", (0.5, 0.25), grid)
    for x_max in (0.33, -grid.h, grid.T + 5 * grid.h):
        with pytest.raises(mw.UsageError, match="x_max"):
            mw.fd_forward(q, K, f, x_max=x_max)
    assert mw.fd_forward(q, K, f, x_max=grid.T + 4 * grid.h).T.shape == (37, 33)


def test_fd_trace_needs_three_rows():
    grid, q, K = _problem("full", 32)
    f = mw.control_from_family("smooth_bump_control", (0.5, 0.25), grid)
    with pytest.raises(mw.UsageError, match="rows 0-2"):
        mw.fd_boundary_trace(mw.fd_forward(q, K, f, x_max=grid.h), grid.h)
    trace = mw.fd_boundary_trace(mw.fd_forward(q, K, f, x_max=2 * grid.h), grid.h)
    assert np.array_equal(trace, mw.fd_boundary_trace(mw.fd_forward(q, K, f), grid.h))


def _direct_leapfrog(q, K, f, M):
    # the leapfrog loop with one full trapezoid history product per level,
    # over every row of the padded interval
    grid = f.grid
    h, N = grid.h, grid.N
    fv = f.padded_full()[: M + 1]
    Kv = K.values[: M + 1]
    nx = M + 4
    qpad = np.full(nx + 1, q.values[-1])
    qpad[: N + 1] = q.values
    u = np.zeros((nx + 1, M + 1))
    u[0, :] = fv
    for j in range(1, M):
        hist = u[:, : j + 1] @ (trapz_weights(j + 1, h) * Kv[j::-1])
        u[1:nx, j + 1] = (u[: nx - 1, j] + u[2:, j] - u[1:nx, j - 1]
                          - h * h * (qpad[1:nx] * u[1:nx, j] + hist[1:nx]))
    return u


@pytest.mark.parametrize("n", [130, 200])
@pytest.mark.parametrize("window", [1, 2])
@pytest.mark.parametrize("control", [("smooth_bump_control", (0.5, 0.25)),
                                     ("sine", (1.0, 1.0)),
                                     ("smooth_bump_control", (0.8, 0.1))])
def test_blocked_leapfrog_matches_direct_loop(n, window, control):
    # neither N is a multiple of the level block; both end in a partial block.
    # The sine is nonzero at t = h, so the wavefront row itself carries data;
    # the late bump starts at sample 91 of 130, so its march skips 90 levels
    # that the direct loop marches from t = 0
    grid, q, K = _problem("full", n)
    f = mw.control_from_family(*control, grid, full_window=True)
    u = mw.fd_forward(q, K, f, window * grid.T).T
    u_direct = _direct_leapfrog(q, K, f, window * n)
    bound = 1e-12 * (1.0 + np.abs(u_direct).max())
    assert np.abs(u - u_direct).max() <= bound
    cone = mw.fd_forward(q, K, f, window * grid.T, x_max=2 * grid.h).T
    assert np.abs(cone - u_direct[:3]).max() <= bound


@pytest.mark.parametrize("control, calls", [
    (("smooth_bump_control", (0.5, 0.25)), 64 - 1 - 16),
    (("sine", (1.0, 1.0)), 64 - 1),
    (("zero", ()), 0),
])
def test_leapfrog_starts_at_the_controls_first_nonzero_sample(monkeypatch, control, calls):
    # the march starts one level before the first nonzero sample: the bump is
    # zero on [0, T/4] (j0 = 16), the sine is nonzero at t = h (j0 = 0), and
    # the zero control marches no level; one history call per marched level
    grid, q, K = _problem("full", 64)
    f = mw.control_from_family(*control, grid)
    counted = []
    at = CausalHistory.at

    def count(self, j, n):
        counted.append(j)
        return at(self, j, n)

    monkeypatch.setattr(CausalHistory, "at", count)
    mw.fd_forward(q, K, f)
    assert len(counted) == calls


@pytest.mark.parametrize("n, nodes", [(64, 599), (1024, 147_839)])
def test_two_path_cone_march_forms_only_its_wavefront_and_cone(monkeypatch, n, nodes):
    # verify's two-path march: the bump on [T/4, 3T/4], rows 0-2 to t = T.
    # Shifted level j + 1 is formed on rows 1 .. min(j, R + (M - j0) - j - 1):
    # the rows the wavefront has reached that the returned rows read
    grid, q, K = _problem("full", n)
    f = mw.control_from_family("smooth_bump_control", (0.5, 0.25), grid)
    formed = []
    at = CausalHistory.at

    def count(self, j, rows):
        formed.append(rows - 1)
        return at(self, j, rows)

    monkeypatch.setattr(CausalHistory, "at", count)
    mw.fd_forward(q, K, f, grid.T, 2 * grid.h)
    assert sum(formed) == nodes


@pytest.mark.filterwarnings("error")  # no numpy warning ahead of the named blow-up
def test_fd_blowup_is_reported():
    grid = mw.GridSpec(1.0, 64)
    qbig = mw.CoefficientField(grid=grid, values=np.full(65, 1e12))
    k = mw.kernel_from_family("zero", (), grid)
    f = mw.control_from_family("smooth_bump_control", (0.4, 0.25), grid)
    with pytest.raises(mw.NumericalInstabilityError, match=r"grid node \(i=1, j=48\)$"):
        mw.fd_forward(qbig, k, f)


# ------------------------------------------------------------- control map


def test_control_map_free_is_pure_shift():
    grid, q, K = _problem("free", 64)
    sol = mw.solve_goursat(q, K, grid)
    f = mw.control_from_family("smooth_bump_control", (0.5, 0.3), grid)
    snap = apply_control_operator(sol, f)
    x = grid.times_half()
    exact = np.interp(grid.T - x, x, f.values, left=0.0, right=0.0)
    assert_allclose(snap.values, exact, atol=1e-14)


def test_control_map_agrees_with_fd():
    diffs = []
    for n in (32, 64):
        grid, q, K = _problem("full", n)
        sol = mw.solve_goursat(q, K, grid)
        f = mw.control_from_family("smooth_bump_control", (0.4, 0.25), grid)
        snap = apply_control_operator(sol, f)
        fd = mw.fd_forward(q, K, f)
        diffs.append(np.abs(snap.values - fd.T[: n + 1, -1]).max())
    assert diffs[0] < 5e-4
    assert diffs[0] / diffs[1] == pytest.approx(4.0, abs=1.0)


def test_duhamel_midtime_causality():
    grid, q, K = _problem("full", 64)
    sol = mw.solve_goursat(q, K, grid)
    f = mw.control_from_family("smooth_bump_control", (0.2, 0.15), grid)
    snap = duhamel_eval(sol, f, 0.5)
    # finite speed: nothing beyond x = t_star
    assert np.abs(snap.values[33:]).max() == 0.0
    assert np.abs(snap.values[:32]).max() > 0.0


def test_duhamel_rejects_offgrid_time():
    grid, q, K = _problem("free", 32)
    sol = mw.solve_goursat(q, K, grid)
    f = mw.control_from_family("zero", (), grid)
    with pytest.raises(mw.UsageError):
        duhamel_eval(sol, f, 0.7919)


# ----------------------------------------------------------- control solve


def test_solve_control_free_linear_target():
    grid, q, K = _problem("free", 64)
    sol = mw.solve_goursat(q, K, grid)
    t = grid.times_half()
    ctrl = solve_control(sol, t.copy())
    # free problem: u(x, T) = f(T - x), so the control is the reversed ramp
    assert_allclose(ctrl.values, grid.T - t, atol=1e-13)
    assert not ctrl.admissible


def test_control_round_trip_is_exact():
    grid, q, K = _problem("full", 100)
    sol = mw.solve_goursat(q, K, grid)
    f = mw.control_from_family("smooth_bump_control", (0.5, 0.3), grid)
    state = apply_control_operator(sol, f)
    back = solve_control(sol, state.values)
    # back-substitution inverts the discrete triangular map to rounding error
    assert_allclose(back.values, f.values, atol=1e-12)


def test_state_round_trip_is_exact():
    grid, q, K = _problem("full", 200)
    sol = mw.solve_goursat(q, K, grid)
    target = np.sin(np.pi * grid.times_half()) ** 2
    ctrl = solve_control(sol, target)
    fwd = apply_control_operator(sol, ctrl)
    assert_allclose(fwd.values, target, atol=1e-12)


def test_solve_control_checks_target_length():
    grid, q, K = _problem("free", 32)
    sol = mw.solve_goursat(q, K, grid)
    with pytest.raises(mw.UsageError):
        solve_control(sol, np.zeros(7))


# -------------------------------------------------------- boundary response


def test_response_map_free_is_minus_derivative():
    grid, q, K = _problem("free", 128)
    r = mw.response_kernel(mw.solve_goursat(q, K, grid))
    f = mw.control_from_family("smooth_bump_control", (0.5, 0.3), grid)
    out = mw.apply_response(r, f)
    assert_allclose(out, -sampled_derivative(f.values, grid.h), atol=1e-15)


def test_response_map_memory_closed_form():
    # constant kernel K0: (Rf)(t) ~ -f'(t) - (K0/2) (t * f)(t) + O(K0^2)
    grid, q, K = _problem("memory_only_small", 128)
    r = mw.response_kernel(mw.solve_goursat(q, K, grid))
    f = mw.control_from_family("smooth_bump_control", (0.5, 0.2), grid, full_window=True)
    out = mw.apply_response(r, f)
    t = grid.times_full()
    closed = -sampled_derivative(f.values, grid.h) - 0.005 * causal_convolution(
        t, f.values, grid.h
    )
    assert np.abs(out - closed).max() < 5e-6


def test_response_map_rejects_rough_control():
    grid, q, K = _problem("free", 32)
    r = mw.response_kernel(mw.solve_goursat(q, K, grid))
    sine = mw.control_from_family("sine", (1.0, 2.0), grid)
    with pytest.raises(mw.UsageError):
        mw.apply_response(r, sine)


def test_response_map_agrees_with_fd_trace():
    diffs = []
    for n in (64, 128):
        grid, q, K = _problem("full", n)
        r = mw.response_kernel(mw.solve_goursat(q, K, grid))
        f = mw.control_from_family("smooth_bump_control", (0.5, 0.25), grid, full_window=True)
        fd = mw.fd_forward(q, K, f, 2.0 * grid.T)
        diffs.append(np.abs(mw.fd_boundary_trace(fd, grid.h) - mw.apply_response(r, f)).max())
    # scale of the trace itself is ~7, so 0.25 at N=64 is a few percent
    assert diffs[0] < 0.5
    assert diffs[0] / diffs[1] > 2.5
