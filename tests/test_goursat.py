"""Characteristic-grid kernel march and boundary response extraction.

Small-amplitude catalogue problems have first-order closed forms that the
solver must reproduce:

* constant memory K0, no potential:  w(x, t) ~ -(K0/2) x (t - x),
  response r(t) ~ -(K0/2) t, both up to O(K0^2);
* constant potential q0, no memory:  w(x, t) ~ -(q0/2) x,
  response r(t) ~ -q0/2 for t > 0.

These were derived by plugging the ansatz into the kernel equation and
dropping quadratic terms; the frozen numbers below are those expressions
evaluated at the catalogue amplitudes (0.01).
"""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import memwave as mw
from memwave.model import cumulative_trapezoid
from oracles import dense_w, direct_march, linearized_memory_field, reference_response


def _solve(name, n):
    grid = mw.GridSpec(1.0, n)
    q, K = mw.get_problem(name).fields(grid)
    return mw.solve_goursat(q, K, grid)


def _direct(q, K, grid):
    q_ext = np.append(q.values, q.values[-1])
    diag = -0.5 * cumulative_trapezoid(q_ext, grid.h)
    return direct_march(q_ext, K.values, diag, grid, True)


# ------------------------------------------------------------- exact cases


def test_free_problem_kernel_vanishes():
    sol = _solve("free", 32)
    assert np.abs(dense_w(sol)).max() == 0.0


def test_free_problem_response_vanishes():
    r = mw.response_kernel(_solve("free", 32))
    assert np.abs(r.values).max() == 0.0


def test_diagonal_carries_half_potential_integral():
    sol = _solve("full", 64)
    want = -0.5 * cumulative_trapezoid(sol.q.values, sol.grid.h)
    assert_allclose(np.diagonal(dense_w(sol)), want, atol=1e-15)


def test_triangular_masking():
    # w is zero below the characteristic and past the march's extension
    # strip 2N < i + j <= 2N + 2, which holds the march's own rows
    sol = _solve("full", 32)
    n, n2 = sol.grid.N, sol.grid.N2
    w = dense_w(sol)
    assert w.shape == (n + 1, n2 + 1)
    assert not w.flags.writeable
    i, j = np.meshgrid(np.arange(n + 1), np.arange(n2 + 1), indexing="ij")
    assert np.abs(w[i > j]).max() == 0.0
    assert np.abs(w[i + j > n2 + 2]).max() == 0.0
    strip = (i + j > n2) & (i + j <= n2 + 2)
    assert np.abs(w[strip]).max() > 0.0
    ext = _direct(sol.q, sol.K, sol.grid)
    tol = 1e-12 * (1.0 + np.abs(ext).max())
    assert np.abs(w[strip] - ext[: n + 1][strip]).max() <= tol


def _march_bytes(grid):
    """Bytes of the dense (2N + 1) x (N + 2) march the level blocks replace."""
    return (grid.N + 2) * (grid.N2 + 1) * 8


def test_kernel_memory_is_a_small_multiple_of_the_march():
    # the level blocks cut the dense march to the triangle, and the response
    # reads two entries of each level from them: 0.665 of the dense march's
    # bytes at N = 1024, against 1.13 for the dense march
    grid = mw.GridSpec(1.0, 1024)
    q, K = mw.get_problem("full").fields(grid)
    tracemalloc.start()
    try:
        mw.response_kernel(mw.solve_goursat(q, K, grid))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.73 * _march_bytes(grid)


def test_solution_holds_the_march_once():
    # the solution keeps the level blocks alone, 0.563 of the dense march's
    # bytes at N = 1024; a dense march, or a dense w beside the blocks,
    # would hold a whole one or more
    grid = mw.GridSpec(1.0, 1024)
    q, K = mw.get_problem("full").fields(grid)
    tracemalloc.start()
    try:
        sol = mw.solve_goursat(q, K, grid)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 0.62 * _march_bytes(grid)


# ------------------------------------------- small-amplitude closed forms


def test_memory_kernel_spot_value():
    # -(K0/2) x (t - x) at x = 0.5, t = 1.0 with K0 = 0.01
    sol = _solve("memory_only_small", 128)
    assert dense_w(sol)[64, 128] == pytest.approx(-0.00125, abs=2.5e-5)


def test_memory_kernel_closed_form_everywhere():
    sol = _solve("memory_only_small", 64)
    n, n2 = sol.grid.N, sol.grid.N2
    x = np.linspace(0.0, 2.0, n2 + 1)
    i, j = np.meshgrid(np.arange(n + 1), np.arange(n2 + 1), indexing="ij")
    inside = (i <= j) & (i + j <= n2)
    approx = -(0.01 / 2.0) * x[i] * (x[j] - x[i])
    err = np.abs((dense_w(sol) - approx) * inside).max()
    assert err < 3e-6


def test_potential_kernel_spot_value():
    # -(q0/2) x at x = 0.5 with q0 = 0.01
    sol = _solve("potential_only_small", 128)
    assert dense_w(sol)[64, 128] == pytest.approx(-0.0025, abs=2.5e-5)


def test_memory_response_is_linear_ramp():
    r = mw.response_kernel(_solve("memory_only_small", 128))
    assert r.values[128] == pytest.approx(-0.005, abs=1e-4)
    t = np.linspace(0.0, 2.0, 257)
    assert np.abs(r.values + 0.005 * t).max() < 5e-5


def test_potential_response_is_constant_offset():
    r = mw.response_kernel(_solve("potential_only_small", 128))
    for k in (64, 128, 256):
        assert r.values[k] == pytest.approx(-0.005, abs=1e-4)


def _parity_orders(estimate, reference):
    """Orders of ``estimate(n)`` against ``reference`` from N = 32 to 64, on
    the even and on the odd sample indices."""
    coarse, fine = (np.abs(estimate(n) - reference[:: (reference.size - 1) // (2 * n)])
                    for n in (32, 64))
    return [float(np.log2(coarse[p::2].max() / fine[p::2].max())) for p in (0, 1)]


@pytest.mark.parametrize("problem", ["full", "classical"])
def test_same_parity_richardson_is_fourth_order_on_every_sample(problem):
    # against R(2N, 4N) at N = 128 (marches at 256 and 512): the native
    # response is second order on every sample; plain Richardson
    # (4 r_2N[::2] - r_N) / 3 is fourth order on the even samples and second
    # on the odd ones; R(2N, 4N) is fourth order on both (measured 4.0-4.1)
    spec = mw.get_problem(problem)
    reference = reference_response(spec, mw.GridSpec(1.0, 128)).values
    r = {n: mw.response_kernel(_solve(problem, n)).values for n in (32, 64, 128)}
    assert _parity_orders(lambda n: r[n], reference) == pytest.approx([2.0, 2.0], abs=0.2)
    plain = _parity_orders(lambda n: (4.0 * r[2 * n][::2] - r[n]) / 3.0, reference)
    assert plain == pytest.approx([4.0, 2.0], abs=0.2)
    same_parity = _parity_orders(
        lambda n: reference_response(spec, mw.GridSpec(1.0, n)).values, reference)
    assert same_parity == pytest.approx([4.0, 4.0], abs=0.2)


def test_response_window_and_start():
    r = mw.response_kernel(_solve("full", 32))
    assert r.values.shape == (65,)
    assert r.values[0] == 0.0


# --------------------------------------------------------- linearized march


def test_linearized_field_scales_exactly():
    grid = mw.GridSpec(1.0, 48)
    k1 = mw.kernel_from_family("constant", (0.01,), grid)
    k2 = mw.kernel_from_family("constant", (0.02,), grid)
    lin1 = linearized_memory_field(k1, grid)
    lin2 = linearized_memory_field(k2, grid)
    assert_allclose(lin2, 2.0 * lin1, atol=0.0)


def test_full_march_deviates_quadratically_from_linearized():
    grid = mw.GridSpec(1.0, 64)
    q0, _ = mw.get_problem("free").fields(grid)
    devs = []
    for amp in (0.01, 0.02):
        k = mw.kernel_from_family("constant", (amp,), grid)
        sol = mw.solve_goursat(q0, k, grid)
        lin = linearized_memory_field(k, grid)
        devs.append(np.abs(dense_w(sol) - lin).max())
    assert devs[0] < 3e-6
    assert devs[1] / devs[0] == pytest.approx(4.0, abs=0.5)


# ------------------------------------------------------- cross-route march


@pytest.mark.parametrize("n", [130, 200])
@pytest.mark.parametrize("problem", ["full", "classical", "memory_only_small"])
def test_blocked_march_matches_direct_march(problem, n):
    # neither N is a multiple of the level block; both end in a partial block
    grid = mw.GridSpec(1.0, n)
    q, K = mw.get_problem(problem).fields(grid)
    sol = mw.solve_goursat(q, K, grid)
    ext = _direct(q, K, grid)
    tol = 1e-12 * (1.0 + np.abs(ext).max())
    assert np.abs(dense_w(sol) - ext[: n + 1]).max() <= tol


def _blocks_hold_the_march(march, ext):
    """Whether the level blocks equal the direct march ``ext`` (ext[i, j] at
    node (i, j)) over their extent and the march vanishes past it."""
    ext = ext.copy()
    j0 = 0
    for block in march:
        j1, m = j0 + block.shape[0], block.shape[1]
        if not np.array_equal(block.T, ext[:m, j0:j1]):
            return False
        ext[:m, j0:j1] = 0.0
        j0 = j1
    return not ext.any()


@pytest.mark.parametrize("n", [16, 64, 200])
@pytest.mark.parametrize("problem", sorted(mw.PROBLEMS))
def test_packed_march_equals_direct_march(problem, n):
    # the level blocks hold every node the unblocked march writes, and the
    # march over them is the direct march to the last bit on the catalogue
    grid = mw.GridSpec(1.0, n)
    q, K = mw.get_problem(problem).fields(grid)
    sol = mw.solve_goursat(q, K, grid)
    ext = _direct(q, K, grid)
    assert _blocks_hold_the_march(sol.march, ext)
    assert np.array_equal(dense_w(sol), ext[: n + 1])


def test_packed_march_matches_direct_march_at_1024():
    # the history's far products change shape with the blocks, so at
    # N = 1024 the two marches differ in their last bits alone
    grid = mw.GridSpec(1.0, 1024)
    q, K = mw.get_problem("full").fields(grid)
    sol = mw.solve_goursat(q, K, grid)
    ext = _direct(q, K, grid)
    j0 = 0
    for block in sol.march:
        # the difference over the block; past the blocks the direct march
        # itself is left, which the bound holds near zero too
        ext[: block.shape[1], j0 : j0 + block.shape[0]] -= block.T
        j0 += block.shape[0]
    assert np.abs(ext).max() <= 1e-13 * np.abs(dense_w(sol)).max()


# ------------------------------------------------------ consistency checks


def _potential(name, n):
    return mw.get_problem(name).fields(mw.GridSpec(1.0, n))[0]


def test_diagonal_residual_exact_for_constant_potential():
    assert mw.diagonal_residual(_potential("potential_only_small", 64)) < 1e-12


def test_diagonal_residual_second_order():
    vals = [mw.diagonal_residual(_potential("classical", n)) for n in (64, 128)]
    assert vals[0] / vals[1] == pytest.approx(4.0, abs=1.0)


@pytest.mark.parametrize("n", [16, 64, 200])
@pytest.mark.parametrize("problem", sorted(mw.PROBLEMS))
def test_march_diagonal_is_the_characteristic_data(problem, n):
    # the march imposes the diagonal law as data and never writes the
    # diagonal again, so the residual of its diagonal is a closed form in q
    sol = _solve(problem, n)
    d = np.diagonal(dense_w(sol))
    assert np.array_equal(d, -0.5 * cumulative_trapezoid(sol.q.values, sol.grid.h))
    slope = (d[2:] - d[:-2]) / (2.0 * sol.grid.h)
    marched = float(np.max(np.abs(slope + 0.5 * sol.q.values[1:-1])))
    assert marched == mw.diagonal_residual(sol.q)


# ------------------------------------------------------------- error paths


@pytest.mark.filterwarnings("error")  # no numpy warning ahead of the named blow-up
def test_march_blowup_is_reported():
    grid = mw.GridSpec(1.0, 64)
    qbig = mw.CoefficientField(grid=grid, values=np.full(65, 1e8))
    k = mw.kernel_from_family("zero", (), grid)
    with pytest.raises(mw.NumericalInstabilityError, match=r"grid node \(i=1, j=70\)$"):
        mw.solve_goursat(qbig, k, grid)


def test_grid_mismatch_rejected():
    g1, g2 = mw.GridSpec(1.0, 32), mw.GridSpec(1.0, 64)
    q, _ = mw.get_problem("free").fields(g1)
    k = mw.kernel_from_family("zero", (), g2)
    with pytest.raises(mw.UsageError):
        mw.solve_goursat(q, k, g2)


def test_response_data_validation():
    grid = mw.GridSpec(1.0, 16)
    with pytest.raises(mw.UsageError):
        mw.ResponseData(grid=grid, values=np.zeros(16))  # wrong length
    bad_start = np.zeros(33)
    bad_start[0] = 1.0
    with pytest.raises(mw.UsageError):
        mw.ResponseData(grid=grid, values=bad_start)
    bad_nan = np.zeros(33)
    bad_nan[5] = np.nan
    with pytest.raises(mw.UsageError):
        mw.ResponseData(grid=grid, values=bad_nan)
