"""Inverse-factor solves, consistency residuals, and potential recovery.

Two independent routes to the kernel z are compared everywhere: the
collocation solve from the connecting kernel (data route) and the Volterra
back-substitution from the triangular kernel w (oracle route, never sees
boundary data).  The composition identity (I + Z)(I + W) = I is checked by
explicit quadrature at a small size, making the oracle self-validating.

The one-factorization solve and the vectorized residual are held against
their column-by-column originals, and the in-place inverse Cholesky factor
against its dense form, all kept here as test-local oracles; the closed
form of the identity check is held against the dense triple product of
``tests/oracles.py``.
"""

import functools
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import memwave as mw
from memwave.gelfand_levitan import _inverse_cholesky
from memwave.model import (
    _BLOCK,
    cumulative_trapezoid,
    trapz_weights,
)
from oracles import dense_identity_residual, dense_w, first_non_positive_block, z_from_w


def _w_solution(name, n):
    grid = mw.GridSpec(1.0, n)
    q, K = mw.get_problem(name).fields(grid)
    return mw.solve_goursat(q, K)


def _lu_solve_gl(c):
    """Oracle: one dense LU solve of the Nystrom collocation system per column."""
    N, h = c.grid.N, c.grid.h
    C = c.values
    z = np.zeros((N + 1, N + 1))
    z[0, 0] = -C[0, 0]
    for j in range(1, N + 1):
        n = j + 1
        M = np.eye(n) + C[:n, :n] * trapz_weights(n, h)[None, :]
        z[:n, j] = np.linalg.solve(M, -C[:n, j])
    return z


def _loop_gl_residual(c, z):
    """Oracle: sup-norm residual of the column equations, one column at a time."""
    N, h = c.grid.N, c.grid.h
    C = c.values
    worst = abs(z[0, 0] + C[0, 0])
    for j in range(1, N + 1):
        n = j + 1
        w = trapz_weights(n, h)
        res = z[:n, j] + (C[:n, :n] * w[None, :]) @ z[:n, j] + C[:n, j]
        worst = max(worst, float(np.max(np.abs(res))))
    return worst


@functools.lru_cache(maxsize=None)
def _kernel(name, n, route):
    sol = _w_solution(name, n)
    if route == "w":
        return mw.connecting_kernel_from_w(sol)
    return mw.connecting_kernel_from_response(mw.response_kernel(sol), sol.K)


# --------------------------------------------------------------- base cases


def test_free_kernel_gives_zero_z():
    sol = _w_solution("free", 32)
    gl = mw.solve_gl(mw.connecting_kernel_from_w(sol))
    assert np.abs(gl.z).max() == 0.0
    assert gl.cond_estimate == pytest.approx(1.0)


def test_potential_diag_spot_value():
    # z(x, x) = (1/2) int_0^x q, so 0.0025 at x = 0.5 for q0 = 0.01
    sol = _w_solution("potential_only_small", 128)
    gl = mw.solve_gl(mw.connecting_kernel_from_w(sol))
    assert gl.z[64, 64] == pytest.approx(0.0025, abs=1e-5)


def test_z_strictly_lower_part_vanishes():
    # 300 runs the recursion, which zeroes the upper block of each node;
    # the identity's triple product reads z.T and relies on this zero triangle
    for n in (64, 300):
        gl = mw.solve_gl(_kernel("full", n, "w"))
        i, j = np.tril_indices(n + 1, k=-1)
        assert np.abs(gl.z[i, j]).max() == 0.0


# ------------------------------------------------------ route cross-checks


def test_collocation_matches_back_substitution():
    diffs = []
    for n in (32, 64):
        sol = _w_solution("full", n)
        ct = mw.connecting_kernel_from_w(sol)
        diffs.append(np.abs(mw.solve_gl(ct).z - z_from_w(sol).z).max())
    assert diffs[1] < 5e-7
    assert diffs[0] / diffs[1] == pytest.approx(4.0, abs=1.0)


def test_back_substitution_composition_identity():
    # explicit quadrature check of (I + Z)(I + W) = I on the triangle
    sol = _w_solution("full", 16)
    z = z_from_w(sol).z
    W = dense_w(sol)[:, :17]
    h = sol.grid.h
    worst = 0.0
    for i in range(17):
        for j in range(i, 17):
            if j == i:
                val = z[i, j] + W[i, j]
            else:
                wts = trapz_weights(j - i + 1, h)
                val = z[i, j] + W[i, j] + z[i, i : j + 1] @ (wts * W[i : j + 1, j])
            worst = max(worst, abs(val))
    assert worst < 1e-12


def test_z_diag_mirrors_w_diag_exactly(full_goursat):
    z = z_from_w(full_goursat).z
    W = dense_w(full_goursat)[:, :65]
    assert np.abs(np.diagonal(z) + np.diagonal(W)).max() == 0.0


def test_z_is_minus_w_to_first_order():
    grid = mw.GridSpec(1.0, 64)
    q, _ = mw.get_problem("free").fields(grid)
    K = mw.kernel_from_family("constant", (1e-3,), grid)
    sol = mw.solve_goursat(q, K)
    z = z_from_w(sol).z
    W = dense_w(sol)[:, :65]
    i, j = np.triu_indices(65)
    # w ~ 1e-4, so the quadratic remainder sits around 1e-8
    assert np.abs(z[i, j] + W[i, j]).max() < 1e-8


def test_diagonal_encodes_potential_integral(full_goursat):
    z = z_from_w(full_goursat)
    want = 0.5 * cumulative_trapezoid(full_goursat.q.values, full_goursat.grid.h)
    assert_allclose(z.diagonal(), want, atol=1e-15)


# ---------------------------------------------------- consistency residuals


def test_gl_residual_is_machine_small(full_goursat):
    ct = mw.connecting_kernel_from_w(full_goursat)
    gl = mw.solve_gl(ct)
    scale = 1.0 + np.abs(ct.values).max()
    assert mw.gl_residual(ct, gl) < 1e-10 * scale


def test_operator_identity_second_order():
    vals = []
    for n in (32, 64):
        sol = _w_solution("full", n)
        ct = mw.connecting_kernel_from_w(sol)
        vals.append(mw.operator_identity_residual(ct, mw.solve_gl(ct)))
    assert vals[1] < 5e-6
    assert vals[0] / vals[1] == pytest.approx(4.0, abs=1.0)


@pytest.mark.parametrize("name, n", [
    ("classical", 64), ("classical", 300), ("full", 64), ("full", 300),
    ("random", 127), ("random", 128), ("random", 129), ("random", 300),
])
def test_operator_identity_matches_dense_triple_product(name, n):
    # 300 runs the solve's recursion, 64 one leaf.  "random" is a random
    # symmetric positive C, which solve_gl solves, with c(0, 0) != 0; at odd
    # n a large c(0, 0) makes the corner term E[0, 0] the maximum
    if name == "random":
        rng = np.random.default_rng(n)
        B = rng.standard_normal((n + 1, n + 1))
        C = B @ B.T / n
        C[0, 0] += n % 2 * n
        c = mw.ConnectingKernel(grid=mw.GridSpec(1.0, n), values=C)
    else:
        c = _kernel(name, n, "w")
    gl = mw.solve_gl(c)
    want = dense_identity_residual(c, gl)
    assert want > 0.0
    got = mw.operator_identity_residual(c, gl)
    assert abs(got - want) <= 1e-13 * (1.0 + np.abs(c.values).max())


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("name", ["full", "classical", "potential_only_small"])
def test_operator_identity_measures_the_diagonal_of_z(name, n):
    # on a z that solves the column equations the residual is the
    # diagonal's (D_j z_jj / 2)^2 alone, up to D_j times the collocation
    # residual: E[t, j] = D_j [(I + Z_h* D) R][t, j] - delta_tj (D_j z_jj / 2)^2
    c = _kernel(name, n, "response")
    gl = mw.solve_gl(c)
    D = trapz_weights(n + 1, c.grid.h)[:n]
    want = float(np.max((0.5 * D * np.diagonal(gl.z)[:n]) ** 2))
    assert want > 0.0
    assert abs(dense_identity_residual(c, gl) - want) <= 5e-16
    assert abs(mw.operator_identity_residual(c, gl) - want) <= 5e-16


def test_operator_identity_on_back_substitution(full_goursat):
    ct = mw.connecting_kernel_from_w(full_goursat)
    # z_from_w's z does not solve the column equations, so the closed form
    # does not hold for it: the dense triple product reads it
    res = dense_identity_residual(ct, z_from_w(full_goursat))
    assert res < 5e-6


def test_condition_estimate_stays_small(full_ct_oracle):
    gl = mw.solve_gl(full_ct_oracle)
    assert gl.cond_estimate < 1e3


def _node_sqrt_weights(grid):
    d = np.full(grid.N + 1, grid.h)
    d[0] *= 0.5
    return np.sqrt(d)


def _weighted_operator(c):
    """A = I + D^1/2 C D^1/2, the operator whose condition ``solve_gl`` reports."""
    sq = _node_sqrt_weights(c.grid)
    return np.eye(c.grid.N + 1) + c.values * sq[:, None] * sq[None, :]


def test_condition_estimate_is_exact_one_norm_condition(full_ct_oracle):
    gl = mw.solve_gl(full_ct_oracle)
    want = np.linalg.cond(_weighted_operator(full_ct_oracle), 1)
    assert gl.cond_estimate == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("n", [8, 9, 40, 130, 300])
def test_condition_estimate_bounds_the_condition_of_random_operators(n):
    # A = Q diag(lam) Q^T with a log-uniform spectrum in [1e-4, 10]: the
    # estimate is a lower bound, and within 3x of the condition.  On these
    # 60 operators Hager's steps miss the largest column of A^-1 in 32
    # (0.64 to 1.0 of the condition), where the catalogue kernels never do
    rng = np.random.default_rng(n)
    grid = mw.GridSpec(1.0, n)
    sq = _node_sqrt_weights(grid)
    for _ in range(12):
        Q, _ = np.linalg.qr(rng.standard_normal((n + 1, n + 1)))
        lam = np.exp(rng.uniform(np.log(1e-4), np.log(10.0), n + 1))
        A = (Q * lam) @ Q.T
        A = 0.5 * (A + A.T)
        c = mw.ConnectingKernel(grid=grid, values=(A - np.eye(n + 1)) / sq[:, None] / sq)
        want = np.linalg.cond(_weighted_operator(c), 1)
        got = mw.solve_gl(c).cond_estimate
        assert want / 3.0 <= got <= want * (1.0 + 1e-10)


def test_condition_above_the_limit_is_refused(grid32):
    # A = I + D^1/2 C D^1/2 is diag(0.5 + 0.5e-13, 1e-13, ..., 1e-13): positive,
    # so it factors, with a one-norm condition of 5e12
    c = mw.ConnectingKernel(grid=grid32, values=np.diag(np.full(33, -(1.0 - 1e-13) / grid32.h)))
    with pytest.raises(mw.IllConditionedError,
                       match=r"condition 5\.00e\+12 exceeds 1e\+12; the data do not"):
        mw.solve_gl(c)


def test_free_kernel_pivots(grid32):
    c = mw.ConnectingKernel(grid=grid32, values=np.zeros((33, 33)))
    gl = mw.solve_gl(c)
    assert gl.min_pivot == pytest.approx(1.0, rel=1e-14)
    assert gl.min_pivot_depth == 0.0
    assert gl.pivot_deciles == pytest.approx([1.0] * 10, rel=1e-14)


@pytest.mark.parametrize("n", [8, 64])
def test_pivot_deciles_are_tenthwise_minima(n):
    # oracle: the pivots of a direct Cholesky factorization of the weighted
    # operator A = I + D^1/2 C D^1/2, split into ten parts in depth order
    grid = mw.GridSpec(1.0, n)
    q, K = mw.get_problem("full").fields(grid)
    ct = mw.connecting_kernel_from_w(mw.solve_goursat(q, K))
    d = np.full(n + 1, grid.h)
    d[0] *= 0.5
    sq = np.sqrt(d)
    A = np.eye(n + 1) + ct.values * sq[:, None] * sq[None, :]
    pivots = np.diagonal(np.linalg.cholesky(A)) ** 2
    parts = np.array_split(pivots, min(10, n + 1))
    gl = mw.solve_gl(ct)
    assert len(gl.pivot_deciles) == min(10, n + 1)
    assert gl.pivot_deciles == pytest.approx([p.min() for p in parts], rel=1e-12)
    assert min(gl.pivot_deciles) == gl.min_pivot


def test_singular_kernel_raises():
    grid = mw.GridSpec(1.0, 32)
    c = mw.ConnectingKernel(grid=grid, values=-np.eye(33) / grid.h)
    with pytest.raises(mw.IllConditionedError):
        mw.solve_gl(c)


def test_singular_kernel_names_first_depth():
    # I + D^1/2 C D^1/2 loses positivity at the first node with weight h
    grid = mw.GridSpec(1.0, 32)
    c = mw.ConnectingKernel(grid=grid, values=-np.eye(33) / grid.h)
    with pytest.raises(mw.IllConditionedError, match=r"not positive.* s = 0\.03125;"):
        mw.solve_gl(c)


@pytest.mark.parametrize("s0", [0.25, 0.6, 0.9])
def test_non_positive_operator_names_its_depth(full_ct_oracle, grid64, s0):
    # the oracle kernel is positive; a mass of -2/h on the diagonal beyond s0
    # turns I + C into about -I there
    t = grid64.times_half()
    beyond = (t >= s0).astype(float)
    c = mw.ConnectingKernel(
        grid=grid64, values=full_ct_oracle.values - np.diag(2.0 * beyond / grid64.h)
    )
    with pytest.raises(mw.IllConditionedError, match="not positive") as exc:
        mw.solve_gl(c)
    s = float(str(exc.value).split(" s = ")[1].split(";")[0])
    assert abs(s - s0) <= grid64.h


@pytest.mark.parametrize("s0", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("n", [300, 1024])
def test_failing_leaf_names_the_bisection_node(n, s0, monkeypatch):
    # as above, across many leaves: the failing leaf names the node that the
    # oracle's bisection of the whole S finds, and the failing solve factors
    # no block larger than a leaf
    c = _kernel("full", n, "w")
    grid = c.grid
    beyond = (grid.times_half() >= s0).astype(float)
    c = mw.ConnectingKernel(grid=grid, values=c.values - np.diag(2.0 * beyond / grid.h))
    d = np.full(n + 1, grid.h)
    d[0] *= 0.5
    want = first_non_positive_block(c.values + np.diag(1.0 / d))
    assert abs(want * grid.h - s0) <= grid.h
    sizes = []
    real = np.linalg.cholesky

    def counted(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    with pytest.raises(mw.IllConditionedError, match="not positive") as exc:
        mw.solve_gl(c)
    assert f"; node {want} of N = {n}." in str(exc.value)
    assert sizes and max(sizes) <= _BLOCK


def test_z_invariant_under_symmetrization(full_ct_oracle, grid64):
    # asymmetry at round-off level must not move the solution
    rng = np.random.default_rng(5)
    pert = 1e-12 * rng.standard_normal((65, 65))
    c1 = mw.ConnectingKernel(grid=grid64, values=full_ct_oracle.values + pert)
    c2 = mw.ConnectingKernel(grid=grid64, values=0.5 * (c1.values + c1.values.T))
    assert np.abs(mw.solve_gl(c1).z - mw.solve_gl(c2).z).max() < 1e-10


# --------------------------------------------- one factorization vs. oracle


@pytest.mark.parametrize("noise", [0.0, 1e-4])
@pytest.mark.parametrize("route", ["response", "w"])
@pytest.mark.parametrize("n", [32, 64, 128])
@pytest.mark.parametrize("name", ["full", "classical", "memory_only_small",
                                  "potential_only_small"])
def test_factorized_solve_matches_column_solves(name, n, route, noise):
    # noise: symmetric white noise of that share of max|c|, as noisy data give;
    # q differentiates the diagonal of z, so it magnifies a diagonal that loses
    # digits to cancellation (pivots near 1) by 1/h
    c = _kernel(name, n, route)
    if noise:
        e = np.random.default_rng(n).standard_normal(c.values.shape)
        e = noise * np.abs(c.values).max() * 0.5 * (e + e.T)
        c = mw.ConnectingKernel(grid=c.grid, values=c.values + e)
    want = _lu_solve_gl(c)
    gl = mw.solve_gl(c)
    assert np.abs(gl.z - want).max() <= 1e-12 * (1.0 + np.abs(want).max())
    q_want = mw.recover_potential(mw.GLSolution(grid=c.grid, z=want)).values
    assert np.abs(mw.recover_potential(gl).values - q_want).max() <= 1e-12


def test_solve_gl_factors_once_and_never_solves(full_ct_oracle, monkeypatch):
    # dense factors and inverses only ever see the diagonal leaf blocks of
    # the one factorization, which tile the matrix; nothing solves
    sizes = {"cholesky": [], "inv": [], "solve": []}

    def recorded(name):
        real = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            sizes[name].append(a.shape[0])
            return real(a, *args, **kwargs)

        return wrapper

    for name in sizes:
        monkeypatch.setattr(np.linalg, name, recorded(name))
    mw.solve_gl(full_ct_oracle)
    assert sizes == {"cholesky": [65], "inv": [65], "solve": []}

    for leaves in sizes.values():
        leaves.clear()
    mw.solve_gl(_kernel("full", 300, "w"))
    assert sizes["cholesky"] == sizes["inv"] and sizes["solve"] == []
    assert sum(sizes["cholesky"]) == 301 and max(sizes["cholesky"]) <= _BLOCK


def test_blocked_solve_matches_column_solves_beyond_the_leaf():
    c = _kernel("full", 300, "w")
    want = _lu_solve_gl(c)
    gl = mw.solve_gl(c)
    assert np.abs(gl.z - want).max() <= 1e-12 * (1.0 + np.abs(want).max())
    kappa = np.linalg.cond(_weighted_operator(c), 1)
    assert gl.cond_estimate == pytest.approx(kappa, rel=1e-10)


# ------------------------------ blocked factor and residual vs. oracles

_SIZES = [1, 2, 127, 128, 129, 300, 1025]


def _positive(n, seed):
    """A well-conditioned symmetric positive matrix of size n."""
    X = np.random.default_rng(seed).standard_normal((n, n))
    return np.eye(n) + (0.5 / n) * (X @ X.T)


@pytest.mark.parametrize("n", _SIZES)
def test_tril_inverse_matches_dense_inverse(n):
    # the triangular inverse that the in-place recursion leaves over S
    S = _positive(n, n)
    L = np.linalg.cholesky(S)
    want = np.linalg.inv(L)
    got = S.copy()
    got[np.triu_indices(n, 1)] = np.nan  # only the lower triangle is read
    diagonal = _inverse_cholesky(got)
    assert not np.any(np.triu(got, 1))
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert np.abs(diagonal - np.diagonal(L)).max() <= 1e-13 * np.abs(np.diagonal(L)).max()
    # an indefinite S fails in its last leaf
    S[-1, -1] = -1.0
    with pytest.raises(np.linalg.LinAlgError):
        _inverse_cholesky(S)


@pytest.mark.parametrize("route", ["response", "w"])
def test_gl_residual_matches_column_loop(route):
    c = _kernel("full", 64, route)
    gl = mw.solve_gl(c)
    scale = (1.0 + np.abs(c.values).max()) * (1.0 + np.abs(gl.z).max())
    assert abs(mw.gl_residual(c, gl) - _loop_gl_residual(c, gl.z)) <= 1e-15 * scale


def test_gl_residual_matches_column_loop_beyond_the_leaf():
    # at N = 300 the product C @ zw runs as block products, not one matmul
    c = _kernel("full", 300, "w")
    gl = mw.solve_gl(c)
    want = _loop_gl_residual(c, gl.z)
    assert want > 0.0
    scale = (1.0 + np.abs(c.values).max()) * (1.0 + np.abs(gl.z).max())
    assert abs(mw.gl_residual(c, gl) - want) <= 1e-15 * scale


def _residual_peak_arrays(check):
    """The traced peak of ``check`` on the solved `full` kernel at N = 512,
    in (N+1)^2 arrays."""
    c = _kernel("full", 512, "w")
    gl = mw.solve_gl(c)
    tracemalloc.start()
    try:
        check(c, gl)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (8 * (c.grid.N + 1) ** 2)


@pytest.mark.parametrize("check, arrays", [(mw.gl_residual, 0.75),
                                           (mw.operator_identity_residual, 1.0)])
def test_residual_holds_its_full_array_budget(check, arrays):
    # gl_residual: one weighted column block of z, then one column block of
    # the residual and its upper triangle; operator identity: no more than
    # one full array
    assert _residual_peak_arrays(check) <= arrays


def test_identity_residual_holds_only_vectors():
    # the closed form reads z's diagonal alone, a few vectors of N + 1;
    # any (N+1)^2 temporary would read 1.0 or more
    assert _residual_peak_arrays(mw.operator_identity_residual) <= 0.01


def _solve_peak_arrays(n):
    """The traced peak of ``solve_gl`` on the `full` kernel at N = n, in
    (N+1)^2 arrays above the live kernel."""
    c = _kernel("full", n, "w")
    tracemalloc.start()
    try:
        mw.solve_gl(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (8 * (c.grid.N + 1) ** 2)


def test_solve_peak_at_512_is_one_array_and_its_blocks():
    # above the live kernel, the solve holds the one array it factors in
    # and forms z in, and one column block of |A| for the condition's norm
    # (1.32 arrays at N = 512); the estimate of the inverse's norm holds
    # only vectors (1.02).  Half-size temporaries of the factor's 2x2
    # blocks, or a second column block beside the first, read 1.57
    assert _solve_peak_arrays(512) <= 1.45


def test_solve_factors_in_place_within_its_traced_peak():
    # S is overwritten with the inverse factor and z forms in its storage,
    # so the peak is that one array with block temporaries (1.15 arrays);
    # a separate z, factor or inverse of it would cost another array
    # (tracemalloc does not see LAPACK's work copies at all)
    assert _solve_peak_arrays(1024) <= 1.7


def test_gl_residual_matches_column_loop_on_perturbed_z(full_ct_oracle):
    rng = np.random.default_rng(11)
    gl = mw.solve_gl(full_ct_oracle)
    z = np.triu(gl.z + 0.5 * rng.standard_normal(gl.z.shape))
    bad = mw.GLSolution(grid=gl.grid, z=z)
    want = _loop_gl_residual(full_ct_oracle, z)
    assert want > 0.1
    scale = (1.0 + np.abs(full_ct_oracle.values).max()) * (1.0 + np.abs(z).max())
    assert abs(mw.gl_residual(full_ct_oracle, bad) - want) <= 1e-15 * scale


# ---------------------------------------------------------------- recovery


def test_recover_potential_full_problem():
    errs = []
    for n in (64, 128):
        sol = _w_solution("full", n)
        qhat = mw.recover_potential(z_from_w(sol))
        e = mw.reconstruction_errors(sol.q.values, qhat.values, sol.grid)
        errs.append(e["max_abs"])
    assert errs[0] < 1e-2
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.0)


def test_recover_potential_through_collocation(full_goursat):
    gl = mw.solve_gl(mw.connecting_kernel_from_w(full_goursat))
    qhat = mw.recover_potential(gl)
    e = mw.reconstruction_errors(full_goursat.q.values, qhat.values, full_goursat.grid)
    assert e["max_abs"] < 1e-2
    assert e["interior_rel"] < 1e-2


def test_reconstruction_errors_identical_input(grid64):
    q = np.sin(grid64.times_half())
    e = mw.reconstruction_errors(q, q.copy(), grid64)
    assert e == {"max_abs": 0.0, "interior_rel": 0.0, "interior_linf": 0.0}


def test_reconstruction_errors_window():
    grid = mw.GridSpec(1.0, 10)
    q = np.zeros(11)
    qhat = np.zeros(11)
    qhat[0] = 100.0  # boundary spike must not enter the interior metrics
    qhat[5] = 0.5
    e = mw.reconstruction_errors(q, qhat, grid)
    assert e["max_abs"] == 100.0
    assert e["interior_linf"] == 0.5
