"""Correlation march, connecting form, and the kernel assembly.

The free problem gives machine-exact references (the march telescopes the
discrete overlap integral exactly at unit Courant).  The small-amplitude
memory problem has the first-order closed form c(t, s) ~ -(K0/2) t (s - t)
for t <= s, checked at a spot value.  Everything data-driven is compared
against the w-oracle route, which never sees boundary data, and the
adjoint assembly against a test-local sweep that marches every probe pair
on its own.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import memwave as mw
from memwave import connecting
from memwave.connecting import (
    _BLOCK,
    _adjoint_weights,
    _causal_correlation,
    _correlation_spectrum,
    _diagonal_asymmetry,
    _fft_length,
    _galerkin,
    _impulse_response,
    _kernel_from_galerkin,
    _mirror_lower,
)
from memwave.model import bump_profile, causal_convolution, trapezoid, trapz_weights
from oracles import dense_adjoint_weights, dense_w, solve_blagoveshchenskii


def _traced_peak_arrays(fn, grid):
    """The traced peak of ``fn()`` above its entry, in (N+1)^2 arrays."""
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - base) / (8 * (grid.N + 1) ** 2)


def _free_setup(n):
    grid = mw.GridSpec(1.0, n)
    q, K = mw.get_problem("free").fields(grid)
    r = mw.response_kernel(mw.solve_goursat(q, K, grid))
    return grid, K, r


def _bump(grid, center, width, full=False):
    return mw.control_from_family(
        "smooth_bump_control", (center, width), grid, full_window=full
    )


# --------------------------------------------------------- correlation march


def test_psi_free_matches_overlap_integral():
    grid, K, r = _free_setup(64)
    f = _bump(grid, 0.3, 0.2)
    g = _bump(grid, 0.6, 0.25)
    psi = solve_blagoveshchenskii(r, K, f, g)
    fv, gv = f.padded_full(), g.padded_full()
    lag = np.arange(grid.N + 1)
    worst = 0.0
    for ti in range(0, grid.N2 + 1, 7):
        for sj in range(0, grid.N2 + 1 - ti, 5):
            uf = np.where(ti - lag >= 0, fv[np.clip(ti - lag, 0, None)], 0.0)
            ug = np.where(sj - lag >= 0, gv[np.clip(sj - lag, 0, None)], 0.0)
            ref = trapezoid(uf * ug, grid.h)
            worst = max(worst, abs(psi.values[ti, sj] - ref))
    assert worst < 1e-13


def test_psi_zero_control_vanishes():
    grid, K, r = _free_setup(32)
    f = _bump(grid, 0.4, 0.2)
    z = mw.control_from_family("zero", (), grid)
    assert np.abs(solve_blagoveshchenskii(r, K, f, z).values).max() == 0.0


def test_psi_masked_outside_its_domain():
    grid, K, r = _free_setup(32)
    f = _bump(grid, 0.4, 0.2)
    psi = solve_blagoveshchenskii(r, K, f, f)
    tt, ss = np.indices(psi.values.shape)
    assert np.abs(psi.values[tt + ss > grid.N2]).max() == 0.0


def test_psi_needs_admissible_controls():
    grid, K, r = _free_setup(32)
    sine = mw.control_from_family("sine", (1.0, 2.0), grid)
    with pytest.raises(mw.UsageError):
        solve_blagoveshchenskii(r, K, sine, sine)


def test_psi_march_blowup_reported():
    grid, K, _ = _free_setup(32)
    rbad = mw.ResponseData(grid, np.concatenate([[0.0], np.full(64, 1e308)]))
    f = _bump(grid, 0.4, 0.2)
    with np.errstate(all="ignore"):
        with pytest.raises(mw.NumericalInstabilityError):
            solve_blagoveshchenskii(rbad, K, f, f)


@given(
    alpha=st.floats(-2.0, 2.0),
    beta=st.floats(-2.0, 2.0),
)
@settings(max_examples=15, deadline=None)
def test_psi_bilinear_in_first_control(alpha, beta):
    grid = mw.GridSpec(1.0, 16)
    q, K = mw.get_problem("full").fields(grid)
    r = mw.response_kernel(mw.solve_goursat(q, K, grid))
    f1 = _bump(grid, 0.35, 0.2)
    f2 = _bump(grid, 0.6, 0.25)
    g = _bump(grid, 0.5, 0.3)
    combo = mw.ControlSignal(
        grid, alpha * f1.values + beta * f2.values, admissible=True
    )
    lhs = solve_blagoveshchenskii(r, K, combo, g).values
    rhs = alpha * solve_blagoveshchenskii(r, K, f1, g).values
    rhs = rhs + beta * solve_blagoveshchenskii(r, K, f2, g).values
    assert_allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------- connecting form


def test_form_from_psi_matches_interior_oracle():
    diffs = []
    for n in (32, 64):
        grid = mw.GridSpec(1.0, n)
        q, K = mw.get_problem("full").fields(grid)
        r = mw.response_kernel(mw.solve_goursat(q, K, grid))
        f = _bump(grid, 0.3, 0.2)
        g = _bump(grid, 0.6, 0.25)
        data_val = solve_blagoveshchenskii(r, K, f, g).at_final()
        oracle = mw.connecting_form_from_interior(q, K, [f, g])[0, 1]
        diffs.append(abs(data_val - oracle))
    assert diffs[0] < 5e-5
    assert diffs[0] / diffs[1] == pytest.approx(4.0, abs=1.0)


def test_form_from_kernel_reproduces_psi_exactly(full_ct_response, full_fields, grid64):
    # the probe assembly inverts the de-mollification consistently, so the
    # kernel route agrees with the march itself to rounding error
    _, K = full_fields
    q, _ = full_fields
    r = mw.response_kernel(mw.solve_goursat(q, K, grid64))
    f = _bump(grid64, 0.35, 0.2)
    g = _bump(grid64, 0.6, 0.25)
    vk = mw.connecting_form_from_kernel(full_ct_response, f, g)
    vb = solve_blagoveshchenskii(r, K, f, g).at_final()
    assert vk == pytest.approx(vb, abs=1e-12)


def test_interior_forms_hold_one_leapfrog_field_at_a_time():
    # each control's field is released once its final state is copied out:
    # 1.30 arrays at N = 256, one field's 1.30.  Holding the states as
    # views of the three fields read 3.23
    grid = mw.GridSpec(1.0, 256)
    q, K = mw.get_problem("full").fields(grid)
    controls = [_bump(grid, c, 0.2) for c in (0.35, 0.5, 0.65)]
    peak = _traced_peak_arrays(lambda: mw.connecting_form_from_interior(q, K, controls), grid)
    assert peak <= 1.6


def test_form_from_kernel_window_check(full_ct_response, grid64):
    fw = _bump(grid64, 0.5, 0.2, full=True)
    with pytest.raises(mw.UsageError):
        mw.connecting_form_from_kernel(full_ct_response, fw, fw)


# --------------------------------------------------------- kernel assembly


def test_free_kernel_vanishes():
    grid, K, r = _free_setup(32)
    ct = mw.connecting_kernel_from_response(r, K)
    assert np.abs(ct.values).max() == 0.0


def test_memory_spot_value_both_routes(memonly_goursat):
    # c(t, s) ~ -(K0/2) t (s - t): at (0.4, 0.9) with K0 = 0.01 -> -0.001
    sol = memonly_goursat
    cw = mw.connecting_kernel_from_w(sol)
    r = mw.response_kernel(sol)
    cr = mw.connecting_kernel_from_response(r, sol.K)
    assert cw.values[32, 72] == pytest.approx(-0.001, abs=1e-5)
    assert cr.values[32, 72] == pytest.approx(-0.001, abs=1e-5)


def test_memory_routes_agree_tightly(memonly_goursat):
    sol = memonly_goursat
    cw = mw.connecting_kernel_from_w(sol)
    cr = mw.connecting_kernel_from_response(mw.response_kernel(sol), sol.K)
    assert np.abs(cr.values - cw.values).max() < 1e-7


def test_memory_diagonal_nonnegative(memonly_goursat):
    # with no potential the diagonal is a Gram diagonal plus O(K0^2)
    sol = memonly_goursat
    cw = mw.connecting_kernel_from_w(sol)
    cr = mw.connecting_kernel_from_response(mw.response_kernel(sol), sol.K)
    assert cw.values.diagonal().min() >= -1e-12
    assert cr.values.diagonal().min() >= -1e-12


def test_full_routes_converge(full_ct_response, full_ct_oracle):
    diff64 = np.abs(full_ct_response.values - full_ct_oracle.values).max()
    assert diff64 < 5e-3
    grid32 = mw.GridSpec(1.0, 32)
    q, K = mw.get_problem("full").fields(grid32)
    sol = mw.solve_goursat(q, K, grid32)
    cr = mw.connecting_kernel_from_response(mw.response_kernel(sol), K)
    cw = mw.connecting_kernel_from_w(sol)
    diff32 = np.abs(cr.values - cw.values).max()
    assert diff32 / diff64 > 2.5


def test_kernel_symmetric_both_routes():
    # exactly: at N = 400 the data route's block spans four column blocks
    for name in mw.PROBLEMS:
        for n in (9, 64, 200, 400):
            grid = mw.GridSpec(1.0, n)
            q, K = mw.get_problem(name).fields(grid)
            sol = mw.solve_goursat(q, K, grid)
            for ct in (mw.connecting_kernel_from_response(mw.response_kernel(sol), K),
                       mw.connecting_kernel_from_w(sol)):
                assert np.array_equal(ct.values, ct.values.T), (name, n)


def _dense_factor_route(sol):
    """c = w + w* + w*w formed whole on the dense w, as the factor route did
    before it read the march's level blocks."""
    h = sol.grid.h
    W = dense_w(sol)[:, : sol.grid.N + 1]
    sym = W + W.T - np.diag(np.diagonal(W))
    gram = h * (W.T @ W)
    E = (0.5 * h * np.diagonal(W))[:, None] * W
    gram -= E + E.T - np.diag(np.diagonal(E))
    return sym + gram


@pytest.mark.parametrize("n", [64, 200, 257])
@pytest.mark.parametrize("problem", sorted(mw.PROBLEMS))
def test_factor_route_equals_the_dense_formula(problem, n):
    # the blocked route makes the same operations in the same order, so c
    # is the whole-array formula's to the last bit; 257 ends in a row block
    # of one row
    grid = mw.GridSpec(1.0, n)
    q, K = mw.get_problem(problem).fields(grid)
    sol = mw.solve_goursat(q, K, grid)
    assert np.array_equal(mw.connecting_kernel_from_w(sol).values, _dense_factor_route(sol))


def test_factor_route_holds_w_and_c_alone():
    # W and c, and three row blocks of temporaries (0.25 arrays each at
    # N = 512): 2.56 arrays.  The dense (N+1) x (2N+1) w with the whole-array
    # formula read 7.0
    grid = mw.GridSpec(1.0, 512)
    q, K = mw.get_problem("full").fields(grid)
    sol = mw.solve_goursat(q, K, grid)
    assert _traced_peak_arrays(lambda: mw.connecting_kernel_from_w(sol), grid) <= 3.5


def asymmetry_round_off(N, c_max):
    """Bound on the reported Galerkin asymmetry at T = 1.  The block is
    symmetric by construction for any r and K, and its h^-2 scaling makes
    its rounding grow like eps N^2; the catalogue at N = 32 to 256 and the
    data of the test below (seeds 0 to 5) read at most 0.30 of this bound."""
    return np.finfo(float).eps * N * N * (1.0 + c_max)


@pytest.mark.parametrize("data, scale", [("random", 1e-3), ("random", 1.0),
                                         ("random", 1e3), ("spike", 1e6)])
def test_galerkin_asymmetry_is_round_off_on_any_data(data, scale):
    # random r and K over six decades, and a spike in the response of
    # `full`, each far from any (q, K) pair
    grid = mw.GridSpec(1.0, 32)
    rng = np.random.default_rng(0)
    if data == "random":
        rv = scale * rng.standard_normal(grid.N2 + 1)
        rv[0] = 0.0
        K = mw.MemoryKernel(grid, scale * rng.standard_normal(grid.N2 + 1))
    else:
        q, K = mw.get_problem("full").fields(grid)
        rv = mw.response_kernel(mw.solve_goursat(q, K, grid)).values.copy()
        rv[1 + rng.integers(grid.N2)] = scale
    ct = mw.connecting_kernel_from_response(mw.ResponseData(grid, rv), K)
    assert 0.0 < ct.asymmetry <= asymmetry_round_off(32, np.abs(ct.values).max())
    assert np.array_equal(ct.values, ct.values.T)


def test_galerkin_asymmetry_is_read_over_the_diagonal_blocks():
    # at N = 400 the block spans four column blocks; both products form only
    # the diagonal ones, and the asymmetry is read there
    grid = mw.GridSpec(1.0, 400)
    q, K = mw.get_problem("full").fields(grid)
    r = mw.response_kernel(mw.solve_goursat(q, K, grid))
    ct = mw.connecting_kernel_from_response(r, K)
    assert (grid.N - 2) // _BLOCK == 3
    assert 0.0 < ct.asymmetry <= asymmetry_round_off(400, np.abs(ct.values).max())


# ------------------------------------- test-local oracle: the probe sweep
#
# The sweep marches the correlation field of every probe pair to s = T with
# a dense Toeplitz matrix for the history convolution, and builds its probes
# as C^2 bumps of half-width h with one response call each.  It shares only
# the time reversal and edge extrapolation (``_kernel_from_galerkin``) with
# the production assembly.


def _dense_conv_matrix(kernel, h, n):
    """Matrix of v -> trapezoid of int_0^t kernel(t - tau) v(tau) dtau."""
    M = np.zeros((n, n))
    i, j = np.tril_indices(n)
    M[i, j] = kernel[i - j]
    M *= h
    M[np.arange(n), np.arange(n)] *= 0.5
    M[1:, 0] *= 0.5
    M[0, 0] = 0.0
    return M


def _sweep_final_level(F, G, RF, RG, Kv, grid):
    """psi(., T) of the level march for a batch of control pairs (columns)."""
    N, h = grid.N, grid.h
    CK = _dense_conv_matrix(Kv, h, grid.N2 + 1) if Kv is not None else None
    hist = np.zeros((N + 1,) + F.shape)
    for l in range(1, N):
        acc = RF * G[l] - F * RG[l]
        if CK is not None:
            acc = acc + CK @ hist[l]
            wts = trapz_weights(l + 1, h) * Kv[l::-1]
            acc = acc - np.tensordot(wts, hist[: l + 1], axes=(0, 0))
        hist[l + 1, 1:-1] = (hist[l, 2:] + hist[l, :-2] - hist[l - 1, 1:-1]
                             + h * h * acc[1:-1])
    return hist[N]


def _bump_probe_responses(r, grid):
    """C^2 bump probes at t_p, p = 2..N-1, and one response call per probe."""
    n_t = grid.N2 + 1
    t_idx = np.arange(n_t, dtype=float)
    P = np.zeros((n_t, grid.N + 1))
    RP = np.zeros_like(P)
    for p in range(2, grid.N):
        P[:, p] = bump_profile(t_idx - p)
        RP[:, p] = mw.apply_response(r, mw.ControlSignal(grid, P[:, p], admissible=True))
    return P, RP


def _sweep_galerkin(r, Kv, grid):
    """Upper triangle of the probe Galerkin block, one march per pair p <= q."""
    N = grid.N
    P, RP = _bump_probe_responses(r, grid)
    ps, qs = np.triu_indices(N - 2)
    ps, qs = ps + 2, qs + 2
    final = _sweep_final_level(P[:, ps], P[:, qs], RP[:, ps], RP[:, qs], Kv, grid)
    B = np.zeros((N - 2, N - 2))
    B[ps - 2, qs - 2] = final[N]
    return B


@pytest.mark.parametrize("problem", ["full", "classical", "memory_only_small"])
def test_adjoint_matches_oracle_sweep(problem):
    grid = mw.GridSpec(1.0, 32)
    q, K = mw.get_problem(problem).fields(grid)
    r = mw.response_kernel(mw.solve_goursat(q, K, grid))
    r_zero = mw.ResponseData(grid, np.zeros(grid.N2 + 1))
    # the production assembly subtracts h I for the free march's block
    assert np.array_equal(_sweep_galerkin(r_zero, None, grid), grid.h * np.eye(grid.N - 2))
    oracle = _kernel_from_galerkin(_row_blocks(_sweep_galerkin(r, K.values, grid)), grid)
    ca = mw.connecting_kernel_from_response(r, K)
    assert np.abs(ca.values - oracle.values).max() < 1e-12


# ------------------------------ test-local oracle: the direct adjoint march
#
# The adjoint march as first written: one full-length np.convolve per level
# for the transposed history convolution and one product over every finished
# level for the level memory, both O(N^3) in total.  The production march
# must give the same weights at sizes that span several level blocks.


def _direct_adjoint_weights(Kv, grid):
    N, h = grid.N, grid.h
    n_t = grid.N2 + 1
    V = np.zeros((N, n_t))
    lam_next = np.zeros(n_t)
    lam_next[N] = 1.0
    lam_next2 = np.zeros(n_t)
    for m in range(N - 1, 0, -1):
        vm = lam_next.copy()
        vm[0] = vm[-1] = 0.0
        V[m] = vm
        lam_m = np.zeros(n_t)
        lam_m[1:-1] = vm[2:] + vm[:-2]
        lam_m[0] = vm[1]
        lam_m[-1] = vm[-2]
        if Kv is not None:
            c = np.convolve(Kv, vm[::-1])[:n_t][::-1]
            corr = h * (c - 0.5 * Kv[0] * vm)
            corr[0] -= 0.5 * h * c[0]
            lam_m += h * h * corr
        vm2 = lam_next2.copy()
        vm2[0] = vm2[-1] = 0.0
        lam_m -= vm2
        if Kv is not None:
            coeff = np.full(N - m, h)
            coeff[0] *= 0.5
            lam_m -= h * h * ((coeff * Kv[: N - m]) @ V[m:N])
        lam_next2, lam_next = lam_next, lam_m
    return V


def _unpacked(blocks, grid):
    """The packed blocks of ``_adjoint_weights`` as one dense array in the
    levels' own order, V[l] for l = 0..N-1 over t = 0..2N, zero past each
    block's width and on level 0."""
    Vr = np.zeros((grid.N, grid.N2 + 1))
    i0 = 0
    for block in blocks:
        Vr[i0 : i0 + block.shape[0], : block.shape[1]] = block
        i0 += block.shape[0]
    assert i0 == grid.N - 1
    return Vr[::-1]


@pytest.mark.parametrize("n", [200, 256])
@pytest.mark.parametrize("problem", ["full", "classical", "memory_only_small"])
def test_adjoint_weights_match_direct_march(monkeypatch, problem, n):
    # 200 is not a multiple of the level block, 256 is; both span several.
    # The production march returns its levels in reverse order, as blocks;
    # the dense march of the oracles module agrees with both to round-off
    grid = mw.GridSpec(1.0, n)
    q, K = mw.get_problem(problem).fields(grid)
    V = _unpacked(_adjoint_weights(K.values, grid), grid)
    V_direct = _direct_adjoint_weights(K.values, grid)
    V_dense = dense_adjoint_weights(K.values, grid)[::-1]
    for want in (V_direct, V_dense):
        assert np.abs(V - want).max() <= 1e-12 * (1.0 + np.abs(want).max())
    # the free march is the production march with a zero kernel
    zero = np.zeros(grid.N2 + 1)
    assert np.array_equal(_unpacked(_adjoint_weights(zero, grid), grid),
                          _direct_adjoint_weights(None, grid))
    r = mw.response_kernel(mw.solve_goursat(q, K, grid))
    ct = mw.connecting_kernel_from_response(r, K)
    # ``_galerkin`` reads the dense weights as one block of the whole window
    monkeypatch.setattr(connecting, "_adjoint_weights", lambda Kv, g: [np.ascontiguousarray(
        _direct_adjoint_weights(Kv, g)[::-1])])
    ct_direct = mw.connecting_kernel_from_response(r, K)
    assert np.abs(ct.values - ct_direct.values).max() <= 1e-10


def test_adjoint_march_makes_no_direct_convolution(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.convolve called")

    monkeypatch.setattr(np, "convolve", refuse)
    grid = mw.GridSpec(1.0, 200)
    _, K = mw.get_problem("full").fields(grid)
    blocks = _adjoint_weights(K.values, grid)
    assert all(np.all(np.isfinite(b)) for b in blocks)
    assert [b.shape for b in blocks] == [(128, 330), (71, 401)]


def test_impulse_responses_equal_per_probe_responses():
    # the bump of half-width h is a grid impulse, and the response map is
    # shift-invariant away from t = 0: the shifted stencil is exact
    grid = mw.GridSpec(1.0, 32)
    q, K = mw.get_problem("full").fields(grid)
    r = mw.response_kernel(mw.solve_goursat(q, K, grid))
    P, RP = _bump_probe_responses(r, grid)
    assert np.array_equal(P[:, 2 : grid.N], np.eye(grid.N2 + 1)[:, 2 : grid.N])
    stencil = _impulse_response(r, grid)
    assert np.array_equal(stencil, RP[:, 2])
    for p in range(3, grid.N):
        assert not np.any(RP[: p - 1, p])
        assert np.array_equal(RP[p - 1 :, p], stencil[1 : grid.N2 + 3 - p])


def _row_blocks(a):
    """The row blocks of a square array in ``_galerkin``'s layout: rows
    k0..k0 + ``_BLOCK`` - 1 over the columns k0.., as copies."""
    return [a[k0 : k0 + _BLOCK, k0:].copy() for k0 in range(0, a.shape[0], _BLOCK)]


def _dense_galerkin(RP, V, grid):
    """The Galerkin block as two dense products of the whole probe matrix."""
    N, h = grid.N, grid.h
    W = (h * h) * V
    return RP.T @ W[2:N].T - W[:, 2:N].T @ RP[:N]


@pytest.mark.parametrize("n", [9, 200, 256, 400])
@pytest.mark.parametrize("problem", ["full", "classical", "memory_only_small"])
def test_streamed_galerkin_matches_dense_products(problem, n):
    # 9 is a single block; 200 and 256 end on a partial block, and 400 spans
    # four, the last one partial.  Only the row blocks of the upper triangle
    # are formed: they are all that ``_kernel_from_galerkin`` reads
    grid = mw.GridSpec(1.0, n)
    q, K = mw.get_problem(problem).fields(grid)
    r = mw.response_kernel(mw.solve_goursat(q, K, grid))
    _, RP = _bump_probe_responses(r, grid)
    blocks = _adjoint_weights(K.values, grid)
    want = _dense_galerkin(RP[:, 2 : grid.N], _unpacked(blocks, grid), grid)
    rows = _galerkin(_impulse_response(r, grid), blocks, grid)
    assert (grid.N - 2) // _BLOCK == {9: 0, 200: 1, 256: 1, 400: 3}[n]
    want_rows = _row_blocks(want)
    assert [row.shape for row in rows] == [row.shape for row in want_rows]
    b_max = max(np.abs(row).max() for row in rows)
    for row, w in zip(rows, want_rows):
        assert np.abs(row - w).max() <= 1e-13 * (1.0 + b_max)


@pytest.mark.parametrize("n", [9, 64, 200, 300])
@pytest.mark.parametrize("problem", sorted(mw.PROBLEMS) + ["random"])
def test_adjoint_weights_vanish_past_the_wavefront(problem, n):
    # V[m, t] = 0 exactly for t >= 2N - m, past the backward wavefront of
    # the unit load at (T, T), for any kernel; the front itself is reached.
    # Each block stores its rows Vr[i0..i1-1] = V[N-1-i0..N-i1] up to
    # t = N + i1 + 1 only: its last level's front and the two entries the
    # march reads past it
    grid = mw.GridSpec(1.0, n)
    if problem == "random":
        Kv = np.random.default_rng(n).standard_normal(grid.N2 + 1)
    else:
        Kv = mw.get_problem(problem).fields(grid)[1].values
    i0 = 0
    for block in _adjoint_weights(Kv, grid):
        i1 = i0 + block.shape[0]
        assert block.shape[1] == n + i1 + 2
        m = n - 1 - np.arange(i0, i1)[:, None]  # the level of each row
        t = np.arange(block.shape[1])
        assert not np.any(block[t >= 2 * n - m])
        assert np.all(block[np.arange(i1 - i0), 2 * n - 1 - m[:, 0]] != 0.0)
        i0 = i1
    assert i0 == n - 1


@pytest.mark.parametrize("n", [8, 9, 16, 33])
def test_free_adjoint_weights_are_the_light_cone_checkerboard(n):
    # V[l, t] = 1 on the backward light cone of (T, T), on the sites of the
    # unit-Courant lattice that reach it, and 0 elsewhere
    grid = mw.GridSpec(1.0, n)
    l, t = np.indices((n, grid.N2 + 1))
    cone = (l >= 1) & (t >= l + 1) & (t <= 2 * n - l - 1) & ((t - l - 1) % 2 == 0)
    assert np.array_equal(_direct_adjoint_weights(None, grid), cone.astype(float))


@pytest.mark.parametrize("T, n", [(1.0, 8), (1.0, 9), (1.0, 64), (1.0, 65),
                                  (1.0, 200), (0.7, 100)],
                         ids=["8", "9", "64", "65", "200", "T0.7-100"])
def test_free_galerkin_matches_dense_products(T, n):
    # the two dense products of the free march (r = 0, K = 0) give h I to
    # the last bit: the block the assembly subtracts without marching
    grid = mw.GridSpec(T, n)
    r_zero = mw.ResponseData(grid, np.zeros(grid.N2 + 1))
    zero = np.zeros(grid.N2 + 1)
    free = _galerkin(_impulse_response(r_zero, grid), _adjoint_weights(zero, grid), grid)
    want = _row_blocks(grid.h * np.eye(grid.N - 2))
    assert len(free) == len(want)
    assert all(np.array_equal(row, w) for row, w in zip(free, want))


@pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, 300])
def test_blocked_passes_equal_the_whole_array_forms(n):
    a = np.random.default_rng(n).standard_normal((n, n))
    i, j = np.indices(a.shape)
    assert (_diagonal_asymmetry(_row_blocks(a))
            == np.abs(a - a.T)[i // _BLOCK == j // _BLOCK].max())
    want = np.tril(a) + np.tril(a, -1).T
    _mirror_lower(a)
    assert np.array_equal(a, want)


def _assembly_peak_arrays(n):
    """The traced peak of the assembly of `full` at N = n, in (N+1)^2 arrays."""
    grid = mw.GridSpec(1.0, n)
    q, K = mw.get_problem("full").fields(grid)
    r = mw.response_kernel(mw.solve_goursat(q, K, grid))
    return _traced_peak_arrays(lambda: mw.connecting_kernel_from_response(r, K), grid)


def test_assembly_peak_at_512_holds_the_packed_weights():
    # the adjoint weights packed up to their wavefront (1.62 arrays at
    # N = 512, 1.5 + 64/N in general), the row blocks of the Galerkin
    # block's upper triangle (0.62) and the first column block's probe
    # columns (0.5): 2.93 arrays.  The dense weights (two arrays) read 3.49
    assert _assembly_peak_arrays(512) <= 3.2


def test_assembly_peak_at_1024_holds_the_packed_weights():
    # the packed adjoint weights (1.56 arrays), the row blocks of the
    # Galerkin block's upper triangle (0.56) and the first column block's
    # probe columns: 2.42 arrays.  The dense weights in their place read
    # 2.85, and the whole Galerkin block in the row blocks' place 3.59
    assert _assembly_peak_arrays(1024) <= 2.66


def test_kernel_from_galerkin_holds_one_array_above_its_entry():
    # c alone: the row blocks are released once copied into it, and both
    # finiteness scans run by row blocks.  Holding the row blocks to the
    # return and an (N+1)^2 bool mask beside c read 1.125 arrays
    grid = mw.GridSpec(1.0, 1024)
    q, K = mw.get_problem("full").fields(grid)
    r = mw.response_kernel(mw.solve_goursat(q, K, grid))
    rows = connecting._galerkin(connecting._impulse_response(r, grid),
                                connecting._adjoint_weights(K.values, grid), grid)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        connecting._kernel_from_galerkin(rows, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows == []
    assert (peak - base) / (8 * (grid.N + 1) ** 2) <= 1.1


@pytest.mark.parametrize("n", [16, 64])
def test_assembly_calls_apply_response_once(monkeypatch, n):
    calls = []
    real = connecting.apply_response

    def counting(r, f):
        calls.append(r)
        return real(r, f)

    marches = []
    real_march = connecting._adjoint_weights

    def counting_march(Kv, grid):
        marches.append(Kv)
        return real_march(Kv, grid)

    monkeypatch.setattr(connecting, "apply_response", counting)
    monkeypatch.setattr(connecting, "_adjoint_weights", counting_march)
    grid = mw.GridSpec(1.0, n)
    q, K = mw.get_problem("full").fields(grid)
    r = mw.response_kernel(mw.solve_goursat(q, K, grid))
    mw.connecting_kernel_from_response(r, K)
    assert len(calls) == 1 and calls[0] is r
    assert len(marches) == 1 and marches[0] is K.values


@pytest.mark.parametrize("n", [2, 9, 64, 65])
def test_causal_correlation_is_transposed_convolution(n):
    # at n = 2, 9, 65 the FFT length is 2n - 2, where the circular sum wraps
    rng = np.random.default_rng(n)
    a, v = rng.standard_normal((2, n))
    M = _dense_conv_matrix(a, 0.1, n)
    assert_allclose(causal_convolution(a, v, 0.1), M @ v, rtol=0, atol=1e-13)
    assert_allclose(_causal_correlation(a, v, 0.1, _correlation_spectrum(a, n)), M.T @ v,
                    rtol=0, atol=1e-13)
    # the spectrum of a longer kernel reads only what n entries need, and a
    # shorter vector correlates at the same length
    longer = np.concatenate((a, rng.standard_normal(2 * n)))
    spectrum = _correlation_spectrum(longer, n)
    assert_allclose(_causal_correlation(longer, v, 0.1, spectrum), M.T @ v,
                    rtol=0, atol=1e-13)
    assert_allclose(_causal_correlation(longer, v[:-1], 0.1, spectrum),
                    M[:-1, :-1].T @ v[:-1], rtol=0, atol=1e-13)


def test_fft_lengths_are_the_smallest_fast_even_lengths():
    # 2^k {1, 9/8, 5/4, 3/2}, even: the lengths whose odd part is 1, 3, 5 or 9
    fast = sorted(f << j for f in (2, 6, 10, 18) for j in range(14))
    for m in range(2, 9000):
        assert _fft_length(m) == next(c for c in fast if c >= m)
    assert [_fft_length(m) for m in (2050, 2306, 4094, 4100)] == [2304, 2560, 4096, 4608]


def test_probe_gram_matrix_is_psd():
    # before subtracting the free part, B[p, q] is a Gram matrix of final
    # states and must not have significantly negative eigenvalues
    grid = mw.GridSpec(1.0, 32)
    q, K = mw.get_problem("full").fields(grid)
    r = mw.response_kernel(mw.solve_goursat(q, K, grid))
    (B,) = _galerkin(_impulse_response(r, grid), _adjoint_weights(K.values, grid), grid)
    assert B.shape == (grid.N - 2, grid.N - 2)  # one row block: the whole block
    eigs = np.linalg.eigvalsh(0.5 * (B + B.T))
    assert eigs.min() >= -1e-8 * np.abs(eigs).max()


# ------------------------------------------------------------- validation


def test_connecting_kernel_validates_shape_and_finiteness():
    grid = mw.GridSpec(1.0, 32)
    with pytest.raises(mw.UsageError):
        mw.ConnectingKernel(grid=grid, values=np.zeros((12, 12)))
    nf = np.zeros((33, 33))
    nf[0, 0] = np.inf
    with pytest.raises(mw.UsageError):
        mw.ConnectingKernel(grid=grid, values=nf)
