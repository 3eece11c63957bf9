"""Grid, quadrature, convolution and the sample coefficient families."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import memwave as mw
from memwave.model import (
    CausalHistory,
    causal_convolution,
    check_march,
    cumulative_trapezoid,
    first_nonfinite,
    level_blocks,
    sampled_derivative,
    trapezoid,
    trapz_weights,
)
from oracles import dense_w


# ---------------------------------------------------------------- grid spec


def test_grid_spec_spacing():
    g = mw.GridSpec(2.0, 16)
    assert g.h == pytest.approx(0.125)
    x = g.times_half()
    assert x.size == 17
    assert x[0] == 0.0 and x[-1] == pytest.approx(2.0)


def test_grid_spec_rejects_small_n():
    with pytest.raises(mw.UsageError):
        mw.GridSpec(1.0, 4)


def test_grid_spec_rejects_bad_horizon():
    with pytest.raises(mw.UsageError):
        mw.GridSpec(-1.0, 32)


def test_grid_spec_doubled_window():
    g = mw.GridSpec(1.0, 32)
    full = g.times_full()
    assert full.size == 65
    assert full[-1] == pytest.approx(2.0)
    assert_allclose(full[:33], g.times_half())


def _fields(n):
    """Every input kind of the routines that take two or more, on N = n."""
    grid = mw.GridSpec(1.0, n)
    q, K = mw.get_problem("full").fields(grid)
    r = mw.response_kernel(mw.solve_goursat(q, K))
    c = mw.connecting_kernel_from_response(r, K)
    f = mw.control_from_family("smooth_bump_control", (0.5, 0.25), grid)
    return {"q": q, "K": K, "r": r, "c": c, "gl": mw.solve_gl(c), "f": f}


# each routine with its inputs on the fine grid ``a`` but one on ``b``
MIXED_GRID_CALLS = {
    "solve_goursat": lambda a, b: mw.solve_goursat(a["q"], b["K"]),
    "connecting_kernel_from_response":
        lambda a, b: mw.connecting_kernel_from_response(a["r"], b["K"]),
    "connecting_form_from_kernel":
        lambda a, b: mw.connecting_form_from_kernel(a["c"], a["f"], b["f"]),
    "connecting_form_from_interior":
        lambda a, b: mw.connecting_form_from_interior(a["q"], a["K"], [b["f"]]),
    "apply_response": lambda a, b: mw.apply_response(a["r"], b["f"]),
    "fd_forward": lambda a, b: mw.fd_forward(a["q"], a["K"], b["f"]),
    "gl_residual": lambda a, b: mw.gl_residual(a["c"], b["gl"]),
    "operator_identity_residual":
        lambda a, b: mw.operator_identity_residual(a["c"], b["gl"]),
}


@pytest.mark.parametrize("call", list(MIXED_GRID_CALLS))
def test_fields_on_another_grid_are_refused(call):
    # GridSpec.of is every routine's grid: a field on N = 16 among fields on
    # N = 32 is refused, with both grids named
    with pytest.raises(mw.UsageError, match="different grids") as err:
        MIXED_GRID_CALLS[call](_fields(32), _fields(16))
    assert "N=32" in str(err.value) and "N=16" in str(err.value)


def test_trapz_weights_sum_to_length():
    w = trapz_weights(11, 0.1)
    assert w.size == 11
    assert w[0] == pytest.approx(0.05)
    assert w[-1] == pytest.approx(0.05)
    assert w.sum() == pytest.approx(1.0)


# --------------------------------------------------------------- quadrature


def test_trapezoid_of_zeros_is_zero():
    assert trapezoid(np.zeros(3), 0.5) == 0.0


def test_trapezoid_constant_frozen():
    # endpoints weighted half: (0.5 + 1 + 1 + 0.5) * 0.5
    assert trapezoid(np.ones(4), 0.5) == pytest.approx(1.5)


def test_trapezoid_quadratic_frozen():
    t = np.linspace(0.0, 1.0, 101)
    val = trapezoid(t * t, 0.01)
    # classical composite-rule error h^2/12 * (f'(1) - f'(0)) = 1/6 * 1e-4
    assert val == pytest.approx(0.33335, abs=1e-12)
    assert abs(val - 1.0 / 3.0) < 2e-5


def test_trapezoid_exact_for_linear():
    t = np.linspace(0.0, 2.0, 9)
    assert trapezoid(3.0 * t - 1.0, 0.25) == pytest.approx(4.0, abs=1e-14)


def test_cumulative_trapezoid_endpoint_and_start():
    t = np.linspace(0.0, 1.0, 101)
    ct = cumulative_trapezoid(t, 0.01)
    assert ct[0] == 0.0
    assert ct[-1] == pytest.approx(0.5, abs=1e-14)
    # interior spot check: integral of s up to 0.3
    assert ct[30] == pytest.approx(0.045, abs=1e-12)


def test_sampled_derivative_exact_for_quadratic():
    x = np.linspace(0.0, 1.0, 9)
    d = sampled_derivative(3.0 * x * x - 2.0 * x + 1.0, 0.125)
    assert_allclose(d, 6.0 * x - 2.0, atol=1e-12)


def test_sampled_derivative_second_order():
    errs = []
    for n in (32, 64):
        x = np.linspace(0.0, 1.0, n + 1)
        d = sampled_derivative(np.sin(3.0 * x), 1.0 / n)
        errs.append(np.abs(d - 3.0 * np.cos(3.0 * x)).max())
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)


# -------------------------------------------------------------- convolution


def test_causal_convolution_zero_factor():
    b = np.linspace(0.0, 1.0, 11)
    assert_allclose(causal_convolution(np.zeros(11), b, 0.1), np.zeros(11))


def test_causal_convolution_ones_frozen():
    # (1 * 1)(t) = t, and the trapezoid rule is exact for constants
    out = causal_convolution(np.ones(11), np.ones(11), 0.1)
    assert_allclose(out, np.linspace(0.0, 1.0, 11), atol=1e-14)


def test_causal_convolution_ramp_frozen():
    t = np.linspace(0.0, 1.0, 101)
    out = causal_convolution(t, np.ones(101), 0.01)
    # (t * 1)(1) = 1/2, trapezoid-exact for linear integrands
    assert out[-1] == pytest.approx(0.5, abs=1e-12)


def test_causal_convolution_commutes():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(33)
    b = rng.standard_normal(33)
    assert_allclose(
        causal_convolution(a, b, 0.05), causal_convolution(b, a, 0.05), atol=1e-13
    )


@given(
    alpha=st.floats(-3.0, 3.0),
    beta=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=25, deadline=None)
def test_causal_convolution_linear_in_first_factor(alpha, beta, seed):
    rng = np.random.default_rng(seed)
    a1 = rng.standard_normal(17)
    a2 = rng.standard_normal(17)
    b = rng.standard_normal(17)
    lhs = causal_convolution(alpha * a1 + beta * a2, b, 0.1)
    rhs = alpha * causal_convolution(a1, b, 0.1) + beta * causal_convolution(
        a2, b, 0.1
    )
    assert_allclose(lhs, rhs, atol=1e-11)


@given(alpha=st.floats(-5.0, 5.0), beta=st.floats(-5.0, 5.0))
@settings(max_examples=25, deadline=None)
def test_trapezoid_is_linear(alpha, beta):
    t = np.linspace(0.0, 1.0, 21)
    a = np.cos(t)
    b = t * t
    lhs = trapezoid(alpha * a + beta * b, 0.05)
    rhs = alpha * trapezoid(a, 0.05) + beta * trapezoid(b, 0.05)
    assert lhs == pytest.approx(rhs, abs=1e-11)


# ---------------------------------------------------------- causal history


def _direct_history(Kv, H, j, h):
    return (trapz_weights(j + 1, h) * Kv[j::-1]) @ H[: j + 1]


@pytest.mark.parametrize("first", [1, 2])
@pytest.mark.parametrize("levels", [3, 63, 64, 65, 130])
def test_causal_history_is_the_trapezoid_sum(levels, first):
    # 3, 63 and the partial last blocks of 65 and 130 levels are blocks
    # larger than the levels left; later levels hold NaN until they are
    # marched, so reading one fails
    rng = np.random.default_rng(levels)
    Kv = rng.standard_normal(levels)
    H = rng.standard_normal((levels, 7))
    marched = np.full_like(H, np.nan)
    marched[:first] = H[:first]
    history = CausalHistory([marched], Kv, 0.1)
    for j in range(first, levels):
        marched[j] = H[j]
        assert_allclose(history.at(j, 7), _direct_history(Kv, H, j, 0.1),
                        rtol=0, atol=1e-13)


def test_causal_history_grows_behind_a_wavefront():
    # level s is zero past entry s + 1, so the width may grow inside a block
    rng = np.random.default_rng(5)
    levels = 130
    Kv = rng.standard_normal(levels)
    H = np.tril(rng.standard_normal((levels, levels + 1)), 1)
    history = CausalHistory([H], Kv, 0.1)
    for j in range(1, levels):
        n = min(j + 2, levels)
        assert_allclose(history.at(j, n), _direct_history(Kv, H, j, 0.1)[:n],
                        rtol=0, atol=1e-13)


@pytest.mark.parametrize("sizes", [(129, 1), (129, 128, 60), (70, 3, 64, 100)])
def test_causal_history_reads_level_blocks_up_to_their_widths(sizes):
    # the levels stored as blocks, each only as wide as its last level's
    # front (level s is zero past entry s + 1) plus one entry; the level
    # blocks of the history run from level 1 and stop at each block's end
    rng = np.random.default_rng(len(sizes))
    levels = sum(sizes)
    Kv = rng.standard_normal(levels)
    H = np.tril(rng.standard_normal((levels, levels + 2)), 1)
    ends = np.cumsum(sizes)
    blocks = [np.full((size, end + 2), np.nan) for size, end in zip(sizes, ends)]
    history = CausalHistory(blocks, Kv, 0.1)
    for s0, block in zip(ends - sizes, blocks):
        for s in range(block.shape[0]):
            # a level is final when it is asked for; later ones hold NaN
            block[s] = H[s0 + s, : block.shape[1]]
            j = s0 + s
            if j:
                n = j + 2
                assert_allclose(history.at(j, n), _direct_history(Kv, H, j, 0.1)[:n],
                                rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", [70, 150])
def test_causal_history_reads_blocks_that_narrow(n):
    # the Goursat layout: level s holds the entries i <= min(s, 2n + 2 - s),
    # so past level n + 1 the blocks narrow and an earlier block is wider
    # than the levels after it ask for
    rng = np.random.default_rng(n)
    levels = 2 * n + 1
    s = np.arange(levels)
    support = np.minimum(s, 2 * n + 2 - s)
    Kv = rng.standard_normal(levels)
    H = rng.standard_normal((levels, n + 2))
    H[np.arange(n + 2)[None, :] > support[:, None]] = 0.0
    blocks = level_blocks(support + 1)
    assert [b.shape[1] for b in blocks][-1] < max(b.shape[1] for b in blocks)
    for block in blocks:
        block[:] = np.nan  # a level is final when it is asked for
    history = CausalHistory(blocks, Kv, 0.1)
    j = 0
    for block in blocks:
        for row in block:
            row[:] = H[j, : block.shape[1]]
            if j:
                m = support[j] + 1
                assert_allclose(history.at(j, m), _direct_history(Kv, H, j, 0.1)[:m],
                                rtol=0, atol=1e-13)
            j += 1


def test_level_blocks_fit_their_widest_level():
    blocks = level_blocks(np.array([3, 1, 4, 1, 5, 9, 2, 6]), first=3)
    assert [b.shape for b in blocks] == [(3, 4), (5, 9)]
    assert all(b.base is None and not b.any() for b in blocks)


def test_first_nonfinite_scans_row_blocks():
    a = np.zeros((300, 5))
    assert first_nonfinite(a) is None
    a[250, 0] = np.inf
    a[200, 3] = np.nan
    assert first_nonfinite(a) == (200, 3)


def test_check_march_names_the_first_bad_node_across_blocks():
    # levels 0 and 1 are data, not marched; the first bad level from 2 on
    # names the node, whichever block holds it
    blocks = [np.zeros((3, 4)), np.zeros((130, 9)), np.zeros((5, 2))]
    blocks[0][1, 2] = np.nan
    check_march(blocks, "test")
    blocks[2][1, 1] = np.inf
    with pytest.raises(mw.NumericalInstabilityError,
                       match=r"test march blew up at grid node \(i=1, j=134\)$"):
        check_march(blocks, "test")
    blocks[1][128, 7] = -np.inf
    with pytest.raises(mw.NumericalInstabilityError, match=r"\(i=7, j=131\)$"):
        check_march(blocks, "test")


def _full_response(grid):
    q, K = mw.get_problem("full").fields(grid)
    return mw.response_kernel(mw.solve_goursat(q, K)), K


def test_every_march_hands_the_history_its_level_major_array(monkeypatch):
    # the Goursat, leapfrog and adjoint marches share one layout: level j is
    # a contiguous row of the march's storage, which the history reads
    # itself.  The leapfrog march hands in the view of its array from the
    # level it starts at as the one block; the Goursat and adjoint marches
    # hand in the blocks of ``level_blocks``, each its own array, as wide as
    # its widest level
    handed = []
    init = CausalHistory.__init__

    def record(self, blocks, Kv, h):
        handed.append(blocks)
        init(self, blocks, Kv, h)

    monkeypatch.setattr(CausalHistory, "__init__", record)
    grid = mw.GridSpec(1.0, 16)
    q, K = mw.get_problem("full").fields(grid)
    f = mw.control_from_family("smooth_bump_control", (0.5, 0.25), grid)
    sol = mw.solve_goursat(q, K)
    whole = mw.fd_forward(q, K, f)
    cone = mw.fd_forward(q, K, f, grid.T, 2 * grid.h)
    mw.connecting_kernel_from_response(mw.response_kernel(sol), K)
    big = mw.GridSpec(1.0, 300)
    mw.connecting_kernel_from_response(*_full_response(big))
    goursat, (leapfrog,), (leapfrog_cone,), (adjoint,), goursat_big, blocks = handed
    # the Goursat levels s = 0..2N in blocks of 128, each as wide as its
    # widest level's min(s, 2N + 2 - s) + 1 entries; the triangle narrows
    # past level N + 1, so the blocks after it are narrower than the one
    # holding it
    assert [b.shape for b in goursat] == [(33, 18)]
    assert [b.shape for b in goursat_big] == [
        (128, 128), (128, 256), (128, 302), (128, 219), (89, 91)]
    # the bump is zero on [0, T/4], so the leapfrog starts at level j0 = N/4
    j0 = grid.N // 4
    levels = [grid.N + 1 - j0, grid.N + 1 - j0, grid.N]
    assert [H.shape[0] for H in (leapfrog, leapfrog_cone, adjoint)] == levels
    # the adjoint levels k = 0..N-1 end their blocks at k1 - 1 = 128, 256, N - 1,
    # each block N + k1 + 1 wide, the last one the whole window
    assert adjoint.shape[1] == grid.N2 + 1
    assert [b.shape for b in blocks] == [(129, 430), (128, 558), (43, 601)]
    assert all(H.flags.c_contiguous and H.base is None
               for H in (adjoint, *goursat, *goursat_big, *blocks))
    # the solution keeps the Goursat blocks, and the dense w stacked from
    # them is their transpose; the leapfrog fields are views of the march
    # array, whose levels before j0 are zero, and the history reads its rows
    # from j0 on
    assert all(a is b for a, b in zip(sol.march, goursat, strict=True))
    assert np.array_equal(dense_w(sol), goursat[0][:, : grid.N + 1].T)
    for field, march in ((whole.T, leapfrog), (cone.T, leapfrog_cone)):
        assert march.flags.c_contiguous and march.base is field.base
        assert field.base.shape[0] == grid.N + 1
        assert not field[:, :j0].any()
        assert np.array_equal(field[:, j0:], march[:, : field.shape[0]].T)


# ------------------------------------------------------------ field objects


def test_coefficient_field_needs_matching_length():
    g = mw.GridSpec(1.0, 8)
    with pytest.raises(mw.UsageError):
        mw.CoefficientField(grid=g, values=np.zeros(5))


def test_field_leaves_the_callers_array_writeable():
    a = np.zeros(9)
    q = mw.CoefficientField(mw.GridSpec(1.0, 8), a)
    a[0] = 1.0
    # a read-only view of the caller's array, not a copy
    assert not q.values.flags.writeable
    assert q.values[0] == 1.0


def test_memory_kernel_has_doubled_window():
    g = mw.GridSpec(1.0, 10)
    k = mw.kernel_from_family("constant", (2.0,), g)
    assert k.values.size == 21
    assert_allclose(k.values, 2.0)


def test_kernel_exp_decay_frozen():
    g = mw.GridSpec(1.0, 16)
    k = mw.kernel_from_family("exp_decay", (1.0, 1.0), g)
    assert k.values[0] == pytest.approx(1.0)
    assert k.values[16] == pytest.approx(np.exp(-1.0), abs=1e-14)


def test_coefficient_families_evaluate_on_grid():
    g = mw.GridSpec(1.0, 32)
    q = mw.coefficient_from_family("gaussian_bump", (0.5, 0.1, 1.0), g)
    assert q.values.size == 33
    assert q.values[16] == pytest.approx(1.0)
    assert abs(q.values[0]) < 5e-5


def test_unknown_family_raises():
    g = mw.GridSpec(1.0, 8)
    with pytest.raises(mw.UsageError):
        mw.coefficient_from_family("not_a_family", (), g)


# ----------------------------------------------------------------- controls


def test_zero_control_is_admissible():
    g = mw.GridSpec(1.0, 16)
    f = mw.control_from_family("zero", (), g)
    assert f.admissible
    assert_allclose(f.values, 0.0)


def test_bump_control_is_admissible_and_compact():
    g = mw.GridSpec(1.0, 32)
    f = mw.control_from_family("smooth_bump_control", (0.5, 0.2), g)
    assert f.admissible
    assert f.values[0] == 0.0 and f.values[-1] == 0.0
    assert f.values.max() > 0.5


def test_bump_control_must_fit_window():
    g = mw.GridSpec(1.0, 32)
    with pytest.raises(mw.UsageError):
        mw.control_from_family("smooth_bump_control", (0.9, 0.4), g)


def test_sine_control_not_admissible():
    g = mw.GridSpec(1.0, 16)
    f = mw.control_from_family("sine", (1.0, 2.0), g)
    assert not f.admissible


def test_full_window_control_has_doubled_length():
    g = mw.GridSpec(1.0, 16)
    f = mw.control_from_family("smooth_bump_control", (0.5, 0.2), g, full_window=True)
    assert f.values.size == 33


def test_padded_full_extends_by_zero():
    g = mw.GridSpec(1.0, 16)
    f = mw.control_from_family("smooth_bump_control", (0.5, 0.2), g)
    padded = f.padded_full()
    assert padded.size == 33
    assert_allclose(padded[:17], f.values)
    assert_allclose(padded[17:], 0.0)


# -------------------------------------------------------- problem catalogue


def test_catalogue_names():
    assert set(mw.PROBLEMS) >= {
        "free",
        "classical",
        "memory_only_small",
        "potential_only_small",
        "full",
    }


def test_catalogue_free_problem_is_trivial():
    g = mw.GridSpec(1.0, 8)
    q, K = mw.get_problem("free").fields(g)
    assert_allclose(q.values, 0.0)
    assert_allclose(K.values, 0.0)


def test_catalogue_unknown_problem():
    with pytest.raises(mw.UsageError):
        mw.get_problem("nope")
