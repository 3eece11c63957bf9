"""Connecting operator assembled from boundary data alone.

The bilinear form (C f, g) = (u^f(., T), u^g(., T)) of final-time states is
computable without interior access: the correlation field
psi(t, s) = (u^f(., t), u^g(., s)) satisfies a 1+1 wave-type equation whose
right-hand side involves only the boundary response of f and g,

    psi_ss = psi_tt + (Rf)(t) g(s) - f(t) (Rg)(s)
             + int_0^t K(t-tau) psi(tau, s) dtau
             - int_0^s K(s-alpha) psi(t, alpha) dalpha,

with psi = 0 on both axes, and (C f, g) = psi(T, T).  Marching this in s on
the unit-Courant grid gives the form for any admissible control pair; the
assembly below runs only the adjoint of that march, and the test suite keeps
the forward march for one control pair as its oracle (``tests/oracles.py``).

The reduced kernel c(t, s) of the time-reversed form minus the identity is
estimated by probing with the grid impulses e_p at t_p (discrete mass h):
the Galerkin value for the pair (p, q), time reversed and with the identity
block h I subtracted, equals h^2 c(t_p, t_q) up to O(h^2).  h I is the
block of the same march run without data (r = 0, K = 0), to the last bit:
at unit Courant the free march telescopes the discrete overlap integral of
the impulses exactly.  Subtracting it removes the identity contribution
together with its discretization error, exactly, and the free march runs
only in the tests, as an oracle.

The response of every impulse is a shift of one stencil, so the assembly
makes one response call.  One adjoint march of the transposed scheme gives
the weights of psi(T, T) for any right-hand side, and two matrix products
read all probe pairs off them.  The weights of level l vanish from
t = 2T - l h on, past the backward wavefront of the unit load at (T, T);
the march writes each level only up to that front, so the zeros are exact
and neither the products nor the march's level memory spend work on them.
Nor are they stored: the weights are held as blocks of ``model._BLOCK``
levels, each only as wide as its widest level needs, about three quarters
of the dense (N+1) x (2N+1) array.
The products are streamed by column blocks of the probe matrix, each a
strided window over the one stencil, so that matrix is never formed whole;
the rows a block's probes have not reached yet are zero by causality and
are skipped.  Each block of weights feeds the first product its own output
columns, and the second product sums over the blocks.  Only the upper
triangle of the Galerkin block is read, so each product forms only its part
of it, and the block is held as its row blocks from the diagonal on, about
half of it: the entries below the diagonal blocks are never formed or
stored, and the asymmetry, a round-off diagnostic, is read on the diagonal
blocks, which both products fill.  The weights' widest blocks are released
as soon as the column blocks left no longer read them.  Time reversal sends each row block onto the
lower triangle of the kernel, and the kernel becomes symmetric in one
place: a mirror of its lower triangle, by blocks, in place.  Every block is
``model._BLOCK`` wide.  The march forms its transposed history convolution
as one FFT correlation per level, O(N log N) each, at a length fitted to
its block, and its level memory as the blocked causal history of
``model.CausalHistory``, which the Goursat and leapfrog marches share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AssemblyError, UsageError
from .forward import apply_response, fd_forward
from .goursat import GoursatSolution
from .model import (
    _BLOCK,
    CausalHistory,
    ControlSignal,
    GridSpec,
    MemoryKernel,
    ResponseData,
    first_nonfinite,
    level_blocks,
    level_starts,
    sample_array,
    trapezoid,
    trapz_weights,
)

__all__ = [
    "ConnectingKernel",
    "connecting_form_from_interior",
    "connecting_form_from_kernel",
    "connecting_kernel_from_response",
    "connecting_kernel_from_w",
]


@dataclass(frozen=True)
class ConnectingKernel:
    """Reduced connecting kernel samples c(t_i, s_j) on [0, T]^2, symmetric.

    Both routes build the samples exactly symmetric (``_kernel_from_galerkin``
    by one mirror, ``connecting_kernel_from_w`` by SYRK), so the constructor
    checks their shape and finiteness alone.

    ``asymmetry`` is max|B - B^T| over the diagonal ``_BLOCK`` x ``_BLOCK``
    blocks of the h^-2-scaled Galerkin block the data route assembles from,
    the only entries both of its products form (the whole block at
    N <= 130); NaN for the factor route, which has no such block.
    """

    grid: GridSpec
    values: np.ndarray = field(repr=False)
    asymmetry: float = float("nan")

    def __post_init__(self):
        n = self.grid.N + 1
        object.__setattr__(self, "values", sample_array(
            self.values, [(n, n)], "connecting kernel", f"needs a {n}x{n} array", "entries"))


def _mirror_lower(a: np.ndarray) -> None:
    """Copy the strict lower triangle of a square array onto its upper one,
    in place, by row blocks."""
    n = a.shape[0]
    for i in range(0, n, _BLOCK):
        j = min(i + _BLOCK, n)
        a[:i, i:j] = a[i:j, :i].T
        diag = a[i:j, i:j]
        upper = np.triu_indices(j - i, 1)
        diag[upper] = diag.T[upper]


# --------------------------------------------------------------------------
# connecting form of two controls
# --------------------------------------------------------------------------

def connecting_form_from_interior(q, K, controls: list[ControlSignal]) -> np.ndarray:
    """Oracle for (C f_a, f_b) over every pair of ``controls``: the inner
    products of their leapfrog states at t = T, each control marched once."""
    grid = controls[0].grid
    N = grid.N
    # a copy of level N, so that each march is released once it is read
    states = [fd_forward(q, K, f, N)[N, : N + 1].copy() for f in controls]
    return np.array([[trapezoid(u * v, grid.h) for v in states] for u in states])


def connecting_form_from_kernel(c: ConnectingKernel, f: ControlSignal,
                                g: ControlSignal) -> float:
    """(C f, g) through an assembled reduced kernel.

    With phi(x) = f(T - x), the form is (phi_f, phi_g) + (c phi_f, phi_g) in
    L2(0, T); both controls must live on the [0, T] window.
    """
    grid = GridSpec.of(c, f, g)
    n = grid.N + 1
    if f.values.size != n or g.values.size != n:
        raise UsageError("connecting form needs controls sampled on [0, T]")
    phi_f = f.values[::-1]
    phi_g = g.values[::-1]
    D = trapz_weights(n, grid.h)
    return float(phi_g @ (D * phi_f) + (D * phi_g) @ c.values @ (D * phi_f))


# --------------------------------------------------------------------------
# probe assembly of the reduced kernel
# --------------------------------------------------------------------------

def _impulse_response(r: ResponseData, grid: GridSpec) -> np.ndarray:
    """Response on [0, 2T] of the grid impulse at t_2: the stencil of every probe.

    Probes start at p = 2 because the march pins its first two levels to
    zero, which is exact only for controls vanishing at t = 0 and t = h; an
    impulse at t = h would be seen with half its dipole missing.  The
    response map is shift-invariant away from t = 0, so the response of the
    impulse at t_p, p >= 3, is this one from row 1 on, moved to start at row
    p - 1 (row 0 is the one-sided derivative stencil at t = 0, which the
    later impulses never reach).
    """
    impulse = np.zeros(grid.N2 + 1)
    impulse[2] = 1.0
    return apply_response(r, ControlSignal(grid, impulse, admissible=True))


def _fft_length(m: int) -> int:
    """The smallest even FFT length >= m of the form 2^k {1, 9/8, 5/4, 3/2}:
    2^j times 2, 18, 10 or 6."""
    def up(f):
        while f < m:
            f *= 2
        return f
    return min(up(f) for f in (2, 18, 10, 6))


def _correlation_spectrum(a: np.ndarray, n: int) -> np.ndarray:
    """Conjugate spectrum of ``a`` for ``_causal_correlation`` with vectors of
    at most n entries.

    The FFT length P is ``_fft_length(2 n - 2)``, one short of the 2 n - 1
    that rules out every wrap-around, and ``a`` is cut to its first P/2 + 1
    entries, all that a correlation of n entries reads; the wrap then reaches
    only the last entry at P = 2 n - 2, which ``_causal_correlation`` sets.
    """
    P = _fft_length(2 * n - 2)
    return np.conj(np.fft.rfft(a[: P // 2 + 1], P))


def _causal_correlation(a: np.ndarray, v: np.ndarray, h: float,
                        a_hat: np.ndarray) -> np.ndarray:
    """Transpose of v -> causal_convolution(a, v, h).

    The correlation sum_{i >= j} a[i - j] v[i], formed by FFT, with the
    transposed trapezoid end weights: half weight on the diagonal term
    a[0] v[j], and at j = 0 half the sum over i >= 1 only, because the
    convolution halves its v[0] column and zeroes its t = 0 row.  ``a_hat``
    is ``_correlation_spectrum(a, n)`` for some n >= len(v), taken once by a
    caller that correlates one ``a`` with many vectors.
    """
    L = 2 * (a_hat.size - 1)
    c = np.fft.irfft(a_hat * np.fft.rfft(v, L), L)[: v.size]
    # the last sum has the single term a[0] v[-1]; at L = 2 len(v) - 2 the
    # circular sum adds a[L / 2] v[0] to it
    c[-1] = a[0] * v[-1]
    out = h * (c - 0.5 * a[0] * v)
    out[0] -= 0.5 * h * c[0]
    return out


def _adjoint_weights(Kv: np.ndarray, grid: GridSpec) -> list[np.ndarray]:
    """Weights V with psi(T, T) = h^2 sum_{l,t} V[l, t] rhs(t, l), levels
    reversed, as blocks of ``_BLOCK`` levels, each up to its wavefront.

    Row i of the stacked blocks is Vr[i] = V[N - 1 - i], i = 0..N-2, the
    level order of the march, so that the caller reads them with positive
    strides; V[0] is zero and not stored.  The block of the rows i0..i1-1
    is N + i1 + 2 entries wide, t = 0..N + i1 + 1: its last level's
    wavefront (below) and the entries the march reads past it.

    Reverse accumulation through the level march: lambda_N is the unit load
    at (t = T, s = T) and each backward step applies the transposed update
    (shift-sum, transposed history convolution, transposed level memory).
    Only the levels l = 1..N-1 carry weight.

    The shift-sum moves the load's support one node out per level, and the
    correlation and the level memory only reach back in t, so V[l, t] = 0
    for t >= 2N - l: the backward wavefront of the load.  Each level writes
    V[l] on t = 1..2N - l - 1 alone and forms lambda_l on t <= 2N - l alone;
    the FFT correlation's round-off past the front is dropped, so the zeros
    there are exact, ``_galerkin`` can skip them and no block stores more
    than its widest level needs.  They also narrow the level memory: level
    l asks ``CausalHistory`` for 2N - l + 1 entries, and the earlier levels
    vanish past those, as its contract requires.

    The transposed history convolution is one FFT correlation per level
    against a spectrum of Kv, taken once per block at a length fitted to
    the block's width (``_correlation_spectrum``): O(N log N) per level.  The level memory of level m, sum_{j >= m} h Kv[j - m] V[j]
    (half weight at j = m), is a causal history on the reversed levels
    k = N - m, below a zero level k = 0 that carries the trapezoid's other
    half weight, so ``model.CausalHistory`` forms it by blocks of levels,
    the zero level heading the first storage block.
    """
    N, h = grid.N, grid.h
    # the march levels k = N - m = 0..N-1; level k needs N + k + 2 entries,
    # so the block ending at k1 - 1 is N + k1 + 1 wide; level k >= 1 is the
    # row Vr[k - 1]
    blocks = level_blocks(N + 2 + np.arange(N), 1 + _BLOCK)
    lam_next = np.zeros(N + 1)
    lam_next[N] = 1.0  # lambda_N
    history = CausalHistory(blocks, Kv, h)
    prev = blocks[0][0]  # the zero level
    starts = level_starts(blocks)
    for k0, k1, block in zip(starts, starts[1:], blocks):
        # the widest level of the block correlates N + k1 entries
        K_hat = _correlation_spectrum(Kv, block.shape[1] - 1)
        for k in range(max(k0, 1), k1):
            # V[m], m = N - k, vanishes from t = L on, past the load's
            # backward wavefront; lambda_{m+1} has L entries, lambda_m one more
            L = N + k
            vm = block[k - k0]
            vm[1:L] = lam_next[1:L]  # the mask: t = 0 stays zero
            lam_m = np.empty(L + 1)
            lam_m[1:] = vm[2 : L + 2] + vm[:L]
            lam_m[0] = vm[1]
            lam_m += h * h * _causal_correlation(Kv, vm[: L + 1], h, K_hat)
            # the masked lambda_{m+2} is the level stored before, and the
            # zero level at m = N - 1
            lam_m -= prev[: L + 1]
            lam_m -= h * h * history.at(k, L + 1)
            lam_next, prev = lam_m, vm
    return [blocks[0][1:], *blocks[1:]]


def _galerkin(stencil: np.ndarray, Vr: list[np.ndarray],
              grid: GridSpec) -> list[np.ndarray]:
    """Galerkin block B[p - 2, q - 2] = psi_pq(T, T) for probes p, q = 2..N-1,
    formed on its diagonal blocks and above them, as row blocks.

    ``stencil`` is ``_impulse_response`` and ``Vr`` the ``_adjoint_weights``
    of the march, blocks of the rows Vr[i] = V[N - 1 - i].  The march is
    linear in its right-hand side RF(t) G(s) - F(t) RG(s), and every probe
    is a grid impulse, so with the probe responses RP[:, p - 2] the block is
    h^2 (RP^T V[2:N]^T - V[:, 2:N]^T RP[:N]): a column slice and a row slice
    of the adjoint weights.  The factor h^2 scales the block, not V: on free
    data (V of zeros and ones, a stencil of +-1/(2h)) each entry then sums
    at most two nonzero terms exactly, so the block is h I to the last bit
    in any summation order.

    RP is never formed whole.  Its column k is ``stencil`` moved down by k
    rows, so every block of ``model._BLOCK`` columns is a slice of one
    strided window over the zero-padded stencil.  Rows t <= k0 of the block
    from column k0 vanish by causality and are skipped; row 0 of column 0,
    the stencil's t = 0 entry, meets only zero weights (V vanishes on level
    0 and at t = 0).

    Only the upper triangle of B is read (``_kernel_from_galerkin``), so B
    is never held whole either: the result is the list of its row blocks,
    block k0 holding rows k0..k0 + w - 1 over the columns k0.. (about half
    of B).  The column block from k0, of width w, forms only its share of
    that: the first product writes row block k0, over the levels k0 + 2..
    (the rows Vr[:N - 2 - k0]) and t < 2N - 2 - k0 only, past which those
    levels vanish (``_adjoint_weights``); each block of Vr writes its own
    columns of it, over t up to its own width.  The second is summed over
    the blocks of Vr and subtracted from the columns k0..k0 + w - 1 of the
    row blocks up to k0.  That is about 0.83 N^3 multiply-adds against
    2 N^3 for the whole block.  Both products fill the diagonal w x w
    blocks, the first w columns of each row block.

    The list ``Vr`` is consumed: the column block from k0 reads the rows
    Vr[:N - 1 - k0] alone, so once a block of Vr lies past the rows that the
    column blocks left read, it is dropped from the list, the widest first.
    """
    N, h = grid.N, grid.h
    n_p, n_t = N - 2, grid.N2 + 1
    # RP[t, k] = padded[n_p + t - k]
    padded = np.zeros(n_p + n_t)
    padded[n_p + 1 :] = stencil[1:]
    starts = level_starts(Vr)
    # the row blocks are views of one array, taken before any block of Vr
    # is released, so that they do not fill the spans the released blocks
    # leave: with glibc's default heap, the benchmark's reconstruct at
    # N = 1024 peaked at 60 MiB resident this way, and at 64 MiB with one
    # array per row block
    columns = range(0, n_p, _BLOCK)
    store = np.empty(sum(min(_BLOCK, n_p - k0) * (n_p - k0) for k0 in columns))
    rows = []
    for k0 in columns:
        w = min(_BLOCK, n_p - k0)
        first = store[: w * (n_p - k0)].reshape(w, n_p - k0)
        store = store[first.size :]
        rows.append(first[:, ::-1])
        _add_column_block(first, rows, padded, Vr, k0, grid)
        # the column blocks left read the rows Vr[:N - 1 - k0 - _BLOCK]
        # alone; the blocks of Vr past those, the widest, are released
        while Vr and starts[len(Vr) - 1] >= N - 1 - k0 - _BLOCK:
            Vr.pop()
    for row in rows:
        row *= h * h
    return rows


def _add_column_block(first: np.ndarray, rows: list[np.ndarray], padded: np.ndarray,
                      Vr: list[np.ndarray], k0: int, grid: GridSpec) -> None:
    """The two products of ``_galerkin`` for the probe columns k0..k0 + w - 1.

    Writes rows k0..k0 + w - 1 of RP^T V[2:N]^T over the columns k0.., in
    reversed column order, into ``first`` (w x (N - 2 - k0)), the last of
    ``rows`` turned round; then subtracts rows ..k0 + w - 1 of the columns
    k0.. of V[:, 2:N]^T RP[:N], summed over the blocks of Vr, from the row
    blocks.  The probe columns and the second product live only in this
    call.
    """
    N, n_p = grid.N, grid.N - 2
    w = first.shape[0]
    # rows t <= k0 of the block are zero; the levels k0 + 2.. that the first
    # product reads vanish from t = 2N - 2 - k0 on
    t0, t1 = k0 + 1, 2 * N - 2 - k0
    # row a0 + t of the width-w window, padded[a0 + t : a0 + t + w], holds
    # RP[t, k] for k = k0 + w - 1 down to k0
    a0 = n_p - k0 - w + 1
    window = sliding_window_view(padded, w)[a0 + t0 : a0 + t1]
    block = window[:, ::-1].copy()  # RP[t0:t1, k0:k0 + w]
    # Vr[:n_p - k0] holds the levels N - 1 down to k0 + 2; each block of Vr
    # writes its own columns, over t up to its own width
    starts = level_starts(Vr)
    for i0, i1, v in zip(starts, starts[1:], Vr):
        i1 = min(i1, n_p - k0)
        if i1 > i0:
            t = min(t1, v.shape[1])
            np.matmul(block[: t - t0].T, v[: i1 - i0, t0:t].T, out=first[:, i0:i1])
    # the second product sums over the levels t0..N-1, the rows Vr[:N - t0];
    # the row Vr[i] meets the probe row t = N - 1 - i
    for i0, i1, v in zip(starts, starts[1:], Vr):
        i1 = min(i1, N - t0)
        if i1 > i0:
            levels = block[N - t0 - i1 : N - t0 - i0][::-1]
            part = v[: i1 - i0, 2 : k0 + w + 2].T @ levels
            if i0:
                second += part
            else:
                second = part
    for j0, row in zip(range(0, k0 + 1, _BLOCK), rows):
        row[:, k0 - j0 : k0 - j0 + w] -= second[j0 : j0 + row.shape[0]]


def _diagonal_asymmetry(rows: list[np.ndarray]) -> float:
    """max|B - B^T| over the diagonal blocks of ``_galerkin``'s row blocks:
    the entries of the Galerkin block that both of its products form."""
    return float(np.max([np.abs(d - d.T).max()
                         for d in (row[:, : row.shape[0]] for row in rows)]))


def _kernel_from_galerkin(rows: list[np.ndarray], grid: GridSpec) -> ConnectingKernel:
    """Reduced kernel from the row blocks of the Galerkin block (``_galerkin``).

    The free march's block h I is subtracted and the blocks are scaled by
    h^-2, in place; the asymmetry is then read on their diagonal blocks.
    Time reversal sends probe p to the node N - p, so the upper triangle
    (p <= q) of the block fills the lower triangle of the interior rows
    1..N-2; each row block is written there on its own, so the block is
    never held whole.  The row t = 0 vanishes identically (the kernel does
    on that line); the last two rows, which would need probes outside the
    discretely admissible range, are filled by quadratic extrapolation.
    That lower triangle is all that is read: one in-place mirror of it then
    makes the kernel exactly symmetric.  The list ``rows`` is emptied once
    its blocks are copied, so that they are released ahead of the mirror.

    Data that overflow the assembly raise AssemblyError at the first
    non-finite sample (t_i, s_j).  The kernel's constructor scans it once,
    by row blocks (``model.first_nonfinite``); the sample is located only
    when that scan fails.
    """
    N, h = grid.N, grid.h
    for row in rows:
        w = row.shape[0]
        row[:, :w][np.diag_indices(w)] -= h  # the free march's block, exactly
        row /= h * h
    # the block is symmetric by construction, for any r and K, so its
    # asymmetry on the diagonal blocks is a round-off diagnostic (below
    # eps N^2 (1 + max|c|) at T = 1 on random, spiked and catalogue data),
    # not a data check: it cannot tell whether the response and the kernel
    # belong together
    asymmetry = _diagonal_asymmetry(rows)
    c = np.zeros((N + 1, N + 1))
    for k0, row in zip(range(0, N - 2, _BLOCK), rows):
        # B[p - 2, q - 2] -> c[N - p, N - q]
        c[N - 1 - k0 - row.shape[0] : N - 1 - k0, 1 : N - 1 - k0] = row[::-1, ::-1]
    # the row blocks are views of one array, which the caller's list keeps
    # alive; emptying it releases them ahead of the mirror
    rows.clear()
    del row
    # row/column t = 0 vanish identically.  The last two rows host no
    # discretely admissible probe; extrapolate quadratically, but only along
    # lines of constant t - s: the kernel is smooth along those, while its
    # normal derivative jumps across t = s, so any stencil that straddles the
    # diagonal would cost an order of accuracy.
    for k in (N - 1, N):
        js = np.arange(3, k + 1)
        c[k, js] = 3.0 * c[k - 1, js - 1] - 3.0 * c[k - 2, js - 2] + c[k - 3, js - 3]
        for j in (1, 2):
            # this close to the opposite edge the row direction is kink-free
            c[k, j] = 3.0 * c[k - 1, j] - 3.0 * c[k - 2, j] + c[k - 3, j]
    _mirror_lower(c)
    try:
        return ConnectingKernel(grid=grid, values=c, asymmetry=asymmetry)
    except UsageError:  # the constructor's scan found a non-finite sample
        i, j = first_nonfinite(c)
        raise AssemblyError(f"connecting kernel has a non-finite entry at (t, s) = "
                            f"({i * grid.h:.6g}, {j * grid.h:.6g})") from None


@np.errstate(over="ignore", invalid="ignore")  # the kernel's scan names overflows
def connecting_kernel_from_response(r: ResponseData,
                                    K: MemoryKernel) -> ConnectingKernel:
    """Assemble c(t_i, s_j) on [0, T]^2 from boundary data (r, K) only.

    Interior rows come from the probe Galerkin matrix, time reversed, with
    the free block h I subtracted and scaled by h^-2; see
    ``_kernel_from_galerkin`` for the edge rows.  Data that overflow any
    step of the assembly fail by the kernel's finiteness scan alone, with
    no numpy warning ahead of its AssemblyError.
    """
    grid = GridSpec.of(r, K)
    rows = _galerkin(_impulse_response(r, grid), _adjoint_weights(K.values, grid), grid)
    return _kernel_from_galerkin(rows, grid)


def connecting_kernel_from_w(sol: GoursatSolution) -> ConnectingKernel:
    """Oracle route for c(t, s) through the triangular kernel w.

    c(t, s) = w(min, max) + int_0^{min(t,s)} w(tau, t) w(tau, s) dtau, the
    kernel of M + M* + M*M for the Volterra factor (I + M) of the control
    map; on the diagonal the first term is the continuity value w(t, t).

    The samples are exactly symmetric because ``W.T @ W`` is an array times
    its own transpose, which numpy sends to BLAS SYRK: it forms one triangle
    and mirrors it.  A copied ``W.T`` would go to GEMM, whose two triangles
    round differently (max|c - c^T| = 2.8e-17 at N = 400 on ``full``).  c is
    formed in place beside W, the one dense array, stacked from the march.
    """
    grid = sol.grid
    N, h = grid.N, grid.h
    # W[i, j] = w(x_i, t_j), zero below diag: the march's first N + 1 levels
    W = np.zeros((N + 1, N + 1))
    for j0, block in zip(level_starts(sol.march), sol.march):
        if j0 > N:
            break
        part = block[: N + 1 - j0, : N + 1]
        W[: part.shape[1], j0 : j0 + part.shape[0]] = part.T
    d = np.diagonal(W)
    half = 0.5 * h * d
    c = W.T @ W
    c *= h
    # by row blocks, whose entries (i, i) lie every N + 2 from i0: the
    # trapezoid end weight (h/2) W[m, i] W[m, j] at m = min(i, j), E[i, j]
    # for i <= j and E[j, i] for i >= j with E = (h/2) diag(W) W, then W + W^T
    for i0 in range(0, N + 1, _BLOCK):
        rows = slice(i0, i0 + _BLOCK)
        term = half[rows, None] * W[rows]
        term += (half[:, None] * W[:, rows]).T
        term.reshape(-1)[i0 :: N + 2] -= half[rows] * d[rows]
        c[rows] -= term
        term = W[rows] + W.T[rows]
        term.reshape(-1)[i0 :: N + 2] -= d[rows]
        c[rows] += term
    return ConnectingKernel(grid=grid, values=c)
