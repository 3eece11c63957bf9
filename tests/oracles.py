"""Second routes to the package's objects, kept only as test oracles.

Each production object has one route in ``memwave``; the routes here reach
the same objects another way and the tests hold the two against each other:

* ``dense_w`` stacks the level blocks of the Goursat march into the dense
  (N + 1) x (2N + 1) kernel w[i, j] = w(x_i, t_j), the form the routes
  below and the tests read (the package holds only the blocks);
* ``duhamel_eval`` / ``apply_control_operator`` push a control through the
  triangular kernel w, and ``solve_control`` inverts that control map by
  back-substitution (against the leapfrog solve ``fd_forward``);
* ``solve_blagoveshchenskii`` marches the correlation field of one control
  pair level by level (against the probe assembly of the connecting kernel
  and the interior wave-state form);
* ``z_from_w`` inverts the Volterra factor I + W directly (against the
  Gelfand-Levitan solve ``solve_gl``), and ``first_non_positive_block``
  bisects a whole matrix over its leading-block Cholesky factorizations
  (against the failing leaf that ``solve_gl`` names);
* ``direct_march`` is the diamond march with its memory term written out
  without blocking (against ``solve_goursat``), and
  ``linearized_memory_field`` runs it driven by K(t - x) alone;
* ``dense_adjoint_weights`` runs the adjoint march of the assembly on one
  dense array, every level over the whole window and every FFT correlation
  at one length (against the packed blocks of ``_adjoint_weights``);
* ``reference_response`` extrapolates the responses of the marches at 2N
  and 4N to fourth-order reference data at N (against the second-order
  response ``synth`` writes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from memwave.catalog import ProblemSpec
from memwave.errors import IllConditionedError, NumericalInstabilityError, UsageError
from memwave.forward import apply_response
from memwave.gelfand_levitan import GLSolution
from memwave.goursat import GoursatSolution, response_kernel, solve_goursat
from memwave.model import (
    CausalHistory,
    ControlSignal,
    GridSpec,
    MemoryKernel,
    ResponseData,
    causal_convolution,
    level_starts,
    trapz_weights,
)


# --------------------------------------------------------------------------
# control map through the kernel w
# --------------------------------------------------------------------------

def dense_w(sol: GoursatSolution) -> np.ndarray:
    """The read-only (N + 1) x (2N + 1) array w[i, j] = w(x_i, t_j) of the rows
    x in [0, T], stacked from the march's level blocks."""
    N = sol.grid.N
    w = np.zeros((N + 1, sol.grid.N2 + 1))
    starts = level_starts(sol.march)
    for j0, j1, block in zip(starts, starts[1:], sol.march):
        m = min(block.shape[1], N + 1)
        w[:m, j0:j1] = block[:, :m].T
    w.flags.writeable = False
    return w


@dataclass(frozen=True)
class WaveSnapshot:
    """Wave profile u(x_i, t_star) on the x grid of [0, T]."""

    grid: GridSpec
    t_star: float
    values: np.ndarray


def duhamel_eval(sol: GoursatSolution, f: ControlSignal, t_star: float) -> WaveSnapshot:
    """Evaluate u(x, t_star) = f(t_star - x) + int_x^{t_star} w(x, s) f(t_star - s) ds.

    ``t_star`` must be a grid time <= T.  The state vanishes for x > t_star
    (finite propagation speed).
    """
    grid = sol.grid
    h, N = grid.h, grid.N
    js = t_star / h
    if abs(js - round(js)) > 1e-9 or not (0.0 <= t_star <= grid.T + 1e-12):
        raise UsageError(f"t_star={t_star} is not a grid time within [0, T]")
    js = int(round(js))
    fv = f.padded_full()

    u = np.zeros(N + 1)
    if js > 0:
        w = dense_w(sol)[: js + 1, : js + 1]
        frev = fv[js::-1]  # f(t_star - s) for s = 0..t_star
        weights = trapz_weights(js + 1, h)
        # w[i, s] vanishes for s < i, so the full-range sum only needs its
        # lower endpoint (s = i) reweighted from h to h/2.
        conv = w @ (weights * frev)
        diag = np.diagonal(w)
        conv -= 0.5 * h * diag * frev[np.arange(js + 1)]
        m = min(js, N)
        u[: m + 1] = fv[js - np.arange(m + 1)] + conv[: m + 1]
    else:
        u[0] = fv[0]
    return WaveSnapshot(grid=grid, t_star=t_star, values=u)


def apply_control_operator(sol: GoursatSolution, f: ControlSignal) -> WaveSnapshot:
    """Final-time state x -> u(x, T) of the control f (the control map)."""
    return duhamel_eval(sol, f, sol.grid.T)


def solve_control(sol: GoursatSolution, target: np.ndarray) -> ControlSignal:
    """Find the control whose final-time state matches ``target`` on [0, T].

    The discrete control map is triangular along characteristics with
    diagonal coefficients 1 + (h/2) w(x, x); back-substitution from x = T
    down to 0 inverts it exactly.
    """
    grid = sol.grid
    h, N = grid.h, grid.N
    a = np.asarray(target, dtype=float)
    if a.shape != (N + 1,):
        raise UsageError(f"target state needs {N + 1} samples on [0, T], got {a.shape}")
    w = dense_w(sol)
    g = np.zeros(N + 1)  # g[k] = f(T - x_k)
    g[N] = a[N]
    for i in range(N - 1, -1, -1):
        weights = np.full(N - i, h)
        weights[-1] = 0.5 * h
        s = w[i, i + 1 : N + 1] @ (weights * g[i + 1 : N + 1])
        denom = 1.0 + 0.5 * h * w[i, i]
        if abs(denom) < 1e-8:
            raise IllConditionedError(
                f"control solve: Volterra diagonal 1 + (h/2) w(x, x) ~ 0 at x index {i}"
            )
        g[i] = (a[i] - s) / denom
    return ControlSignal(grid=grid, values=g[::-1].copy(), admissible=False)


# --------------------------------------------------------------------------
# correlation field of one control pair
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PsiField:
    """Correlation field psi[t_i, s_j] on the triangle {t + s <= 2T}."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def at_final(self) -> float:
        """psi(T, T), the connecting form of the two controls."""
        return float(self.values[self.grid.N, self.grid.N])


def _correlation_levels(F, G, RF, RG, Kv, grid: GridSpec) -> np.ndarray:
    """March psi over the s-levels 0..2N; returns the stack psi[s_l, t].

    F, G, RF, RG are samples on [0, 2T]; Kv is the memory kernel there.
    """
    h = grid.h
    n = grid.N2 + 1
    hist = np.zeros((n, n))
    for l in range(1, n - 1):
        acc = RF * G[l] - F * RG[l] + causal_convolution(Kv, hist[l], h)
        acc -= (trapz_weights(l + 1, h) * Kv[l::-1]) @ hist[: l + 1]
        nxt = hist[l + 1]
        nxt[1:-1] = hist[l, 2:] + hist[l, :-2] - hist[l - 1, 1:-1] + h * h * acc[1:-1]
        if not np.all(np.isfinite(nxt)):
            raise NumericalInstabilityError(
                f"correlation march blew up at s-level {l + 1}"
            )
    return hist


def solve_blagoveshchenskii(r: ResponseData, K: MemoryKernel, f: ControlSignal,
                            g: ControlSignal) -> PsiField:
    """Correlation field of two admissible controls from boundary data (r, K)."""
    grid = GridSpec.of(r, K, f, g)
    if not (f.admissible and g.admissible):
        raise UsageError("correlation march needs admissible-smooth controls")
    F = f.padded_full()
    G = g.padded_full()
    fw = ControlSignal(grid, F, admissible=True)
    gw = ControlSignal(grid, G, admissible=True)
    RF = apply_response(r, fw)
    RG = apply_response(r, gw)
    psi = np.ascontiguousarray(_correlation_levels(F, G, RF, RG, K.values, grid).T)
    tt = np.arange(psi.shape[0])[:, None]
    ss = np.arange(psi.shape[1])
    psi[tt + ss > grid.N2] = 0.0
    return PsiField(grid=grid, values=psi)


# --------------------------------------------------------------------------
# direct inverse of the Volterra factor
# --------------------------------------------------------------------------

def z_from_w(sol: GoursatSolution) -> GLSolution:
    """Invert the Volterra factor I + W directly, row by row.

    From (I + Z)(I + W) = I:  z(x, t) = -w(x, t) - int_x^t z(x, s) w(s, t) ds,
    a forward substitution in t with the exact diagonal z(x, x) = -w(x, x).
    """
    grid = sol.grid
    N, h = grid.N, grid.h
    W = dense_w(sol)[:, : N + 1]
    z = np.zeros((N + 1, N + 1))
    for i in range(N + 1):
        z[i, i] = -W[i, i]
        for j in range(i + 1, N + 1):
            wts = trapz_weights(j - i + 1, h)
            s = z[i, i:j] @ (wts[:-1] * W[i:j, j])
            z[i, j] = -(W[i, j] + s) / (1.0 + 0.5 * h * W[j, j])
    return GLSolution(grid=grid, z=z)


def first_non_positive_block(S: np.ndarray) -> int:
    """Index of the node that closes the first non-positive leading block of
    S (bisection over leading-block Cholesky factorizations of the whole S)."""
    lo, hi = 0, S.shape[0]  # block of size lo factors, block of size hi fails
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            np.linalg.cholesky(S[:mid, :mid])
            lo = mid
        except np.linalg.LinAlgError:
            hi = mid
    return hi - 1


# --------------------------------------------------------------------------
# unblocked diamond march
# --------------------------------------------------------------------------

def direct_march(q_ext, Kv, diag, grid: GridSpec, with_memory: bool) -> np.ndarray:
    """The diamond march with one full trapezoid product per level.

    The memory term is written out without blocking.  ``with_memory=False``
    keeps the forcing K(t - x) alone: no q-coupling and no history integral.
    """
    N, N2, h = grid.N, grid.N2, grid.h
    w = np.zeros((N + 2, N2 + 1))
    rows = np.arange(N + 2)
    w[rows, np.minimum(rows, N2)] = diag
    for j in range(1, N2):
        if j <= N:
            forcing = q_ext[j] * w[j, j] + Kv[0] if with_memory else Kv[0]
            w[j, j + 1] = w[j - 1, j] - 0.5 * h * q_ext[j] - 0.5 * h * h * forcing
        i_max = min(j - 1, 2 * N + 1 - j)
        if i_max >= 1:
            idx = np.arange(1, i_max + 1)
            kshift = Kv[j - idx]
            if with_memory:
                col = trapz_weights(j + 1, h) * Kv[j::-1]
                mem = w[idx, : j + 1] @ col - 0.5 * h * kshift * diag[idx]
                F = q_ext[idx] * w[idx, j] + mem + kshift
            else:
                F = kshift
            w[idx, j + 1] = w[idx - 1, j] + w[idx + 1, j] - w[idx, j - 1] - h * h * F
    return w


def linearized_memory_field(K: MemoryKernel, grid: GridSpec) -> np.ndarray:
    """First-order-in-K kernel: the march driven by K(t - x) alone.

    This is the derivative of the full scheme with respect to the kernel
    amplitude at q = 0, K = 0; useful as a linearization reference.  The
    march's first N + 1 rows, read-only, as ``dense_w`` holds them.
    """
    zeros = np.zeros(grid.N + 2)
    w = direct_march(zeros, K.values, zeros, grid, False)[: grid.N + 1]
    w.flags.writeable = False
    return w


# --------------------------------------------------------------------------
# dense adjoint weights
# --------------------------------------------------------------------------

def dense_adjoint_weights(Kv: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The weights of ``connecting._adjoint_weights`` as one dense array.

    Row i is V[N - 1 - i], i = 0..N-1, over the whole window t = 0..2N
    (the last row, V[0], is zero), so the zeros past each level's wavefront
    are stored.  The march is the production one, level by level, with its
    history on the one array and every FFT correlation at one power-of-two
    length, long enough for the whole window.
    """
    N, h = grid.N, grid.h
    n_t = grid.N2 + 1
    R = np.zeros((N + 1, n_t))  # R[N - l] = V[l] = masked lambda_{l+1}; R[0] = 0
    lam_next = np.zeros(N + 1)
    lam_next[N] = 1.0  # lambda_N
    # every correlation at the power of two >= 2 n_t - 3; the one entry a
    # wrap-around reaches is set below
    P = 1 << (2 * n_t - 3).bit_length()
    K_hat = np.conj(np.fft.rfft(Kv, P))
    history = CausalHistory([R], Kv, h)
    for m in range(N - 1, 0, -1):
        L = 2 * N - m
        vm = R[N - m]
        vm[1:L] = lam_next[1:L]
        lam_m = np.zeros(L + 1)
        lam_m[1:] = vm[2 : L + 2] + vm[:L]
        lam_m[0] = vm[1]
        # the transposed history convolution, sum_{i >= j} Kv[i - j] vm[i]
        # with the transposed trapezoid end weights
        c = np.fft.irfft(K_hat * np.fft.rfft(vm, P), P)[:n_t]
        c[-1] = Kv[0] * vm[-1]
        corr = h * (c - 0.5 * Kv[0] * vm)
        corr[0] -= 0.5 * h * c[0]
        lam_m += h * h * corr[: L + 1]
        lam_m -= R[N - m - 1, : L + 1]
        lam_m -= h * h * history.at(N - m, L + 1)
        lam_next = lam_m
    return R[1:]


# --------------------------------------------------------------------------
# fourth-order reference data
# --------------------------------------------------------------------------

def reference_response(problem: ProblemSpec, grid: GridSpec) -> ResponseData:
    """R(2N, 4N) = (4 r_4N[::4] - r_2N[::2]) / 3 on ``grid``: same-parity
    Richardson extrapolation of the responses of the Goursat marches of
    ``problem`` at 2N and 4N cells.

    Both marches are read only at even sample indices.  The plain
    extrapolation (4 r_2N[::2] - r_N) / 3 reads r_N at odd ones as well,
    where the march's odd-even error mode has no partner in r_2N, and stays
    second order there; R(2N, 4N) is fourth order on every sample.
    """
    def response(n):
        fine = GridSpec(grid.T, n * grid.N)
        q, K = problem.fields(fine)
        return response_kernel(solve_goursat(q, K)).values[::n]

    return ResponseData(grid, (4.0 * response(4) - response(2)) / 3.0)
