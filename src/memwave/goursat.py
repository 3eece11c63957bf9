"""Characteristic-grid solver for the kernel of the boundary-source wave.

The solution of the half-line problem with boundary control f admits the
representation u(x, t) = f(t - x) + int_x^t w(x, s) f(t - s) ds.  The kernel
w lives on the triangle {0 <= x <= t, x + t <= 2T} and solves a Goursat-type
problem there:

    w_tt - w_xx + q(x) w + int_x^t K(t - s) w(x, s) ds + K(t - x) = 0
    w(0, t) = 0,            (d/dx) w(x, x) = -q(x) / 2

with w extended by zero below the characteristic t = x, which turns the
memory integral from x into one from 0.

Discretization: unit-Courant diamond scheme on the (x, t) lattice.  For a
stencil centre strictly above the characteristic,

    w[i, j+1] + w[i, j-1] - w[i-1, j] - w[i+1, j] = -h^2 F(x_i, t_j),
    F = q w + (memory integral) + K(t - x),

marched level by level in t.  Points on the first superdiagonal have a stencil
arm below the characteristic; they are set from the half characteristic cell
between the two data lines instead,

    w[i, i+1] = w[i-1, i] - (h/2) q(x_i) - (h^2/2) (q(x_i) w[i, i] + K(0)),

which keeps the scheme second order up to the characteristic (the first two
terms are the exact transport of the diagonal data, the last is the forcing
integrated over the half cell).

The memory integral is the trapezoid sum over the finished t-levels 0..j,
with the lower end s = x_i reweighted to h/2.  ``model.CausalHistory`` forms
it by blocks of levels: one GEMM per block for the levels finished before
the block, and a short product per level for the levels inside it.

The diagonal condition is data the march imposes, not a value it computes:
``_characteristic_data`` writes w(x_i, x_i) = -(1/2) int_0^{x_i} q (the
trapezoid sum) onto the characteristic, and no stencil writes there again.
``diagonal_residual`` therefore measures the discrete diagonal law from q
alone, with no march; the march's own diagonal stays a test oracle for it.

The march is stored level-major, W[j, i] = w(x_i, t_j), as every march is:
each level one contiguous row.  It runs on the extended triangle
{i <= j, i + j <= 2N + 2}, past the triangle by the strip
2N < i + j <= 2N + 2 that the response stencil needs at t = 2T, so level j
holds the min(j, 2N + 2 - j) + 1 entries i <= min(j, 2N + 2 - j), and no
stencil reads past them.  It is held as the blocks of
``model.level_blocks``: ``_BLOCK`` levels each, each its own array and as
wide as its widest level, about half of a dense (2N + 1) x (N + 2) array.
The history's far products then skip the zero triangle below the
characteristic, and ``response_kernel`` reads its rows x = h and 2h from the
blocks.  The blocks are the only form of w the solution holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (
    CausalHistory,
    CoefficientField,
    GridSpec,
    MemoryKernel,
    ResponseData,
    check_march,
    cumulative_trapezoid,
    level_blocks,
    level_starts,
)

__all__ = [
    "GoursatSolution",
    "solve_goursat",
    "response_kernel",
    "diagonal_residual",
]


@dataclass(frozen=True)
class GoursatSolution:
    """Kernel w on the triangle plus the data that produced it.

    ``march`` holds the read-only level blocks of the march, stacked
    march[j, i] = w(x_i, t_j): level j holds the x-samples i <= j,
    i + j <= 2N + 2 and is zero past them, below the characteristic (i > j)
    and past the extension strip 2N < i + j <= 2N + 2.  The strip holds the
    march's extension (the potential continued by its last sample), which
    keeps the boundary-derivative stencil of ``response_kernel`` second
    order up to t = 2T; only that stencil reads it.
    """

    grid: GridSpec
    q: CoefficientField
    K: MemoryKernel
    march: list[np.ndarray] = field(repr=False)


def _characteristic_data(q_values: np.ndarray, h: float) -> np.ndarray:
    """w(x_i, x_i) = -(1/2) int_0^{x_i} q by the trapezoid sum: the diagonal law."""
    return -0.5 * cumulative_trapezoid(q_values, h)


@np.errstate(over="ignore", invalid="ignore")  # check_march names a blow-up
def _march(q_ext: np.ndarray, Kv: np.ndarray, diag: np.ndarray,
           grid: GridSpec) -> list[np.ndarray]:
    """Diamond march on the extended triangle {i+j <= 2N+2, j <= 2N}, as the
    level blocks of W[j, i]."""
    N, N2, h = grid.N, grid.N2, grid.h
    s = np.arange(N2 + 1)
    blocks = level_blocks(np.minimum(s, N2 + 2 - s) + 1)
    starts = level_starts(blocks)
    for j0, j1, block in zip(starts, starts[1:], blocks):
        # characteristic data W[j, j], j <= N + 1; W[:, 0] stays 0
        js = np.arange(j0, min(j1, N + 2))
        block[js - j0, js] = diag[js]
    history = CausalHistory(blocks, Kv, h)

    levels = (row for block in blocks for row in block)
    prev, cur = next(levels), next(levels)
    for j in range(1, N2):
        nxt = next(levels)  # levels j - 1, j and j + 1
        # superdiagonal point (j, j+1) from the half characteristic cell
        if j <= N:
            forcing = q_ext[j] * cur[j] + Kv[0]
            nxt[j] = cur[j - 1] - 0.5 * h * q_ext[j] - 0.5 * h * h * forcing
        # interior diamond centres (i, j), i = 1 .. i_max
        i_max = min(j - 1, 2 * N + 1 - j)
        if i_max >= 1:
            inner = slice(1, i_max + 1)
            kshift = Kv[j - 1 : j - i_max - 1 : -1]  # K(t_j - x_i)
            mem = history.at(j, i_max + 1)[1:] - 0.5 * h * kshift * diag[inner]
            F = q_ext[inner] * cur[inner] + mem + kshift
            nxt[inner] = cur[:i_max] + cur[2 : i_max + 2] - prev[inner] - h * h * F
        prev, cur = cur, nxt
    check_march(blocks, "kernel")
    for block in blocks:
        block.flags.writeable = False
    return blocks


def solve_goursat(q: CoefficientField, K: MemoryKernel) -> GoursatSolution:
    """March the diamond scheme for the kernel w over the full triangle of
    the grid that q and K share."""
    grid = GridSpec.of(q, K)
    # one extra sample past T (constant continuation) feeds the extended strip;
    # it cannot influence any node with i + j <= 2N (domain of dependence).
    q_ext = np.append(q.values, q.values[-1])
    diag = _characteristic_data(q_ext, grid.h)
    return GoursatSolution(grid=grid, q=q, K=K, march=_march(q_ext, K.values, diag, grid))


def response_kernel(sol: GoursatSolution) -> ResponseData:
    """Boundary derivative r(t) = w_x(0, t) of the kernel, on [0, 2T].

    One-sided second-order stencil in x; w(0, t) = 0 exactly.  r(0) = 0 by
    convention (the kernel vanishes on both boundary lines at the origin).
    At t = h only two x-samples exist and the two-point difference would be
    first order (the x-curvature of w on the boundary line does not vanish
    when a memory kernel is present), so that sample comes from quadratic
    extrapolation of the three second-order neighbours instead.
    """
    grid = sol.grid
    r = np.empty(grid.N2 + 1)
    starts = level_starts(sol.march)
    for j0, j1, block in zip(starts, starts[1:], sol.march):
        # the rows x = h and 2h of the levels in the block
        r[j0:j1] = (4.0 * block[:, 1] - block[:, 2]) / (2.0 * grid.h)
    r[0] = 0.0
    r[1] = 3.0 * r[2] - 3.0 * r[3] + r[4]
    return ResponseData(grid=grid, values=r)


def diagonal_residual(q: CoefficientField) -> float:
    """Sup of |(d/dx) w(x, x) + q(x)/2| over interior nodes, central differences.

    w(x, x) is the characteristic data the march imposes, so the residual
    needs only q; it works out to max |q[i-1] - 2 q[i] + q[i+1]| / 8.
    """
    grid = q.grid
    d = _characteristic_data(q.values, grid.h)
    slope = (d[2:] - d[:-2]) / (2.0 * grid.h)
    return float(np.max(np.abs(slope + 0.5 * q.values[1:-1])))
