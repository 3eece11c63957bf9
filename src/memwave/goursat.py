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

marched row by row in t.  Points on the first superdiagonal have a stencil
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

The march runs on N + 2 rows, past the triangle by the strip
2N < i + j <= 2N + 2 that the response stencil needs at t = 2T, and the
solution holds it once: ``GoursatSolution.w`` is a read-only view of its
first N + 1 rows, not a masked copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError
from .model import (
    CausalHistory,
    CoefficientField,
    GridSpec,
    MemoryKernel,
    ResponseData,
    check_march,
    cumulative_trapezoid,
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

    ``w`` is a read-only (N + 1) x (2N + 1) view of the march, w[i, j] =
    w(x_i, t_j) for i <= j, i + j <= 2N: the triangle has only the N + 1
    rows x in [0, T].  It is zero below the characteristic (j < i).  The
    strip 2N < i + j <= 2N + 2 holds the march's extension (the potential
    continued by its last sample), which keeps the boundary-derivative
    stencil of ``response_kernel`` second order up to t = 2T; only that
    stencil reads it, and everything past the strip is zero.
    """

    grid: GridSpec
    q: CoefficientField
    K: MemoryKernel
    w: np.ndarray = field(repr=False)


def _characteristic_data(q_values: np.ndarray, h: float) -> np.ndarray:
    """w(x_i, x_i) = -(1/2) int_0^{x_i} q by the trapezoid sum: the diagonal law."""
    return -0.5 * cumulative_trapezoid(q_values, h)


def _march(q_ext: np.ndarray, Kv: np.ndarray, diag: np.ndarray,
           grid: GridSpec) -> np.ndarray:
    """Diamond march on the extended triangle {i+j <= 2N+2, j <= 2N}."""
    N, N2, h = grid.N, grid.N2, grid.h
    w = np.zeros((N + 2, N2 + 1))
    rows = np.arange(N + 2)
    w[rows, np.minimum(rows, N2)] = diag  # characteristic data; w[0, :] stays 0
    history = CausalHistory(w.T, Kv, h)

    for j in range(1, N2):
        # superdiagonal point (j, j+1) from the half characteristic cell
        if j <= N:
            forcing = q_ext[j] * w[j, j] + Kv[0]
            w[j, j + 1] = w[j - 1, j] - 0.5 * h * q_ext[j] - 0.5 * h * h * forcing
        # interior diamond centres (i, j), i = 1 .. i_max
        i_max = min(j - 1, 2 * N + 1 - j)
        if i_max >= 1:
            inner = slice(1, i_max + 1)
            kshift = Kv[j - 1 : j - i_max - 1 : -1]  # K(t_j - x_i)
            mem = history.at(j, i_max + 1)[1:] - 0.5 * h * kshift * diag[inner]
            F = q_ext[inner] * w[inner, j] + mem + kshift
            w[inner, j + 1] = (w[:i_max, j] + w[2 : i_max + 2, j] - w[inner, j - 1]
                               - h * h * F)
    check_march(w, "kernel")
    return w


def solve_goursat(q: CoefficientField, K: MemoryKernel, grid: GridSpec) -> GoursatSolution:
    """March the diamond scheme for the kernel w over the full triangle."""
    if q.grid != grid or K.grid != grid:
        raise UsageError("coefficient/kernel grids do not match the requested grid")
    # one extra sample past T (constant continuation) feeds the extended strip;
    # it cannot influence any node with i + j <= 2N (domain of dependence).
    q_ext = np.append(q.values, q.values[-1])
    diag = _characteristic_data(q_ext, grid.h)
    w = _march(q_ext, K.values, diag, grid)[: grid.N + 1]
    w.flags.writeable = False
    return GoursatSolution(grid=grid, q=q, K=K, w=w)


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
    h, N2 = grid.h, grid.N2
    w = sol.w
    r = np.zeros(N2 + 1)
    j = np.arange(2, N2 + 1)
    r[2:] = (4.0 * w[1, j] - w[2, j]) / (2.0 * h)
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
