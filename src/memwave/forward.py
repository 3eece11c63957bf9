"""Forward evaluations: kernel-based wave states and an independent oracle.

Two routes to the same wave:

* ``duhamel_eval`` pushes a boundary control through the triangular kernel
  w (fast, used by the reconstruction pipeline);
* ``fd_forward`` integrates the integro-differential wave equation directly
  with a unit-Courant leapfrog scheme on a padded interval (slow, knows
  nothing about w; used to cross-check everything kernel-based).

``solve_control`` inverts the control-to-state map along the diagonal - a
Volterra system of the second kind solved by back-substitution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IllConditionedError, NumericalInstabilityError, UsageError
from .goursat import GoursatSolution, ResponseData
from .model import (
    CausalHistory,
    ControlSignal,
    GridSpec,
    causal_convolution,
    sampled_derivative,
    trapz_weights,
)

__all__ = [
    "WaveSnapshot",
    "SpaceTimeField",
    "duhamel_eval",
    "apply_control_operator",
    "solve_control",
    "apply_response",
    "fd_forward",
    "fd_boundary_trace",
]


@dataclass(frozen=True)
class WaveSnapshot:
    """Wave profile u(x_i, t_star) on the x grid of [0, T]."""

    grid: GridSpec
    t_star: float
    values: np.ndarray


@dataclass(frozen=True)
class SpaceTimeField:
    """Dense leapfrog solution u[i, j] on [0, L] x [0, T_max], L = T_max + 4h."""

    grid: GridSpec
    t_max: float
    values: np.ndarray = field(repr=False)

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.values.shape[0]) * self.grid.h

    @property
    def t(self) -> np.ndarray:
        return np.arange(self.values.shape[1]) * self.grid.h


# --------------------------------------------------------------------------
# kernel route
# --------------------------------------------------------------------------

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
        w = sol.w[: js + 1, : js + 1]
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
    w = sol.w
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


def apply_response(r: ResponseData, f: ControlSignal) -> np.ndarray:
    """Boundary response (Rf)(t) = -f'(t) + int_0^t r(s) f(t-s) ds.

    Defined for admissible controls only; sampled on the window f lives on.
    """
    if not f.admissible:
        raise UsageError("apply_response needs an admissible-smooth control")
    fv = f.values
    n = fv.size
    return -sampled_derivative(fv, f.grid.h) + causal_convolution(
        r.values[:n], fv, f.grid.h
    )


# --------------------------------------------------------------------------
# finite-difference oracle
# --------------------------------------------------------------------------

def fd_forward(q, K, f: ControlSignal, t_max: float | None = None) -> SpaceTimeField:
    """Leapfrog integration of u_tt = u_xx - q u - int_0^t K(t-s) u(., s) ds.

    Unit Courant number on [0, L], L = t_max + 4h, with u(0, t) = f(t), a
    homogeneous Dirichlet far end (never reached by the wave front inside
    [0, t_max]) and rest initial data u(., 0) = u(., 1) = 0 except
    u(0, 1) = f(h).  The potential is continued past T by its last sample;
    by finite speed this cannot affect the solution at x <= t <= t_max.

    Each level updates only the rows up to the wavefront; the memory term is
    the trapezoid history of the finished levels, formed by blocks of levels
    through ``model.CausalHistory``.
    """
    grid = f.grid
    h, N = grid.h, grid.N
    if t_max is None:
        t_max = grid.T
    steps = t_max / h
    if abs(steps - round(steps)) > 1e-9:
        raise UsageError(f"t_max={t_max} is not a multiple of the grid step")
    M = int(round(steps))
    if M > grid.N2:
        raise UsageError("t_max beyond the data window [0, 2T]")
    fv = f.padded_full()[: M + 1]
    Kv = K.values[: M + 1]
    nx = M + 4  # L = t_max + 4h
    qpad = np.full(nx + 1, q.values[-1])
    qpad[: N + 1] = q.values

    u = np.zeros((nx + 1, M + 1))
    u[0, :] = fv
    history = CausalHistory(u.T, Kv, h)
    for j in range(1, M):
        n = min(j + 2, nx)  # rows past the wavefront j + 1 are still at rest
        hist = history.at(j, n)
        u[1:n, j + 1] = (
            u[: n - 1, j]
            + u[2 : n + 1, j]
            - u[1:n, j - 1]
            - h * h * (qpad[1:n] * u[1:n, j] + hist[1:n])
        )
        if not np.all(np.isfinite(u[:, j + 1])):
            i_bad = int(np.flatnonzero(~np.isfinite(u[:, j + 1]))[0])
            raise NumericalInstabilityError(
                f"leapfrog march blew up at grid node (i={i_bad}, j={j + 1})"
            )
    return SpaceTimeField(grid=grid, t_max=t_max, values=u)


def fd_boundary_trace(field: SpaceTimeField) -> np.ndarray:
    """x-derivative trace u_x(0, t) of a leapfrog solution, one-sided stencil."""
    u = field.values
    h = field.grid.h
    return (-3.0 * u[0, :] + 4.0 * u[1, :] - u[2, :]) / (2.0 * h)
