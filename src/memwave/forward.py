"""Forward evaluations: the boundary response map and the leapfrog oracle.

* ``apply_response`` maps an admissible control to its boundary response
  through the response kernel r; the probe assembly of the connecting
  kernel is built on it;
* ``fd_forward`` integrates the integro-differential wave equation directly
  with a unit-Courant leapfrog scheme on a padded interval (knows nothing
  about w; used to cross-check everything kernel-based).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError
from .model import (
    CausalHistory,
    ControlSignal,
    GridSpec,
    ResponseData,
    causal_convolution,
    check_march,
    sampled_derivative,
)

__all__ = [
    "SpaceTimeField",
    "apply_response",
    "fd_forward",
    "fd_boundary_trace",
]


@dataclass(frozen=True)
class SpaceTimeField:
    """Dense leapfrog solution u[i, j] on [0, L] x [0, T_max], L = T_max + 4h."""

    grid: GridSpec
    values: np.ndarray = field(repr=False)


# --------------------------------------------------------------------------
# response map
# --------------------------------------------------------------------------

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
    check_march(u, "leapfrog")
    return SpaceTimeField(grid=grid, values=u)


def fd_boundary_trace(field: SpaceTimeField) -> np.ndarray:
    """x-derivative trace u_x(0, t) of a leapfrog solution, one-sided stencil."""
    u = field.values
    h = field.grid.h
    return (-3.0 * u[0, :] + 4.0 * u[1, :] - u[2, :]) / (2.0 * h)
