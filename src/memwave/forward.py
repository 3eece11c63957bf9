"""Forward evaluations: the boundary response map and the leapfrog oracle.

* ``apply_response`` maps an admissible control to its boundary response
  through the response kernel r; the probe assembly of the connecting
  kernel is built on it;
* ``fd_forward`` integrates the integro-differential wave equation directly
  with a unit-Courant leapfrog scheme on a padded interval (knows nothing
  about w; used to cross-check everything kernel-based).  It returns the
  field on a window [0, x_max] x [0, t_max] and marches only the nodes in
  the backward cone of that window, so the field a boundary trace reads
  costs about half the nodes of the whole forward cone.
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
    """Leapfrog solution u[i, j] on the window [0, x_max] x [0, t_max].

    By default x_max = L = t_max + 4h, the whole padded interval.  ``values``
    is a transposed view of the level-major march U[j, i].
    """

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

def _grid_steps(value: float, h: float, name: str) -> int:
    """The whole number of grid steps in ``value``, which must be >= 0."""
    steps = value / h
    if abs(steps - round(steps)) > 1e-9:
        raise UsageError(f"{name}={value} is not a multiple of the grid step")
    if steps < 0:
        raise UsageError(f"{name}={value} is negative")
    return int(round(steps))


@np.errstate(over="ignore", invalid="ignore")  # check_march names a blow-up
def fd_forward(q, K, f: ControlSignal, t_max: float | None = None,
               x_max: float | None = None) -> SpaceTimeField:
    """Leapfrog integration of u_tt = u_xx - q u - int_0^t K(t-s) u(., s) ds.

    Unit Courant number on [0, L], L = t_max + 4h, with u(0, t) = f(t), a
    homogeneous Dirichlet far end (never reached by the wave front inside
    [0, t_max]) and rest initial data u(., 0) = u(., 1) = 0 except
    u(0, 1) = f(h).  The potential is continued past T by its last sample;
    by finite speed this cannot affect the solution at x <= t <= t_max.

    Returns the field on [0, x_max] x [0, t_max]; ``x_max=None`` means the
    whole padded interval [0, L].  At unit speed the rows x <= x_max up to
    t_max depend on level j only through the rows x <= x_max + (t_max - t_j),
    so level j updates the rows i < min(j + 2, R + M - j + 1, nx), with
    R = x_max / h, M = t_max / h and nx = M + 4: the forward wavefront cut by
    the backward cone of the returned rows.  The rows past the cone are never
    marched, so the array is only as wide as the cone.

    The march is stored level-major, U[j, i], so that each finished level is
    one contiguous row of the trapezoid history; the memory term is formed by
    blocks of levels through ``model.CausalHistory``.  The field returned is
    the transposed view u[i, j] of the first R + 1 columns.
    """
    grid = f.grid
    h, N = grid.h, grid.N
    M = _grid_steps(grid.T if t_max is None else t_max, h, "t_max")
    if M > grid.N2:
        raise UsageError("t_max beyond the data window [0, 2T]")
    nx = M + 4  # L = t_max + 4h
    R = nx if x_max is None else _grid_steps(x_max, h, "x_max")
    if R > nx:
        raise UsageError(f"x_max={x_max} beyond the padded interval [0, t_max + 4h]")
    # level j updates the rows 1 .. n - 1 and reads row n
    rows = [min(j + 2, R + M - j + 1, nx) for j in range(1, M)]
    width = max([R, *rows]) + 1
    fv = f.padded_full()[: M + 1]
    Kv = K.values[: M + 1]
    # q is continued only over the rows the march visits
    qpad = np.full(width, q.values[-1])
    n_q = min(width, N + 1)
    qpad[:n_q] = q.values[:n_q]

    U = np.zeros((M + 1, width))
    U[:, 0] = fv
    history = CausalHistory([U], Kv, h)
    for j, n in enumerate(rows, start=1):
        hist = history.at(j, n)
        U[j + 1, 1:n] = (
            U[j, : n - 1]
            + U[j, 2 : n + 1]
            - U[j - 1, 1:n]
            - h * h * (qpad[1:n] * U[j, 1:n] + hist[1:n])
        )
    check_march([U], "leapfrog")
    return SpaceTimeField(grid=grid, values=U[:, : R + 1].T)


def fd_boundary_trace(field: SpaceTimeField) -> np.ndarray:
    """x-derivative trace u_x(0, t) of a leapfrog solution, one-sided stencil."""
    u = field.values
    if u.shape[0] < 3:
        raise UsageError("the one-sided trace reads rows 0-2 of the field; "
                         f"this one has {u.shape[0]}")
    h = field.grid.h
    return (-3.0 * u[0, :] + 4.0 * u[1, :] - u[2, :]) / (2.0 * h)
