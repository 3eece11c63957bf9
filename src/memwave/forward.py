"""Forward evaluations: the boundary response map and the leapfrog oracle.

* ``apply_response`` maps an admissible control to its boundary response
  through the response kernel r; the probe assembly of the connecting
  kernel is built on it;
* ``fd_forward`` integrates the integro-differential wave equation directly
  with a unit-Courant leapfrog scheme on a padded interval (knows nothing
  about w; used to cross-check everything kernel-based).  It returns its
  level-major march U[j, i] = u(x_i, t_j) on a window [0, x_max] x
  [0, t_max], as the Goursat march and the adjoint weights return theirs,
  and marches only the nodes in the backward cone of that window from the
  control's first nonzero sample on, so the field a boundary trace reads
  costs about half the nodes of the whole forward cone, less the levels
  before the control starts.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError
from .model import (
    CausalHistory,
    ControlSignal,
    ResponseData,
    causal_convolution,
    check_march,
    sampled_derivative,
)

__all__ = [
    "apply_response",
    "fd_forward",
    "fd_boundary_trace",
]


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
               x_max: float | None = None) -> np.ndarray:
    """Leapfrog integration of u_tt = u_xx - q u - int_0^t K(t-s) u(., s) ds.

    Unit Courant number on [0, L], L = t_max + 4h, with u(0, t) = f(t), a
    homogeneous Dirichlet far end (never reached by the wave front inside
    [0, t_max]) and rest initial data u(., 0) = u(., 1) = 0 except
    u(0, 1) = f(h).  The potential is continued past T by its last sample;
    by finite speed this cannot affect the solution at x <= t <= t_max.

    Returns the field on [0, x_max] x [0, t_max] level-major,
    U[j, i] = u(x_i, t_j); ``x_max=None`` means the whole padded interval
    [0, L].

    The system is time-invariant and starts at rest, so a control that is
    zero up to its first nonzero sample k leaves the field zero up to it:
    every level before k is zero, and level k is zero off the boundary.  The
    march therefore starts at level j0 = max(k - 1, 0), which becomes level 0
    of a shifted march; levels j0 and j0 + 1 are its boundary-only initial
    levels, and no stencil or history term reads anything but zeros from the
    levels before them.  A zero control marches no level.

    Shifted level j + 1 is zero from row j + 1 on (level 1 is zero off the
    boundary), and at unit speed the rows x <= x_max at t_max read it only on
    x <= x_max + (t_max - t_{j+1}).  So it is formed on the rows
    i < min(j + 1, R + (M - j0) - j, nx), with R = x_max / h, M = t_max / h
    and nx = M + 4: the forward wavefront from the control's start cut by the
    backward cone of the returned rows.  The rows past the cone are never
    marched, so the array is only as wide as the cone.

    The march is stored level-major, U[j, i], so that each finished level is
    one contiguous row of the trapezoid history; the memory term is formed by
    blocks of levels through ``model.CausalHistory``, which reads the view
    U[j0:].  A blow-up is named at its unshifted node.  The field returned
    is the view of the first R + 1 columns, U[:, :R + 1].
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
    fv = f.padded_full()[: M + 1]
    # the march starts at level j0, one before the control's first nonzero
    # sample; a zero control starts at the last level and marches none
    nonzero = np.flatnonzero(fv)
    j0 = max(int(nonzero[0]) - 1, 0) if nonzero.size else M
    # shifted level j updates the rows 1 .. n - 1 and reads row n
    rows = [min(j + 1, R + (M - j0) - j, nx) for j in range(1, M - j0)]
    width = max([R, *rows]) + 1
    # q is continued only over the rows the march visits
    qpad = np.full(width, q.values[-1])
    n_q = min(width, N + 1)
    qpad[:n_q] = q.values[:n_q]

    U = np.zeros((M + 1, width))
    U[:, 0] = fv
    V = U[j0:]  # shifted level j is level j0 + j
    history = CausalHistory([V], K.values[: M - j0 + 1], h)
    for j, n in enumerate(rows, start=1):
        hist = history.at(j, n)
        V[j + 1, 1:n] = (
            V[j, : n - 1]
            + V[j, 2 : n + 1]
            - V[j - 1, 1:n]
            - h * h * (qpad[1:n] * V[j, 1:n] + hist[1:n])
        )
    check_march([U], "leapfrog")
    return U[:, : R + 1]


def fd_boundary_trace(u: np.ndarray, h: float) -> np.ndarray:
    """x-derivative trace u_x(0, t) of a leapfrog march U[j, i] = u(x_i, t_j)
    on a grid of step h: a one-sided stencil on the columns x = 0, h and 2h."""
    if u.shape[1] < 3:
        raise UsageError("the one-sided trace reads rows 0-2 of the field; "
                         f"this one has {u.shape[1]}")
    return (-3.0 * u[:, 0] + 4.0 * u[:, 1] - u[:, 2]) / (2.0 * h)
