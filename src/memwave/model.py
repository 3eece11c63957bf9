"""Grids, sampled fields, quadrature and the causal history of the marches.

Everything downstream works on a characteristic grid: the space step and the
time step are the same h = T/N.  Coefficients live on [0, T], boundary data
and memory kernels on [0, 2T], and triangular kernels on the region
{0 <= x <= t, x + t <= 2T}.

Every blocked pass over an (N+1)^2 array runs ``_BLOCK`` rows or columns at
a time: the level blocks of the Goursat march and of the adjoint weights,
the finiteness scans, the streamed Galerkin products and full-size passes
of the assembly, the dense leaf of the blocked triangular inverse and the
row blocks of the condition number's column sums.  The loops of GEMMs with
triangular factors in ``gelfand_levitan`` take blocks of at least ``_BLOCK``.

Every march is stored and handed back level-major, level j one contiguous
row: the Goursat march and the adjoint weights as the blocks of
``level_blocks``, the leapfrog march (``forward.fd_forward``) as one plain
array.  ``level_starts`` is the one walk over level blocks: every reader
takes the first level of each block from it, and no other module adds up
block heights.

``GridSpec.of`` is the one grid check: every routine that takes several
fields reads its grid from it, and no other module compares grids.

``_FAMILIES`` is the one table of the closed-form sample families that q, K
and the controls are drawn from: each entry holds its parameter count, its
sampler, its width rule and whether its samples are an admissible control.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericalInstabilityError, UsageError

__all__ = [
    "GridSpec",
    "CoefficientField",
    "MemoryKernel",
    "ControlSignal",
    "ResponseData",
    "sample_array",
    "check_march",
    "first_nonfinite",
    "level_blocks",
    "level_starts",
    "trapezoid",
    "trapz_weights",
    "cumulative_trapezoid",
    "CausalHistory",
    "sampled_derivative",
    "causal_convolution",
    "sample_family",
    "coefficient_from_family",
    "kernel_from_family",
    "control_from_family",
    "bump_profile",
]


# --------------------------------------------------------------------------
# grid
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Characteristic grid on [0, T]: N cells, step h = T/N in x and t.

    Boundary data is observed on the doubled window [0, 2T] (2N cells).
    """

    T: float
    N: int

    def __post_init__(self):
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise UsageError(f"grid horizon T must be positive and finite, got {self.T}")
        if self.N < 8:
            raise UsageError(f"grid needs N >= 8 cells, got N={self.N}")

    @staticmethod
    def of(*fields) -> GridSpec:
        """The grid that ``fields`` share, each a sampled field or a result
        with a ``grid``; the one check that a call's inputs live on one grid."""
        grid = fields[0].grid
        for other in fields[1:]:
            if other.grid != grid:
                raise UsageError(f"inputs live on different grids: {grid} and {other.grid}")
        return grid

    @property
    def h(self) -> float:
        return self.T / self.N

    @property
    def N2(self) -> int:
        return 2 * self.N

    def times_half(self) -> np.ndarray:
        """Grid points of [0, T] (N + 1 values); also the x grid."""
        return np.linspace(0.0, self.T, self.N + 1)

    def times_full(self) -> np.ndarray:
        """Grid points of [0, 2T] (2N + 1 values)."""
        return np.linspace(0.0, 2.0 * self.T, self.N2 + 1)


# --------------------------------------------------------------------------
# quadrature
# --------------------------------------------------------------------------

# levels per block of a causal history (one GEMM per block)
_LEVEL_BLOCK = 64
# rows or columns per block of every blocked pass, and the narrowest block
# of a product loop (``gelfand_levitan._spans``)
_BLOCK = 128


def trapezoid(values: np.ndarray, h: float) -> float:
    """Composite trapezoid of uniformly sampled values; 0 for a single sample."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise UsageError("trapezoid expects a 1-d sample array")
    if v.size < 2:
        return 0.0
    return h * (v.sum() - 0.5 * (v[0] + v[-1]))


def trapz_weights(n: int, h: float) -> np.ndarray:
    """Composite trapezoid weights for n uniform samples (h/2 at the ends)."""
    if n < 2:
        return np.zeros(max(n, 0))
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def cumulative_trapezoid(values: np.ndarray, h: float) -> np.ndarray:
    """Running trapezoid integral; output[0] = 0, same length as input."""
    v = np.asarray(values, dtype=float)
    out = np.zeros_like(v)
    if v.size > 1:
        out[1:] = np.cumsum(0.5 * h * (v[1:] + v[:-1]))
    return out


class CausalHistory:
    """Trapezoid history of finished levels, sum_{s <= j} h Kv[j - s] H[s].

    ``blocks`` hold the march's levels H[s] in order, level-major: block b
    holds the levels from the end of block b - 1 on, one per row, and its
    levels vanish past its width.  The Goursat and adjoint marches hand in
    the blocks of ``level_blocks``, each as wide as its widest level; the
    leapfrog march hands in one block, the view of its march array from the
    level it starts at, so its level 0 is that level.  A block may
    be narrower than later blocks, behind a wavefront, or wider, as the
    Goursat triangle narrows past level N + 1: a block is read only up to
    the n entries asked for.
    The caller fills the blocks as it marches; ``at(j, n)`` needs j >= 1,
    the levels 0..j final and the block of level j at least n wide, and
    returns the history of level j on its first n entries, with the weights
    of ``trapz_weights(j + 1, h)`` (h/2 on levels 0 and j).

    The levels run in blocks of ``_LEVEL_BLOCK`` from the first one asked
    for, level 1 or later, cut at the ends of the storage blocks; so level 0
    is always a far level.  At a level block's start one GEMM per storage
    block, of a Toeplitz slice of h Kv by the finished levels it holds over
    its own width, gives every level of the block its far history; each
    level then adds its at most ``_LEVEL_BLOCK`` near levels in a short
    product.  The far history covers the n entries asked
    for at the block's start, so past them the earlier levels must vanish,
    as they do behind a wavefront that grows by at most one entry per level,
    or the later levels must ask for no more of them.
    """

    def __init__(self, blocks: list[np.ndarray], Kv: np.ndarray, h: float):
        self._blocks = blocks
        self._starts = level_starts(blocks)
        self._kh = h * np.asarray(Kv, dtype=float)
        near = self._kh[:_LEVEL_BLOCK].copy()
        near[0] *= 0.5  # the current level is the trapezoid's end
        self._near = near[::-1].copy()  # the last k + 1 weigh levels j - k..j
        self._j0 = self._j1 = 0
        self._b = 0
        self._far = np.zeros((0, 0))

    def _start_block(self, j0: int, n: int) -> None:
        b = bisect.bisect_right(self._starts, j0) - 1
        j1 = min(j0 + _LEVEL_BLOCK, self._starts[b + 1])
        # toeplitz[k, s] = h Kv[j0 + k - s], levels k of the block, s < j0
        window = sliding_window_view(self._kh[1:j1], j0)
        toeplitz = window[:, ::-1].copy()
        toeplitz[:, 0] *= 0.5  # level 0 is the trapezoid's other end
        self._j0, self._j1, self._b = j0, j1, b
        self._far = None  # the block before's, released first
        self._far = far = np.zeros((j1 - j0, n))
        for s0, s1, block in zip(self._starts, self._starts[1:], self._blocks):
            s1 = min(s1, j0)
            if s1 <= s0:
                break
            m = min(n, block.shape[1])
            weights, levels = toeplitz[:, s0:s1], block[: s1 - s0, :m]
            if s0:
                far[:, :m] += weights @ levels
            else:
                np.matmul(weights, levels, out=far[:, :m])

    def at(self, j: int, n: int) -> np.ndarray:
        if not self._j0 <= j < self._j1:
            self._start_block(j, n)
        j0, s0 = self._j0, self._starts[self._b]
        block = self._blocks[self._b]
        out = self._near[-(j - j0 + 1):] @ block[j0 - s0 : j - s0 + 1, :n]
        m = min(n, self._far.shape[1])
        out[:m] += self._far[j - j0, :m]
        return out


def level_blocks(widths: np.ndarray, first: int = _BLOCK) -> list[np.ndarray]:
    """Zeroed level-major storage of a march whose level k needs widths[k] entries.

    The levels run in blocks of ``_BLOCK``, the first ``first`` long; each
    block is its own array, as wide as its widest level.  Separate arrays,
    not views of one, let a reader release the blocks one by one, and they
    stay under glibc's mmap threshold as it adapts: carved from one
    allocation, the benchmark's reconstruct at N = 1024 peaked at 62.9 MiB
    resident against 60.0, and its verify at 51.7 against 50.5.
    """
    n = len(widths)
    stops = [*range(first, n, _BLOCK), n]
    return [np.zeros((k1 - k0, int(np.max(widths[k0:k1]))))
            for k0, k1 in zip([0, *stops], stops)]


def level_starts(blocks: list[np.ndarray]) -> list[int]:
    """The first level of each of a march's level blocks, then the total.

    Every reader of level blocks walks them through these starts, so the
    level behind each block's row 0 is kept in this one place.
    """
    return [0, *itertools.accumulate(block.shape[0] for block in blocks)]


def first_nonfinite(a: np.ndarray) -> tuple[int, int] | None:
    """(row, column) of the first non-finite entry of a 2-d array in row-major
    order, or None; scanned ``_BLOCK`` rows at a time, so that no mask larger
    than a row block is formed."""
    for i0 in range(0, a.shape[0], _BLOCK):
        finite = np.isfinite(a[i0 : i0 + _BLOCK])
        if not finite.all():
            i, j = divmod(int(np.argmin(finite)), a.shape[1])
            return i0 + i, j
    return None


def check_march(blocks: list[np.ndarray], name: str) -> None:
    """Raise NumericalInstabilityError at the first non-finite node of a march.

    ``blocks`` are the march's level blocks as the history reads them,
    a[j, i] = value at grid node (i, j) over the stacked blocks; level j
    writes level j + 1 alone, so the first non-finite level from 2 on is
    where the march blew up.  The blocks are scanned one by one.
    """
    for s0, block in zip(level_starts(blocks), blocks):
        skip = max(2 - s0, 0)
        bad = first_nonfinite(block[skip:])
        if bad is not None:
            j_bad, i_bad = bad
            raise NumericalInstabilityError(
                f"{name} march blew up at grid node (i={i_bad}, j={s0 + skip + j_bad})"
            )


def sampled_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Second-order first derivative on a uniform grid (one-sided at the ends)."""
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return out


def causal_convolution(a: np.ndarray, b: np.ndarray, h: float) -> np.ndarray:
    """Trapezoid discretization of (a * b)(t_k) = int_0^{t_k} a(t_k - s) b(s) ds.

    output[0] = 0 (degenerate interval).  Exactly symmetric in (a, b).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise UsageError("causal_convolution expects two 1-d arrays of equal length")
    full = np.convolve(a, b)[: a.size]
    return h * (full - 0.5 * (a * b[0] + a[0] * b))


# --------------------------------------------------------------------------
# sample families
# --------------------------------------------------------------------------

def bump_profile(xi: np.ndarray) -> np.ndarray:
    """C^2 bump (1 - xi^2)^3 on [-1, 1], zero outside.

    Value, first and second derivative all vanish at xi = +-1.
    """
    xi = np.asarray(xi, dtype=float)
    core = np.clip(1.0 - xi * xi, 0.0, None)
    return core ** 3


@dataclass(frozen=True)
class _Family:
    """A closed-form sample family: ``sample(t, *params)`` of ``arity``
    parameters.  ``width`` marks a second parameter that must be positive,
    ``admissible`` a family whose samples are an admissible control."""

    arity: int
    sample: Callable[..., np.ndarray]
    width: bool = False
    admissible: bool = False


# the one table of sample families, in the order the unknown-family message lists
_FAMILIES = {
    "zero": _Family(0, lambda t: np.zeros_like(t), admissible=True),
    "constant": _Family(1, lambda t, c: np.full_like(t, c)),
    "gaussian_bump": _Family(
        3, lambda t, center, width, amplitude:
        amplitude * np.exp(-0.5 * ((t - center) / width) ** 2), width=True),
    "sine": _Family(
        2, lambda t, freq, amplitude: amplitude * np.sin(2.0 * np.pi * freq * t)),
    "exp_decay": _Family(2, lambda t, amplitude, rate: amplitude * np.exp(-rate * t)),
    "smooth_bump_control": _Family(
        2, lambda t, center, width: bump_profile((t - center) / width),
        width=True, admissible=True),
}


def _family(name: str, params) -> tuple[_Family, tuple[float, ...]]:
    """The table entry of ``name``, and ``params`` as floats of its arity."""
    family = _FAMILIES.get(name)
    if family is None:
        raise UsageError(f"unknown sample family {name!r}; known: {', '.join(_FAMILIES)}")
    params = tuple(float(p) for p in params)
    if len(params) != family.arity:
        raise UsageError(
            f"family {name!r} takes {family.arity} parameters, got {len(params)}")
    return family, params


def _sample(name: str, family: _Family, params: tuple[float, ...],
            points: np.ndarray) -> np.ndarray:
    """``family``'s samples of ``params`` at ``points``, its width rule first."""
    if family.width and params[1] <= 0:
        raise UsageError(f"{name} needs width > 0")
    with np.errstate(over="ignore", invalid="ignore"):  # the check below names overflows
        out = family.sample(np.asarray(points, dtype=float), *params)
    if not np.all(np.isfinite(out)):
        raise UsageError(f"family {name}{params} produced non-finite samples")
    return out


def sample_family(name: str, params, points: np.ndarray) -> np.ndarray:
    """Samples of the family ``name`` of ``_FAMILIES`` with ``params`` at
    ``points``; the UsageError names a bad family, parameter or sample."""
    return _sample(name, *_family(name, params), points)


# --------------------------------------------------------------------------
# sampled field types
# --------------------------------------------------------------------------

def sample_array(values, shapes, name: str, need: str,
                 items: str = "samples") -> np.ndarray:
    """``values`` as a contiguous, finite, read-only float array of one of ``shapes``.

    The result is a read-only view.  When ``values`` already is a contiguous
    float array, the view aliases it without a copy (the (N+1)^2 kernels
    set the memory peak): the caller's array stays writeable, and what the
    caller writes into it later shows through the view.

    The UsageError reads "<name> <need>, got <shape>" for a wrong shape and
    "<name> has non-finite <items>" for a NaN or an infinity.  The finiteness
    scan runs by row blocks (``first_nonfinite``), with no mask the size of
    an (N+1)^2 kernel.
    """
    v = np.ascontiguousarray(values, dtype=float).view()
    if v.shape not in shapes:
        raise UsageError(f"{name} {need}, got {v.shape}")
    if first_nonfinite(np.atleast_2d(v)) is not None:
        raise UsageError(f"{name} has non-finite {items}")
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class CoefficientField:
    """Potential samples q(x_i) on [0, T] (N + 1 values)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        n = self.grid.N + 1
        object.__setattr__(self, "values", sample_array(
            self.values, [(n,)], "coefficient field", f"needs {n} samples on [0, T]"))


@dataclass(frozen=True)
class MemoryKernel:
    """Relaxation kernel samples K(t_j) on [0, 2T] (2N + 1 values)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        n = self.grid.N2 + 1
        object.__setattr__(self, "values", sample_array(
            self.values, [(n,)], "memory kernel", f"needs {n} samples on [0, 2T]"))


@dataclass(frozen=True)
class ResponseData:
    """Boundary response kernel samples r(t_j) on [0, 2T], r(0) = 0."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        n = self.grid.N2 + 1
        v = sample_array(self.values, [(n,)], "response data",
                         f"needs {n} samples on [0, 2T]")
        if v[0] != 0.0:
            raise UsageError("response data must start at r(0) = 0")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class ControlSignal:
    """Boundary control samples on [0, T] or on [0, 2T].

    ``admissible`` marks signals that vanish with their first derivative at
    t = 0 and are supported inside the open window - the class of controls
    the response convolution and the correlation march are defined for.
    """

    grid: GridSpec
    values: np.ndarray
    admissible: bool = False

    def __post_init__(self):
        n, n2 = self.grid.N + 1, self.grid.N2 + 1
        object.__setattr__(self, "values", sample_array(
            self.values, [(n,), (n2,)], "control signal",
            f"must be sampled on [0, T] or [0, 2T] ({n} or {n2} values)"))

    def padded_full(self) -> np.ndarray:
        """Samples on [0, 2T], zero-extended beyond the original window."""
        if self.values.size == self.grid.N2 + 1:
            return self.values
        out = np.zeros(self.grid.N2 + 1)
        out[: self.values.size] = self.values
        return out


# --------------------------------------------------------------------------
# family -> field constructors
# --------------------------------------------------------------------------

def coefficient_from_family(name: str, params, grid: GridSpec) -> CoefficientField:
    return CoefficientField(grid, sample_family(name, params, grid.times_half()))


def kernel_from_family(name: str, params, grid: GridSpec) -> MemoryKernel:
    return MemoryKernel(grid, sample_family(name, params, grid.times_full()))


def control_from_family(
    name: str, params, grid: GridSpec, *, full_window: bool = False
) -> ControlSignal:
    """Build a control on [0, T] (or [0, 2T] with ``full_window``).

    smooth_bump_control additionally has to fit inside the open window for
    the admissible flag to be set, otherwise construction fails.
    """
    family, params = _family(name, params)
    pts = grid.times_full() if full_window else grid.times_half()
    end = pts[-1]
    if name == "smooth_bump_control":
        center, width = params
        if center - width < 0.0 or center + width > end:
            raise UsageError(
                f"smooth_bump_control({center}, {width}) is not supported inside (0, {end})"
            )
    return ControlSignal(grid, _sample(name, family, params, pts),
                         admissible=family.admissible)
