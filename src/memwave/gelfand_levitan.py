"""Inverse step: from the connecting kernel to the potential.

The control map is I + W with an upper-triangular kernel w(x, t), x <= t;
its inverse is I + Z with z of the same shape.  Writing the connecting form
as (I + C)(f, g)-bilinear with the reduced kernel c(t, s), the factorization
C_full = (I + W)*(I + W) gives

    (I + C_int)(I + Z) = I + W*,

whose strictly-upper part is a family of linear integral equations: for each
fixed s, the column z(., s) on [0, s] solves

    z(t, s) + int_0^s c(t, tau) z(tau, s) dtau = -c(t, s),   0 <= t <= s,

where the t = s row is the continuous limit (this is why the assembled
kernel carries the continuity value on its diagonal).  The potential then
follows from the diagonal alone: q(x) = 2 (d/dx) z(x, x).

The test suite's oracle for everything here inverts the Volterra factor
I + W directly, with no connecting kernel involved (``tests/oracles.py``);
``operator_identity_residual`` checks the factorization itself in weighted
matrix form, which is the strongest data-consistency test the pipeline has.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .connecting import ConnectingKernel
from .errors import IllConditionedError, UsageError
from .model import CoefficientField, GridSpec, sampled_derivative, trapz_weights

__all__ = [
    "GLSolution",
    "solve_gl",
    "gl_residual",
    "operator_identity_residual",
    "recover_potential",
    "reconstruction_errors",
]

_COND_LIMIT = 1e12
# diagonal blocks of at most this size are inverted and multiplied densely
_LEAF = 128


@dataclass(frozen=True)
class GLSolution:
    """Inverse-factor kernel z[i, j] = z(x_i, t_j) on {j >= i}, zero below.

    From ``solve_gl`` it also carries the one-norm condition number of the
    weighted connecting operator and its smallest Cholesky pivot (a Schur
    complement, 1 for the free kernel) with the depth where it occurs, and
    the pivot profile: the smallest pivot over each tenth of the depths.
    """

    grid: GridSpec
    z: np.ndarray = field(repr=False)
    cond_estimate: float = 0.0
    min_pivot: float = float("nan")
    min_pivot_depth: float = float("nan")
    pivot_deciles: tuple[float, ...] = ()

    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.z).copy()


def _node_weights(N: int, h: float) -> np.ndarray:
    """d = (h/2, h, ..., h): the trapezoid weights of every column's interior
    nodes; each column's last node takes h/2 instead (a rank-one term)."""
    d = np.full(N + 1, h)
    d[0] = 0.5 * h
    return d


def _halves(n: int, split: bool) -> tuple[slice, ...]:
    k = n // 2
    return (slice(0, k), slice(k, n)) if split else (slice(0, n),)


def _product(a: np.ndarray, b: np.ndarray, sa: str | None = None,
             sb: str | None = None, upper: bool = False,
             out: np.ndarray | None = None) -> np.ndarray:
    """a @ b by 2x2 blocks that skip the zero triangle of a triangular factor.

    ``sa`` / ``sb`` mark a square factor as lower ("L") or upper ("U")
    triangular, None as full.  With ``upper`` only the upper triangle of the
    (square) product is formed; the rest is zero.  Every dimension that
    bounds a triangle is split at its middle, so a block of a factor is
    either a diagonal block (keeps the triangle), zero (skipped) or full;
    blocks whose triangles are at most ``_LEAF`` wide are multiplied densely.
    ``out`` receives the product when given; the recursion uses it to write
    the first term of each block in place, without a temporary.
    """
    n_r, n_p = a.shape
    n_c = b.shape[1]
    width = n_p if sa or sb else n_r
    if (sa is None and sb is None and not upper) or width <= _LEAF:
        out = np.matmul(a, b, out=out)
        if upper:
            out[np.tril_indices(n_r, -1)] = 0.0
        return out
    if sa is None and not upper:
        # BLAS runs the row blocks of (a b)^T = b^T a^T faster than the
        # column blocks of a b
        flip = "U" if sb == "L" else "L"
        return _product(b.T, a.T, flip, out=None if out is None else out.T).T
    rows = _halves(n_r, bool(sa) or upper)
    inner = _halves(n_p, bool(sa or sb))
    cols = _halves(n_c, bool(sb) or upper)
    if out is None:
        out = np.empty((n_r, n_c))
    for i, ri in enumerate(rows):
        for j, cj in enumerate(cols):
            block = out[ri, cj]
            # the inner blocks l whose factor blocks are not both zero
            terms = [l for l in range(len(inner)) if not (
                (sa == "L" and l > i) or (sa == "U" and l < i)
                or (sb == "L" and l < j) or (sb == "U" and l > j)
                or (upper and i > j))]
            if not terms:
                block[...] = 0.0
            for t, l in enumerate(terms):
                part = _product(a[ri, inner[l]], b[inner[l], cj],
                                sa if i == l else None, sb if l == j else None,
                                upper and i == j, None if t else block)
                if t:
                    block += part
    return out


def _tril_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix by 2x2 blocks:
    inv([[A, 0], [B, D]]) = [[A^-1, 0], [-D^-1 B A^-1, D^-1]], with a dense
    inverse only on diagonal blocks of at most ``_LEAF``."""
    n = L.shape[0]
    if n <= _LEAF:
        return np.tril(np.linalg.inv(L))
    k = n // 2
    out = np.empty_like(L)
    out[:k, :k] = _tril_inverse(L[:k, :k])
    out[k:, k:] = _tril_inverse(L[k:, k:])
    out[:k, k:] = 0.0
    B = out[k:, :k]
    _product(out[k:, k:], _product(L[k:, :k], out[:k, :k], sb="L"), sa="L", out=B)
    np.negative(B, out=B)
    return out


def _first_non_positive_block(S: np.ndarray) -> int:
    """Index of the node that closes the first non-positive leading block of
    S (bisection over leading-block Cholesky factorizations)."""
    lo, hi = 0, S.shape[0]  # block of size lo factors, block of size hi fails
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            np.linalg.cholesky(S[:mid, :mid])
            lo = mid
        except np.linalg.LinAlgError:
            hi = mid
    return hi - 1


def solve_gl(c: ConnectingKernel) -> GLSolution:
    """Solve every column equation from one Cholesky factorization.

    The Nystrom collocation matrix of column j, I + C_j W_j with the
    trapezoid weights W_j of [0, t_j], becomes symmetric after scaling by
    W_j^-1: a leading block of S = C + diag(1/d) plus the rank-one term
    alpha e_j e_j^T, alpha = 1/h, for the half weight at the column's last
    node.  With S = L L^T and Li = L^-1, leading blocks of Li invert leading
    blocks of L, so S_j^-1 e_j = l_j Li[j, :j+1]^T, l_j = Li[j, j].  As
    b_j = -C[:j+1, j] is e_j / d_j minus column j of S_j, S_j^-1 b_j =
    (l_j / d_j) Li[j, :j+1]^T - e_j; with the rank-one term (Sherman-Morrison)
    column j of z is row j of Li, scaled, plus a diagonal term.  The blocked
    inverse Li and the condition number's Gram matrix skip zero triangles.

    Raises IllConditionedError when the weighted connecting operator
    A = I + D^1/2 C D^1/2 is not positive (the data then come from no
    (q, K)), naming the depth of its first non-positive leading block, or
    when its one-norm condition number exceeds 1e12.
    """
    grid = c.grid
    N, h = grid.N, grid.h
    C = c.values
    d = _node_weights(N, h)
    S = C + np.diag(1.0 / d)
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        s = _first_non_positive_block(S) * h
        raise IllConditionedError(
            f"connecting operator I + D^1/2 C D^1/2 is not positive: its leading "
            f"block first fails at s = {s:.6g}; the data come from no (q, K)"
        ) from None
    del S
    # A = D^1/2 S D^1/2 factors as (D^1/2 L)(D^1/2 L)^T; its pivots are the
    # squared diagonal of that factor
    pivots = d * np.diagonal(L) ** 2
    Li = _tril_inverse(L)
    del L
    li = np.diagonal(Li).copy()  # a view would keep Li alive past its del

    # y_j = e_j^T S_j^-1 b_j = l_j Li[j, :] b_j, then with the rank-one term;
    # the equal l_j^2 / d_j - 1 cancels when a pivot is near 1
    alpha = 1.0 / h
    y = -li * np.einsum("jk,kj->j", Li, C) / (1.0 + alpha * li * li)
    z = Li.T * (li * (1.0 / d - alpha * y))
    z /= d[:, None]
    z[np.diag_indices(N + 1)] = 2.0 * y / d  # the last node's weight is h/2
    z[0, 0] = -C[0, 0]

    # exact one-norm condition of A, with A^-1 = G^T G for G = Li D^-1/2
    sq = np.sqrt(d)
    G = Li
    G /= sq[None, :]
    # only the upper triangle of the symmetric G^T G is formed: column j
    # of the whole sums column j and row j of it, the diagonal once
    M = _product(G.T, G, sa="U", sb="L", upper=True)
    np.abs(M, out=M)
    inv_norm = (M.sum(axis=0) + M.sum(axis=1) - np.diagonal(M)).max()
    del G, Li, M
    A = C * sq[:, None]
    A *= sq[None, :]
    A[np.diag_indices(N + 1)] += 1.0
    cond = float(np.abs(A).sum(axis=0).max() * inv_norm)
    if cond > _COND_LIMIT:
        raise IllConditionedError(
            f"connecting operator condition {cond:.2e} exceeds {_COND_LIMIT:.0e}; "
            f"the data do not determine the kernel"
        )
    # first depth where the smallest pivot is reached (ties to rounding)
    k = int(np.argmax(pivots <= pivots.min() * (1.0 + 1e-12)))
    # the smallest pivot of each tenth of the depths (N = 8 has only 9 depths)
    deciles = tuple(float(p.min()) for p in np.array_split(pivots, min(10, N + 1)))
    return GLSolution(grid=grid, z=z, cond_estimate=cond,
                      min_pivot=float(pivots[k]), min_pivot_depth=k * h,
                      pivot_deciles=deciles)


def gl_residual(c: ConnectingKernel, gl: GLSolution) -> float:
    """Sup-norm residual of the column equations for a candidate z.

    Column j of C @ zw is the quadrature of int_0^s c(t, tau) z(tau, s) over
    its own rows t <= s: zw holds the upper triangle of z times the column
    trapezoid weights (half weight at each column's last node, none for the
    one-node column 0).
    """
    if c.grid != gl.grid:
        raise UsageError("connecting kernel and z-kernel live on different grids")
    N, h = gl.grid.N, gl.grid.h
    didx = np.arange(N + 1)
    zw = np.triu(gl.z)
    zw *= _node_weights(N, h)[:, None]
    zw[didx, didx] *= 0.5
    zw[0, 0] = 0.0
    # only the upper triangle of C @ zw is read, and zw is upper triangular
    res = _product(c.values, zw, sb="U", upper=True)
    del zw
    res += np.triu(gl.z)
    res += c.values
    np.abs(res, out=res)
    return float(np.triu(res).max())


def operator_identity_residual(c: ConnectingKernel, gl: GLSolution) -> float:
    """Residual of (I + Z*D)(I + CD)(I + ZD) = I in weighted matrix form.

    D holds the trapezoid weights of [0, T]; the product telescopes to the
    identity exactly when c is the kernel of (I + W)*(I + W) and z inverts
    I + W.  The z-factor is triangular, so the global weight vector would
    give its support-edge node (the diagonal) a full interior weight h where
    the correct rule for the truncated interval wants h/2; halving the
    diagonal of z inside the products restores second-order quadrature.
    Measured over the rows/columns 0..N-1 (the last node of the data-driven
    kernel is extrapolated, not probed).
    """
    if c.grid != gl.grid:
        raise UsageError("connecting kernel and z-kernel live on different grids")
    N, h = gl.grid.N, gl.grid.h
    D = trapz_weights(N + 1, h)
    didx = np.arange(N + 1)

    def plus_identity(m):
        m[didx, didx] += 1.0
        return m

    def z_half():
        # triu(z) with its diagonal halved, built afresh for each factor so
        # that it is not kept alive across the products
        zq = np.triu(gl.z)
        zq[didx, didx] *= 0.5
        return zq

    # lower x (full x upper), skipping the zero triangles of the z-factors
    right = _product(plus_identity(c.values * D), plus_identity(z_half() * D), sb="U")
    E = _product(plus_identity(z_half().T * D), right, sa="L")
    del right
    E[didx, didx] -= 1.0
    E = E[:N, :N]
    np.abs(E, out=E)
    return float(E.max())


def recover_potential(gl: GLSolution) -> CoefficientField:
    """Potential from the inverse-factor diagonal: q(x) = 2 (d/dx) z(x, x).

    The x = 0 sample of the diagonal is pinned to its exact value while the
    rest may carry a small uniform offset from the data route, so the
    endpoint derivative uses samples h, 2h, 3h only: a one-sided stencil
    whose coefficients sum to zero cancels any constant offset and keeps the
    second-order truncation error.
    """
    diag = gl.diagonal()
    h = gl.grid.h
    values = 2.0 * sampled_derivative(diag, h)
    values[0] = (-5.0 * diag[1] + 8.0 * diag[2] - 3.0 * diag[3]) / h
    return CoefficientField(grid=gl.grid, values=values)


def reconstruction_errors(q_true: np.ndarray, q_hat: np.ndarray, grid: GridSpec,
                          window: tuple[float, float] = (0.1, 0.9)) -> dict:
    """Error summary of a recovered potential against the truth.

    ``interior_rel`` is the relative L2 error over the window (fractions of
    T); near the fold point x = T the data constrain q only weakly, so the
    headline metric excludes the edges.  Falls back to the absolute L2 when
    the truth is (numerically) zero.
    """
    qt = np.asarray(q_true, dtype=float)
    qh = np.asarray(q_hat, dtype=float)
    x = grid.times_half()
    lo, hi = window[0] * grid.T, window[1] * grid.T
    m = (x >= lo - 1e-12) & (x <= hi + 1e-12)
    diff = np.sqrt(np.mean((qh[m] - qt[m]) ** 2))
    base = np.sqrt(np.mean(qt[m] ** 2))
    return {
        "max_abs": float(np.max(np.abs(qh - qt))),
        "interior_rel": float(diff / base) if base > 1e-14 else float(diff),
        "interior_linf": float(np.max(np.abs(qh[m] - qt[m]))),
    }
