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

Every product with a triangular factor runs as a flat loop of GEMMs over
blocks of rows or columns (``_spans``) that skips the factor's zero
triangle.  Only the inverse Cholesky factor recurses: one 2x2 block
recursion overwrites the solve's matrix with the inverse of its Cholesky
factor, halving down to dense leaf blocks, so neither the factor nor a
LAPACK copy of the whole matrix is held.  Its products overwrite their
operand block by block in place, so no temporary is larger than one block
of rows or columns.  The condition number reads that inverse by column
blocks, and z is then formed in its storage, so the solve holds one array
beside the kernel.
The two residual checks reduce their last product to its maximum block by
block, so neither holds a full-size residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .connecting import ConnectingKernel
from .errors import IllConditionedError, UsageError
from .model import (
    _BLOCK,
    CoefficientField,
    GridSpec,
    sampled_derivative,
    trapz_weights,
)

__all__ = [
    "GLSolution",
    "solve_gl",
    "gl_residual",
    "operator_identity_residual",
    "recover_potential",
    "reconstruction_errors",
    "ERROR_WINDOW",
]

_COND_LIMIT = 1e12
# the interior window of the reconstruction errors, in fractions of T
ERROR_WINDOW = (0.1, 0.9)


@dataclass(frozen=True)
class GLSolution:
    """Inverse-factor kernel z[i, j] = z(x_i, t_j) on {j >= i}, zero below.

    From ``solve_gl``, z is the array the solve factored in: it held S, then
    the inverse Cholesky factor, then z (``_z_in_place``).  It also carries
    the one-norm condition number of the weighted connecting operator and
    its smallest Cholesky pivot (a Schur complement, 1 for the free kernel)
    with the depth where it occurs, and the pivot profile: the smallest
    pivot over each tenth of the depths.
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


def _spans(n: int) -> list[tuple[int, int]]:
    """The blocks (i0, i1) of a product loop over n rows or columns.

    They are ``_BLOCK`` wide, or n // 8 where that is wider: each block
    re-reads the whole of the other factor, and 32 blocks of 128 stream it
    often enough to cost a tenth of a residual check at N = 4096.
    """
    step = max(_BLOCK, n // 8)
    return [(i, min(i + step, n)) for i in range(0, n, step)]


def _times_triangular(F: np.ndarray, T: np.ndarray, lower: bool) -> np.ndarray:
    """F @ T for a lower (``lower``) or upper triangular T, by column blocks.

    Columns j0..j1-1 of T vanish above row j0 when T is lower and past row
    j1 - 1 when it is upper, so each block reads only those rows of T and
    the matching columns of F.  The product is column-major, so that every
    block is written contiguously.
    """
    out = np.empty((F.shape[0], T.shape[1]), order="F")
    for j0, j1 in _spans(T.shape[1]):
        inner = slice(j0, None) if lower else slice(0, j1)
        np.matmul(F[:, inner], T[inner, j0:j1], out=out[:, j0:j1])
    return out


def _inverse_cholesky(S: np.ndarray) -> np.ndarray:
    """Overwrite a symmetric positive S with L^-1, S = L L^T, in place, and
    return the diagonal of L.

    By 2x2 blocks S = [[A, B^T], [B, D]]: A recurses to L11^-1, then
    L21 = B L11^-T overwrites B, D - L21 L21^T (the Schur complement)
    recurses to L22^-1, and L21 L11^-1, then -L22^-1 L21 L11^-1 overwrite
    B.  Each product runs over blocks of B in the order that reads no block
    it has already overwritten, through one temporary block: columns from
    the right for L21 (column j reads the columns up to j), from the left
    for L21 L11^-1 (column j reads the columns from j on), and rows from the
    bottom for the last one (row i reads the rows up to i).  The Schur update
    runs by column blocks on and below the diagonal, so only the lower
    triangle of D is updated, and only the lower triangle of S is read.
    Leaf blocks of at most ``_BLOCK`` rows factor and invert densely; the
    products skip the zero triangles of the inverses.  A leaf that is not
    positive raises LinAlgError and leaves S partly overwritten.
    """
    n = S.shape[0]
    if n <= _BLOCK:
        L = np.linalg.cholesky(S)
        S[...] = np.tril(np.linalg.inv(L))
        return np.diagonal(L).copy()
    k = n // 2
    A, B, D = S[:k, :k], S[k:, :k], S[k:, k:]
    top = _inverse_cholesky(A)
    for j0, j1 in reversed(_spans(k)):
        B[:, j0:j1] = B[:, :j1] @ A[j0:j1, :j1].T
    for j0, j1 in _spans(n - k):
        # the diagonal block runs as SYRK, on the transposed view of its rows
        D[j0:j1, j0:j1] -= B[j0:j1] @ B[j0:j1].T
        D[j1:, j0:j1] -= B[j1:] @ B[j0:j1].T
    bottom = _inverse_cholesky(D)
    for j0, j1 in _spans(k):
        B[:, j0:j1] = B[:, j0:] @ A[j0:, j0:j1]
    for i0, i1 in reversed(_spans(n - k)):
        np.negative(D[i0:i1, :i1] @ B[:i1], out=B[i0:i1])
    S[:k, k:] = 0.0
    return np.concatenate((top, bottom))


def _gram_abs_column_sums(Li: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """Column sums of |G^T G| for G = Li diag(sq)^-1 and a lower-triangular
    Li, by column blocks, with Li left as it is.

    Only the upper triangle of the symmetric Gram is formed: column j of
    the whole sums column j and row j of it, the diagonal once.  Columns
    j0..j1-1 of the triangle need its rows i < j1 and, as Li[k, j] = 0 for
    k < j, only the rows k >= j0 of Li; one block holds at most (N + 1)
    x ``_BLOCK`` entries.  Each block of the Gram of Li is scaled to that
    of G, entry (i, j) by 1 / (sq_i sq_j), once it is formed.
    """
    n = Li.shape[0]
    cols = np.zeros(n)  # column sums of the triangle, with the diagonal
    rows = np.zeros(n)  # row sums of the triangle, without it
    work = np.empty(_BLOCK * n)  # every block's transpose, in turn
    for j0 in range(0, n, _BLOCK):
        j1 = min(j0 + _BLOCK, n)
        # BLAS runs the ``_BLOCK`` rows of the transpose faster than the
        # ``_BLOCK`` columns of the block
        out = work[: (j1 - j0) * j1].reshape(j1 - j0, j1)
        M = np.matmul(Li[j0:, j0:j1].T, Li[j0:, :j1], out=out).T
        M /= sq[:j1, None]
        M /= sq[None, j0:j1]
        np.abs(M, out=M)
        corner = M[j0:]
        corner[np.tril_indices(j1 - j0, -1)] = 0.0
        cols[j0:j1] += M.sum(axis=0)
        rows[:j1] += M.sum(axis=1)
        rows[j0:j1] -= np.diagonal(corner)
    return cols + rows


def _column_abs_sums(C: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """Column sums of |I + diag(sq) C diag(sq)|, by column blocks of C."""
    n = C.shape[0]
    sums = np.empty(n)
    work = np.empty(n * _BLOCK)  # every block, in turn
    for j0 in range(0, n, _BLOCK):
        j1 = min(j0 + _BLOCK, n)
        A = np.multiply(C[:, j0:j1], sq[:, None], out=work[: n * (j1 - j0)].reshape(n, -1))
        A *= sq[None, j0:j1]
        A[j0:j1][np.diag_indices(j1 - j0)] += 1.0
        sums[j0:j1] = np.abs(A, out=A).sum(axis=0)
    return sums


def _z_in_place(Li: np.ndarray, C: np.ndarray, d: np.ndarray, h: float) -> np.ndarray:
    """Overwrite the inverse factor Li with z (``solve_gl``) and return it.

    Column j of z is row j of Li scaled by f_j = l_j (1/d_j - alpha y_j),
    then divided row-wise by d, so Li is transposed in place by blocks of
    ``_BLOCK`` rows, each scaled as it is moved: the diagonal block, then
    the column block below it into the row block right of it, which is
    zeroed.  Each element takes the same two scalings, in the same order, as
    (Li^T * f) / d.  The diagonal holds the columns' last nodes, which take
    the half weight.
    """
    n = Li.shape[0]
    li = np.diagonal(Li).copy()  # a view would change with Li
    # y_j = e_j^T S_j^-1 b_j = l_j Li[j, :] b_j, then with the rank-one term;
    # the equal l_j^2 / d_j - 1 cancels when a pivot is near 1
    alpha = 1.0 / h
    y = -li * np.einsum("jk,kj->j", Li, C) / (1.0 + alpha * li * li)
    f = li * (1.0 / d - alpha * y)
    for i0 in range(0, n, _BLOCK):
        i1 = min(i0 + _BLOCK, n)
        corner = Li[i0:i1, i0:i1]
        corner[...] = corner.T * f[i0:i1]
        corner /= d[i0:i1, None]
        right = Li[i0:i1, i1:]
        np.multiply(Li[i1:, i0:i1].T, f[i1:], out=right)
        right /= d[i0:i1, None]
        Li[i1:, i0:i1] = 0.0
    Li[np.diag_indices(n)] = 2.0 * y / d  # the last node's weight is h/2
    Li[0, 0] = -C[0, 0]
    return Li


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
    """Solve every column equation from one in-place inverse Cholesky factor.

    The Nystrom collocation matrix of column j, I + C_j W_j with the
    trapezoid weights W_j of [0, t_j], becomes symmetric after scaling by
    W_j^-1: a leading block of S = C + diag(1/d) plus the rank-one term
    alpha e_j e_j^T, alpha = 1/h, for the half weight at the column's last
    node.  With S = L L^T and Li = L^-1, leading blocks of Li invert leading
    blocks of L, so S_j^-1 e_j = l_j Li[j, :j+1]^T, l_j = Li[j, j].  As
    b_j = -C[:j+1, j] is e_j / d_j minus column j of S_j, S_j^-1 b_j =
    (l_j / d_j) Li[j, :j+1]^T - e_j; with the rank-one term (Sherman-Morrison)
    column j of z is row j of Li, scaled, plus a diagonal term.  Li
    overwrites S in place: one 2x2 block recursion, the one recursion here,
    factors and inverts at once, with flat block loops for its off-diagonal
    products that skip zero triangles and overwrite their operand in place,
    and dense Cholesky factors and inverses only on leaf blocks, so neither
    L nor a half-size temporary is ever held.  The exact one-norm
    condition number takes the column sums of |G^T G| = |A^-1|,
    G = Li D^-1/2, over column blocks of the Gram's upper triangle, each
    formed from Li and then scaled, and the column sums of |A| over column
    blocks of C, each block in one work array, so neither a Gram, G nor A
    is held whole.  Last, z is formed in Li's storage by a blocked in-place
    transpose (``_z_in_place``), so the solve holds C and that one array.

    Raises IllConditionedError when the weighted connecting operator
    A = I + D^1/2 C D^1/2 is not positive, naming the depth of its first
    non-positive leading block: either the data come from no (q, K), or the
    grid under-resolves them (clean data of a potential 100 times the
    catalogue's fail this way at N = 64 and solve at N = 96), so the message
    suggests twice the N; or when its one-norm condition number exceeds
    1e12.
    """
    grid = c.grid
    N, h = grid.N, grid.h
    C = c.values
    d = _node_weights(N, h)
    # S, overwritten with Li in place
    Li = C.copy()
    Li[np.diag_indices(N + 1)] += 1.0 / d
    try:
        diagonal = _inverse_cholesky(Li)
    except np.linalg.LinAlgError:
        Li[...] = C  # S again, to search for its failing block
        Li[np.diag_indices(N + 1)] += 1.0 / d
        k = _first_non_positive_block(Li)
        raise IllConditionedError(
            f"connecting operator I + D^1/2 C D^1/2 is not positive: its leading "
            f"block first fails at depth s = {k * h:.6g}; node {k} of N = {N}. Either "
            f"the data come from no (q, K), or a grid this coarse under-resolves "
            f"them: try a finer grid, N = {2 * N}"
        ) from None
    # A = D^1/2 S D^1/2 factors as (D^1/2 L)(D^1/2 L)^T; its pivots are the
    # squared diagonal of that factor
    pivots = d * diagonal ** 2

    # exact one-norm condition of A, with A^-1 = G^T G for G = Li D^-1/2
    sq = np.sqrt(d)
    inv_norm = _gram_abs_column_sums(Li, sq).max()
    cond = float(_column_abs_sums(C, sq).max() * inv_norm)
    if cond > _COND_LIMIT:
        raise IllConditionedError(
            f"connecting operator condition {cond:.2e} exceeds {_COND_LIMIT:.0e}; "
            f"the data do not determine the kernel"
        )
    # first depth where the smallest pivot is reached (ties to rounding)
    k = int(np.argmax(pivots <= pivots.min() * (1.0 + 1e-12)))
    # the smallest pivot of each tenth of the depths (N = 8 has only 9 depths)
    deciles = tuple(float(p.min()) for p in np.array_split(pivots, min(10, N + 1)))
    return GLSolution(grid=grid, z=_z_in_place(Li, C, d, h), cond_estimate=cond,
                      min_pivot=float(pivots[k]), min_pivot_depth=k * h,
                      pivot_deciles=deciles)


def gl_residual(c: ConnectingKernel, gl: GLSolution) -> float:
    """Sup-norm residual of the column equations for a candidate z.

    Column j of C @ zw is the quadrature of int_0^s c(t, tau) z(tau, s) over
    its own rows t <= s: zw holds the upper triangle of z times the column
    trapezoid weights (half weight at each column's last node, none for the
    one-node column 0).  The residual is reduced to its maximum by column
    blocks, each formed over its rows t <= s only, as zw is upper
    triangular; each block of zw is weighted as it is read, so neither zw
    nor the residual is held whole.
    """
    if c.grid != gl.grid:
        raise UsageError("connecting kernel and z-kernel live on different grids")
    N, h = gl.grid.N, gl.grid.h
    d = _node_weights(N, h)
    C = c.values
    worst = 0.0
    for j0, j1 in _spans(N + 1):
        # columns j0..j1-1 of zw; row t of column j0 + k is in the upper
        # triangle when t <= j0 + k
        zw = np.triu(gl.z[:j1, j0:j1], -j0)
        zw *= d[:j1, None]
        zw[j0:][np.diag_indices(j1 - j0)] *= 0.5
        if j0 == 0:
            zw[0, 0] = 0.0
        res = C[:j1, :j1] @ zw
        del zw
        res += gl.z[:j1, j0:j1]
        res += C[:j1, j0:j1]
        np.abs(res, out=res)
        worst = max(worst, float(np.triu(res, -j0).max()))
    return worst


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

    # full x upper, skipping the zero triangle of the z-factor
    right = _times_triangular(plus_identity(c.values * D), plus_identity(z_half() * D),
                              lower=False)
    # lower x right, reduced to its maximum by row blocks: the product is
    # never held whole
    left = plus_identity(z_half().T * D)
    worst = 0.0
    for i0, i1 in _spans(N):
        E = left[i0:i1, :i1] @ right[:i1, :N]
        E[:, i0:i1][np.diag_indices(i1 - i0)] -= 1.0
        worst = max(worst, float(np.abs(E, out=E).max()))
    return worst


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


def reconstruction_errors(q_true: np.ndarray, q_hat: np.ndarray, grid: GridSpec) -> dict:
    """Error summary of a recovered potential against the truth.

    ``interior_rel`` is the relative L2 error over ``ERROR_WINDOW``; near
    the fold point x = T the data constrain q only weakly, so the headline
    metric excludes the edges.  Falls back to the absolute L2 when the truth
    is (numerically) zero.
    """
    qt = np.asarray(q_true, dtype=float)
    qh = np.asarray(q_hat, dtype=float)
    x = grid.times_half()
    lo, hi = ERROR_WINDOW[0] * grid.T, ERROR_WINDOW[1] * grid.T
    m = (x >= lo - 1e-12) & (x <= hi + 1e-12)
    diff = np.sqrt(np.mean((qh[m] - qt[m]) ** 2))
    base = np.sqrt(np.mean(qt[m] ** 2))
    return {
        "max_abs": float(np.max(np.abs(qh - qt))),
        "interior_rel": float(diff / base) if base > 1e-14 else float(diff),
        "interior_linf": float(np.max(np.abs(qh[m] - qt[m]))),
    }
