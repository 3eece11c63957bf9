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
I + W directly, with no connecting kernel involved (``tests/oracles.py``).
``operator_identity_residual`` checks the factorization itself in weighted
matrix form; on a z that solves the column equations it reads only the
weighted diagonal of z, squared, so it bounds the size of z(x, x).

Every product with a triangular factor runs as a flat loop of GEMMs over
blocks of rows or columns (``_spans``) that skips the factor's zero
triangle.  Only the inverse Cholesky factor recurses: one 2x2 block
recursion, on the transposed view of the solve's matrix, overwrites it with
L^-T in the upper triangle, where z lives, halving down to dense leaf
blocks; a leaf that is not positive names the first node that fails.  Its
products overwrite their operand block by block, so no temporary is larger
than one block and no LAPACK copy of the whole matrix is held.  The
condition number is estimated from a few products with that inverse, and z
is then formed in its storage, so the solve holds one array beside C.
The two residual checks form their upper triangles by column blocks and
reduce each block to its maximum, so neither holds a full-size product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .connecting import ConnectingKernel
from .errors import IllConditionedError
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
    L^-T in its upper triangle, then z (``_z_in_place``).  It also carries
    the estimated one-norm condition number of the weighted connecting
    operator (``solve_gl``) and its smallest Cholesky pivot (a Schur
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


def _spans(n: int) -> list[tuple[int, int]]:
    """The blocks (i0, i1) of a product loop over n rows or columns.

    They are ``_BLOCK`` wide, or n // 8 where that is wider: each block
    re-reads the whole of the other factor, and 32 blocks of 128 stream it
    often enough to cost a tenth of a residual check at N = 4096.
    """
    step = max(_BLOCK, n // 8)
    return [(i, min(i + step, n)) for i in range(0, n, step)]


class _NotPositive(np.linalg.LinAlgError):
    """A leading block is not positive; ``args[0]`` is the node that closes
    the first one that fails."""


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
    triangle of D is updated, and only the lower triangle of S is read.  The
    temporary blocks are column-major, as ``solve_gl`` passes a transposed
    view, so each is written back in contiguous columns.
    Leaf blocks of at most ``_BLOCK`` rows factor and invert densely; the
    products skip the zero triangles of the inverses.  A leaf that is not
    positive bisects its own leading blocks and raises ``_NotPositive`` with
    the node that closes the first that fails; each level adds D's offset to
    it (A factored, so S's block fails there too).  S is left partly
    overwritten.
    """
    n = S.shape[0]
    if n <= _BLOCK:
        try:
            L = np.linalg.cholesky(S)
        except np.linalg.LinAlgError:
            lo, hi = 0, n  # the block of size lo factors, of size hi fails
            while hi - lo > 1:
                mid = (lo + hi) // 2
                try:
                    np.linalg.cholesky(S[:mid, :mid])
                    lo = mid
                except np.linalg.LinAlgError:
                    hi = mid
            raise _NotPositive(hi - 1) from None
        S[...] = np.tril(np.linalg.inv(L))
        return np.diagonal(L).copy()
    k = n // 2
    A, B, D = S[:k, :k], S[k:, :k], S[k:, k:]
    top = _inverse_cholesky(A)
    for j0, j1 in reversed(_spans(k)):
        B[:, j0:j1] = np.matmul(B[:, :j1], A[j0:j1, :j1].T, order="F")
    for j0, j1 in _spans(n - k):
        # the diagonal block runs as SYRK, on the transposed view of its rows
        D[j0:j1, j0:j1] -= np.matmul(B[j0:j1], B[j0:j1].T, order="F")
        D[j1:, j0:j1] -= np.matmul(B[j1:], B[j0:j1].T, order="F")
    try:
        bottom = _inverse_cholesky(D)
    except _NotPositive as exc:
        raise _NotPositive(k + exc.args[0]) from None
    for j0, j1 in _spans(k):
        B[:, j0:j1] = np.matmul(B[:, j0:], A[j0:, j0:j1], order="F")
    for i0, i1 in reversed(_spans(n - k)):
        np.negative(np.matmul(D[i0:i1, :i1], B[:i1], order="F"), out=B[i0:i1])
    S[:k, k:] = 0.0
    return np.concatenate((top, bottom))


def _inverse_norm_estimate(Li: np.ndarray, sq: np.ndarray) -> float:
    """Estimate ||A^-1||_1, A^-1 = G^T G for G = Li diag(sq)^-1, as LAPACK's
    dpocon does: Hager's iteration in dlacn2's form (Higham 1988), at most
    five steps, with the alternating vector (-1)^i (1 + i/(n - 1)) as a floor.

    Each candidate is ||A^-1 x||_1 for some ||x||_1 <= 1, so the estimate is
    a lower bound.  Li's upper triangle is zero, so the whole products are
    exact, and A^-1 is symmetric, so they also serve for its transpose.
    """
    n = Li.shape[0]

    def apply(x):
        return (Li @ (x / sq)) @ Li / sq

    y = apply(np.full(n, 1.0 / n))
    est, up = np.abs(y).sum(), y >= 0.0
    j = int(np.argmax(np.abs(apply(np.where(up, 1.0, -1.0)))))
    for _ in range(4):  # steps 2 to 5
        y = apply(np.eye(1, n, j)[0])
        # this step's estimate stands even where it fell, as in dlacn2
        est_old, est = est, np.abs(y).sum()
        if np.array_equal(y >= 0.0, up) or est <= est_old:
            break
        up = y >= 0.0
        z = apply(np.where(up, 1.0, -1.0))
        j_last, j = j, int(np.argmax(np.abs(z)))
        if z[j_last] == abs(z[j]):
            break
    alternating = (1.0 + np.arange(n) / (n - 1)) * (-1.0) ** np.arange(n)
    return float(max(est, 2.0 * np.abs(apply(alternating)).sum() / (3 * n)))


def _column_abs_sums(C: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """Column sums of |I + diag(sq) C diag(sq)|, sq > 0: sq times the
    sq-weighted sums of the rows of |C| off the diagonal, by blocks of
    ``_BLOCK`` rows, plus the diagonal's |1 + sq_j^2 C_jj|."""
    n = C.shape[0]
    sums = np.zeros(n)
    for i0 in range(0, n, _BLOCK):
        i1 = min(i0 + _BLOCK, n)
        A = np.abs(C[i0:i1])
        A[:, i0:i1][np.diag_indices(i1 - i0)] = 0.0
        sums += sq[i0:i1] @ A
        del A  # before the next block's |C| is allocated
    sums *= sq
    sums += np.abs(np.diagonal(C) * sq * sq + 1.0)
    return sums


def _z_in_place(Li: np.ndarray, C: np.ndarray, d: np.ndarray, h: float) -> np.ndarray:
    """Overwrite the inverse factor Li, the transposed view of the solve's
    array, with z (``solve_gl``) and return that array.

    Column j of z is row j of Li scaled by f_j = l_j (1/d_j - alpha y_j),
    then divided row-wise by d, so the array's columns are scaled by f and
    its rows divided by d in place.  The diagonal holds the columns' last
    nodes, which take the half weight.
    """
    li = np.diagonal(Li).copy()  # a view would change with Li
    # y_j = e_j^T S_j^-1 b_j = l_j Li[j, :] b_j, then with the rank-one term;
    # the equal l_j^2 / d_j - 1 cancels when a pivot is near 1
    alpha = 1.0 / h
    y = -li * np.einsum("jk,kj->j", Li, C) / (1.0 + alpha * li * li)
    z = Li.T
    z *= li * (1.0 / d - alpha * y)
    z /= d[:, None]
    np.fill_diagonal(z, 2.0 * y / d)  # the last node's weight is h/2
    z[0, 0] = -C[0, 0]
    return z


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
    column j of z is row j of Li, scaled, plus a diagonal term.  The one
    recursion here factors and inverts at once on S's transposed view, so
    Li overwrites S as L^-T in the upper triangle, where z lives; its
    off-diagonal products are flat block loops that skip zero triangles and
    overwrite their operand in place, and dense Cholesky factors and
    inverses run only on leaf blocks, so neither L nor a half-size
    temporary is ever held.  The condition number is dpocon's: ||A||_1 from
    the column sums of |A| (``_column_abs_sums``), times a lower-bound
    estimate of ||A^-1||_1 from a few products with Li
    (``_inverse_norm_estimate``).  Last, z is Li^T scaled in place
    (``_z_in_place``), so the solve holds C and that one array.

    Raises IllConditionedError when the weighted connecting operator
    A = I + D^1/2 C D^1/2 is not positive, naming the depth of its first
    non-positive leading block, as the failing leaf names it: either the
    data come from no (q, K), or the grid under-resolves them (clean data
    of a potential 100 times the catalogue's fail this way at N = 64 and
    solve at N = 96), so the message suggests twice the N; or when its
    estimated one-norm condition number exceeds 1e12.
    """
    grid = c.grid
    N, h = grid.N, grid.h
    C = c.values
    d = _node_weights(N, h)
    # S, overwritten in place with Li through its transposed view
    Li = C.copy().T
    Li[np.diag_indices(N + 1)] += 1.0 / d
    try:
        diagonal = _inverse_cholesky(Li)
    except _NotPositive as exc:
        k = exc.args[0]
        raise IllConditionedError(
            f"connecting operator I + D^1/2 C D^1/2 is not positive: its leading "
            f"block first fails at depth s = {k * h:.6g}; node {k} of N = {N}. Either "
            f"the data come from no (q, K), or a grid this coarse under-resolves "
            f"them: try a finer grid, N = {2 * N}"
        ) from None
    # A = D^1/2 S D^1/2 factors as (D^1/2 L)(D^1/2 L)^T; its pivots are the
    # squared diagonal of that factor
    pivots = d * diagonal ** 2

    # dpocon's one-norm condition of A: ||A||_1 exact, ||A^-1||_1 estimated
    sq = np.sqrt(d)
    cond = float(_column_abs_sums(C, sq).max() * _inverse_norm_estimate(Li, sq))
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
    grid = GridSpec.of(c, gl)
    N, h = grid.N, grid.h
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
    diagonal of z inside the products (Z_h) restores second-order quadrature.
    Measured over the rows/columns 0..N-1 (the last node of the data-driven
    kernel is extrapolated, not probed).

    Only the upper triangle of the residual E is formed: with G = D^1/2,
    E = G^-1 M G with M symmetric, as c is, so E[j, i] = E[i, j] D_i / D_j
    with D_i <= D_j for i <= j < N.  By column blocks j0..j1-1, each over
    its rows < j1, where X = I + Z_h D is nonzero: Y = X + C D X, and
    E = Y + Z_h* D Y - I, with Z_h* read as z[:j1, :j1].T less its halved
    diagonal, as z's strict lower triangle is zero (``GLSolution``).  No
    temporary is larger than (N+1) x one block.

    On a z that solves the column equations the residual is
    max_j (D_j z_jj / 2)^2 to rounding: for columns j >= 1, E[t, j] =
    D_j [(I + Z_h* D) R][t, j] - delta_tj (D_j z_jj / 2)^2, where R is the
    collocation residual that ``gl_residual`` bounds.
    """
    grid = GridSpec.of(c, gl)
    N, h = grid.N, grid.h
    D = trapz_weights(N + 1, h)
    z, C = gl.z, c.values
    half = 0.5 * np.diagonal(z)
    worst = 0.0
    for j0, j1 in _spans(N):
        diag = np.diag_indices(j1 - j0)
        w = D[:j1, None]
        # columns j0..j1-1 of X, zero below row j1 - 1
        X = z[:j1, j0:j1] * D[j0:j1]
        X[j0:][diag] = half[j0:j1] * D[j0:j1] + 1.0
        Y = X + C[:j1, :j1] @ (w * X)
        del X
        E = z[:j1, :j1].T @ (w * Y)
        Y *= 1.0 - half[:j1, None] * w  # Z_h* D Y is z.T D Y less half D Y
        E += Y
        del Y
        E[j0:][diag] -= 1.0
        # row t of column j0 + k is in the upper triangle when t <= j0 + k
        worst = max(worst, float(np.triu(np.abs(E, out=E), -j0).max()))
        del E
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
