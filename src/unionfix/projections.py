"""Closed-form Euclidean projections onto the convex set catalog, and the
library's arithmetic kernels.

Shared by the set pieces (projectors) and the indicator pieces of
min-convex functions.

Each projection has a batched sibling ``*_many`` that projects the rows of
an (N, d) array, row k bit for bit the scalar projection of row k.  Every
BLAS-routed product of the library is one of the kernels below, each a
point form and a block form whose rows are bit for bit the point form:

=====================  ==========================  ============================
kernel                 point form                  block form
=====================  ==========================  ============================
:func:`_sumsq`         ``np.vdot(x, x)``           ``np.vecdot(D, D)``
:func:`_dot`           ``np.vdot(x, y)``           ``np.vecdot(X, Y)``
:func:`_matvec`        ``M.dot(x)``                ``np.matvec(M, X)``
:func:`_vecmat`        ``x @ M``                   ``np.vecmat(X, M)``
:func:`_solve`         ``np.linalg.solve(M, r)``   ``solve(M, R[..., None])[..., 0]``
:func:`norm`           ``math.sqrt(_sumsq(x))``    :func:`row_norms`
=====================  ==========================  ============================

Other modules call these, never the numpy forms.  A union map compares
piece distances and envelopes within a tolerance, so a lone start and a
block of starts take the same step only if their products round alike.
Block = row was checked under OpenBLAS's SkylakeX and Haswell kernels;
under Prescott a BLAS dot rounds by the 16-byte alignment of its operands,
so a row of odd length inside a block may differ.

Repeated rows: where an elementwise operation meets an (N, d) block with a
constant vector (an offset, a centre, a box bound), the siblings take that
vector as N repeated rows of the block's shape (:class:`RepeatedRows`).
Broadcasting a (d,) vector over an (N, d) block makes numpy run N inner
loops of length d, several times the cost of one loop over two operands of
one shape: on a 2-core Xeon, (1024, 2) - (2,) takes about 8 us and the same
subtraction with a (1024, 2) operand about 1.5 us.  Arithmetic rounds each
element alike in either loop; np.clip does not order signed zeros alike
(see :class:`RepeatedRows`), and whole operands give it the scalar form's
bits.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

#: rows per block of the batched oracles (check_averaged's pairs,
#: brute_force_prox's grid nodes): each piece runs once per block
BLOCK_ROWS = 1024


class RepeatedRows:
    """A constant vector as the rows of a block: ``rows(n)`` is n copies of
    it, a C-contiguous (n, d) array.  Up to BLOCK_ROWS rows it is a view of
    one block that grows on demand (at least doubling, at most BLOCK_ROWS
    rows) and is replaced, never written in place, so a view stays valid
    while later calls grow the block; above, it is a new tile.  The rows
    are read-only operands of elementwise operations: a result must not be
    one of them.

    Above the bound the rows are tiled, not broadcast, because np.clip's
    loop for bounds of stride 0 (a (d,) bound over an (N, d) block with
    d = 1) orders signed zeros unlike its loop for whole operands, which
    the scalar form takes: clip(-0.0, -0.0, 0.0) is -0.0 in the one and
    0.0 in the other."""

    __slots__ = ("vector", "_block")

    def __init__(self, vector: np.ndarray):
        self.vector = vector
        self._block = vector[None]

    def rows(self, n: int) -> np.ndarray:
        block = self._block
        if n > len(block):
            if n > BLOCK_ROWS:
                return np.tile(self.vector, (n, 1))
            grown = min(max(n, 2 * len(block)), BLOCK_ROWS)
            block = self._block = np.tile(self.vector, (grown, 1))
        return block[:n]


def orthonormal_basis(vectors: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the span of the given columns."""
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    q, r = np.linalg.qr(vectors)
    keep = np.abs(np.diag(r)) > 1e-12 * max(1.0, np.abs(r).max())
    return q[:, keep]


# ---------------------------------------------------------------------------
# Arithmetic kernels: each block form's row k is bit for bit its point form
# at row k (see the module docstring)
# ---------------------------------------------------------------------------

def _sumsq(x: np.ndarray) -> np.float64:
    """The sum of squares of every entry of x, ``np.vdot(x, x)``: one BLAS
    dot, silent where it overflows (np.vdot reports no floating-point
    error).  Of a point it is the squared norm; of a block it is a test:
    finite only if every entry is (:func:`_all_finite`), NaN exactly when an
    entry is (:func:`_has_nan`), as its terms are nonnegative, inf or NaN."""
    return np.vdot(x, x)


# _sumsq_rows, _all_finite, _has_nan, row_norms and norm are hot, so they
# call np.vdot for _sumsq

def _sumsq_rows(D: np.ndarray) -> np.ndarray:
    """Block form of :func:`_sumsq`: the sums of squares along the last axis
    of D, ``np.vecdot(D, D)``, silent too.  numpy's overflow report is
    switched off only where the block's own sum shows a row may overflow."""
    if math.isfinite(np.vdot(D, D)):
        return np.vecdot(D, D)
    with np.errstate(over="ignore"):
        return np.vecdot(D, D)


def _all_finite(X: np.ndarray) -> bool:
    """Whether every entry of X is finite: a finite :func:`_sumsq` has only
    finite terms, so the entries are scanned only when it is not."""
    return math.isfinite(np.vdot(X, X)) or bool(np.isfinite(X).all())


def _has_nan(X: np.ndarray) -> bool:
    """Whether an entry of X is NaN: exactly when :func:`_sumsq` is."""
    return math.isnan(np.vdot(X, X))


# A kernel that is one numpy call is that callable, which costs no Python
# frame on a hot path.

#: the dot product of two vectors, ``np.vdot(x, y)``: numpy's dot loop,
#: which the block form runs too (``np.dot`` of two vectors calls BLAS
#: directly, and a -0.0 product of one entry keeps its sign there)
_dot = np.vdot

#: block form of :func:`_dot`: each row of X against the vector Y or
#: against Y's row (broadcast over leading axes)
_dot_rows = np.vecdot

#: M x, ``M.dot(x)``: the BLAS gemv of ``np.matvec`` at half the dispatch
#: cost of ``M @ x``, for an M that is contiguous or the transpose of a
#: contiguous array (a sliced M is copied first)
_matvec = np.ndarray.dot


def _matvec_rows(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Block form of :func:`_matvec`: ``np.matvec(M, X)``.  It rounds as the
    point form for the same view of M: a transpose is passed as ``M.T``,
    not as a copy in the other memory order.  ``M.dot`` takes a 1 x 1 M as
    a scalar, whose product keeps a -0.0 that np.matvec's sum turns to
    +0.0, so a 1 x 1 M multiplies the rows."""
    return np.matvec(M, X) if M.size != 1 else X * M[0, 0]


#: x' M, ``x @ M``
_vecmat = np.matmul

#: block form of :func:`_vecmat`: M one matrix or one per row (broadcast
#: over leading axes)
_vecmat_rows = np.vecmat

#: the solution of M p = r
_solve = np.linalg.solve


def _solve_rows(M: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Block form of :func:`_solve`: each row of R solved by M, one matrix
    or one per row (broadcast over leading axes), as one right-hand side
    per matrix; a multi-column ``solve(M, R.T)`` rounds differently."""
    return np.linalg.solve(M, R[..., None])[..., 0]


def row_norms(D: np.ndarray) -> np.ndarray:
    """Block form of :func:`norm`: the norms along the last axis of D,
    without an overflow warning.  A finite row whose sum of squares
    overflows is divided by its largest |entry| first, so its norm is
    finite unless the norm itself overflows."""
    sq = np.vdot(D, D)
    if sq != math.inf and D.shape[:-1] == (1,):
        return np.array([math.sqrt(sq)])
    if math.isfinite(sq):  # _sumsq_rows(D), its sum taken once
        return np.sqrt(np.vecdot(D, D))
    # a row may overflow: the finite rows whose norm is inf are rescaled
    norms = np.sqrt(_sumsq_rows(D))
    over = np.isinf(norms) & np.isfinite(D).all(axis=-1)
    scale = np.abs(D[over]).max(axis=-1, keepdims=True)
    with np.errstate(over="ignore"):
        norms[over] = scale[:, 0] * np.sqrt(_sumsq_rows(D[over] / scale))
    return norms


def norm(x: np.ndarray) -> float:
    """The norm of x, ``math.sqrt(_sumsq(x))`` of x raveled as
    np.linalg.norm ravels it (a strided x is copied first): bit for bit
    ``np.linalg.norm(x)`` unless its sum of squares overflows, where it is
    rescaled as in :func:`row_norms`."""
    x = x.ravel(order="K")
    sq = np.vdot(x, x)
    if sq != math.inf:
        return math.sqrt(sq)
    return float(row_norms(x[None])[0])


def span_projection(basis: np.ndarray, offset) -> Callable:
    """The projection onto offset + span(basis) as a point kernel, bound
    once: ``x -> offset + basis (basis' (x - offset))``, basis columns
    orthonormal.  ``basis.T`` is taken here, the same view each call would
    take, so the two gemv calls and their bits are those of the formula.
    For an empty basis the kernel returns a copy of the offset; it still
    takes x - offset first, so a far x warns where that difference
    overflows, as the formula does."""
    if basis.size == 0:
        def project(x):
            x - offset  # the formula's difference, for its overflow warning
            return np.array(offset, dtype=float)
        return project
    bt = basis.T

    def project(x):
        return offset + _matvec(basis, _matvec(bt, x - offset))
    return project


def project_span(basis: np.ndarray, x: np.ndarray, offset=None) -> np.ndarray:
    """Project onto offset + span(basis), offset 0 when None: the kernel of
    :func:`span_projection` applied to x."""
    return span_projection(basis, np.zeros(x.shape) if offset is None else offset)(x)


def project_span_many(basis: np.ndarray, X: np.ndarray,
                      offset: RepeatedRows) -> np.ndarray:
    """:func:`project_span` of every row of X, the offset as repeated rows."""
    if basis.size == 0:
        return np.tile(offset.vector, (len(X), 1))
    O = offset.rows(len(X))
    return O + _matvec_rows(basis, _matvec_rows(basis.T, X - O))


def flat_form(n: int, k: int) -> str:
    """The form in which :func:`flat_projection` projects onto a flat of
    dimension k in R^n: ``"dense"`` where the smaller of k and n - k is more
    than max(1, n/4), else ``"direction"`` where k <= n - k and
    ``"normal"`` where n - k < k."""
    if min(k, n - k) > max(1, n / 4):
        return "dense"
    return "direction" if k <= n - k else "normal"


def flat_projection(offset: np.ndarray, k: int, direction: Callable,
                    normal: Callable) -> tuple[Callable, Callable]:
    """The projection onto the flat offset + V, V a k-dimensional subspace
    of R^n, as a point kernel and its block kernel, both in the one form
    :func:`flat_form` chooses from (n, k) when the flat is built:

    - dense: ``P x + c``, with the projector P onto V and c = offset -
      P offset: two calls, and no x - offset;
    - direction: ``offset + N (N' (x - offset))``, the formula of
      :func:`span_projection`, with N = ``direction()``;
    - normal: ``x - Q (Q' (x - offset))``, with Q = ``normal()``.

    ``direction`` and ``normal`` build orthonormal bases (columns) of V and
    of its orthogonal complement; only the basis the form takes is built,
    the dense form's the smaller one (N at a tie), so no n x n array is made
    outside the dense form.  Each block row is bit for bit the point kernel
    of that row (the block takes the offset and c as repeated rows), and the
    point kernel names its form as ``project.form``."""
    return _flat_kernels(flat_form(len(offset), k), offset, k, direction, normal)


def _flat_kernels(form: str, offset: np.ndarray, k: int, direction: Callable,
                  normal: Callable) -> tuple[Callable, Callable]:
    """The point and block kernels of :func:`flat_projection` in the given
    form."""
    n = len(offset)
    rows = RepeatedRows(offset)
    if form == "dense":
        if k <= n - k:
            N = direction()
            P = N.dot(N.T)
        else:
            Q = normal()
            P = np.eye(n) - Q.dot(Q.T)
        c = offset - P.dot(offset)
        c_rows = RepeatedRows(c)

        def project(x):
            return _matvec(P, x) + c

        def project_many(X):
            return _matvec_rows(P, X) + c_rows.rows(len(X))
    elif form == "direction":
        N = direction()
        project = span_projection(N, offset)

        def project_many(X):
            return project_span_many(N, X, rows)
    else:
        Q = normal()
        qt = Q.T

        def project(x):
            return x - _matvec(Q, _matvec(qt, x - offset))

        def project_many(X):
            return X - _matvec_rows(Q, _matvec_rows(qt, X - rows.rows(len(X))))
    project.form = form
    return project, project_many


def complement_basis(basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the orthogonal complement of the span
    of the orthonormal columns of basis: the last columns of its complete
    QR factor, which is n x n, copied so that they are contiguous, as the
    kernels' products need for a block row to round as its point."""
    return np.ascontiguousarray(np.linalg.qr(basis, mode="complete")[0][:, basis.shape[1]:])


def affine_solution_parts(A: np.ndarray, b: np.ndarray):
    """Witness point w of {x : Ax = b}, and its direction, the null space
    of A, as :func:`flat_projection` takes it: its dimension k = n - rank A
    and builders of orthonormal bases of it and of A's row space.  The row
    basis is read off the reduced SVD of A, which makes no n x n array; the
    null basis is the last k rows of the full SVD's n x n V', built only for
    a form that takes it (there n <= 2 rank A <= 2m, so V' is at most twice
    the size of A)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if A.ndim != 2 or b.shape != A.shape[:1]:
        raise ValueError(f"affine system Ax = b needs one entry of b per row of "
                         f"A, got A of shape {A.shape} and b of shape {b.shape}")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("affine system Ax = b needs finite A and b")
    witness = np.linalg.lstsq(A, b, rcond=None)[0]
    if norm(_matvec(A, witness) - b) > 1e-9 * max(1.0, norm(b)):
        raise ValueError("affine system Ax = b has no solution")
    _, s, vt = np.linalg.svd(A, full_matrices=False)
    tol = max(A.shape) * np.finfo(float).eps * (s[0] if s.size else 1.0)
    rank = int(np.sum(s > tol))
    return (witness, A.shape[1] - rank, lambda: np.linalg.svd(A)[2][rank:].T,
            lambda: vt[:rank].T)


def project_affine(A: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Project onto {x : Ax = b} with the kernel its affine set takes."""
    return flat_projection(*affine_solution_parts(A, b))[0](x)


def project_box(lo: np.ndarray, hi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Projection onto the box [lo, hi]."""
    return np.clip(x, lo, hi)


def project_box_many(lo: RepeatedRows, hi: RepeatedRows, X: np.ndarray) -> np.ndarray:
    """:func:`project_box` of every row of X, the bounds as repeated rows."""
    return np.clip(X, lo.rows(len(X)), hi.rows(len(X)))


def project_ball(center: np.ndarray, radius: float, x: np.ndarray) -> np.ndarray:
    d = x - center
    nrm = norm(d)
    if nrm <= radius:
        return np.array(x, dtype=float)
    return center + (radius / nrm) * d


def project_ball_many(center: RepeatedRows, radius: float, X: np.ndarray) -> np.ndarray:
    """:func:`project_ball` of every row of X, the centre as repeated rows."""
    C = center.rows(len(X))
    D = X - C
    nrm = row_norms(D)
    inside = nrm <= radius
    # rows inside keep X, so their divisor (0 at the centre) is never used
    out = C + (radius / np.where(inside, 1.0, nrm))[:, None] * D
    return np.where(inside[:, None], X, out)


def project_halfspace(a: np.ndarray, a_sq: float, beta: float,
                      x: np.ndarray) -> np.ndarray:
    """Projection onto {x : <a, x> <= beta}; ``a_sq`` is ||a||^2, taken
    once by the caller."""
    excess = float(_dot(x, a)) - beta
    if excess <= 0.0:
        return np.array(x, dtype=float)
    return x - (excess / a_sq) * a


def project_halfspace_many(a: np.ndarray, a_sq: float, beta: float,
                           X: np.ndarray) -> np.ndarray:
    """:func:`project_halfspace` of every row of X."""
    excess = _dot_rows(X, a) - beta
    out = X - (excess / a_sq)[:, None] * a
    return np.where((excess <= 0.0)[:, None], X, out)


def project_support(support, x: np.ndarray) -> np.ndarray:
    """Projection onto the coordinate subspace with the given support, a
    sequence of indices; an intp array is used as is, without a copy."""
    idx = np.asarray(support, dtype=np.intp)
    out = np.zeros(x.shape)
    out[idx] = x[idx]
    return out


def project_support_many(support, X: np.ndarray) -> np.ndarray:
    """:func:`project_support` of every row of X."""
    idx = np.asarray(support, dtype=np.intp)
    out = np.zeros_like(X)
    out[:, idx] = X[:, idx]
    return out
