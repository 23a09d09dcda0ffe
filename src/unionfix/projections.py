"""Closed-form Euclidean projections onto the convex set catalog.

Shared by the set pieces (projectors) and the indicator pieces of
min-convex functions.

Each projection has a batched sibling ``*_many`` that projects the rows of
an (N, d) array.  Row k of a sibling's result is bit-for-bit the scalar
projection of row k: the siblings use only numpy forms that round as the
scalar ones do (``np.vecdot`` for ``np.dot``, ``np.matvec`` with the same
matrix view for a matrix-vector product, elementwise arithmetic in the same
order).  The scalar matrix-vector products call ``ndarray.dot``: it reaches
the same BLAS gemv as ``@`` with about half the dispatch cost.

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

import numpy as np

from unionfix.core_ops import BLOCK_ROWS


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


def row_norms(D: np.ndarray) -> np.ndarray:
    """Norms of the rows of D (along its last axis), without an overflow
    warning.  A finite row whose sum of squares overflows is divided by its
    largest |entry| first, so its norm is finite unless the norm itself
    overflows.  Every other row's norm is ``np.sqrt(np.vecdot(row, row))``,
    bit-for-bit ``np.linalg.norm`` of the row when the row is contiguous."""
    if D.ndim == 2 and len(D) == 1:
        # one point, as norm passes it: np.vdot takes np.vecdot's dot, and
        # leaves an overflow unreported where np.errstate would cost more
        sq = np.vdot(D, D)
        if sq != math.inf:
            return np.array([math.sqrt(sq)])
    else:
        try:
            with np.errstate(over="raise"):
                return np.sqrt(np.vecdot(D, D))
        except FloatingPointError:
            pass
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.vecdot(D, D))
        over = np.isinf(norms) & np.isfinite(D).all(axis=-1)
        scale = np.abs(D[over]).max(axis=-1, keepdims=True)
        S = D[over] / scale
        norms[over] = scale[:, 0] * np.sqrt(np.vecdot(S, S))
    return norms


def norm(x: np.ndarray) -> float:
    """:func:`row_norms` of one point: bit-for-bit ``np.linalg.norm(x)``
    unless its sum of squares overflows.  The point is raveled as
    np.linalg.norm ravels it, so a strided one is copied first."""
    return float(row_norms(x.ravel(order="K")[None])[0])


def project_span(basis: np.ndarray, x: np.ndarray, offset=None) -> np.ndarray:
    """Project onto offset + span(basis); basis columns are orthonormal."""
    if offset is None:
        offset = np.zeros(x.shape)
    d = x - offset
    if basis.size == 0:
        return np.array(offset, dtype=float)
    return offset + basis.dot(basis.T.dot(d))


def project_span_many(basis: np.ndarray, X: np.ndarray,
                      offset: RepeatedRows) -> np.ndarray:
    """:func:`project_span` of every row of X, the offset as repeated rows."""
    if basis.size == 0:
        return np.tile(offset.vector, (len(X), 1))
    O = offset.rows(len(X))
    return O + np.matvec(basis, np.matvec(basis.T, X - O))


def affine_solution_parts(A: np.ndarray, b: np.ndarray):
    """Witness point and orthonormal null-space basis of {x : Ax = b}."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if A.ndim != 2 or b.shape != A.shape[:1]:
        raise ValueError(f"affine system Ax = b needs one entry of b per row of "
                         f"A, got A of shape {A.shape} and b of shape {b.shape}")
    witness, residuals, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    if norm(A @ witness - b) > 1e-9 * max(1.0, norm(b)):
        raise ValueError("affine system Ax = b has no solution")
    u, s, vt = np.linalg.svd(A)
    tol = max(A.shape) * np.finfo(float).eps * (s[0] if s.size else 1.0)
    null_basis = vt[int(np.sum(s > tol)):].T
    return witness, null_basis


def project_affine(A: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    witness, basis = affine_solution_parts(A, b)
    return project_span(basis, x, offset=witness)


def project_box(lo: np.ndarray, hi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Projection onto the box [lo, hi]."""
    return np.clip(x, lo, hi)


def project_box_many(lo: RepeatedRows, hi: RepeatedRows, X: np.ndarray) -> np.ndarray:
    """:func:`project_box` of every row of X, the bounds as repeated rows."""
    return np.clip(X, lo.rows(len(X)), hi.rows(len(X)))


def project_ball(center: np.ndarray, radius: float, x: np.ndarray) -> np.ndarray:
    d = x - center
    nrm = norm(d)  # finite where np.linalg.norm's sum of squares overflows
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
    """Projection onto {x : <a, x> <= beta}; ``a_sq`` is ||a||^2, the
    caller's ``float(np.dot(a, a))``, taken once."""
    excess = float(np.dot(a, x)) - beta
    if excess <= 0.0:
        return np.array(x, dtype=float)
    return x - (excess / a_sq) * a


def project_halfspace_many(a: np.ndarray, a_sq: float, beta: float,
                           X: np.ndarray) -> np.ndarray:
    """:func:`project_halfspace` of every row of X."""
    excess = np.vecdot(X, a) - beta
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
