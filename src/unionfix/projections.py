"""Closed-form Euclidean projections onto the convex set catalog.

Shared by the set pieces (projectors) and the indicator pieces of
min-convex functions.

Each projection has a batched sibling ``*_many`` that projects the rows of
an (N, d) array; the box projection is elementwise and serves as its own.
Row k of a sibling's result is bit-for-bit the scalar projection of row k:
the siblings use only numpy forms that round as the scalar ones do
(``np.vecdot`` for ``np.dot``, ``np.matvec`` with the same matrix view for
a matrix-vector product, elementwise arithmetic in the same order).  The
scalar matrix-vector products call ``ndarray.dot``: it reaches the same
BLAS gemv as ``@`` with about half the dispatch cost.
"""

from __future__ import annotations

import math

import numpy as np


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
        # one start's step: np.vdot takes the same dot as np.vecdot, and
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
                      offset: np.ndarray) -> np.ndarray:
    """:func:`project_span` of every row of X."""
    if basis.size == 0:
        return np.tile(offset, (len(X), 1))
    return offset + np.matvec(basis, np.matvec(basis.T, X - offset))


def affine_solution_parts(A: np.ndarray, b: np.ndarray):
    """Witness point and orthonormal null-space basis of {x : Ax = b}."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
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
    """Projection onto the box [lo, hi]; elementwise, so it also projects
    every row of an (N, d) array, as its own batched sibling."""
    return np.clip(x, lo, hi)


def project_ball(center: np.ndarray, radius: float, x: np.ndarray) -> np.ndarray:
    d = x - center
    nrm = norm(d)  # finite where np.linalg.norm's sum of squares overflows
    if nrm <= radius:
        return np.array(x, dtype=float)
    return center + (radius / nrm) * d


def project_ball_many(center: np.ndarray, radius: float, X: np.ndarray) -> np.ndarray:
    """:func:`project_ball` of every row of X."""
    D = X - center
    nrm = row_norms(D)
    inside = nrm <= radius
    # rows inside keep X, so their divisor (0 at the centre) is never used
    out = center + (radius / np.where(inside, 1.0, nrm))[:, None] * D
    out[inside] = X[inside]
    return out


def project_halfspace(a: np.ndarray, beta: float, x: np.ndarray) -> np.ndarray:
    """Projection onto {x : <a, x> <= beta}."""
    excess = float(np.dot(a, x)) - beta
    if excess <= 0.0:
        return np.array(x, dtype=float)
    return x - (excess / float(np.dot(a, a))) * a


def project_halfspace_many(a: np.ndarray, beta: float, X: np.ndarray) -> np.ndarray:
    """:func:`project_halfspace` of every row of X."""
    excess = np.vecdot(X, a) - beta
    out = X - (excess / float(np.dot(a, a)))[:, None] * a
    inside = excess <= 0.0
    out[inside] = X[inside]
    return out


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
