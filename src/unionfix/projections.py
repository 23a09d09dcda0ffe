"""Closed-form Euclidean projections onto the convex set catalog.

Shared by the set pieces (projectors) and the indicator pieces of
min-convex functions.
"""

from __future__ import annotations

import numpy as np


def orthonormal_basis(vectors: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the span of the given columns."""
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    q, r = np.linalg.qr(vectors)
    keep = np.abs(np.diag(r)) > 1e-12 * max(1.0, np.abs(r).max())
    return q[:, keep]


def project_span(basis: np.ndarray, x: np.ndarray, offset=None) -> np.ndarray:
    """Project onto offset + span(basis); basis columns are orthonormal."""
    if offset is None:
        offset = np.zeros(x.shape)
    d = x - offset
    if basis.size == 0:
        return np.array(offset, dtype=float)
    return offset + basis @ (basis.T @ d)


def affine_solution_parts(A: np.ndarray, b: np.ndarray):
    """Witness point and orthonormal null-space basis of {x : Ax = b}."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    witness, residuals, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    if np.linalg.norm(A @ witness - b) > 1e-9 * max(1.0, np.linalg.norm(b)):
        raise ValueError("affine system Ax = b has no solution")
    u, s, vt = np.linalg.svd(A)
    tol = max(A.shape) * np.finfo(float).eps * (s[0] if s.size else 1.0)
    null_basis = vt[int(np.sum(s > tol)):].T
    return witness, null_basis


def project_affine(A: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    witness, basis = affine_solution_parts(A, b)
    return project_span(basis, x, offset=witness)


def project_box(lo: np.ndarray, hi: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.clip(x, lo, hi)


def project_ball(center: np.ndarray, radius: float, x: np.ndarray) -> np.ndarray:
    d = x - center
    nrm = np.linalg.norm(d)
    if nrm <= radius:
        return np.array(x, dtype=float)
    return center + (radius / nrm) * d


def project_halfspace(a: np.ndarray, beta: float, x: np.ndarray) -> np.ndarray:
    """Projection onto {x : <a, x> <= beta}."""
    excess = float(np.dot(a, x)) - beta
    if excess <= 0.0:
        return np.array(x, dtype=float)
    return x - (excess / float(np.dot(a, a))) * a


def project_support(support, x: np.ndarray) -> np.ndarray:
    """Projection onto the coordinate subspace with the given support, a
    sequence of indices; an intp array is used as is, without a copy."""
    idx = np.asarray(support, dtype=np.intp)
    out = np.zeros_like(x)
    out[idx] = x[idx]
    return out
