"""Min-convex functions: values, Moreau envelopes, set-valued prox, and
the piecewise local-minimum test.

A min-convex function is the pointwise minimum of finitely many proper,
lower semicontinuous convex pieces.  Each piece supplies its value and a
closed-form prox; lower semicontinuity of pieces is assumed, not verified.

Public functions validate the caller's point and tolerance once; inside,
only the output of each piece's prox callback is checked (a finite
vector), with as_vector, and piece values are checked not NaN wherever
they are compared.

The catalog's pieces also evaluate the rows of an (N, d) array at once
(``value_many``, ``prox_many``), bit-for-bit as the scalar calls would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from unionfix import projections, sets
from unionfix.core_ops import (
    DEFAULT_TIE_TOL,
    AveragedMap,
    UnionMap,
    _check_tol,
    _near_min,
    _rule_map,
    as_vector,
)

INFINITY = math.inf

#: relative tolerance of the symmetry and PSD checks on a quadratic's Q:
#: rounding in products such as U diag U' or A A' stays far below it
PSD_TOL = 1e-9

#: prox probe used by local-minimum tests; any gamma > 0 gives the same
#: answer for convex pieces, so the choice is immaterial.
PROBE_GAMMA = 1.0


@dataclass(frozen=True)
class ConvexPiece:
    """A proper lsc convex function with value and single-valued prox.

    ``value`` may return +inf outside the domain.  ``prox`` takes
    (gamma, x) and must be the exact minimizer of
    y -> value(y) + ||x - y||^2 / (2 gamma).  ``value_many(X)`` and
    ``prox_many(gamma, X)``, when given, evaluate the rows of an (N, d)
    array, each bit-for-bit as ``value`` and ``prox`` would.
    """

    value: Callable[[np.ndarray], float]
    prox: Callable[[float, np.ndarray], np.ndarray]
    label: str = ""
    value_many: Callable[[np.ndarray], np.ndarray] | None = None
    prox_many: Callable[[float, np.ndarray], np.ndarray] | None = None


class MinConvexFn:
    """Pointwise minimum of a finite list of convex pieces."""

    def __init__(self, pieces: Sequence[ConvexPiece], label: str = ""):
        if not pieces:
            raise ValueError("a min-convex function needs at least one piece")
        self.pieces = list(pieces)
        self.label = label

    def __len__(self) -> int:
        return len(self.pieces)


def value(f: MinConvexFn, x) -> float:
    """f(x) = min over piece values; +inf only if every piece is +inf."""
    return _value(f, as_vector(x))


def _value(f: MinConvexFn, x: np.ndarray) -> float:
    return min(_values(f, x))


def _values(f: MinConvexFn, x: np.ndarray) -> list[float]:
    """The piece values at a validated x, checked not NaN."""
    return _no_nan(f, [float(p.value(x)) for p in f.pieces], "value", x)


def _nan_error(f: MinConvexFn, i: int, what: str, x) -> ValueError:
    return ValueError(f"piece {i} ({f.pieces[i].label!r}) of {f.label!r} "
                      f"has a NaN {what} at {x}")


def _no_nan(f: MinConvexFn, values: list[float], what: str, x) -> list[float]:
    """The piece values, checked: a NaN would make their minimum depend on
    the piece order, so it raises ValueError naming the piece."""
    if any(map(math.isnan, values)):
        raise _nan_error(f, [math.isnan(v) for v in values].index(True), what, x)
    return values


def _value_rows(f: MinConvexFn, X: np.ndarray) -> np.ndarray:
    """f at every row of a validated (N, d) array, bit-for-bit as
    :func:`value` at each row; a NaN piece value raises ValueError."""
    best = None
    for i, p in enumerate(f.pieces):
        if p.value_many is not None:
            v = np.asarray(p.value_many(X), dtype=float)
        else:
            v = np.array([float(p.value(x)) for x in X])
        nan = np.isnan(v)
        if nan.any():
            raise _nan_error(f, i, "value", X[nan.argmax()])
        # min keeps the first of equal values: replace only when below
        best = v if best is None else np.where(v < best, v, best)
    return best


def piece_envelope(piece: ConvexPiece, gamma: float, x) -> float:
    """Moreau envelope of one piece, evaluated through its prox."""
    _check_gamma(gamma)
    return _prox_envelope(piece, gamma, as_vector(x))[1]


def _prox_envelope(piece: ConvexPiece, gamma: float, x: np.ndarray) -> tuple:
    """prox_{gamma f_i}(x) at a validated x, and the envelope through it."""
    p = as_vector(piece.prox(gamma, x))
    return p, float(piece.value(p)) + float(np.dot(x - p, x - p)) / (2.0 * gamma)


def envelope(f: MinConvexFn, gamma: float, x) -> float:
    """Moreau envelope of f: the minimum of the piece envelopes."""
    _check_gamma(gamma)
    x = as_vector(x)
    return min(_no_nan(f, [_prox_envelope(p, gamma, x)[1] for p in f.pieces],
                       "envelope", x))


def active_selector(
    f: MinConvexFn, gamma: float, x, tie_tol: float = DEFAULT_TIE_TOL
) -> list[int]:
    """Indices whose piece envelope attains the envelope, within tie_tol.

    A positive tie_tol can only enlarge the index set, which preserves
    outer semicontinuity of the selector numerically.
    """
    _check_gamma(gamma)
    tie_tol = _check_tol(tie_tol, "tie_tol")
    return [i for i, _ in _active(f, gamma, as_vector(x), tie_tol)]


def _active(f: MinConvexFn, gamma: float, x: np.ndarray, tie_tol: float) -> list:
    """Active (index, prox) pairs at a validated x, with the proxes the
    envelope comparison computed."""
    found = [_prox_envelope(p, gamma, x) for p in f.pieces]
    envs = _no_nan(f, [e for _, e in found], "envelope", x)
    return _near_min([(i, p) for i, (p, _) in enumerate(found)], envs, tie_tol)


def prox_union(
    f: MinConvexFn, gamma: float, tie_tol: float = DEFAULT_TIE_TOL
) -> UnionMap:
    """Set-valued prox of f as a union 1/2-averaged nonexpansive map: the
    proxes of the pieces whose envelope is within tie_tol, a nonnegative
    number, of the smallest."""
    _check_gamma(gamma)
    tie_tol = _check_tol(tie_tol, "tie_tol")
    pieces = {
        i: AveragedMap(
            lambda x, p=p: as_vector(p.prox(gamma, x)), alpha=0.5, label=p.label,
            many=None if p.prox_many is None else _checked_prox_rows(p, gamma),
        )
        for i, p in enumerate(f.pieces)
    }
    batched = all(p.prox_many is not None and p.value_many is not None
                  for p in f.pieces)
    return _rule_map(pieces, lambda x: _active(f, gamma, x, tie_tol), alpha=0.5,
                     label=f"prox[{f.label}]",
                     rule_rows=(lambda X: _active_rows(f, gamma, pieces, X, tie_tol))
                     if batched else None)


def _active_rows(f: MinConvexFn, gamma: float, proxes: dict, X: np.ndarray,
                 tie_tol: float) -> tuple:
    """:func:`_active` at every row of a validated (N, d) block, as
    ``(rows, keys, points)`` in row-major, piece-minor order (see
    ``UnionMap._rule_rows``), through the pieces' batched value and prox."""
    P = np.stack([prox.rows(X) for prox in proxes.values()])
    D = X - P
    E = (np.stack([np.asarray(p.value_many(Pi), dtype=float)
                   for p, Pi in zip(f.pieces, P)], axis=1)
         + np.vecdot(D, D).T / (2.0 * gamma))
    nan = np.isnan(E)
    if nan.any():
        row, i = divmod(int(nan.argmax()), len(f.pieces))
        raise _nan_error(f, i, "envelope", X[row])
    rows, keys = np.nonzero(E <= E.min(axis=1, keepdims=True) + tie_tol)
    return rows, keys.tolist(), P[keys, rows]


def _checked_prox_rows(p: ConvexPiece, gamma: float):
    """The piece's batched prox, its output checked as as_vector checks the
    scalar one: a non-finite point raises ValueError."""

    def many(X):
        P = np.asarray(p.prox_many(gamma, X), dtype=float)
        if not np.isfinite(P).all():
            raise ValueError(
                f"prox of piece {p.label!r}: vector entries must be finite")
        return P

    return many


def is_local_min(
    f: MinConvexFn, y, tol: float = 1e-9, *, w=None, gamma: float = PROBE_GAMMA
) -> bool:
    """Piecewise fixed-point test: every piece f_i whose value at y ties
    f(y) within tol must satisfy ||prox_{gamma f_i}(w) - y|| <= tol.  tol
    is a nonnegative number, so a piece attaining f(y) is always tested.

    With w = y (the default) this says y minimizes every tied piece, so y
    is a local minimum of f; for convex pieces the answer does not depend
    on the probe gamma.  The splitting drivers pass the point their prox
    step is taken from: w = y - gamma grad h(y) tests a local minimum of
    h + f (forward-backward), and w = 2y - xbar tests the shadow y of a
    Douglas-Rachford limit xbar.
    """
    tol = _check_tol(tol, "tol")
    y = as_vector(y)
    w = y if w is None else as_vector(w)
    values = _values(f, y)
    if not math.isfinite(min(values)):
        raise ValueError("is_local_min requires f(y) finite")
    return all(np.linalg.norm(as_vector(p.prox(gamma, w)) - y) <= tol
               for p in _near_min(f.pieces, values, tol))


def _check_gamma(gamma: float) -> None:
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")


# ---------------------------------------------------------------------------
# Piece catalog
# ---------------------------------------------------------------------------

def psd_matrix(Q, n: int) -> np.ndarray:
    """Q as an n x n float array, checked symmetric and positive
    semidefinite up to PSD_TOL relative to max(1, max |Q_ij|)."""
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    if Q.shape != (n, n):
        raise ValueError(f"Q must be {n}x{n}, got shape {Q.shape}")
    if not np.all(np.isfinite(Q)):
        raise ValueError("Q must be finite")
    tol = PSD_TOL * max(1.0, float(np.abs(Q).max()))
    if float(np.abs(Q - Q.T).max()) > tol:
        raise ValueError("Q must be symmetric")
    if float(np.linalg.eigvalsh(Q)[0]) < -tol:
        raise ValueError("Q must be positive semidefinite")
    return Q


def quadratic(Q, b, c: float = 0.0, label: str = "quadratic") -> ConvexPiece:
    """Convex quadratic x -> x'Qx/2 + b'x + c, Q symmetric PSD (dense),
    checked by :func:`psd_matrix`.

    The constant c does not change the prox but does shift value and
    envelope comparisons between pieces.
    """
    b = as_vector(b)
    c = float(c)
    n = b.size
    Q = psd_matrix(Q, n)

    def val(x):
        return 0.5 * float(x @ Q @ x) + float(b @ x) + c

    def val_many(X):
        return 0.5 * np.vecdot(np.vecmat(X, Q), X) + np.vecdot(X, b) + c

    # I + gamma Q for the last gamma, replaced as one tuple, so concurrent
    # calls never pair a gamma with another gamma's matrix
    system = (None, None)

    def matrix(gamma):
        nonlocal system
        g, M = system
        if g != gamma:
            M = np.eye(n) + gamma * Q
            system = (gamma, M)
        return M

    def prox(gamma, x):
        return np.linalg.solve(matrix(gamma), x - gamma * b)

    def prox_many(gamma, X):
        # one right-hand side per matrix, as in the scalar solve: a
        # multi-column solve rounds differently
        M = np.broadcast_to(matrix(gamma), (len(X), n, n))
        return np.linalg.solve(M, (X - gamma * b)[..., None])[..., 0]

    return ConvexPiece(value=val, prox=prox, label=label, value_many=val_many,
                       prox_many=prox_many)


def scaled_l1(weight: float, label: str = "l1") -> ConvexPiece:
    """weight * ||x||_1 with soft-thresholding prox."""
    w = float(weight)
    if w < 0:
        raise ValueError("weight must be nonnegative")

    def prox(gamma, x):
        return np.sign(x) * np.maximum(np.abs(x) - gamma * w, 0.0)

    return ConvexPiece(
        value=lambda x: w * float(np.sum(np.abs(x))),
        prox=prox,
        label=label,
        value_many=lambda X: w * np.abs(X).sum(axis=-1),
        prox_many=prox,  # elementwise, so rows come out as the scalar calls
    )


def scaled_l2(weight: float, label: str = "l2") -> ConvexPiece:
    """weight * ||x||_2 with block soft-thresholding prox."""
    w = float(weight)
    if w < 0:
        raise ValueError("weight must be nonnegative")

    def prox(gamma, x):
        nrm = np.linalg.norm(x)
        if nrm <= gamma * w:
            return np.zeros_like(x)
        return (1.0 - gamma * w / nrm) * x

    def prox_many(gamma, X):
        nrm = projections.row_norms(X)
        small = nrm <= gamma * w
        # small rows are zeroed, so their divisor (maybe 0) is never used
        out = (1.0 - gamma * w / np.where(small, 1.0, nrm))[:, None] * X
        out[small] = 0.0
        return out

    return ConvexPiece(
        value=lambda x: w * float(np.linalg.norm(x)), prox=prox, label=label,
        value_many=lambda X: w * projections.row_norms(X), prox_many=prox_many,
    )


def indicator(
    project: Callable[[np.ndarray], np.ndarray],
    label: str = "indicator",
    membership_tol: float = 1e-9,
) -> ConvexPiece:
    """Indicator of a closed convex set given by its projection."""
    return _indicator(project, None, label, membership_tol)


def _indicator(project, project_many, label: str,
               membership_tol: float = 1e-9) -> ConvexPiece:
    """Indicator of a closed convex set given by its projection and, when
    not None, the projection's batched sibling."""

    def val(x):
        return 0.0 if np.linalg.norm(x - project(x)) <= membership_tol else INFINITY

    def val_many(X):
        inside = projections.row_norms(X - project_many(X)) <= membership_tol
        return np.where(inside, 0.0, INFINITY)

    def prox_many(gamma, X):
        return project_many(X)

    batched = project_many is not None
    return ConvexPiece(value=val, prox=lambda gamma, x: project(x), label=label,
                       value_many=val_many if batched else None,
                       prox_many=prox_many if batched else None)


def _set_indicator(s: sets.UnionConvexSet, label: str) -> ConvexPiece:
    """Indicator of a one-piece set of the :mod:`unionfix.sets` catalog."""
    return _indicator(s.pieces[0].project, s.pieces[0].project_many, label)


def indicator_singleton(point, label: str = "") -> ConvexPiece:
    s = sets.singleton_set(point)
    return _set_indicator(s, label or f"ind{tuple(s.pieces[0].witness.tolist())}")


def indicator_box(lo, hi, label: str = "ind-box") -> ConvexPiece:
    return _set_indicator(sets.box_set(lo, hi), label)


def indicator_ball(center, radius: float, label: str = "ind-ball") -> ConvexPiece:
    return _set_indicator(sets.ball_set(center, radius), label)


def indicator_halfspace(a, beta: float, label: str = "ind-halfspace") -> ConvexPiece:
    return _set_indicator(sets.halfspace_set(a, beta), label)


def indicator_affine(A, b, label: str = "ind-affine") -> ConvexPiece:
    return _set_indicator(sets.affine_set(A, b), label)
