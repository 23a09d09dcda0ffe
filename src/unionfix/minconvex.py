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
The catalog's quadratics and singleton indicators also stack: their prox
callback carries the piece's data, and :func:`prox_union` evaluates all
pieces of one such kind in one numpy call, bit-for-bit as the pieces' own
calls would.  A piece any of whose callbacks was replaced is evaluated on
its own.  :func:`prox_union` has one rule, on a block of rows; its scalar
form is that rule on the one row x[None], and :func:`active_selector`
reads it too.  The rule selects one row's pieces in Python floats and a
block's in numpy, bit for bit alike.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from unionfix import projections, sets
from unionfix.core_ops import (
    DEFAULT_TIE_TOL,
    AveragedMap,
    DimensionMismatchError,
    UnionMap,
    _check_tol,
    _near_min,
    _rule_map,
    as_vector,
    map_pieces,
)

INFINITY = math.inf
_FLOAT_MAX = float(np.finfo(float).max)

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
    return min(_values(f, as_vector(x)))


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
        v = _piece_values(p, X)
        nan = np.isnan(v)
        if nan.any():
            raise _nan_error(f, i, "value", X[nan.argmax()])
        # min keeps the first of equal values: replace only when below
        best = v if best is None else np.where(v < best, v, best)
    return best


def _piece_values(p: ConvexPiece, X: np.ndarray) -> np.ndarray:
    """A piece's values at the rows of X: ``value_many``, else row by row."""
    if p.value_many is not None:
        return np.asarray(p.value_many(X), dtype=float)
    return np.array([float(p.value(x)) for x in X])


def piece_envelope(piece: ConvexPiece, gamma: float, x) -> float:
    """Moreau envelope of one piece, evaluated through its prox."""
    _check_gamma(gamma)
    return _prox_envelope(piece, gamma, as_vector(x))[1]


def _prox_envelope(piece: ConvexPiece, gamma: float, x: np.ndarray) -> tuple:
    """prox_{gamma f_i}(x) at a validated x, and the envelope through it."""
    p = as_vector(piece.prox(gamma, x))
    return p, float(piece.value(p)) + float(projections._sumsq(x - p)) / (2.0 * gamma)


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
    return prox_union(f, gamma, tie_tol).selector(x)


def prox_union(
    f: MinConvexFn, gamma: float, tie_tol: float = DEFAULT_TIE_TOL
) -> UnionMap:
    """Set-valued prox of f as a union 1/2-averaged nonexpansive map: the
    proxes of the pieces whose envelope is within tie_tol, a nonnegative
    number, of the smallest.  It has one rule, :func:`_active_rows` over
    the pieces' groups (:class:`_Groups`, formed here once); its scalar form
    is that rule on the one row x[None].  A gamma for which a stacked
    quadratic's I + gamma Q or gamma b overflows is refused here, with
    ValueError."""
    _check_gamma(gamma)
    tie_tol = _check_tol(tie_tol, "tie_tol")

    def piece_prox(p: ConvexPiece) -> AveragedMap:
        return AveragedMap(
            lambda x: as_vector(p.prox(gamma, x)), alpha=0.5, label=p.label,
            many=None if p.prox_many is None else _checked_prox_rows(p, gamma))

    # built on first lookup: a step whose pieces all run in group kernels
    # builds none
    pieces = map_pieces(dict(enumerate(f.pieces)), piece_prox)
    groups = _Groups(f, gamma)

    def rule_rows(X):
        return _active_rows(f, groups, gamma, pieces, X, tie_tol)

    return _rule_map(pieces, alpha=0.5, label=f"prox[{f.label}]",
                     rule_rows=rule_rows)


def _active_rows(f: MinConvexFn, groups: _Groups, gamma: float, proxes: dict,
                 X: np.ndarray, tie_tol: float) -> tuple:
    """prox_union's rule: the pieces whose envelope is within tie_tol of the
    smallest, and their proxes, at every row of a validated (N, d) block, as
    ``(rows, keys, points)`` in row-major, piece-minor order (see
    ``UnionMap._rule_rows``).  A piece outside the group kernels is called
    through its batched forms, or row by row where it has none
    (``AveragedMap.rows``, :func:`_piece_values`); one whose prox block has
    another shape than the rows raises DimensionMismatchError naming it.

    One row selects in Python floats (its envelopes in piece order, the NaN
    test, ``min`` and ``<= low + tie_tol``), a block in numpy; both compare
    the same doubles, so keys and points agree bit for bit, and a NaN
    envelope raises for the first NaN piece of the first row holding one."""
    parts = []
    for keys, kernel in groups:
        if kernel is None:
            i = keys[0]
            P = proxes[i].rows(X)
            if P.shape != X.shape:
                raise DimensionMismatchError(
                    f"piece {i} ({f.pieces[i].label!r}) of {f.label!r} maps "
                    f"rows of shape {X.shape} to {P.shape}")
            parts.append((P[None], _envelopes(
                X, P, _piece_values(f.pieces[i], P), 2.0 * gamma)[None]))
            continue
        out = kernel(X)
        if out is None:  # the pieces' own calls raise or warn, in piece order
            return _active_rows(f, _Groups(f, gamma, stacked=False), gamma, proxes,
                                X, tie_tol)
        parts.append(out)
    # P and E hold the groups' pieces in group order, E.T by piece
    P, E = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    position = groups.position
    if len(X) == 1:
        e = E[:, 0].tolist()
        if position is not None:
            e = [e[j] for j in position]
        low = min(_no_nan(f, e, "envelope", X[0])) + tie_tol
        keys = [i for i, v in enumerate(e) if v <= low]
        at = keys if position is None else [position[i] for i in keys]
        return np.zeros(len(keys), dtype=np.intp), keys, P[:, 0].take(at, 0)
    E = E.T if position is None else E[position].T
    # a row's minimum is NaN exactly when the row holds a NaN
    low = E.min(axis=1, keepdims=True)
    if np.isnan(low).any():
        row, i = divmod(int(np.isnan(E).argmax()), len(f.pieces))
        raise _nan_error(f, i, "envelope", X[row])
    rows, keys = (E <= low + tie_tol).nonzero()
    at = keys if position is None else np.take(position, keys)
    return rows, keys.tolist(), P[at, rows]


def _envelopes(X: np.ndarray, P: np.ndarray, values, two_gamma: float) -> np.ndarray:
    """The piece envelopes at the rows of X through their proxes P: each
    bit for bit ``value + _sumsq(x - p) / (2 gamma)``, an overflowing sum
    inf without a warning."""
    return values + projections._sumsq_rows(X - P) / two_gamma


# ---------------------------------------------------------------------------
# Stacked pieces: one numpy call for all pieces of one kind
# ---------------------------------------------------------------------------

class _Stack(NamedTuple):
    """What a stackable catalog piece keeps on its prox callback: its kind,
    its data ((Q, b, c) for a quadratic, (point,) for a singleton) and the
    four callbacks it was made with."""

    kind: str
    data: tuple
    callbacks: tuple


def _stackable(piece: ConvexPiece, kind: str, *data) -> ConvexPiece:
    """The piece, its prox callback tagged with its stack data."""
    piece.prox.stack = _Stack(kind, data, _callbacks(piece))
    return piece


def _callbacks(piece: ConvexPiece) -> tuple:
    return piece.value, piece.prox, piece.value_many, piece.prox_many


def _stack_of(piece: ConvexPiece) -> _Stack | None:
    """The piece's stack data, or None if it has none or a callback was
    replaced since it was tagged (a wrapper copying the tag included)."""
    s = getattr(piece.prox, "stack", None)
    if isinstance(s, _Stack) and all(map(operator.is_, s.callbacks,
                                         _callbacks(piece))):
        return s
    return None


def _quadratic_kernel(keys: list[int], stacks: list[_Stack], gamma: float):
    """Proxes and envelopes of the quadratics ``keys`` at the rows of an
    (N, d) block, as (k, N, d) and (k, N) arrays, or None where a prox or a
    constant is not finite or the rows have another dimension.  A gamma for
    which a piece's I + gamma Q or gamma b overflows, so its every prox
    would, is refused with ValueError naming the first such piece."""
    Q, b, c = (np.array([s.data[k] for s in stacks]) for k in range(3))
    # each piece's own I + gamma Q and gamma b, broadcast over the rows
    with np.errstate(over="ignore"):
        M = (np.eye(b.shape[1]) + gamma * Q)[:, None]
        gb = (gamma * b)[:, None]
    finite = np.isfinite(M).all(axis=(1, 2, 3)) & np.isfinite(gb).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"gamma = {gamma!r} overflows quadratic piece "
                         f"{keys[finite.argmin()]}: I + gamma Q or gamma b is "
                         f"not finite")
    Q, b, c = Q[:, None], b[:, None], c[:, None]
    two_gamma = 2.0 * gamma

    def kernel(X):
        if X.shape[1] != b.shape[2]:
            return None
        P = projections._solve_rows(M, X - gb)
        if not projections._all_finite(P):
            return None
        return P, _envelopes(X, P, _quadratic_rows(P, Q, b, c), two_gamma)

    return kernel


def _quadratic_rows(X: np.ndarray, Q, b, c) -> np.ndarray:
    """The quadratic x'Qx/2 + b'x + c at the rows of X, each bit for bit a
    quadratic piece's value; Q, b and c may stack one quadratic per leading
    index of X."""
    return (0.5 * projections._dot_rows(projections._vecmat_rows(X, Q), X)
            + projections._dot_rows(X, b) + c)


def _singleton_kernel(keys: list[int], stacks: list[_Stack], gamma: float):
    """Proxes and envelopes of singleton indicators at the rows of an (N, d)
    block: the points, and ||x - p||^2 / (2 gamma) (each value is 0).  A
    row far from a point gets an inf envelope without an overflow warning."""
    C = np.array([s.data[0] for s in stacks])[:, None]
    two_gamma = 2.0 * gamma

    def kernel(X):
        if X.shape[1] != C.shape[2]:
            return None
        P = C.repeat(len(X), axis=1)
        # the repeated points: one loop over two (k, N, d) blocks
        return P, projections._sumsq_rows(X - P) / two_gamma

    return kernel


_KERNELS = {"quadratic": _quadratic_kernel, "singleton": _singleton_kernel}


class _Groups:
    """The pieces of a min-convex function in evaluation groups ``(keys,
    kernel)``, ordered by first key: the stackable pieces of one kind and
    dimension share a kernel (``kernel(X) -> (P, E)`` or None), every other
    piece, and every piece if not ``stacked``, is a group of one whose
    kernel is None.  ``position`` lists each piece's place in the groups'
    concatenated order, by key, or is None where that order is the pieces'
    own."""

    def __init__(self, f: MinConvexFn, gamma: float, stacked: bool = True):
        runs: dict[tuple, tuple[list, list]] = {}
        order = []
        for i, p in enumerate(f.pieces):
            s = _stack_of(p) if stacked else None
            if s is None:
                order.append(([i], None))
                continue
            key = (s.kind, s.data[0].shape[-1])
            if key not in runs:
                runs[key] = ([], [])
                order.append(runs[key])
            runs[key][0].append(i)
            runs[key][1].append(s)
        self.groups = [(keys, None if stacks is None
                        else _KERNELS[stacks[0].kind](keys, stacks, gamma))
                       for keys, stacks in order]
        flat = [i for keys, _ in self.groups for i in keys]
        self.position = None if flat == sorted(flat) else np.argsort(flat).tolist()

    def __iter__(self):
        return iter(self.groups)


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
    return _tied_pieces_fixed(f, y, w, values, tol, gamma)


def _finite_local_min(f: MinConvexFn, y, tol: float) -> bool:
    """Whether f(y) is finite and ``is_local_min(f, y, tol)``, with each
    piece value at y computed once; tol is a checked tolerance."""
    y = as_vector(y)
    values = _values(f, y)
    return math.isfinite(min(values)) and _tied_pieces_fixed(
        f, y, y, values, tol, PROBE_GAMMA)


def _tied_pieces_fixed(f: MinConvexFn, y: np.ndarray, w: np.ndarray,
                       values: list[float], tol: float, gamma: float) -> bool:
    """is_local_min's test at validated y and w, given the piece values at y."""
    return all(projections.norm(as_vector(p.prox(gamma, w)) - y) <= tol
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
        return (0.5 * float(projections._dot(projections._vecmat(x, Q), x))
                + float(projections._dot(x, b)) + c)

    def val_many(X):
        return _quadratic_rows(X, Q, b, c)

    def prox(gamma, x):
        return projections._solve(np.eye(n) + gamma * Q, x - gamma * b)

    def prox_many(gamma, X):
        return projections._solve_rows(np.eye(n) + gamma * Q, X - gamma * b)

    return _stackable(ConvexPiece(value=val, prox=prox, label=label,
                                  value_many=val_many, prox_many=prox_many),
                      "quadratic", Q, b, c)


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
    """weight * ||x||_2 with block soft-thresholding prox.  Every form
    takes the norm as :func:`~unionfix.projections.row_norms` does, so a
    finite point whose sum of squares overflows has a finite norm."""
    w = float(weight)
    if w < 0:
        raise ValueError("weight must be nonnegative")

    def prox(gamma, x):
        nrm = projections.norm(x)
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
        value=lambda x: w * projections.norm(x), prox=prox, label=label,
        value_many=lambda X: w * projections.row_norms(X), prox_many=prox_many,
    )


def indicator(
    project: Callable[[np.ndarray], np.ndarray],
    label: str = "indicator",
    membership_tol: float = 1e-9,
) -> ConvexPiece:
    """Indicator of a closed convex set given by its projection."""
    membership_tol = _check_tol(membership_tol, "membership_tol")
    return _indicator(project, None, label, membership_tol)


def _indicator(project, project_many, label: str,
               membership_tol: float = 1e-9) -> ConvexPiece:
    """Indicator of a closed convex set given by its projection and, when
    not None, the projection's batched sibling.  x is in the set when ||x - P(x)||
    <= membership_tol * max(1, ||x||), as P(p) misses a far p by its rounding;
    ||x|| is capped at the largest float, where a finite x's norm overflows."""

    def val(x):
        gap = projections.norm(x - project(x))
        scale = min(max(1.0, projections.norm(x)), _FLOAT_MAX)
        return 0.0 if gap <= membership_tol * scale else INFINITY

    def val_many(X):
        gaps = projections.row_norms(X - project_many(X))
        scales = np.clip(projections.row_norms(X), 1.0, _FLOAT_MAX)
        return np.where(gaps <= membership_tol * scales, 0.0, INFINITY)

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
    """Indicator of {point}, with the projections of
    :func:`~unionfix.sets.singleton_set`; it stacks with its kind."""
    c = as_vector(point)
    return _stackable(_indicator(*sets._singleton_projections(c),
                                 label or f"ind{tuple(c.tolist())}"), "singleton", c)


def indicator_box(lo, hi, label: str = "ind-box") -> ConvexPiece:
    return _set_indicator(sets.box_set(lo, hi), label)


def indicator_ball(center, radius: float, label: str = "ind-ball") -> ConvexPiece:
    return _set_indicator(sets.ball_set(center, radius), label)


def indicator_halfspace(a, beta: float, label: str = "ind-halfspace") -> ConvexPiece:
    return _set_indicator(sets.halfspace_set(a, beta), label)


def indicator_affine(A, b, label: str = "ind-affine") -> ConvexPiece:
    return _set_indicator(sets.affine_set(A, b), label)
