"""Union-convex sets, multi-valued projectors/reflectors, and the
two-set Douglas-Rachford operator.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from unionfix import projections
from unionfix.core_ops import (
    DEFAULT_TIE_TOL,
    AveragedMap,
    DimensionMismatchError,
    EmptySelectionError,
    Index,
    LazyPieces,
    UnionMap,
    _check_tol,
    _merge_dim,
    _merge_rows,
    _near_min,
    _rule_map,
    as_vector,
    dr_map,
    map_pieces,
    piece_count,
    relax,
)

MEMBERSHIP_TOL = 1e-9


def _one_pair(x: np.ndarray, pairs: list, tie_tol: float):
    """The one (index, projection) pair of ``pairs`` within tie_tol of the
    smallest distance, in order, where exactly one is; else None."""
    near = _near_min(pairs, [projections.norm(x - p) for _, p in pairs], tie_tol)
    return near[0] if len(near) == 1 else None


def _one_piece_lone(key: Index, piece, tie_tol: float, x: np.ndarray):
    """The distance rule of a one-piece set in its lone form: its pair, at
    distance v, is kept when v <= v + tie_tol, so (x finite, tie_tol >= 0)
    unless the projection holds a NaN, where it is None."""
    p = np.asarray(piece.project(x), dtype=float)
    return None if projections._has_nan(p) else (key, p)


def _nearest_of(X: np.ndarray, parts: list, tie_tol: float) -> tuple:
    """Candidate pairs of the rows of X, block rule outputs ``(rows, keys,
    P)`` merged by row, cut to those within tie_tol of their row's smallest
    distance.  The smallest is taken as ``min`` takes it in a scan: a row
    whose first distance is NaN keeps none, and a later NaN is skipped."""
    rows, keys, P = _merge_rows(parts)
    if not len(rows):
        return rows, keys, P
    dist = projections.row_norms(X[rows] - P)
    new = np.ones(len(rows), dtype=bool)  # a row's first candidate
    new[1:] = rows[1:] != rows[:-1]
    first = np.flatnonzero(new)
    best = np.fmin.reduceat(dist, first)
    best[np.isnan(dist[first])] = np.nan
    near = dist <= best[np.cumsum(new) - 1] + tie_tol
    return rows[near], list(itertools.compress(keys, near.tolist())), P[near]


def _point_of(x, dim: int, label: str) -> np.ndarray:
    """x validated as a point of the set ``label``, of length dim."""
    x = as_vector(x)
    if x.size != dim:
        raise DimensionMismatchError(
            f"set {label!r} expects dimension {dim}, got {x.size}")
    return x


@dataclass(frozen=True)
class ConvexSetPiece:
    """One closed convex component, given by its nearest-point projection.

    ``witness`` is a known member point, stored to certify nonemptiness.
    ``project_many``, when given, projects the rows of an (N, d) array,
    each bit-for-bit as ``project`` would; the catalog's pieces have one.
    """

    project: Callable[[np.ndarray], np.ndarray]
    label: str
    witness: np.ndarray
    project_many: Callable[[np.ndarray], np.ndarray] | None = None

    def distance(self, x) -> float:
        x = _point_of(x, np.size(self.witness), self.label)
        return projections.norm(x - self.project(x))

    def contains(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        tol = _check_tol(tol, "tol")
        return self.distance(x) <= tol


class UnionConvexSet:
    """Finite union of closed convex pieces under the distance rule: the
    active pieces are the nearest, within tie_tol, in piece order.  A
    :class:`~unionfix.core_ops.LazyPieces` is kept as given, any other
    mapping is copied.  A point whose length is not ``dim`` raises
    DimensionMismatchError.

    A set writes its rule in two forms.  ``_nearest_rows(X, tie_tol)`` gives
    every row of a validated (N, d) block its active pairs, as ``(rows,
    keys, P)`` (rows ascending, a row's pairs in rule order, none where the
    selection is empty).  ``_lone(tie_tol, x)`` is the one active pair at a
    validated x, bit for bit the block's, or None where there is not
    exactly one (tie_tol first, so a projector binds it positionally).
    ``_nearest(x, tie_tol)`` is derived from the two.  One piece is decided
    by its projection, several by their distances; the sparsity set and
    unions of sets install their own encodings (:func:`_rule_set`).
    """

    def __init__(self, pieces: Mapping[Index, ConvexSetPiece], label: str = ""):
        if not pieces:
            raise ValueError("a union-convex set needs at least one piece")
        self.pieces = pieces if isinstance(pieces, LazyPieces) else dict(pieces)
        self._dim = (None if isinstance(pieces, LazyPieces)
                     else np.size(next(iter(self.pieces.values())).witness))
        self.label = label
        self._nearest_rows, self._lone = self._distance_rows, self._distance_lone
        if piece_count(self.pieces) == 1:
            (only,) = self.pieces.items()
            self._lone = functools.partial(_one_piece_lone, *only)

    @property
    def dim(self) -> int:
        """Dimension of the set's points, its pieces' witness length.  Over
        a LazyPieces it is read from the first piece when first needed (a
        query, the projector, a union the set joins), which builds that
        piece; the sparsity set and unions of sets know it when built."""
        if self._dim is None:
            self._dim = np.size(self.pieces[next(iter(self.pieces))].witness)
        return self._dim

    def distance(self, x) -> float:
        """Distance to the nearest piece: the minimum over the active
        pieces, which attain it."""
        x = _point_of(x, self.dim, self.label)
        pairs = self._nearest(x, DEFAULT_TIE_TOL)
        if not pairs:
            raise EmptySelectionError(f"rule of set {self.label!r} selected no "
                                      f"piece at {x}")
        return min(projections.norm(x - p) for _, p in pairs)

    def contains(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        tol = _check_tol(tol, "tol")
        return self.distance(x) <= tol

    def active(self, x, tie_tol: float = DEFAULT_TIE_TOL) -> list[Index]:
        """Indices of pieces attaining the distance, within tie_tol."""
        tie_tol = _check_tol(tie_tol, "tie_tol")
        x = _point_of(x, self.dim, self.label)
        return [i for i, _ in self._nearest(x, tie_tol)]

    def _nearest(self, x: np.ndarray, tie_tol: float) -> list:
        """The rule's active (index, projection) pairs at a validated x: the
        lone form's pair where it returns one, else the block rule's pairs
        on the one row x[None]."""
        pair = self._lone(tie_tol, x)
        if pair is not None:
            return [pair]
        _, keys, P = self._nearest_rows(x[None], tie_tol)
        return list(zip(keys, P))

    def _distance_lone(self, tie_tol: float, x: np.ndarray):
        """The distance rule's lone form: every piece projects x."""
        return _one_pair(x, [(i, np.asarray(p.project(x), dtype=float))
                             for i, p in self.pieces.items()], tie_tol)

    def _distance_rows(self, X: np.ndarray, tie_tol: float) -> tuple:
        """The distance rule on a block: each piece projects it once
        (:func:`_nearest_of`).  One piece keeps every row whose projection
        holds no NaN, as its lone form keeps its pair."""
        keys = list(self.pieces)
        if len(keys) > 1:
            return _nearest_of(X, [(np.arange(len(X)), [i] * len(X),
                                    _projector(self.pieces[i]).rows(X)) for i in keys],
                               tie_tol)
        P = _projector(self.pieces[keys[0]]).rows(X)
        if not projections._has_nan(P):
            return np.arange(len(X)), keys * len(X), P
        rows = np.flatnonzero(~np.isnan(P).any(axis=1))
        return rows, keys * len(rows), P[rows]


def _rule_set(pieces: Mapping, label: str, dim: int, nearest_rows: Callable,
              lone: Callable) -> UnionConvexSet:
    """Set of dimension dim whose rule is ``nearest_rows`` with lone form
    ``lone``, encodings its builder proves equal to the distance rule, as
    :func:`~unionfix.core_ops._rule_map` gives a map its rule."""
    S = UnionConvexSet(pieces, label)
    S._nearest_rows, S._lone, S._dim = nearest_rows, lone, dim
    return S


def _convex_set(project, project_many, label: str,
                witness: np.ndarray) -> UnionConvexSet:
    """One-piece set given by its projection, its batched sibling and a
    member point."""
    return UnionConvexSet({0: ConvexSetPiece(project, label, witness, project_many)},
                          label=label)


def _singleton_projections(c: np.ndarray) -> tuple:
    """The projection onto {c} and its batched sibling: copies of c."""
    return (lambda x: np.array(c)), (lambda X: np.tile(c, (len(X), 1)))


def singleton_set(point, label: str = "") -> UnionConvexSet:
    c = as_vector(point)
    return _convex_set(*_singleton_projections(c), label or "singleton", c)


def box_set(lo, hi, label: str = "") -> UnionConvexSet:
    lo, hi = as_vector(lo), as_vector(hi)
    if np.any(lo > hi):
        raise ValueError("box requires lo <= hi componentwise")

    lo_rows, hi_rows = projections.RepeatedRows(lo), projections.RepeatedRows(hi)
    return _convex_set(lambda x: projections.project_box(lo, hi, x),
                       lambda X: projections.project_box_many(lo_rows, hi_rows, X),
                       label or "box", (lo + hi) / 2.0)


def ball_set(center, radius: float, label: str = "") -> UnionConvexSet:
    center = as_vector(center)
    radius = float(radius)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    rows = projections.RepeatedRows(center)
    return _convex_set(lambda x: projections.project_ball(center, radius, x),
                       lambda X: projections.project_ball_many(rows, radius, X),
                       label or "ball", center)


def halfspace_set(a, beta: float, label: str = "") -> UnionConvexSet:
    a = as_vector(a)
    beta = float(beta)
    a_sq = float(projections._sumsq(a))  # an overflow is refused below
    if a_sq == 0.0:
        raise ValueError("halfspace normal must be nonzero")
    if a_sq == math.inf:
        raise ValueError(f"halfspace normal a = {a.tolist()} is too long: "
                         f"||a||^2 overflows")
    return _convex_set(lambda x: projections.project_halfspace(a, a_sq, beta, x),
                       lambda X: projections.project_halfspace_many(a, a_sq, beta, X),
                       label or "halfspace", (beta / a_sq) * a)


def affine_set(A, b, label: str = "") -> UnionConvexSet:
    """Solution set {x : Ax = b}; stores an orthonormal null-space basis."""
    witness, basis = projections.affine_solution_parts(A, b)
    rows = projections.RepeatedRows(witness)
    return _convex_set(projections.span_projection(basis, witness),
                       lambda X: projections.project_span_many(basis, X, rows),
                       label or "affine", witness)


def span_set(vectors, offset=None, label: str = "") -> UnionConvexSet:
    """Affine subspace offset + span(columns of vectors)."""
    basis = projections.orthonormal_basis(np.asarray(vectors, dtype=float))
    off = np.zeros(basis.shape[0]) if offset is None else as_vector(offset)
    rows = projections.RepeatedRows(off)
    return _convex_set(projections.span_projection(basis, off),
                       lambda X: projections.project_span_many(basis, X, rows),
                       label or "span", off)


def union_of_sets(sets: Iterable[UnionConvexSet], label: str = "") -> UnionConvexSet:
    """Union of the members' pieces, keyed (j, i) for piece i of a member j
    with more than one piece and j otherwise; built lazily.

    Each member's own rule picks its candidate pieces, and the candidates
    within tie_tol of the smallest candidate distance are active.  For
    members that follow the distance rule this is the all-piece distance
    scan, order included: a piece a member leaves out is farther than
    tie_tol beyond that member's nearest, so beyond the union's nearest.

    Its block rule merges its members' block rules by row and keeps the
    candidates near each row's smallest distance (:func:`_nearest_of`); its
    lone form is the one pair of a scan over its members' ``_nearest``.
    """
    members = list(sets)
    single = [piece_count(m.pieces) == 1 for m in members]

    def key(j, i):
        return j if single[j] else (j, i)

    def piece(key):
        if isinstance(key, tuple):
            return members[key[0]].pieces[key[1]]
        (only,) = members[key].pieces.values()
        return only

    def contains(key) -> bool:
        if type(key) is int:
            return 0 <= key < len(members) and single[key]
        return (isinstance(key, tuple) and len(key) == 2
                and type(key[0]) is int and 0 <= key[0] < len(members)
                and not single[key[0]] and key[1] in members[key[0]].pieces)

    def keys():
        return (key(j, i) for j, m in enumerate(members) for i in m.pieces)

    def nearest_rows(X, tie_tol):
        parts = [m._nearest_rows(X, tie_tol) for m in members]
        return _nearest_of(X, [(rows, [key(j, i) for i in ks], P)
                               for j, (rows, ks, P) in enumerate(parts)], tie_tol)

    def lone(tie_tol, x):
        return _one_pair(x, [(key(j, i), p) for j, m in enumerate(members)
                             for i, p in m._nearest(x, tie_tol)], tie_tol)

    pieces = LazyPieces(piece, contains, keys,
                        sum(piece_count(m.pieces) for m in members))
    return _rule_set(pieces, label or "union", _merge_dim(members), nearest_rows, lone)


def _band_supports(mags, ranked, kth: float, s: int, tie_tol: float) -> list:
    """The magnitude rule's supports of size s at the magnitudes ``mags``
    (``ranked`` ascending, kth = m_s, the s-th largest, inf for s = 0), in
    lexicographic order, from the top-s band: an index whose magnitude
    exceeds m_s by more than tie_tol is in every active support, and one
    below the (s+1)-th largest m_(s+1) by more than tie_tol is in none, so
    only the indices between the two are combined.
    """
    low = ranked[len(mags) - s - 1] - tie_tol
    # the rule's max over the indices below low, which no support holds
    below = bisect.bisect_left(ranked, low)
    outside_below = ranked[below - 1] if below else 0.0
    fixed, band = [], {}
    for i, m in enumerate(mags):
        if m >= low:
            if m - tie_tol > kth:
                fixed.append(i)
            else:
                band[i] = m
    inside_fixed = min((mags[i] for i in fixed), default=math.inf)
    by_size = sorted(band, key=band.__getitem__, reverse=True)
    free = s - len(fixed)  # >= 0, as each fixed index exceeds m_s
    # combinations of the ascending band, each merged with the fixed
    # indices, come out in lexicographic order, as the scan's supports
    out = []
    for combo in itertools.combinations(band, free):
        inside = min([inside_fixed] + [band[i] for i in combo])
        # the largest band magnitude left out, found within free + 1 looks
        left = next((band[i] for i in by_size if i not in combo), 0.0)
        if inside >= max(outside_below, left) - tie_tol:
            out.append(tuple(sorted(fixed + list(combo))))
    return out


def sparsity_set(n: int, s: int) -> UnionConvexSet:
    """All points with at most s nonzero entries, as a union of the C(n, s)
    coordinate subspaces, keyed by support tuple (increasing Python ints).
    Pieces are built lazily, on first lookup.

    Its rule is the distance rule in magnitudes: a support is nearest when
    its smallest in-support magnitude is at least the largest out-of-support
    one, and active when that holds within tie_tol, which bounds magnitudes,
    not distances (:func:`_band_supports`, which enumerates the ties).

    Gap test: with m_s and m_(s+1) the s-th and (s+1)-th largest
    magnitudes (m_s = inf for s = 0) and m_(s+1) < m_s - tie_tol, the
    top-s support is the only active one, so the rule is that support with
    its projection, without the band scan.  The scan gives the same list:
    tie_tol being nonnegative (checked where it enters), the top-s support
    passes, as m_(s+1) - tie_tol <= m_(s+1) < m_s, and any other support
    holds a magnitude <= m_(s+1) and leaves one >= m_s out, so fails, as
    rounding is monotone and m_(s+1) < fl(m_s - tie_tol).  Where the test
    fails the band scan returns no lone pair either, as then m_(s+1) >=
    fl(m_s - tie_tol) and the top-s support with m_(s+1)'s index swapped
    for m_s's passes too.  The lone form is the test at one point; the
    block rule takes it on the whole block, and runs the band scan on the
    block's own sorted magnitudes at the rows that fail it.  Neither
    builds a piece where the test passes.
    """
    if not (0 <= s <= n - 1):
        raise ValueError(f"sparsity level must satisfy 0 <= s <= n-1, got s={s}, n={n}")

    def support_piece(sup):
        idx = np.array(sup, dtype=np.intp)
        return ConvexSetPiece(
            project=lambda x: projections.project_support(idx, x),
            label=f"support{sup}",
            witness=np.zeros(n),
            project_many=lambda X: projections.project_support_many(idx, X),
        )

    def is_support(key) -> bool:
        return (isinstance(key, tuple) and len(key) == s
                and all(type(i) is int and 0 <= i < n for i in key)
                and all(a < b for a, b in zip(key, key[1:])))

    pieces = LazyPieces(support_piece, is_support,
                        lambda: itertools.combinations(range(n), s), math.comb(n, s))

    def lone(tie_tol, x):
        """The top-s support and its projection, computed here, where the
        gap test passes; None where it fails."""
        mags = np.abs(x).tolist()
        ranked = sorted(mags)
        kth = ranked[n - s] if s else math.inf
        if not ranked[n - s - 1] < kth - tie_tol:
            return None
        support = tuple([i for i, m in enumerate(mags) if m >= kth])
        p = np.zeros(n)
        for i in support:  # bit for bit the piece's projection
            p[i] = x[i]
        return support, p

    def nearest_rows(X, tie_tol):
        """The rows that pass the gap test at once, each with its top-s
        support and projection; the band scan's pairs at the others."""
        M = np.abs(X)
        ranked = np.sort(M, axis=1)
        kth = ranked[:, n - s] if s else np.full(len(X), math.inf)
        passed = ranked[:, n - s - 1] < kth - tie_tol
        parts = []
        if passed.any():
            rows = np.flatnonzero(passed)
            mask = M[rows] >= kth[rows, None]  # s entries per row
            supports = np.nonzero(mask)[1].reshape(len(rows), s).tolist()
            # where, not X * mask: the product turns a negative entry into -0.0
            parts.append((rows, list(map(tuple, supports)),
                          np.where(mask, X[rows], 0.0)))
        if not passed.all():
            ties = [(r, sup) for r in np.flatnonzero(~passed).tolist()
                    for sup in _band_supports(M[r].tolist(), ranked[r].tolist(),
                                              float(kth[r]), s, tie_tol)]
            parts.append((np.array([r for r, _ in ties], dtype=np.intp),
                          [sup for _, sup in ties],
                          np.array([pieces[sup].project(X[r]) for r, sup in ties])))
        return parts[0] if len(parts) == 1 else _merge_rows(parts)

    return _rule_set(pieces, f"sparsity({n},{s})", n, nearest_rows, lone)


def _projector(p: ConvexSetPiece) -> AveragedMap:
    return AveragedMap(p.project, alpha=0.5, label=p.label, many=p.project_many)


def project_union(A: UnionConvexSet, tie_tol: float = DEFAULT_TIE_TOL) -> UnionMap:
    """Multi-valued nearest-point projector as a 1/2-averaged union map of
    A's dimension (``A.dim``).

    Its block rule is A's (``A._nearest_rows``), which raises as ``_pairs``
    does at the first row with no pair, and its lone form is A's
    (``A._lone``), both with tie_tol bound; its scalar rule is derived from
    them, as A's ``_nearest`` is."""
    tie_tol = _check_tol(tie_tol, "tie_tol")

    def rule_rows(X):
        rows, keys, P = A._nearest_rows(X, tie_tol)
        counts = np.bincount(rows, minlength=len(X))
        if not counts.all():
            raise T._no_pairs(X[counts.argmin()])
        return rows, keys, P

    T = _rule_map(map_pieces(A.pieces, _projector), alpha=0.5, dim=A.dim,
                  label=f"P[{A.label}]", rule_rows=rule_rows,
                  lone=functools.partial(A._lone, tie_tol))
    return T


def reflect_union(A: UnionConvexSet, tie_tol: float = DEFAULT_TIE_TOL) -> UnionMap:
    """Multi-valued reflector 2P - Id, nonexpansive (alpha sentinel 1): the
    relaxation of the 1/2-averaged projector with lambda = 2.  Its points
    -x + 2p are bit for bit 2p - x, signed zeros included."""
    return relax(project_union(A, tie_tol), 2.0, label=f"R[{A.label}]")


def dr_operator(
    A: UnionConvexSet, B: UnionConvexSet, tie_tol: float = DEFAULT_TIE_TOL
) -> UnionMap:
    """Two-set Douglas-Rachford operator (Id + R_B R_A) / 2: the
    :func:`~unionfix.core_ops.dr_map` of the two projectors.
    """
    return dr_map(project_union(A, tie_tol), project_union(B, tie_tol),
                  label=f"T[{A.label},{B.label}]")
