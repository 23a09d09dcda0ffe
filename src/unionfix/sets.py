"""Union-convex sets, multi-valued projectors/reflectors, and the
two-set Douglas-Rachford operator.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from unionfix import projections
from unionfix.core_ops import (
    DEFAULT_TIE_TOL,
    AveragedMap,
    EmptySelectionError,
    Index,
    LazyPieces,
    UnionMap,
    _check_tol,
    _near_min,
    _rule_map,
    as_vector,
    dr_map,
    map_pieces,
    piece_count,
)

MEMBERSHIP_TOL = 1e-9


def _closest(x: np.ndarray, pairs: list, tie_tol: float) -> list:
    """The (index, projection) pairs within tie_tol of the smallest distance.

    A lone candidate at distance v is kept when v <= v + tie_tol, which for
    the nonnegative tie_tol fails only for v = NaN: (x being finite) a
    projection holding a NaN, so the distance is not computed.
    """
    if len(pairs) == 1:
        return [] if np.isnan(pairs[0][1]).any() else pairs
    return _near_min(pairs, [float(np.linalg.norm(x - p)) for _, p in pairs], tie_tol)


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
        x = as_vector(x)
        return float(np.linalg.norm(x - self.project(x)))

    def contains(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        return self.distance(x) <= tol


class UnionConvexSet:
    """Finite union of closed convex pieces.

    ``selector_override`` lets a set supply a specialized active-index rule
    (the sparsity constraint and unions of sets do); the default rule
    compares distances.  The rule receives a validated float array.
    A :class:`~unionfix.core_ops.LazyPieces` is kept as given, any other
    mapping is copied.

    ``_nearest_rows(X, tie_tol)``, when not None, is the rule on a
    validated (N, d) block: ``(rows, keys, P)``, the pairs of ``_nearest``
    at the rows it decides at once (rows ascending, each row's pairs in
    rule order, each projection bit for bit the scalar one); the rows it
    leaves out go through the scalar rule.  Sets that follow the distance
    rule have :meth:`_distance_rows`; the sparsity set has its top-s rows.
    """

    def __init__(
        self,
        pieces: Mapping[Index, ConvexSetPiece],
        selector_override: Callable[[np.ndarray, float], Iterable[Index]] | None = None,
        label: str = "",
    ):
        if not pieces:
            raise ValueError("a union-convex set needs at least one piece")
        self.pieces = pieces if isinstance(pieces, LazyPieces) else dict(pieces)
        self.selector_override = selector_override
        self.label = label
        self._nearest_rows = self._distance_rows if selector_override is None else None

    def distance(self, x) -> float:
        """Distance to the nearest piece: the minimum over the active
        pieces, which attain it."""
        x = as_vector(x)
        pairs = self._nearest(x, DEFAULT_TIE_TOL)
        if not pairs:
            raise EmptySelectionError(f"rule of set {self.label!r} selected no "
                                      f"piece at {x}")
        return min(float(np.linalg.norm(x - p)) for _, p in pairs)

    def contains(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        return self.distance(x) <= tol

    def active(self, x, tie_tol: float = DEFAULT_TIE_TOL) -> list[Index]:
        """Indices of pieces attaining the distance, within tie_tol."""
        tie_tol = _check_tol(tie_tol, "tie_tol")
        return [i for i, _ in self._nearest(as_vector(x), tie_tol)]

    def _nearest(self, x: np.ndarray, tie_tol: float) -> list[tuple[Index, np.ndarray]]:
        """The active-index rule at a validated x, with the projections it
        computed: the override's choice, or the distance rule."""
        if self.selector_override is not None:
            return [(i, np.asarray(self.pieces[i].project(x), dtype=float))
                    for i in self.selector_override(x, tie_tol)]
        return _closest(x, [(i, np.asarray(p.project(x), dtype=float))
                            for i, p in self.pieces.items()], tie_tol)

    def _distance_rows(self, X: np.ndarray, tie_tol: float) -> tuple:
        """The distance rule on a block: each piece projects it once.  It
        decides no row when a distance is NaN, as a projection callback may
        return: the scalar rule then depends on the piece order.
        """
        keys = list(self.pieces)
        P = np.stack([_projector(self.pieces[i]).rows(X) for i in keys])
        dist = projections.row_norms(X - P)
        if np.isnan(dist).any():
            return np.empty(0, dtype=np.intp), [], np.empty((0, X.shape[1]))
        rows, cols = np.nonzero((dist <= dist.min(axis=0) + tie_tol).T)
        return rows, [keys[c] for c in cols.tolist()], P[cols, rows]


def _convex_set(project, project_many, label: str,
                witness: np.ndarray) -> UnionConvexSet:
    """One-piece set given by its projection, its batched sibling and a
    member point."""
    return UnionConvexSet({0: ConvexSetPiece(project, label, witness, project_many)},
                          label=label)


def singleton_set(point, label: str = "") -> UnionConvexSet:
    c = as_vector(point)
    return _convex_set(lambda x: np.array(c), lambda X: np.tile(c, (len(X), 1)),
                       label or "singleton", c)


def box_set(lo, hi, label: str = "") -> UnionConvexSet:
    lo, hi = as_vector(lo), as_vector(hi)
    if np.any(lo > hi):
        raise ValueError("box requires lo <= hi componentwise")

    def project(x):  # elementwise, so it projects a block of rows as well
        return projections.project_box(lo, hi, x)

    return _convex_set(project, project, label or "box", (lo + hi) / 2.0)


def ball_set(center, radius: float, label: str = "") -> UnionConvexSet:
    center = as_vector(center)
    radius = float(radius)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    return _convex_set(lambda x: projections.project_ball(center, radius, x),
                       lambda X: projections.project_ball_many(center, radius, X),
                       label or "ball", center)


def halfspace_set(a, beta: float, label: str = "") -> UnionConvexSet:
    a = as_vector(a)
    beta = float(beta)
    if np.linalg.norm(a) == 0.0:
        raise ValueError("halfspace normal must be nonzero")
    return _convex_set(lambda x: projections.project_halfspace(a, beta, x),
                       lambda X: projections.project_halfspace_many(a, beta, X),
                       label or "halfspace", (beta / float(np.dot(a, a))) * a)


def affine_set(A, b, label: str = "") -> UnionConvexSet:
    """Solution set {x : Ax = b}; stores an orthonormal null-space basis."""
    witness, basis = projections.affine_solution_parts(A, b)
    return _convex_set(lambda x: projections.project_span(basis, x, offset=witness),
                       lambda X: projections.project_span_many(basis, X, witness),
                       label or "affine", witness)


def span_set(vectors, offset=None, label: str = "") -> UnionConvexSet:
    """Affine subspace offset + span(columns of vectors)."""
    basis = projections.orthonormal_basis(np.asarray(vectors, dtype=float))
    off = np.zeros(basis.shape[0]) if offset is None else as_vector(offset)
    return _convex_set(lambda x: projections.project_span(basis, x, offset=off),
                       lambda X: projections.project_span_many(basis, X, off),
                       label or "span", off)


def union_of_sets(sets: Iterable[UnionConvexSet], label: str = "") -> UnionConvexSet:
    """Union of the members' pieces, keyed (j, i) for piece i of a member j
    with more than one piece and j otherwise; built lazily.

    Each member's own rule picks its candidate pieces, and the candidates
    within tie_tol of the smallest candidate distance are active.  For
    members that follow the distance rule this is the all-piece distance
    scan, order included: a piece a member leaves out is farther than
    tie_tol beyond that member's nearest, so beyond the union's nearest.
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

    def nearest(x, tie_tol):
        return _closest(x, [(key(j, i), p) for j, m in enumerate(members)
                            for i, p in m._nearest(x, tie_tol)], tie_tol)

    pieces = LazyPieces(piece, contains, keys,
                        sum(piece_count(m.pieces) for m in members))
    union = UnionConvexSet(
        pieces, selector_override=lambda x, tie_tol: [k for k, _ in nearest(x, tie_tol)],
        label=label or "union")
    union._nearest = nearest  # keeps the projections it compared
    return union


def sparsity_set(n: int, s: int) -> UnionConvexSet:
    """All points with at most s nonzero entries, as a union of the C(n, s)
    coordinate subspaces, keyed by support tuple (increasing Python ints).
    Pieces are built lazily, on first lookup.

    The active selector follows the magnitude rule: a support is active
    when its smallest in-support magnitude is at least the largest
    out-of-support magnitude (within tie_tol).  This agrees with the
    distance rule but enumerates magnitude ties explicitly.

    Fast path: with m_s and m_(s+1) the s-th and (s+1)-th largest
    magnitudes (m_s = inf for s = 0) and m_(s+1) < m_s - tie_tol, the
    top-s support is the only active one and is returned without the band
    scan.  The scan gives the same list: tie_tol being nonnegative (checked
    where it enters), the top-s support passes, as m_(s+1) - tie_tol <=
    m_(s+1) < m_s, and any other support holds a magnitude <= m_(s+1) and
    leaves one >= m_s out, so fails, as rounding is monotone and
    m_(s+1) < fl(m_s - tie_tol).
    The projector and reflector of the set take the same test on a whole
    block; the rows that fail it go through the scalar rule.
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

    def magnitude_selector(x, tie_tol):
        """The magnitude rule's supports, in lexicographic order, from the
        top-s band: an index whose magnitude exceeds the s-th largest m_s
        by more than tie_tol is in every active support, and one below the
        (s+1)-th largest m_(s+1) by more than tie_tol is in none, so only
        the indices between the two are combined.
        """
        mags = np.abs(x).tolist()
        ranked = sorted(mags)
        kth = ranked[n - s] if s else math.inf
        if ranked[n - s - 1] < kth - tie_tol:
            return [tuple(i for i, m in enumerate(mags) if m >= kth)]
        low = ranked[n - s - 1] - tie_tol
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

    def top_rows(X, tie_tol):
        """The selector's fast path on a block: the rows that pass its test,
        each with its top-s support and projection."""
        M = np.abs(X)
        ranked = np.sort(M, axis=1)
        kth = ranked[:, n - s] if s else np.full(len(X), math.inf)
        rows = np.flatnonzero(ranked[:, n - s - 1] < kth - tie_tol)
        mask = M[rows] >= kth[rows, None]  # s entries per row
        supports = np.nonzero(mask)[1].reshape(len(rows), s).tolist()
        # where, not X * mask: the product turns a negative entry into -0.0
        return rows, list(map(tuple, supports)), np.where(mask, X[rows], 0.0)

    C = UnionConvexSet(pieces, selector_override=magnitude_selector,
                       label=f"sparsity({n},{s})")
    C._nearest_rows = top_rows
    return C


def _projector(p: ConvexSetPiece) -> AveragedMap:
    return AveragedMap(p.project, alpha=0.5, label=p.label, many=p.project_many)


def _reflector(p: ConvexSetPiece) -> AveragedMap:
    P = _projector(p)
    return AveragedMap(lambda x: 2.0 * p.project(x) - x, alpha=1.0, label=p.label,
                       many=lambda X: 2.0 * P.rows(X) - X)


def _rows_rule(T: UnionMap, A: UnionConvexSet, tie_tol: float,
               finish: Callable) -> UnionMap:
    """Give T, whose rule maps each of A's active projections p at x to
    ``finish(x, p)``, the batched form of that rule when A has one
    (``A._nearest_rows``); other sets keep the row loop.

    The rows that A's block rule leaves out go through T's scalar rule, and
    the pairs are merged in row order, so the block raises wherever the row
    loop would.
    """
    if A._nearest_rows is None:
        return T

    def rule_rows(X):
        rows, keys, P = A._nearest_rows(X, tie_tol)
        points = finish(X[rows], P)
        left = np.ones(len(X), dtype=bool)
        left[rows] = False
        if not left.any():
            return rows, keys, points
        rest = [(r, i, v) for r in np.flatnonzero(left).tolist()
                for i, v in T._pairs(X[r])]
        rows = np.concatenate([rows, np.array([r for r, _, _ in rest], dtype=np.intp)])
        keys = keys + [i for _, i, _ in rest]
        points = np.concatenate([points, np.stack([v for _, _, v in rest])])
        order = np.argsort(rows, kind="stable")
        return rows[order], [keys[k] for k in order.tolist()], points[order]

    T._rule_rows = rule_rows
    return T


def project_union(A: UnionConvexSet, tie_tol: float = DEFAULT_TIE_TOL) -> UnionMap:
    """Multi-valued nearest-point projector as a 1/2-averaged union map."""
    tie_tol = _check_tol(tie_tol, "tie_tol")
    T = _rule_map(map_pieces(A.pieces, _projector),
                  lambda x: A._nearest(x, tie_tol), alpha=0.5, label=f"P[{A.label}]")
    return _rows_rule(T, A, tie_tol, lambda X, P: P)


def reflect_union(A: UnionConvexSet, tie_tol: float = DEFAULT_TIE_TOL) -> UnionMap:
    """Multi-valued reflector 2P - Id, nonexpansive (alpha sentinel 1)."""
    tie_tol = _check_tol(tie_tol, "tie_tol")
    T = _rule_map(map_pieces(A.pieces, _reflector),
                  lambda x: [(i, 2.0 * p - x) for i, p in A._nearest(x, tie_tol)],
                  alpha=1.0, label=f"R[{A.label}]")
    return _rows_rule(T, A, tie_tol, lambda X, P: 2.0 * P - X)


def dr_operator(
    A: UnionConvexSet, B: UnionConvexSet, tie_tol: float = DEFAULT_TIE_TOL
) -> UnionMap:
    """Two-set Douglas-Rachford operator (Id + R_B R_A) / 2: the
    :func:`~unionfix.core_ops.dr_map` of the two projectors.
    """
    return dr_map(project_union(A, tie_tol), project_union(B, tie_tol),
                  label=f"T[{A.label},{B.label}]")
