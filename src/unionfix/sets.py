"""Union-convex sets, multi-valued projectors/reflectors, and the
two-set Douglas-Rachford operator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from unionfix import projections
from unionfix.core_ops import (
    DEFAULT_TIE_TOL,
    AveragedMap,
    Index,
    UnionMap,
    as_vector,
    dr_map,
)

MEMBERSHIP_TOL = 1e-9


@dataclass(frozen=True)
class ConvexSetPiece:
    """One closed convex component, given by its nearest-point projection.

    ``witness`` is a known member point, stored to certify nonemptiness.
    """

    project: Callable[[np.ndarray], np.ndarray]
    label: str
    witness: np.ndarray

    def distance(self, x) -> float:
        x = as_vector(x)
        return float(np.linalg.norm(x - self.project(x)))

    def contains(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        return self.distance(x) <= tol


class UnionConvexSet:
    """Finite union of closed convex pieces.

    ``selector_override`` lets a set supply a specialized active-index rule
    (the sparsity constraint does); the default rule compares distances.
    """

    def __init__(
        self,
        pieces: Mapping[Index, ConvexSetPiece],
        selector_override: Callable[[np.ndarray, float], Iterable[Index]] | None = None,
        label: str = "",
    ):
        if not pieces:
            raise ValueError("a union-convex set needs at least one piece")
        self.pieces = dict(pieces)
        self.selector_override = selector_override
        self.label = label

    def distance(self, x) -> float:
        return min(p.distance(x) for p in self.pieces.values())

    def contains(self, x, tol: float = MEMBERSHIP_TOL) -> bool:
        return self.distance(x) <= tol

    def active(self, x, tie_tol: float = DEFAULT_TIE_TOL) -> list[Index]:
        """Indices of pieces attaining the distance, within tie_tol."""
        x = as_vector(x)
        if self.selector_override is not None:
            return list(self.selector_override(x, tie_tol))
        dists = {i: p.distance(x) for i, p in self.pieces.items()}
        dmin = min(dists.values())
        return [i for i, d in dists.items() if d <= dmin + tie_tol]


def singleton_set(point, label: str = "") -> UnionConvexSet:
    c = as_vector(point)
    piece = ConvexSetPiece(
        project=lambda x: np.array(c), label=label or "singleton", witness=c
    )
    return UnionConvexSet({0: piece}, label=piece.label)


def box_set(lo, hi, label: str = "") -> UnionConvexSet:
    lo, hi = as_vector(lo), as_vector(hi)
    if np.any(lo > hi):
        raise ValueError("box requires lo <= hi componentwise")
    piece = ConvexSetPiece(
        project=lambda x: projections.project_box(lo, hi, x),
        label=label or "box",
        witness=(lo + hi) / 2.0,
    )
    return UnionConvexSet({0: piece}, label=piece.label)


def ball_set(center, radius: float, label: str = "") -> UnionConvexSet:
    center = as_vector(center)
    radius = float(radius)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    piece = ConvexSetPiece(
        project=lambda x: projections.project_ball(center, radius, x),
        label=label or "ball",
        witness=center,
    )
    return UnionConvexSet({0: piece}, label=piece.label)


def halfspace_set(a, beta: float, label: str = "") -> UnionConvexSet:
    a = as_vector(a)
    beta = float(beta)
    if np.linalg.norm(a) == 0.0:
        raise ValueError("halfspace normal must be nonzero")
    witness = (beta / float(np.dot(a, a))) * a
    piece = ConvexSetPiece(
        project=lambda x: projections.project_halfspace(a, beta, x),
        label=label or "halfspace",
        witness=witness,
    )
    return UnionConvexSet({0: piece}, label=piece.label)


def affine_set(A, b, label: str = "") -> UnionConvexSet:
    """Solution set {x : Ax = b}; stores an orthonormal null-space basis."""
    witness, basis = projections.affine_solution_parts(A, b)
    piece = ConvexSetPiece(
        project=lambda x: projections.project_span(basis, x, offset=witness),
        label=label or "affine",
        witness=witness,
    )
    return UnionConvexSet({0: piece}, label=piece.label)


def span_set(vectors, offset=None, label: str = "") -> UnionConvexSet:
    """Affine subspace offset + span(columns of vectors)."""
    basis = projections.orthonormal_basis(np.asarray(vectors, dtype=float))
    off = np.zeros(basis.shape[0]) if offset is None else as_vector(offset)
    piece = ConvexSetPiece(
        project=lambda x: projections.project_span(basis, x, offset=off),
        label=label or "span",
        witness=off,
    )
    return UnionConvexSet({0: piece}, label=piece.label)


def union_of_sets(sets: Iterable[UnionConvexSet], label: str = "") -> UnionConvexSet:
    pieces: dict[Index, ConvexSetPiece] = {}
    for j, s in enumerate(sets):
        for i, p in s.pieces.items():
            pieces[(j, i) if len(s.pieces) > 1 else j] = p
    return UnionConvexSet(pieces, label=label or "union")


def sparsity_set(n: int, s: int) -> UnionConvexSet:
    """All points with at most s nonzero entries, as a union of the C(n, s)
    coordinate subspaces, keyed by support tuple.

    The active selector follows the magnitude rule: a support is active
    when its smallest in-support magnitude is at least the largest
    out-of-support magnitude (within tie_tol).  This agrees with the
    distance rule but enumerates magnitude ties explicitly.
    """
    if not (0 <= s <= n - 1):
        raise ValueError(f"sparsity level must satisfy 0 <= s <= n-1, got s={s}, n={n}")
    supports = [tuple(c) for c in itertools.combinations(range(n), s)]
    pieces = {
        sup: ConvexSetPiece(
            project=lambda x, sup=sup: projections.project_support(sup, x),
            label=f"support{sup}",
            witness=np.zeros(n),
        )
        for sup in supports
    }

    def magnitude_selector(x, tie_tol):
        mags = np.abs(x)
        out = []
        for sup in supports:
            inside = min((mags[i] for i in sup), default=np.inf)
            outside = max((mags[i] for i in range(n) if i not in sup), default=0.0)
            if inside >= outside - tie_tol:
                out.append(sup)
        return out

    return UnionConvexSet(pieces, selector_override=magnitude_selector,
                          label=f"sparsity({n},{s})")


def project_union(A: UnionConvexSet, tie_tol: float = DEFAULT_TIE_TOL) -> UnionMap:
    """Multi-valued nearest-point projector as a 1/2-averaged union map."""
    pieces = {
        i: AveragedMap(p.project, alpha=0.5, label=p.label)
        for i, p in A.pieces.items()
    }
    return UnionMap(
        pieces,
        lambda x: A.active(x, tie_tol),
        alpha=0.5,
        label=f"P[{A.label}]",
    )


def reflect_union(A: UnionConvexSet, tie_tol: float = DEFAULT_TIE_TOL) -> UnionMap:
    """Multi-valued reflector 2P - Id, nonexpansive (alpha sentinel 1)."""
    pieces = {
        i: AveragedMap(
            lambda x, p=p: 2.0 * p.project(x) - x, alpha=1.0, label=p.label
        )
        for i, p in A.pieces.items()
    }
    return UnionMap(
        pieces,
        lambda x: A.active(x, tie_tol),
        alpha=1.0,
        label=f"R[{A.label}]",
    )


def dr_operator(
    A: UnionConvexSet, B: UnionConvexSet, tie_tol: float = DEFAULT_TIE_TOL
) -> UnionMap:
    """Two-set Douglas-Rachford operator (Id + R_B R_A) / 2: the
    :func:`~unionfix.core_ops.dr_map` of the two projectors.
    """
    return dr_map(project_union(A, tie_tol), project_union(B, tie_tol),
                  label=f"T[{A.label},{B.label}]")
