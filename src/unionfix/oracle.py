"""Independent brute-force verification: grid prox, attraction-radius
estimation, inequality sampling, and fixed-point classification.

All oracles are deterministic under fixed seeds and are capped at
dimension 3 / 1e7 grid evaluations: higher-dimensional claims are checked
through invariants rather than enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from unionfix.core_ops import (
    BLOCK_ROWS,
    AveragednessReport,
    Index,
    UnionMap,
    _check_tol,
    as_vector,
    check_averaged,
    piece_count,
)
from unionfix.minconvex import MinConvexFn, _value_rows

MAX_GRID_DIM = 3
MAX_GRID_POINTS = 10_000_000


@dataclass(frozen=True)
class GridSpec:
    """Regular evaluation grid: per-axis (lo, hi) bounds and point count."""

    bounds: tuple[tuple[float, float], ...]
    points: int

    def __post_init__(self):
        if len(self.bounds) > MAX_GRID_DIM:
            raise ValueError(f"grid dimension capped at {MAX_GRID_DIM}")
        if self.points < 3:
            raise ValueError("need at least 3 points per axis")
        if self.points ** len(self.bounds) > MAX_GRID_POINTS:
            raise ValueError("grid exceeds the evaluation cap")
        for lo, hi in self.bounds:
            if not lo < hi:
                raise ValueError(f"need lo < hi per axis, got ({lo}, {hi})")

    @property
    def dim(self) -> int:
        return len(self.bounds)

    @property
    def cell_diameter(self) -> float:
        steps = [(hi - lo) / (self.points - 1) for lo, hi in self.bounds]
        return math.sqrt(sum(s * s for s in steps))

    def axes(self) -> list[np.ndarray]:
        return [np.linspace(lo, hi, self.points) for lo, hi in self.bounds]

    def nodes(self) -> np.ndarray:
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass
class BruteForceProx:
    points: list[np.ndarray]
    min_objective: float
    tolerance: float
    boundary_artifact: bool  # a returned point lies on the grid boundary


def brute_force_prox(
    f: MinConvexFn,
    gamma: float,
    x,
    grid: GridSpec,
    tol: float | None = None,
) -> BruteForceProx:
    """Grid minimization of y -> f(y) + ||x - y||^2 / (2 gamma).

    Returns every grid point whose objective is within ``tol``, a
    nonnegative number (default: one grid-cell diameter), of the grid
    minimum.  Points on the grid boundary are flagged: they may be
    artifacts of a grid that misses the true minimizer.  The objective is
    evaluated on blocks of BLOCK_ROWS nodes, bit-for-bit as
    ``value(f, y) + dot(x - y, x - y) / (2 gamma)`` at each node y; a NaN
    piece value raises ValueError.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    tol = grid.cell_diameter if tol is None else _check_tol(tol, "tol")
    x = as_vector(x)
    if x.size != grid.dim:
        raise ValueError("grid dimension must match x")
    nodes = grid.nodes()
    objs = np.empty(len(nodes))
    for start in range(0, len(nodes), BLOCK_ROWS):
        Y = nodes[start:start + BLOCK_ROWS]
        D = x - Y
        objs[start:start + len(Y)] = (_value_rows(f, Y)
                                      + np.vecdot(D, D) / (2.0 * gamma))
    finite = np.isfinite(objs)
    if not finite.any():
        raise ValueError("all grid objective values are infinite; grid misses dom f")
    best = float(objs[finite].min())
    keep = finite & (objs <= best + tol)
    points = [nodes[i] for i in np.flatnonzero(keep)]
    boundary = False
    for p in points:
        for k, (lo, hi) in enumerate(grid.bounds):
            if p[k] in (lo, hi):
                boundary = True
    return BruteForceProx(points=points, min_objective=best, tolerance=tol,
                          boundary_artifact=boundary)


@dataclass
class RadiusEstimate:
    """Probabilistic lower estimate of the radius of attraction."""

    radius: float
    delta_max: float
    samples: int
    hit_delta_max: bool
    counterexample: np.ndarray | None  # first rejection witness found


def estimate_radius(
    T: UnionMap,
    xstar,
    delta_max: float,
    samples: int = 200,
    seed: int = 0,
    bisect_iters: int = 40,
) -> RadiusEstimate:
    """Largest delta <= delta_max such that, on sampled points of the
    delta-ball around xstar, the selector only shrinks: phi(x) <= phi(x*).

    Bisection over delta with a fixed sample stream, so the estimate is
    deterministic and never increases with more samples (sample sets nest
    by prefix).  Samples are selected in blocks of BLOCK_ROWS
    (:func:`_first_outside`); the result is bit for bit that of a scan
    sample by sample with ``T.selector``.
    """
    if delta_max <= 0:
        raise ValueError("delta_max must be positive")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    xstar = as_vector(xstar)
    base = set(T.selector(xstar))
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((samples, xstar.size))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
    radii = rng.random(samples) ** (1.0 / xstar.size)

    counterexample = None

    def accept(delta) -> bool:
        nonlocal counterexample
        for start in range(0, samples, BLOCK_ROWS):
            blk = slice(start, start + BLOCK_ROWS)
            # row k is bit for bit the sample xstar + delta * r * d
            X = xstar + (delta * radii[blk])[:, None] * dirs[blk]
            row = _first_outside(T, X, base)
            if row is not None:
                if counterexample is None:
                    counterexample = X[row].copy()
                return False
        return True

    if accept(delta_max):
        return RadiusEstimate(radius=delta_max, delta_max=delta_max,
                              samples=samples, hit_delta_max=True,
                              counterexample=None)
    lo, hi = 0.0, delta_max
    for _ in range(bisect_iters):
        mid = 0.5 * (lo + hi)
        if accept(mid):
            lo = mid
        else:
            hi = mid
    return RadiusEstimate(radius=lo, delta_max=delta_max, samples=samples,
                          hit_delta_max=False, counterexample=counterexample)


def _first_outside(T: UnionMap, X: np.ndarray, base: set) -> int | None:
    """The first row of a block whose selection leaves ``base``, or None.

    A finite block of the map's dimension goes through the map's batched
    rule at once.  Any other block, and one on which that rule raises
    anything, is scanned with ``T.selector`` row by row, the reference: the
    scan stops at the first such row and meets the same errors in the same
    order.
    """
    if np.isfinite(X).all() and T.dim in (None, X.shape[1]):
        try:
            rows, keys, _ = T._rule_rows(X)
        except Exception:
            pass
        else:
            return next((r for r, i in zip(rows.tolist(), keys) if i not in base),
                        None)
    for k, x in enumerate(X):
        if not set(T.selector(x)) <= base:
            return k
    return None


def sample_pairs(
    lo, hi, count: int, seed: int = 0
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic uniform (x, y) pairs in the box [lo, hi]."""
    lo, hi = as_vector(lo), as_vector(hi)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(lo, hi, size=(count, lo.size))
    ys = rng.uniform(lo, hi, size=(count, lo.size))
    return list(zip(xs, ys))


def sample_inequality(
    T: UnionMap,
    alpha: float,
    region: tuple,
    pairs: int,
    seed: int = 0,
) -> AveragednessReport:
    """Sample the averagedness inequality piecewise over a box region.

    ``region`` is a (lo, hi) pair of vectors.  Returns the max signed
    violation per piece; nonpositive everywhere means the declared alpha
    is consistent with the samples.  More than MAX_GRID_POINTS piece
    evaluations (pairs x pieces) are refused before any piece is built.
    """
    count = piece_count(T.pieces)
    if pairs * count > MAX_GRID_POINTS:
        raise ValueError(
            f"{pairs} pairs x {count} pieces exceeds the evaluation cap "
            f"MAX_GRID_POINTS = {MAX_GRID_POINTS}")
    lo, hi = region
    return check_averaged(T, alpha, sample_pairs(lo, hi, pairs, seed))


@dataclass
class FixedPointReport:
    kind: str  # "not-fixed" | "fixed" | "strong-fixed"
    witnesses: list[Index]  # active indices whose piece fixes x
    residuals: dict
    singleton: bool  # evaluation set is a single point (within tol)
    consistent: bool  # strong-fixed iff fixed and singleton

    @property
    def is_fixed(self) -> bool:
        return self.kind in ("fixed", "strong-fixed")


def verify_fixed_classification(
    T: UnionMap, x, tol: float = 1e-9
) -> FixedPointReport:
    """Classify x against T by direct evaluation and cross-check that the
    strong fixed point set is the fixed point set intersected with the
    single-valued set.
    """
    x = as_vector(x)
    values = T.evaluate(x)
    residuals = {i: float(np.linalg.norm(v - x)) for i, v in values}
    witnesses = [i for i, r in residuals.items() if r <= tol]
    fixed = bool(witnesses)
    strong = all(r <= tol for r in residuals.values())
    kind = "strong-fixed" if (fixed and strong) else "fixed" if fixed else "not-fixed"
    points = [v for _, v in values]
    singleton = all(
        float(np.linalg.norm(p - points[0])) <= tol for p in points[1:]
    )
    consistent = (kind == "strong-fixed") == (fixed and singleton)
    return FixedPointReport(kind=kind, witnesses=witnesses, residuals=residuals,
                            singleton=singleton, consistent=consistent)
