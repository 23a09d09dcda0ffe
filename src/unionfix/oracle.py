"""Independent brute-force verification: grid prox, attraction-radius
estimation, inequality sampling, and fixed-point classification.

All oracles are deterministic under fixed seeds and are capped at
dimension 3 / 1e7 grid evaluations: higher-dimensional claims are checked
through invariants rather than enumeration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from unionfix.core_ops import (
    BLOCK_ROWS,
    AveragednessReport,
    Index,
    UnionMap,
    _check_alpha,
    _check_blocks,
    _check_count,
    _check_tol,
    as_vector,
    piece_count,
)
from unionfix.minconvex import MinConvexFn, _envelopes, _value_rows
from unionfix.projections import RepeatedRows, norm

MAX_GRID_DIM = 3
MAX_GRID_POINTS = 10_000_000
#: rows in the first chunk of a radius scan, before blocks of BLOCK_ROWS:
#: a delta that an early sample rejects costs no full block
FIRST_CHUNK_ROWS = 64


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
        for k, (lo, hi) in enumerate(self.bounds):
            if not lo < hi:
                raise ValueError(f"need lo < hi per axis, got ({lo}, {hi}) "
                                 f"on axis {k}")
            with np.errstate(over="ignore"):
                width = np.float64(hi) - np.float64(lo)
            if not np.isfinite(width):
                raise ValueError(f"need finite bounds and a finite hi - lo per "
                                 f"axis, got ({lo}, {hi}) on axis {k}")

    @property
    def dim(self) -> int:
        return len(self.bounds)

    @property
    def cell_diameter(self) -> float:
        # Python floats: a square that overflows is inf, without a warning
        steps = [(float(hi) - float(lo)) / (self.points - 1) for lo, hi in self.bounds]
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
    piece value raises ValueError.  An x whose squared distance to some grid
    corner overflows, or a gamma so small that that distance over 2 gamma
    does, is refused with ValueError before any piece runs; a grid on which
    a piece value, or the objective, overflows at some node is refused with
    ValueError when the node is evaluated.
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    tol = grid.cell_diameter if tol is None else _check_tol(tol, "tol")
    x = as_vector(x)
    if x.size != grid.dim:
        raise ValueError("grid dimension must match x")
    # the farthest corner bounds every node's ||x - y||^2 and the squared cell
    # diameter; Python floats overflow to inf without a warning
    far = [max(abs(xi - float(lo)), abs(xi - float(hi)))
           for xi, (lo, hi) in zip(x.tolist(), grid.bounds)]
    reach = sum(f * f for f in far)
    if not math.isfinite(reach):
        raise ValueError(f"x = {x.tolist()} is too far from the grid bounds "
                         f"{grid.bounds}: ||x - y||^2 overflows at some node")
    if not math.isfinite(reach / (2.0 * float(gamma))):
        raise ValueError(f"gamma = {gamma} is too small for x = {x.tolist()} and "
                         f"the grid bounds {grid.bounds}: ||x - y||^2 / (2 gamma) "
                         f"overflows at some node")
    nodes = grid.nodes()
    objs = np.empty(len(nodes))
    xs = RepeatedRows(x)
    try:
        with np.errstate(over="raise"):
            for start in range(0, len(nodes), BLOCK_ROWS):
                Y = nodes[start:start + BLOCK_ROWS]
                objs[start:start + len(Y)] = _envelopes(
                    xs.rows(len(Y)), Y, _value_rows(f, Y), 2.0 * gamma)
    except FloatingPointError as exc:
        raise ValueError(f"the grid bounds {grid.bounds} are too wide for f: "
                         f"f(y) + ||x - y||^2 / (2 gamma) overflows at some "
                         f"node") from exc
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


def _ball_samples(rng: np.random.Generator, count: int,
                  dim: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` uniform samples of the unit ball in R^dim as unit directions
    and radii, sample k being ``radii[k] * dirs[k]``: the normal directions
    are drawn from rng first, then the radii.  A direction is normalised by
    numpy's own row reduction, ``np.linalg.norm(..., axis=1)``, not a BLAS
    product."""
    dirs = rng.standard_normal((count, dim))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
    return dirs, rng.random(count) ** (1.0 / dim)


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
    by prefix).  Samples are selected in order, FIRST_CHUNK_ROWS first and
    then blocks of BLOCK_ROWS (:func:`_first_outside`), and a delta's scan
    stops at the first chunk holding an outside sample; the result is bit
    for bit that of a scan sample by sample with ``T.selector``.
    ``delta_max`` is a positive finite number, ``samples`` a positive
    integer and ``bisect_iters`` a nonnegative integer.
    """
    if not (math.isfinite(delta_max) and delta_max > 0):
        raise ValueError(f"delta_max must be positive and finite, got {delta_max}")
    samples = _check_count(samples, "samples", 1)
    bisect_iters = _check_count(bisect_iters, "bisect_iters", 0)
    xstar = as_vector(xstar)
    base = set(T.selector(xstar))
    dirs, radii = _ball_samples(np.random.default_rng(seed), samples, xstar.size)

    counterexample = None
    bounds = [0, *range(FIRST_CHUNK_ROWS, samples, BLOCK_ROWS), samples]

    def accept(delta) -> bool:
        nonlocal counterexample
        for start, stop in itertools.pairwise(bounds):
            blk = slice(start, stop)
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
    rule at once, and its keys are tested against ``base`` in one set
    test; only a block that leaves it is searched for the first such row.
    Any other block, and one on which that rule raises
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
            if base.issuperset(keys):
                return None
            return int(rows[next(k for k, i in enumerate(keys) if i not in base)])
    for k, x in enumerate(X):
        if not set(T.selector(x)) <= base:
            return k
    return None


def _check_region(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """A sampling box [lo, hi]: vectors of one length with lo <= hi
    entrywise, a finite hi - lo (lo == hi is a flat box) and a farthest
    point whose squared norm is finite."""
    lo, hi = as_vector(lo), as_vector(hi)
    if lo.size != hi.size:
        raise _region_error(lo, hi, "lo and hi differ in length")
    with np.errstate(over="ignore"):
        width = hi - lo
    if not (width >= 0).all():
        raise _region_error(lo, hi, "need lo <= hi entrywise")
    if not np.isfinite(width).all():
        raise _region_error(lo, hi, "hi - lo overflows")
    # Python floats overflow to inf without a warning, as brute_force_prox's
    # reach does
    far = [max(abs(a), abs(b)) for a, b in zip(lo.tolist(), hi.tolist())]
    if not math.isfinite(sum(m * m for m in far)):
        raise _region_error(lo, hi, "the squared norm of its farthest point "
                                    "overflows")
    return lo, hi


def _region_error(lo: np.ndarray, hi: np.ndarray, defect: str) -> ValueError:
    return ValueError(f"sample region lo={lo.tolist()}, hi={hi.tolist()}: {defect}")


def _draw_pairs(lo, hi, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The (count, d) draws xs, then ys, uniform in the box [lo, hi]; a bad
    box or a negative count is refused before anything is drawn."""
    lo, hi = _check_region(lo, hi)
    if count < 0:
        raise _region_error(lo, hi, f"count must be nonnegative, got {count}")
    rng = np.random.default_rng(seed)
    xs = rng.uniform(lo, hi, size=(count, lo.size))
    ys = rng.uniform(lo, hi, size=(count, lo.size))
    return xs, ys


def sample_pairs(
    lo, hi, count: int, seed: int = 0
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic uniform (x, y) pairs in the box [lo, hi]: the pairs
    that :func:`sample_inequality` checks with the same arguments."""
    return list(zip(*_draw_pairs(lo, hi, count, seed)))


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
    The report is bit for bit ``check_averaged(T, alpha, sample_pairs(lo,
    hi, pairs, seed))``; the draws go to the blocks with no pair list.
    """
    alpha = _check_alpha(alpha)
    count = piece_count(T.pieces)
    if pairs * count > MAX_GRID_POINTS:
        raise ValueError(
            f"{pairs} pairs x {count} pieces exceeds the evaluation cap "
            f"MAX_GRID_POINTS = {MAX_GRID_POINTS}")
    lo, hi = region
    xs, ys = _draw_pairs(lo, hi, pairs, seed)
    return _check_blocks(T, alpha, (
        (xs[k:k + BLOCK_ROWS], ys[k:k + BLOCK_ROWS])
        for k in range(0, pairs, BLOCK_ROWS)))


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
    single-valued set.  ``tol`` is a nonnegative number.
    """
    tol = _check_tol(tol, "tol")
    x = as_vector(x)
    values = T.evaluate(x)
    residuals = {i: norm(v - x) for i, v in values}
    witnesses = [i for i, r in residuals.items() if r <= tol]
    fixed = bool(witnesses)
    strong = all(r <= tol for r in residuals.values())
    kind = "strong-fixed" if (fixed and strong) else "fixed" if fixed else "not-fixed"
    points = [v for _, v in values]
    singleton = all(
        norm(p - points[0]) <= tol for p in points[1:]
    )
    consistent = (kind == "strong-fixed") == (fixed and singleton)
    return FixedPointReport(kind=kind, witnesses=witnesses, residuals=residuals,
                            singleton=singleton, consistent=consistent)
