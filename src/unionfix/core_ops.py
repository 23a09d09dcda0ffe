"""Operator algebra: averaged maps, union maps, and their combinators.

A union map evaluates to a finite set of candidate points, one per index
chosen by an active selector.  Combinators keep track of the averagedness
constant: alpha in (0, 1) means alpha-averaged nonexpansive, and the
sentinel alpha = 1 means nonexpansive but not (known to be) averaged.

Combinators index their pieces by products of their inputs' indices, so
the pieces are :class:`LazyPieces`: a piece is built when it is first
looked up, and a step costs what it touches, not the size of the product.

A point is validated once, by the public ``selector`` or ``evaluate`` it is
passed to; combinators call their members' rule on the trusted array.  The
rule returns the active (index, point) pairs in one pass, keeping the points
its selection computed (proxes, projections, a chain's members).

Every piece also evaluates a block of points at once, ``rows(X)`` over the
rows of an (N, d) array, bit-for-bit as the scalar calls would.  Combinators
define their pieces' batched form through their parts' ``rows``; a leaf map
without a batched form (``many``) is called row by row.

A map's rule has a batched form too, ``_rule_rows(X)``: the active pairs of
every row of a validated block as ``(rows, keys, points)``, row by row in
the rule's order, each point bit for bit the scalar rule's, raising wherever
the scalar rule would at some row.  By default it loops over the rows;
``prox_union`` over pieces with batched value and prox, ``from_map``,
``compose``, ``relax``, ``union_of`` and ``dr_map`` compute it on the whole
block; ``project_union`` and ``reflect_union`` do for sets that follow the
distance rule and for the sparsity set.  The oracles' sampled inequality,
grid prox and radius estimate run on blocks; the radius estimate rescans a
block with the public ``selector``, the reference, wherever the batched
rule raises.

The drivers step a block of starts through one loop: a step with one live
start calls the scalar rule (``_pairs``), whose fixed cost is lower, and a
step with several calls the batched rule once for all of them; either way
the iterates are checked as ``evaluate`` checks a point
(``_check_iterates``).  The public selectors stay scalar.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Iterator, Sequence

import numpy as np

Index = Hashable

DEFAULT_TIE_TOL = 1e-10

#: rows per block of the batched oracles (check_averaged's pairs,
#: brute_force_prox's grid nodes): each piece runs once per block
BLOCK_ROWS = 1024


class DimensionMismatchError(ValueError):
    """Vector dimension does not match the operator's dimension."""


class EmptySelectionError(RuntimeError):
    """An active selector returned no indices (contract violation)."""


def as_vector(x) -> np.ndarray:
    """Validate and convert to a finite 1-D float array."""
    v = np.array(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


def _check_alpha(alpha: float) -> float:
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    return float(alpha)


def _check_tol(value: float, name: str) -> float:
    """A tolerance as it enters a public call: a nonnegative number (NaN
    fails the test too).  Rules that compare within it trust it."""
    if not value >= 0:
        raise ValueError(f"{name} must be a nonnegative number, got {value}")
    return float(value)


@dataclass(frozen=True)
class AveragedMap:
    """Single-valued operator with an averagedness constant.

    ``alpha`` in (0, 1) asserts the strengthened contraction inequality;
    ``alpha = 1`` asserts plain nonexpansiveness only.  Evaluation must be
    a pure function of the input.  ``many``, when given, maps the rows of
    an (N, d) array, each bit-for-bit as ``fn`` would.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    alpha: float
    label: str = ""
    many: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        _check_alpha(self.alpha)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(x), dtype=float)

    def rows(self, X: np.ndarray) -> np.ndarray:
        """The map applied to every row of a nonempty (N, d) array: ``many``
        if the map has it, else the stacked scalar calls."""
        if self.many is not None:
            return np.asarray(self.many(X), dtype=float)
        return np.stack([self(x) for x in X]).reshape(len(X), -1)


def identity_map(label: str = "id") -> AveragedMap:
    return AveragedMap(lambda x: x, alpha=1.0, label=label)


class LazyPieces(Mapping):
    """Read-only index -> piece mapping that builds a piece on its first
    lookup and keeps it.

    ``contains(key)`` answers membership and ``count`` is the number of
    keys, both without building a piece; ``keys()`` enumerates the keys
    lazily, in a fixed order.  ``count`` is unbounded: ``len()`` raises
    OverflowError above ``sys.maxsize``, so sizes go through
    :func:`piece_count`.  Concurrent first lookups of one key may build
    the piece twice; both builds are equal.
    """

    def __init__(
        self,
        build: Callable[[Index], object],
        contains: Callable[[Index], bool],
        keys: Callable[[], Iterator[Index]],
        count: int,
    ):
        self._build = build
        self._contains = contains
        self._keys = keys
        self.count = count
        self._built: dict = {}

    def __getitem__(self, key):
        piece = self._built.get(key)
        if piece is None:
            if not self._contains(key):
                raise KeyError(key)
            piece = self._built[key] = self._build(key)
        return piece

    def __contains__(self, key) -> bool:
        try:
            return key in self._built or self._contains(key)
        except TypeError:  # unhashable, so not a key
            return False

    def __iter__(self) -> Iterator[Index]:
        return self._keys()

    def __len__(self) -> int:
        return self.count

    def __bool__(self) -> bool:
        return self.count > 0


def piece_count(pieces: Mapping) -> int:
    """Number of keys of a piece mapping, also above ``sys.maxsize``."""
    return pieces.count if isinstance(pieces, LazyPieces) else len(pieces)


def map_pieces(pieces: Mapping, make: Callable) -> LazyPieces:
    """Pieces make(pieces[i]) under the keys of ``pieces``, built lazily."""
    return LazyPieces(lambda i: make(pieces[i]), pieces.__contains__,
                      lambda: iter(pieces), piece_count(pieces))


def _key_product(mappings: Sequence[Mapping]) -> Iterator[tuple]:
    """The key tuples of itertools.product over the mappings, in its order,
    without materializing any mapping's keys."""
    if not mappings:
        yield ()
        return
    for k in mappings[0]:
        for rest in _key_product(mappings[1:]):
            yield (k, *rest)


def _product_pieces(maps: Sequence["UnionMap"], make: Callable) -> LazyPieces:
    """Pieces make(keys) for every tuple of one piece index per map, built
    lazily."""
    mappings = [m.pieces for m in maps]

    def contains(keys) -> bool:
        return (isinstance(keys, tuple) and len(keys) == len(mappings)
                and all(k in p for p, k in zip(mappings, keys)))

    return LazyPieces(make, contains, lambda: _key_product(mappings),
                      math.prod(piece_count(p) for p in mappings))


class UnionMap:
    """Finite family of averaged maps plus an active selector.

    ``pieces`` maps an index to an :class:`AveragedMap`; a
    :class:`LazyPieces` is kept as given, any other mapping is copied.
    ``selector`` maps a point to a nonempty subset of those indices.
    Instances are immutable after construction and safe to evaluate
    concurrently.
    """

    def __init__(
        self,
        pieces: Mapping[Index, AveragedMap],
        selector: Callable[[np.ndarray], Iterable[Index]],
        alpha: float,
        dim: int | None = None,
        label: str = "",
    ):
        if not pieces:
            raise ValueError("a union map needs at least one piece")
        self._pieces = pieces if isinstance(pieces, LazyPieces) else dict(pieces)
        self._selector = selector
        self.alpha = _check_alpha(alpha)
        self.dim = dim
        self.label = label

    @property
    def pieces(self) -> Mapping[Index, AveragedMap]:
        return self._pieces

    def _check_dim(self, x: np.ndarray) -> np.ndarray:
        x = as_vector(x)
        if self.dim is not None and x.size != self.dim:
            raise DimensionMismatchError(
                f"operator {self.label!r} expects dimension {self.dim}, got {x.size}"
            )
        return x

    def _pairs(self, x: np.ndarray) -> list[tuple[Index, np.ndarray]]:
        """The rule's pairs at a validated x, checked nonempty."""
        pairs = self._rule(x)
        if not pairs:
            raise EmptySelectionError(f"selector of {self.label!r} returned no "
                                      f"indices at {x}")
        return pairs

    def _rule(self, x: np.ndarray) -> list[tuple[Index, np.ndarray]]:
        """Active (index, point) pairs at a validated x, each point bit for
        bit ``pieces[index](x)``.  This default evaluates the pieces the
        selector chose; :func:`_rule_map` gives a map another rule."""
        indices = list(self._selector(x))
        unknown = [i for i in indices if i not in self._pieces]
        if unknown:
            raise KeyError(f"selector returned unknown indices {unknown}")
        return [(i, self._pieces[i](x)) for i in indices]

    def _rule_rows(self, X: np.ndarray) -> tuple[np.ndarray, list, np.ndarray]:
        """The rule's pairs at every row of a validated (N, d) block, as
        ``(rows, keys, points)``: pair k is ``(keys[k], points[k])`` of row
        ``rows[k]``, rows ascending and each row's pairs in :meth:`_rule`
        order, each point bit for bit that of ``_pairs(X[rows[k]])``; it
        raises wherever ``_pairs`` would at some row.  This default loops
        over the rows; :func:`_rule_map` may give a map a batched one.
        """
        rows, keys, points = [], [], []
        for r, x in enumerate(X):
            for i, v in self._pairs(x):
                rows.append(r)
                keys.append(i)
                points.append(v)
        return (np.array(rows, dtype=np.intp), keys,
                np.stack(points).reshape(len(points), -1))

    def _check_iterates(self, X: np.ndarray) -> np.ndarray:
        """A float point (d,) or block (N, d) that a driver computed,
        checked as :meth:`evaluate` checks a point, without a copy: finite,
        of the map's dimension."""
        if not np.isfinite(X).all():
            raise ValueError("vector entries must be finite")
        if self.dim is not None and X.shape[-1] != self.dim:
            raise DimensionMismatchError(
                f"operator {self.label!r} expects dimension {self.dim}, "
                f"got {X.shape[-1]}")
        return X

    def selector(self, x) -> list[Index]:
        """Active indices at x, in deterministic evaluation order."""
        return [i for i, _ in self._pairs(self._check_dim(x))]

    def evaluate(self, x) -> list[tuple[Index, np.ndarray]]:
        """Full (index, point) list; repeated calls are bit-identical."""
        return self._pairs(self._check_dim(x))

    def evaluate_points(self, x, dedup_tol: float = 1e-12) -> list[np.ndarray]:
        """Evaluation as a set of points, deduplicated within dedup_tol."""
        points: list[np.ndarray] = []
        for _, v in self.evaluate(x):
            if all(np.linalg.norm(v - p) > dedup_tol for p in points):
                points.append(v)
        return points


def _rule_map(pieces: Mapping[Index, AveragedMap], rule: Callable,
              alpha: float, dim: int | None = None, label: str = "",
              rule_rows: Callable | None = None) -> UnionMap:
    """Union map whose rule is ``rule``: at a validated x it returns the
    active (index, point) pairs, each point bit for bit ``pieces[index](x)``.
    ``rule_rows``, when given, is its batched form
    (:meth:`UnionMap._rule_rows`)."""
    T = UnionMap(pieces, None, alpha=alpha, dim=dim, label=label)
    T._rule = rule
    if rule_rows is not None:
        T._rule_rows = rule_rows
    return T


def _near_min(candidates: Sequence, values: Sequence[float], tie_tol: float) -> list:
    """The candidates whose value is within tie_tol of the smallest, in order."""
    best = min(values, default=math.inf)
    return [c for c, v in zip(candidates, values) if v <= best + tie_tol]


def from_map(m: AveragedMap, dim: int | None = None) -> UnionMap:
    """Wrap a single-valued map as a one-piece union map."""
    return _rule_map({0: m}, lambda x: [(0, m(x))], alpha=m.alpha, dim=dim,
                     label=m.label, rule_rows=lambda X: (
                         np.arange(len(X)), [0] * len(X), m.rows(X)))


def _merge_dim(maps: Sequence[UnionMap]) -> int | None:
    dims = {m.dim for m in maps if m.dim is not None}
    if len(dims) > 1:
        raise DimensionMismatchError(f"mixed operator dimensions {sorted(dims)}")
    return dims.pop() if dims else None


def union_of(maps: Sequence[UnionMap], label: str = "") -> UnionMap:
    """Pointwise union; alpha is the maximum of the inputs' alphas."""
    maps = list(maps)
    if not maps:
        raise ValueError("union_of needs at least one map")
    dim = _merge_dim(maps)

    def contains(key) -> bool:
        return (isinstance(key, tuple) and len(key) == 2
                and type(key[0]) is int and 0 <= key[0] < len(maps)
                and key[1] in maps[key[0]].pieces)

    pieces = LazyPieces(
        lambda key: maps[key[0]].pieces[key[1]],
        contains,
        lambda: ((j, i) for j, um in enumerate(maps) for i in um.pieces),
        sum(piece_count(m.pieces) for m in maps),
    )

    def rule(x):
        return [((j, i), v) for j, um in enumerate(maps) for i, v in um._pairs(x)]

    def rule_rows(X):
        parts = [um._rule_rows(X) for um in maps]
        rows = np.concatenate([r for r, _, _ in parts])
        keys = [(j, i) for j, (_, ks, _) in enumerate(parts) for i in ks]
        points = np.concatenate([p for _, _, p in parts])
        # a stable sort by row keeps each row's members, and their pairs, in order
        order = np.argsort(rows, kind="stable")
        return rows[order], [keys[k] for k in order.tolist()], points[order]

    alpha = max(m.alpha for m in maps)
    return _rule_map(pieces, rule, alpha=alpha, dim=dim, label=label or "union",
                     rule_rows=rule_rows)


def combination_alpha(alphas: Sequence[float], weights: Sequence[float]) -> float:
    """Averagedness constant of a convex combination; 1 if any input is 1."""
    if any(a >= 1.0 for a in alphas):
        return 1.0
    return float(sum(w * a for w, a in zip(weights, alphas)))


def composition_alpha(alphas: Sequence[float]) -> float:
    """Averagedness constant of a composition; 1 if any input is 1."""
    if any(a >= 1.0 for a in alphas):
        return 1.0
    s = sum(a / (1.0 - a) for a in alphas)
    if s == 0.0:
        return 0.0  # unreachable for alphas in (0,1); kept for safety
    return 1.0 / (1.0 + 1.0 / s)


def convex_combination(
    maps: Sequence[UnionMap], weights: Sequence[float], label: str = ""
) -> UnionMap:
    """Minkowski-sum combination sum_j w_j T_j with w_j > 0, sum w_j = 1."""
    maps = list(maps)
    weights = [float(w) for w in weights]
    if len(maps) != len(weights) or not maps:
        raise ValueError("maps and weights must be nonempty and equal length")
    if any(w <= 0 for w in weights):
        raise ValueError(f"weights must be strictly positive, got {weights}")
    if abs(sum(weights) - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1, got sum {sum(weights)!r}")
    dim = _merge_dim(maps)
    alpha = combination_alpha([m.alpha for m in maps], weights)

    def combine(points):  # one sum for pieces, rows and the rule alike
        return sum(w * v for w, v in zip(weights, points))

    def make_piece(keys):
        parts = [m.pieces[k] for m, k in zip(maps, keys)]
        return AveragedMap(lambda x: combine(p(x) for p in parts), alpha=alpha,
                           many=lambda X: combine(p.rows(X) for p in parts))

    def rule(x):
        return [(tuple(i for i, _ in combo), combine(v for _, v in combo))
                for combo in itertools.product(*(m._pairs(x) for m in maps))]

    return _rule_map(_product_pieces(maps, make_piece), rule, alpha=alpha,
                     dim=dim, label=label or "comb")


def compose(maps: Sequence[UnionMap], label: str = "") -> UnionMap:
    """Composition applying maps[0] first, then maps[1], and so on.

    The composite rule is realized lazily: index tuples are enumerated by
    chaining each member's pairs through the next member, never as a
    function of a precomputed selector table.
    """
    maps = list(maps)
    if not maps:
        raise ValueError("compose needs at least one map")
    dim = _merge_dim(maps)
    alpha = composition_alpha([m.alpha for m in maps])

    def make_piece(keys):
        parts = [m.pieces[k] for m, k in zip(maps, keys)]

        def fn(x, parts=parts):
            for p in parts:
                x = p(x)
            return x

        def many(X, parts=parts):
            for p in parts:
                X = p.rows(X)
            return X

        return AveragedMap(fn, alpha=alpha, many=many)

    def rule(x):
        # stage by stage, in order: the chains come out depth-first
        pairs = [((), x)]
        for m in maps:
            pairs = [(keys + (i,), w) for keys, v in pairs for i, w in m._pairs(v)]
        return pairs

    def rule_rows(X):
        # each stage's pairs come out by source point, so the chains keep
        # their rows ascending and depth-first within a row
        rows, keys, P = np.arange(len(X)), [()] * len(X), X
        for m in maps:
            src, ks, P = m._rule_rows(P)
            rows = rows[src]
            keys = [keys[s] + (i,) for s, i in zip(src.tolist(), ks)]
        return rows, keys, P

    return _rule_map(_product_pieces(maps, make_piece), rule, alpha=alpha,
                     dim=dim, label=label or "compose", rule_rows=rule_rows)


def relax(T: UnionMap, lam: float, label: str = "") -> UnionMap:
    """Relaxation (1 - lam) Id + lam T, for lam in (0, 1/alpha(T)]."""
    lam = float(lam)
    if not (0.0 < lam <= 1.0 / T.alpha + 1e-12):
        raise ValueError(
            f"lambda must lie in (0, {1.0 / T.alpha}] for alpha {T.alpha}, got {lam}"
        )
    alpha = min(1.0, lam * T.alpha)

    def toward(x, v):  # one formula for pieces, rows and the rule alike
        return (1.0 - lam) * x + lam * v

    def make_piece(p):
        return AveragedMap(lambda x: toward(x, p(x)), alpha=min(1.0, lam * p.alpha),
                           label=p.label, many=lambda X: toward(X, p.rows(X)))

    def rule(x):
        return [(i, toward(x, v)) for i, v in T._pairs(x)]

    def rule_rows(X):
        rows, keys, P = T._rule_rows(X)
        return rows, keys, toward(X[rows], P)

    return _rule_map(map_pieces(T.pieces, make_piece), rule, alpha=alpha,
                     dim=T.dim, label=label or f"relax({T.label})",
                     rule_rows=rule_rows)


def dr_map(PA: UnionMap, PB: UnionMap, label: str = "") -> UnionMap:
    """Douglas-Rachford map (Id + R_B R_A) / 2 of two 1/2-averaged union
    maps (projectors or proxes), where R = 2P - Id.

    Pieces are indexed by (i, j): x -> x + P_B,j(2 P_A,i(x) - x) - P_A,i(x).
    The rule chains P_A's pairs through the reflected point 2a - x
    (:func:`_dr_steps`, and :func:`_dr_step_rows` on blocks).
    """
    if PA.alpha > 0.5 or PB.alpha > 0.5:
        raise ValueError(
            f"dr_map needs 1/2-averaged maps, got alphas {PA.alpha}, {PB.alpha}"
        )
    dim = _merge_dim([PA, PB])

    def make_piece(keys):
        i, j = keys
        pa, pb = PA.pieces[i], PB.pieces[j]

        def fn(x):
            a = pa(x)
            return x + pb(2.0 * a - x) - a

        def many(X):
            A = pa.rows(X)
            return X + pb.rows(2.0 * A - X) - A

        return AveragedMap(fn, alpha=0.5, label=f"dr({i},{j})", many=many)

    def rule(x):
        return [(k, x + b - a) for k, a, b in _dr_steps(PA, PB, x)]

    def rule_rows(X):
        rows, keys, A, B = _dr_step_rows(PA, PB, X)
        return rows, keys, X[rows] + B - A

    return _rule_map(_product_pieces([PA, PB], make_piece), rule, alpha=0.5,
                     dim=dim, label=label or "dr", rule_rows=rule_rows)


def _dr_steps(PA: UnionMap, PB: UnionMap, x: np.ndarray) -> list[tuple]:
    """The Douglas-Rachford step at a validated x: ((i, j), a, b) for each
    pair (i, a) of P_A at x and (j, b) of P_B at 2a - x."""
    return [((i, j), a, b) for i, a in PA._pairs(x) for j, b in PB._pairs(2.0 * a - x)]


def _dr_step_rows(PA: UnionMap, PB: UnionMap, X: np.ndarray) -> tuple:
    """:func:`_dr_steps` at every row of a validated (N, d) block, as
    ``(rows, keys, A, B)``: step k is ``(keys[k], A[k], B[k])`` of row
    ``rows[k]``, in the order of :meth:`UnionMap._rule_rows`."""
    rows, keys_a, A = PA._rule_rows(X)
    # P_B's pairs come out by source pair, so the steps keep P_A's order
    src, keys_b, B = PB._rule_rows(2.0 * A - X[rows])
    keys = [(keys_a[s], j) for s, j in zip(src.tolist(), keys_b)]
    return rows[src], keys, A[src], B


@dataclass
class AveragednessReport:
    """Worst-case violation of the averagedness inequality over samples."""

    alpha: float
    max_violation: float
    worst_piece: Index | None
    worst_pair: tuple[np.ndarray, np.ndarray] | None
    pairs_checked: int
    per_piece: dict = field(default_factory=dict)

    def passed(self, tol: float = 1e-9) -> bool:
        return self.max_violation <= tol


def _block_rows(points: list) -> np.ndarray:
    """A block of points as a finite (N, d) float array, validated once;
    ragged or non-finite points raise ValueError."""
    X = np.array(points, dtype=float)  # ragged rows raise ValueError
    if X.ndim == 1:
        X = X.reshape(-1, 1)  # scalars are 1-vectors, as in as_vector
    if X.ndim != 2 or X.shape[1] < 1:
        raise ValueError(f"expected 1-D vectors, got a block of shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("vector entries must be finite")
    return X


def check_averaged(
    T: UnionMap,
    alpha: float,
    pairs: Iterable[tuple[np.ndarray, np.ndarray]],
) -> AveragednessReport:
    """Sample the averagedness inequality piecewise over (x, y) pairs.

    Every piece is built once, before the first pair; a map with more
    pieces than a list can hold is refused.  Pairs are taken in blocks of
    BLOCK_ROWS, on which each piece runs once (``AveragedMap.rows``).  The
    report is bit-for-bit that of a scan pair by pair, piece by piece,
    keeping each violation ``v`` that beats the best so far (``v > best``,
    so the first maximum wins and NaN never does).  All points must have
    one length.

    The violation of a piece T at (x, y), nonpositive when the inequality
    holds, is ``||Tx - Ty|| - ||x - y||`` for alpha = 1 and otherwise
    ``||Tx - Ty||^2 + (1 - alpha)/alpha ||(x - Tx) - (y - Ty)||^2 - ||x - y||^2``.
    """
    count = piece_count(T.pieces)
    if count > sys.maxsize:
        raise ValueError(
            f"{T.label!r} has {count} pieces, too many to check one by one")
    report = AveragednessReport(
        alpha=alpha, max_violation=-math.inf, worst_piece=None,
        worst_pair=None, pairs_checked=0,
    )
    items = list(T.pieces.items())
    per_piece: dict[Index, float] = {i: -math.inf for i, _ in items}
    dim = None
    pairs = iter(pairs)
    while block := list(itertools.islice(pairs, BLOCK_ROWS)):
        X = _block_rows([x for x, _ in block])
        Y = _block_rows([y for _, y in block])
        if X.shape != Y.shape or dim not in (None, X.shape[1]):
            raise ValueError("every pair must hold two points of one length")
        dim = X.shape[1]
        report.pairs_checked += len(block)
        D = X - Y
        d2 = np.vecdot(D, D)
        V = np.empty((len(block), len(items)))
        for col, (_, piece) in enumerate(items):
            TX, TY = piece.rows(X), piece.rows(Y)
            E = TX - TY
            t2 = np.vecdot(E, E)
            if alpha >= 1.0:
                V[:, col] = np.sqrt(t2) - np.sqrt(d2)
            else:
                R = (X - TX) - (Y - TY)
                V[:, col] = t2 + (1.0 - alpha) / alpha * np.vecdot(R, R) - d2
        V[np.isnan(V)] = -math.inf  # NaN never wins, as under v > best
        # a violation is never -0.0 (t2 and d2 are sums of squares), so
        # equal maxima have equal bits and max gives the scan's per-piece
        # value; argmax gives the first maximum, the pair the scan keeps
        for (i, _), v in zip(items, V.max(axis=0)):
            if v > per_piece[i]:
                per_piece[i] = float(v)
        row, col = divmod(int(V.argmax()), len(items))
        if V[row, col] > report.max_violation:
            report.max_violation = float(V[row, col])
            report.worst_piece = items[col][0]
            report.worst_pair = (X[row].copy(), Y[row].copy())
    report.per_piece = per_piece
    return report
