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
the scalar rule would at some row.  By default it loops over the rows.
A combinator or projector writes this batched rule, on the whole block,
and, where it has one, its lone form (``UnionMap._lone``); its scalar rule
is derived from them (:func:`_derived_rule`).  Only ``convex_combination``,
with no batched rule of its own, writes a scalar rule.  The oracles' sampled
inequality, grid prox and radius estimate run on blocks; the radius
estimate rescans a block with the public ``selector``, the reference,
wherever the batched rule raises.

The drivers step a block of starts with one loop per regime: a step of
several live starts calls the batched rule once for all, and the one start
left (a lone start, or a block's last) steps on its (d,) point through the
lone form (``_lone``) where the map has one and it gives a pair, and the
scalar rule (``_pairs``) otherwise.  Either way the iterates are checked as
``evaluate`` checks them (``_check_iterates``), and ``solvers._pick`` (one
point) or ``solvers._choose`` (a block) picks for every driver; public
selectors stay scalar.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Iterator, Sequence

import numpy as np

from unionfix import projections
from unionfix.projections import BLOCK_ROWS

Index = Hashable

DEFAULT_TIE_TOL = 1e-10

DEDUP_TOL = 1e-12  # UnionMap.evaluate_points: points this close are one


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

    ``_lone``, when not None, is the rule's scalar lone form: at a validated
    x, the one pair of ``_pairs(x)``, bit for bit and key included, when
    that list holds exactly one pair, and None otherwise (a tie, a NaN
    projection, or wherever ``_pairs`` would refuse).  :func:`from_map` and
    every set's projector have one, and so do :func:`relax` of a map with
    one (a set's reflector) and :func:`dr_map` and :func:`compose` of maps
    that all have one.  A one-start step takes it directly
    (``solvers._pick``) and runs the list rule only where it is None; the
    derived rule (:func:`_derived_rule`), which ``evaluate`` and
    ``selector`` run, tries it first.
    """

    _lone: Callable[[np.ndarray], tuple | None] | None = None

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
            raise self._no_pairs(x)
        return pairs

    def _no_pairs(self, x: np.ndarray) -> EmptySelectionError:
        """The error of a rule that selected nothing at x."""
        return EmptySelectionError(f"selector of {self.label!r} returned no "
                                   f"indices at {x}")

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
        pairs = [(r, i, v) for r, x in enumerate(X) for i, v in self._pairs(x)]
        return (np.array([r for r, _, _ in pairs], dtype=np.intp),
                [i for _, i, _ in pairs],
                np.stack([v for _, _, v in pairs]).reshape(len(pairs), -1))

    def _check_iterates(self, X: np.ndarray, finite: bool = False) -> np.ndarray:
        """A float point (d,) or block (N, d) that a driver computed,
        checked as :meth:`evaluate` checks a point, without a copy: finite,
        of the map's dimension; the finiteness test is skipped where the
        caller knows X ``finite``."""
        if not (finite or projections._all_finite(X)):
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

    def evaluate_points(self, x) -> list[np.ndarray]:
        """Evaluation as a set of points, deduplicated within DEDUP_TOL."""
        points: list[np.ndarray] = []
        for _, v in self.evaluate(x):
            if all(projections.norm(v - p) > DEDUP_TOL for p in points):
                points.append(v)
        return points


def _rule_map(pieces: Mapping[Index, AveragedMap], alpha: float,
              dim: int | None = None, label: str = "",
              rule_rows: Callable | None = None, lone: Callable | None = None,
              rule: Callable | None = None) -> UnionMap:
    """Union map whose rule is its batched rule ``rule_rows``
    (:meth:`UnionMap._rule_rows`) with, where given, its lone form ``lone``
    (``UnionMap._lone``).  Its scalar rule is derived from them
    (:func:`_derived_rule`) unless ``rule`` is given: at a validated x, the
    active (index, point) pairs, each point bit for bit ``pieces[index](x)``.
    Only a convex combination gives it, and keeps the default batched rule,
    its row loop."""
    T = UnionMap(pieces, None, alpha=alpha, dim=dim, label=label)
    T._lone = lone
    if rule_rows is not None:
        T._rule_rows = rule_rows
    T._rule = rule or functools.partial(_derived_rule, rule_rows, lone)
    return T


def _derived_rule(rule_rows: Callable, lone: Callable | None,
                  x: np.ndarray) -> list[tuple[Index, np.ndarray]]:
    """The scalar rule at a validated x: the pair of ``lone`` where it is
    given and returns one, else the pairs of ``rule_rows(x[None])``."""
    pair = lone and lone(x)
    if pair is not None:
        return [pair]
    _, keys, P = rule_rows(x[None])
    return list(zip(keys, P))


def _merge_rows(parts: Sequence[tuple]) -> tuple:
    """Batched rule outputs ``(rows, keys, points)`` merged by row, stably:
    each row keeps its pairs in the order of ``parts``, then of each part."""
    rows = np.concatenate([r for r, _, _ in parts])
    keys = list(itertools.chain.from_iterable(ks for _, ks, _ in parts))
    points = np.concatenate([p for _, _, p in parts])
    order = np.argsort(rows, kind="stable")
    return rows[order], _gather(keys, order), points[order]


def _gather(keys: list, at: np.ndarray) -> list:
    """The keys at the positions ``at`` (an index array), in its order."""
    return list(map(keys.__getitem__, at.tolist()))


def _near_min(candidates: Sequence, values: Sequence[float], tie_tol: float) -> list:
    """The candidates whose value is within tie_tol of the smallest, in order."""
    best = min(values, default=math.inf)
    return [c for c, v in zip(candidates, values) if v <= best + tie_tol]


def from_map(m: AveragedMap, dim: int | None = None) -> UnionMap:
    """Wrap a single-valued map as a one-piece union map."""
    return _rule_map({0: m}, alpha=m.alpha, dim=dim, label=m.label,
                     rule_rows=lambda X: (np.arange(len(X)), [0] * len(X), m.rows(X)),
                     lone=lambda x: (0, m(x)))


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

    def rule_rows(X):
        parts = [um._rule_rows(X) for um in maps]
        return _merge_rows([(rows, list(zip(itertools.repeat(j), keys)), points)
                            for j, (rows, keys, points) in enumerate(parts)])

    alpha = max(m.alpha for m in maps)
    return _rule_map(pieces, alpha=alpha, dim=dim, label=label or "union",
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
    """Minkowski-sum combination sum_j w_j T_j with w_j > 0, sum w_j = 1.
    It keeps a list rule and the row loop: a batched rule would need a join
    of the members' pairs row by row, and no driver, CLI kind or benchmark
    op steps a combination on a block (the oracle audit samples pieces)."""
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

    return _rule_map(_product_pieces(maps, make_piece), alpha=alpha, dim=dim,
                     label=label or "comb", rule=rule)


def compose(maps: Sequence[UnionMap], label: str = "") -> UnionMap:
    """Composition applying maps[0] first, then maps[1], and so on.

    The composite rule is realized lazily: index tuples are enumerated by
    chaining each member's pairs through the next member, never as a
    function of a precomputed selector table.  Where every member has a
    lone form, so does the composite: the members' lone pairs applied
    stage by stage, their keys one tuple.
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

    def rule_rows(X):
        # each stage's pairs come out by source point, so the chains keep
        # their rows ascending and depth-first within a row; the key tuples
        # are zipped from one column per stage, each earlier column
        # gathered through every later stage's sources
        rows, columns, P = np.arange(len(X)), [], X
        for m in maps:
            src, ks, P = m._rule_rows(P)
            rows = rows[src]
            columns = [_gather(c, src) for c in columns]
            columns.append(ks)
        return rows, list(zip(*columns)), P

    lones = [m._lone for m in maps]
    lone = None
    if all(member is not None for member in lones):
        def lone(x):
            # the rule's one chain: one pair at every stage
            keys = []
            for member in lones:
                pair = member(x)
                if pair is None:
                    return None
                key, x = pair
                keys.append(key)
            return tuple(keys), x

    return _rule_map(_product_pieces(maps, make_piece), alpha=alpha, dim=dim,
                     label=label or "compose", rule_rows=rule_rows, lone=lone)


def relax(T: UnionMap, lam: float, label: str = "") -> UnionMap:
    """Relaxation (1 - lam) Id + lam T, for lam in (0, 1/alpha(T)].  Where
    T has a lone form, so does the relaxation: T's one pair, relaxed."""
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

    def rule_rows(X):
        rows, keys, P = T._rule_rows(X)
        return rows, keys, toward(X[rows], P)

    lone = None
    if T._lone is not None:
        lone_t = T._lone

        def lone(x):  # T's one pair, relaxed
            pair = lone_t(x)
            return None if pair is None else (pair[0], toward(x, pair[1]))

    return _rule_map(map_pieces(T.pieces, make_piece), alpha=alpha, dim=T.dim,
                     label=label or f"relax({T.label})", rule_rows=rule_rows,
                     lone=lone)


def dr_map(PA: UnionMap, PB: UnionMap, label: str = "") -> UnionMap:
    """Douglas-Rachford map (Id + R_B R_A) / 2 of two 1/2-averaged union
    maps (projectors or proxes), where R = 2P - Id.

    Pieces are indexed by (i, j): x -> x + P_B,j(2 P_A,i(x) - x) - P_A,i(x).
    The rule chains P_A's pairs through the reflected point 2a - x.  Every
    reflection is written ``a + a - x``: doubling is exact, so these are
    the bits of ``2.0 * a - x``, without a Python scalar to convert.  That
    step, bound to P_A and P_B, stays on the map as ``T._step_rows``
    (:func:`_dr_step_rows`), and as ``T._steps``, the triples of its one row
    x[None]: the batched rule is defined on it, so a driver that records a
    and b chooses among the map's own candidates ((i, j), a, b).  Where P_A
    and P_B have lone forms, so does the map: one pair (i, a), then one
    (j, b) at a + a - x, give ((i, j), x + b - a).
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
            return x + pb(a + a - x) - a

        def many(X):
            A = pa.rows(X)
            return X + pb.rows(A + A - X) - A

        return AveragedMap(fn, alpha=0.5, label=f"dr({i},{j})", many=many)

    step_rows = functools.partial(_dr_step_rows, PA, PB)

    def steps(x):
        _, keys, A, B = step_rows(x[None])
        return list(zip(keys, A, B))

    def rule_rows(X):
        rows, keys, A, B = step_rows(X)
        return rows, keys, X[rows] + B - A

    lone = None
    if PA._lone is not None and PB._lone is not None:
        lone_a, lone_b = PA._lone, PB._lone

        def lone(x):
            # the rule's one step: one pair of P_A, then one of P_B
            pair = lone_a(x)
            if pair is None:
                return None
            i, a = pair
            pair = lone_b(a + a - x)
            if pair is None:
                return None
            j, b = pair
            return (i, j), x + b - a

    T = _rule_map(_product_pieces([PA, PB], make_piece), alpha=0.5, dim=dim,
                  label=label or "dr", rule_rows=rule_rows, lone=lone)
    T._steps, T._step_rows = steps, step_rows
    return T


def _dr_step_rows(PA: UnionMap, PB: UnionMap, X: np.ndarray) -> tuple:
    """The Douglas-Rachford steps at every row of a validated (N, d) block,
    as ``(rows, keys, A, B)``: step k is ``((i, j), A[k], B[k])`` of row
    ``rows[k]`` for each pair (i, a) of P_A at that row and (j, b) of P_B at
    2a - x, in the order of :meth:`UnionMap._rule_rows`."""
    rows, keys_a, A = PA._rule_rows(X)
    # P_B's pairs come out by source pair, so the steps keep P_A's order
    src, keys_b, B = PB._rule_rows(A + A - X[rows])
    return rows[src], list(zip(_gather(keys_a, src), keys_b)), A[src], B


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
        """Whether the worst violation is at most ``tol``, a nonnegative
        number."""
        return self.max_violation <= _check_tol(tol, "tol")


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


def _pair_blocks(pairs: Iterable) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(x, y) pairs as validated (X, Y) blocks of at most BLOCK_ROWS rows,
    all points of one length."""
    dim = None
    pairs = iter(pairs)
    while block := list(itertools.islice(pairs, BLOCK_ROWS)):
        X = _block_rows([x for x, _ in block])
        Y = _block_rows([y for _, y in block])
        if X.shape != Y.shape or dim not in (None, X.shape[1]):
            raise ValueError("every pair must hold two points of one length")
        dim = X.shape[1]
        yield X, Y


def check_averaged(
    T: UnionMap,
    alpha: float,
    pairs: Iterable[tuple[np.ndarray, np.ndarray]],
) -> AveragednessReport:
    """Sample the averagedness inequality piecewise over (x, y) pairs.

    ``alpha`` must lie in (0, 1] and every point must have one length, the
    map's dimension if it has one.  Every piece is built once, before the
    first pair; a map with more pieces than a list can hold is refused.
    Pairs are taken in blocks of BLOCK_ROWS, on which each piece runs once
    (``AveragedMap.rows``).  The report is bit-for-bit that of a scan pair
    by pair, piece by piece, keeping each violation ``v`` that beats the
    best so far (``v > best``, so the first maximum wins and NaN never does).

    The violation of a piece T at (x, y), nonpositive when the inequality
    holds, is ``||Tx - Ty|| - ||x - y||`` for alpha = 1 and otherwise
    ``||Tx - Ty||^2 + (1 - alpha)/alpha ||(x - Tx) - (y - Ty)||^2 - ||x - y||^2``.
    A pair whose violation is not finite, though its x, y, Tx and Ty are, is
    taken at scale (:func:`_block_violations`).
    """
    return _check_blocks(T, _check_alpha(alpha), _pair_blocks(pairs))


def _block_violations(items: list, alpha: float, X: np.ndarray,
                      Y: np.ndarray) -> np.ndarray:
    """The (N, pieces) violations at a block of pairs of finite rows: one
    column per piece, in ``items`` order, each by the plain formula.  A row
    whose violation is not finite (a difference, norm or sum that overflows;
    inf - inf is NaN), its x, y, Tx and Ty finite, is taken at scale: those
    four are divided by their largest |entry|, and the violation there is
    multiplied back by that scale once for alpha = 1 and twice otherwise, so
    it is finite unless the violation itself overflows."""
    c = (1.0 - alpha) / alpha

    def distances(X, Y):  # ||x - y||, or its square for alpha < 1
        D = X - Y
        return projections.row_norms(D) if alpha >= 1.0 else projections._sumsq_rows(D)

    def violations(X, Y, TX, TY, d):
        E = TX - TY
        if alpha >= 1.0:
            return projections.row_norms(E) - d
        R = (X - TX) - (Y - TY)
        return projections._sumsq_rows(E) + c * projections._sumsq_rows(R) - d

    with np.errstate(over="ignore", invalid="ignore"):  # taken at scale below
        d = distances(X, Y)
    V = np.empty((len(X), len(items)))
    for col, (_, piece) in enumerate(items):
        TX, TY = piece.rows(X), piece.rows(Y)  # a piece's own overflow warns
        with np.errstate(over="ignore", invalid="ignore"):
            v = V[:, col] = violations(X, Y, TX, TY, d)
        if projections._all_finite(v):
            continue
        rows = np.flatnonzero(~np.isfinite(v))
        scale = np.max([np.abs(M[rows]).max(axis=1) for M in (X, Y, TX, TY)], axis=0)
        at, s = rows[np.isfinite(scale)], scale[np.isfinite(scale)]
        x, y, tx, ty = (M[at] / s[:, None] for M in (X, Y, TX, TY))
        w = violations(x, y, tx, ty, distances(x, y))
        with np.errstate(over="ignore"):  # a violation past the largest float
            # w * s * s, not w * s ** 2: s ** 2 may overflow, and inf * 0 is NaN
            V[at, col] = w * s if alpha >= 1.0 else w * s * s
    return V


def _check_blocks(
    T: UnionMap, alpha: float, blocks: Iterable[tuple[np.ndarray, np.ndarray]],
) -> AveragednessReport:
    """:func:`check_averaged` over (X, Y) blocks of pairs: finite (N, d)
    arrays of one shape, 0 < N <= BLOCK_ROWS, one d throughout, and alpha
    checked."""
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
    for X, Y in blocks:
        if not report.pairs_checked:  # once: d is the map's dimension
            T._check_iterates(X)
        report.pairs_checked += len(X)
        V = _block_violations(items, alpha, X, Y)
        V[np.isnan(V)] = -math.inf  # NaN never wins, as under v > best
        # a violation is never -0.0 (norms and sums of squares are not), so
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
