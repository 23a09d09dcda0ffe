"""Fixed-point iteration drivers with relaxation schedules, control
sequences, selection policies, stopping rules, and trace capture.

Every driver is single-threaded and deterministic: replays with identical
inputs and seeds produce bit-identical traces.  Asymptotic schedule
hypotheses are enforced as the surrogate lambda_n (bound - lambda_n) >= eps
with an explicit epsilon: every lambda_n a run uses is checked before
step n is applied.

Every driver takes one start ``x0`` and returns its trace, or an (N, d) array
of starts and returns their N traces, which are bit for bit those of N
one-start runs.  Every driver iterates through :func:`_run_loop` and gives it
two steps of one formula: ``update`` on a block of live rows and ``step`` on
one point.  While several starts are live, one call of the batched rule
(``UnionMap._rule_rows``) serves them, picked among by :func:`_choose`.  The
one left (a lone start, or a block's last) runs :func:`_run_one` on its (d,)
point, its state in plain floats: a step calls the map's scalar rule
(``UnionMap._pairs``) through :func:`_pick`, which takes the lone pair
(``UnionMap._lone``) where the map has a lone form and the step one
candidate, with no policy call for a lone candidate, and takes one norm,
its step norm, which is its iterate check too.  Each start has its
own selection policy state; it leaves the block when it converges, trips
the divergence guard or reaches max_iters (a cyclic run converges on a run
of small steps, not one: :func:`_cycle_done`).  Classification,
local-minimum checks and set distances are made per trace.  A block raises
when some start's run would, though not always with that start's error:
redo a block start by start to learn which start fails first.

A start trips the divergence guard when an iterate's norm exceeds
DIVERGENCE_FACTOR * (1 + ||x_0||).  Neither loop takes that norm at every
step: each keeps the running bound ||x_0|| + sum_k ||x_(k+1) - x_k||
(the triangle inequality) from the step norms it records anyway, and takes
the norm only when the bound is past half the guard or NaN, restarting the
bound from it.  The guard's decisions are those of the norm taken at every
step: after n steps in R^d the rounding of the computed bound is at most
about (n + d) 2^-53 of its value, far inside the factor 2 of slack, so
while the bound is within half the guard the norm is within the guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from unionfix import minconvex, oracle, sets as sets_mod
from unionfix.core_ops import (
    DEFAULT_TIE_TOL,
    AveragedMap,
    DimensionMismatchError,
    EmptySelectionError,
    Index,
    UnionMap,
    _block_rows,
    _check_tol,
    _merge_dim,
    as_vector,
    compose,
    dr_map,
    from_map,
    piece_count,
)
from unionfix.minconvex import MinConvexFn
from unionfix.projections import norm, row_norms

DIVERGENCE_FACTOR = 1e8
SCHEDULE_EPS = 1e-3
RECURRENT_FIXED_TOL = 1e-8  # km_admissible: residual of a map that fixes x_final


class ScheduleError(ValueError):
    """Relaxation schedule incompatible with the operator's averagedness."""


@dataclass(frozen=True)
class Schedule:
    """Relaxation sequence with a declared range (lo, hi]."""

    lambda_at: Callable[[int], float]
    lo: float
    hi: float

    @staticmethod
    def constant(lam: float) -> "Schedule":
        lam = float(lam)
        return Schedule(lambda n: lam, lo=0.0, hi=lam)


def checked_lambda(schedule: Schedule, n: int, bound: float) -> float:
    """Draw lambda_n and check it against the declared range and the liminf
    surrogate lambda_n * (bound - lambda_n) >= SCHEDULE_EPS."""
    lam = schedule.lambda_at(n)
    if not (schedule.lo < lam <= schedule.hi + 1e-12):
        raise ScheduleError(
            f"lambda_{n} = {lam} outside declared range "
            f"({schedule.lo}, {schedule.hi}]"
        )
    if lam * (bound - lam) < SCHEDULE_EPS:
        raise ScheduleError(
            f"lambda_{n} = {lam} violates the surrogate "
            f"lambda*({bound} - lambda) >= {SCHEDULE_EPS}"
        )
    return lam


def validate_schedule(schedule: Schedule, hi_bound: float, horizon: int) -> None:
    """Check the declared range against (0, hi_bound] and every lambda_n
    with n < horizon as :func:`checked_lambda` does."""
    if schedule.hi > hi_bound + 1e-12:
        raise ScheduleError(
            f"schedule range (0, {schedule.hi}] exceeds the admissible "
            f"(0, {hi_bound}] for this operator"
        )
    for n in range(horizon):
        checked_lambda(schedule, n, hi_bound)


@dataclass(frozen=True)
class ControlSequence:
    """Deterministic index sequence; index_at is a pure function of the step."""

    index_at: Callable[[int], Index]
    kind: str

    @staticmethod
    def cyclic(keys: Sequence[Index]) -> "ControlSequence":
        keys = list(keys)
        return ControlSequence(lambda n: keys[n % len(keys)], kind="cyclic")

    @staticmethod
    def seeded_random(keys: Sequence[Index], seed: int) -> "ControlSequence":
        """Shuffled permutation blocks: admissible with window 2m - 1."""
        keys = list(keys)
        m = len(keys)
        cache: dict[int, np.ndarray] = {}

        def index_at(n):
            block = n // m
            if block not in cache:
                cache[block] = np.random.default_rng([seed, block]).permutation(m)
            return keys[int(cache[block][n % m])]

        return ControlSequence(index_at, kind="seeded-random-admissible")


POLICY_KINDS = ("lowest-index", "seeded-random", "round-robin")


@dataclass(frozen=True)
class SelectionPolicy:
    """Rule for picking one candidate from a multi-valued evaluation; an
    unknown kind, or a seed that is not a nonnegative integer (a bool is
    not one, a numpy integer is), is refused here, before any run."""

    kind: str = "lowest-index"  # one of POLICY_KINDS
    seed: int = 0

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown selection policy {self.kind!r}")
        seed = self.seed
        if type(seed) is bool or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"selection policy seed must be a nonnegative "
                             f"integer, got {seed!r}")


class _Chooser:
    def __init__(self, policy: SelectionPolicy, finite: bool = False):
        self.policy = policy
        self.rng = None  # drawn from only under seeded-random
        self.finite = finite  # whether the row's iterate is known finite

    def pick(self, n: int, count: int) -> int:
        """The position of the entry chosen among ``count`` candidates at
        step n; depends only on the step and the count.  Every policy picks
        0 of 1, and ``integers(1)`` draws nothing from the generator, so a
        lone candidate needs no call."""
        kind = self.policy.kind
        if kind == "lowest-index":
            return 0
        if kind == "round-robin":
            return n % count
        if self.rng is None:  # seeded-random, the policy's one other kind
            self.rng = np.random.default_rng(self.policy.seed)
        return int(self.rng.integers(count))


@dataclass(frozen=True)
class StopRule:
    step_tol: float = 1e-10
    max_iters: int = 10_000
    residual_fn: Callable[[np.ndarray], float] | None = None
    residual_tol: float = 0.0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class TraceStep:
    n: int
    x: np.ndarray
    index: Index
    lam: float
    step_norm: float
    extras: dict | None = None


@dataclass
class IterationTrace:
    steps: list[TraceStep]
    status: str  # converged | max-iters | diverged-guard
    x_final: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def iterates(self) -> list[np.ndarray]:
        return [s.x for s in self.steps] + [self.x_final]


def _starts(x0) -> tuple[np.ndarray, bool]:
    """x0 as a validated (N, d) block of starts, and whether it was one
    start: an (N, d) array is a block, anything else one start, validated
    as :func:`~unionfix.core_ops.as_vector` validates it."""
    X = np.array(x0, dtype=float)
    if X.ndim == 2:
        return _block_rows(X), False
    return as_vector(X)[None], True


def _result(traces: list[IterationTrace], one: bool):
    return traces[0] if one else traces


def _pick(n: int, x: np.ndarray, chooser: _Chooser, T: UnionMap,
          pairs: Callable | None = None) -> tuple:
    """The candidate that a lone start's chooser picks at step n, at its
    (d,) iterate x: one of T's rule's pairs (``_pairs``), or of ``pairs(x)``
    in that form with several points each.  x is checked as ``T.evaluate``
    checks a point; of a chooser that knows it ``finite``, only the
    dimension.  T's scalar rule tries T's lone form first, where T has one
    (:func:`~unionfix.core_ops._derived_rule`, a set's ``_nearest``).  A
    lone candidate is taken without a policy call: every policy picks 0 of
    1 (:meth:`_Chooser.pick`)."""
    candidates = (pairs or T._pairs)(T._check_iterates(x, chooser.finite))
    if len(candidates) == 1:
        return candidates[0]
    return candidates[chooser.pick(n, len(candidates))]


def _choose(n: int, X: np.ndarray, choosers: list, T: UnionMap,
            rule_rows: Callable | None = None):
    """The candidate that each live row's chooser picks at step n, for a
    block of two or more live rows X (a lone start picks by :func:`_pick`),
    as the chosen keys and an (L, d) array per point a candidate carries.
    The candidates are one call of T's batched rule (``_rule_rows``), or of
    ``rule_rows(X)`` in that form with several points each; their rows
    ascend.  The iterates are checked as ``T.evaluate`` checks a point."""
    rows, keys, *points = (rule_rows or T._rule_rows)(T._check_iterates(X))
    counts = np.bincount(rows, minlength=len(choosers))
    if not counts.all():
        raise EmptySelectionError(f"no candidates for live row {counts.argmin()}")
    if len(rows) == len(choosers):
        # one candidate per row, which every chooser picks: the rule's own
        # keys and points, not copied.  Nothing writes into them in place
        # (_run_loop and the drivers' updates make new arrays); keep it so
        return keys, *points
    firsts = (np.cumsum(counts) - counts).tolist()
    picks = [first + c.pick(n, count)
             for c, first, count in zip(choosers, firsts, counts.tolist())]
    return [keys[k] for k in picks], *(P[picks] for P in points)


def _cycle_done(steps: list, n: int, cycle: int, step_tol: float) -> bool:
    """Whether step n, within ``step_tol``, stops a cycle of m maps: n >= m - 1
    and its last max(m - 1, 1) steps are all within it.  One small step may be
    one projection of the cycle; m - 1 small projections put x in all m sets."""
    return n >= cycle - 1 and all(s.step_norm <= step_tol
                                  for s in steps[-max(cycle - 1, 1):])


def _run_loop(update, step, X0: np.ndarray, stop: StopRule, meta: dict,
              policy: SelectionPolicy = SelectionPolicy(),
              cycle: int = 1) -> list[IterationTrace]:
    """Run the starts of a validated (N, d) block: the iteration loop of
    every driver.

    ``update(n, X, choosers)`` takes step n at the live rows X, an (L, d)
    array with L >= 2, with their choosers, and returns ``(X_next, indices,
    lam, extras)``: the next rows, each row's chosen index, lambda_n and a
    list of per-row extras or None.  ``step(n, x, chooser)`` takes step n
    at one live (d,) point x, and returns ``(x_next, index, lam, extras)``,
    bit for bit a row of ``update``'s.  A start leaves the block when it
    trips the divergence guard, meets the residual or step tolerance, or
    reaches max_iters; a driver that cycles through ``cycle`` maps meets the
    step tolerance as :func:`_cycle_done` says.

    Each start's trace, with no steps, ``"max-iters"``, its x0 row and its
    own copy of ``meta``, is built here and filled in by the loops.  The
    starts step in lockstep here while two or more are live; the one left,
    a lone start from step 0 or a block's last from the step the others
    left, runs :func:`_run_one` on its (d,) point.
    """
    live = traces = [IterationTrace(steps=[], status="max-iters", x_final=x0,
                                    meta=dict(meta)) for x0 in X0]
    # a lone start's x0 is validated; a survivor's iterate is not checked
    choosers = [_Chooser(policy, finite=len(X0) == 1) for _ in traces]
    bounds = row_norms(X0).tolist()  # each live row's running bound on its norm
    guards = [DIVERGENCE_FACTOR * (1.0 + bound) for bound in bounds]
    residual_fn, step_tol = stop.residual_fn, stop.step_tol
    X = X0
    for n in range(stop.max_iters):
        if len(live) < 2:
            if live:
                _run_one(step, n, X[0], live[0], bounds[0], guards[0],
                         choosers[0], stop, cycle)
            break
        X_next, indices, lam, extras = update(n, X, choosers)
        step_norms = row_norms(X_next - X).tolist()
        kept = []
        for k, (trace, step_norm) in enumerate(zip(live, step_norms)):
            trace.steps.append(TraceStep(n, X[k], indices[k], lam, step_norm,
                                         None if extras is None else extras[k]))
            x = trace.x_final = X_next[k]
            # the stop and guard decision, as _run_one makes it for one start
            bound = bounds[k] + step_norm
            if not bound <= 0.5 * guards[k]:  # NaN included: the norm decides
                bound = norm(x)
            bounds[k] = bound
            if bound > guards[k]:
                trace.status = "diverged-guard"
            elif ((residual_fn is not None and residual_fn(x) <= stop.residual_tol)
                  or (step_norm <= step_tol
                      and _cycle_done(trace.steps, n, cycle, step_tol))):
                trace.status = "converged"
            else:
                kept.append(k)
        if len(kept) < len(live):
            live = [live[k] for k in kept]
            choosers = [choosers[k] for k in kept]
            guards = [guards[k] for k in kept]
            bounds = [bounds[k] for k in kept]
            X_next = X_next[kept]
        X = X_next
    return traces


def _run_one(step, n: int, x: np.ndarray, trace: IterationTrace,
             bound: float, guard: float, chooser: _Chooser, stop: StopRule,
             cycle: int) -> None:
    """:func:`_run_loop` on its one live start, the (d,) point x, from step
    n on: the steps, stop decisions and trace of a block's row, bit for bit,
    into ``trace``, with the bound and guard as plain floats.  The step norm
    (``row_norms``'s value for a row) checks x_(n+1) = x_n + D too: the
    driver's :func:`_pick` reruns the iterate check only for a chooser not
    ``finite``, after an inf or NaN norm or at a survivor's first step."""
    steps = trace.steps
    residual_fn, step_tol = stop.residual_fn, stop.step_tol
    for n in range(n, stop.max_iters):
        x_next, index, lam, extras = step(n, x, chooser)
        step_norm = norm(x_next - x)
        chooser.finite = math.isfinite(step_norm)
        steps.append(TraceStep(n, x, index, lam, step_norm, extras))
        x = x_next
        # the stop and guard decision, as _run_loop makes it for each row
        bound += step_norm
        if not bound <= 0.5 * guard:  # NaN included: the norm decides
            bound = norm(x)
        if bound > guard:
            trace.status = "diverged-guard"
            break
        if ((residual_fn is not None and residual_fn(x) <= stop.residual_tol)
                or (step_norm <= step_tol and _cycle_done(steps, n, cycle, step_tol))):
            trace.status = "converged"
            break
    trace.x_final = x


# ---------------------------------------------------------------------------
# Drivers.  The splitting drivers (ppa, forward_backward, douglas_rachford)
# take their operator prebuilt through one private ``_operator`` (the
# prox_union, fb_operator or drs_operator of their arguments), or build it.
# ---------------------------------------------------------------------------

def km_admissible(
    maps: Sequence[AveragedMap],
    control: ControlSequence,
    schedule: Schedule,
    x0,
    stop: StopRule,
) -> IterationTrace | list[IterationTrace]:
    """Relaxed iteration x+ = (1 - lam) x + lam T_i(x) under admissible
    control.  Each lam_n is checked against the surrogate with the bound
    1/alpha_{i_n} of the map it relaxes, before step n is applied.
    """
    maps = list(maps)
    X0, one = _starts(x0)

    def update(n, X, choosers):
        i = control.index_at(n)
        lam = checked_lambda(schedule, n, 1.0 / maps[i].alpha)
        return (1.0 - lam) * X + lam * maps[i].rows(X), [i] * len(X), lam, None

    def step(n, x, chooser):  # a map's rows on the one row x[None]
        X_next, indices, lam, _ = update(n, x[None], None)
        return X_next[0], indices[0], lam, None

    meta = {"algorithm": "km-admissible", "control": control.kind}
    traces = _run_loop(update, step, X0, stop, meta)
    for trace in traces:
        if trace.status == "converged":
            window = max(2 * len(maps), 1)
            recent = {s.index for s in trace.steps[-window:]}
            residuals = {
                i: norm(trace.x_final - maps[i](trace.x_final))
                for i in sorted(recent)
            }
            trace.meta["recurrent_fixed_residuals"] = residuals
            trace.meta["fixed_by_recurrent"] = all(r <= RECURRENT_FIXED_TOL
                                                   for r in residuals.values())
    return _result(traces, one)


def iterate_union(
    T: UnionMap,
    schedule: Schedule,
    policy: SelectionPolicy,
    x0,
    stop: StopRule,
) -> IterationTrace | list[IterationTrace]:
    """Relaxed union-map iteration x+ in (1 - lam) x + lam T(x)."""
    X0, one = _starts(x0)
    bound = 1.0 / T.alpha

    def toward(x, v, lam):  # one formula for a point and a block
        # 1.0 * v is v bit for bit; (1.0 - lam) * x decides signed zeros
        return (1.0 - lam) * x + (v if lam == 1.0 else lam * v)

    def update(n, X, choosers):
        lam = checked_lambda(schedule, n, bound)
        keys, V = _choose(n, X, choosers, T)
        return toward(X, V, lam), keys, lam, None

    def step(n, x, chooser):
        lam = checked_lambda(schedule, n, bound)
        key, v = _pick(n, x, chooser, T)
        return toward(x, v, lam), key, lam, None

    meta = {"algorithm": "iterate-union", "operator": T.label}
    traces = _run_loop(update, step, X0, stop, meta, policy)
    for trace in traces:
        if trace.status == "converged":
            trace.meta["classification"] = oracle.verify_fixed_classification(
                T, trace.x_final)
    return _result(traces, one)


def cyclic_compose(
    maps: Sequence[UnionMap],
    x0,
    policy: SelectionPolicy = SelectionPolicy(),
    stop: StopRule = StopRule(),
) -> IterationTrace | list[IterationTrace]:
    """x+ in T_{n mod m}(x); classifies the limit against the composition
    applied maps[0] first.  A step within the step tolerance stops a start
    only once the last max(m - 1, 1) steps all were (the loop's ``cycle``).
    Maps of several dimensions, or starts of another dimension than theirs,
    raise DimensionMismatchError before a step; so do the set drivers'
    sets, through their projectors' dimensions.
    """
    maps = list(maps)
    m = len(maps)
    X0, one = _starts(x0)
    # refused before a step: maps of several dimensions, and starts that
    # a later map of the cycle would refuse
    dim = _merge_dim(maps)
    if dim is not None and X0.shape[1] != dim:
        raise DimensionMismatchError(
            f"the cycle's maps expect dimension {dim}, got {X0.shape[1]}")

    def update(n, X, choosers):
        j = n % m
        keys, V = _choose(n, X, choosers, maps[j])
        return V, [(j, i) for i in keys], 1.0, None

    def step(n, x, chooser):
        j = n % m
        i, v = _pick(n, x, chooser, maps[j])
        return v, (j, i), 1.0, None

    meta = {"algorithm": "cyclic-compose", "cycle_length": m}
    traces = _run_loop(update, step, X0, stop, meta, policy, cycle=m)
    composite = None
    for trace in traces:
        if trace.status == "converged":
            if composite is None:
                composite = compose(maps)
            trace.meta["classification"] = oracle.verify_fixed_classification(
                composite, trace.x_final
            )
    return _result(traces, one)


def projectors(
    set_list: Sequence[sets_mod.UnionConvexSet], tie_tol: float = DEFAULT_TIE_TOL
) -> list[UnionMap]:
    """The multi-valued projectors P_{C1}, ..., P_{Cm}."""
    return [sets_mod.project_union(s, tie_tol) for s in set_list]


def cyclic_projections(
    set_list: Sequence[sets_mod.UnionConvexSet],
    x0,
    stop: StopRule = StopRule(),
    policy: SelectionPolicy = SelectionPolicy(),
    tie_tol: float = DEFAULT_TIE_TOL,
    membership_tol: float = 1e-8,
) -> IterationTrace | list[IterationTrace]:
    """Method of cyclic projections over union-convex sets."""
    membership_tol = _check_tol(membership_tol, "membership_tol")
    set_list = list(set_list)
    if len(set_list) < 2:
        raise ValueError("cyclic projections needs at least 2 sets")
    X0, one = _starts(x0)
    traces = cyclic_compose(projectors(set_list, tie_tol), X0, policy=policy,
                            stop=stop)
    for trace in traces:
        trace.meta["algorithm"] = "cyclic-projections"
        distances = [s.distance(trace.x_final) for s in set_list]
        trace.meta["set_distances"] = distances
        trace.meta["in_intersection"] = all(d <= membership_tol for d in distances)
    return _result(traces, one)


def dr_ring(
    set_list: Sequence[sets_mod.UnionConvexSet], tie_tol: float = DEFAULT_TIE_TOL
) -> list[UnionMap]:
    """The cyclic-DR operators T_{C1,C2}, T_{C2,C3}, ..., T_{Cm,C1}."""
    m = len(set_list)
    return [sets_mod.dr_operator(set_list[j], set_list[(j + 1) % m], tie_tol)
            for j in range(m)]


def dr_anchored(
    set_list: Sequence[sets_mod.UnionConvexSet], tie_tol: float = DEFAULT_TIE_TOL
) -> list[UnionMap]:
    """The anchored-DR operators T_{C1,C2}, ..., T_{C1,Cm}; C1 is the anchor."""
    return [sets_mod.dr_operator(set_list[0], s, tie_tol) for s in set_list[1:]]


def cyclic_dr(
    set_list: Sequence[sets_mod.UnionConvexSet],
    x0,
    stop: StopRule = StopRule(),
    policy: SelectionPolicy = SelectionPolicy(),
    tie_tol: float = DEFAULT_TIE_TOL,
) -> IterationTrace | list[IterationTrace]:
    """Cyclic Douglas-Rachford: the composite of the two-set operators
    T_{C1,C2}, T_{C2,C3}, ..., T_{Cm,C1} applied in that order with
    lambda = 1.  The limit is classified against the composite only; no
    shadow point is emitted (shadow recovery is unresolved for m >= 3).
    """
    set_list = list(set_list)
    if len(set_list) < 2:
        raise ValueError("cyclic DR needs at least 2 sets")
    composite = compose(dr_ring(set_list, tie_tol))
    X0, one = _starts(x0)
    traces = iterate_union(composite, Schedule.constant(1.0), policy, X0, stop)
    for trace in traces:
        trace.meta["algorithm"] = "cyclic-dr"
    return _result(traces, one)


def cadr(
    set_list: Sequence[sets_mod.UnionConvexSet],
    x0,
    stop: StopRule = StopRule(),
    policy: SelectionPolicy = SelectionPolicy(),
    tie_tol: float = DEFAULT_TIE_TOL,
    membership_tol: float = 1e-8,
) -> IterationTrace | list[IterationTrace]:
    """Cyclically anchored Douglas-Rachford; set_list[0] is the anchor.

    x+ in T_{C1, C_{i_n}}(x) with i_n cycling through the non-anchor sets.
    When the anchor is a single convex piece, the shadow point P_{C1}(xbar)
    is emitted with its membership residuals in every set.
    """
    membership_tol = _check_tol(membership_tol, "membership_tol")
    set_list = list(set_list)
    if len(set_list) < 2:
        raise ValueError("anchored DR needs at least 2 sets")
    X0, one = _starts(x0)
    traces = cyclic_compose(dr_anchored(set_list, tie_tol), X0, policy=policy,
                            stop=stop)
    anchor = set_list[0]
    for trace in traces:
        meta = trace.meta
        meta["algorithm"] = "cadr"
        if trace.status == "converged" and piece_count(anchor.pieces) == 1:
            (piece,) = anchor.pieces.values()
            shadow = piece.project(trace.x_final)
            meta["shadow"] = shadow
            meta["shadow_distances"] = [s.distance(shadow) for s in set_list]
            meta["shadow_feasible"] = all(
                d <= membership_tol for d in meta["shadow_distances"]
            )
    return _result(traces, one)


def ppa(
    f: MinConvexFn,
    gamma: float,
    policy: SelectionPolicy,
    x0,
    stop: StopRule,
    tie_tol: float = DEFAULT_TIE_TOL,
    local_min_tol: float = 1e-8,
    _operator: UnionMap | None = None,  # prox_union(f, gamma, tie_tol), if built
) -> IterationTrace | list[IterationTrace]:
    """Proximal point algorithm x+ in prox_{gamma f}(x)."""
    local_min_tol = _check_tol(local_min_tol, "local_min_tol")
    T = _operator or minconvex.prox_union(f, gamma, tie_tol)
    X0, one = _starts(x0)
    traces = iterate_union(T, Schedule.constant(1.0), policy, X0, stop)
    for trace in traces:
        trace.meta["algorithm"] = "ppa"
        trace.meta["gamma"] = gamma
        if trace.status == "converged":
            trace.meta["local_min"] = minconvex._finite_local_min(
                f, trace.x_final, local_min_tol)
    return _result(traces, one)


@dataclass(frozen=True)
class SmoothFn:
    """Convex smooth term: value, gradient, and a Lipschitz constant of
    the gradient.  ``grad_many(X)``, when given, maps the rows of an (N, d)
    array, each bit-for-bit as ``grad`` would; without it, a block's
    gradients are ``grad`` called once per row, in row order.  A gradient
    has the shape of its point (or block): any other is refused with
    ValueError."""

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    lipschitz: float
    label: str = "smooth"
    grad_many: Callable[[np.ndarray], np.ndarray] | None = None


def fb_operator(
    fsmooth: SmoothFn, g: MinConvexFn, gamma: float,
    tie_tol: float = DEFAULT_TIE_TOL,
) -> UnionMap:
    """Forward-backward operator prox_{gamma g} o (Id - gamma grad f),
    built by composition so its averagedness constant is 2/(4 - gamma L).
    """
    L = float(fsmooth.lipschitz)
    _check_fb_gamma(gamma, L)
    prox = minconvex.prox_union(g, gamma, tie_tol)
    if L == 0.0:
        return prox
    grad, grad_many, label = fsmooth.grad, fsmooth.grad_many, fsmooth.label
    if grad_many is None:
        def grad_many(X):  # one grad call per row, in row order
            return np.array([grad(x) for x in X], dtype=float)
    # the update is elementwise, so row k of the block step is bit for bit
    # the scalar step at X[k]
    step = AveragedMap(
        lambda x: x - gamma * _gradient(grad(x), x.shape, label),
        alpha=gamma * L / 2.0,
        label=f"grad-step[{label}]",
        many=lambda X: X - gamma * _gradient(grad_many(X), X.shape, label),
    )
    return compose([from_map(step), prox], label="fb")


def _gradient(g, shape: tuple, label: str) -> np.ndarray:
    """A gradient as a float array of the point's (or block's) shape; any
    other shape is refused rather than broadcast."""
    g = np.asarray(g, dtype=float)
    if g.shape != shape:
        raise ValueError(f"gradient of {label!r} has shape {g.shape}, "
                         f"expected {shape}")
    return g


def _check_fb_gamma(gamma: float, L: float) -> None:
    if L < 0:
        raise ValueError("Lipschitz constant must be nonnegative")
    if L == 0.0:
        if gamma <= 0:
            raise ValueError("gamma must be positive")
    elif not (0.0 < gamma < 2.0 / L):
        raise ValueError(
            f"gamma must lie in (0, 2/L) = (0, {2.0 / L}), got {gamma}"
        )


def forward_backward(
    fsmooth: SmoothFn,
    g: MinConvexFn,
    gamma: float,
    schedule: Schedule,
    policy: SelectionPolicy,
    x0,
    stop: StopRule,
    tie_tol: float = DEFAULT_TIE_TOL,
    local_min_tol: float = 1e-8,
    _operator: UnionMap | None = None,  # fb_operator(fsmooth, g, gamma, tie_tol)
) -> IterationTrace | list[IterationTrace]:
    """Relaxed forward-backward splitting for min f + g with g min-convex.

    gamma must lie in (0, 2/L); the schedule range must respect
    (0, (4 - gamma L)/2] with the liminf surrogate.
    """
    local_min_tol = _check_tol(local_min_tol, "local_min_tol")
    T = _operator or fb_operator(fsmooth, g, gamma, tie_tol)
    X0, one = _starts(x0)
    traces = iterate_union(T, schedule, policy, X0, stop)
    for trace in traces:
        trace.meta["algorithm"] = "forward-backward"
        trace.meta["gamma"] = gamma
        cls = trace.meta.get("classification")
        if cls is not None and cls.kind == "strong-fixed":
            x = trace.x_final
            trace.meta["local_min"] = minconvex.is_local_min(
                g, x, tol=local_min_tol, w=x - gamma * as_vector(fsmooth.grad(x)),
                gamma=gamma,
            )
    return _result(traces, one)


def drs_operator(
    f: MinConvexFn, g: MinConvexFn, gamma: float,
    tie_tol: float = DEFAULT_TIE_TOL,
) -> UnionMap:
    """Douglas-Rachford splitting operator
    (Id + (2 prox_{gamma g} - Id) o (2 prox_{gamma f} - Id)) / 2: the
    :func:`~unionfix.core_ops.dr_map` of the two proxes, union 1/2-averaged
    nonexpansive, with pieces indexed by (i, j) as in the driver.
    """
    return dr_map(minconvex.prox_union(f, gamma, tie_tol),
                  minconvex.prox_union(g, gamma, tie_tol), label="drs")


def douglas_rachford(
    f: MinConvexFn,
    g: MinConvexFn,
    gamma: float,
    schedule: Schedule,
    policy: SelectionPolicy,
    x0,
    stop: StopRule,
    tie_tol: float = DEFAULT_TIE_TOL,
    local_min_tol: float = 1e-8,
    _operator: UnionMap | None = None,  # drs_operator(f, g, gamma, tie_tol)
) -> IterationTrace | list[IterationTrace]:
    """Douglas-Rachford splitting x+ = x + lam (z - y) with
    y in prox_{gamma f}(x), z in prox_{gamma g}(2y - x), lam in (0, 2].

    The candidates ((i, j), y, z) are :func:`drs_operator`'s own steps
    (``T._steps``, and ``T._step_rows`` on a block), in its pairs' order;
    the chosen y and z are recorded with each step.  When f has a single
    convex piece, the shadow ybar = prox_{gamma f}(xbar) is emitted on
    convergence with its local-minimum check.
    """
    local_min_tol = _check_tol(local_min_tol, "local_min_tol")
    T = _operator or drs_operator(f, g, gamma, tie_tol)
    X0, one = _starts(x0)
    bound = 1.0 / T.alpha

    def toward(x, y, z, lam):  # one formula for a point and a block
        return x + lam * (z - y)

    def update(n, X, choosers):
        lam = checked_lambda(schedule, n, bound)
        keys, Y, Z = _choose(n, X, choosers, T, T._step_rows)
        return (toward(X, Y, Z, lam), keys, lam,
                [{"y": Y[k], "z": Z[k]} for k in range(len(X))])

    def step(n, x, chooser):
        lam = checked_lambda(schedule, n, bound)
        key, y, z = _pick(n, x, chooser, T, T._steps)
        return toward(x, y, z, lam), key, lam, {"y": y, "z": z}

    meta = {"algorithm": "douglas-rachford", "gamma": gamma}
    traces = _run_loop(update, step, X0, stop, meta, policy)
    for trace in traces:
        if trace.status == "converged":
            trace.meta["classification"] = oracle.verify_fixed_classification(
                T, trace.x_final)
            if len(f.pieces) == 1:
                shadow = np.asarray(f.pieces[0].prox(gamma, trace.x_final),
                                    dtype=float)
                trace.meta["shadow"] = shadow
                trace.meta["shadow_local_min"] = minconvex.is_local_min(
                    g, shadow, tol=local_min_tol, w=2.0 * shadow - trace.x_final,
                    gamma=gamma,
                )
    return _result(traces, one)
