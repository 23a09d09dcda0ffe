"""Fixed-point iteration drivers with relaxation schedules, control
sequences, selection policies, stopping rules, and trace capture.

Every driver is single-threaded and deterministic: replays with identical
inputs and seeds produce bit-identical traces.  Asymptotic schedule
hypotheses are enforced as the surrogate lambda_n (bound - lambda_n) >= eps
with an explicit epsilon: every lambda_n a run uses is checked before
step n is applied.

Every driver takes one start ``x0`` and returns its trace, or an (N, d)
array of starts and returns their N traces, which are bit for bit those of
N one-start runs.  The starts of a block step in lockstep through one loop
(:func:`_run_loop`): while one start is live a step calls the map's scalar
rule (``UnionMap._pairs``), and while several are, one call of its batched
rule (``UnionMap._rule_rows``) serves them all.  Each start has its own
selection policy state; it leaves the block when it converges, trips the
divergence guard or reaches max_iters.  Classification, local-minimum
checks and set distances are made per trace.  A block raises when some
start's run would, though not always with that start's error: redo a
block start by start to learn which start fails first.
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
    EmptySelectionError,
    Index,
    UnionMap,
    _block_rows,
    _dr_step_rows,
    _dr_steps,
    as_vector,
    compose,
    dr_map,
    from_map,
    piece_count,
)
from unionfix.minconvex import MinConvexFn
from unionfix.projections import row_norms

DIVERGENCE_FACTOR = 1e8
SCHEDULE_EPS = 1e-3


class ScheduleError(ValueError):
    """Relaxation schedule incompatible with the operator's averagedness."""


@dataclass(frozen=True)
class Schedule:
    """Relaxation sequence with a declared range (lo, hi]."""

    lambda_at: Callable[[int], float]
    lo: float
    hi: float
    description: str = ""

    @staticmethod
    def constant(lam: float, description: str = "") -> "Schedule":
        lam = float(lam)
        return Schedule(lambda n: lam, lo=0.0, hi=lam,
                        description=description or f"constant {lam}")


def checked_lambda(
    schedule: Schedule, n: int, bound: float, eps: float = SCHEDULE_EPS
) -> float:
    """Draw lambda_n and check it against the declared range and the
    surrogate of the liminf hypothesis, lambda_n * (bound - lambda_n) >= eps.
    """
    lam = schedule.lambda_at(n)
    if not (schedule.lo < lam <= schedule.hi + 1e-12):
        raise ScheduleError(
            f"lambda_{n} = {lam} outside declared range "
            f"({schedule.lo}, {schedule.hi}]"
        )
    if lam * (bound - lam) < eps:
        raise ScheduleError(
            f"lambda_{n} = {lam} violates the surrogate "
            f"lambda*({bound} - lambda) >= {eps}"
        )
    return lam


def validate_schedule(
    schedule: Schedule,
    hi_bound: float,
    horizon: int,
    eps: float = SCHEDULE_EPS,
) -> None:
    """Check the declared range against (0, hi_bound] and every lambda_n
    with n < horizon as :func:`checked_lambda` does."""
    if schedule.hi > hi_bound + 1e-12:
        raise ScheduleError(
            f"schedule range (0, {schedule.hi}] exceeds the admissible "
            f"(0, {hi_bound}] for this operator"
        )
    for n in range(horizon):
        checked_lambda(schedule, n, hi_bound, eps)


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


@dataclass(frozen=True)
class SelectionPolicy:
    """Rule for picking one candidate from a multi-valued evaluation."""

    kind: str = "lowest-index"  # lowest-index | seeded-random | round-robin
    seed: int = 0


class _Chooser:
    def __init__(self, policy: SelectionPolicy):
        self.policy = policy
        self.rng = None  # drawn from only under seeded-random

    def pick(self, n: int, count: int) -> int:
        """The position of the entry chosen among ``count`` candidates at
        step n; depends only on the step and the count."""
        kind = self.policy.kind
        if kind == "lowest-index":
            return 0
        if kind == "round-robin":
            return n % count
        if kind == "seeded-random":
            if self.rng is None:
                self.rng = np.random.default_rng(self.policy.seed)
            return int(self.rng.integers(count))
        raise ValueError(f"unknown selection policy {kind!r}")


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


def _picks(n: int, rows: np.ndarray, choosers: list) -> list[int]:
    """Where each live row's chooser picks at step n among the candidates
    of a batched rule, ``rows`` ascending: one position per row."""
    counts = np.bincount(rows, minlength=len(choosers))
    if not counts.all():
        raise EmptySelectionError(f"no candidates for live row {counts.argmin()}")
    firsts = (np.cumsum(counts) - counts).tolist()
    return [first + c.pick(n, count)
            for c, first, count in zip(choosers, firsts, counts.tolist())]


def _choose(n: int, X: np.ndarray, choosers: list, T: UnionMap):
    """The pair of T's rule that each live row's chooser picks at step n,
    as the chosen keys and an (L, d) array of their points.  One live row
    takes the scalar rule, more take one call of the batched rule; the
    iterates are checked as ``T.evaluate`` checks a point."""
    if len(X) == 1:
        pairs = T._pairs(T._check_iterates(X[0]))
        i, v = pairs[choosers[0].pick(n, len(pairs))]
        return [i], v[None]
    rows, keys, P = T._rule_rows(T._check_iterates(X))
    picks = _picks(n, rows, choosers)
    return [keys[k] for k in picks], P[picks]


def _run_loop(update, X0: np.ndarray, stop: StopRule, meta: dict,
              policy: SelectionPolicy = SelectionPolicy()) -> list[IterationTrace]:
    """Run the starts of a validated (N, d) block in lockstep: the one
    iteration loop of every driver.

    ``update(n, X, choosers)`` takes step n at the live rows X, an (L, d)
    array, with their choosers, and returns ``(X_next, indices, lam,
    extras)``: the next rows, each row's chosen index, lambda_n and a list
    of per-row extras or None.  A start leaves the block when it trips the
    divergence guard, meets the residual or step tolerance, or reaches
    max_iters.  Each trace gets its own copy of ``meta``.
    """
    count = len(X0)
    live = list(range(count))  # the start of each live row
    choosers = [_Chooser(policy) for _ in live]
    guards = (DIVERGENCE_FACTOR * (1.0 + row_norms(X0))).tolist()
    steps: list[list[TraceStep]] = [[] for _ in live]
    status = ["max-iters"] * count
    x_final = list(X0)
    residual_fn, step_tol = stop.residual_fn, stop.step_tol
    X = X0
    for n in range(stop.max_iters if count else 0):
        X_next, indices, lam, extras = update(n, X, choosers)
        step_norms = row_norms(X_next - X).tolist()
        sizes = row_norms(X_next).tolist()
        kept = []
        for k, r in enumerate(live):
            steps[r].append(TraceStep(n, X[k], indices[k], lam, step_norms[k],
                                      None if extras is None else extras[k]))
            x = x_final[r] = X_next[k]
            if sizes[k] > guards[k]:
                status[r] = "diverged-guard"
            elif ((residual_fn is not None and residual_fn(x) <= stop.residual_tol)
                  or step_norms[k] <= step_tol):
                status[r] = "converged"
            else:
                kept.append(k)
        if len(kept) < len(live):
            if not kept:
                break
            live = [live[k] for k in kept]
            choosers = [choosers[k] for k in kept]
            guards = [guards[k] for k in kept]
            X_next = X_next[kept]
        X = X_next
    return [IterationTrace(steps=steps[r], status=status[r], x_final=x_final[r],
                           meta=dict(meta)) for r in range(count)]


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

def km_admissible(
    maps: Sequence[AveragedMap],
    control: ControlSequence,
    schedule: Schedule,
    x0,
    stop: StopRule,
    diag_tol: float = 1e-8,
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
        TX = maps[i](X[0])[None] if len(X) == 1 else maps[i].rows(X)
        return (1.0 - lam) * X + lam * TX, [i] * len(X), lam, None

    meta = {"algorithm": "km-admissible", "control": control.kind}
    traces = _run_loop(update, X0, stop, meta)
    for trace in traces:
        if trace.status == "converged":
            window = max(2 * len(maps), 1)
            recent = {s.index for s in trace.steps[-window:]}
            residuals = {
                i: float(np.linalg.norm(trace.x_final - maps[i](trace.x_final)))
                for i in sorted(recent)
            }
            trace.meta["recurrent_fixed_residuals"] = residuals
            trace.meta["fixed_by_recurrent"] = all(r <= diag_tol
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

    def update(n, X, choosers):
        lam = checked_lambda(schedule, n, bound)
        keys, V = _choose(n, X, choosers, T)
        return (1.0 - lam) * X + lam * V, keys, lam, None

    meta = {"algorithm": "iterate-union", "operator": T.label}
    traces = _run_loop(update, X0, stop, meta, policy)
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
    """x+ in T_{n mod m}(x); records the subsampled sequence x_{mn} and
    classifies the limit against the composition applied maps[0] first.
    """
    maps = list(maps)
    m = len(maps)
    X0, one = _starts(x0)

    def update(n, X, choosers):
        j = n % m
        keys, V = _choose(n, X, choosers, maps[j])
        return V, [(j, i) for i in keys], 1.0, None

    meta = {"algorithm": "cyclic-compose", "cycle_length": m}
    traces = _run_loop(update, X0, stop, meta, policy)
    composite = None
    for trace in traces:
        trace.meta["subsampled"] = [s.x for s in trace.steps if s.n % m == 0]
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
    schedule = Schedule.constant(1.0)
    X0, one = _starts(x0)
    traces = iterate_union(composite, schedule, policy, X0, stop)
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
) -> IterationTrace | list[IterationTrace]:
    """Proximal point algorithm x+ in prox_{gamma f}(x)."""
    T = minconvex.prox_union(f, gamma, tie_tol)
    X0, one = _starts(x0)
    traces = iterate_union(T, Schedule.constant(1.0), policy, X0, stop)
    for trace in traces:
        trace.meta["algorithm"] = "ppa"
        trace.meta["gamma"] = gamma
        if trace.status == "converged":
            fx = minconvex.value(f, trace.x_final)
            trace.meta["local_min"] = (
                math.isfinite(fx)
                and minconvex.is_local_min(f, trace.x_final, tol=local_min_tol)
            )
    return _result(traces, one)


@dataclass(frozen=True)
class SmoothFn:
    """Convex smooth term: value, gradient, and a Lipschitz constant of
    the gradient.  ``grad_many(X)``, when given, maps the rows of an (N, d)
    array, each bit-for-bit as ``grad`` would."""

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
    grad_many = fsmooth.grad_many
    step = AveragedMap(
        lambda x: x - gamma * np.asarray(fsmooth.grad(x), dtype=float),
        alpha=gamma * L / 2.0,
        label=f"grad-step[{fsmooth.label}]",
        many=None if grad_many is None
        else lambda X: X - gamma * np.asarray(grad_many(X), dtype=float),
    )
    return compose([from_map(step), prox], label="fb")


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
) -> IterationTrace | list[IterationTrace]:
    """Relaxed forward-backward splitting for min f + g with g min-convex.

    gamma must lie in (0, 2/L); the schedule range must respect
    (0, (4 - gamma L)/2] with the liminf surrogate.
    """
    T = fb_operator(fsmooth, g, gamma, tie_tol)
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
) -> IterationTrace | list[IterationTrace]:
    """Douglas-Rachford splitting x+ = x + lam (z - y) with
    y in prox_{gamma f}(x), z in prox_{gamma g}(2y - x), lam in (0, 2].

    The candidates ((i, j), y, z) come from the Douglas-Rachford step that
    gives :func:`drs_operator`'s pairs, in its order; the chosen y and z
    are recorded with each step.  When f has a single convex piece, the
    shadow ybar = prox_{gamma f}(xbar) is emitted on convergence with its
    local-minimum check.
    """
    prox_f, prox_g = (minconvex.prox_union(h, gamma, tie_tol) for h in (f, g))
    T = dr_map(prox_f, prox_g, label="drs")  # drs_operator(f, g, gamma, tie_tol)
    X0, one = _starts(x0)
    bound = 1.0 / T.alpha

    def update(n, X, choosers):
        # the DR step's candidates ((i, j), y, z), chosen as in _choose
        lam = checked_lambda(schedule, n, bound)
        if len(X) == 1:
            candidates = _dr_steps(prox_f, prox_g, X[0])
            ij, y, z = candidates[choosers[0].pick(n, len(candidates))]
            keys, Y, Z = [ij], y[None], z[None]
        else:
            rows, keys, A, B = _dr_step_rows(prox_f, prox_g, X)
            picks = _picks(n, rows, choosers)
            keys, Y, Z = [keys[k] for k in picks], A[picks], B[picks]
        return (X + lam * (Z - Y), keys, lam,
                [{"y": y, "z": z} for y, z in zip(Y, Z)])

    meta = {"algorithm": "douglas-rachford", "gamma": gamma}
    traces = _run_loop(update, X0, stop, meta, policy)
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
