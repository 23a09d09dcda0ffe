"""Fixed-point iteration drivers with relaxation schedules, control
sequences, selection policies, stopping rules, and trace capture.

Every driver is single-threaded and deterministic: replays with identical
inputs and seeds produce bit-identical traces.  Asymptotic schedule
hypotheses are enforced as the surrogate lambda_n (bound - lambda_n) >= eps
with an explicit epsilon: every lambda_n a run uses is checked before
step n is applied.
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
    Index,
    UnionMap,
    _dr_steps,
    as_vector,
    compose,
    dr_map,
    from_map,
    piece_count,
)
from unionfix.minconvex import MinConvexFn

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


def window_coverage(seq: Sequence[Index], indices: Sequence[Index],
                    window: int) -> bool:
    """True iff every index appears in every length-``window`` slice."""
    required = set(indices)
    if len(seq) < window:
        return required <= set(seq)
    return all(
        required <= set(seq[k:k + window]) for k in range(len(seq) - window + 1)
    )


@dataclass(frozen=True)
class SelectionPolicy:
    """Rule for picking one candidate from a multi-valued evaluation."""

    kind: str = "lowest-index"  # lowest-index | seeded-random | round-robin
    seed: int = 0


class _Chooser:
    def __init__(self, policy: SelectionPolicy):
        self.policy = policy
        self.rng = np.random.default_rng(policy.seed)

    def choose(self, n: int, candidates: list):
        """Pick one entry; depends only on the list's order and length."""
        kind = self.policy.kind
        if kind == "lowest-index":
            return candidates[0]
        if kind == "round-robin":
            return candidates[n % len(candidates)]
        if kind == "seeded-random":
            return candidates[int(self.rng.integers(len(candidates)))]
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


def _run_loop(update, x0, stop: StopRule, meta: dict) -> IterationTrace:
    x = as_vector(x0)
    guard = DIVERGENCE_FACTOR * (1.0 + float(np.linalg.norm(x)))
    steps: list[TraceStep] = []
    status = "max-iters"
    for n in range(stop.max_iters):
        x_next, index, lam, extras = update(n, x)
        step_norm = float(np.linalg.norm(x_next - x))
        steps.append(TraceStep(n=n, x=x, index=index, lam=lam,
                               step_norm=step_norm, extras=extras))
        x = x_next
        if float(np.linalg.norm(x)) > guard:
            status = "diverged-guard"
            break
        if stop.residual_fn is not None:
            if stop.residual_fn(x) <= stop.residual_tol:
                status = "converged"
                break
        if step_norm <= stop.step_tol:
            status = "converged"
            break
    return IterationTrace(steps=steps, status=status, x_final=x, meta=meta)


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
) -> IterationTrace:
    """Relaxed iteration x+ = (1 - lam) x + lam T_i(x) under admissible
    control.  Each lam_n is checked against the surrogate with the bound
    1/alpha_{i_n} of the map it relaxes, before step n is applied.
    """
    maps = list(maps)

    def update(n, x):
        i = control.index_at(n)
        lam = checked_lambda(schedule, n, 1.0 / maps[i].alpha)
        return (1.0 - lam) * x + lam * maps[i](x), i, lam, None

    meta = {"algorithm": "km-admissible", "control": control.kind}
    trace = _run_loop(update, x0, stop, meta)
    if trace.status == "converged":
        window = max(2 * len(maps), 1)
        recent = {s.index for s in trace.steps[-window:]}
        residuals = {
            i: float(np.linalg.norm(trace.x_final - maps[i](trace.x_final)))
            for i in sorted(recent)
        }
        meta["recurrent_fixed_residuals"] = residuals
        meta["fixed_by_recurrent"] = all(r <= diag_tol for r in residuals.values())
    return trace


def iterate_union(
    T: UnionMap,
    schedule: Schedule,
    policy: SelectionPolicy,
    x0,
    stop: StopRule,
) -> IterationTrace:
    """Relaxed union-map iteration x+ in (1 - lam) x + lam T(x)."""
    bound = 1.0 / T.alpha
    chooser = _Chooser(policy)

    def update(n, x):
        lam = checked_lambda(schedule, n, bound)
        i, v = chooser.choose(n, T.evaluate(x))
        return (1.0 - lam) * x + lam * v, i, lam, None

    meta = {"algorithm": "iterate-union", "operator": T.label}
    trace = _run_loop(update, x0, stop, meta)
    if trace.status == "converged":
        meta["classification"] = oracle.verify_fixed_classification(T, trace.x_final)
    return trace


def cyclic_compose(
    maps: Sequence[UnionMap],
    x0,
    policy: SelectionPolicy = SelectionPolicy(),
    stop: StopRule = StopRule(),
) -> IterationTrace:
    """x+ in T_{n mod m}(x); records the subsampled sequence x_{mn} and
    classifies the limit against the composition applied maps[0] first.
    """
    maps = list(maps)
    m = len(maps)
    chooser = _Chooser(policy)

    def update(n, x):
        T = maps[n % m]
        i, v = chooser.choose(n, T.evaluate(x))
        return v, (n % m, i), 1.0, None

    meta = {"algorithm": "cyclic-compose", "cycle_length": m}
    trace = _run_loop(update, x0, stop, meta)
    meta["subsampled"] = [s.x for s in trace.steps if s.n % m == 0]
    if trace.status == "converged":
        composite = compose(maps)
        meta["classification"] = oracle.verify_fixed_classification(
            composite, trace.x_final
        )
    return trace


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
) -> IterationTrace:
    """Method of cyclic projections over union-convex sets."""
    set_list = list(set_list)
    if len(set_list) < 2:
        raise ValueError("cyclic projections needs at least 2 sets")
    trace = cyclic_compose(projectors(set_list, tie_tol), x0, policy=policy,
                           stop=stop)
    trace.meta["algorithm"] = "cyclic-projections"
    distances = [s.distance(trace.x_final) for s in set_list]
    trace.meta["set_distances"] = distances
    trace.meta["in_intersection"] = all(d <= membership_tol for d in distances)
    return trace


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
) -> IterationTrace:
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
    trace = iterate_union(composite, schedule, policy, x0, stop)
    trace.meta["algorithm"] = "cyclic-dr"
    return trace


def cadr(
    set_list: Sequence[sets_mod.UnionConvexSet],
    x0,
    stop: StopRule = StopRule(),
    policy: SelectionPolicy = SelectionPolicy(),
    tie_tol: float = DEFAULT_TIE_TOL,
    membership_tol: float = 1e-8,
) -> IterationTrace:
    """Cyclically anchored Douglas-Rachford; set_list[0] is the anchor.

    x+ in T_{C1, C_{i_n}}(x) with i_n cycling through the non-anchor sets.
    When the anchor is a single convex piece, the shadow point P_{C1}(xbar)
    is emitted with its membership residuals in every set.
    """
    set_list = list(set_list)
    if len(set_list) < 2:
        raise ValueError("anchored DR needs at least 2 sets")
    trace = cyclic_compose(dr_anchored(set_list, tie_tol), x0, policy=policy,
                           stop=stop)
    meta = trace.meta
    meta["algorithm"] = "cadr"
    anchor = set_list[0]
    if trace.status == "converged" and piece_count(anchor.pieces) == 1:
        (piece,) = anchor.pieces.values()
        shadow = piece.project(trace.x_final)
        meta["shadow"] = shadow
        meta["shadow_distances"] = [s.distance(shadow) for s in set_list]
        meta["shadow_feasible"] = all(
            d <= membership_tol for d in meta["shadow_distances"]
        )
    return trace


def ppa(
    f: MinConvexFn,
    gamma: float,
    policy: SelectionPolicy,
    x0,
    stop: StopRule,
    tie_tol: float = DEFAULT_TIE_TOL,
    local_min_tol: float = 1e-8,
) -> IterationTrace:
    """Proximal point algorithm x+ in prox_{gamma f}(x)."""
    T = minconvex.prox_union(f, gamma, tie_tol)
    trace = iterate_union(T, Schedule.constant(1.0), policy, x0, stop)
    trace.meta["algorithm"] = "ppa"
    trace.meta["gamma"] = gamma
    if trace.status == "converged":
        fx = minconvex.value(f, trace.x_final)
        trace.meta["local_min"] = (
            math.isfinite(fx)
            and minconvex.is_local_min(f, trace.x_final, tol=local_min_tol)
        )
    return trace


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
) -> IterationTrace:
    """Relaxed forward-backward splitting for min f + g with g min-convex.

    gamma must lie in (0, 2/L); the schedule range must respect
    (0, (4 - gamma L)/2] with the liminf surrogate.
    """
    T = fb_operator(fsmooth, g, gamma, tie_tol)
    trace = iterate_union(T, schedule, policy, x0, stop)
    trace.meta["algorithm"] = "forward-backward"
    trace.meta["gamma"] = gamma
    cls = trace.meta.get("classification")
    if cls is not None and cls.kind == "strong-fixed":
        x = trace.x_final
        trace.meta["local_min"] = minconvex.is_local_min(
            g, x, tol=local_min_tol, w=x - gamma * as_vector(fsmooth.grad(x)),
            gamma=gamma,
        )
    return trace


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
) -> IterationTrace:
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
    bound = 1.0 / T.alpha
    chooser = _Chooser(policy)

    def update(n, x):
        lam = checked_lambda(schedule, n, bound)
        ij, y, z = chooser.choose(n, _dr_steps(prox_f, prox_g, x))
        return x + lam * (z - y), ij, lam, {"y": y, "z": z}

    meta = {"algorithm": "douglas-rachford", "gamma": gamma}
    trace = _run_loop(update, x0, stop, meta)
    if trace.status == "converged":
        meta["classification"] = oracle.verify_fixed_classification(T, trace.x_final)
        if len(f.pieces) == 1:
            shadow = np.asarray(f.pieces[0].prox(gamma, trace.x_final), dtype=float)
            meta["shadow"] = shadow
            meta["shadow_local_min"] = minconvex.is_local_min(
                g, shadow, tol=local_min_tol, w=2.0 * shadow - trace.x_final,
                gamma=gamma,
            )
    return trace
