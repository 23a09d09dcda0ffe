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
point, its state in plain floats, and picks by :func:`_pick`; over maps with
settled forms (the set drivers), once its selection repeats it steps on the
keys it chose and confirms them in blocks (:func:`_settled_round`).  Both
loops record each step, and decide whether its start stops, by
:func:`_record_step`.
Classification, local-minimum checks and set distances are made per trace.
A block raises when some start's run would, though not always with that
start's error: redo a block start by start to learn which start fails first.

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
    _check_count,
    _check_tol,
    _merge_dim,
    _relaxed,
    as_vector,
    compose,
    dr_map,
    from_map,
    piece_count,
)
from unionfix.minconvex import MinConvexFn
from unionfix.projections import _dot, norm, row_norms

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
        return Schedule(_Constant(lam), lo=0.0, hi=lam)


class _Constant:
    """lambda_n of :meth:`Schedule.constant`: lam at every n, with no other
    effect, so a run that checked it at one step has checked it at every
    step, and :func:`iterate_union`'s settled steps take it as it is.  Any
    other ``lambda_at`` is drawn and checked once per step a run records,
    in step order."""

    def __init__(self, lam: float):
        self.lam = lam

    def __call__(self, n: int) -> float:
        return self.lam


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
    unknown kind, or a seed that is not an integer of at least 0 (a bool is
    not one, a numpy integer is), is refused here, before any run."""

    kind: str = "lowest-index"  # one of POLICY_KINDS
    seed: int = 0

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown selection policy {self.kind!r}")
        _check_count(self.seed, "selection policy seed", 0)


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
    """When a run stops, checked once, here: tolerances nonnegative numbers
    and max_iters an integer (a numpy one too, not a bool) of at least 1."""

    step_tol: float = 1e-10
    max_iters: int = 10_000
    residual_fn: Callable[[np.ndarray], float] | None = None
    residual_tol: float = 0.0

    def __post_init__(self):
        _check_tol(self.step_tol, "step_tol")
        _check_tol(self.residual_tol, "residual_tol")
        _check_count(self.max_iters, "max_iters", 1)


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
          rule_rows: Callable, lone: Callable | None) -> tuple:
    """The candidate that a lone start's chooser picks at step n, at its
    (d,) iterate x, among T's candidates: those of the block rule
    ``rule_rows``, in the form of ``T._rule_rows`` with one point or several
    per candidate, whose lone form is ``lone`` or None.  Every caller passes
    T's own: ``T._rule_rows`` and ``T._lone``, or Douglas-Rachford's
    ``T._step_rows`` and ``T._lone_step``.  x is checked as ``T.evaluate``
    checks a point; of a chooser that knows it ``finite``, only the
    dimension.  The lone form's candidate is the step where it has one;
    else the block rule runs on the one row x[None], as :func:`_choose`
    runs it on a block, so ties, policies and errors are the rule's.  A
    lone candidate needs no policy call: every policy picks 0 of 1
    (:meth:`_Chooser.pick`)."""
    x = T._check_iterates(x, chooser.finite)
    candidate = lone and lone(x)
    if candidate is not None:
        return candidate
    _, keys, *points = rule_rows(x[None])
    if not keys:
        raise T._no_pairs(x)
    k = 0 if len(keys) == 1 else chooser.pick(n, len(keys))
    return keys[k], *(P[k] for P in points)


def _choose(n: int, X: np.ndarray, choosers: list, T: UnionMap,
            rule_rows: Callable):
    """The candidate that each live row's chooser picks at step n, for a
    block of two or more live rows X (a lone start picks by :func:`_pick`),
    as the chosen keys and an (L, d) array per point a candidate carries.
    The candidates are one call of ``rule_rows(X)``, T's batched rule
    (``T._rule_rows``, or Douglas-Rachford's ``T._step_rows``), whose
    candidates carry one point or several; their rows ascend.  The iterates
    are checked as ``T.evaluate`` checks a point."""
    rows, keys, *points = rule_rows(T._check_iterates(X))
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
              cycle: int = 1, settle=None) -> list[IterationTrace]:
    """Run the starts of a validated (N, d) block: the iteration loop of
    every driver.

    ``update(n, X, choosers)`` takes step n at the live rows X, an (L, d)
    array with L >= 2, with their choosers, and returns ``(X_next, indices,
    lam, extras)``: the next rows, each row's chosen index, lambda_n and a
    list of per-row extras or None.  ``step(n, x, chooser)`` takes step n
    at one live (d,) point x, and returns ``(x_next, index, lam, extras)``,
    bit for bit a row of ``update``'s.  ``settle``, where a driver gives it,
    is the settled form of its steps, for :func:`_run_one`.

    Each start's trace, with no steps, ``"max-iters"``, its x0 row and its
    own copy of ``meta``, is built here.  The starts step in lockstep here
    while two or more are live; the one left, a lone start from step 0 or a
    block's last from the step the others left, runs :func:`_run_one` on
    its (d,) point.  Both loops record each step by :func:`_record_step`,
    which decides whether its start stops there.
    """
    live = traces = [IterationTrace(steps=[], status="max-iters", x_final=x0,
                                    meta=dict(meta)) for x0 in X0]
    # a lone start's x0 is validated; a survivor's iterate is not checked
    choosers = [_Chooser(policy, finite=len(X0) == 1) for _ in traces]
    bounds = row_norms(X0).tolist()  # each live row's running bound on its norm
    guards = [DIVERGENCE_FACTOR * (1.0 + bound) for bound in bounds]
    X = X0
    for n in range(stop.max_iters):
        if len(live) < 2:
            if live:
                _run_one(step, n, X[0], live[0], bounds[0], guards[0],
                         choosers[0], stop, cycle, settle)
            break
        X_next, indices, lam, extras = update(n, X, choosers)
        step_norms = row_norms(X_next - X).tolist()
        kept = []
        for k, (trace, step_norm) in enumerate(zip(live, step_norms)):
            bounds[k] = _record_step(trace, n, X[k], X_next[k], indices[k], lam,
                                     step_norm, None if extras is None else extras[k],
                                     bounds[k], guards[k], stop, cycle)
            if bounds[k] is not None:
                kept.append(k)
        if len(kept) < len(live):
            live = [live[k] for k in kept]
            choosers = [choosers[k] for k in kept]
            guards = [guards[k] for k in kept]
            bounds = [bounds[k] for k in kept]
            X_next = X_next[kept]
        X = X_next
    return traces


def _record_step(trace: IterationTrace, n: int, x, x_next, index, lam, step_norm,
                 extras, bound, guard, stop: StopRule, cycle: int) -> float | None:
    """Record step n of a start, x to x_next, in its trace and decide there
    whether the start stops, for both loops: its new running bound, or None
    where it trips the divergence guard or meets the residual or step
    tolerance (for a cycle of ``cycle`` maps, as :func:`_cycle_done` says)."""
    steps = trace.steps
    steps.append(TraceStep(n, x, index, lam, step_norm, extras))
    trace.x_final = x_next
    bound += step_norm
    if not bound <= 0.5 * guard:  # NaN included: the norm decides
        bound = norm(x_next)
    if bound > guard:
        trace.status = "diverged-guard"
    elif ((stop.residual_fn is not None and stop.residual_fn(x_next) <= stop.residual_tol)
          or (step_norm <= stop.step_tol
              and _cycle_done(steps, n, cycle, stop.step_tol))):
        trace.status = "converged"
    else:
        return bound


def _run_one(step, n: int, x: np.ndarray, trace: IterationTrace,
             bound: float, guard: float, chooser: _Chooser, stop: StopRule,
             cycle: int, settle=None) -> None:
    """:func:`_run_loop` on its one live start, the (d,) point x, from step
    n on: the steps, stop decisions and trace of a block's row, bit for bit,
    into ``trace``, with the bound and guard as plain floats.  The step norm
    (``row_norms``'s value for a row) is the square root of one sum of
    squares of D = x_(n+1) - x_n, taken with the ``_dot`` kernel itself
    (``_dot(D, D)``, the bits of ``_sumsq`` without its frame), with
    :func:`~unionfix.projections.norm`'s rescale only where that sum is
    inf.  It checks x_(n+1) = x_n + D too: the driver's :func:`_pick`
    reruns the iterate check only for a chooser not ``finite``, after an
    inf or NaN norm or at a survivor's first step.

    ``settle``, where the driver gives it, maps the index a step recorded
    to ``(advance, check, index, lam)``: ``advance(x)`` is the step, as
    ``step`` takes it with lambda = ``lam``, of the map that chose
    ``index``, on that map's settled form (``UnionMap._settle``) for the
    same key, as ``(x_next, probes)``; ``check`` is that form's check, and
    the form serves that map's steps one cycle later and on.  Once every
    map of the cycle chose the index it chose one cycle earlier (the paper's
    selection, constant near a strong fixed point), the loop steps in
    rounds (:func:`_settled_round`).  The steps of a round that the checks
    confirm are the lone forms' own, so :func:`_record_step` records them
    as this loop would have; at the first step they do not confirm the loop
    goes back to :func:`_pick`.  The first round takes SETTLED_ROUND_FIRST
    steps (a cycle, if longer), a round after a miss one cycle, and a round
    after a whole confirmed one twice as many, up to SETTLED_ROUND_CAP.
    After a miss (or a round whose first step is left to the pick) the loop
    picks a cycle's steps before the next round, and twice as many after
    each later miss: a selection that keeps moving costs a few rounds, not
    one per repeat."""
    steps, size, forms = trace.steps, max(SETTLED_ROUND_FIRST, cycle), None
    resume, hold = 0, cycle  # after a miss, picks until step resume
    while n < stop.max_iters:
        if (settle is not None and chooser.finite and n >= resume
                and _settled(steps, cycle)):
            if forms is None:  # forms[k % cycle] serves step k
                forms = [None] * cycle
                for k in range(n, n + cycle):
                    forms[k % cycle] = settle(steps[k - cycle].index)
            planned = min(size, stop.max_iters - n)
            taken, confirmed = _settled_round(forms, n, x, bound, guard, stop,
                                              cycle, planned)
            for k, (x_next, index, lam, step_norm, _) in enumerate(taken[:confirmed], n):
                bound = _record_step(trace, k, x, x_next, index, lam, step_norm,
                                     None, bound, guard, stop, cycle)
                if bound is None:
                    return
                x = x_next
            n += confirmed
            if confirmed == len(taken) == planned:  # whole: the next is longer
                size = min(2 * size, SETTLED_ROUND_CAP)
                continue
            if confirmed < len(taken) or not taken:  # a miss, or no step
                size, resume, hold = cycle, n + hold, 2 * hold
            forms = None  # the step that ended the round is taken exactly
        x_next, index, lam, extras = step(n, x, chooser)
        D = x_next - x
        sq = _dot(D, D)  # norm(D) only rescales a sum that overflows
        step_norm = math.sqrt(sq) if sq != math.inf else norm(D)
        chooser.finite = math.isfinite(step_norm)
        bound = _record_step(trace, n, x, x_next, index, lam, step_norm, extras,
                             bound, guard, stop, cycle)
        if bound is None:
            return
        x, n = x_next, n + 1


#: the steps of a one-start loop's first settled round, and its most: a
#: round pays one check per map of the cycle (at n = 16 about 2-9 us each
#: plus 0.2-0.3 us per step it confirms) and saves about 1-5 us per step,
#: and a miss wastes the steps after it.  In process on a 2-core Xeon,
#: against picking every step, a first round of 16, 32 and 64 steps took
#: 13%, 18% and 19% more sparse-ladder steps per second (10.6-11.0% and
#: 9.8-14.5% by the benchmark for 32 and 64), and the slowest far start of
#: the sparse-affine test corpus (a miss a few steps into the first round)
#: 1.3, 1.5 and 1.9 times as long; a first round of one cycle gained 5% on
#: the ladder.  No ladder run is long enough for a larger cap to matter
SETTLED_ROUND_FIRST = 64
SETTLED_ROUND_CAP = 256


def _settled(steps: list, cycle: int) -> bool:
    """Whether each of the last ``cycle`` steps chose the index the step one
    cycle before it chose."""
    if len(steps) < 2 * cycle:
        return False
    for k in range(1, cycle + 1):
        if steps[-k].index != steps[-k - cycle].index:
            return False
    return True


def _settled_round(forms: list, n: int, x: np.ndarray, bound: float,
                   guard: float, stop: StopRule, cycle: int, size: int) -> tuple:
    """Up to ``size`` settled steps from step n at x (:func:`_run_one`): the
    steps taken, each ``(x_next, index, lam, step_norm, probes)``, and how
    many of them lead that every map's check confirms, one check per map.

    The step norm is taken as :func:`_run_one` takes it.  The round stops
    after a step at which :func:`_record_step` could stop by its step
    tolerance or divergence guard (a residual stop is left to it: no step
    after one is recorded), and before a step whose norm is not finite or
    that raises a FloatingPointError: the steps run with numpy's
    floating-point errors raised, so a step that would warn (an overflow,
    say) is left to the exact loop,
    which warns there as before, or never reaches it where an earlier step
    was not confirmed.  So a step taken past a miss, at a point the exact
    loop never visits, is silent."""
    taken, half, tol, sqrt, inf = [], 0.5 * guard, stop.step_tol, math.sqrt, math.inf
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for k in range(n, n + size):
            advance, _, index, lam = forms[k % cycle]
            try:
                x_next, probes = advance(x)
                D = x_next - x
                sq = _dot(D, D)
                step_norm = sqrt(sq) if sq != inf else norm(D)  # as _run_one's
            except FloatingPointError:  # the exact step warns, if it is reached
                break
            if not step_norm < inf:
                break
            taken.append((x_next, index, lam, step_norm, probes))
            x, bound = x_next, bound + step_norm
            if step_norm <= tol or not bound <= half:
                break
    confirmed = len(taken)
    for phase in range(min(cycle, confirmed)):
        ok = forms[(n + phase) % cycle][1](zip(*[t[4] for t in taken[phase::cycle]]))
        if not ok.all():
            confirmed = min(confirmed, phase + cycle * int(ok.argmin()))
    return taken, confirmed


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
        return _relaxed(X, maps[i].rows(X), lam), [i] * len(X), lam, None

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
    """Relaxed union-map iteration x+ in (1 - lam) x + lam T(x).  Under a
    constant schedule (:meth:`Schedule.constant`), a lone start over a map
    with a settled form (``T._settle``) steps on it once its selection has
    settled (:func:`_run_one`), with the lambda its earlier steps checked;
    any other schedule is drawn and checked once per step, as the steps are
    recorded."""
    X0, one = _starts(x0)
    bound = 1.0 / T.alpha

    def update(n, X, choosers):
        lam = checked_lambda(schedule, n, bound)
        keys, V = _choose(n, X, choosers, T, T._rule_rows)
        return _relaxed(X, V, lam), keys, lam, None

    def step(n, x, chooser):
        lam = checked_lambda(schedule, n, bound)
        key, v = _pick(n, x, chooser, T, T._rule_rows, T._lone)
        return _relaxed(x, v, lam), key, lam, None

    settle = None
    if T._settle is not None and isinstance(schedule.lambda_at, _Constant):
        lam = schedule.lambda_at.lam  # checked at the steps before

        def settle(key):  # step's formula on T's settled step at key
            settled, check = T._settle(key)

            def advance(x):
                v, probes = settled(x)
                return _relaxed(x, v, lam), probes

            return advance, check, key, lam

    meta = {"algorithm": "iterate-union", "operator": T.label}
    traces = _run_loop(update, step, X0, stop, meta, policy, settle=settle)
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

    # each map's rule forms, looked up once, not at every step
    forms = [(T, T._rule_rows, T._lone) for T in maps]

    def update(n, X, choosers):
        j = n % m
        T, rule_rows, _ = forms[j]
        keys, V = _choose(n, X, choosers, T, rule_rows)
        return V, [(j, i) for i in keys], 1.0, None

    def step(n, x, chooser):
        j = n % m
        T, rule_rows, lone = forms[j]
        i, v = _pick(n, x, chooser, T, rule_rows, lone)
        return v, (j, i), 1.0, None

    settle = None
    if all(T._settle is not None for T in maps):
        def settle(index):  # step's formula: map j's settled step at key i
            j, i = index
            return (*maps[j]._settle(i), index, 1.0)

    meta = {"algorithm": "cyclic-compose", "cycle_length": m}
    traces = _run_loop(update, step, X0, stop, meta, policy, cycle=m,
                       settle=settle)
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
    """Refuse a Lipschitz constant that is not a finite nonnegative number
    (naming L), then a gamma outside its window."""
    if not (L >= 0 and math.isfinite(L)):
        raise ValueError(
            f"Lipschitz constant must be a finite nonnegative number, got {L}")
    if L == 0.0:
        if not gamma > 0:
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
    (``T._step_rows``, on a block or on a lone start's one row), in its
    pairs' order; a lone start takes the map's lone step (``T._lone_step``)
    first, where the proxes have lone forms.  The chosen y and z are
    recorded with each step.  When f
    has a single convex piece, the shadow ybar = prox_{gamma f}(xbar) is
    emitted on convergence with its local-minimum check.
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
        key, y, z = _pick(n, x, chooser, T, T._step_rows, T._lone_step)
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
