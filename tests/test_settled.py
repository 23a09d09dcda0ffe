"""Settled forms and the one-start loop's settled rounds.

A map's settled form (``UnionMap._settle``) steps on a key its lone form
chose and confirms a block of such steps with one check per map;
``solvers._run_one`` takes it once every map of a cycle repeats the key it
chose one cycle earlier.  Each settled form is checked here against its lone
form, bit for bit and decision for decision, and each set driver's one-start
trace against the same run with its sets' settled forms hidden (``_settle``
None), which steps through ``solvers._pick`` alone.
"""

import math
import warnings

import numpy as np
import pytest

from unionfix import cli, core_ops, minconvex as mc, sets, solvers
from unionfix.core_ops import AveragedMap
from unionfix.minconvex import MinConvexFn
from unionfix.solvers import Schedule, SelectionPolicy, StopRule

from test_cli import strict_lines, write_config
from test_rules import one_piece_kinds, sparsity_points
from test_sparse_traces import DRIVERS, SHAPES, STOP, digest, instance


def confirmed(T, key, points) -> list:
    """T's settled check of ``key`` on a block of steps, one per point."""
    step, check = T._settle(key)
    return check(zip(*[step(x)[1] for x in points])).tolist()


def lone_decides(T, key, x) -> bool:
    """Whether T's lone form returns exactly ``key`` at x."""
    pair = T._lone(x)
    return pair is not None and pair[0] == key


def assert_settled_is_lone(T, x):
    """Where the lone form has a pair at x, the settled step of its key
    gives its point, bit for bit, and its check confirms it."""
    pair = T._lone(x)
    if pair is None:
        return False
    key, v = pair
    step, check = T._settle(key)
    got, probes = step(x)
    assert got.tobytes() == v.tobytes()
    assert check(zip(probes)).tolist() == [True]
    return True


def bad_probes(x: np.ndarray) -> list:
    """x with one entry NaN, inf or -inf, at each end."""
    out = []
    for value in (math.nan, math.inf, -math.inf):
        for at in (0, len(x) - 1):
            y = x.copy()
            y[at] = value
            out.append(y)
    return out


# ---------------------------------------------------------------------------
# The settled forms against the lone forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
def test_one_piece_settled_forms_are_their_lone_forms(dim):
    rng = np.random.default_rng(dim)
    for kind, S in one_piece_kinds(dim, rng).items():
        T = sets.project_union(S)
        points = [scale * rng.normal(size=dim) for scale in (1e-3, 1.0, 1e3)]
        points.append(np.zeros(dim))
        points.append(np.array(rng.choice([0.0, -0.0], dim)))
        assert all(assert_settled_is_lone(T, x) for x in points), kind
        assert confirmed(T, 0, points) == [True] * len(points)
        # a probe that is not finite reads no
        step, check = T._settle(0)
        probes = [step(x)[1][0] for x in points[:2]]
        assert check(iter([bad_probes(probes[0]) + probes])).tolist() == (
            [False] * 6 + [True, True]), kind


@pytest.mark.parametrize("tie_tol", [0.0, 1e-10, 0.25])
@pytest.mark.parametrize("n", [2, 5, 64, 65, 200])
def test_the_sparsity_settled_form_decides_as_its_lone_form(n, tie_tol):
    # at every point and for every key met there (and a key of none), the
    # check confirms exactly where the lone form returns that key, at ties
    # within tie_tol, with signed zeros, for s = 0 and s = n - 1, for short
    # and long x; the step is the lone pair's projection
    rng = np.random.default_rng(n)
    yes = no = 0
    for s in sorted({0, 1, 2, n // 2, n - 1} & set(range(n))):
        T = sets.project_union(sets.sparsity_set(n, s), tie_tol)
        points = sparsity_points(n, s, tie_tol, rng)
        keys = {pair[0] for pair in map(T._lone, points) if pair is not None}
        keys.add(tuple(range(n - s, n)))
        for x in points:
            assert_settled_is_lone(T, x)
        for key in keys:
            want = [lone_decides(T, key, x) for x in points]
            assert confirmed(T, key, points) == want, (s, key)
            yes, no = yes + sum(want), no + len(want) - sum(want)
            # NaN and inf entries read no, wherever they sit
            step, check = T._settle(key)
            bad = [y for x in points for y in bad_probes(x)]
            assert not check(iter([bad])).any()
    assert yes and no


def test_the_sparsity_check_compares_the_lone_forms_two_magnitudes():
    # m_s and m_(s+1) exactly tie_tol apart fail the gap test (not <), and
    # one ulp more passes: the check subtracts tie_tol as the lone form does
    tie_tol = 0.25
    T = sets.project_union(sets.sparsity_set(4, 2), tie_tol)
    key = (0, 1)
    at_gap = np.array([3.0, -2.0, 1.75, 0.5])
    past_gap = np.array([3.0, -2.0, np.nextafter(1.75, 0.0), 0.5])
    assert T._lone(at_gap) is None and T._lone(past_gap)[0] == key
    assert confirmed(T, key, [at_gap, past_gap]) == [False, True]


def test_the_sparsity_step_keeps_the_lone_forms_zeros():
    # off the support np.where writes +0.0 where x holds -0.0 or a negative
    # entry, as the lone form's fresh zeros do; x * mask would write -0.0
    T = sets.project_union(sets.sparsity_set(5, 2))
    x = np.array([-0.0, -3.0, 2.0, -1e-300, -0.5])
    key, v = T._lone(x)
    got = T._settle(key)[0](x)[0]
    assert got.tobytes() == v.tobytes()
    assert np.signbit(got).tolist() == [False, True, False, False, False]


def chains() -> dict:
    """Maps with settled forms built by chaining: the sparse-ladder drivers'
    maps over sparsity(8, 2) and an affine set, and a relaxed projector."""
    sparse, affine, X0 = instance(8, 2)
    dr = sets.dr_operator(affine, sparse)
    return {"dr": dr,
            "compose of two dr": core_ops.compose(solvers.dr_ring([sparse, affine])),
            "relaxed sparsity": core_ops.relax(sets.project_union(sparse), 1.5),
            "reflected affine": sets.reflect_union(affine),
            "compose of projectors": core_ops.compose(solvers.projectors([sparse, affine]))}


def test_chained_settled_forms_are_their_lone_forms():
    rng = np.random.default_rng(5)
    sparse, affine, X0 = instance(8, 2)
    # the iterates of a run, where the selection settles, and random points
    points = [step.x for step in solvers.cyclic_projections([sparse, affine], X0[2],
                                                            stop=STOP).steps[::7]]
    points += list(rng.normal(size=(6, 8)))
    for label, T in chains().items():
        keys = {pair[0] for pair in map(T._lone, points) if pair is not None}
        assert sum(assert_settled_is_lone(T, x) for x in points) > 1, label
        for key in keys:
            assert confirmed(T, key, points) == [lone_decides(T, key, x)
                                                 for x in points], (label, key)


def test_a_chain_at_a_tie_is_never_confirmed():
    # |x| ties at the 2nd and 3rd largest entries of sparsity(4, 2): the lone
    # form has no pair, so no key is confirmed, through either stage
    S = sets.sparsity_set(4, 2)
    affine = sets.affine_set([[1.0, 0.3, -0.2, 0.1]], [3.0])
    x = np.array([3.0, -1.0, 1.0, 0.5])
    P = sets.project_union(S)
    maps = {"projector": (P, lambda sup: sup),
            "dr": (sets.dr_operator(S, affine), lambda sup: (sup, 0)),
            "compose": (core_ops.compose([P, P]), lambda sup: (sup, sup))}
    for label, (T, key_of) in maps.items():
        assert T._lone(x) is None, label
        for support in [(0, 1), (0, 2)]:
            assert confirmed(T, key_of(support), [x]) == [False], label


def test_which_maps_have_a_settled_form():
    rng = np.random.default_rng(0)
    f = MinConvexFn([mc.quadratic(np.eye(2), [0.0, 0.0]), mc.scaled_l1(1.0)])
    user = sets.UnionConvexSet({0: sets.ConvexSetPiece(lambda x: 0.5 * x, "user",
                                                       np.zeros(2))})
    axes = sets.union_of_sets([sets.span_set(np.array([[1.0], [0.0]])),
                               sets.span_set(np.array([[0.0], [1.0]]))])
    line = sets.span_set(np.array([[1.0], [1.0]]))
    P = mc.prox_union(f, 1.0)
    with_form = [sets.project_union(S) for S in one_piece_kinds(2, rng).values()]
    with_form += [sets.project_union(sets.sparsity_set(3, 1)), sets.reflect_union(line),
                  sets.dr_operator(line, sets.sparsity_set(2, 1)),
                  core_ops.compose(solvers.dr_ring([line, sets.sparsity_set(2, 1)]))]
    without = [P, solvers.drs_operator(f, f, 1.0), sets.project_union(user),
               sets.project_union(axes), core_ops.from_map(AveragedMap(lambda x: x, 0.5)),
               core_ops.compose([sets.project_union(line), P]),
               core_ops.dr_map(sets.project_union(line), P),
               core_ops.union_of([sets.project_union(line)] * 2),
               core_ops.convex_combination([sets.project_union(line)] * 2, [0.5, 0.5])]
    assert all(T._settle is not None for T in with_form)
    assert all(T._settle is None for T in without)


# ---------------------------------------------------------------------------
# The drivers' traces with and without settled rounds
# ---------------------------------------------------------------------------

def sets_of(driver: str, n: int, s: int, hidden: bool) -> tuple:
    """The driver's sets over sparsity(n, s) and its affine set, and the
    corpus starts; with ``hidden`` their settled forms are None."""
    sparse, affine, X0 = instance(n, s)
    if hidden:
        sparse._settle = affine._settle = None
    return ([affine, sparse] if driver == "cadr" else [sparse, affine]), X0


def run(driver: str, set_list, x0, **kwargs):
    return getattr(solvers, driver)(set_list, x0, **{"stop": STOP, **kwargs})


def outcome(call):
    """A run's (digest, status, meta) or its error's type and message."""
    try:
        trace = call()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return digest(trace), trace.status, repr(trace.meta)


def round_spy(monkeypatch) -> list:
    """(steps taken, steps confirmed) of every settled round."""
    rounds, settled_round = [], solvers._settled_round

    def spy(*args):
        taken, count = settled_round(*args)
        rounds.append((len(taken), count))
        return taken, count

    monkeypatch.setattr(solvers, "_settled_round", spy)
    return rounds


@pytest.mark.parametrize("n, s", SHAPES, ids=str)
@pytest.mark.parametrize("driver", DRIVERS)
def test_a_one_start_trace_is_the_trace_without_settled_rounds(monkeypatch, driver, n, s):
    # every start of the corpus, at its four distances: the 0.5 and 2.0
    # starts change support mid-run, so some rounds miss and fall back
    rounds = round_spy(monkeypatch)
    for k in range(4):
        set_list, X0 = sets_of(driver, n, s, hidden=False)
        got = run(driver, set_list, X0[k])
        hidden, _ = sets_of(driver, n, s, hidden=True)
        before = len(rounds)
        want = run(driver, hidden, X0[k])
        assert len(rounds) == before  # hidden: no settled round
        assert (digest(got), got.status, repr(got.meta)) == (
            digest(want), want.status, repr(want.meta)), k
    assert sum(count for _, count in rounds) > 0


def test_the_corpus_has_misses_and_every_round_confirms_a_prefix(monkeypatch):
    rounds = round_spy(monkeypatch)
    starts, settled_round = [], solvers._settled_round

    def first_step(forms, n, *rest):
        starts.append((n, rest[-2]))  # the round's first step and cycle
        return settled_round(forms, n, *rest)

    monkeypatch.setattr(solvers, "_settled_round", first_step)
    for driver in DRIVERS:
        for n, s in SHAPES:
            set_list, X0 = sets_of(driver, n, s, hidden=False)
            for x0 in X0:
                del starts[:]
                steps = run(driver, set_list, x0).steps
                # a round starts only where the last cycle's keys repeat
                # the cycle's before it
                for k, cycle in starts:
                    assert k >= 2 * cycle
                    assert all(steps[j].index == steps[j - cycle].index
                               for j in range(k - cycle, k))
    assert all(0 <= count <= taken for taken, count in rounds)
    assert any(count < taken for taken, count in rounds)  # a miss


def test_a_planted_miss_falls_back_to_the_pick(monkeypatch):
    # the sparsity check refuses the 5th step of its first block: the loop
    # records the steps before it, then picks that step exactly, and the
    # trace is the trace without settled rounds
    set_list, X0 = sets_of("cyclic_projections", 16, 3, hidden=False)
    sparse = set_list[0]
    settle, calls = sparse._settle, []

    def planted(tie_tol, key):
        step, check = settle(tie_tol, key)

        def refusing(columns):
            ok = check(columns)
            if not calls:
                ok[min(4, len(ok) - 1)] = False
            calls.append(len(ok))
            return ok

        return step, refusing

    sparse._settle = planted
    rounds = round_spy(monkeypatch)
    picks, pick = [], solvers._pick
    monkeypatch.setattr(solvers, "_pick", lambda n, *rest: (picks.append(n),
                                                            pick(n, *rest))[1])
    got = run("cyclic_projections", set_list, X0[0])
    hidden, _ = sets_of("cyclic_projections", 16, 3, hidden=True)
    want = run("cyclic_projections", hidden, X0[0])
    assert digest(got) == digest(want) and got.status == want.status
    # the sparsity set steps at even steps: its 5th step of the first round
    # is the round's 9th, taken from step 4 on
    assert rounds[0][0] > 8 and rounds[0][1] == 8
    assert 12 in picks
    # after the miss the next round is one cycle long
    assert rounds[1][0] == 2


def test_settled_rounds_commit_most_ladder_steps(monkeypatch):
    # one check per map per round: the checks run far fewer times than the
    # steps they confirm, and those are most of the ladder's steps
    rounds = round_spy(monkeypatch)
    checks = []
    total = 0
    for driver in DRIVERS:
        for n, s in SHAPES:
            set_list, X0 = sets_of(driver, n, s, hidden=False)
            sparse = set_list[1] if driver == "cadr" else set_list[0]
            settle = sparse._settle

            def spied(tie_tol, key, settle=settle):
                step, check = settle(tie_tol, key)
                return step, lambda columns: (checks.append(1), check(columns))[1]

            sparse._settle = spied
            for x0 in X0[:2]:  # the near starts, whose support settles once
                total += len(run(driver, set_list, x0).steps)
    committed = sum(count for _, count in rounds)
    assert committed >= 0.9 * total
    assert len(checks) <= 0.1 * committed


@pytest.mark.parametrize("driver", DRIVERS)
def test_settled_rounds_carry_a_large_n_run(driver):
    # sparse affine feasibility with m << n: a planted 10-sparse x* in R^1000,
    # 30 Gaussian equations and a start 0.05 from x*.  Each driver takes its
    # hundreds to thousands of steps in settled rounds and calls the
    # sparsity set's lone form only at a handful of picks (4 to 6 here)
    n, s, m = 1000, 10, 30
    rng = np.random.default_rng(2)
    A = rng.standard_normal((m, n))
    xstar = np.zeros(n)
    xstar[rng.choice(n, size=s, replace=False)] = (
        rng.choice([-1.0, 1.0], size=s) * rng.uniform(0.5, 1.5, size=s))
    noise = rng.standard_normal(n)
    x0 = xstar + 0.05 * noise / np.linalg.norm(noise)
    sparse, affine = sets.sparsity_set(n, s), sets.affine_set(A, A @ xstar)
    lone, calls = sparse._lone, []
    sparse._lone = lambda *args: (calls.append(1), lone(*args))[1]
    trace = getattr(solvers, driver)(
        [affine, sparse] if driver == "cadr" else [sparse, affine], x0)
    assert trace.status == "converged" and len(trace.steps) >= 800
    assert 1 <= len(calls) <= 8


def test_a_settled_round_of_a_block_survivor(monkeypatch):
    # a block's last live start steps in settled rounds too, and its trace
    # is the one-start trace
    rounds = round_spy(monkeypatch)
    set_list, X0 = sets_of("cyclic_projections", 16, 3, hidden=False)
    block = run("cyclic_projections", set_list, X0[:2])
    assert rounds
    for trace, x0 in zip(block, X0[:2]):
        hidden, _ = sets_of("cyclic_projections", 16, 3, hidden=True)
        assert digest(trace) == digest(run("cyclic_projections", hidden, x0))


# ---------------------------------------------------------------------------
# Far starts: the settled steps warn and overflow only where the exact loop
# does
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [0, 27, 53, 332, 512, 664, 1000])
@pytest.mark.parametrize("driver", DRIVERS)
def test_starts_scaled_by_powers_of_two(driver, k):
    # the corpus starts times 2^k, the sets as they are: every outcome, a
    # trace or an error, is the run's without settled rounds, with every
    # warning an error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n, s in SHAPES[:1]:
            for j in range(4):
                set_list, X0 = sets_of(driver, n, s, hidden=False)
                hidden, _ = sets_of(driver, n, s, hidden=True)
                x0 = np.ldexp(X0[j], k)
                assert outcome(lambda: run(driver, set_list, x0)) == outcome(
                    lambda: run(driver, hidden, x0)), j


def planted_map(settled_step, lone_key=0) -> core_ops.UnionMap:
    """x -> x / 2, with a lone form and a settled form whose step is
    ``settled_step`` and whose check refuses every row."""
    half = AveragedMap(lambda x: 0.5 * x, alpha=0.5)

    def settle(key):
        return (lambda x: (settled_step(x), (x,))), (
            lambda columns: np.zeros(len(next(columns)), dtype=bool))

    return core_ops._rule_map(
        {0: half}, alpha=0.5, dim=2,
        rule_rows=lambda X: (np.arange(len(X)), [0] * len(X), 0.5 * X),
        lone=lambda x: (lone_key, 0.5 * x), settle=settle)


@pytest.mark.parametrize("settled_step", [
    lambda x: x * 1e308,  # overflows: numpy would warn
    lambda x: x - np.full(2, math.inf),  # a NaN-free inf step, no warning
    lambda x: np.sqrt(-np.abs(x) - 1.0),  # invalid: numpy would warn
    lambda x: x / (x - x),  # a division by zero: numpy would warn
], ids=["overflow", "inf", "invalid", "divide"])
def test_a_refused_settled_step_does_not_warn(settled_step):
    # a settled step that no check confirms is discarded; the ones here
    # would warn where taken, and the run is still the run of its lone form,
    # with no warning issued (recorded, not raised, so that a warning cannot
    # pass for an error the round catches)
    T = planted_map(settled_step)
    with warnings.catch_warnings(record=True) as issued:
        warnings.simplefilter("always")
        got = solvers.iterate_union(T, Schedule.constant(1.0), SelectionPolicy(),
                                    [1.0, 2.0], StopRule(max_iters=200))
        T._settle = None
        want = solvers.iterate_union(T, Schedule.constant(1.0), SelectionPolicy(),
                                     [1.0, 2.0], StopRule(max_iters=200))
    assert [str(w.message) for w in issued] == []
    assert [(s.n, s.x.tobytes(), s.step_norm) for s in got.steps] == [
        (s.n, s.x.tobytes(), s.step_norm) for s in want.steps]
    assert got.status == want.status


def test_an_impure_schedule_is_drawn_once_per_step(monkeypatch):
    # only a constant schedule takes settled steps: any other lambda_n is
    # drawn once per recorded step, in order, though a residual stop ends
    # the run a few steps after the selection settles
    rounds = round_spy(monkeypatch)
    T = core_ops.compose(solvers.projectors([sets.span_set(np.array([[1.0], [0.0]])),
                                             sets.span_set(np.array([[1.0], [1.0]]))]))
    stop = StopRule(max_iters=100, residual_fn=solvers.norm, residual_tol=0.1)
    drawn = []
    for lambda_at in (lambda n: drawn.append(n) or 1.0, solvers._Constant(1.0)):
        schedule = Schedule(lambda_at, lo=0.0, hi=1.0)
        trace = solvers.iterate_union(T, schedule, SelectionPolicy(), [3.0, -1.0], stop)
        assert trace.status == "converged" and 5 < len(trace.steps) < 20
    assert drawn == list(range(len(trace.steps)))
    assert len(rounds) == 1  # the constant schedule's run


def test_a_settled_round_records_what_the_stop_rule_decides(monkeypatch):
    # a residual stop inside a round: the steps past it are not recorded,
    # and the run stops where the run without settled rounds stops
    rounds = round_spy(monkeypatch)
    for stop in (StopRule(max_iters=400, residual_fn=lambda x: float(abs(x[0]) > 0.5),
                          residual_tol=0.5),
                 StopRule(max_iters=37)):
        set_list, X0 = sets_of("cyclic_projections", 16, 3, hidden=False)
        hidden, _ = sets_of("cyclic_projections", 16, 3, hidden=True)
        got = run("cyclic_projections", set_list, X0[0], stop=stop)
        want = run("cyclic_projections", hidden, X0[0], stop=stop)
        assert (digest(got), got.status) == (digest(want), want.status)
    assert rounds


#: the far sparsity config of CI's console-script checks: a start about
#: 1e300 from sparsity(4, 1) and an affine hyperplane
FAR_SPARSE = {"name": "far-sparse", "algorithm": {"kind": "cyclic-projections"},
              "problem": {"sets": [{"kind": "sparsity", "n": 4, "s": 1},
                                   {"kind": "affine", "A": [[1.0, 2.0, -1.0, 0.5]],
                                    "b": [1.0]}]},
              "x0": [1e300, -3e299, 5e299, 1e299]}


def test_a_far_sparse_config_converges_silently(tmp_path, capsys, monkeypatch):
    # in process, every warning an error: exit 0, nothing on stderr and a
    # strict-JSON trace, byte for byte the trace of a run whose settled
    # rounds take no step (so every step is a pick)
    rounds = round_spy(monkeypatch)
    traces = []
    for name in ("settled", "picked"):
        if name == "picked":
            monkeypatch.setattr(solvers, "_settled_round", lambda *args: ([], 0))
        out = tmp_path / name
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["run", write_config(tmp_path, FAR_SPARSE), "--out", str(out),
                             "--quiet"])
        assert (code, capsys.readouterr().err) == (0, "")
        records = strict_lines(out / "far-sparse.jsonl")
        assert records[-1]["status"] == "converged"
        assert records[-1]["in_intersection"] is True
        traces.append((out / "far-sparse.jsonl").read_bytes())
    assert traces[0] == traces[1]
    assert sum(count for _, count in rounds) > 0.9 * (len(records) - 1)


def test_a_nan_projection_raises_at_the_same_step():
    # x doubles from 1; the projection turns NaN beyond x[0] = 10, at step
    # 4, where the settled round stops (its step is not finite) and the
    # pick raises, as it does without settled rounds
    def doubling():
        return sets._convex_set(
            lambda x: np.full(x.shape, np.nan) if x[0] > 10.0 else 2.0 * x,
            lambda X: np.where(X[:, :1] > 10.0, np.nan, 2.0 * X), "doubling",
            np.zeros(2))

    outcomes = []
    for hidden in (False, True):
        S = doubling()
        if hidden:
            S._settle = None
        T = sets.project_union(S)
        outcomes.append(outcome(lambda: solvers.iterate_union(
            T, Schedule.constant(1.0), SelectionPolicy(), [1.0, 0.0], StopRule())))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == "EmptySelectionError"


def test_a_moving_selection_costs_few_rounds(monkeypatch):
    # cadr on the (12, 3) instance from its far start: the support keeps
    # moving for the whole run, so most rounds miss; each miss doubles the
    # picks before the next round, so the run tries a few dozen rounds at
    # most, not one after every repeat (87 here without the doubling)
    rounds = round_spy(monkeypatch)
    set_list, X0 = sets_of("cadr", 12, 3, hidden=False)
    got = run("cadr", set_list, X0[3])
    misses = sum(count < taken for taken, count in rounds)
    assert misses >= 5 and len(rounds) <= 30
    hidden, _ = sets_of("cadr", 12, 3, hidden=True)
    assert digest(got) == digest(run("cadr", hidden, X0[3]))
