"""Lockstep runs against one-start runs.

A driver given an (N, d) block of starts steps them together through one
loop, with the batched rule while several are live.  Its traces, and the
files ``unionfix sweep`` writes from them, must be bit for bit those of
running each start alone, which takes the scalar rule.  The sweeps below
run on generated configs shaped like the benchmark's: a ppa over 8 convex
quadratics in R^3, and forward-backward and Douglas-Rachford with g the
minimum of 8 singleton indicators.  A "twinned" config repeats half of its
pieces, so every step near them is a tie and the selection policy decides.
The reference sweep runs one start per block (``core_ops.BLOCK_ROWS = 1``).
"""

import itertools
import json
import math

import numpy as np
import pytest

from unionfix import cli, core_ops, minconvex as mc, sets, solvers
from unionfix.minconvex import ConvexPiece, MinConvexFn
from unionfix.projections import norm
from unionfix.solvers import ControlSequence, Schedule, SelectionPolicy, StopRule

DIM, PIECES, STARTS = 3, 8, 8
POLICIES = ["lowest-index", "seeded-random", "round-robin"]


def problem(rng, kind: str, twinned: bool) -> dict:
    """A config's problem and algorithm, shaped like the benchmark's."""
    keep = PIECES // 2 if twinned else PIECES
    if kind == "ppa":
        pieces = []
        for _ in range(keep):
            U = np.linalg.qr(rng.standard_normal((DIM, DIM)))[0]
            Q = U @ np.diag(rng.uniform(0.5, 2.0, size=DIM)) @ U.T
            center = rng.uniform(-3.0, 3.0, size=DIM)
            pieces.append({"kind": "quadratic", "Q": Q.tolist(),
                           "b": (-Q @ center).tolist(),
                           "c": float(rng.uniform(0.0, 2.0))})
    else:
        pieces = [{"kind": "indicator-singleton", "point": p.tolist()}
                  for p in rng.uniform(-2.0, 2.0, size=(keep, DIM))]
    pieces = (pieces * 2)[:PIECES]
    eye, zero = np.eye(DIM).tolist(), [0.0] * DIM
    if kind == "ppa":
        return {"problem": {"f": {"pieces": pieces}},
                "algorithm": {"kind": "ppa", "gamma": 1.0}}
    if kind == "fb":
        return {"problem": {"smooth": {"kind": "quadratic", "Q": eye, "b": zero},
                            "g": {"pieces": pieces}},
                "algorithm": {"kind": "forward-backward", "gamma": 0.5, "lam": 1.0}}
    return {"problem": {"f": {"pieces": [{"kind": "quadratic", "Q": eye, "b": zero}]},
                        "g": {"pieces": pieces}},
            "algorithm": {"kind": "douglas-rachford", "gamma": 0.5, "lam": 1.0}}


def write_config(tmp_path, kind: str, policy: str = "lowest-index",
                 twinned: bool = False, count: int = STARTS, seed: int = 0) -> str:
    rng = np.random.default_rng([seed, len(kind), twinned])
    cfg = {"name": f"{kind}-{policy}", **problem(rng, kind, twinned),
           "x0": rng.uniform(-3.0, 3.0, size=DIM).tolist(),
           "seed": int(rng.integers(2**31)),
           "sweep": {"radius": 1.0, "count": count}}
    cfg["algorithm"]["policy"] = {"kind": policy}
    path = tmp_path / f"{kind}-{policy}-{twinned}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def sweep(config: str, out, *flags) -> tuple[int, dict]:
    """Exit code and every file a sweep writes, by name."""
    code = cli.main(["sweep", config, "--out", str(out), "--quiet", *flags])
    return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def one_start_sweep(monkeypatch, config: str, out, *flags) -> tuple[int, dict]:
    with monkeypatch.context() as m:
        m.setattr(core_ops, "BLOCK_ROWS", 1)
        return sweep(config, out, *flags)


def step_counts(files: dict) -> list[int]:
    return [len(data.splitlines()) - 2 for name, data in sorted(files.items())
            if name.endswith(".jsonl")]


class TestLockstepSweep:
    @pytest.mark.parametrize("twinned", [False, True], ids=["generic", "twinned"])
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("kind", ["ppa", "fb", "drs"])
    def test_equals_start_by_start(self, tmp_path, monkeypatch, kind, policy, twinned):
        config = write_config(tmp_path, kind, policy, twinned)
        got = sweep(config, tmp_path / "lockstep")
        assert got == one_start_sweep(monkeypatch, config, tmp_path / "one")
        assert got[0] == 0 and len(got[1]) == STARTS + 1
        if twinned:  # the ties reach the trace: some index is the twin's
            g_indices = [index[-1] if isinstance(index, list) else index
                         for data in got[1].values()
                         for index in (json.loads(line)["index"]
                                       for line in data.splitlines()[1:-1])]
            twins = [i for i in g_indices if i >= PIECES // 2]
            assert bool(twins) == (policy != "lowest-index")

    @pytest.mark.parametrize("kind", ["ppa", "drs"])
    def test_max_iters_stops_some_starts_early(self, tmp_path, monkeypatch, kind):
        config = write_config(tmp_path, kind, "seeded-random", twinned=True)
        limit = str(min(step_counts(sweep(config, tmp_path / "all")[1])))
        got = sweep(config, tmp_path / "lockstep", "--max-iters", limit)
        assert got == one_start_sweep(monkeypatch, config, tmp_path / "one",
                                      "--max-iters", limit)
        summary = json.loads(got[1][f"{kind}-seeded-random-sweep-summary.json"])
        assert got[0] == cli.EXIT_MAX_ITERS
        assert set(summary["statuses"]) == {"converged", "max-iters"}

    def test_blocks_of_several_starts(self, tmp_path, monkeypatch):
        # 10 starts in blocks of 4: two full blocks and a partial one
        config = write_config(tmp_path, "drs", "round-robin", twinned=True, count=10)
        monkeypatch.setattr(core_ops, "BLOCK_ROWS", 4)
        got = sweep(config, tmp_path / "blocks")
        assert got == one_start_sweep(monkeypatch, config, tmp_path / "one")
        assert len(got[1]) == 11

    @pytest.mark.parametrize("budget", [1, 30, 60])
    def test_step_lines_encoded_a_few_traces_at_a_time(self, tmp_path, monkeypatch,
                                                         budget):
        # a block's traces are encoded together up to a step budget: one
        # trace at a time, a few, or groups cut inside the block
        config = write_config(tmp_path, "drs", "round-robin", twinned=True)
        whole = sweep(config, tmp_path / "whole")
        monkeypatch.setattr(cli, "_ENCODE_STEPS", budget)
        assert sweep(config, tmp_path / "cut") == whole

    @pytest.mark.parametrize("late", [6, 7])
    def test_error_at_a_late_start_is_the_start_by_start_error(
            self, tmp_path, monkeypatch, late):
        # a user quadratic without batched forms whose prox raises at one
        # start's x0: the block raises, and is redone start by start
        config = write_config(tmp_path, "ppa")
        first = sweep(config, tmp_path / "plain")[1]
        name = sorted(first)[late]
        x_late = np.array(json.loads(first[name].splitlines()[1])["x"])
        raised = []
        quadratic = mc.quadratic

        def user_quadratic(*args):
            piece = quadratic(*args)

            def prox(gamma, x):
                if np.array_equal(x, x_late):
                    raised.append(len(raised))
                    raise RuntimeError(f"user piece refuses {x}")
                return piece.prox(gamma, x)

            return ConvexPiece(value=piece.value, prox=prox, label="user")

        monkeypatch.setattr(mc, "quadratic", user_quadratic)
        outcomes = []
        for out, run in ((tmp_path / "lockstep", sweep),
                         (tmp_path / "one", lambda *a: one_start_sweep(monkeypatch, *a))):
            with pytest.raises(RuntimeError) as info:
                run(config, out)
            outcomes.append((str(info.value),
                             {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
        assert outcomes[0] == outcomes[1]
        assert sorted(outcomes[0][1]) == sorted(first)[:late]
        assert len(raised) == 3  # the block's step 0, its redo, the reference


def fingerprint(trace) -> tuple:
    """A trace's steps, status and final point as bytes, and its meta keys."""
    steps = [(s.n, s.x.tobytes(), repr(s.index), float(s.lam).hex(),
              float(s.step_norm).hex(),
              None if s.extras is None
              else {k: v.tobytes() for k, v in s.extras.items()})
             for s in trace.steps]
    return steps, trace.status, trace.x_final.tobytes(), sorted(trace.meta)


def drivers(policy=SelectionPolicy(kind="seeded-random", seed=3),
            stop=StopRule(max_iters=60)):
    """Each driver over a small problem with ties, as run(x0) -> trace(s)."""
    g = MinConvexFn([mc.indicator_singleton([-1.0, 0.5]),
                     mc.indicator_singleton([1.0, 0.0]),
                     mc.indicator_singleton([1.0, 0.0])])  # twins: every step ties
    f = MinConvexFn([mc.quadratic(np.eye(2), [0.2, -0.1])])
    fs = solvers.SmoothFn(value=lambda x: 0.5 * float(x @ x), grad=lambda x: x,
                          lipschitz=1.0)
    lines = [sets.span_set(np.array([[1.0], [0.0]])),
             sets.span_set(np.array([[1.0], [1.0]])),
             sets.union_of_sets([sets.span_set(np.array([[0.0], [1.0]])),
                                 sets.ball_set([3.0, 3.0], 0.5)])]
    sparse = [sets.sparsity_set(2, 1), sets.affine_set([[1.0, 0.5]], [1.0])]
    half = core_ops.AveragedMap(lambda x: 0.5 * x + 0.1, alpha=0.5)
    return {
        "ppa": lambda x0: solvers.ppa(g, 1.0, policy, x0, stop),
        "forward-backward": lambda x0: solvers.forward_backward(
            fs, g, 0.5, Schedule.constant(1.2), policy, x0, stop),
        "douglas-rachford": lambda x0: solvers.douglas_rachford(
            f, g, 0.5, Schedule.constant(1.5), policy, x0, stop),
        "cyclic-projections": lambda x0: solvers.cyclic_projections(
            lines[:2], x0, stop=stop, policy=policy),
        "cyclic-projections-sparse": lambda x0: solvers.cyclic_projections(
            sparse, x0, stop=stop, policy=policy),
        "cyclic-dr": lambda x0: solvers.cyclic_dr(lines, x0, stop=stop, policy=policy),
        "cadr": lambda x0: solvers.cadr(sparse[::-1], x0, stop=stop, policy=policy),
        "km-admissible": lambda x0: solvers.km_admissible(
            [half, core_ops.AveragedMap(half.fn, alpha=0.5,
                                        many=lambda X: 0.5 * X + 0.1)],
            ControlSequence.cyclic([0, 1]), Schedule.constant(1.5), x0, stop),
    }


class TestLockstepDrivers:
    #: starts with ties (on the axes and the diagonal), ones that converge
    #: at once and ones that run to max_iters
    STARTS = np.vstack([np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.25], [-0.5, 2.0]]),
                        np.random.default_rng(4).uniform(-3.0, 3.0, size=(6, 2))])

    @pytest.mark.parametrize("name", sorted(drivers()))
    def test_block_equals_one_start_runs(self, name):
        run = drivers()[name]
        block = run(self.STARTS)
        assert isinstance(block, list) and len(block) == len(self.STARTS)
        for trace, x0 in zip(block, self.STARTS):
            alone = run(x0)
            assert fingerprint(trace) == fingerprint(alone)
            assert repr(trace.meta.get("classification")) == repr(
                alone.meta.get("classification"))

    def test_block_of_no_starts(self):
        assert drivers()["ppa"](np.empty((0, 2))) == []

    def test_a_block_raises_where_a_start_would(self):
        # a 3-D map given 2-D starts; a map whose value turns NaN beyond
        # x[0] = 1, so the next step's iterate check raises
        nan_beyond = core_ops.AveragedMap(
            lambda x: np.full(x.shape, np.nan) if x[0] > 1.0 else 0.5 * x, alpha=0.5)
        cases = [
            (core_ops.from_map(core_ops.AveragedMap(lambda x: 0.5 * x, alpha=0.5), dim=3),
             np.zeros((3, 2)), core_ops.DimensionMismatchError, "expects dimension 3"),
            (core_ops.from_map(nan_beyond), np.array([[0.5, 0.0], [2.0, 0.0]]),
             ValueError, "finite"),
        ]
        for T, X0, error, match in cases:
            for x0 in (X0[-1], X0):
                with pytest.raises(error, match=match):
                    solvers.iterate_union(T, Schedule.constant(1.0), SelectionPolicy(),
                                          x0, StopRule(max_iters=5))


def full_fingerprint(trace) -> tuple:
    """:func:`fingerprint` with the meta's values: arrays as bytes, the
    rest (classifications, residuals, flags) by repr."""
    meta = {k: v.tobytes() if isinstance(v, np.ndarray) else repr(v)
            for k, v in trace.meta.items()}
    return fingerprint(trace), meta


def lone_and_twinned(run, x0) -> tuple:
    """The trace of x0 alone (the lone-start loop) and the two traces of
    the block [x0, x0] (the lockstep loop)."""
    x0 = np.asarray(x0, dtype=float)
    return (run(x0), *run(np.stack([x0, x0])))


def scaling(factor: float, nan_beyond: float = math.inf) -> core_ops.UnionMap:
    """x -> factor x as a one-piece union map, NaN where x[0] > nan_beyond."""
    return core_ops.from_map(core_ops.AveragedMap(
        lambda x: np.full(x.shape, np.nan) if x[0] > nan_beyond else factor * x,
        alpha=0.5))


def stop_cases() -> dict:
    """One run per stop outcome, as (run(x0), x0, status)."""
    e1, diagonal = np.array([[1.0], [0.0]]), np.array([[1.0], [1.0]])
    # the third set holds the second, so from x0 on the first every
    # cycle has one step within the step tolerance that must not stop it
    triple = [sets.span_set(e1), sets.span_set(diagonal),
              sets.union_of_sets([sets.span_set(diagonal),
                                  sets.ball_set([3.0, 3.0], 0.5)])]
    toward = core_ops.from_map(core_ops.AveragedMap(
        lambda x: 0.5 * (x + np.array([1.0, -1.0])), alpha=0.5))
    one = Schedule.constant(1.0)
    return {
        "step-tol": (lambda x0: solvers.cyclic_projections(
            triple[:2], x0), [3.0, -1.0], "converged"),
        "cycle-of-3": (lambda x0: solvers.cyclic_projections(
            triple, x0, policy=SelectionPolicy(kind="round-robin")),
            [1.0, 0.0], "converged"),
        "residual": (lambda x0: solvers.iterate_union(
            toward, one, SelectionPolicy(), x0,
            StopRule(residual_fn=lambda x: float(np.abs(x - [1.0, -1.0]).max()),
                     residual_tol=1e-3)), [5.0, 2.0], "converged"),
        "max-iters": (lambda x0: solvers.cyclic_projections(
            triple[:2], x0, stop=StopRule(max_iters=3)), [3.0, -1.0],
            "max-iters"),
        # each step's norm, 3 |x|, overstates the iterate's growth, so the
        # running bound alone would trip the guard a step early
        "diverged": (lambda x0: solvers.iterate_union(
            scaling(-2.0), one, SelectionPolicy(), x0, StopRule()), [1.0, 0.0],
            "diverged-guard"),
        # every step's sum of squares overflows: the rescaled row norm
        "diverged-overflowing": (lambda x0: solvers.iterate_union(
            scaling(2.0), one, SelectionPolicy(), x0, StopRule()),
            [1e200, 0.0], "diverged-guard"),
    }


def block_path_spies(monkeypatch) -> tuple[list, list, list, list, list]:
    """Spies on a run: each call of ``solvers._choose`` and of a map's
    batched rule as ``_rule_map`` or ``UnionMap`` holds it (``_rule_rows``,
    Douglas-Rachford's ``_step_rows``) as (name, whether ``solvers._run_one``
    was running, the row count of its block); the ndim of each point a
    scalar rule (``_pairs``, a lone form ``_lone`` as ``_rule_map`` holds
    it) got while it ran; the row count of each block
    ``minconvex._active_rows`` got while it ran; the step each
    ``_run_one`` call started at; and, for each ``solvers._pick`` call
    while it ran, (the number of candidates of the step's rule, the names
    of the batched calls the pick made, whether it called a map's
    ``_pairs``).  The candidates are counted after the pick, unspied, on
    the block rule's one row x[None]."""
    calls, ndims, prox_rows, starts, picks, inside = [], [], [], [], [], []
    listed = []

    def spy(name, fn, block=-1):  # args[block] is the block
        def wrapped(*args, **kwargs):
            calls.append((name, bool(inside), len(args[block])))
            return fn(*args, **kwargs)
        return wrapped

    def scalar(fn):
        def wrapped(*args):  # the point is the last argument
            if inside:
                ndims.append(args[-1].ndim)
            return fn(*args)
        return wrapped

    def active_rows(*args):  # the block is the fifth argument
        if inside:
            prox_rows.append(len(args[4]))
        return mc_active_rows(*args)

    def pairs_of(fn):
        def wrapped(self, x):
            if inside:
                listed.append(x)
            return fn(self, x)
        return wrapped

    def pick(n, x, chooser, T, rule_rows, lone):
        if not inside:
            return solvers_pick(n, x, chooser, T, rule_rows, lone)
        first, before = len(calls), len(listed)
        out = solvers_pick(n, x, chooser, T, rule_rows, lone)
        made, ran = [c[0] for c in calls[first:]], len(listed) > before
        saved = inside[:]
        inside.clear()
        try:
            count = len(rule_rows(x[None])[1])
        finally:
            inside.extend(saved)
        picks.append((count, made, ran))
        return out

    def rule_map_of(rule_map):
        def wrapped(*args, rule_rows=None, lone=None, **kwargs):
            return rule_map(*args, **kwargs, rule_rows=None if rule_rows is None
                            else spy("_rule_rows", rule_rows),
                            lone=None if lone is None else scalar(lone))
        return wrapped

    def run_one(step, n, *rest):
        starts.append(n)
        inside.append(n)
        try:
            return solvers_run_one(step, n, *rest)
        finally:
            inside.pop()

    solvers_run_one, mc_active_rows = solvers._run_one, mc._active_rows
    solvers_pick = solvers._pick
    monkeypatch.setattr(mc, "_active_rows", active_rows)
    monkeypatch.setattr(solvers, "_run_one", run_one)
    monkeypatch.setattr(solvers, "_pick", pick)
    monkeypatch.setattr(solvers, "_choose", spy("_choose", solvers._choose, 1))
    monkeypatch.setattr(core_ops.UnionMap, "_rule_rows",
                        spy("_rule_rows", core_ops.UnionMap._rule_rows))
    monkeypatch.setattr(core_ops, "_dr_step_rows", spy("_step_rows", core_ops._dr_step_rows))
    for module in (core_ops, sets, mc):  # every builder of a map's rules
        monkeypatch.setattr(module, "_rule_map", rule_map_of(module._rule_map))
    monkeypatch.setattr(core_ops.UnionMap, "_pairs",
                        pairs_of(scalar(core_ops.UnionMap._pairs)))
    return calls, ndims, prox_rows, starts, picks


def settled_steps(monkeypatch) -> list:
    """The steps each settled round of ``solvers._run_one`` confirmed and
    recorded without a pick (``solvers._settled_round``)."""
    confirmed, settled_round = [], solvers._settled_round

    def spy(*args):
        taken, count = settled_round(*args)
        confirmed.append(count)
        return taken, count

    monkeypatch.setattr(solvers, "_settled_round", spy)
    return confirmed


def strict_pick(monkeypatch) -> None:
    """Make a policy call for a lone candidate raise."""
    pick = solvers._Chooser.pick

    def checked(self, n, count):
        if count == 1:
            raise AssertionError(f"a policy call for a lone candidate at step {n}")
        return pick(self, n, count)

    monkeypatch.setattr(solvers._Chooser, "pick", checked)


class TestLoneStart:
    """A lone start runs its own loop (``solvers._run_one``) on its (d,)
    point, with its state in plain floats: each step goes through its
    map's lone form or its block rule on the one row ``x[None]``, never
    through a map's list rule (``_pairs``), ``solvers._choose`` or a block
    of several rows, and makes no policy call for a lone candidate.  Where
    the map has a lone form and the step one candidate, ``solvers._pick``
    takes the lone pair and calls no batched rule: every step that does not
    tie of the set drivers (``SETS``, over catalog, sparsity and union-of
    sets) and of the drivers built on a ``prox_union`` whose pieces all run
    in group kernels (``PROX``; Douglas-Rachford through its lone step,
    ``_lone_step``).  Where the lone form has no pair (a tie), the pick runs
    the block rule once on the one row (Douglas-Rachford's ``_step_rows``).
    Its trace is bit for bit row 0 of a block made of that start twice,
    which steps in lockstep through the batched rules.  A block's last live
    start runs that loop from the step the others left."""

    #: the drivers whose map is a ``prox_union`` (Douglas-Rachford's two)
    PROX = {"ppa", "forward-backward", "douglas-rachford"}
    #: the drivers whose lone steps take no scalar point: km steps its maps
    NO_POINT = {"km-admissible"}
    #: the drivers over sets, whose every map has a lone form
    SETS = {"cyclic-projections", "cyclic-projections-sparse", "cyclic-dr", "cadr"}
    #: the drivers whose every map has a lone form: the prox_union drivers'
    #: functions here have only stacked pieces
    LONE = SETS | PROX

    @staticmethod
    def block_rows(calls: list) -> set:
        """The row counts of the blocks a lone start's steps passed."""
        return {rows for _, running, rows in calls if running}

    @staticmethod
    def lone_picks_take_no_rule(picks: list) -> int:
        """Check that every pick of one candidate called no list or batched
        rule; the number of such picks."""
        lone = [(made, ran) for count, made, ran in picks if count == 1]
        assert all(made == [] and not ran for made, ran in lone)
        return len(lone)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("name", sorted(drivers()))
    def test_equals_row_0_of_a_twinned_block(self, monkeypatch, name, policy):
        # a twinned block's rows have equal candidate counts, so neither
        # side needs a policy call for a lone candidate
        strict_pick(monkeypatch)
        run = drivers(SelectionPolicy(kind=policy, seed=5))[name]
        for x0 in TestLockstepDrivers.STARTS:
            lone, first, second = lone_and_twinned(run, x0)
            assert full_fingerprint(lone) == full_fingerprint(first)
            assert full_fingerprint(second) == full_fingerprint(first)

    @pytest.mark.parametrize("name", sorted(drivers()))
    def test_one_start_takes_no_block_path(self, monkeypatch, name):
        calls, ndims, prox_rows, starts, picks = block_path_spies(monkeypatch)
        run = drivers()[name]
        lone = tied = 0
        for x0 in TestLockstepDrivers.STARTS:
            calls.clear(), ndims.clear(), prox_rows.clear(), starts.clear()
            picks.clear()
            run(x0)
            assert starts == [0]
            assert "_choose" not in {called for called, _, _ in calls}
            assert self.block_rows(calls) <= {1}
            assert set(ndims) == (set() if name in self.NO_POINT else {1})
            # a prox_union's block rule runs where its lone form has no
            # pair (a tie), on the one row
            assert set(prox_rows) <= ({1} if name in self.PROX else set())
            tied += bool(prox_rows)
            assert not any(ran for _, _, ran in picks)
            if name in self.LONE:
                lone += self.lone_picks_take_no_rule(picks)
        assert lone > 0 or name not in self.LONE
        assert tied > 0 or name not in self.PROX

    @pytest.mark.parametrize("name", sorted(drivers()))
    def test_a_survivor_takes_no_block_path_after_its_handoff(self, monkeypatch, name):
        calls, ndims, prox_rows, starts, picks = block_path_spies(monkeypatch)
        # the residual stops a start once its iterate has x[0] >= 0, so
        # starts that all converge in 2 steps (ppa, Douglas-Rachford) leave
        # at different steps
        east = StopRule(max_iters=60, residual_fn=lambda x: float(x[0] < 0.0),
                        residual_tol=0.5)
        handed = 0
        for stop in (StopRule(max_iters=60), east):
            run = drivers(stop=stop)[name]
            for pair in itertools.combinations(TestLockstepDrivers.STARTS, 2):
                calls.clear(), ndims.clear(), prox_rows.clear(), starts.clear()
                picks.clear()
                run(np.stack(pair))
                if starts:
                    handed += 1
                    # the block's steps chose (km has no candidates to choose)
                    assert name == "km-admissible" or ("_choose", False) in {
                        call[:2] for call in calls}
                    assert ("_choose", True) not in {call[:2] for call in calls}
                    assert self.block_rows(calls) <= {1}
                    assert set(ndims) <= {1}
                    assert set(prox_rows) <= ({1} if name in self.PROX else set())
                    if name in self.LONE:
                        self.lone_picks_take_no_rule(picks)
        assert handed > 0

    @pytest.mark.parametrize("policy", POLICIES)
    def test_a_sparsity_tie_takes_the_list_rule(self, monkeypatch, policy):
        # |x0| ties at its 2nd and 3rd largest entries: the sparsity set's
        # lone form has no pair at step 0, so the step runs the block rule
        # on the one row (its band scan), with no list rule, and picks by
        # the policy; the steps after it, onto the affine set and back,
        # take lone pairs, or settled steps once the support repeats
        calls, ndims, prox_rows, starts, picks = block_path_spies(monkeypatch)
        settled = settled_steps(monkeypatch)
        S = sets.sparsity_set(4, 2)
        run = lambda x0: solvers.cyclic_projections(
            [S, sets.affine_set([[1.0, 0.3, -0.2, 0.1]], [3.0])], x0,
            stop=StopRule(max_iters=6), policy=SelectionPolicy(kind=policy, seed=0))
        x0 = np.array([3.0, -1.0, 1.0, 0.5])
        assert S._lone(core_ops.DEFAULT_TIE_TOL, x0) is None
        lone, first, second = lone_and_twinned(run, x0)
        assert full_fingerprint(lone) == full_fingerprint(first)
        assert full_fingerprint(second) == full_fingerprint(first)
        # seed 0 draws the second support
        assert lone.steps[0].index == (0, (0, 2) if policy == "seeded-random" else (0, 1))
        assert starts == [0]
        assert picks[0] == (2, ["_rule_rows"], False)
        assert len(picks) + sum(settled) == 6
        assert self.lone_picks_take_no_rule(picks) == 5 - sum(settled)

    @staticmethod
    def rule_calls(monkeypatch) -> list:
        """(label, form, rows) for each call of a map's lone form ("lone",
        one row) or block rule ("rule_rows", its block's rows), as every
        builder hands them to ``_rule_map``, so the derived list rule's
        calls are seen too."""
        calls = []

        def spied(fn, label, form):
            def wrapped(x):
                calls.append((label, form, 1 if form == "lone" else len(x)))
                return fn(x)
            return wrapped

        def rule_map_of(rule_map):
            def wrapped(*args, rule_rows=None, lone=None, **kwargs):
                label = kwargs.get("label", "")
                return rule_map(*args, **kwargs,
                                rule_rows=rule_rows and spied(rule_rows, label, "rule_rows"),
                                lone=lone and spied(lone, label, "lone"))
            return wrapped

        for module in (core_ops, sets, mc):
            monkeypatch.setattr(module, "_rule_map", rule_map_of(module._rule_map))
        return calls

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("driver", ["cyclic-projections", "cyclic-dr"])
    def test_a_tie_calls_the_lone_form_and_the_block_rule_once(
            self, monkeypatch, driver, policy):
        # step 0 of a one-start run at the sparsity(4, 2) tie above, alone
        # (cyclic projections: the sparsity projector) and as the first
        # stage of a chain (cyclic DR: compose of its DR ring): the map's
        # lone form runs once and has no pair, then its block rule runs
        # once, on the one row; no map in the chain runs its lone form twice
        calls = self.rule_calls(monkeypatch)
        S = sets.sparsity_set(4, 2)
        A = sets.affine_set([[1.0, 0.3, -0.2, 0.1]], [3.0])
        run = {"cyclic-projections": solvers.cyclic_projections,
               "cyclic-dr": solvers.cyclic_dr}[driver]
        top = {"cyclic-projections": f"P[{S.label}]", "cyclic-dr": "compose"}[driver]
        trace = run([S, A], np.array([3.0, -1.0, 1.0, 0.5]), stop=StopRule(max_iters=1),
                    policy=SelectionPolicy(kind=policy, seed=0))
        assert len(trace.steps) == 1
        assert [c for c in calls if c[0] == top] == [(top, "lone", 1), (top, "rule_rows", 1)]
        lones = [label for label, form, _ in calls if form == "lone"]
        assert f"P[{S.label}]" in lones and len(lones) == len(set(lones))

    @pytest.mark.parametrize("case", sorted(stop_cases()))
    def test_every_stop_outcome_matches(self, case):
        run, x0, status = stop_cases()[case]
        lone, first, second = lone_and_twinned(run, x0)
        assert lone.status == status
        assert full_fingerprint(lone) == full_fingerprint(first)
        assert full_fingerprint(second) == full_fingerprint(first)
        norms = [s.step_norm for s in lone.steps]
        if case == "cycle-of-3":
            # one small step per cycle, from step 0 on, stops nothing
            small = [s.n for s in lone.steps if s.step_norm <= StopRule().step_tol]
            assert small[:3] == [0, 2, 5] and len(norms) > 30
        if case == "residual":
            assert norms[-1] > StopRule().step_tol  # the residual stopped it
        if case == "diverged":  # 2^28 |x0| is the first norm past the guard
            assert len(norms) == 28 and norm(lone.x_final) == 2.0**28
        if case == "diverged-overflowing":
            assert norms[0] == 1e200 and all(map(math.isfinite, norms))
            assert math.isinf(np.vdot(lone.steps[1].x, lone.steps[1].x))

    def test_a_nan_map_raises_at_the_same_step(self):
        # x doubles from 1 to 16; the map turns NaN beyond x[0] = 10, at
        # step 4, so step 5's iterate check raises
        for x0 in (np.array([1.0, 0.0]), np.array([[1.0, 0.0], [1.0, 0.0]])):
            drawn = []
            schedule = Schedule(lambda n: drawn.append(n) or 1.0, lo=0.0, hi=1.0)
            with pytest.raises(ValueError, match="finite"):
                solvers.iterate_union(scaling(2.0, nan_beyond=10.0), schedule,
                                      SelectionPolicy(), x0, StopRule())
            assert drawn == list(range(6))

    def test_a_full_step_keeps_the_signed_zeros_of_its_formula(self):
        # at lambda = 1 the step is (1 - lam) x + v, not v: the map's -0.0
        # entries become 0.0 + -0.0 = +0.0, as (1 - lam) x + lam v gives
        lone, first, second = lone_and_twinned(
            lambda x0: solvers.iterate_union(
                scaling(-0.0), Schedule.constant(1.0), SelectionPolicy(), x0,
                StopRule(max_iters=1)), [1.0, 2.0])
        assert lone.x_final.tobytes() == np.zeros(2).tobytes()
        assert full_fingerprint(lone) == full_fingerprint(first)
        assert full_fingerprint(second) == full_fingerprint(first)

    def test_an_overflowing_step_rechecks_the_next_iterate(self):
        # step 0 projects [1e200, 1e200] onto the first axis: a step whose
        # sum of squares overflows, so the iterate is checked at step 1,
        # where it is finite.  There the doubling set's projection turns
        # NaN (beyond x[0] = 10) and decides no piece; a line instead
        # carries the run on from the same iterate
        e1 = sets.span_set(np.array([[1.0], [0.0]]))
        x0 = np.array([1e200, 1e200])
        step = e1.pieces[0].project(x0) - x0
        assert np.isinf(np.vdot(step, step))
        outcomes = []
        for x in (x0, np.stack([x0, x0])):
            with pytest.raises(core_ops.EmptySelectionError) as info:
                solvers.cyclic_projections([e1, doubling_set(10.0)], x,
                                           stop=StopRule(max_iters=5))
            outcomes.append(str(info.value))
        assert outcomes[0] == outcomes[1] and "doubling" in outcomes[0]
        diagonal = sets.span_set(np.array([[1.0], [1.0]]))
        lone, first, second = lone_and_twinned(
            lambda x: solvers.cyclic_projections([e1, diagonal], x), x0)
        assert lone.steps[1].x.tolist() == [1e200, 0.0]
        assert full_fingerprint(lone) == full_fingerprint(first)
        assert full_fingerprint(second) == full_fingerprint(first)

    @staticmethod
    def handoffs(monkeypatch) -> list:
        """The step at which each call of ``solvers._run_one`` starts."""
        starts, run_one = [], solvers._run_one
        monkeypatch.setattr(solvers, "_run_one", lambda step, n, *rest: (
            starts.append(n), run_one(step, n, *rest)))
        return starts

    def test_a_survivor_scans_its_iterate_once(self, monkeypatch):
        # the crossed lines from [[0, 0], [3, -1]]: the first start converges
        # after 2 steps, the second is handed on at step 2 and runs 69 more,
        # whose iterates are known finite from the step sums but the first;
        # its picks check them, and its settled steps take no pick
        full_scans, check = [], core_ops.UnionMap._check_iterates
        settled = settled_steps(monkeypatch)

        def spy(self, X, finite=False):
            if X.ndim == 1:
                full_scans.append(not finite)
            return check(self, X, finite)

        monkeypatch.setattr(core_ops.UnionMap, "_check_iterates", spy)
        starts = self.handoffs(monkeypatch)
        lines = crossed_lines()
        traces = solvers.cyclic_projections(lines, np.array([[0.0, 0.0], [3.0, -1.0]]))
        assert [len(t.steps) for t in traces] == [2, 71]
        assert starts == [2] and len(full_scans) + sum(settled) == 69
        assert sum(full_scans) == 1

    @pytest.mark.parametrize("name", sorted(drivers()))
    def test_a_survivor_equals_its_lone_run(self, monkeypatch, name):
        # of a pair of starts that leave at different steps, the one left
        # is handed to the lone-start loop from the step the other left
        run = drivers()[name]
        starts = self.handoffs(monkeypatch)
        for pair in itertools.combinations(TestLockstepDrivers.STARTS, 2):
            starts.clear()
            block = run(np.stack(pair))
            lengths = {len(t.steps) for t in block}
            assert starts == ([min(lengths)] if len(lengths) == 2 else [])
            for trace, x0 in zip(block, pair):
                assert full_fingerprint(trace) == full_fingerprint(run(x0))

    def test_a_survivor_handed_on_at_the_last_step(self, monkeypatch):
        # the first start leaves at step 1, so the second is handed on at
        # step 2 = max_iters - 1 and takes that one step alone
        lines = crossed_lines()
        starts = self.handoffs(monkeypatch)

        def run(x0):
            return solvers.cyclic_projections(lines, x0, stop=StopRule(max_iters=3))

        X0 = np.array([[0.0, 0.0], [3.0, -1.0]])
        block = run(X0)
        assert starts == [2]
        assert [t.status for t in block] == ["converged", "max-iters"]
        assert [s.n for s in block[1].steps] == [0, 1, 2]
        for trace, x0 in zip(block, X0):
            assert full_fingerprint(trace) == full_fingerprint(run(x0))

    @pytest.mark.parametrize("X0", [[[3.0, -1.0], [-3.0, 1.0]], [[3.0, -1.0], [3.0, -1.0]]],
                             ids=["mirrored", "twinned"])
    def test_starts_that_leave_together_hand_nothing_on(self, monkeypatch, X0):
        lines = crossed_lines()
        starts = self.handoffs(monkeypatch)
        block = solvers.cyclic_projections(lines, np.array(X0))
        assert starts == [] and [len(t.steps) for t in block] == [71, 71]
        alone = [solvers.cyclic_projections(lines, x0) for x0 in np.array(X0)]
        assert starts == [0, 0]
        assert list(map(full_fingerprint, block)) == list(map(full_fingerprint, alone))


def crossed_lines() -> list:
    """span(e1) and span(e1 + e2): a start off both takes some 70 steps."""
    return [sets.span_set(np.array([[1.0], [0.0]])),
            sets.span_set(np.array([[1.0], [1.0]]))]


def axes_set() -> sets.UnionConvexSet:
    """The two coordinate axes of the plane: equidistant on |x| = |y|."""
    return sets.UnionConvexSet({"x": sets.span_set(np.array([[1.0], [0.0]])).pieces[0],
                                "y": sets.span_set(np.array([[0.0], [1.0]])).pieces[0]})


def doubling_set(nan_beyond: float) -> sets.UnionConvexSet:
    """A one-piece "set" whose projection doubles x, NaN where x[0] >
    nan_beyond, in its scalar and its batched form."""
    return sets._convex_set(
        lambda x: np.full(x.shape, np.nan) if x[0] > nan_beyond else 2.0 * x,
        lambda X: np.where(X[:, :1] > nan_beyond, np.nan, 2.0 * X),
        "doubling", np.zeros(2))


class TestBlockRules:
    """Lockstep steps whose rows have one candidate each take the rule's
    keys and points without picks (``solvers._choose``), and one-piece
    sets decide a block by its projection
    (``UnionConvexSet._distance_rows``).  Each block trace is bit for bit
    its start's lone trace."""

    STARTS = np.vstack([np.array([[1.0, 1.0], [-2.0, 2.0], [0.0, 0.0], [3.0, -0.5]]),
                        np.random.default_rng(7).uniform(-3.0, 3.0, size=(8, 2))])

    @staticmethod
    def runs(policy: SelectionPolicy) -> dict:
        stop = StopRule(max_iters=80)
        e1, diagonal = np.array([[1.0], [0.0]]), np.array([[1.0], [1.0]])
        three = [sets.span_set(diagonal), sets.ball_set([0.5, 0.5], 1.0),
                 sets.halfspace_set([1.0, 2.0], 0.5)]
        one_piece = [sets.affine_set([[1.0, -1.0]], [0.25]),
                     sets.box_set([-1.0, -1.0], [1.0, 0.5]),
                     sets.singleton_set([0.25, 0.0])]
        return {
            "crossed-lines": lambda x0: solvers.cyclic_projections(
                [sets.span_set(e1), sets.span_set(diagonal)], x0, stop=stop,
                policy=policy),
            "cycle-of-three": lambda x0: solvers.cyclic_projections(
                three, x0, stop=stop, policy=policy),
            "cyclic-dr-of-three": lambda x0: solvers.cyclic_dr(
                one_piece, x0, stop=stop, policy=policy),
            # the planted rows on |x| = |y| tie at step 0, the others do not
            "axes-and-ball": lambda x0: solvers.cyclic_projections(
                [axes_set(), sets.ball_set([2.0, 1.0], 0.5)], x0, stop=stop,
                policy=policy),
            # every projection onto the diagonal lands on a tie of the axes:
            # rows gain a tie at every other step and lose it between
            "axes-and-diagonal": lambda x0: solvers.cyclic_projections(
                [axes_set(), sets.span_set(diagonal)], x0, stop=stop,
                policy=policy),
        }

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("name", ["crossed-lines", "cycle-of-three",
                                      "cyclic-dr-of-three", "axes-and-ball",
                                      "axes-and-diagonal"])
    def test_block_equals_one_start_runs(self, name, policy):
        run = self.runs(SelectionPolicy(kind=policy, seed=11))[name]
        block = run(self.STARTS)
        for trace, x0 in zip(block, self.STARTS):
            assert full_fingerprint(trace) == full_fingerprint(run(x0))
        # projections onto the axes from a point equidistant to both
        tied = [s for t in block for s in t.steps if s.n % 2 == 0
                and abs(abs(s.x[0]) - abs(s.x[1])) <= 1e-10 and s.x.any()]
        if name == "axes-and-ball":
            assert {s.n for s in tied} == {0}
        if name == "axes-and-diagonal":
            assert len({s.n for s in tied}) > 10
            # the ties reach the trace: lowest-index and round-robin (at even
            # steps) take the first axis, seeded-random either
            want = {"x", "y"} if policy == "seeded-random" else {"x"}
            assert {s.index[1] for s in tied} == want

    def test_nan_projection_raises_at_the_same_step(self):
        # x doubles from 1 and from 0.5; the projection turns NaN beyond
        # x[0] = 10, for the first start at step 4, which raises there
        T = sets.project_union(doubling_set(10.0))
        outcomes = []
        for x0 in (np.array([1.0, 0.0]), np.array([[1.0, 0.0], [0.5, 0.0]])):
            drawn = []
            schedule = Schedule(lambda n: drawn.append(n) or 1.0, lo=0.0, hi=1.0)
            with pytest.raises(core_ops.EmptySelectionError) as info:
                solvers.iterate_union(T, schedule, SelectionPolicy(), x0, StopRule())
            outcomes.append((str(info.value), drawn))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] == list(range(5))

    def test_a_row_without_candidates_raises_beside_a_row_with_two(self):
        # a block rule that gives row 0 two pairs and row 1 none: as many
        # pairs as rows, but not one per row
        T = core_ops.from_map(core_ops.AveragedMap(lambda x: 0.5 * x, alpha=0.5))
        T._rule_rows = lambda X: (np.zeros(len(X), dtype=np.intp), [0] * len(X),
                                  0.5 * X[:1].repeat(len(X), axis=0))
        with pytest.raises(core_ops.EmptySelectionError, match="live row 1"):
            solvers.iterate_union(T, Schedule.constant(1.0), SelectionPolicy(),
                                  np.array([[1.0, 0.0], [2.0, 0.0]]), StopRule())


class TestSelectionPolicy:
    @pytest.mark.parametrize("seed", [0, 3, 12345, [4, 5]])
    def test_a_draw_among_one_leaves_the_generator_as_it_was(self, seed):
        # a lone candidate is picked without a draw: integers(1) draws nothing
        # (numpy >= 2.2, the declared floor)
        rng, fresh = np.random.default_rng(seed), np.random.default_rng(seed)
        state = rng.bit_generator.state
        assert [int(rng.integers(1)) for _ in range(5)] == [0] * 5
        assert rng.bit_generator.state == state
        assert rng.integers(10**9, size=4).tolist() == fresh.integers(10**9, size=4).tolist()

    def test_an_unknown_kind_is_refused_when_built(self):
        with pytest.raises(ValueError, match=r"^unknown selection policy 'bogus'$"):
            SelectionPolicy(kind="bogus")

    @pytest.mark.parametrize("seed", [-1, 1.5, "a", None, True, False, np.int64(-1)],
                             ids=repr)
    def test_a_seed_that_is_not_a_nonnegative_integer_is_refused_when_built(self, seed):
        # -1 and 1.5 used to fail at a run's first draw, None to draw OS entropy
        with pytest.raises(ValueError, match=r"^selection policy seed must be an "
                                             r"integer of at least 0, got "):
            SelectionPolicy(kind="seeded-random", seed=seed)

    @pytest.mark.parametrize("seed", [0, 7, 2**70, np.int64(7), np.uint8(7)], ids=repr)
    def test_nonnegative_integer_seeds_are_taken(self, seed):
        # a numpy integer seed draws as the Python int of its value; every
        # ppa step here is a tie, so the draws reach the trace
        run = drivers(SelectionPolicy(kind="seeded-random", seed=seed))["ppa"]
        want = drivers(SelectionPolicy(kind="seeded-random", seed=int(seed)))["ppa"]
        x0 = TestLockstepDrivers.STARTS[1]
        assert full_fingerprint(run(x0)) == full_fingerprint(want(x0))


def step(n, index, x, extras=None) -> solvers.TraceStep:
    return solvers.TraceStep(n, np.asarray(x, dtype=float), index, 1.0,
                             float(np.linalg.norm(x)), extras)


class TestBlockStepLines:
    """A lockstep block's step lines are one ``cli._step_lines`` call over
    the steps of all its traces, cut per trace by step count."""

    @staticmethod
    def assert_block_lines_are_the_traces_lines(traces):
        block = cli._step_lines([s for steps in traces for s in steps])
        assert block == [line for steps in traces for line in cli._step_lines(steps)]

    def test_indices_that_compare_equal_encode_apart(self):
        # 1, True and 1.0 are one dict key, as are 0.0 and -0.0
        traces = [[step(0, 1, [1.0, -0.0]), step(1, True, [0.5, 2.0])],
                  [step(0, 1.0, [3.0, 1e-300])],  # a one-step trace
                  [step(0, -0.0, [0.0, 0.0]), step(1, 0.0, [-1.5, 2.5]),
                   step(2, (0, "x"), [1.0, 1.0])],
                  [step(0, True, [2.0, 2.0])]]
        self.assert_block_lines_are_the_traces_lines(traces)
        indices = [json.loads(line)["index"]
                   for line in cli._step_lines([s for t in traces for s in t])]
        assert json.dumps(indices) == '[1, true, 1.0, -0.0, 0.0, [0, "x"], true]'

    def test_douglas_rachford_extras(self):
        block = drivers()["douglas-rachford"](TestLockstepDrivers.STARTS)
        assert all(s.extras for t in block for s in t.steps)
        self.assert_block_lines_are_the_traces_lines([t.steps for t in block])
        extras = [[step(0, (0, 1), [1.0, 0.0], {"y": np.array([0.5, -0.0]),
                                                "z": np.array([1e300, 2.0])})],
                  [step(0, (1, 0), [0.0, 1.0], {"y": np.array([1.0, 1.0]),
                                                "z": np.array([0.0, 0.25])}),
                   step(1, (1, 1), [2.0, 1.0], {"y": np.array([-3.0, 0.0]),
                                                "z": np.array([0.125, 4.0])})]]
        self.assert_block_lines_are_the_traces_lines(extras)

    def test_a_refused_step_comes_after_the_earlier_traces(self):
        # the encoder refuses an infinite step norm: the traces before the
        # refused one are yielded with their lines, then its own error
        traces = [solvers.IterationTrace([step(n, 0, [n, 1.0]) for n in range(k)],
                                         "converged", np.zeros(2)) for k in (2, 1, 3)]
        traces[2].steps[1].step_norm = math.inf
        got = cli._encoded(traces)
        for trace in traces[:2]:
            assert next(got) == (trace, cli._step_lines(trace.steps))
        with pytest.raises(ValueError) as one:
            cli._step_lines(traces[2].steps)
        with pytest.raises(ValueError) as block:
            next(got)
        assert str(block.value) == str(one.value)
