"""Tests for the iteration drivers: schedules, control, policies, solvers."""

import math

import numpy as np
import pytest

from unionfix import minconvex as mc, projections, sets, solvers
from unionfix.core_ops import (
    AveragedMap,
    DimensionMismatchError,
    compose,
    from_map,
    identity_map,
    relax,
)
from unionfix.minconvex import MinConvexFn
from unionfix.solvers import (
    ControlSequence,
    Schedule,
    ScheduleError,
    SelectionPolicy,
    SmoothFn,
    StopRule,
)


def window_coverage(seq, indices, window: int) -> bool:
    """True iff every index appears in every length-``window`` slice."""
    required = set(indices)
    if len(seq) < window:
        return required <= set(seq)
    return all(
        required <= set(seq[k:k + window]) for k in range(len(seq) - window + 1)
    )


def axis_maps():
    Px = AveragedMap(lambda x: np.array([x[0], 0.0]), alpha=0.5, label="Px")
    Py = AveragedMap(lambda x: np.array([0.0, x[1]]), alpha=0.5, label="Py")
    return [Px, Py]


def two_singletons():
    return MinConvexFn(
        [mc.indicator_singleton([0.0]), mc.indicator_singleton([2.0])]
    )


def norm_stop(tol=1e-9, max_iters=10_000):
    return StopRule(residual_fn=lambda x: float(np.linalg.norm(x)),
                    residual_tol=tol, max_iters=max_iters)


class TestSchedule:
    def test_constant_in_range(self):
        solvers.validate_schedule(Schedule.constant(0.5), 2.0, horizon=100)

    def test_exceeds_bound(self):
        with pytest.raises(ScheduleError):
            solvers.validate_schedule(Schedule.constant(1.5), 1.0, horizon=10)

    def test_surrogate_rejects_boundary(self):
        # lambda equal to the bound gives lambda*(bound-lambda) = 0 < eps
        with pytest.raises(ScheduleError):
            solvers.validate_schedule(Schedule.constant(2.0), 2.0, horizon=10)

    def test_varying_schedule_checked_pointwise(self):
        sched = Schedule(lambda n: 0.5 if n < 5 else 3.0, lo=0.0, hi=3.0)
        with pytest.raises(ScheduleError):
            solvers.validate_schedule(sched, 3.0, horizon=10)



def halving_map():
    """x -> x/2: 1/2-averaged, and no step of it is ever zero."""
    return AveragedMap(lambda x: 0.5 * np.asarray(x, dtype=float), alpha=0.5,
                       label="half")


#: driver -> run(schedule, short): short runs converge within 2 steps,
#: long runs take 60 steps (step_tol 0 and a halving map)
SCHEDULE_RUNS = {
    "iterate_union": lambda sched, short: solvers.iterate_union(
        mc.prox_union(two_singletons(), 1.0) if short else from_map(halving_map()),
        sched, SelectionPolicy(), [0.9],
        StopRule() if short else StopRule(step_tol=0.0, max_iters=60)),
    "km_admissible": lambda sched, short: solvers.km_admissible(
        axis_maps() if short else [halving_map()],
        ControlSequence.cyclic([0, 1] if short else [0]), sched, [1.0, 1.0],
        norm_stop() if short else StopRule(step_tol=0.0, max_iters=60)),
    "douglas_rachford": lambda sched, short: solvers.douglas_rachford(
        *[MinConvexFn([mc.indicator_singleton([1.0, 2.0])]) if short else
          MinConvexFn([mc.quadratic([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])])] * 2,
        1.0, sched, SelectionPolicy(), [5.0, 5.0],
        StopRule() if short else StopRule(step_tol=0.0, max_iters=60)),
}


class TestScheduleCheckedPerStep:
    # lambda_50 = 2 sits on every driver's bound here: lambda (2 - lambda) = 0
    LATE_BREAK = Schedule(lambda n: 2.0 if n == 50 else 1.0, lo=0.0, hi=2.0)

    @pytest.mark.parametrize("driver", sorted(SCHEDULE_RUNS))
    def test_late_violation_unused_by_short_run(self, driver):
        trace = SCHEDULE_RUNS[driver](self.LATE_BREAK, short=True)
        assert trace.status == "converged"
        assert len(trace.steps) <= 2

    @pytest.mark.parametrize("driver", sorted(SCHEDULE_RUNS))
    def test_late_violation_raised_at_its_step(self, driver):
        with pytest.raises(ScheduleError, match="lambda_50"):
            SCHEDULE_RUNS[driver](self.LATE_BREAK, short=False)

    def test_km_reads_control_only_for_steps_taken(self):
        def index_at(n):
            if n >= 10:
                raise AssertionError(f"control asked for step {n}")
            return n % 2

        trace = solvers.km_admissible(
            axis_maps(), ControlSequence(index_at, kind="bounded"),
            Schedule.constant(1.0), [1.0, 1.0], norm_stop(),
        )
        assert trace.status == "converged"
        assert len(trace.steps) == 2


class TestControlSequence:
    def test_cyclic(self):
        c = ControlSequence.cyclic([0, 1, 2])
        assert [c.index_at(n) for n in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_seeded_random_is_pure_and_admissible(self):
        c = ControlSequence.seeded_random([0, 1, 2], seed=5)
        seq = [c.index_at(n) for n in range(300)]
        assert seq == [c.index_at(n) for n in range(300)]
        assert window_coverage(seq, [0, 1, 2], window=5)  # 2m - 1

    @pytest.mark.parametrize("build", [
        lambda: ControlSequence.cyclic([]),
        lambda: ControlSequence.seeded_random([], 0),
        lambda: ControlSequence.seeded_random(iter(()), 0)])
    def test_empty_keys_are_refused_at_construction(self, build):
        with pytest.raises(ValueError,
                           match="^a control sequence needs at least one key$"):
            build()

    @pytest.mark.parametrize("seed", [-1, 1.5, True, False, "1", None, np.float64(2.0)])
    def test_seeded_random_refuses_a_seed_that_is_not_a_count(self, seed):
        with pytest.raises(ValueError, match="^control sequence seed must be an "
                                             "integer of at least 0, got "):
            ControlSequence.seeded_random([0, 1], seed)

    def test_seeded_random_takes_a_numpy_integer_seed(self):
        a = ControlSequence.seeded_random([0, 1, 2], np.int64(5))
        b = ControlSequence.seeded_random([0, 1, 2], 5)
        assert [a.index_at(n) for n in range(30)] == [b.index_at(n) for n in range(30)]

    def test_seeded_random_is_pure_in_any_order_of_calls(self):
        # out of order, repeated and far calls each return a fresh
        # sequence's key at that step, though only one block is kept
        keys = ["a", "b", "c", "d"]
        rng = np.random.default_rng(0)
        steps = [*rng.integers(0, 400, 200).tolist(), 7, 7, 3, 399, 0, 10**9, 5]
        c = ControlSequence.seeded_random(keys, 3)
        got = [c.index_at(n) for n in steps]
        assert got == [ControlSequence.seeded_random(keys, 3).index_at(n) for n in steps]
        # the one block kept is the last one asked for
        cells = dict(zip(c.index_at.__code__.co_freevars,
                         (cell.cell_contents for cell in c.index_at.__closure__)))
        block, permutation = cells["last"]
        assert block == steps[-1] // 4 and permutation.shape == (4,)

    def test_a_seeded_random_trace_is_the_stateless_sequences(self):
        # a km_admissible run of 2,000 steps over two maps (1,000 blocks)
        # against the sequence that draws each step's block afresh
        def stateless(keys, seed):
            m = len(keys)
            return ControlSequence(lambda n: keys[int(np.random.default_rng(
                [seed, n // m]).permutation(m)[n % m])], kind="seeded-random-admissible")

        contract = [AveragedMap(lambda x: 0.999 * x, alpha=0.5),
                    AveragedMap(lambda x: np.array([x[0], 0.998 * x[1]]), alpha=0.5)]
        traces = [solvers.km_admissible(
            contract, make([0, 1], 7), Schedule.constant(0.5), [1.0, -2.0],
            StopRule(max_iters=2000)) for make in (ControlSequence.seeded_random, stateless)]
        assert len(traces[0].steps) == 2000
        assert [(st.index, st.x.tobytes()) for st in traces[0].steps] == [
            (st.index, st.x.tobytes()) for st in traces[1].steps]

    def test_window_coverage_detects_gaps(self):
        assert not window_coverage([0, 0, 0, 1], [0, 1], window=2)


class TestKmAdmissible:
    def test_axis_projectors_reach_origin(self):
        trace = solvers.km_admissible(
            axis_maps(), ControlSequence.cyclic([0, 1]),
            Schedule.constant(0.5), [1.0, 1.0], norm_stop(),
        )
        assert trace.status == "converged"
        assert np.linalg.norm(trace.x_final) <= 1e-8
        norms = [np.linalg.norm(x) for x in trace.iterates]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
        assert trace.meta["fixed_by_recurrent"]

    def test_identity_stops_immediately(self):
        trace = solvers.km_admissible(
            [identity_map()], ControlSequence.cyclic([0]),
            Schedule.constant(0.5), [3.0, -1.0], StopRule(),
        )
        assert trace.status == "converged"
        assert len(trace.steps) == 1
        np.testing.assert_allclose(trace.x_final, [3.0, -1.0])

    def test_start_at_common_fixed_point(self):
        trace = solvers.km_admissible(
            axis_maps(), ControlSequence.cyclic([0, 1]),
            Schedule.constant(0.5), [0.0, 0.0], StopRule(),
        )
        np.testing.assert_allclose(trace.x_final, [0.0, 0.0])
        assert len(trace.steps) == 1

    def test_incompatible_schedule_aborts_before_stepping(self):
        with pytest.raises(ScheduleError):
            solvers.km_admissible(
                axis_maps(), ControlSequence.cyclic([0, 1]),
                Schedule.constant(2.0), [1.0, 1.0], StopRule(),
            )


class TestIterateUnion:
    def test_prox_converges_in_one_step(self):
        T = mc.prox_union(two_singletons(), 1.0)
        trace = solvers.iterate_union(
            T, Schedule.constant(1.0), SelectionPolicy(), [0.9], StopRule()
        )
        assert trace.status == "converged"
        np.testing.assert_allclose(trace.x_final, [0.0])
        assert trace.meta["classification"].kind == "strong-fixed"

    def test_tie_resolved_by_policy(self):
        T = mc.prox_union(two_singletons(), 1.0)
        low = solvers.iterate_union(
            T, Schedule.constant(1.0), SelectionPolicy("lowest-index"),
            [1.0], StopRule(),
        )
        np.testing.assert_allclose(low.x_final, [0.0])
        rr = solvers.iterate_union(
            T, Schedule.constant(1.0), SelectionPolicy("round-robin"),
            [1.0], StopRule(),
        )
        assert rr.x_final[0] in (0.0, 2.0)
        for trace in (low, rr):
            assert trace.meta["classification"].kind == "strong-fixed"

    def test_start_at_strong_fixed_point(self):
        T = mc.prox_union(two_singletons(), 1.0)
        trace = solvers.iterate_union(
            T, Schedule.constant(1.0), SelectionPolicy(), [2.0], StopRule()
        )
        assert len(trace.steps) == 1
        np.testing.assert_allclose(trace.x_final, [2.0])

    def test_seeded_random_replay_identical(self):
        T = sets.project_union(sets.sparsity_set(3, 1))
        kw = dict(schedule=Schedule.constant(1.0),
                  policy=SelectionPolicy("seeded-random", seed=11),
                  x0=[1.0, 1.0, 1.0], stop=StopRule())
        a = solvers.iterate_union(T, **kw)
        b = solvers.iterate_union(T, **kw)
        assert [s.index for s in a.steps] == [s.index for s in b.steps]
        assert all(np.array_equal(x, y)
                   for x, y in zip(a.iterates, b.iterates))


class TestCyclicCompose:
    def test_crossed_lines(self):
        L1 = sets.project_union(sets.span_set(np.array([[1.0], [0.0]])))
        L2 = sets.project_union(sets.span_set(np.array([[1.0], [1.0]])))
        trace = solvers.cyclic_compose([L1, L2], [1.0, 0.3], stop=norm_stop())
        assert trace.status == "converged"
        assert np.linalg.norm(trace.x_final) <= 1e-8
        assert trace.meta["classification"].kind == "strong-fixed"

    def test_single_map_matches_iterate_union(self):
        T = mc.prox_union(two_singletons(), 1.0)
        a = solvers.cyclic_compose([T], [0.9], stop=StopRule())
        b = solvers.iterate_union(
            T, Schedule.constant(1.0), SelectionPolicy(), [0.9], StopRule()
        )
        np.testing.assert_allclose(a.x_final, b.x_final)

    def test_common_strong_fixed_point_is_constant(self):
        P1 = sets.project_union(sets.sparsity_set(2, 1))
        P2 = sets.project_union(sets.span_set(np.array([[1.0], [0.0]])))
        trace = solvers.cyclic_compose([P1, P2], [3.0, 0.0], stop=StopRule())
        assert len(trace.steps) <= 2
        np.testing.assert_allclose(trace.x_final, [3.0, 0.0])


class TestDimensionsCheckedAtEntry:
    """The cyclic drivers refuse sets or maps of several dimensions, and
    starts of another dimension than theirs, before a step."""

    R3 = sets.span_set(np.array([[1.0], [0.0], [0.0]]))
    R2 = sets.span_set(np.array([[1.0], [1.0]]))

    @pytest.mark.parametrize("driver", [solvers.cyclic_projections, solvers.cadr,
                                        solvers.cyclic_dr])
    @pytest.mark.parametrize("x0", [[1.0, 1.0, 1.0], [1.0, 1.0]])
    def test_sets_of_several_dimensions(self, driver, x0):
        for pair in ([self.R3, self.R2], [self.R2, self.R3]):
            with pytest.raises(DimensionMismatchError, match=r"\[2, 3\]"):
                driver(pair, x0)

    @pytest.mark.parametrize("driver", [solvers.cyclic_projections, solvers.cadr,
                                        solvers.cyclic_dr])
    def test_starts_of_another_dimension(self, driver):
        unions = [sets.union_of_sets([self.R3, sets.singleton_set([0.0, 1.0, 0.0])]),
                  sets.sparsity_set(3, 1)]
        for x0 in ([1.0, 1.0], np.ones((2, 4))):
            with pytest.raises(DimensionMismatchError, match="dimension 3"):
                driver(unions, x0)

    def test_a_later_map_of_the_cycle_decides(self):
        calls = []
        first = from_map(AveragedMap(lambda x: calls.append(x) or x, alpha=0.5))
        later = sets.project_union(self.R3)
        for maps in ([first, later], [first, later, from_map(identity_map(), dim=2)]):
            with pytest.raises(DimensionMismatchError):
                solvers.cyclic_compose(maps, [1.0, 1.0])
        assert calls == []

    def test_a_union_of_sets_of_several_dimensions(self):
        with pytest.raises(DimensionMismatchError, match=r"\[2, 3\]"):
            sets.union_of_sets([self.R2, self.R3])


class TestCyclicProjections:
    def test_two_identical_convex_sets(self):
        C = sets.ball_set([0.0, 0.0], 1.0)
        trace = solvers.cyclic_projections([C, C], [3.0, 0.0])
        np.testing.assert_allclose(trace.x_final, [1.0, 0.0], atol=1e-12)
        assert trace.meta["in_intersection"]

    def test_start_in_intersection(self):
        C1 = sets.sparsity_set(2, 1)
        C2 = sets.span_set(np.array([[1.0], [0.0]]))
        trace = solvers.cyclic_projections([C1, C2], [2.0, 0.0])
        assert len(trace.steps) <= 2
        np.testing.assert_allclose(trace.x_final, [2.0, 0.0])

    def test_sparse_affine_instance(self):
        A = np.array([[1.0, 0.5, 0.5, 0.5]])
        C1 = sets.sparsity_set(4, 1)
        C2 = sets.affine_set(A, [1.0])
        x0 = np.array([1.0, 0.0, 0.0, 0.0]) + 0.01 * np.array(
            [0.5, 0.3, -0.2, 0.4]
        )
        trace = solvers.cyclic_projections(
            [C1, C2], x0, stop=StopRule(max_iters=500)
        )
        assert trace.status == "converged"
        assert np.linalg.norm(A @ trace.x_final - 1.0) <= 1e-9
        assert np.all(np.abs(trace.x_final[1:]) <= 1e-8)

    def test_planted_instance_with_c_1000_10_supports(self):
        # 2.6e23 supports: only a lazy, top-s selected sparsity set can run it
        rng = np.random.default_rng(3)
        n, s, m = 1000, 10, 500
        A = rng.standard_normal((m, n))
        xstar = np.zeros(n)
        xstar[rng.choice(n, size=s, replace=False)] = rng.uniform(0.5, 1.5, size=s)
        noise = rng.standard_normal(n)
        x0 = xstar + 0.05 * noise / np.linalg.norm(noise)
        trace = solvers.cyclic_projections(
            [sets.sparsity_set(n, s), sets.affine_set(A, A @ xstar)], x0
        )
        assert trace.status == "converged"
        assert np.linalg.norm(trace.x_final - xstar) <= 1e-6
        assert trace.meta["in_intersection"]
        assert trace.meta["classification"].is_fixed

    def test_needs_two_sets(self):
        with pytest.raises(ValueError):
            solvers.cyclic_projections([sets.singleton_set([0.0])], [1.0])

    def test_a_start_on_the_first_set_runs_the_cycle(self):
        # step 0 does not move [1, 0], which lies on the first line; that
        # one small step must not stop the run off the second line
        L1 = sets.span_set(np.array([[1.0], [0.0]]))
        L2 = sets.span_set(np.array([[1.0], [1.0]]))
        trace = solvers.cyclic_projections([L1, L2], [1.0, 0.0])
        assert trace.steps[0].step_norm == 0.0
        assert trace.status == "converged"
        assert trace.meta["in_intersection"]
        assert trace.meta["classification"].kind == "strong-fixed"
        np.testing.assert_allclose(trace.x_final, [0.0, 0.0], atol=1e-8)

    @staticmethod
    def coordinate_planes():
        """The planes x3 = 0, x2 = 0, x1 = 0 in R^3, in that order."""
        return [sets.affine_set([np.eye(3)[k]], [0.0]) for k in (2, 1, 0)]

    def test_m_minus_one_small_steps_stop_a_cycle_of_m(self):
        # from [1, 0, 1], step 0 lands on [1, 0, 0] and step 1 does not move
        # it, though it is off the third plane: one small step in a cycle
        # of three is not enough
        trace = solvers.cyclic_projections(self.coordinate_planes(), [1.0, 0.0, 1.0])
        assert trace.steps[1].step_norm == 0.0
        assert trace.steps[2].step_norm == 1.0
        assert trace.status == "converged"
        assert trace.meta["in_intersection"]
        assert trace.meta["classification"].kind == "strong-fixed"
        np.testing.assert_array_equal(trace.x_final, [0.0, 0.0, 0.0])
        assert all(s.step_norm <= 1e-10 for s in trace.steps[-2:])

    def test_the_cycle_rule_holds_per_start_in_a_block(self):
        planes = self.coordinate_planes()
        X0 = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.3, -0.2, 0.5]])
        block = solvers.cyclic_projections(planes, X0)
        for x0, trace in zip(X0, block):
            alone = solvers.cyclic_projections(planes, x0)
            assert trace_key(trace) == trace_key(alone)


class TestCyclicDr:
    def test_crossed_lines_near_origin(self):
        L1 = sets.span_set(np.array([[1.0], [0.0]]))
        L2 = sets.span_set(np.array([[1.0], [1.0]]))
        trace = solvers.cyclic_dr([L1, L2], [0.1, 0.05])
        assert trace.status == "converged"
        assert trace.meta["classification"].kind == "strong-fixed"
        assert np.linalg.norm(trace.x_final) <= 1e-6

    def test_repeated_set_fixes_its_points(self):
        C = sets.ball_set([0.0, 0.0], 1.0)
        trace = solvers.cyclic_dr([C, C], [0.5, 0.2])
        assert len(trace.steps) <= 2
        np.testing.assert_allclose(trace.x_final, [0.5, 0.2])

    def test_start_in_intersection_is_constant(self):
        L1 = sets.span_set(np.array([[1.0], [0.0]]))
        L2 = sets.span_set(np.array([[1.0], [1.0]]))
        trace = solvers.cyclic_dr([L1, L2], [0.0, 0.0])
        assert len(trace.steps) == 1
        np.testing.assert_allclose(trace.x_final, [0.0, 0.0])


class TestCadr:
    def make_sets(self):
        C1 = sets.span_set(np.array([[1.0], [0.0]]))  # line x2 = 0
        C2 = sets.union_of_sets(
            [sets.singleton_set([0.0, 0.0]), sets.singleton_set([5.0, 5.0])]
        )
        C3 = sets.ball_set([0.0, 0.0], 1.0)
        return [C1, C2, C3]

    def test_shadow_point_feasible(self):
        trace = solvers.cadr(self.make_sets(), [0.05, 0.02])
        assert trace.status == "converged"
        np.testing.assert_allclose(trace.meta["shadow"], [0.0, 0.0], atol=1e-8)
        assert trace.meta["shadow_feasible"]

    def test_two_sets_matches_plain_dr(self):
        A = sets.span_set(np.array([[1.0], [0.0]]))
        B = sets.span_set(np.array([[0.0], [1.0]]))
        trace = solvers.cadr([A, B], [0.3, 0.7])
        T = sets.dr_operator(A, B)
        step0 = trace.steps[0]
        np.testing.assert_allclose(
            trace.iterates[1], T.evaluate_points(step0.x)[0]
        )

    def test_all_sets_equal_convex(self):
        C = sets.ball_set([1.0, 0.0], 0.5)
        trace = solvers.cadr([C, C, C], [1.2, 0.1])
        assert trace.status == "converged"
        assert trace.meta["shadow_feasible"]


class TestPpa:
    def test_two_singletons(self):
        trace = solvers.ppa(two_singletons(), 1.0, SelectionPolicy(), [0.9],
                            StopRule())
        np.testing.assert_allclose(trace.x_final, [0.0])
        assert trace.meta["local_min"]

    def test_two_quadratics_from_right(self):
        f = MinConvexFn(
            [mc.quadratic([[2.0]], [0.0]),
             mc.quadratic([[2.0]], [-4.0], c=4.0)]
        )
        trace = solvers.ppa(f, 1.0, SelectionPolicy(), [1.6], StopRule())
        assert trace.status == "converged"
        np.testing.assert_allclose(trace.x_final, [2.0], atol=1e-8)
        assert all(s.index == 1 for s in trace.steps)
        assert trace.meta["local_min"]

    def test_start_at_strong_fixed_point(self):
        trace = solvers.ppa(two_singletons(), 1.0, SelectionPolicy(), [2.0],
                            StopRule())
        assert len(trace.steps) == 1


class TestForwardBackward:
    def fs(self):
        return SmoothFn(value=lambda x: 0.5 * float(x @ x),
                        grad=lambda x: x, lipschitz=1.0)

    def g(self):
        return MinConvexFn(
            [mc.indicator_singleton([-1.0]), mc.indicator_singleton([1.0])]
        )

    def test_alpha_matches_closed_form_exactly(self):
        gamma = 1.0
        T = solvers.fb_operator(self.fs(), self.g(), gamma)
        assert T.alpha == 2.0 / (4.0 - gamma * 1.0)

    def test_converges_to_nearer_point(self):
        trace = solvers.forward_backward(
            self.fs(), self.g(), 0.5, Schedule.constant(1.0),
            SelectionPolicy(), [-0.8], StopRule(),
        )
        np.testing.assert_allclose(trace.x_final, [-1.0])
        assert trace.meta["classification"].kind == "strong-fixed"
        assert trace.meta["local_min"]

    def test_zero_smooth_part_reduces_to_ppa(self):
        fzero = SmoothFn(value=lambda x: 0.0,
                         grad=lambda x: np.zeros_like(x), lipschitz=0.0)
        g = MinConvexFn([mc.indicator_box([-1.0], [1.0])])
        fb = solvers.forward_backward(
            fzero, g, 1.0, Schedule.constant(1.0), SelectionPolicy(),
            [3.0], StopRule(),
        )
        pp = solvers.ppa(g, 1.0, SelectionPolicy(), [3.0], StopRule())
        np.testing.assert_allclose(fb.x_final, pp.x_final)

    def test_gamma_out_of_range(self):
        with pytest.raises(ValueError, match=r"\(0, 2/L\)"):
            solvers.fb_operator(self.fs(), self.g(), 3.0)

    def test_single_convex_piece_reaches_global_min(self):
        # f = (x - 3)^2 / 2, g = |x|: global min of f + g at x = 2
        fs = SmoothFn(value=lambda x: 0.5 * float((x[0] - 3.0) ** 2),
                      grad=lambda x: x - 3.0, lipschitz=1.0)
        g = MinConvexFn([mc.scaled_l1(1.0)])
        trace = solvers.forward_backward(
            fs, g, 1.0, Schedule.constant(1.0), SelectionPolicy(),
            [0.0], StopRule(),
        )
        assert trace.status == "converged"
        np.testing.assert_allclose(trace.x_final, [2.0], atol=1e-8)


class TestDouglasRachford:
    def test_perpendicular_lines_one_step(self):
        f = MinConvexFn([mc.indicator_affine([[0.0, 1.0]], [0.0])])  # x-axis
        g = MinConvexFn([mc.indicator_affine([[1.0, 0.0]], [0.0])])  # y-axis
        trace = solvers.douglas_rachford(
            f, g, 1.0, Schedule.constant(1.0), SelectionPolicy(),
            [0.7, -0.4], StopRule(),
        )
        np.testing.assert_allclose(trace.iterates[1], [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(trace.meta["shadow"], [0.0, 0.0], atol=1e-12)

    def test_quadratic_plus_two_points_strong(self):
        f = MinConvexFn([mc.quadratic([[1.0]], [0.0])])
        g = MinConvexFn(
            [mc.indicator_singleton([-1.0]), mc.indicator_singleton([1.0])]
        )
        trace = solvers.douglas_rachford(
            f, g, 0.5, Schedule.constant(1.0), SelectionPolicy(),
            [1.2], StopRule(),
        )
        assert trace.status == "converged"
        np.testing.assert_allclose(trace.x_final, [1.5])
        np.testing.assert_allclose(trace.meta["shadow"], [1.0])
        assert trace.meta["classification"].kind == "strong-fixed"
        assert trace.meta["shadow_local_min"]
        assert "y" in trace.steps[0].extras and "z" in trace.steps[0].extras

    def test_identical_singletons(self):
        f = MinConvexFn([mc.indicator_singleton([1.0, 2.0])])
        trace = solvers.douglas_rachford(
            f, f, 1.0, Schedule.constant(1.0), SelectionPolicy(),
            [5.0, 5.0], StopRule(),
        )
        assert trace.status == "converged"
        np.testing.assert_allclose(trace.meta["shadow"], [1.0, 2.0])

    def test_bad_gamma(self):
        f = MinConvexFn([mc.scaled_l1(1.0)])
        with pytest.raises(ValueError):
            solvers.douglas_rachford(
                f, f, -1.0, Schedule.constant(1.0), SelectionPolicy(),
                [1.0], StopRule(),
            )

    def test_schedule_above_two_rejected(self):
        f = MinConvexFn([mc.scaled_l1(1.0)])
        with pytest.raises(ScheduleError):
            solvers.douglas_rachford(
                f, f, 1.0, Schedule.constant(2.5), SelectionPolicy(),
                [1.0], StopRule(),
            )


class TestDrsOperator:
    @staticmethod
    def relax_stack(f, g, gamma):
        """(Id + R_g R_f) / 2 spelled with the public combinators."""
        rf = relax(mc.prox_union(f, gamma), 2.0)
        rg = relax(mc.prox_union(g, gamma), 2.0)
        return relax(compose([rf, rg]), 0.5)

    def test_matches_relax_compose_stack(self):
        q = MinConvexFn([mc.quadratic([[1.0]], [0.0])])
        points = MinConvexFn(
            [mc.indicator_singleton([-1.0]), mc.indicator_singleton([1.0])]
        )
        two_quads = MinConvexFn([
            mc.quadratic([[1.0, 0.0], [0.0, 2.0]], [0.5, 0.0]),
            mc.quadratic([[2.0, 0.5], [0.5, 1.0]], [-1.0, 0.5], c=0.3),
        ])
        mixed = MinConvexFn([mc.scaled_l1(0.7), mc.indicator_ball([1.0, 1.0], 0.5),
                             mc.indicator_singleton([-1.0, 0.5])])
        rng = np.random.default_rng(11)
        # gamma = 1 on (q, points) makes every point a g-selector tie
        for f, g, gamma, dim in ((q, points, 0.5, 1), (q, points, 1.0, 1),
                                 (two_quads, mixed, 0.8, 2)):
            new, old = solvers.drs_operator(f, g, gamma), self.relax_stack(f, g, gamma)
            assert new.alpha == old.alpha
            assert set(new.pieces) == set(old.pieces)
            for x in rng.uniform(-3.0, 3.0, size=(40, dim)):
                assert new.selector(x) == old.selector(x)
                for k in new.pieces:
                    np.testing.assert_allclose(new.pieces[k](x), old.pieces[k](x),
                                               rtol=0.0, atol=1e-12)


def trace_key(trace):
    """What a trace records, with every array as its bytes and a
    classification as its kind."""
    def encode(v):
        if isinstance(v, np.ndarray):
            return v.tobytes()
        if isinstance(v, dict):
            return {k: encode(w) for k, w in v.items()}
        return getattr(v, "kind", v)

    return (trace.status, trace.x_final.tobytes(), encode(trace.meta),
            [(s.n, s.x.tobytes(), s.index, s.lam, s.step_norm, encode(s.extras))
             for s in trace.steps])


class TestPrebuiltOperator:
    """Each splitting driver runs the operator passed as its private
    ``_operator`` as it runs the one it builds itself."""

    GAMMA = 0.8
    f = MinConvexFn([mc.quadratic([[1.0, 0.0], [0.0, 2.0]], [0.5, 0.0]),
                     mc.quadratic([[2.0, 0.5], [0.5, 1.0]], [-1.0, 0.5], c=0.3)])
    g = MinConvexFn([mc.scaled_l1(0.7), mc.indicator_ball([1.0, 1.0], 0.5),
                     mc.indicator_singleton([-1.0, 0.5])])
    smooth = SmoothFn(value=lambda x: 0.5 * float(x @ x), grad=lambda x: x,
                      lipschitz=1.0)

    def driver(self, name):
        """The driver's run over (x0, **private) and its operator's build."""
        f, g, smooth, gamma = self.f, self.g, self.smooth, self.GAMMA
        lam, policy = Schedule.constant(1.0), SelectionPolicy("round-robin")
        stop = StopRule(max_iters=200)
        return {
            "ppa": (lambda x0, **kw: solvers.ppa(g, gamma, policy, x0, stop, **kw),
                    lambda: mc.prox_union(g, gamma)),
            "forward-backward": (
                lambda x0, **kw: solvers.forward_backward(
                    smooth, g, gamma, lam, policy, x0, stop, **kw),
                lambda: solvers.fb_operator(smooth, g, gamma)),
            "douglas-rachford": (
                lambda x0, **kw: solvers.douglas_rachford(
                    f, g, gamma, lam, policy, x0, stop, **kw),
                lambda: solvers.drs_operator(f, g, gamma)),
        }[name]

    @pytest.mark.parametrize("x0", [
        [0.3, -0.2],
        [[0.3, -0.2], [2.0, 1.0], [-1.5, 0.4], [0.0, 0.0]],
    ], ids=["one-start", "block"])
    @pytest.mark.parametrize("name", ["ppa", "forward-backward", "douglas-rachford"])
    def test_the_trace_is_that_of_the_driver_built_operator(self, name, x0):
        run, build = self.driver(name)
        built = run(x0)
        given = run(x0, _operator=build())
        if isinstance(built, list):
            assert [trace_key(t) for t in built] == [trace_key(t) for t in given]
        else:
            assert trace_key(built) == trace_key(given)

    def test_douglas_rachford_steps_through_its_operator(self, monkeypatch):
        T = solvers.drs_operator(self.f, self.g, self.GAMMA)
        calls = []
        step_rows = T._step_rows
        T._step_rows = lambda X: calls.append(len(X)) or step_rows(X)

        def refuse(*args):
            raise AssertionError("prox_union called")

        monkeypatch.setattr(mc, "prox_union", refuse)
        run, _ = self.driver("douglas-rachford")
        trace = run([0.3, -0.2], _operator=T)
        assert calls == [1] * len(trace.steps) and len(calls) > 1  # one row a step
        assert T.label == "drs"


class TestFejerProperties:
    def test_relaxed_descent_at_strong_fixed_point(self):
        T = mc.prox_union(two_singletons(), 1.0)
        xstar = np.array([0.0])
        lam = 0.8
        trace = solvers.iterate_union(
            T, Schedule.constant(lam), SelectionPolicy(), [0.7], StopRule()
        )
        it = trace.iterates
        for a, b in zip(it, it[1:]):
            lhs = np.linalg.norm(b - xstar) ** 2 \
                + (1 - lam) / lam * np.linalg.norm(a - b) ** 2
            assert lhs <= np.linalg.norm(a - xstar) ** 2 + 1e-10

    def test_divergence_guard(self):
        # mislabeled expanding map triggers the guard, not an infinite loop
        bad = from_map(AveragedMap(lambda x: 10.0 * x, alpha=1.0))
        trace = solvers.iterate_union(
            bad, Schedule.constant(0.5), SelectionPolicy(), [1.0],
            StopRule(max_iters=1000),
        )
        assert trace.status == "diverged-guard"
        assert len(trace.steps) < 1000


def reference_run(fn, lam: float, x0, stop: StopRule) -> tuple[str, int]:
    """Status and step count of the one-start iteration
    x+ = (1 - lam) x + lam fn(x) with a guard that takes ||x_(n+1)|| at
    every step, as the drivers' loop once did."""
    x = np.array(x0, dtype=float)
    guard = solvers.DIVERGENCE_FACTOR * (1.0 + projections.norm(x))
    for n in range(stop.max_iters):
        x_next = (1.0 - lam) * x + lam * fn(x)
        step, x = projections.norm(x_next - x), x_next
        if projections.norm(x) > guard:
            return "diverged-guard", n + 1
        if step <= stop.step_tol:
            return "converged", n + 1
    return "max-iters", stop.max_iters


def spiral(x):
    """3 R x with R the rotation by 2 pi / 3: each step is long against the
    norm it adds, so the running bound is loose."""
    c, s = np.cos(2.0 * np.pi / 3.0), np.sin(2.0 * np.pi / 3.0)
    return 3.0 * np.array([c * x[0] - s * x[1], s * x[0] + c * x[1]])


AT_GUARD = solvers.DIVERGENCE_FACTOR * 2.0  # the guard of the start [1.0]
PAST_GUARD = np.nextafter(AT_GUARD, np.inf)


class TestGuardTripsWhereItDid:
    """The divergence guard trips at the step where ||x_(n+1)|| first exceeds
    it, whether or not the loop takes that norm at every step: from the
    starts 0, e_1 and 1e150 e_1, alone and as a block, each map ends as the
    reference loop does, and as pinned here."""

    STOP = StopRule(max_iters=300)

    @pytest.mark.parametrize("fn, alpha, lam, dim, want", [
        # overstated averagedness: the maps expand
        (lambda x: 10.0 * x, 1.0, 0.5, 1,
         [("converged", 1), ("diverged-guard", 12), ("diverged-guard", 11)]),
        (spiral, 1.0, 0.5, 2,
         [("converged", 1), ("diverged-guard", 69), ("diverged-guard", 66)]),
        # from e_1 a step onto the guard stays, one ulp past it trips
        (lambda x: np.array([AT_GUARD]), 0.5, 1.0, 1,
         [("diverged-guard", 1), ("converged", 2), ("converged", 2)]),
        (lambda x: np.array([PAST_GUARD]), 0.5, 1.0, 1,
         [("diverged-guard", 1), ("diverged-guard", 1), ("converged", 2)]),
        # halfway steps creep up to the guard and stop on it
        (lambda x: np.array([AT_GUARD]), 0.5, 0.5, 1,
         [("diverged-guard", 2), ("converged", 55), ("max-iters", 300)]),
        (lambda x: np.array([PAST_GUARD]), 0.5, 0.5, 1,
         [("diverged-guard", 1), ("converged", 53), ("max-iters", 300)]),
    ], ids=["expanding", "spiral", "onto-guard", "past-guard", "creep-onto-guard",
            "creep-toward-past-guard"])
    def test_same_step_as_the_exact_guard(self, fn, alpha, lam, dim, want):
        T = from_map(AveragedMap(fn, alpha=alpha))
        starts = np.zeros((3, dim))
        starts[1:, 0] = [1.0, 1e150]
        assert [reference_run(fn, lam, x0, self.STOP) for x0 in starts] == want
        one = [solvers.iterate_union(T, Schedule.constant(lam), SelectionPolicy(),
                                     x0, self.STOP) for x0 in starts]
        block = solvers.iterate_union(T, Schedule.constant(lam), SelectionPolicy(),
                                      starts, self.STOP)
        for traces in (one, block):
            assert [(t.status, len(t.steps)) for t in traces] == want

    def test_nan_map_ends_as_before(self):
        def nan(x):
            return np.full_like(x, np.nan)

        T = from_map(AveragedMap(nan, alpha=0.5))
        for x0 in ([1.0, 2.0], [[1.0, 2.0], [0.0, 0.0]]):
            with pytest.raises(ValueError, match="vector entries must be finite"):
                solvers.iterate_union(T, Schedule.constant(1.0), SelectionPolicy(),
                                      x0, self.STOP)
            # km_admissible takes the maps' points unchecked: NaN to the end
            traces = solvers.km_admissible(
                [AveragedMap(nan, alpha=0.5)], ControlSequence.cyclic([0]),
                Schedule.constant(1.0), x0, StopRule(max_iters=20))
            for trace in traces if isinstance(traces, list) else [traces]:
                assert trace.status == "max-iters" and len(trace.steps) == 20
                assert all(np.isnan(s.step_norm) for s in trace.steps)

    def test_infinite_map_trips_at_once(self):
        for v in (np.inf, -np.inf):
            T = from_map(AveragedMap(lambda x, v=v: np.full_like(x, v), alpha=0.5))
            for x0 in ([1.0, 2.0], [[1.0, 2.0], [0.0, 0.0]]):
                traces = solvers.iterate_union(T, Schedule.constant(1.0),
                                               SelectionPolicy(), x0, self.STOP)
                for trace in traces if isinstance(traces, list) else [traces]:
                    assert trace.status == "diverged-guard"
                    assert len(trace.steps) == 1


def line_sets():
    return [sets.span_set(np.array([[1.0], [0.0]]))]


def smooth(lipschitz: float) -> SmoothFn:
    return SmoothFn(value=lambda x: 0.0, grad=lambda x: 0.0 * x, lipschitz=lipschitz)


#: refusals: (call, the message it raises)
REFUSALS = {
    "stop-rule-of-no-steps": (lambda: StopRule(max_iters=0),
                              "max_iters must be an integer of at least 1, got 0"),
    "stop-rule-of-negative-steps": (lambda: StopRule(max_iters=-3),
                                    "max_iters must be an integer of at least 1, got -3"),
    "stop-rule-of-bool-steps": (lambda: StopRule(max_iters=True),
                                "max_iters must be an integer of at least 1, got True"),
    "stop-rule-of-float-steps": (lambda: StopRule(max_iters=50.0),
                                 "max_iters must be an integer of at least 1, got 50.0"),
    # no step norm is within a NaN tolerance, so it would stop no run
    "stop-rule-nan-step-tol": (lambda: StopRule(step_tol=math.nan, max_iters=50),
                               "step_tol must be a nonnegative number, got nan"),
    "stop-rule-negative-step-tol": (lambda: StopRule(step_tol=-1.0, residual_tol=math.nan),
                                    "step_tol must be a nonnegative number, got -1.0"),
    "stop-rule-nan-residual-tol": (lambda: StopRule(residual_tol=math.nan),
                                   "residual_tol must be a nonnegative number, got nan"),
    "stop-rule-negative-residual-tol": (lambda: StopRule(residual_tol=-0.5),
                                        "residual_tol must be a nonnegative number, "
                                        "got -0.5"),
    "cyclic-dr-of-one-set": (lambda: solvers.cyclic_dr(line_sets(), [1.0, 1.0]),
                             "cyclic DR needs at least 2 sets"),
    "cadr-of-one-set": (lambda: solvers.cadr(line_sets(), [1.0, 1.0]),
                        "anchored DR needs at least 2 sets"),
    "fb-negative-lipschitz": (lambda: solvers.fb_operator(
        smooth(-1.0), MinConvexFn([mc.scaled_l1(1.0)]), 0.5),
        "Lipschitz constant must be a finite nonnegative number, got -1.0"),
    # a constant that is not finite is named, not the gamma it bounds
    "fb-nan-lipschitz": (lambda: solvers.fb_operator(
        smooth(math.nan), MinConvexFn([mc.scaled_l1(1.0)]), 0.5),
        "Lipschitz constant must be a finite nonnegative number, got nan"),
    "fb-inf-lipschitz": (lambda: solvers.fb_operator(
        smooth(math.inf), MinConvexFn([mc.scaled_l1(1.0)]), 0.5),
        "Lipschitz constant must be a finite nonnegative number, got inf"),
    "fb-minus-inf-lipschitz": (lambda: solvers.fb_operator(
        smooth(-math.inf), MinConvexFn([mc.scaled_l1(1.0)]), 0.5),
        "Lipschitz constant must be a finite nonnegative number, got -inf"),
    "fb-constant-gradient-gamma-zero": (lambda: solvers.fb_operator(
        smooth(0.0), MinConvexFn([mc.scaled_l1(1.0)]), 0.0),
        "gamma must be positive"),
    "fb-constant-gradient-gamma-negative": (lambda: solvers.fb_operator(
        smooth(0.0), MinConvexFn([mc.scaled_l1(1.0)]), -1.0),
        "gamma must be positive"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refused_inputs(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_stop_rule_takes_numpy_integers_and_infinite_tolerances():
    stop = StopRule(step_tol=math.inf, max_iters=np.int64(3), residual_tol=math.inf)
    assert stop.max_iters == 3 and stop.step_tol == math.inf
    # a cycle of two maps stops at step 1 at the earliest (_cycle_done)
    lines = line_sets() + [sets.span_set(np.array([[1.0], [1.0]]))]
    trace = solvers.cyclic_projections(lines, [1.0, 1.0], stop=stop)
    assert trace.status == "converged" and len(trace.steps) == 2
