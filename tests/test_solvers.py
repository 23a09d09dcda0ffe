"""Tests for the iteration drivers: schedules, control, policies, solvers."""

import numpy as np
import pytest

from unionfix import minconvex as mc, sets, solvers
from unionfix.core_ops import AveragedMap, compose, from_map, identity_map, relax
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
        assert len(trace.meta["subsampled"]) >= 1

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
