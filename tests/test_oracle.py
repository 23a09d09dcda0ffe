"""Tests for the brute-force verification layer."""

import math
import warnings

import numpy as np
import pytest

from unionfix import minconvex as mc, oracle, sets
from unionfix.core_ops import AveragedMap, UnionMap, compose, from_map
from unionfix.minconvex import ConvexPiece, MinConvexFn
from unionfix.oracle import GridSpec


def two_singletons():
    return MinConvexFn(
        [mc.indicator_singleton([0.0]), mc.indicator_singleton([2.0])]
    )


class TestGridSpec:
    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            GridSpec(bounds=(((-1.0, 1.0),) * 4), points=5)

    def test_point_cap(self):
        with pytest.raises(ValueError):
            GridSpec(bounds=(((-1.0, 1.0),) * 3), points=500)

    def test_needs_ordered_bounds(self):
        with pytest.raises(ValueError):
            GridSpec(bounds=((1.0, -1.0),), points=11)

    @pytest.mark.parametrize("bounds", [
        (-math.inf, math.inf), (0.0, math.inf), (-math.inf, 0.0),
        (-1e308, 1e308),  # finite bounds whose width overflows
    ])
    def test_needs_finite_bounds_and_width(self, bounds):
        with pytest.raises(ValueError, match="axis 1"):
            GridSpec(bounds=((0.0, 1.0), bounds), points=5)

    def test_cell_diameter(self):
        grid = GridSpec(bounds=((0.0, 1.0), (0.0, 2.0)), points=11)
        assert grid.cell_diameter == pytest.approx(np.hypot(0.1, 0.2))

    def test_nodes_shape(self):
        grid = GridSpec(bounds=((0.0, 1.0), (0.0, 1.0)), points=5)
        assert grid.nodes().shape == (25, 2)


class TestBruteForceProx:
    @pytest.mark.parametrize("bounds, x", [
        (((-1e307, 1e307),), [0.0]),
        (((-1e200, 1e200),), [0.0]),
        (((-1.0, 1.0),), [1e300]),
        (((-1.0, 1.0), (-1e160, 1e160)), [0.0, 0.0]),
        (((-1e154, 1e154),), [1e154]),
        (((np.float64(-1e200), np.float64(1e200)),), [0.0]),
    ])
    def test_refuses_squared_distances_that_overflow(self, bounds, x):
        calls = []
        counted = ConvexPiece(value=lambda y: calls.append(y) or 0.0,
                              prox=lambda gamma, y: y,
                              value_many=lambda Y: calls.append(Y) or np.zeros(len(Y)))
        with pytest.raises(ValueError, match=r"x = \[.*\] is too far from the grid "
                                             r"bounds \(\("):
            oracle.brute_force_prox(MinConvexFn([counted]), 1.0, x, GridSpec(bounds, 5))
        assert calls == []  # refused before any piece runs

    def test_a_huge_grid_whose_squares_fit_runs_warning_free(self):
        # (1e154)^2 = 1e308 < 1.8e308; the suite makes RuntimeWarnings errors
        f = MinConvexFn([mc.quadratic([[1.0]], [0.0])])
        out = oracle.brute_force_prox(f, 1.0, [0.0], GridSpec(((-1e154, 1e154),), 5))
        assert [p.tolist() for p in out.points] == [[0.0]]
        assert out.tolerance == 5e153

    @pytest.mark.parametrize("Q, gamma", [([[4.0]], 1.0), ([[1.0]], 0.3)],
                             ids=["value-overflows", "value-plus-distance-overflows"])
    def test_refuses_a_grid_on_which_the_objective_overflows(self, Q, gamma):
        # the squared distances fit, as does their quotient by 2 gamma, but at
        # the corners y = +-1e154 the value 2 y^2 = 2e308 does not, nor does
        # the sum 0.5 y^2 + y^2 / 0.6 = 5e307 + 1.67e308 of two that fit
        f = MinConvexFn([mc.quadratic(Q, [0.0])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"the grid bounds \(\(-1e\+154, "
                                                 r"1e\+154\),\) are too wide for f"):
                oracle.brute_force_prox(f, gamma, [0.0], GridSpec(((-1e154, 1e154),), 5))

    @pytest.mark.parametrize("gamma", [1e-310, np.float64(1e-310), 5e-324])
    def test_refuses_a_gamma_whose_quotient_overflows(self, gamma):
        calls = []
        counted = ConvexPiece(value=lambda y: calls.append(y) or 0.0,
                              prox=lambda gamma, y: y,
                              value_many=lambda Y: calls.append(Y) or np.zeros(len(Y)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"gamma = .* is too small for "
                                                 r"x = \[0\.5\]"):
                oracle.brute_force_prox(MinConvexFn([counted]), gamma, [0.5],
                                        GridSpec(((-1.0, 1.0),), 5))
        assert calls == []  # refused before any piece runs

    @pytest.mark.parametrize("gamma", [1e-300, np.float64(1e-300)])
    def test_a_tiny_gamma_whose_quotients_fit_runs_warning_free(self, gamma):
        f = MinConvexFn([mc.quadratic(np.eye(1), [0.0])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = oracle.brute_force_prox(f, gamma, [0.5], GridSpec(((-1.0, 1.0),), 5))
        assert [p.tolist() for p in out.points] == [[0.5]]

    def test_symmetric_tie(self):
        grid = GridSpec(bounds=((-1.0, 3.0),), points=201)
        out = oracle.brute_force_prox(two_singletons(), 1.0, [1.0], grid)
        values = sorted(float(p[0]) for p in out.points)
        assert values == [0.0, 2.0]
        assert not out.boundary_artifact
        assert out.tolerance == grid.cell_diameter  # the default tol

    def test_quadratic_matches_analytic(self):
        f = MinConvexFn([mc.quadratic([[1.0]], [0.0])])  # x^2 / 2, prox x/2
        grid = GridSpec(bounds=((-4.0, 4.0),), points=801)
        out = oracle.brute_force_prox(f, 1.0, [3.0], grid)
        assert any(abs(float(p[0]) - 1.5) <= grid.cell_diameter
                   for p in out.points)

    def test_boundary_artifact_flagged(self):
        f = MinConvexFn([mc.quadratic([[1.0]], [0.0])])
        grid = GridSpec(bounds=((-1.0, 1.0),), points=21)
        out = oracle.brute_force_prox(f, 1.0, [10.0], grid, tol=0.0)
        assert out.boundary_artifact

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_negative_or_nan_tol_is_refused(self, tol):
        # such a tol would keep no grid point, though the grid has a minimum
        grid = GridSpec(bounds=((-1.0, 3.0),), points=21)
        with pytest.raises(ValueError, match="tol"):
            oracle.brute_force_prox(two_singletons(), 1.0, [1.0], grid, tol=tol)

    def test_grid_missing_domain_errors(self):
        f = MinConvexFn([mc.indicator_singleton([10.0])])
        grid = GridSpec(bounds=((-1.0, 1.0),), points=11)
        with pytest.raises(ValueError):
            oracle.brute_force_prox(f, 1.0, [0.0], grid)


class TestEstimateRadius:
    def test_single_piece_returns_delta_max(self):
        T = from_map(AveragedMap(lambda x: x / 2, alpha=0.5))
        est = oracle.estimate_radius(T, [0.0], delta_max=7.0)
        assert est.radius == 7.0
        assert est.hit_delta_max
        assert est.counterexample is None

    def test_two_singleton_prox_tie_at_one(self):
        T = mc.prox_union(two_singletons(), 1.0)
        est = oracle.estimate_radius(T, [0.0], delta_max=3.0, samples=2000)
        assert est.radius == pytest.approx(1.0, abs=0.05)
        assert est.counterexample is not None

    def test_sparsity_projector_tie_locus(self):
        P = sets.project_union(sets.sparsity_set(2, 1))
        est = oracle.estimate_radius(P, [1.0, 0.0], delta_max=2.0, samples=2000)
        assert est.radius == pytest.approx(2 ** -0.5, abs=0.05)

    def test_monotone_in_sample_count(self):
        T = mc.prox_union(two_singletons(), 1.0)
        radii = [
            oracle.estimate_radius(T, [0.0], delta_max=3.0, samples=n).radius
            for n in (50, 200, 800)
        ]
        assert radii == sorted(radii, reverse=True)

    @pytest.mark.parametrize("name, value", [
        ("delta_max", 0.0), ("delta_max", -1.0), ("delta_max", math.nan),
        ("delta_max", math.inf), ("delta_max", -math.inf),
        ("samples", 0), ("samples", -3), ("samples", 2.0), ("samples", 2.5),
        ("samples", True), ("bisect_iters", -1), ("bisect_iters", 1.5),
    ])
    def test_bad_arguments_are_refused_before_selecting(self, name, value):
        calls = []
        T = UnionMap({0: AveragedMap(lambda x: x / 2, alpha=0.5)},
                     lambda x: calls.append(x) or [0], alpha=0.5)
        kwargs = {"delta_max": 3.0, "samples": 50, "bisect_iters": 4, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be"):
            oracle.estimate_radius(T, [0.0], **kwargs)
        assert calls == []

    def test_no_bisection_steps(self):
        T = mc.prox_union(two_singletons(), 1.0)
        est = oracle.estimate_radius(T, [0.0], delta_max=3.0, bisect_iters=0)
        assert (est.radius, est.hit_delta_max) == (0.0, False)
        assert est.counterexample is not None

    def test_deterministic(self):
        P = sets.project_union(sets.sparsity_set(2, 1))
        a = oracle.estimate_radius(P, [1.0, 0.0], delta_max=2.0, seed=4)
        b = oracle.estimate_radius(P, [1.0, 0.0], delta_max=2.0, seed=4)
        assert a.radius == b.radius


class TestSampleInequality:
    def region(self, dim):
        return ([-3.0] * dim, [3.0] * dim)

    def test_projector_half_averaged(self):
        P = sets.project_union(sets.sparsity_set(2, 1))
        rep = oracle.sample_inequality(P, 0.5, self.region(2), pairs=2000)
        assert rep.max_violation <= 1e-10

    def test_composition_two_thirds(self):
        P1 = sets.project_union(sets.span_set(np.array([[1.0], [0.0]])))
        P2 = sets.project_union(sets.span_set(np.array([[1.0], [1.0]])))
        c = compose([P1, P2])
        assert c.alpha == pytest.approx(2.0 / 3.0)
        rep = oracle.sample_inequality(c, c.alpha, self.region(2), pairs=2000)
        assert rep.max_violation <= 1e-10

    def test_doubling_map_reports_violation(self):
        T = from_map(AveragedMap(lambda x: 2.0 * x, alpha=1.0))
        rep = oracle.sample_inequality(T, 0.5, self.region(1), pairs=100)
        # expanding the inequality for T = 2 Id: the image term contributes
        # 3 |x - y|^2 over the bound and the residual term another |x - y|^2
        x, y = rep.worst_pair
        assert rep.max_violation == pytest.approx(
            4.0 * float(np.dot(x - y, x - y))
        )
        assert rep.max_violation > 0

    def test_refuses_evaluation_blowup_before_building(self, monkeypatch):
        built = []
        cls = sets.ConvexSetPiece
        monkeypatch.setattr(sets, "ConvexSetPiece",
                            lambda *a, **k: built.append(cls) or cls(*a, **k))
        huge = sets.project_union(sets.sparsity_set(1000, 10))  # > sys.maxsize
        with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
            oracle.sample_inequality(huge, 0.5, self.region(1000), pairs=1)
        P = sets.project_union(sets.sparsity_set(12, 6))  # 924 pieces
        pairs = oracle.MAX_GRID_POINTS // 924 + 1
        with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
            oracle.sample_inequality(P, 0.5, self.region(12), pairs=pairs)
        assert built == []

    def test_deterministic_given_seed(self):
        P = sets.project_union(sets.sparsity_set(2, 1))
        a = oracle.sample_inequality(P, 0.5, self.region(2), 500, seed=9)
        b = oracle.sample_inequality(P, 0.5, self.region(2), 500, seed=9)
        assert a.max_violation == b.max_violation


class TestVerifyFixedClassification:
    def test_sparsity_strong_fixed(self):
        P = sets.project_union(sets.sparsity_set(2, 1))
        rep = oracle.verify_fixed_classification(P, [1.0, 0.0])
        assert rep.kind == "strong-fixed"
        assert rep.singleton and rep.consistent

    def test_tie_point_not_fixed(self):
        P = sets.project_union(sets.sparsity_set(2, 1))
        rep = oracle.verify_fixed_classification(P, [1.0, 1.0])
        assert rep.kind == "not-fixed"
        assert not rep.singleton
        assert rep.consistent

    def test_origin_strong_fixed(self):
        P = sets.project_union(sets.sparsity_set(2, 1))
        rep = oracle.verify_fixed_classification(P, [0.0, 0.0])
        assert rep.kind == "strong-fixed"
        assert rep.witnesses == [(0,), (1,)]

    def test_fixed_but_not_strong(self):
        # piece 0 fixes every x, piece 1 does not, both always active
        from unionfix.core_ops import UnionMap, identity_map
        pieces = {0: identity_map(),
                  1: AveragedMap(lambda x: x + 1.0, alpha=1.0)}
        both = UnionMap(pieces, lambda x: [0, 1], alpha=1.0)
        rep = oracle.verify_fixed_classification(both, [0.5])
        assert rep.kind == "fixed"
        assert rep.witnesses == [0]
        assert not rep.singleton
        assert rep.consistent


def quadratic_fn():
    return MinConvexFn([mc.quadratic(np.eye(1), [0.0])])


#: refusals: (call, the message it raises)
REFUSALS = {
    "grid-of-two-points": (lambda: GridSpec(((-1.0, 1.0),), 2),
                           "need at least 3 points per axis"),
    "prox-gamma-zero": (lambda: oracle.brute_force_prox(
        quadratic_fn(), 0.0, [0.5], GridSpec(((-1.0, 1.0),), 5)),
        "gamma must be positive"),
    "prox-gamma-negative": (lambda: oracle.brute_force_prox(
        quadratic_fn(), -1.0, [0.5], GridSpec(((-1.0, 1.0),), 5)),
        "gamma must be positive"),
    "prox-grid-of-another-dimension": (lambda: oracle.brute_force_prox(
        quadratic_fn(), 1.0, [0.5, 0.5], GridSpec(((-1.0, 1.0),), 5)),
        "grid dimension must match x"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refused_inputs(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("base, first", [({0}, None), (set(), 0)])
def test_a_raising_block_rule_is_rescanned_row_by_row(base, first):
    # the map's batched form raises, so the block is scanned with the
    # public selector, which finds every row's selection in {0}
    def refuse(X):
        raise RuntimeError("no batched form here")

    T = from_map(AveragedMap(lambda x: x / 2.0, alpha=0.5, many=refuse))
    X = np.array([[0.5], [-1.0], [2.0]])
    with pytest.raises(RuntimeError):
        T._rule_rows(X)
    assert oracle._first_outside(T, X, base) == first
