"""Tests for the operator algebra: averaged maps, union maps, combinators."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unionfix import minconvex as mc, oracle, sets, solvers
from unionfix.core_ops import (
    AveragedMap,
    DimensionMismatchError,
    EmptySelectionError,
    LazyPieces,
    UnionMap,
    as_vector,
    check_averaged,
    combination_alpha,
    compose,
    composition_alpha,
    convex_combination,
    dr_map,
    from_map,
    identity_map,
    relax,
    union_of,
)


def proj_x_axis():
    return from_map(
        AveragedMap(lambda x: np.array([x[0], 0.0]), alpha=0.5, label="Px"), dim=2
    )


def proj_y_axis():
    return from_map(
        AveragedMap(lambda x: np.array([0.0, x[1]]), alpha=0.5, label="Py"), dim=2
    )


def two_halves():
    """Two-piece map {x/2, -x/2}, selector by sign of the first coordinate."""
    pieces = {
        0: AveragedMap(lambda x: x / 2.0, alpha=0.5),
        1: AveragedMap(lambda x: -x / 2.0, alpha=1.0),
    }
    return UnionMap(pieces, lambda x: [0] if x[0] >= 0 else [1], alpha=1.0)


class TestAsVector:
    def test_scalar_promotes(self):
        assert as_vector(3.0).shape == (1,)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_vector([1.0, np.nan])

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            as_vector([[1.0, 2.0]])


class TestEvaluate:
    def test_identity(self):
        T = from_map(identity_map())
        assert T.evaluate([1.0, 2.0]) == [(0, pytest.approx([1.0, 2.0]))]

    def test_sign_selector(self):
        T = two_halves()
        [(i, v)] = T.evaluate([-2.0])
        assert i == 1
        np.testing.assert_allclose(v, [1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            proj_x_axis().evaluate([1.0, 2.0, 3.0])

    def test_empty_selector_rejected(self):
        T = UnionMap({0: identity_map()}, lambda x: [], alpha=1.0)
        with pytest.raises(EmptySelectionError):
            T.evaluate([1.0])

    def test_unknown_index_rejected(self):
        T = UnionMap({0: identity_map()}, lambda x: [7], alpha=1.0)
        with pytest.raises(KeyError):
            T.evaluate([1.0])

    def test_repeat_calls_bit_identical(self):
        T = two_halves()
        a = T.evaluate([0.3])
        b = T.evaluate([0.3])
        assert a[0][0] == b[0][0]
        assert np.array_equal(a[0][1], b[0][1])

    def test_dedup(self):
        pieces = {0: identity_map(), 1: identity_map()}
        T = UnionMap(pieces, lambda x: [0, 1], alpha=1.0)
        assert len(T.evaluate_points([1.0])) == 1
        assert len(T.evaluate([1.0])) == 2


class TestUnionOf:
    def test_alpha_is_max(self):
        a = from_map(AveragedMap(lambda x: x / 2, alpha=0.5))
        b = from_map(AveragedMap(lambda x: x / 3, alpha=1.0 / 3.0))
        assert union_of([a, b]).alpha == 0.5

    def test_self_union_same_points(self):
        T = two_halves()
        u = union_of([T, T])
        np.testing.assert_allclose(
            u.evaluate_points([2.0]), T.evaluate_points([2.0])
        )

    def test_axis_projectors(self):
        u = union_of([proj_x_axis(), proj_y_axis()])
        points = u.evaluate_points([1.0, 2.0])
        np.testing.assert_allclose(points, [[1.0, 0.0], [0.0, 2.0]])


class TestConvexCombination:
    def test_alpha_formula(self):
        a = from_map(AveragedMap(lambda x: x, alpha=0.5))
        b = from_map(AveragedMap(lambda x: x, alpha=1.0 / 3.0))
        T = convex_combination([a, b], [0.25, 0.75])
        assert T.alpha == pytest.approx(3.0 / 8.0, abs=1e-15)

    def test_equal_alphas(self):
        assert combination_alpha([0.5, 0.5], [0.5, 0.5]) == 0.5

    def test_degrades_to_nonexpansive(self):
        assert combination_alpha([0.5, 1.0], [0.5, 0.5]) == 1.0

    def test_midpoint_of_id_and_zero(self):
        zero = from_map(AveragedMap(lambda x: 0.0 * x, alpha=0.5))
        T = convex_combination([from_map(identity_map()), zero], [0.5, 0.5])
        np.testing.assert_allclose(T.evaluate_points([2.0, 4.0]), [[1.0, 2.0]])

    def test_bad_weights(self):
        maps = [from_map(identity_map()), from_map(identity_map())]
        with pytest.raises(ValueError):
            convex_combination(maps, [0.5, 0.6])
        with pytest.raises(ValueError):
            convex_combination(maps, [1.5, -0.5])


class TestCompose:
    def test_alpha_two_halves(self):
        assert composition_alpha([0.5, 0.5]) == pytest.approx(2.0 / 3.0, abs=1e-16)

    def test_degrades_to_nonexpansive(self):
        assert composition_alpha([0.5, 1.0]) == 1.0

    def test_identity_neutral(self):
        T = two_halves()
        c = compose([from_map(identity_map()), T])
        np.testing.assert_allclose(
            c.evaluate_points([3.0]), T.evaluate_points([3.0])
        )

    def test_axis_projector_chain(self):
        c = compose([proj_x_axis(), proj_y_axis()])
        np.testing.assert_allclose(c.evaluate_points([3.0, 5.0]), [[0.0, 0.0]])

    def test_selector_chains_through_intermediates(self):
        # second factor's selector must be probed at T1(x), not at x
        T1 = from_map(AveragedMap(lambda x: -x, alpha=1.0))
        T2 = two_halves()
        c = compose([T1, T2])
        [(idx, v)] = c.evaluate([-2.0])
        assert idx == (0, 0)  # T1 flips sign, so piece 0 of T2 is active
        np.testing.assert_allclose(v, [1.0])


class TestRelax:
    def test_lambda_one_is_identity_transform(self):
        T = two_halves()
        r = relax(T, 1.0)
        np.testing.assert_allclose(
            r.evaluate_points([2.0]), T.evaluate_points([2.0])
        )

    def test_reflector(self):
        P = proj_x_axis()
        R = relax(P, 2.0)
        assert R.alpha == 1.0
        np.testing.assert_allclose(R.evaluate_points([1.0, 2.0]), [[1.0, -2.0]])

    def test_half_relaxed_zero_map(self):
        zero = from_map(AveragedMap(lambda x: 0.0 * x, alpha=0.5))
        r = relax(zero, 0.5)
        np.testing.assert_allclose(r.evaluate_points([4.0]), [[2.0]])
        assert r.alpha == 0.25

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            relax(proj_x_axis(), 2.5)
        with pytest.raises(ValueError):
            relax(proj_x_axis(), 0.0)


class TestDrMap:
    def test_needs_half_averaged_inputs(self):
        P = proj_x_axis()
        assert dr_map(P, P).alpha == 0.5
        with pytest.raises(ValueError, match="1/2-averaged"):
            dr_map(P, relax(P, 2.0))

class TestCheckAveraged:
    def pairs(self, dim=2, count=200, seed=0):
        rng = np.random.default_rng(seed)
        return list(zip(rng.normal(size=(count, dim)),
                        rng.normal(size=(count, dim))))

    def test_identity_zero_violation(self):
        rep = check_averaged(from_map(identity_map()), 0.9, self.pairs())
        assert rep.max_violation <= 0.0

    def test_projector_firmly_nonexpansive(self):
        rep = check_averaged(proj_x_axis(), 0.5, self.pairs())
        assert rep.passed(1e-10)

    def test_doubling_map_violates(self):
        T = from_map(AveragedMap(lambda x: 2.0 * x, alpha=1.0))
        rep = check_averaged(T, 0.5, self.pairs())
        assert rep.max_violation > 0.1
        assert not rep.passed()

    def test_composite_passes_with_computed_alpha(self):
        c = compose([proj_x_axis(), proj_y_axis()])
        rep = check_averaged(c, c.alpha, self.pairs(count=500))
        assert rep.passed(1e-9)

    def test_combination_passes_with_computed_alpha(self):
        c = convex_combination([proj_x_axis(), proj_y_axis()], [0.25, 0.75])
        rep = check_averaged(c, c.alpha, self.pairs(count=500))
        assert rep.passed(1e-9)

    def test_pieces_enumerated_once(self):
        enumerations = []

        def keys():
            enumerations.append(1)
            return iter(range(3))

        pieces = LazyPieces(
            lambda i: AveragedMap(lambda x: x / (i + 2.0), alpha=0.5),
            lambda i: i in (0, 1, 2), keys, 3)
        T = UnionMap(pieces, lambda x: [0], alpha=0.5)
        rep = check_averaged(T, 0.5, self.pairs(count=20))
        assert enumerations == [1]
        assert rep.pairs_checked == 20 and set(rep.per_piece) == {0, 1, 2}
        assert rep.passed(1e-12)


@given(
    st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=1, max_size=5)
)
@settings(max_examples=200, deadline=None)
def test_composition_alpha_matches_closed_form(alphas):
    s = sum(a / (1.0 - a) for a in alphas)
    expected = 1.0 / (1.0 + 1.0 / s)
    assert abs(composition_alpha(alphas) - expected) <= 1e-15


@given(
    st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=2, max_size=4),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=200, deadline=None)
def test_combination_alpha_is_convex_mean(alphas, seed):
    rng = np.random.default_rng(seed)
    w = rng.random(len(alphas)) + 0.1
    w /= w.sum()
    got = combination_alpha(alphas, w)
    assert min(alphas) - 1e-12 <= got <= max(alphas) + 1e-12
    assert abs(got - float(np.dot(w, alphas))) <= 1e-15


@given(st.floats(min_value=-50, max_value=50), st.floats(min_value=-50, max_value=50))
@settings(max_examples=300, deadline=None)
def test_two_halves_selector_is_osc_away_from_boundary(x0, x1):
    # away from the switching locus, nearby points keep the same selection
    T = two_halves()
    x = np.array([x0 if abs(x0) > 1e-3 else 1.0, x1])
    base = set(T.selector(x))
    for d in (-1e-4, 1e-4):
        assert set(T.selector(x + np.array([d * abs(x[0]), 0.0]))) <= base


# ---------------------------------------------------------------------------
# The tolerance contract: every selection tolerance is a nonnegative number,
# refused with ValueError where it enters, before a piece is built or a
# piece is evaluated.
# ---------------------------------------------------------------------------

def counted_quadratics(calls):
    """min(x^2, (x-2)^2) in one dimension, recording every piece call."""

    def counted(q):
        return dataclasses.replace(
            q, value=lambda x: calls.append("value") or q.value(x),
            prox=lambda gamma, x: calls.append("prox") or q.prox(gamma, x),
            value_many=None, prox_many=None)

    return mc.MinConvexFn([counted(mc.quadratic([[2.0]], [0.0])),
                           counted(mc.quadratic([[2.0]], [-4.0], c=4.0))])


X4 = [0.3, -1.2, 2.0, 0.1]
STOP = solvers.StopRule(max_iters=5)
SMOOTH = solvers.SmoothFn(value=lambda x: 0.5 * float(x @ x), grad=lambda x: x,
                          lipschitz=1.0)

#: entry point -> (the tolerance's name, call(C, f, tol)), with C a
#: sparsity set and f a min-convex function whose piece calls are recorded
TOL_ENTRY_POINTS = {
    "project_union": ("tie_tol", lambda C, f, tol: sets.project_union(C, tol)),
    "reflect_union": ("tie_tol", lambda C, f, tol: sets.reflect_union(C, tol)),
    "dr_operator": ("tie_tol", lambda C, f, tol: sets.dr_operator(C, C, tol)),
    "active": ("tie_tol", lambda C, f, tol: C.active(X4, tol)),
    "cyclic_projections": ("tie_tol", lambda C, f, tol: solvers.cyclic_projections(
        [C, sets.affine_set([[1.0, 1.0, 1.0, 1.0]], [1.0])], X4, STOP,
        tie_tol=tol)),
    "prox_union": ("tie_tol", lambda C, f, tol: mc.prox_union(f, 1.0, tol)),
    "fb_operator": ("tie_tol", lambda C, f, tol: solvers.fb_operator(
        SMOOTH, f, 1.0, tol)),
    "drs_operator": ("tie_tol", lambda C, f, tol: solvers.drs_operator(
        f, f, 1.0, tol)),
    "active_selector": ("tie_tol", lambda C, f, tol: mc.active_selector(
        f, 1.0, [0.5], tol)),
    "ppa": ("tie_tol", lambda C, f, tol: solvers.ppa(
        f, 1.0, solvers.SelectionPolicy(), [0.5], STOP, tie_tol=tol)),
    "is_local_min": ("tol", lambda C, f, tol: mc.is_local_min(f, [1.0], tol=tol)),
    "brute_force_prox": ("tol", lambda C, f, tol: oracle.brute_force_prox(
        f, 1.0, [1.0], oracle.GridSpec(((-1.0, 3.0),), 9), tol=tol)),
}


@pytest.mark.parametrize("tol", [-1e-300, -1.0, -math.inf, math.nan],
                         ids=["-1e-300", "-1", "-inf", "nan"])
@pytest.mark.parametrize("entry", sorted(TOL_ENTRY_POINTS))
def test_negative_and_nan_tolerances_are_refused_where_they_enter(entry, tol):
    name, call = TOL_ENTRY_POINTS[entry]
    C, calls = sets.sparsity_set(4, 2), []
    with pytest.raises(ValueError, match=f"^{name} must be a nonnegative number"):
        call(C, counted_quadratics(calls), tol)
    assert C.pieces._built == {} and calls == []


@pytest.mark.parametrize("tol", [0.0, 1e-10, 0.25, math.inf])
@pytest.mark.parametrize("entry", sorted(TOL_ENTRY_POINTS))
def test_nonnegative_tolerances_are_taken(entry, tol):
    _, call = TOL_ENTRY_POINTS[entry]
    call(sets.sparsity_set(4, 2), counted_quadratics([]), tol)
