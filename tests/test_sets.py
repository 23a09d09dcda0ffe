"""Tests for union-convex sets, projectors, reflectors, and the two-set
Douglas-Rachford operator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unionfix import sets
from unionfix.core_ops import check_averaged


def axes_union():
    x_axis = sets.span_set(np.array([[1.0], [0.0]]), label="x-axis")
    y_axis = sets.span_set(np.array([[0.0], [1.0]]), label="y-axis")
    return sets.union_of_sets([x_axis, y_axis])


class TestProjectUnion:
    def test_nearer_axis_wins(self):
        P = sets.project_union(axes_union())
        np.testing.assert_allclose(P.evaluate_points([1.0, 2.0]), [[0.0, 2.0]])

    def test_tie_returns_both(self):
        P = sets.project_union(axes_union())
        np.testing.assert_allclose(
            P.evaluate_points([1.0, 1.0]), [[1.0, 0.0], [0.0, 1.0]]
        )

    def test_singleton_fixes_its_point(self):
        P = sets.project_union(sets.singleton_set([2.0, -1.0]))
        np.testing.assert_allclose(P.evaluate_points([2.0, -1.0]), [[2.0, -1.0]])

    def test_firmly_nonexpansive(self):
        P = sets.project_union(axes_union())
        rng = np.random.default_rng(1)
        pairs = list(zip(rng.normal(size=(500, 2)), rng.normal(size=(500, 2))))
        assert check_averaged(P, 0.5, pairs).passed(1e-9)


class TestSparsitySet:
    def test_largest_magnitude_support(self):
        P = sets.project_union(sets.sparsity_set(3, 1))
        np.testing.assert_allclose(
            P.evaluate_points([3.0, 1.0, 2.0]), [[3.0, 0.0, 0.0]]
        )

    def test_tie(self):
        P = sets.project_union(sets.sparsity_set(2, 1))
        np.testing.assert_allclose(
            P.evaluate_points([1.0, 1.0]), [[1.0, 0.0], [0.0, 1.0]]
        )

    def test_origin_all_active_single_point(self):
        C = sets.sparsity_set(2, 1)
        assert C.active([0.0, 0.0]) == [(0,), (1,)]
        P = sets.project_union(C)
        np.testing.assert_allclose(P.evaluate_points([0.0, 0.0]), [[0.0, 0.0]])

    def test_level_out_of_range(self):
        with pytest.raises(ValueError):
            sets.sparsity_set(3, 3)
        with pytest.raises(ValueError):
            sets.sparsity_set(3, -1)

    @pytest.mark.parametrize("s", [1, 2])
    def test_magnitude_selector_agrees_with_distance_rule(self, s):
        C = sets.sparsity_set(5, s)
        generic = sets.UnionConvexSet(C.pieces)  # distance-rule selector
        rng = np.random.default_rng(7)
        for x in rng.normal(size=(10_000, 5)):
            assert set(C.active(x)) == set(generic.active(x))


class TestReflectUnion:
    def test_across_x_axis(self):
        R = sets.reflect_union(sets.span_set(np.array([[1.0], [0.0]])))
        np.testing.assert_allclose(R.evaluate_points([1.0, 2.0]), [[1.0, -2.0]])
        assert R.alpha == 1.0

    def test_through_origin(self):
        R = sets.reflect_union(sets.singleton_set([0.0]))
        np.testing.assert_allclose(R.evaluate_points([3.0]), [[-3.0]])

    def test_tie_gives_both_reflections(self):
        R = sets.reflect_union(axes_union())
        np.testing.assert_allclose(
            R.evaluate_points([1.0, 1.0]), [[1.0, -1.0], [-1.0, 1.0]]
        )

    def test_nonexpansive(self):
        R = sets.reflect_union(axes_union())
        rng = np.random.default_rng(2)
        pairs = list(zip(rng.normal(size=(500, 2)), rng.normal(size=(500, 2))))
        assert check_averaged(R, 1.0, pairs).passed(1e-9)


class TestDrOperator:
    def test_perpendicular_lines_map_to_origin(self):
        x_axis = sets.span_set(np.array([[1.0], [0.0]]))
        y_axis = sets.span_set(np.array([[0.0], [1.0]]))
        T = sets.dr_operator(x_axis, y_axis)
        rng = np.random.default_rng(3)
        for x in rng.normal(size=(20, 2)):
            np.testing.assert_allclose(T.evaluate_points(x), [[0.0, 0.0]],
                                       atol=1e-12)

    def test_same_full_line_is_identity(self):
        line = sets.span_set(np.array([[1.0]]))
        T = sets.dr_operator(line, line)
        np.testing.assert_allclose(T.evaluate_points([0.7]), [[0.7]])

    def test_hand_evaluation_with_union_piece(self):
        A = sets.union_of_sets(
            [sets.singleton_set([0.0]), sets.singleton_set([2.0])]
        )
        B = sets.singleton_set([1.0])
        T = sets.dr_operator(A, B)
        # x=0.5: a=0 (nearer), b=1, x + b - a = 1.5
        np.testing.assert_allclose(T.evaluate_points([0.5]), [[1.5]])

    def test_matches_projector_enumeration(self):
        cases = [
            (axes_union(), sets.ball_set([2.0, 0.0], 0.5)),
            # a union on both sides, with ties on the diagonal
            (sets.union_of_sets([sets.singleton_set([1.0, 1.0]),
                                 sets.singleton_set([-1.0, -1.0])]),
             axes_union()),
        ]
        rng = np.random.default_rng(4)
        points = np.vstack([rng.normal(size=(50, 2)), [[0.0, 0.0], [0.5, 0.5]]])
        for A, B in cases:
            T = sets.dr_operator(A, B)
            PA, PB = sets.project_union(A), sets.project_union(B)
            for x in points:
                expected = []
                for _, a in PA.evaluate(x):
                    for _, b in PB.evaluate(2 * a - x):
                        expected.append(x + b - a)
                got = [v for _, v in T.evaluate(x)]
                assert len(got) == len(expected)
                for g, e in zip(got, expected):
                    np.testing.assert_allclose(g, e, atol=1e-12)

    def test_half_averaged(self):
        T = sets.dr_operator(axes_union(), sets.ball_set([0.0, 0.0], 1.0))
        rng = np.random.default_rng(5)
        pairs = list(zip(rng.normal(size=(300, 2)), rng.normal(size=(300, 2))))
        assert check_averaged(T, 0.5, pairs).passed(1e-9)


class TestConvexPieceGeometry:
    @pytest.mark.parametrize("make", [
        lambda: sets.box_set([-1.0, 0.0], [1.0, 2.0]),
        lambda: sets.ball_set([1.0, 1.0], 1.5),
        lambda: sets.halfspace_set([1.0, -1.0], 0.5),
        lambda: sets.affine_set([[1.0, 2.0]], [3.0]),
    ])
    def test_projection_idempotent_and_distance_consistent(self, make):
        C = make()
        (piece,) = C.pieces.values()
        rng = np.random.default_rng(6)
        for x in rng.normal(size=(100, 2)) * 3:
            p = piece.project(x)
            np.testing.assert_allclose(piece.project(p), p, atol=1e-12)
            assert piece.distance(x) == pytest.approx(
                float(np.linalg.norm(x - p)), abs=1e-12
            )

    def test_projection_is_nearest_in_set(self):
        C = sets.ball_set([0.0, 0.0], 1.0)
        (piece,) = C.pieces.values()
        rng = np.random.default_rng(8)
        x = np.array([2.0, 1.0])
        p = piece.project(x)
        # variational inequality <x - p, c - p> <= 0 for members c
        for _ in range(200):
            c = rng.normal(size=2)
            c = c / max(np.linalg.norm(c), 1.0)
            assert float(np.dot(x - p, c - p)) <= 1e-10

    def test_inconsistent_affine_system_rejected(self):
        with pytest.raises(ValueError):
            sets.affine_set([[1.0, 0.0], [1.0, 0.0]], [0.0, 1.0])


class TestMembership:
    def test_contains(self):
        C = sets.sparsity_set(3, 1)
        assert C.contains([0.0, 5.0, 0.0])
        assert not C.contains([1.0, 1.0, 0.0])

    def test_distance(self):
        C = sets.union_of_sets(
            [sets.singleton_set([0.0]), sets.singleton_set([4.0])]
        )
        assert C.distance([1.0]) == pytest.approx(1.0)
        assert C.distance([3.0]) == pytest.approx(1.0)


@given(st.integers(min_value=0, max_value=99))
@settings(max_examples=100, deadline=None)
def test_sparsity_projection_keeps_largest_entries(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=4)
    P = sets.project_union(sets.sparsity_set(4, 2))
    top = np.sort(np.abs(x))[-2:].sum()
    for p in P.evaluate_points(x):
        assert np.abs(p).sum() == pytest.approx(top, abs=1e-12)
        assert np.count_nonzero(p) <= 2
