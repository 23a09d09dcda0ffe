"""Tests for min-convex functions: values, envelopes, prox, classification,
local-minimum test."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unionfix import minconvex as mc, solvers
from unionfix.core_ops import check_averaged
from unionfix.minconvex import MinConvexFn
from unionfix.oracle import verify_fixed_classification


def two_singletons():
    return MinConvexFn(
        [mc.indicator_singleton([0.0]), mc.indicator_singleton([2.0])],
        label="two-singletons",
    )


def two_quadratics():
    # min(x^2, (x-2)^2) = min(x^2, x^2 - 4x + 4)
    return MinConvexFn(
        [mc.quadratic([[2.0]], [0.0]), mc.quadratic([[2.0]], [-4.0], c=4.0)],
        label="two-quadratics",
    )


class TestValue:
    def test_singleton_member(self):
        assert mc.value(two_singletons(), [0.0]) == 0.0

    def test_quadratic_tie(self):
        assert mc.value(two_quadratics(), [1.0]) == pytest.approx(1.0)

    def test_outside_all_domains(self):
        assert mc.value(two_singletons(), [1.0]) == math.inf


class TestEnvelope:
    def test_quadratic_at_min(self):
        assert mc.envelope(two_quadratics(), 1.0, [0.0]) == pytest.approx(0.0)

    def test_singleton_is_half_squared_distance(self):
        f = MinConvexFn([mc.indicator_singleton([3.0])])
        x = 1.0
        assert mc.envelope(f, 2.0, [x]) == pytest.approx((3.0 - x) ** 2 / 4.0)

    def test_tie_point(self):
        assert mc.envelope(two_singletons(), 1.0, [1.0]) == pytest.approx(0.5)

    def test_minorizes_value(self):
        f = two_quadratics()
        rng = np.random.default_rng(3)
        for x in rng.uniform(-4, 4, size=50):
            assert mc.envelope(f, 1.0, [x]) <= mc.value(f, [x]) + 1e-12

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ValueError):
            mc.envelope(two_singletons(), 0.0, [1.0])

    @pytest.mark.parametrize("gamma", [-0.5, 0.0])
    def test_piece_envelope_rejects_nonpositive_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            mc.piece_envelope(mc.quadratic([[1.0]], [0.0]), gamma, [1.0])


class TestActiveSelector:
    def test_symmetric_tie(self):
        assert mc.active_selector(two_singletons(), 1.0, [1.0]) == [0, 1]

    def test_envelope_comparison(self):
        assert mc.active_selector(two_singletons(), 1.0, [0.9]) == [0]

    def test_single_piece(self):
        f = MinConvexFn([mc.scaled_l1(1.0)])
        assert mc.active_selector(f, 1.0, [5.0]) == [0]


class TestProxUnion:
    def test_tie_evaluates_to_both_points(self):
        T = mc.prox_union(two_singletons(), 1.0)
        np.testing.assert_allclose(T.evaluate_points([1.0]), [[0.0], [2.0]])

    def test_off_tie_single_point(self):
        T = mc.prox_union(two_singletons(), 1.0)
        np.testing.assert_allclose(T.evaluate_points([0.9]), [[0.0]])

    def test_two_quadratics_tie(self):
        T = mc.prox_union(two_quadratics(), 1.0)
        np.testing.assert_allclose(
            T.evaluate_points([1.0]), [[1.0 / 3.0], [5.0 / 3.0]]
        )

    def test_firmly_nonexpansive(self):
        T = mc.prox_union(two_quadratics(), 1.0)
        rng = np.random.default_rng(0)
        pairs = list(zip(rng.normal(size=(300, 1)), rng.normal(size=(300, 1))))
        assert check_averaged(T, 0.5, pairs).passed(1e-9)


class TestProxCallbackOutput:
    """A piece whose prox returns a non-finite point is an error wherever
    its prox is read, whichever position the piece holds."""

    @pytest.mark.parametrize("nan_first", [True, False], ids=["first", "last"])
    def test_non_finite_prox_raises(self, nan_first):
        nan_piece = mc.ConvexPiece(value=lambda x: 0.0,
                                   prox=lambda gamma, x: np.full_like(x, np.nan),
                                   label="nan")
        pieces = [nan_piece, mc.indicator_singleton([1.0])]
        f = MinConvexFn(pieces if nan_first else pieces[::-1])
        x = np.array([0.3])
        calls = {
            "active_selector": lambda: mc.active_selector(f, 1.0, x),
            "envelope": lambda: mc.envelope(f, 1.0, x),
            "selector": lambda: mc.prox_union(f, 1.0).selector(x),
            "evaluate": lambda: mc.prox_union(f, 1.0).evaluate(x),
            "ppa": lambda: solvers.ppa(f, 1.0, solvers.SelectionPolicy(), x,
                                       solvers.StopRule()),
        }
        for name, call in calls.items():
            with pytest.raises(ValueError, match="finite"):
                call()
                pytest.fail(name)


class TestClassifyPoint:
    """Fixed-point classification of x against prox_{gamma f}, read off
    oracle.verify_fixed_classification, with the envelope gap
    envelope(x) - f(x) (zero exactly at fixed points)."""

    @staticmethod
    def classify(f, x):
        return verify_fixed_classification(mc.prox_union(f, 1.0), x)

    @staticmethod
    def gap(f, x):
        return mc.envelope(f, 1.0, x) - mc.value(f, x)

    def test_strong_fixed(self):
        c = self.classify(two_singletons(), [0.0])
        assert c.kind == "strong-fixed"
        assert self.gap(two_singletons(), [0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_tie_point_not_fixed(self):
        assert self.classify(two_singletons(), [1.0]).kind == "not-fixed"

    def test_quadratic_tie_not_fixed(self):
        c = self.classify(two_quadratics(), [1.0])
        assert c.kind == "not-fixed"
        assert list(c.residuals) == [0, 1]

    def test_envelope_gap_zero_iff_fixed(self):
        f = two_quadratics()
        fixed = self.classify(f, [0.0])
        moving = self.classify(f, [0.7])
        assert fixed.is_fixed and abs(self.gap(f, [0.0])) <= 1e-12
        assert not moving.is_fixed and self.gap(f, [0.7]) < -1e-3


class TestIsLocalMin:
    def test_isolated_feasible_point(self):
        assert mc.is_local_min(two_singletons(), [2.0])

    def test_quadratic_min(self):
        assert mc.is_local_min(two_quadratics(), [0.0])

    def test_quadratic_tie_is_not(self):
        assert not mc.is_local_min(two_quadratics(), [1.0])

    @pytest.mark.parametrize("tol", [-1.0, math.nan])
    def test_negative_or_nan_tol_is_refused(self, tol):
        # such a tol would tie no piece, and all([]) would answer True at
        # a point that is not a minimum
        with pytest.raises(ValueError, match="tol"):
            mc.is_local_min(two_quadratics(), [1.0], tol=tol)

    def test_infinite_value_rejected(self):
        with pytest.raises(ValueError):
            mc.is_local_min(two_singletons(), [1.0])

    def test_forward_point(self):
        # h(x) = (x - 3)^2 / 2 plus f = |x|: the minimum of h + f is x = 2,
        # tested through the forward point w = x - gamma h'(x)
        f = MinConvexFn([mc.scaled_l1(1.0)])
        gamma = 0.5
        for x, expected in ((2.0, True), (1.0, False)):
            w = [x - gamma * (x - 3.0)]
            assert mc.is_local_min(f, [x], w=w, gamma=gamma) is expected


class TestValueCount:
    """Each point's piece values are computed once."""

    def counted(self, f, calls):
        return MinConvexFn([dataclasses.replace(
            p, value=lambda x, value=p.value: calls.append(1) or value(x))
            for p in f.pieces])

    def test_is_local_min(self):
        calls = []
        assert mc.is_local_min(self.counted(two_quadratics(), calls), [0.0])
        assert len(calls) == 2


class TestCatalog:
    def test_singleton_label_shows_python_floats(self):
        assert mc.indicator_singleton([1.0]).label == "ind(1.0,)"
        assert mc.indicator_singleton([1.0, -2.5]).label == "ind(1.0, -2.5)"

    def test_quadratic_prox_optimality(self):
        Q = np.array([[2.0, 0.5], [0.5, 1.0]])
        b = np.array([1.0, -2.0])
        piece = mc.quadratic(Q, b)
        x = np.array([0.3, -0.7])
        gamma = 0.8
        p = piece.prox(gamma, x)
        # first-order optimality: p + gamma (Qp + b) = x
        np.testing.assert_allclose(p + gamma * (Q @ p + b), x, atol=1e-12)

    @pytest.mark.parametrize("Q, b", [
        ([[-1.0]], [0.0]),
        ([[1.0, 2.0], [0.0, 1.0]], [0.0, 0.0]),
        ([[1.0, 2.0], [2.0, 1.0]], [0.0, 0.0]),
        ([[1.0, 0.0], [0.0, math.nan]], [0.0, 0.0]),
        ([[1.0]], [0.0, 0.0]),
    ], ids=["negative", "non-symmetric", "indefinite", "nan", "wrong-shape"])
    def test_quadratic_rejects_bad_Q(self, Q, b):
        with pytest.raises(ValueError, match="Q must be"):
            mc.quadratic(Q, b)

    def test_quadratic_accepts_rounded_psd(self):
        # the generators of the benchmark's ppa quadratics and of criterion 1
        rng = np.random.default_rng(0)
        for _ in range(100):
            U = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            mc.quadratic(U @ np.diag(rng.uniform(0.5, 2.0, size=3)) @ U.T, np.zeros(3))
            A = rng.normal(size=(3, 3))
            mc.quadratic(A @ A.T + 0.1 * np.eye(3), np.zeros(3))
        mc.quadratic([[1.0, 1.0], [1.0, 1.0]], [0.0, 0.0])  # singular PSD
        mc.quadratic([[0.0]], [1.0])

    def test_quadratic_constant_shifts_value_not_prox(self):
        plain = mc.quadratic([[2.0]], [0.0])
        shifted = mc.quadratic([[2.0]], [0.0], c=5.0)
        x = np.array([1.3])
        assert shifted.value(x) == pytest.approx(plain.value(x) + 5.0)
        np.testing.assert_allclose(shifted.prox(1.0, x), plain.prox(1.0, x))

    def test_l1_soft_threshold(self):
        piece = mc.scaled_l1(0.5)
        np.testing.assert_allclose(
            piece.prox(1.0, np.array([2.0, -0.3, 0.6])), [1.5, 0.0, 0.1]
        )

    def test_l2_block_threshold(self):
        piece = mc.scaled_l2(1.0)
        np.testing.assert_allclose(piece.prox(1.0, np.array([0.6, 0.8])), [0, 0])
        np.testing.assert_allclose(
            piece.prox(1.0, np.array([3.0, 4.0])), [2.4, 3.2]
        )

    def test_indicator_box(self):
        piece = mc.indicator_box([-1.0, -1.0], [1.0, 1.0])
        assert piece.value(np.array([0.5, -0.5])) == 0.0
        assert piece.value(np.array([2.0, 0.0])) == math.inf
        np.testing.assert_allclose(
            piece.prox(1.0, np.array([2.0, 0.0])), [1.0, 0.0]
        )

    def test_indicator_ball_rejects_negative_radius(self):
        with pytest.raises(ValueError, match="radius"):
            mc.indicator_ball([0.0, 0.0], -1.0)
        assert mc.indicator_ball([0.0, 0.0], 0.0).value(np.zeros(2)) == 0.0

    def test_indicator_affine(self):
        piece = mc.indicator_affine([[1.0, 1.0]], [2.0])
        p = piece.prox(1.0, np.array([0.0, 0.0]))
        np.testing.assert_allclose(p, [1.0, 1.0])


@given(
    st.floats(min_value=-10, max_value=10),
    st.floats(min_value=0.1, max_value=5.0),
)
@settings(max_examples=300, deadline=None)
def test_envelope_is_min_of_piece_envelopes(x, gamma):
    f = two_quadratics()
    envs = [mc.piece_envelope(p, gamma, [x]) for p in f.pieces]
    assert mc.envelope(f, gamma, [x]) == pytest.approx(min(envs), abs=1e-12)


@given(st.floats(min_value=-10, max_value=10))
@settings(max_examples=300, deadline=None)
def test_prox_satisfies_envelope_inequality(x):
    # value(prox) + dist^2/(2 gamma) <= value(y) + |x-y|^2/(2 gamma) for probes y
    piece = mc.scaled_l1(1.0)
    gamma = 1.0
    xv = np.array([x])
    p = piece.prox(gamma, xv)
    lhs = piece.value(p) + float(np.dot(xv - p, xv - p)) / (2 * gamma)
    for y in np.linspace(x - 3, x + 3, 25):
        yv = np.array([y])
        rhs = piece.value(yv) + float(np.dot(xv - yv, xv - yv)) / (2 * gamma)
        assert lhs <= rhs + 1e-10
