"""Tests for the operator algebra: averaged maps, union maps, combinators."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unionfix import minconvex as mc, oracle, sets, solvers
from unionfix.projections import (
    RepeatedRows,
    orthonormal_basis,
    project_span,
    project_span_many,
)
from unionfix.core_ops import (
    AveragedMap,
    AveragednessReport,
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


class TestCheckIterates:
    """The drivers' check of their own iterates takes one sum of squares and
    scans the entries only when that sum is not finite."""

    T = from_map(identity_map(), dim=2)

    @pytest.mark.parametrize("x", [[1e200, 0.0], [1e200, -1e200], [1e308, -1e308],
                                   [-0.0, 5e-324]])
    def test_finite_points_pass_even_when_their_squares_overflow(self, x):
        x = np.array(x)
        assert self.T._check_iterates(x) is x
        X = np.stack([x, [1.0, 2.0], x])
        assert self.T._check_iterates(X) is X

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("other", [0.0, 1e200])
    def test_nonfinite_entries_raise_as_evaluate_does(self, bad, other):
        x = np.array([other, bad])
        errors = []
        for call in (lambda: self.T._check_iterates(x),
                     lambda: self.T._check_iterates(np.stack([[1.0, 2.0], x])),
                     lambda: self.T.evaluate(x)):
            with pytest.raises(ValueError) as err:
                call()
            errors.append(str(err.value))
        assert errors == ["vector entries must be finite"] * 3

    def test_dimension_is_checked_after_finiteness(self):
        with pytest.raises(DimensionMismatchError):
            self.T._check_iterates(np.array([1e200, 0.0, 1e200]))
        with pytest.raises(ValueError, match="finite"):
            self.T._check_iterates(np.array([1e200, 0.0, math.nan]))


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

#: finite floats, with signed zeros, subnormals and the largest float
#: (whose double overflows) drawn often
EDGE_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
     -1.7976931348623157e308, 1e308])


@given(st.lists(st.tuples(EDGE_FLOATS, EDGE_FLOATS), min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_doubling_reflects_as_two_times(pairs):
    # dr_map reflects through a + a - x: doubling is exact, so these are
    # the bits of 2.0 * a - x, overflow to inf and signed zeros included
    A, X = np.array(pairs, dtype=float).T
    with np.errstate(over="ignore"):
        assert (A + A - X).tobytes() == (2.0 * A - X).tobytes()
        for a, x in zip(A, X):
            assert (a + a - x).tobytes() == (2.0 * a - x).tobytes()


@given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
                min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_dr_map_steps_are_the_reflection_formula(points):
    # the three reflection sites (_dr_step_rows, on the block and on each
    # row as T._steps, a piece's fn and many) against
    # x + P_B(2 P_A(x) - x) - P_A(x) written out
    lines = [sets.span_set(np.array([[1.0], [0.0]])), sets.span_set(np.array([[0.0], [1.0]]))]
    PA = sets.project_union(sets.union_of_sets(lines))
    PB = sets.project_union(sets.union_of_sets(
        [sets.span_set(np.array([[1.0], [1.0]])), sets.ball_set([2.0, -1.0], 0.5)]))
    T = dr_map(PA, PB)
    X = np.array(points, dtype=float)
    want = [((i, j), a, b) for x in X for i, a in PA._pairs(x)
            for j, b in PB._pairs(2.0 * a - x)]
    got = [step for x in X for step in T._steps(x)]
    rows, keys, A, B = T._step_rows(X)
    assert [k for k, _, _ in want] == [k for k, _, _ in got] == keys
    for (_, a, b), (_, a2, b2), a3, b3 in zip(want, got, A, B):
        assert a.tobytes() == a2.tobytes() == a3.tobytes()
        assert b.tobytes() == b2.tobytes() == b3.tobytes()
    for (i, j) in {k for k, _, _ in want}:
        pa, pb = PA.pieces[i], PB.pieces[j]
        formula = np.stack([x + pb(2.0 * pa(x) - x) - pa(x) for x in X])
        piece = T.pieces[i, j]
        assert np.stack([piece(x) for x in X]).tobytes() == formula.tobytes()
        assert piece.rows(X).tobytes() == formula.tobytes()


@given(st.integers(1, 12), st.integers(0, 12), st.integers(1, 5),
       st.integers(0, 2**32 - 1), st.sampled_from([1e-300, 1.0, 1e150]))
@settings(max_examples=150, deadline=None)
def test_project_span_is_its_batched_rows(dim, k, count, seed, scale):
    # the scalar form's ndarray.dot and the batched np.matvec round alike
    rng = np.random.default_rng(seed)
    basis = (orthonormal_basis(rng.standard_normal((dim, min(k, dim)))) if k
             else np.zeros((dim, 0)))
    offset = rng.standard_normal(dim) * rng.choice([0.0, 1.0, 1e5])
    X = scale * rng.standard_normal((count, dim))
    for off in (offset, None):
        rows = project_span_many(basis, X, RepeatedRows(
            np.zeros(dim) if off is None else off))
        for x, row in zip(X, rows):
            assert project_span(basis, x, off).tobytes() == row.tobytes()


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

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_a_pair_whose_squared_distance_overflows(self, alpha):
        # ||x - y||^2 and ||Tx - Ty||^2 overflow; P moves neither pair
        # difference by more than 1, so the violation is 0, and no warning
        x, y = [1e200, 1.0], [-1e200, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_averaged(sets.project_union(sets.span_set([[1], [0]])), alpha,
                                 [(x, y)])
        assert rep.max_violation == 0.0 and rep.per_piece == {0: 0.0}
        assert [p.tolist() for p in rep.worst_pair] == [x, y]

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_a_pair_whose_difference_overflows(self, alpha):
        # x - y overflows entrywise: the pair is taken at the scale of its
        # largest entry, where P moves neither difference, so the violation
        # is 0, with no warning, also with a near pair after it in one block
        far, near = ([1e308, 0.0], [-1e308, 0.0]), ([3.0, 1.0], [-1.0, 2.0])
        T = sets.project_union(sets.span_set([[1], [0]]))
        for pairs in ([far], [far, near]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rep = check_averaged(T, alpha, pairs)
            assert rep.max_violation == 0.0 and rep.per_piece == {0: 0.0}
            assert [p.tolist() for p in rep.worst_pair] == list(far)
            assert rep.pairs_checked == len(pairs)

    @pytest.mark.parametrize("alpha, want", [
        # one unit in the last place of ||Tx - Ty|| at the scale 1.5e308
        (1.0, -1.5e308 * 2.0 ** -52),
        # a rotation is not 1/2-averaged, and its violation here passes the
        # largest float
        (0.5, math.inf),
    ])
    def test_a_pair_whose_norms_overflow(self, alpha, want):
        # x - y is finite, but ||x - y|| and Tx - Ty overflow
        x, y = ROTATION_PAIR
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_averaged(rotation(), alpha, [(x, y)])
        assert rep.max_violation == want and rep.per_piece == {0: want}
        assert [p.tolist() for p in rep.worst_pair] == [x, y]

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_a_block_is_its_pairs_checked_alone(self, alpha):
        # near, far and NaN pairs in one block: each pair's violations are
        # bit for bit those it has alone, and the report keeps the first
        # maximum in pair-major, piece-minor order
        nan_at_seven = AveragedMap(
            lambda x: np.full_like(x, np.nan) if x[0] == 7.0 else x / 2, alpha=0.5)
        T = union_of([rotation(), sets.project_union(sets.span_set([[1], [0]])),
                      from_map(nan_at_seven)])
        pairs = [([3.0, 1.0], [-1.0, 2.0]),         # near
                 ([1e308, 0.0], [-1e308, 0.0]),     # x - y overflows
                 ([1e200, 1.0], [-1e200, 0.0]),     # ||x - y||^2 overflows
                 ROTATION_PAIR,                     # ||x - y|| overflows
                 ([7.0, 0.0], [1.0, 1.0])]          # a NaN violation
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alone = [check_averaged(T, alpha, [pair]).per_piece for pair in pairs]
            rep = check_averaged(T, alpha, pairs)
        best, worst, per_piece = -math.inf, None, dict.fromkeys(T.pieces, -math.inf)
        for pair, violations in zip(pairs, alone):
            for i, v in violations.items():
                if v > per_piece[i]:
                    per_piece[i] = v
                if v > best:
                    best, worst = v, (i, pair)
        assert {i: v.hex() for i, v in rep.per_piece.items()} == {
            i: v.hex() for i, v in per_piece.items()}
        assert rep.max_violation.hex() == best.hex()
        assert (rep.worst_piece, [p.tolist() for p in rep.worst_pair]) == (
            worst[0], list(worst[1]))
        assert alone[4][(2, 0)] == -math.inf  # NaN never wins


#: a pair whose difference is finite but whose norm, and the difference of
#: its images under :func:`rotation`, overflow
ROTATION_PAIR = ([1.5e308, 0.0], [0.0, -1.5e308])


def rotation():
    """The rotation by 45 degrees, with a batched form."""
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    R = np.array([[c, -s], [s, c]])
    return from_map(AveragedMap(lambda x: R @ x, alpha=1.0, many=lambda X: X @ R.T))


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
AFFINE4 = sets.affine_set([[1.0, 1.0, 1.0, 1.0]], [1.0])
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
        [C, AFFINE4], X4, STOP, tie_tol=tol)),
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
    "verify_fixed_classification": ("tol", lambda C, f, tol:
                                    oracle.verify_fixed_classification(
                                        sets.project_union(C), X4, tol)),
    "set-contains": ("tol", lambda C, f, tol: C.contains(X4, tol)),
    "piece-contains": ("tol", lambda C, f, tol: list(
        sets.ball_set([0.0] * 4, 1.0).pieces.values())[0].contains(X4, tol)),
    "indicator": ("membership_tol", lambda C, f, tol: mc.indicator(
        lambda x: x, membership_tol=tol)),
    "cyclic_projections-membership": ("membership_tol", lambda C, f, tol:
                                      solvers.cyclic_projections(
                                          [C, AFFINE4], X4, STOP,
                                          membership_tol=tol)),
    "cadr-membership": ("membership_tol", lambda C, f, tol: solvers.cadr(
        [C, AFFINE4], X4, STOP, membership_tol=tol)),
    "ppa-local-min": ("local_min_tol", lambda C, f, tol: solvers.ppa(
        f, 1.0, solvers.SelectionPolicy(), [0.5], STOP, local_min_tol=tol)),
    "forward_backward-local-min": ("local_min_tol", lambda C, f, tol:
                                   solvers.forward_backward(
                                       SMOOTH, f, 1.0, solvers.Schedule.constant(1.0),
                                       solvers.SelectionPolicy(), [0.5], STOP,
                                       local_min_tol=tol)),
    "douglas_rachford-local-min": ("local_min_tol", lambda C, f, tol:
                                   solvers.douglas_rachford(
                                       f, f, 1.0, solvers.Schedule.constant(1.0),
                                       solvers.SelectionPolicy(), [0.5], STOP,
                                       local_min_tol=tol)),
    # a report whose worst violation is -0.5, below every tolerance
    "report-passed": ("tol", lambda C, f, tol: AveragednessReport(
        alpha=0.5, max_violation=-0.5, worst_piece=0, worst_pair=None,
        pairs_checked=1).passed(tol)),
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


def half_map():
    return from_map(AveragedMap(lambda x: x / 2.0, alpha=0.5))


#: constructor refusals: (call, the message it raises)
REFUSALS = {
    "union-map-of-no-pieces": (lambda: UnionMap({}, lambda x: [0], alpha=0.5),
                               "a union map needs at least one piece"),
    "union-of-no-maps": (lambda: union_of([]), "union_of needs at least one map"),
    "compose-of-no-maps": (lambda: compose([]), "compose needs at least one map"),
    "combination-of-fewer-weights": (
        lambda: convex_combination([half_map(), half_map()], [1.0]),
        "maps and weights must be nonempty and equal length"),
    "combination-of-more-weights": (
        lambda: convex_combination([half_map()], [0.5, 0.5]),
        "maps and weights must be nonempty and equal length"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_empty_and_mismatched_inputs_are_refused(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_scalar_pairs_are_one_vectors():
    # a block of scalars is read as 1-vectors, as as_vector reads a scalar
    scalars = [(1.0, 0.0), (0.5, -0.5), (-2.0, 3.0)]
    vectors = [([x], [y]) for x, y in scalars]
    got, want = (check_averaged(half_map(), 0.5, pairs) for pairs in (scalars, vectors))
    assert repr(got) == repr(want) and got.pairs_checked == 3
