"""Tests for union-convex sets, projectors, reflectors, and the two-set
Douglas-Rachford operator."""

import itertools
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unionfix import cli, core_ops, minconvex, oracle, projections, sets, solvers
from unionfix.core_ops import (
    DEFAULT_TIE_TOL,
    EmptySelectionError,
    _near_min,
    check_averaged,
    compose,
    piece_count,
)


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


def scan_magnitude_selector(x, s, tie_tol):
    """Reference: the C(n, s) scan of the magnitude rule, in
    itertools.combinations order."""
    mags = np.abs(np.asarray(x, dtype=float))
    n = mags.size
    out = []
    for sup in itertools.combinations(range(n), s):
        inside = min((mags[i] for i in sup), default=np.inf)
        outside = max((mags[i] for i in range(n) if i not in sup), default=0.0)
        if inside >= outside - tie_tol:
            out.append(sup)
    return out


def tie_heavy_points(n, tie_tol, count, seed):
    """Signed points whose magnitudes repeat, vanish, or differ by tie_tol/2
    or 2 tie_tol."""
    rng = np.random.default_rng(seed)
    offsets = (0.0, tie_tol / 2, -tie_tol / 2, 2 * tie_tol, -2 * tie_tol)
    values = sorted({max(level + o, 0.0) for level in (0.0, 0.5, 1.0) for o in offsets})
    for _ in range(count):
        mags = rng.choice(rng.choice(values, size=3), size=n)
        yield rng.choice([-1.0, 1.0], size=n) * mags


class TestTopSSelector:
    @pytest.mark.parametrize("tie_tol", [0.0, DEFAULT_TIE_TOL, 0.25])
    def test_equals_scan_for_every_s_up_to_n_10(self, tie_tol):
        multi = 0
        for n in range(1, 11):
            points = list(tie_heavy_points(n, tie_tol, 60, seed=n))
            points += list(np.random.default_rng(n).normal(size=(5, n)))
            for s in range(n):
                C = sets.sparsity_set(n, s)
                for x in points:
                    got = C.active(x, tie_tol)
                    assert got == scan_magnitude_selector(x, s, tie_tol), (n, s, x)
                    multi += len(got) > 1
        assert multi > 1000  # the inputs do exercise ties

    def test_distance_is_min_over_all_pieces(self):
        for n, s in ((6, 2), (8, 3)):
            C = sets.sparsity_set(n, s)
            points = list(tie_heavy_points(n, DEFAULT_TIE_TOL, 40, seed=11))
            points += list(np.random.default_rng(12).normal(size=(40, n)))
            for x in points:
                assert C.distance(x) == min(p.distance(x) for p in C.pieces.values())

    # the fast path returns the top-s support alone when
    # m_(s+1) < m_s - tie_tol; every other point takes the band scan

    @pytest.mark.parametrize("tie_tol", [0.0, 0.25])
    def test_gap_boundary(self, tie_tol):
        # m_s - m_(s+1) is exactly tie_tol, and one ulp either side of it,
        # moving m_s or m_(s+1), for s = 2 of n = 4
        counts = set()
        for kth in (1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)):
            edge = kth - tie_tol
            for nxt in (edge, np.nextafter(edge, 0.0), np.nextafter(edge, 2.0)):
                for signs in ((1, 1, 1, 1), (-1, 1, -1, 1)):
                    x = np.array(signs) * np.array([2.0, kth, nxt, 0.1])
                    got = sets.sparsity_set(4, 2).active(x, tie_tol)
                    assert got == scan_magnitude_selector(x, 2, tie_tol), (kth, nxt)
                    _, m3, m2, _ = sorted(np.abs(x))
                    assert len(got) == (1 if m3 < m2 - tie_tol else 2), (kth, nxt)
                    counts.add(len(got))
        assert counts == {1, 2}

    def test_exact_ties_at_zero_tolerance(self):
        for n in (1, 2, 4, 6):
            for x in ([1.0] * n, [0.0] * n, [-1.0, 1.0] * (n // 2) or [1.0],
                      ([0.5, -1.0, 0.5, 2.0, -2.0, 0.5])[:n]):
                for s in (0, n - 1):
                    got = sets.sparsity_set(n, s).active(x, 0.0)
                    assert got == scan_magnitude_selector(x, s, 0.0), (n, s, x)
                    if s == 0:
                        assert got == [()]
        # s = n - 1 with a tie for the smallest magnitude: two supports
        assert sets.sparsity_set(4, 3).active([0.5, -1.0, -0.5, 2.0], 0.0) == [
            (0, 1, 3), (1, 2, 3)]

    def test_signed_zeros(self):
        x = np.array([-0.0, 0.0, 3.0, -0.0, -1.5])
        for s in range(5):
            C = sets.sparsity_set(5, s)
            for tie_tol in (0.0, DEFAULT_TIE_TOL):
                assert C.active(x, tie_tol) == scan_magnitude_selector(x, s, tie_tol)
            for sup, p in sets.project_union(C, 0.0).evaluate(x):
                assert p.tobytes() == projections.project_support(sup, x).tobytes()
        # the fast path keeps -1.5 and zeros out -0.0 as +0.0
        [(sup, p)] = sets.project_union(sets.sparsity_set(5, 2)).evaluate(x)
        assert sup == (2, 4)
        assert p.tobytes() == np.array([0.0, 0.0, 3.0, 0.0, -1.5]).tobytes()

    def test_agrees_with_the_distance_scan(self):
        for n, s in ((5, 1), (6, 3), (8, 2)):
            C = sets.sparsity_set(n, s)
            scan = sets.UnionConvexSet(C.pieces)  # distance rule over C(n, s)
            for x in np.random.default_rng(n + s).normal(size=(200, n)):
                got = C.active(x)
                assert got == scan.active(x) == scan_magnitude_selector(
                    x, s, DEFAULT_TIE_TOL)
                assert len(got) == 1

    def test_builds_only_the_tied_supports(self):
        # a point the gap test decides builds no piece; at a tie the band
        # scan builds the tied supports alone
        C = sets.sparsity_set(1000, 10)
        x = np.random.default_rng(3).normal(size=1000)
        order = np.argsort(np.abs(x))
        top = tuple(sorted(order[-10:].tolist()))
        [(sup, p)] = sets.project_union(C).evaluate(x)
        assert sup == top and not C.pieces._built
        assert p.tobytes() == projections.project_support(top, x).tobytes()
        assert C.active(x) == [top] and not C.pieces._built
        x[order[-11]] = x[order[-10]]  # the 10th and 11th largest tie
        tied = C.active(x)
        assert len(tied) == 2 and list(C.pieces._built) == tied

    @staticmethod
    def rule_points(rng, n: int) -> list:
        """Points for the rule: generic ones, magnitude ties (signed, at
        zero and within the default tie_tol) and -0.0 entries."""
        points = list(rng.normal(size=(12, n)))
        for _ in range(12):
            x = rng.choice([-1.0, 1.0], size=n) * rng.choice([0.0, 0.5, 2.0], size=n)
            x[rng.random(n) < 0.2] = -0.0
            points.append(x)
        near = 1.0 + rng.choice([0.0, 1e-11, -1e-11, 1e-3], size=n)
        points += [near, -near, np.zeros(n), np.full(n, -0.0), np.ones(n)]
        return points

    def test_rule_is_the_selector_then_the_pieces_projections(self):
        # the selector is the reference scan, the projections the pieces'
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 5, 8):
            for s in sorted({0, 1, n // 2, n - 1} & set(range(n))):
                C = sets.sparsity_set(n, s)
                for x in self.rule_points(rng, n):
                    for tie_tol in (0.0, DEFAULT_TIE_TOL, 0.25):
                        got = C._nearest(x, tie_tol)
                        want = [(sup, C.pieces[sup].project(x))
                                for sup in scan_magnitude_selector(x, s, tie_tol)]
                        assert [k for k, _ in got] == [k for k, _ in want], (x, s)
                        for (_, p), (_, q) in zip(got, want):
                            assert p.dtype == q.dtype and p.tobytes() == q.tobytes()

    @pytest.mark.parametrize("tie_tol", [0.0, DEFAULT_TIE_TOL, 0.25])
    def test_band_scan_equals_the_scan_on_every_point(self, tie_tol):
        # the band scan alone, on points the fast path takes too
        rng = np.random.default_rng(13)
        for n in range(1, 9):
            points = list(tie_heavy_points(n, tie_tol, 40, seed=n))
            points += self.rule_points(rng, n)
            for s in range(n):
                for x in points:
                    mags = np.abs(x).tolist()
                    ranked = sorted(mags)
                    kth = ranked[n - s] if s else math.inf
                    got = sets._band_supports(mags, ranked, kth, s, tie_tol)
                    assert got == scan_magnitude_selector(x, s, tie_tol), (n, s, x)

    def test_rule_refuses_points_of_another_length(self):
        C = sets.sparsity_set(8, 2)
        for x in (np.arange(10.0), np.arange(6.0)):
            with pytest.raises(IndexError):
                C._nearest(x, DEFAULT_TIE_TOL)


def one_piece_set(project, label="one"):
    return sets.UnionConvexSet(
        {0: sets.ConvexSetPiece(project, label, np.zeros(2))}, label=label)


class TestOneCandidateRule:
    """A one-piece set skips the distance: the lone pair is kept exactly
    when the old comparison v <= v + tie_tol kept it."""

    def test_equals_the_distance_comparison(self):
        x = np.array([0.5, -1.0])
        for p in ([0.5, -1.0], [3.0, 4.0], [math.inf, 0.0], [-math.inf, math.inf],
                  [math.nan, 0.0], [1e308, -1e308]):
            pairs = [(0, np.array(p))]
            S = one_piece_set(lambda x: pairs[0][1])
            for tie_tol in (0.0, DEFAULT_TIE_TOL, 1.0, math.inf):
                with np.errstate(over="ignore"):  # the norm of 1e308 entries
                    dist = float(np.linalg.norm(x - pairs[0][1]))
                got = S._nearest(x, tie_tol)
                assert got == _near_min(pairs, [dist], tie_tol), (p, tie_tol)

    def test_nan_anywhere_empties_the_selection(self):
        x = np.array([0.5, -1.0])
        for p in ([math.nan, 0.0], [0.0, math.nan], [math.inf, math.nan],
                  [1e200, math.nan], [-math.inf, math.nan], [math.nan, math.nan]):
            S = one_piece_set(lambda x, p=p: np.array(p))
            assert S._nearest(x, DEFAULT_TIE_TOL) == [], p
        for p in ([math.inf, 0.0], [-math.inf, math.inf], [1e200, -1e200]):
            pairs = [(0, np.array(p))]
            S = one_piece_set(lambda x: pairs[0][1])
            assert S._nearest(x, DEFAULT_TIE_TOL) == pairs, p

    def test_nan_projection_raises_naming_the_set(self):
        S = one_piece_set(lambda x: np.full(2, math.nan), label="nan-set")
        for call in (lambda: S.distance([1.0, 2.0]), lambda: S.contains([1.0, 2.0]),
                     lambda: sets.project_union(S).evaluate([1.0, 2.0])):
            with pytest.raises(EmptySelectionError, match="nan-set"):
                call()
        assert S.active([1.0, 2.0]) == []

    def test_inf_projection_is_kept(self):
        S = one_piece_set(lambda x: np.array([math.inf, 0.0]))
        assert S.active([1.0, 2.0]) == [0]
        assert S.distance([1.0, 2.0]) == math.inf
        assert not S.contains([1.0, 2.0])
        [(i, p)] = sets.project_union(S).evaluate([1.0, 2.0])
        assert i == 0 and p.tolist() == [math.inf, 0.0]


class TestLazyPieces:
    def test_malformed_keys_are_not_members(self):
        C = sets.sparsity_set(5, 2)
        P = sets.project_union(C)
        T = compose([P, P])
        assert (0, 1) in C.pieces and (0, 1) in P.pieces
        assert ((0, 1), (3, 4)) in T.pieces
        for key in [(1, 0), (0, 0), (0, 5), (-1, 2), (0,), (0, 1, 2), (0, 1.5),
                    [0, 1], "01", None]:
            assert key not in C.pieces and key not in P.pieces
            assert (key, (0, 1)) not in T.pieces
            with pytest.raises((KeyError, TypeError)):
                C.pieces[key]
        for key in [((0, 1),), ((0, 1), (3, 4), (0, 1)), [(0, 1), (3, 4)], (0, 1)]:
            assert key not in T.pieces

    def test_dr_ring_composite_is_built_on_demand(self, monkeypatch):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((8, 16))
        xstar = np.zeros(16)
        xstar[[1, 5, 9]] = [1.0, -0.8, 1.2]
        C = sets.sparsity_set(16, 3)
        affine = sets.affine_set(A, A @ xstar)
        built = []
        for module, name in ((core_ops, "AveragedMap"), (sets, "AveragedMap"),
                             (sets, "ConvexSetPiece")):
            cls = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, cls=cls, **k:
                                built.append(cls) or cls(*a, **k))
        T = compose(solvers.dr_ring([C, affine]))
        assert built == []
        assert len(T.pieces) == 313_600 == piece_count(T.pieces)
        first = (((0, 1, 2), 0), (0, (0, 1, 2)))
        second = (((0, 1, 2), 0), (0, (0, 1, 3)))
        assert list(itertools.islice(T.pieces, 2)) == [first, second]
        assert built == []
        x = xstar + 0.01
        [(key, v)] = T.evaluate(x)
        assert key == (((1, 5, 9), 0), (0, (1, 5, 9)))
        assert built == []  # a lone step builds no piece
        T1, T2 = solvers.dr_ring([C, affine])
        np.testing.assert_array_equal(
            v, T2.pieces[key[1]](T1.pieces[key[0]](x)))

    def test_count_above_maxsize(self):
        C = sets.sparsity_set(1000, 10)
        assert piece_count(C.pieces) == math.comb(1000, 10) > sys.maxsize
        assert C.pieces
        with pytest.raises(OverflowError):
            len(C.pieces)
        P = sets.project_union(C)
        assert piece_count(compose([P, P]).pieces) == math.comb(1000, 10) ** 2
        assert list(itertools.islice(P.pieces, 2)) == [tuple(range(10)),
                                                       (*range(9), 10)]


    def test_check_averaged_refuses_unlistable_count(self):
        P = sets.project_union(sets.sparsity_set(1000, 10))
        with pytest.raises(ValueError, match=f"{math.comb(1000, 10)} pieces"):
            check_averaged(P, 0.5, [(np.zeros(1000), np.ones(1000))])


def count_built(monkeypatch):
    """Record every ConvexSetPiece that sets builds from now on."""
    built = []
    cls = sets.ConvexSetPiece
    monkeypatch.setattr(sets, "ConvexSetPiece",
                        lambda *a, **k: built.append(cls) or cls(*a, **k))
    return built


class TestUnionOfSets:
    def big_union(self):
        return [sets.sparsity_set(20, 5), sets.singleton_set(np.ones(20))]

    def test_construction_builds_no_piece(self, monkeypatch):
        members = self.big_union()
        built = count_built(monkeypatch)
        U = sets.union_of_sets(members)
        assert built == []
        assert piece_count(U.pieces) == math.comb(20, 5) + 1
        assert list(itertools.islice(U.pieces, 2)) == [(0, (0, 1, 2, 3, 4)),
                                                       (0, (0, 1, 2, 3, 5))]
        assert (0, (3, 4, 5, 6, 19)) in U.pieces and 1 in U.pieces
        for key in [0, 2, (1, 0), (0, (4, 3, 5, 6, 7)), (0, (0, 1)), (2, (0,)),
                    (0,), "0", None, [0, (0, 1, 2, 3, 4)]]:
            assert key not in U.pieces
        assert built == []
        x = np.random.default_rng(0).normal(size=20)
        [(key, v)] = sets.project_union(U).evaluate(x)
        assert key == (0, tuple(sorted(np.argsort(-np.abs(x))[:5].tolist())))
        assert built == []  # nor does a step
        np.testing.assert_array_equal(v, U.pieces[key].project(x))

    @pytest.mark.parametrize("tie_tol", [0.0, DEFAULT_TIE_TOL, 0.25])
    def test_active_equals_distance_scan(self, tie_tol):
        diagonal = sets.span_set(np.array([[1.0], [1.0]]), label="diagonal")
        two_points = sets.UnionConvexSet({
            "a": sets.singleton_set([0.0, 2.0]).pieces[0],
            "b": sets.singleton_set([2.0, 0.0]).pieces[0],
        })
        unions = [
            axes_union(),
            sets.union_of_sets([sets.span_set(np.array([[1.0], [0.0]])),
                                two_points, diagonal,
                                sets.box_set([2.0, 2.0], [3.0, 3.0]),
                                sets.singleton_set([1.0, 1.0])]),
            sets.union_of_sets([two_points, axes_union(), two_points]),
        ]
        grid = np.arange(-2.0, 3.5, 0.5)
        points = [np.array([a, b]) for a in grid for b in grid]
        multi = 0
        for U in unions:
            scan = sets.UnionConvexSet(dict(U.pieces))  # every piece by distance
            for x in points:
                got = U.active(x, tie_tol)
                assert got == scan.active(x, tie_tol), x
                multi += len(got) > 1
            assert U.distance(points[3]) == scan.distance(points[3])
        assert multi > 50  # the points do exercise ties

    def test_sparsity_member_agrees_with_distance_rule(self):
        U = sets.union_of_sets([sets.sparsity_set(5, 2),
                                sets.singleton_set([1.0, 1.0, 0.0, 0.0, 0.0]),
                                sets.span_set(np.ones((5, 1)))])
        scan = sets.UnionConvexSet(dict(U.pieces))
        rng = np.random.default_rng(8)
        for x in rng.normal(size=(3000, 5)):
            assert set(U.active(x)) == set(scan.active(x))


class TestValidationCount:
    """A caller's point is validated once per public call; nested
    selections and intermediate points run on the trusted array."""

    def count_validations(self, monkeypatch):
        calls = []
        original = core_ops.as_vector
        for module in (cli, core_ops, minconvex, oracle, projections, sets, solvers):
            if hasattr(module, "as_vector"):
                monkeypatch.setattr(module, "as_vector",
                                    lambda x: calls.append(1) or original(x))
        return calls

    def test_compose_of_dr_ring(self, monkeypatch):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((3, 8))
        b = A @ np.array([1.0, -2.0, 0, 0, 0, 0, 0, 0])
        T = compose(solvers.dr_ring([sets.sparsity_set(8, 2), sets.affine_set(A, b)]))
        x = rng.standard_normal(8)
        calls = self.count_validations(monkeypatch)
        assert len(T.evaluate(x)) == 1  # tie-free
        assert len(calls) == 1

    def test_sparsity_projector(self, monkeypatch):
        P = sets.project_union(sets.sparsity_set(8, 2))
        x = np.random.default_rng(2).standard_normal(8)
        calls = self.count_validations(monkeypatch)
        assert len(P.evaluate(x)) == 1
        assert len(calls) == 1


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

    @pytest.mark.parametrize("A, b, shapes", [
        ([[1.0, 0.5], [1.0, 0.5]], [1.0], r"A of shape \(2, 2\) and b of shape \(1,\)"),
        ([[1.0, 0.5]], [1.0, 2.0], r"A of shape \(1, 2\) and b of shape \(2,\)"),
        ([[1.0, 0.5]], [[1.0]], r"A of shape \(1, 2\) and b of shape \(1, 1\)"),
    ])
    def test_affine_system_of_mismatched_shapes_rejected(self, monkeypatch, A, b,
                                                         shapes):
        def lstsq(*args, **kwargs):
            raise AssertionError("least squares ran")

        monkeypatch.setattr(np.linalg, "lstsq", lstsq)
        for make in (sets.affine_set, minconvex.indicator_affine):
            with pytest.raises(ValueError, match=shapes):
                make(A, b)

    @pytest.mark.parametrize("a", [[1e308, -1.0], [-1e200, 0.0], [0.0, 2e154]])
    def test_halfspace_normal_whose_square_overflows_rejected(self, a):
        for make in (sets.halfspace_set, minconvex.indicator_halfspace):
            with pytest.raises(ValueError, match="overflows"):
                make(a, 0.25)

    def test_long_halfspace_normal_that_fits(self):
        # ||a||^2 about 1e308 still fits: the set projects as its scalar form
        S = sets.halfspace_set([1e154, -1.0], 0.25)
        (piece,) = S.pieces.values()
        X = np.array([[0.2, -0.3], [-1.0, 0.0], [1e-155, 0.0], [0.0, 0.0]])
        want = np.stack([piece.project(x) for x in X])
        assert piece.project_many(X).tobytes() == want.tobytes()
        assert want[0, 0] < 0.2  # a.x > beta there: the point moved


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


def test_set_of_no_pieces_is_refused():
    with pytest.raises(ValueError, match="^a union-convex set needs at least one piece$"):
        sets.UnionConvexSet({})


# each query of a set or a piece at a point of another length, with the
# set's label, its dimension and the point's length; unchecked, the box's
# clip broadcasts a 1-vector, the singleton answers [0] and the sparsity
# rule raises KeyError or IndexError
OTHER_LENGTH = {
    "box distance": (lambda: sets.box_set([0, 0], [1, 1]).distance([5.0]), "box", 2, 1),
    "box contains": (lambda: sets.box_set([0, 0], [1, 1]).contains([5.0]), "box", 2, 1),
    "singleton active": (lambda: sets.singleton_set([0, 0]).active([1, 2, 3]),
                         "singleton", 2, 3),
    "sparsity active, longer": (
        lambda: sets.sparsity_set(8, 2).active(np.arange(10.0)), "sparsity(8,2)", 8, 10),
    "sparsity active, shorter": (
        lambda: sets.sparsity_set(8, 2).active(np.arange(6.0)), "sparsity(8,2)", 8, 6),
    "sparsity distance": (
        lambda: sets.sparsity_set(8, 2).distance(np.arange(10.0)), "sparsity(8,2)", 8, 10),
    "union distance": (lambda: axes_union().distance([1.0, 2.0, 3.0]), "union", 2, 3),
    # a set made directly over a LazyPieces reads its dimension from a piece
    "lazy pieces active": (
        lambda: sets.UnionConvexSet(sets.sparsity_set(8, 2).pieces).active(np.arange(10.0)),
        "", 8, 10),
    "lazy pieces contains, shorter": (
        lambda: sets.UnionConvexSet(sets.sparsity_set(8, 2).pieces, label="scan").contains(
            np.arange(6.0)), "scan", 8, 6),
    "piece distance": (lambda: sets.ball_set([0, 0], 1.0).pieces[0].distance([3.0]),
                       "ball", 2, 1),
    "piece contains": (lambda: sets.span_set([[1.0], [0.0]]).pieces[0].contains(
        [0.0, 0.0, 0.0]), "span", 2, 3),
}


@pytest.mark.parametrize("case", sorted(OTHER_LENGTH))
def test_a_point_of_another_length_is_refused_naming_the_set(case):
    call, label, dim, size = OTHER_LENGTH[case]
    with pytest.raises(core_ops.DimensionMismatchError,
                       match=f"^set '{re.escape(label)}' expects dimension {dim}, "
                             f"got {size}$"):
        call()


def test_a_set_over_lazy_pieces_builds_one_piece_for_its_dimension():
    # nothing when made; one piece at its first query or its projector,
    # which then refuses a point of another length
    C = sets.sparsity_set(8, 2)
    scan = sets.UnionConvexSet(C.pieces)
    assert C.pieces._built == {}
    P = sets.project_union(scan)
    assert list(C.pieces._built) == [(0, 1)] and P.dim == scan.dim == 8
    with pytest.raises(core_ops.DimensionMismatchError,
                       match=r"^operator 'P\[\]' expects dimension 8, got 10$"):
        P.evaluate(np.arange(10.0))
    x = np.arange(8.0)
    assert P.selector(x) == scan.active(x) == C.active(x) == [(6, 7)]
