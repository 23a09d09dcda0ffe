"""The batched oracle path against the scalar path it replaces.

Every piece evaluates a block of points with ``AveragedMap.rows``; those
rows must be bit-for-bit the scalar calls (compared with ``tobytes``, so
signed zeros count).  A map's batched rule ``UnionMap._rule_rows`` must
give, row by row, the pairs of its scalar rule.  ``check_averaged``,
``brute_force_prox`` and ``estimate_radius`` run on blocks; their results
must equal those of the frozen per-pair, per-node and per-sample loops
below, which are the scalar code they replaced.
"""

import dataclasses
import math

import numpy as np
import pytest

from unionfix import cli, minconvex as mc, oracle, projections, sets, solvers
from unionfix.core_ops import (
    BLOCK_ROWS,
    AveragedMap,
    DimensionMismatchError,
    UnionMap,
    _dr_step_rows,
    _dr_steps,
    as_vector,
    check_averaged,
    compose,
    convex_combination,
    dr_map,
    from_map,
    relax,
    union_of,
)
from unionfix.minconvex import ConvexPiece, MinConvexFn
from unionfix.oracle import FIRST_CHUNK_ROWS, GridSpec

from test_acceptance import corpus
from test_sets import tie_heavy_points


# ---------------------------------------------------------------------------
# Frozen scalar loops: the oracles as they were before blocks
# ---------------------------------------------------------------------------

def frozen_violation(piece, alpha, x, y):
    tx, ty = piece(x), piece(y)
    d2 = float(np.dot(x - y, x - y))
    t2 = float(np.dot(tx - ty, tx - ty))
    if alpha >= 1.0:
        return math.sqrt(t2) - math.sqrt(d2)
    r = (x - tx) - (y - ty)
    return t2 + (1.0 - alpha) / alpha * float(np.dot(r, r)) - d2


def frozen_check_averaged(T, alpha, pairs):
    best, worst_piece, worst_pair, checked = -math.inf, None, None, 0
    items = list(T.pieces.items())
    per_piece = {i: -math.inf for i, _ in items}
    for x, y in pairs:
        x, y = as_vector(x), as_vector(y)
        checked += 1
        for i, piece in items:
            v = frozen_violation(piece, alpha, x, y)
            if v > per_piece[i]:
                per_piece[i] = v
            if v > best:
                best, worst_piece, worst_pair = v, i, (x, y)
    return best, worst_piece, worst_pair, checked, per_piece


def frozen_brute_objectives(f, gamma, x, grid):
    x = as_vector(x)
    return np.array([mc.value(f, y) + float(np.dot(x - y, x - y)) / (2.0 * gamma)
                     for y in grid.nodes()])


def fields(best, worst_piece, worst_pair, checked, per_piece):
    """Report fields in a form where equality is bit equality."""
    pair = None if worst_pair is None else tuple(p.tobytes() for p in worst_pair)
    return (float(best).hex(), worst_piece, pair, checked,
            [(i, float(v).hex()) for i, v in per_piece.items()])


def report_fields(rep):
    return fields(rep.max_violation, rep.worst_piece, rep.worst_pair,
                  rep.pairs_checked, rep.per_piece)


def assert_report_equal(T, alpha, pairs):
    rep = check_averaged(T, alpha, pairs)
    assert rep.alpha == alpha
    assert report_fields(rep) == fields(*frozen_check_averaged(T, alpha, pairs))
    if rep.worst_pair is not None:
        assert all(p.base is None for p in rep.worst_pair)  # copies
    return rep


def assert_brute_equal(f, gamma, x, grid):
    brute = oracle.brute_force_prox(f, gamma, x, grid)
    objs = frozen_brute_objectives(f, gamma, x, grid)
    finite = np.isfinite(objs)
    best = float(objs[finite].min())
    keep = finite & (objs <= best + grid.cell_diameter)
    assert float(brute.min_objective).hex() == best.hex()
    assert [p.tobytes() for p in brute.points] == [
        q.tobytes() for q in grid.nodes()[keep]]
    return brute


def same_rows(piece, X):
    """piece.rows(X) is bit-for-bit the stacked scalar calls."""
    got = piece.rows(X)
    want = np.stack([piece(x) for x in X])
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Kernels: rows(X) equals the stacked scalar calls
# ---------------------------------------------------------------------------

def points(dim, count=400, seed=0):
    return 3.0 * np.random.default_rng(seed).normal(size=(count, dim))


def line(angle):
    """Projector onto the line through the origin at the given angle."""
    return sets.project_union(
        sets.span_set(np.array([[math.cos(angle)], [math.sin(angle)]])))


def catalog_sets(dim, rng):
    return {
        "singleton": sets.singleton_set(rng.normal(size=dim)),
        "box": sets.box_set(-np.ones(dim), np.ones(dim)),
        "ball": sets.ball_set(rng.normal(size=dim), 1.5),
        "halfspace": sets.halfspace_set(rng.normal(size=dim), 0.3),
        "span": sets.span_set(rng.normal(size=(dim, 1)), offset=rng.normal(size=dim)),
        # a basis of several columns, whose transpose is not contiguous
        "plane": sets.span_set(rng.normal(size=(dim, 2)), offset=rng.normal(size=dim)),
        "empty-span": sets.span_set(np.zeros((dim, 1)), offset=rng.normal(size=dim)),
        "affine": sets.affine_set(rng.normal(size=(1, dim)), [0.7]),
        "point-affine": sets.affine_set(np.eye(dim), np.arange(dim, dtype=float)),
    }


def edge_points(dim):
    """Ball centres and boundary points, a halfspace interior, signed zeros,
    coordinate ties and points near the scaled-l2 threshold."""
    e = np.eye(dim)
    return np.vstack([np.zeros(dim), -np.zeros(dim), e, -e, 0.5 * e,
                      np.full(dim, 0.1), np.full(dim, -1e-3), np.full(dim, 1.5)])


class TestLeafKernels:
    @pytest.mark.parametrize("dim", [1, 2, 3, 7])
    def test_set_pieces(self, dim):
        rng = np.random.default_rng(dim)
        X = np.vstack([points(dim), edge_points(dim)])
        for name, S in catalog_sets(dim, rng).items():
            piece = S.pieces[0]
            assert piece.project_many is not None, name
            # the ball's centre and boundary, the halfspace's interior
            extra = np.vstack([piece.witness, piece.project(X[0]), piece.project(X[1])])
            for T in (sets.project_union(S), sets.reflect_union(S)):
                same_rows(T.pieces[0], np.vstack([X, extra]))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_span_projection_in_both_memory_orders(self, order):
        # a copy of basis.T in the other memory order rounds differently
        rng = np.random.default_rng(5)
        basis = np.array(np.linalg.qr(rng.normal(size=(6, 3)))[0], order=order)
        offset = rng.normal(size=6)
        X = points(6)
        want = np.stack([projections.project_span(basis, x, offset) for x in X])
        got = projections.project_span_many(basis, X, projections.RepeatedRows(offset))
        assert got.tobytes() == want.tobytes()

    def test_support_pieces(self):
        X = np.vstack([points(5), edge_points(5)])
        T = sets.project_union(sets.sparsity_set(5, 2))
        for key in T.pieces:
            same_rows(T.pieces[key], X)
        R = sets.reflect_union(sets.sparsity_set(5, 2))
        same_rows(R.pieces[(1, 3)], X)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_convex_pieces(self, dim):
        rng = np.random.default_rng(10 + dim)
        A = rng.normal(size=(dim, dim))
        pieces = [
            mc.quadratic(A @ A.T + 0.1 * np.eye(dim), rng.normal(size=dim), 0.3),
            mc.quadratic(np.zeros((dim, dim)), np.zeros(dim)),
            mc.scaled_l1(0.8),
            mc.scaled_l2(0.8),
            mc.indicator_singleton(rng.normal(size=dim)),
            mc.indicator_box(-np.ones(dim), np.ones(dim)),
            mc.indicator_ball(np.zeros(dim), 1.0),
            mc.indicator_halfspace(np.ones(dim), 0.5),
            mc.indicator_affine(np.ones((1, dim)), [1.0]),
        ]
        # scaled_l2 below its threshold (norm <= gamma w) at every gamma
        X = np.vstack([points(dim), edge_points(dim), 1e-3 * points(dim, 20)])
        for p in pieces:
            assert p.value_many is not None and p.prox_many is not None, p.label
            want = np.array([float(p.value(x)) for x in X])
            assert p.value_many(X).tobytes() == want.tobytes(), p.label
            for gamma in (0.1, 1.0, 10.0, 1.0):  # repeat: the cached system
                same_rows(mc.prox_union(MinConvexFn([p]), gamma).pieces[0], X)

    def test_quadratic_prox_reuses_system_bit_identically(self):
        Q = np.array([[2.0, 0.3], [0.3, 1.0]])
        b = np.array([0.1, -0.2])
        p = mc.quadratic(Q, b)
        x = np.array([0.7, -1.3])
        for gamma in (0.5, 1.0, 0.5, 0.5, 2.0, 1.0):
            fresh = np.linalg.solve(np.eye(2) + gamma * Q, x - gamma * b)
            assert p.prox(gamma, x).tobytes() == fresh.tobytes()


#: block heights about the first-chunk and block sizes: the repeated rows
#: of a constant are cut from one block of at most BLOCK_ROWS rows, and
#: taller blocks tile the constant anew
HEIGHTS = [1, 2, 63, 64, 65, 1023, 1024, 1025, 2049]


def signed_zero_block(dim, n, at):
    """n rows about the point ``at``: the point itself, its negation, signed
    zeros, one row each, then seeded normal rows about it."""
    rng = np.random.default_rng([dim, n])
    X = at + rng.normal(size=(n, dim))
    edge = np.array([at, -at, np.zeros(dim), -np.zeros(dim)])[:n]
    X[:len(edge)] = edge
    return X


class TestRepeatedRows:
    """Every site that meets a block with a constant vector takes it as
    repeated rows; each equals its scalar form under tobytes."""

    def test_rows_are_views_of_one_bounded_block(self):
        c = np.array([1.5, -0.0, 3.0])
        rows = projections.RepeatedRows(c)
        earlier = rows.rows(2)
        for n in HEIGHTS + [3, 1]:
            R = rows.rows(n)
            assert R.shape == (n, 3) and R.flags.c_contiguous
            assert R.tobytes() == np.tile(c, (n, 1)).tobytes()
            assert len(rows._block) <= BLOCK_ROWS
        # a grown block is a new array: views handed out keep their bits
        assert earlier.tobytes() == np.tile(c, (2, 1)).tobytes()

    @staticmethod
    def set_sites(dim):
        rng = np.random.default_rng(dim)
        centre = rng.normal(size=dim)
        centre[0] = -0.0
        return {
            "span": sets.span_set(rng.normal(size=(dim, 1)), offset=rng.normal(size=dim)),
            "span-at-zero": sets.span_set(rng.normal(size=(dim, 1))),
            "affine": sets.affine_set(rng.normal(size=(1, dim)), [0.7]),
            "ball": sets.ball_set(centre, 1.5),
            "box": sets.box_set(np.r_[-0.0, -np.ones(dim - 1)], np.r_[0.0, np.ones(dim - 1)]),
        }

    @pytest.mark.parametrize("order", ["tall-first", "short-first"])
    @pytest.mark.parametrize("name", ["span", "span-at-zero", "affine", "ball", "box"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_set_projections(self, dim, name, order):
        S = self.set_sites(dim)[name]
        piece = sets.project_union(S).pieces[0]
        heights = HEIGHTS[::-1] if order == "tall-first" else HEIGHTS
        for n in heights + [2, 1]:  # one object, calls in a row
            X = signed_zero_block(dim, n, S.pieces[0].witness)
            same_rows(piece, X)
            same_rows(sets.reflect_union(S).pieces[0], X)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_grid_prox(self, dim):
        # node counts whose last block has each height: the grid minimum
        # and the nodes kept are those of the frozen per-node loop
        f = MinConvexFn([mc.indicator_singleton(np.full(dim, 0.25)),
                         mc.quadratic(np.eye(dim), np.zeros(dim))])
        x = np.r_[-0.0, np.full(dim - 1, 0.5)]
        counts = ([3, 63, 64, 65, 1023, 1024, 1025, 1026, 2049] if dim == 1
                  else [3, 8, 32, 33, 46])
        for points_per_axis in counts:
            grid = GridSpec(bounds=((-2.0, 2.0),) * dim, points=points_per_axis)
            assert_brute_equal(f, 1.0, x, grid)

    @pytest.mark.parametrize("order", ["tall-first", "short-first"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_singleton_kernel(self, dim, order):
        rng = np.random.default_rng(dim)
        points_ = [np.zeros(dim), -np.zeros(dim), rng.normal(size=dim)]
        f = MinConvexFn([mc.indicator_singleton(p) for p in points_])
        for gamma in (0.5, 1.0):
            ((_, kernel),) = list(mc._Groups(f, gamma))
            heights = HEIGHTS[::-1] if order == "tall-first" else HEIGHTS
            for n in heights + [2, 1]:
                X = signed_zero_block(dim, n, points_[2])
                P, E = kernel(X)
                for k, (p, piece) in enumerate(zip(points_, f.pieces)):
                    assert P[k].tobytes() == np.tile(p, (n, 1)).tobytes()
                    want = [mc.piece_envelope(piece, gamma, x) for x in X]
                    assert E[k].tobytes() == np.array(want).tobytes()


class TestRowNorms:
    """Row norms keep np.linalg.norm's bits wherever the sum of squares fits;
    a finite row whose sum overflows gets its norm through a rescaling."""

    @staticmethod
    def far_rows(dim: int) -> np.ndarray:
        rng = np.random.default_rng(40 + dim)
        R = np.vstack([points(dim), edge_points(dim), rng.normal(size=(5, dim))])
        return np.vstack([R, 1e200 * R[-5:], np.full((1, dim), 1e307),
                          np.full((1, dim), np.inf), np.full((1, dim), np.nan)])

    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 33])
    def test_rows_that_fit_keep_their_bits(self, dim):
        X = self.far_rows(dim)
        fit = np.isfinite(X).all(axis=1) & (np.abs(X).max(axis=1) < 1e100)
        F = np.asfortranarray(X[fit])  # its rows are strided
        blocks = [X, X[:1], X[-1:], X[fit], F, np.stack([X, X[::-1]]),
                  *(F[k:k + 1] for k in range(len(F)))]
        for D in blocks:
            got = projections.row_norms(D)
            assert got.shape == D.shape[:-1]
            for idx in zip(*np.nonzero(np.isfinite(D).all(axis=-1)
                                       & (np.abs(D).max(axis=-1) < 1e100))):
                want = np.sqrt(np.vecdot(D[idx], D[idx]))
                assert got[idx].tobytes() == want.tobytes()
                for row in (D[idx], D[idx][::-1]):  # strided, reversed too
                    assert projections.norm(row) == np.linalg.norm(row)

    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 33])
    def test_a_finite_row_whose_squares_overflow_gets_a_finite_norm(self, dim):
        X = self.far_rows(dim)
        for D in (X, np.asfortranarray(X)):
            got = projections.row_norms(D)  # no warning: the suite makes it an error
            assert np.isinf(got[-2]) and np.isnan(got[-1])
            for k in range(len(D) - 7, len(D) - 2):  # scaled rows and 1e307 rows
                want = math.hypot(*D[k])
                assert math.isfinite(want)
                assert got[k] == pytest.approx(want, rel=1e-14)
                assert projections.row_norms(D[k:k + 1])[0] == got[k]
                assert projections.norm(D[k]) == got[k]

    def test_scalar_forms_agree_with_their_rows_at_far_points(self):
        # the scalar ball projection, l2 piece and indicator value take
        # projections.norm, so a point whose squares overflow gets no warning
        # and the same bits as its row
        X = 1e200 * np.array([[1.0, 0.0], [3.0, -4.0], [-0.5, 2.0]])
        ball = sets.ball_set([0.5, 0.0], 1.5).pieces[0]
        l2, ind = mc.scaled_l2(0.7), mc.indicator_ball([0.0, 0.0], 1.0)
        assert ball.project(X[0]).tolist() == [2.0, 0.0]
        for k, x in enumerate(X):
            assert ball.project(x).tobytes() == ball.project_many(X)[k].tobytes()
            assert l2.prox(1.0, x).tobytes() == l2.prox_many(1.0, X)[k].tobytes()
            assert l2.value(x) == l2.value_many(X)[k]
            assert ind.value(x) == ind.value_many(X)[k] == math.inf

    def test_a_norm_that_overflows_is_inf(self):
        D = np.full((2, 3), 1.5e308)
        assert np.isinf(projections.row_norms(D)).all()
        assert projections.norm(D[0]) == math.inf


class TestCombinatorKernels:
    def lines(self):
        return [line(a) for a in (0.4, 1.9)]

    def test_every_combinator(self):
        P1, P2 = self.lines()
        ball = sets.project_union(sets.ball_set([0.5, 0.0], 1.0))
        g = MinConvexFn([mc.indicator_singleton([1.0, 0.0]), mc.scaled_l2(0.5),
                         mc.quadratic(np.eye(2), [0.2, 0.1])])
        prox = mc.prox_union(g, 0.7)
        maps = {
            "compose": compose([P1, P2, ball]),
            "convex-combination": convex_combination([P1, P2, prox], [0.2, 0.3, 0.5]),
            "relax": relax(compose([P1, prox]), 1.2),
            "dr-map": dr_map(prox, ball),
            "union": union_of([P1, prox, relax(P2, 0.5)]),
            "reflect": sets.reflect_union(sets.union_of_sets(
                [sets.sparsity_set(2, 1), sets.ball_set([2.0, 2.0], 0.5)])),
            "dr-operator": sets.dr_operator(sets.sparsity_set(2, 1),
                                            sets.affine_set([[1.0, 0.5]], [1.0])),
        }
        X = np.vstack([points(2), edge_points(2)])
        for name, T in maps.items():
            for key, piece in T.pieces.items():
                assert piece.many is not None, (name, key)
                same_rows(piece, X)


class TestFallback:
    def test_user_map_without_many_is_called_row_by_row(self):
        calls = []

        def fn(x):
            calls.append(1)
            return np.tanh(x) / 2.0

        leaf = AveragedMap(fn, alpha=0.5)
        X = points(3, 50)
        same_rows(leaf, X)
        assert len(calls) == 100  # 50 for rows, 50 for the reference
        box = sets.project_union(sets.box_set([-0.2] * 3, [0.2] * 3))
        T = compose([from_map(leaf), box])
        same_rows(T.pieces[(0, 0)], X)

    def test_scalar_output_of_a_one_dimensional_leaf(self):
        leaf = AveragedMap(lambda x: 0.5 * float(x[0]), alpha=0.5)
        X = points(1, 20)
        assert leaf.rows(X).shape == (20, 1)
        assert leaf.rows(X).tobytes() == np.array([leaf(x) for x in X]).tobytes()

    def test_convex_piece_without_siblings(self):
        bare = ConvexPiece(value=lambda x: float(np.sum(x * x)),
                           prox=lambda gamma, x: x / (1.0 + 2.0 * gamma), label="bare")
        f = MinConvexFn([bare, mc.scaled_l1(0.4)])
        T = mc.prox_union(f, 0.8)
        assert T.pieces[0].many is None and T.pieces[1].many is not None
        X = points(2, 60)
        same_rows(T.pieces[0], X)
        assert_brute_equal(f, 0.8, [0.3, -0.4], GridSpec(((-2.0, 2.0),) * 2, 41))
        assert_report_equal(T, 0.5, list(zip(points(2, 80, 1), points(2, 80, 2))))

    @pytest.mark.parametrize("order", [1, -1], ids=["plus-first", "minus-first"])
    def test_min_over_piece_values_keeps_the_first_of_equal_values(self, order):
        plus = ConvexPiece(value=lambda x: 0.0, prox=lambda gamma, x: x, label="plus",
                           value_many=lambda X: np.zeros(len(X)))
        minus = ConvexPiece(value=lambda x: -0.0, prox=lambda gamma, x: x,
                            label="minus")
        f = MinConvexFn([plus, minus][::order] + [mc.scaled_l1(1.0)])
        X = np.vstack([points(2, 30), np.zeros((1, 2))])
        want = np.array([mc.value(f, x) for x in X])
        assert mc._value_rows(f, X).tobytes() == want.tobytes()

    def test_non_finite_batched_prox_raises(self):
        piece = mc.indicator_ball([0.0], 1.0)
        bad = ConvexPiece(value=piece.value, prox=piece.prox, label="bad",
                          value_many=piece.value_many,
                          prox_many=lambda gamma, X: np.full_like(X, np.inf))
        T = mc.prox_union(MinConvexFn([bad]), 1.0)
        with pytest.raises(ValueError, match="finite"):
            T.pieces[0].rows(points(1, 5))
        with pytest.raises(ValueError, match="finite"):
            check_averaged(T, 0.5, [([0.1], [0.2])])


# ---------------------------------------------------------------------------
# Oracle reports: equal to the frozen loops
# ---------------------------------------------------------------------------

def audit_composites(seed):
    """The benchmark's oracle-audit composites: two seeded lines through
    the origin, composed, combined and united."""
    rng = np.random.default_rng([seed, 2**20])
    first = rng.uniform(0.0, math.pi)
    angles = (first, first + rng.uniform(0.2, math.pi - 0.2))
    lines = [line(a) for a in angles]
    return [compose(lines), convex_combination(lines, [0.3, 0.7]), union_of(lines)]


def nan_violation_map():
    """A map with a piece whose violation is NaN at some pairs, one whose
    violation is NaN at every pair, and a line projector; and the second."""
    some = AveragedMap(lambda x: np.full_like(x, np.nan) if x[0] > 0 else 0.5 * x,
                       alpha=0.5)
    every = AveragedMap(lambda x: np.full_like(x, np.nan), alpha=0.5)
    line_piece = audit_composites(1)[0].pieces[(0, 0)]
    T = UnionMap({"some": some, "every": every, "line": line_piece},
                 lambda x: ["line"], alpha=0.5)
    return T, every


class TestCheckAveragedMatchesLoop:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_audit_composites(self, seed):
        for T in audit_composites(seed):
            pairs = oracle.sample_pairs([-5.0, -5.0], [5.0, 5.0], 2 * BLOCK_ROWS + 1,
                                        seed=seed)
            assert_report_equal(T, T.alpha, pairs)
            assert_report_equal(T, 1.0, pairs[:300])

    @pytest.mark.parametrize("preset", sorted(cli.PRESETS))
    def test_preset_verify_operators(self, preset):
        cfg = cli.load_config(preset)
        spec = cfg.parsed["verify"]
        dim = len(cfg.x0)
        lo, hi = spec["lo"] or [-5.0] * dim, spec["hi"] or [5.0] * dim
        pairs = oracle.sample_pairs(lo, hi, spec["pairs"], seed=cfg.seed)
        for op in cli.build_experiment(cfg).operators:
            assert_report_equal(op, op.alpha, pairs)

    def test_maximum_planted_in_the_last_block(self):
        double = from_map(AveragedMap(lambda x: 2.0 * x, alpha=1.0))
        T = union_of([audit_composites(1)[0], double])
        pairs = oracle.sample_pairs([-1.0, -1.0], [1.0, 1.0], 2 * BLOCK_ROWS + 1,
                                    seed=3)
        # two pairs tie for the maximum; the first one must win
        pairs[2 * BLOCK_ROWS - 1] = (np.array([9.0, 9.0]), np.array([-9.0, -9.0]))
        pairs[2 * BLOCK_ROWS] = (np.array([9.0, -9.0]), np.array([-9.0, 9.0]))
        rep = assert_report_equal(T, 0.5, pairs)
        assert rep.worst_piece == (1, 0)
        assert rep.worst_pair[0].tolist() == [9.0, 9.0]
        pairs[2 * BLOCK_ROWS - 1] = pairs[0]
        rep = assert_report_equal(T, 0.5, pairs)
        assert rep.worst_pair[0].tolist() == [9.0, -9.0]

    def test_user_piece_with_nan_violations(self):
        T, every = nan_violation_map()
        pairs = oracle.sample_pairs([-2.0, -2.0], [2.0, 2.0], BLOCK_ROWS + 7, seed=4)
        rep = assert_report_equal(T, 0.5, pairs)
        assert rep.per_piece["every"] == -math.inf
        assert math.isfinite(rep.per_piece["some"])
        only_nan = UnionMap({0: every}, lambda x: [0], alpha=0.5)
        rep = assert_report_equal(only_nan, 0.5, pairs[:10])
        assert rep.max_violation == -math.inf and rep.worst_piece is None

    def test_ties_at_zero_keep_the_first(self):
        # identity pieces give violation 0.0 at every pair, so every pair
        # and piece ties: the first pair and piece must be reported
        ident = from_map(AveragedMap(lambda x: x, alpha=1.0))
        pairs = [([1.0, 2.0], [1.0, 2.0]), ([0.0, 0.0], [3.0, 1.0])] * 3
        assert_report_equal(union_of([ident, ident]), 1.0, pairs)
        assert_report_equal(union_of([ident, ident]), 0.5, pairs)

    def test_no_pairs(self):
        rep = assert_report_equal(audit_composites(1)[2], 0.5, [])
        assert rep.pairs_checked == 0 and rep.worst_pair is None

    @pytest.mark.parametrize("pairs", [
        [([1.0, 2.0], [1.0])],
        [([1.0, 2.0], [1.0, 2.0]), ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])],
        [([1.0, np.nan], [1.0, 2.0])],
        [([1.0, 2.0], [np.inf, 2.0])],
        [([[1.0, 2.0]], [[1.0, 2.0]])],
    ], ids=["ragged-pair", "ragged-pairs", "nan", "inf", "not-1d"])
    def test_bad_pairs_raise(self, pairs):
        with pytest.raises(ValueError):
            check_averaged(audit_composites(1)[0], 2.0 / 3.0, pairs)

    def test_ragged_across_blocks_raises(self):
        pairs = [([1.0, 2.0], [0.0, 1.0])] * BLOCK_ROWS + [([1.0], [2.0])]
        with pytest.raises(ValueError):
            check_averaged(audit_composites(1)[0], 2.0 / 3.0, pairs)


#: pair counts at and around the block boundaries
SAMPLE_COUNTS = [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                 2 * BLOCK_ROWS + 1, 10_000]


def assert_sampled_equal(T, alpha, lo, hi, count, seed):
    """sample_inequality, which checks the draws as blocks, is bit for bit
    check_averaged over the pair list of sample_pairs."""
    got = oracle.sample_inequality(T, alpha, (lo, hi), count, seed=seed)
    want = check_averaged(T, alpha, oracle.sample_pairs(lo, hi, count, seed=seed))
    assert got.alpha == want.alpha == alpha
    assert report_fields(got) == report_fields(want)
    if got.worst_pair is not None:
        assert all(p.base is None for p in got.worst_pair)  # copies
    return got


class TestSampleInequalityMatchesPairList:
    @pytest.mark.parametrize("count", SAMPLE_COUNTS)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_audit_composites(self, seed, count):
        for T in audit_composites(seed):
            assert_sampled_equal(T, T.alpha, [-5.0, -5.0], [5.0, 5.0], count, seed)
            assert_sampled_equal(T, 1.0, [-5.0, -5.0], [5.0, 5.0], count, seed)

    @pytest.mark.parametrize("count", SAMPLE_COUNTS)
    @pytest.mark.parametrize("preset", sorted(cli.PRESETS))
    def test_preset_verify_operators(self, preset, count):
        cfg = cli.load_config(preset)
        spec = cfg.parsed["verify"]
        for op in cli.build_experiment(cfg).operators:
            assert_sampled_equal(op, op.alpha, spec["lo"], spec["hi"], count,
                                 cfg.seed)

    @pytest.mark.parametrize("count", SAMPLE_COUNTS)
    def test_user_piece_with_nan_violations(self, count):
        T, _ = nan_violation_map()
        rep = assert_sampled_equal(T, 0.5, [-2.0, -2.0], [2.0, 2.0], count, 4)
        assert rep.per_piece["every"] == -math.inf

    def test_one_dimensional_region(self):
        T = from_map(AveragedMap(lambda x: 2.0 * x, alpha=1.0))
        assert_sampled_equal(T, 0.5, [-3.0], [3.0], BLOCK_ROWS + 1, 0)
        assert_sampled_equal(T, 0.5, -3.0, 3.0, 5, 0)  # scalars are 1-vectors


#: the two entry points of the averagedness check, on pairs in [lo, hi]
AVERAGEDNESS_ENTRIES = {
    "check_averaged": lambda T, alpha, lo, hi, count: check_averaged(
        T, alpha, oracle.sample_pairs(lo, hi, count)),
    "sample_inequality": lambda T, alpha, lo, hi, count: oracle.sample_inequality(
        T, alpha, (lo, hi), count),
}


def counted_half(calls, dim=None):
    """x -> x / 2 as a one-piece map that records every call."""
    return from_map(AveragedMap(lambda x: calls.append(x) or x / 2, alpha=0.5),
                    dim=dim)


class TestAveragednessArguments:
    @pytest.mark.parametrize("alpha", [math.nan, 0.0, -1.0, 2.0])
    @pytest.mark.parametrize("entry", sorted(AVERAGEDNESS_ENTRIES))
    def test_alpha_outside_the_unit_interval_is_refused(self, entry, alpha):
        calls = []
        with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1\]"):
            AVERAGEDNESS_ENTRIES[entry](counted_half(calls), alpha, [-1.0], [1.0], 10)
        assert calls == []

    @pytest.mark.parametrize("entry", sorted(AVERAGEDNESS_ENTRIES))
    def test_points_of_another_dimension_are_refused(self, entry):
        calls = []
        T = counted_half(calls, dim=2)
        with pytest.raises(DimensionMismatchError) as want:
            T.evaluate([1.0])
        with pytest.raises(DimensionMismatchError) as got:
            AVERAGEDNESS_ENTRIES[entry](T, 0.5, [-1.0], [1.0], 10)
        assert str(got.value) == str(want.value)
        assert calls == []
        assert AVERAGEDNESS_ENTRIES[entry](T, 0.5, [-1.0, -1.0], [1.0, 1.0],
                                           10).passed()

    @pytest.mark.parametrize("lo, hi, count", [
        ([0.0], [1.0, 1.0], 3),
        ([1.0, 0.0], [-1.0, 1.0], 3),
        ([-1e308], [1e308], 3),
        ([1e308], [-1e308], 3),
        ([-1.0, -1.0], [1e308, 1.0], 3),
        ([0.0], [1.0], -1),
    ], ids=["lengths", "lo-above-hi", "width-overflows", "width-overflows-below",
            "far-point-overflows", "negative-count"])
    @pytest.mark.parametrize("entry", ["sample_pairs", "sample_inequality"])
    def test_bad_region_is_refused_before_drawing(self, monkeypatch, entry, lo,
                                                  hi, count):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew from a refused region")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        call = {"sample_pairs": lambda: oracle.sample_pairs(lo, hi, count),
                "sample_inequality": lambda: oracle.sample_inequality(
                    counted_half([]), 0.5, (lo, hi), count)}[entry]
        with pytest.raises(ValueError, match=r"^sample region lo=\["):
            call()

    def test_a_flat_region_is_legal(self):
        pairs = oracle.sample_pairs([1.0, -2.0], [1.0, 3.0], 5)
        assert all(x[0] == y[0] == 1.0 for x, y in pairs)
        assert_sampled_equal(counted_half([]), 0.5, [1.0, -2.0], [1.0, 3.0], 5, 0)
        assert_sampled_equal(counted_half([]), 0.5, [2.0], [2.0], 5, 0)


class TestBruteForceProxMatchesLoop:
    def test_criterion_1_corpus(self):
        grids = {1: GridSpec(((-6.0, 6.0),), 601), 2: GridSpec(((-6.0, 6.0),) * 2, 41)}
        for f, x in corpus():
            for gamma in (0.1, 1.0, 10.0):
                assert_brute_equal(f, gamma, x, grids[x.size])

    def test_grid_spanning_several_blocks(self):
        f = MinConvexFn([mc.indicator_ball([0.0, 0.0], 1.0), mc.scaled_l1(0.5),
                         mc.quadratic([[1.0, 0.2], [0.2, 0.5]], [0.1, 0.0])])
        grid = GridSpec(((-3.0, 3.0), (-2.0, 2.5)), math.isqrt(2 * BLOCK_ROWS) + 2)
        assert grid.points ** 2 > 2 * BLOCK_ROWS
        assert_brute_equal(f, 0.3, [1.2, -0.4], grid)


# ---------------------------------------------------------------------------
# NaN piece values are an error, whichever position the piece holds
# ---------------------------------------------------------------------------

class TestNanPieceValue:
    @pytest.mark.parametrize("batched", [True, False], ids=["batched", "scalar"])
    @pytest.mark.parametrize("nan_first", [True, False], ids=["first", "last"])
    def test_nan_value_raises(self, nan_first, batched):
        nan_piece = ConvexPiece(
            value=lambda x: math.nan, prox=lambda gamma, x: np.array(x), label="nan",
            value_many=(lambda X: np.full(len(X), math.nan)) if batched else None)
        pieces = [nan_piece, mc.indicator_singleton([1.0])]
        f = MinConvexFn(pieces if nan_first else pieces[::-1])
        x = np.array([0.3])
        calls = {
            "active_selector": lambda: mc.active_selector(f, 1.0, x),
            "selector": lambda: mc.prox_union(f, 1.0).selector(x),
            "value": lambda: mc.value(f, x),
            "envelope": lambda: mc.envelope(f, 1.0, x),
            "brute_force_prox": lambda: oracle.brute_force_prox(
                f, 1.0, x, GridSpec(((-2.0, 2.0),), 11)),
        }
        for name, call in calls.items():
            with pytest.raises(ValueError, match="'nan'.*NaN"):
                call()
                pytest.fail(name)

    def test_nan_on_some_nodes_only(self):
        partly = ConvexPiece(value=lambda x: math.nan if x[0] > 1.0 else 0.0,
                             prox=lambda gamma, x: np.minimum(x, 1.0), label="partly")
        f = MinConvexFn([mc.scaled_l1(1.0), partly])
        with pytest.raises(ValueError, match="'partly'"):
            oracle.brute_force_prox(f, 1.0, [0.0], GridSpec(((-2.0, 2.0),), 11))
        assert mc.value(f, [0.5]) == 0.0



# ---------------------------------------------------------------------------
# Batched rules: _rule_rows equals the scalar rule row by row
# ---------------------------------------------------------------------------

def user_union_map():
    """A map built from an index selector, whose rule is the default."""
    pieces = {"half": AveragedMap(lambda x: x / 2.0, alpha=0.5),
              "shift": AveragedMap(lambda x: x / 2.0 + 0.25, alpha=0.5)}
    return UnionMap(pieces, lambda x: ["half", "shift"] if abs(x[0]) <= 0.5
                    else ["half"], alpha=0.5, label="user")


def criterion_8_functions():
    """The smooth term, the two-point g and the one-piece quadratic f of
    acceptance criterion 8 (and of the benchmark's oracle-audit)."""
    fs = solvers.SmoothFn(value=lambda x: 0.5 * float(x @ x), grad=lambda x: x,
                          lipschitz=1.0)
    g = MinConvexFn([mc.indicator_singleton([-1.0]), mc.indicator_singleton([1.0])])
    fq = MinConvexFn([mc.quadratic([[1.0]], [0.0])])
    return fs, g, fq


def two_point_prox():
    """The two-point prox of acceptance criterion 5: envelopes tie at 1."""
    return mc.prox_union(MinConvexFn([mc.indicator_singleton([0.0]),
                                      mc.indicator_singleton([2.0])]), 1.0)


def batched_rule_maps():
    """One map for each batched rule, in one dimension."""
    fs, g, fq = criterion_8_functions()
    fs_many = solvers.SmoothFn(value=fs.value, grad=fs.grad, lipschitz=1.0,
                               grad_many=lambda X: X)
    two = two_point_prox()
    pm = mc.prox_union(g, 0.5)  # ties at 0
    quads = mc.prox_union(MinConvexFn([mc.quadratic([[2.0]], [0.0]),
                                       mc.quadratic([[2.0]], [-4.0], c=4.0)]), 1.0)
    halve = AveragedMap(lambda x: x / 2.0, alpha=0.5)
    return {
        "prox-two-point": two,
        "prox-two-point-exact": mc.prox_union(  # ties with no tolerance
            MinConvexFn([mc.indicator_singleton([0.0]), mc.indicator_singleton([2.0])]),
            1.0, tie_tol=0.0),
        "prox-quadratics": quads,
        "from-map": from_map(halve),
        "from-map-many": from_map(AveragedMap(halve.fn, alpha=0.5,
                                              many=lambda X: X / 2.0)),
        "compose": compose([two, pm]),
        "compose-three": compose([two, pm, two]),
        "compose-default-member": compose([user_union_map(), pm]),
        "fb": solvers.fb_operator(fs, g, 0.5),
        "fb-grad-many": solvers.fb_operator(fs_many, g, 0.5),
        "drs": solvers.drs_operator(fq, g, 0.5),
        "dr-map": dr_map(two, pm),
        "relax": relax(two, 1.5),
        "union": union_of([two, pm, from_map(halve)]),
    }


BATCHED_RULE_MAPS = batched_rule_maps()


def rule_outcome(call):
    """A rule's pairs, or the error it raised, by type and message."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


class TestRuleRows:
    # exact ties of the two-point prox (1), of the +-1 prox and of fb and
    # drs (0), the relaxation's and dr_map's tie at 1, and tie-free points
    X = np.vstack([np.array([[-2.0], [-1.0], [-0.5], [0.0], [-0.0], [0.5],
                             [1.0], [1.5], [2.0], [3.0]]), points(1, 40)])

    @pytest.mark.parametrize("label", sorted(BATCHED_RULE_MAPS))
    def test_equals_the_scalar_rule_row_by_row(self, label):
        T = BATCHED_RULE_MAPS[label]
        assert getattr(T._rule_rows, "__func__", None) is not UnionMap._rule_rows
        rows, keys, P = T._rule_rows(self.X)
        want = [(r, i, v) for r, x in enumerate(self.X) for i, v in T._pairs(x)]
        assert rows.tolist() == [r for r, _, _ in want]
        assert repr(keys) == repr([i for _, i, _ in want])  # numpy ints differ
        assert P.shape == (len(want), 1)
        assert [p.tobytes() for p in P] == [v.tobytes() for _, _, v in want]
        if len(T.pieces) > 1:
            assert len(set(np.bincount(rows).tolist())) > 1, "no row with a tie"

    def test_default_rule_rows_loop_over_pairs(self):
        T = user_union_map()
        rows, keys, P = T._rule_rows(self.X)
        want = [(r, i, v) for r, x in enumerate(self.X) for i, v in T._pairs(x)]
        assert (rows.tolist(), keys) == ([r for r, _, _ in want], [i for _, i, _ in want])
        assert [p.tobytes() for p in P] == [v.tobytes() for _, _, v in want]

    @staticmethod
    def square_pieces():
        """x -> sum(x * x) with neither, one or both batched forms: equal
        envelopes, so every row ties them."""
        def value(x):
            return float(np.sum(x * x))

        def prox(gamma, x):
            return x / (1.0 + 2.0 * gamma)

        def value_many(X):
            return np.sum(X * X, axis=1)

        def prox_many(gamma, X):
            return X / (1.0 + 2.0 * gamma)

        return [ConvexPiece(value, prox, "bare"),
                ConvexPiece(value, prox, "value-many", value_many=value_many),
                ConvexPiece(value, prox, "prox-many", prox_many=prox_many),
                ConvexPiece(value, prox, "both", value_many, prox_many)]

    @pytest.mark.parametrize("pick", [[0], [0, 4], [1, 2, 4], [0, 1, 2, 3, 4]],
                             ids=["bare", "bare-l1", "half-batched-l1", "all"])
    def test_pieces_without_batched_forms_equal_the_scalar_rule(self, pick):
        pieces = [*self.square_pieces(), mc.scaled_l1(0.4)]
        T = mc.prox_union(MinConvexFn([pieces[k] for k in pick]), 0.8)
        assert getattr(T._rule_rows, "__func__", None) is not UnionMap._rule_rows
        rows, keys, P = T._rule_rows(self.X)
        want = [(r, i, v) for r, x in enumerate(self.X) for i, v in T._pairs(x)]
        assert rows.tolist() == [r for r, _, _ in want]
        assert repr(keys) == repr([i for _, i, _ in want])
        assert [p.tobytes() for p in P] == [v.tobytes() for _, _, v in want]

    @pytest.mark.parametrize("broken, match", [
        (ConvexPiece(value=lambda x: 0.0, prox=lambda gamma, x: np.full_like(x, math.nan),
                     label="nan"), "entries must be finite"),
        (ConvexPiece(value=lambda x: math.nan, prox=lambda gamma, x: x, label="nan"),
         "'nan'.*NaN envelope"),
    ], ids=["prox", "value"])
    def test_bare_nan_raises_on_both_paths(self, broken, match):
        T = mc.prox_union(MinConvexFn([mc.scaled_l1(0.4), broken]), 0.8)
        with pytest.raises(ValueError, match=match):
            T._pairs(self.X[0])
        with pytest.raises(ValueError, match=match):
            T._rule_rows(self.X)

    def test_nan_envelope_raises_naming_the_piece(self):
        nan_piece = ConvexPiece(value=lambda x: math.nan, prox=lambda gamma, x: x,
                                label="nan", value_many=lambda X: np.full(len(X), math.nan),
                                prox_many=lambda gamma, X: X)
        T = mc.prox_union(MinConvexFn([mc.indicator_singleton([1.0]), nan_piece]), 1.0)
        with pytest.raises(ValueError, match="'nan'.*NaN envelope"):
            T._rule_rows(self.X)

    #: points of the plane with exact ties of the two axes (|x| = |y|, the
    #: origin, signed zeros), a ball centre and boundary point, box corners
    #: and faces, and tie-free points
    PLANE = np.vstack([
        np.array([[1.0, 1.0], [-2.0, 2.0], [3.0, -3.0], [0.0, 0.0], [-0.0, 0.0],
                  [0.5, 0.0], [1.5, 0.0], [1.0, -1.0], [2.0, 0.5], [0.0, -0.7]]),
        points(2, 60)])

    @staticmethod
    def distance_rule_sets():
        axes = [sets.span_set(np.array([[1.0], [0.0]])).pieces[0],
                sets.span_set(np.array([[0.0], [1.0]])).pieces[0]]
        return {
            "span": sets.span_set(np.array([[1.0], [2.0]]), offset=[0.3, -0.2]),
            "ball": sets.ball_set([0.5, 0.0], 1.0),
            "box": sets.box_set([-1.0, -0.5], [1.0, 0.5]),
            "two-axes": sets.UnionConvexSet({"x": axes[0], "y": axes[1]}),
            "two-axes-exact": sets.UnionConvexSet({0: axes[1], 1: axes[0]}),
        }

    @pytest.mark.parametrize("kind", ["project", "reflect"])
    @pytest.mark.parametrize("name", ["span", "ball", "box", "two-axes",
                                      "two-axes-exact"])
    def test_distance_rule_equals_the_scalar_rule(self, name, kind):
        S = self.distance_rule_sets()[name]
        tie_tol = 0.0 if name.endswith("exact") else 1e-10
        T = (sets.project_union if kind == "project" else sets.reflect_union)(S, tie_tol)
        assert getattr(T._rule_rows, "__func__", None) is not UnionMap._rule_rows
        X = self.PLANE
        rows, keys, P = T._rule_rows(X)
        want = [(r, i, v) for r, x in enumerate(X) for i, v in T._pairs(x)]
        assert rows.tolist() == [r for r, _, _ in want]
        assert keys == [i for _, i, _ in want]
        assert [p.tobytes() for p in P] == [v.tobytes() for _, _, v in want]
        if len(S.pieces) > 1:
            assert np.bincount(rows).max() == 2, "no row with a tie"

    @staticmethod
    def keyed_maps():
        """Combinators over projectors whose rows hold several pairs: the
        two axes tie on the diagonals, sparsity(2, 1) on |x| = |y|."""
        axes = sets.project_union(TestRuleRows.distance_rule_sets()["two-axes"])
        sparse = sets.project_union(sets.sparsity_set(2, 1))
        ball = sets.project_union(sets.ball_set([0.5, 0.0], 1.0))
        return {
            "compose": compose([axes, sparse]),
            "compose-three": compose([sparse, axes, sparse]),
            "compose-of-compose": compose([compose([axes, ball]), sparse]),
            "dr-map": dr_map(axes, sparse),
            "dr-map-reversed": dr_map(sparse, axes),
            "union": union_of([axes, ball, sparse]),
            "union-of-compose": union_of([compose([sparse, axes]), axes]),
        }

    @pytest.mark.parametrize("label", ["compose", "compose-three",
                                       "compose-of-compose", "dr-map",
                                       "dr-map-reversed", "union",
                                       "union-of-compose"])
    def test_block_keys_equal_the_row_loop(self, label):
        T = self.keyed_maps()[label]
        X = np.vstack([self.PLANE, -self.PLANE[:10]])
        rows, keys, P = T._rule_rows(X)
        loop_rows, loop_keys, loop_P = UnionMap._rule_rows(T, X)
        assert rows.tolist() == loop_rows.tolist()
        assert keys == loop_keys
        assert all(type(k) is tuple for k in keys)
        assert P.tobytes() == loop_P.tobytes()
        assert np.bincount(rows).max() > 1, "no row with several pairs"

    def test_union_of_sets_keeps_the_row_loop(self):
        S = sets.union_of_sets([sets.ball_set([0.0, 0.0], 1.0),
                                sets.singleton_set([3.0, 0.0])])
        assert sets.project_union(S)._rule_rows.__func__ is UnionMap._rule_rows

    @staticmethod
    def sparsity_block(n, seed):
        """Generic rows interleaved with tie rows (repeated, vanishing and
        signed-zero magnitudes, gaps of tie_tol / 2 and 2 tie_tol for
        tie_tol 0.25) and, for n >= 4, rows at the s = 2 gap boundary."""
        generic = points(n, 40, seed)
        ties = np.array(list(tie_heavy_points(n, 0.25, 40, seed)))
        X = np.empty((80, n))
        X[0::2], X[1::2] = generic, ties
        if n >= 4:
            edge = np.zeros((3, n))
            edge[:, :3] = [[2.0, 1.0, 0.75], [2.0, 1.0, np.nextafter(0.75, 0.0)],
                           [-2.0, 1.0, -np.nextafter(0.75, 1.0)]]
            X = np.vstack([X[:7], edge, X[7:]])
        return X

    @staticmethod
    def scalar_and_batched(T, X):
        def scalar():
            return [(r, repr(i), v.tobytes()) for r, x in enumerate(X)
                    for i, v in T._pairs(x)]

        def batched():
            rows, keys, P = T._rule_rows(X)
            return list(zip(rows.tolist(), map(repr, keys), [p.tobytes() for p in P]))

        return rule_outcome(scalar), rule_outcome(batched)

    @pytest.mark.parametrize("kind", ["project", "reflect"])
    @pytest.mark.parametrize("tie_tol", [0.0, 1e-10, 0.25])
    def test_sparsity_rule_equals_the_scalar_rule(self, tie_tol, kind):
        make = sets.project_union if kind == "project" else sets.reflect_union
        tie_rows = 0
        for n in (1, 2, 3, 4, 6, 9):
            X = self.sparsity_block(n, seed=n)
            for s in range(n):
                T = make(sets.sparsity_set(n, s), tie_tol)
                assert getattr(T._rule_rows, "__func__", None) is not UnionMap._rule_rows
                scalar, batched = self.scalar_and_batched(T, X)
                assert batched == scalar, (n, s)
                tie_rows += len(scalar) - len(X)
        assert tie_rows > 100  # rows with several supports are merged in

    def test_nan_distance_takes_the_row_loop(self):
        # a NaN distance makes the scalar rule depend on the piece order:
        # NaN first selects nothing, NaN second is never selected
        axis = sets.span_set(np.array([[1.0], [0.0]])).pieces[0]
        nan_beyond = sets.ConvexSetPiece(
            project=lambda x: np.full(2, math.nan) if x[0] > 1.0 else np.array(x),
            label="nan-beyond", witness=np.zeros(2),
            project_many=lambda X: np.where(X[:, :1] > 1.0, math.nan, X))
        X = np.array([[0.5, 0.5], [2.0, 0.3], [-1.0, 4.0]])
        for pieces in ({0: axis, 1: nan_beyond}, {0: nan_beyond, 1: axis}):
            for make in (sets.project_union, sets.reflect_union):
                T = make(sets.UnionConvexSet(pieces), 1e-10)

                def scalar():
                    return [(r, i, v.tobytes()) for r, x in enumerate(X)
                            for i, v in T._pairs(x)]

                def batched():
                    rows, keys, P = T._rule_rows(X)
                    return list(zip(rows.tolist(), keys, [p.tobytes() for p in P]))

                assert rule_outcome(batched) == rule_outcome(scalar)

    def test_block_rule_that_skips_a_row_beside_a_doubled_one(self):
        # the distance rule at the tie rows only: row 0 (on the diagonal)
        # gets two pairs and row 1 none, as many pairs as rows; the scalar
        # rule fills row 1 in
        S = self.distance_rule_sets()["two-axes"]
        full = S._distance_rows

        def tie_rows(X, tie_tol):
            rows, keys, P = full(X, tie_tol)
            tie = np.bincount(rows, minlength=len(X))[rows] > 1
            return rows[tie], [k for k, t in zip(keys, tie) if t], P[tie]

        S._nearest_rows = tie_rows
        X = np.array([[1.0, 1.0], [2.0, 0.5]])
        assert tie_rows(X, 1e-10)[0].tolist() == [0, 0]
        for make in (sets.project_union, sets.reflect_union):
            T = make(S)
            rows, keys, P = T._rule_rows(X)
            want_rows, want_keys, want_P = UnionMap._rule_rows(T, X)
            assert rows.tolist() == want_rows.tolist() == [0, 0, 1]
            assert keys == want_keys == ["x", "y", "x"]
            assert P.tobytes() == want_P.tobytes()

    def test_one_piece_sets_decide_every_row_by_the_projection(self):
        # every catalog set of one piece returns each row's one pair, the
        # projection block as the piece returned it
        X = self.PLANE
        for S in (sets.span_set(np.array([[1.0], [2.0]]), offset=[0.3, -0.2]),
                  sets.affine_set([[1.0, 0.5]], [1.0]), sets.box_set([-1.0, 0.0], [1.0, 0.5]),
                  sets.ball_set([0.5, 0.0], 1.0), sets.halfspace_set([1.0, -1.0], 0.5),
                  sets.singleton_set([0.25, -0.5])):
            rows, keys, P = S._distance_rows(X, 1e-10)
            assert rows.tolist() == list(range(len(X))) and keys == [0] * len(X)
            assert P.tobytes() == S.pieces[0].project_many(X).tobytes()
            T = sets.project_union(S)
            assert [v.tobytes() for v in T._rule_rows(X)[2]] == [
                T._pairs(x)[0][1].tobytes() for x in X]

    @staticmethod
    def dr_step_pairs():
        two = two_point_prox()
        pm = mc.prox_union(criterion_8_functions()[1], 0.5)  # ties at 0
        axes = TestRuleRows.distance_rule_sets()["two-axes"]
        return {
            "proxes": (two, pm, TestRuleRows.X),
            "prox-and-default": (user_union_map(), pm, TestRuleRows.X),
            "projectors": (sets.project_union(axes),
                           sets.project_union(sets.ball_set([0.5, 0.0], 1.0)),
                           TestRuleRows.PLANE),
            "sparsity-and-affine": (sets.project_union(sets.sparsity_set(2, 1)),
                                    sets.project_union(sets.affine_set([[1.0, 0.5]],
                                                                       [1.0])),
                                    TestRuleRows.PLANE),
        }

    @pytest.mark.parametrize("label", ["proxes", "prox-and-default", "projectors",
                                       "sparsity-and-affine"])
    def test_dr_step_rows_equal_the_scalar_steps(self, label):
        PA, PB, X = self.dr_step_pairs()[label]
        rows, keys, A, B = _dr_step_rows(PA, PB, X)
        want = [(r, k, a, b) for r, x in enumerate(X) for k, a, b in _dr_steps(PA, PB, x)]
        assert rows.tolist() == [r for r, _, _, _ in want]
        assert repr(keys) == repr([k for _, k, _, _ in want])  # numpy ints differ
        assert [a.tobytes() for a in A] == [a.tobytes() for _, _, a, _ in want]
        assert [b.tobytes() for b in B] == [b.tobytes() for _, _, _, b in want]
        assert len(set(np.bincount(rows).tolist())) > 1, "no row with a tie"

    @staticmethod
    def fb_pair(n, seed, grad):
        """fb_operator over a random quadratic in n dimensions and a min of
        two quadratics g, whose prox moves with its input, with the smooth
        term's grad replaced by ``grad(fs)``: the operator without
        grad_many, and the one with the quadratic's grad_many."""
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, n))
        fs = cli.build_smooth({"kind": "quadratic", "Q": (A @ A.T).tolist(),
                               "b": rng.normal(size=n).tolist()}, n)
        g = MinConvexFn([mc.quadratic(np.eye(n), rng.normal(size=n)),
                         mc.quadratic(2.0 * np.eye(n), rng.normal(size=n), c=0.5)])
        gamma = 1.0 / fs.lipschitz
        bare = dataclasses.replace(fs, grad=grad(fs), grad_many=None)
        return (solvers.fb_operator(bare, g, gamma),
                solvers.fb_operator(fs, g, gamma))

    @pytest.mark.parametrize("n, seed", [(1, 0), (2, 1), (3, 2), (7, 3)])
    def test_forward_step_without_grad_many(self, n, seed):
        T, T_many = self.fb_pair(n, seed, lambda fs: fs.grad)
        X = points(n, BLOCK_ROWS + 1, seed)
        rows, keys, P = T._rule_rows(X)
        want = [(r, i, v) for r, x in enumerate(X) for i, v in T._pairs(x)]
        assert rows.tolist() == [r for r, _, _ in want]
        assert repr(keys) == repr([i for _, i, _ in want])
        assert [p.tobytes() for p in P] == [v.tobytes() for _, _, v in want]
        rows_m, keys_m, P_m = T_many._rule_rows(X)
        assert (rows.tobytes(), repr(keys), P.tobytes()) == (
            rows_m.tobytes(), repr(keys_m), P_m.tobytes())

    def test_grad_is_called_once_per_row_in_row_order(self):
        calls = []

        def counted(fs):
            return lambda x: calls.append(x.copy()) or fs.grad(x)

        T, _ = self.fb_pair(3, 0, counted)
        X = points(3, 300, 5)
        T._rule_rows(X)
        assert [c.tobytes() for c in calls] == [x.tobytes() for x in X]

    @pytest.mark.parametrize("bad_row", [0, 299, None], ids=["first", "last", "every"])
    @pytest.mark.parametrize("reshape", [
        lambda g: np.append(g, 0.0), lambda g: g[0], lambda g: g[:1],
        lambda g: g[:, None], lambda g: g[None, :],
    ], ids=["longer", "scalar", "one-entry", "column", "row"])
    def test_grad_of_the_wrong_shape_raises(self, reshape, bad_row):
        def wrong(fs):
            def grad(x):
                g = fs.grad(x)
                hit = bad_row is None or x.tobytes() == X[bad_row].tobytes()
                return reshape(g) if hit else g
            return grad

        X = points(2, 300, 6)
        T, _ = self.fb_pair(2, 1, wrong)
        with pytest.raises(ValueError, match="shape|inhomogeneous"):
            T._rule_rows(X)
        with pytest.raises(ValueError, match="shape"):
            for x in X:
                T._pairs(x)

    def test_grad_many_of_the_wrong_shape_raises(self):
        fs = solvers.SmoothFn(value=lambda x: 0.0, grad=lambda x: x, lipschitz=1.0,
                              grad_many=lambda X: X[:, :1])
        T = solvers.fb_operator(fs, MinConvexFn([mc.quadratic(np.eye(2), [0.0, 1.0])]),
                                0.5)
        with pytest.raises(ValueError, match=r"shape \(300, 1\), expected \(300, 2\)"):
            T._rule_rows(points(2, 300, 6))

    def test_cli_gradient_rows_are_the_scalar_gradient(self):
        for n, seed in ((1, 0), (2, 1), (3, 2), (7, 3), (20, 4)):
            rng = np.random.default_rng(seed)
            A = rng.normal(size=(n, n))
            spec = {"kind": "quadratic", "Q": (A @ A.T).tolist(),
                    "b": rng.normal(size=n).tolist()}
            fs = cli.build_smooth(spec, n)
            X = points(n, BLOCK_ROWS + 1, seed)
            assert fs.grad_many(X).tobytes() == np.stack(
                [fs.grad(x) for x in X]).tobytes()


class TestReflectorIsTheRelaxedProjector:
    """reflect_union is relax(project_union(A), 2): its points -x + 2p are
    bit for bit those of the frozen reflector 2p - x, signed zeros included,
    at the scalar rule, the batched rule and every piece."""

    @staticmethod
    def cases():
        plane = np.vstack([TestRuleRows.PLANE,
                           np.array(list(tie_heavy_points(2, 0.25, 60, seed=3)))])
        return {
            "sparsity(5,2)": (sets.sparsity_set(5, 2), TestRuleRows.sparsity_block(5, 5)),
            "span": (sets.span_set(np.array([[1.0], [2.0]]), offset=[0.3, -0.2]), plane),
            "ball": (sets.ball_set([0.5, 0.0], 1.0), plane),
            "box": (sets.box_set([-1.0, -0.5], [1.0, 0.5]), plane),
            "union-of-three": (sets.union_of_sets([
                sets.sparsity_set(2, 1), sets.ball_set([2.0, 2.0], 0.5),
                sets.singleton_set([-1.0, -1.0])]), plane),
        }

    @pytest.mark.parametrize("tie_tol", [0.0, 1e-10, 0.25])
    @pytest.mark.parametrize("name", ["sparsity(5,2)", "span", "ball", "box",
                                      "union-of-three"])
    def test_equals_the_frozen_reflector(self, name, tie_tol):
        A, X = self.cases()[name]
        R = sets.reflect_union(A, tie_tol)
        assert (R.label, R.alpha) == (f"R[{A.label}]", 1.0)
        want = [(r, repr(i), (2.0 * p - x).tobytes())
                for r, x in enumerate(X) for i, p in A._nearest(x, tie_tol)]
        assert [(r, repr(i), v.tobytes()) for r, x in enumerate(X)
                for i, v in R.evaluate(x)] == want
        rows, keys, P = R._rule_rows(X)
        assert list(zip(rows.tolist(), map(repr, keys), [p.tobytes() for p in P])) == want
        if len(A.pieces) > 1:
            assert len(want) > len(X), "no row with a tie"
        for i, piece in A.pieces.items():
            r = R.pieces[i]
            assert (r.label, r.alpha) == (piece.label, 1.0)
            assert [r(x).tobytes() for x in X] == [
                (2.0 * piece.project(x) - x).tobytes() for x in X]
            assert r.rows(X).tobytes() == (2.0 * piece.project_many(X) - X).tobytes()


# ---------------------------------------------------------------------------
# estimate_radius: blocks through the batched rule against the scalar scan
# ---------------------------------------------------------------------------

def frozen_estimate_radius(T, xstar, delta_max, samples=200, seed=0, bisect_iters=40):
    """The radius estimate as it was before blocks: one ``T.selector`` call
    per sample.  Returns (radius, hit_delta_max, counterexample)."""
    xstar = as_vector(xstar)
    base = set(T.selector(xstar))
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((samples, xstar.size))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
    radii = rng.random(samples) ** (1.0 / xstar.size)
    counterexample = None

    def accept(delta):
        nonlocal counterexample
        for d, r in zip(dirs, radii):
            x = xstar + delta * r * d
            if not set(T.selector(x)) <= base:
                if counterexample is None:
                    counterexample = x
                return False
        return True

    if accept(delta_max):
        return delta_max, True, None
    lo, hi = 0.0, delta_max
    for _ in range(bisect_iters):
        mid = 0.5 * (lo + hi)
        if accept(mid):
            lo = mid
        else:
            hi = mid
    return lo, False, counterexample


def radius_fingerprint(radius, hit, counterexample):
    cex = None if counterexample is None else counterexample.tobytes()
    return float(radius).hex(), hit, cex


def radius_outcome(estimate):
    """The fingerprint of a radius estimate, or the error it raised."""
    try:
        return radius_fingerprint(*estimate())
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def assert_radius_equal(T, xstar, delta_max, **kwargs):
    def batched():
        est = oracle.estimate_radius(T, xstar, delta_max, **kwargs)
        return est.radius, est.hit_delta_max, est.counterexample

    got = radius_outcome(batched)
    assert got == radius_outcome(
        lambda: frozen_estimate_radius(T, xstar, delta_max, **kwargs))
    return got


def radius_cases():
    """The acceptance criterion-5/8 radius inputs: (label, T, x*, delta_max)."""
    fs, g, fq = criterion_8_functions()
    two = two_point_prox()
    fb = solvers.fb_operator(fs, g, 0.5)
    drs = solvers.drs_operator(fq, g, 0.5)
    return {
        "two-point-0": (two, [0.0], 3.0),
        "two-point-2": (two, [2.0], 3.0),
        "sparsity": (sets.project_union(sets.sparsity_set(2, 1)), [1.0, 0.0], 2.0),
        "fb-minus-1": (fb, [-1.0], 3.0),
        "fb-plus-1": (fb, [1.0], 3.0),
        "drs-minus-1.5": (drs, [-1.5], 3.0),
        "drs-plus-1.5": (drs, [1.5], 3.0),
    }


RADIUS_CASES = radius_cases()

#: sample counts at the edges of a radius scan's chunks (the first chunk of
#: FIRST_CHUNK_ROWS, then blocks of BLOCK_ROWS), one below, at and above
#: each, and short scans inside the first chunk; 2000 samples are the
#: acceptance and oracle-audit count below
RADIUS_SAMPLE_COUNTS = [1, 7] + [
    edge + k for edge in (FIRST_CHUNK_ROWS, FIRST_CHUNK_ROWS + BLOCK_ROWS,
                          FIRST_CHUNK_ROWS + 2 * BLOCK_ROWS)
    for k in (-1, 0, 1)]

#: (radius, hit_delta_max, counterexample bytes) of the acceptance inputs
#: at samples=2000, seed 0 and 40 bisection steps, from the scalar scan
ACCEPTANCE_RADII = {
    "two-point-0": ("0x1.003aca032a000p+0", "ea75edafdeacf93f"),
    "two-point-2": ("0x1.001c75db1c000p+0", "7cfb16768846ee3f"),
    "sparsity": ("0x1.6c732d9154000p-1", "8008621e6ef7a2bfad2a8c40ba66e63f"),
    "fb-minus-1": ("0x1.003aca032a000p+0", "d4ebda5fbd59e33f"),
    "fb-plus-1": ("0x1.001c75db1c000p+0", "4048909e7897abbf"),
    "drs-minus-1.5": ("0x1.80582f04c2000p+0", "a05ed7feeacdba3f"),
    "drs-plus-1.5": ("0x1.802ab0c8aa000p+0", "40554c9a1f5af2bf"),
}


class TestEstimateRadiusMatchesScan:
    @pytest.mark.parametrize("label", sorted(ACCEPTANCE_RADII))
    def test_acceptance_inputs(self, label):
        # the frozen scan takes seconds per input at these settings, so its
        # results are pinned; the tests below run it live with fewer steps
        T, xstar, delta_max = RADIUS_CASES[label]
        est = oracle.estimate_radius(T, xstar, delta_max, samples=2000, seed=0)
        radius, cex = ACCEPTANCE_RADII[label]
        assert radius_fingerprint(est.radius, est.hit_delta_max, est.counterexample) \
            == (radius, False, bytes.fromhex(cex))

    @pytest.mark.parametrize("label", ["two-point-0", "two-point-2", "fb-minus-1",
                                       "fb-plus-1", "drs-minus-1.5", "drs-plus-1.5"])
    def test_oracle_audit_cases(self, label):
        # the benchmark's radius ops: 2000 samples, seed 0, 8 bisection steps
        T, xstar, delta_max = RADIUS_CASES[label]
        assert_radius_equal(T, xstar, delta_max, samples=2000, seed=0, bisect_iters=8)

    @pytest.mark.parametrize("samples", RADIUS_SAMPLE_COUNTS)
    @pytest.mark.parametrize("label", ["two-point-0", "sparsity", "fb-plus-1",
                                       "drs-minus-1.5"])  # one per map
    def test_chunk_boundaries(self, label, samples):
        T, xstar, delta_max = RADIUS_CASES[label]
        assert_radius_equal(T, xstar, delta_max, samples=samples, seed=1,
                            bisect_iters=8)

    @staticmethod
    def one_sample_rejects(xstar, k, samples, seed):
        """A map on R^3 whose selection leaves that at x* only along the
        direction of sample k of the estimate's stream, so that sample k
        alone rejects every delta."""
        d = np.random.default_rng(seed).standard_normal((samples, 3))[k]
        d /= np.linalg.norm(d)

        def selector(x):
            v = x - xstar
            n = np.linalg.norm(v)
            return ["in", "out"] if n > 0 and v @ d > (1 - 1e-9) * n else ["in"]

        halve = AveragedMap(lambda x: x / 2.0, alpha=0.5)
        return UnionMap({"in": halve, "out": halve}, selector, alpha=0.5)

    @pytest.mark.parametrize("k", [0, *(edge + j for edge in (
        FIRST_CHUNK_ROWS, FIRST_CHUNK_ROWS + BLOCK_ROWS,
        FIRST_CHUNK_ROWS + 2 * BLOCK_ROWS) for j in (-1, 0))])
    def test_a_rejection_by_any_one_sample_is_seen(self, k):
        # k runs over the first and last row of every chunk
        samples = FIRST_CHUNK_ROWS + 2 * BLOCK_ROWS + 1
        xstar = np.array([0.5, -1.0, 2.0])
        T = self.one_sample_rejects(xstar, k, samples, seed=4)
        got = assert_radius_equal(T, xstar, 3.0, samples=samples, seed=4,
                                  bisect_iters=2)
        assert got[:2] == ((0.0).hex(), False)

    @pytest.mark.parametrize("label", ["compose", "compose-default-member",
                                       "dr-map", "relax", "union", "fb-grad-many"])
    def test_other_batched_rules(self, label):
        T = BATCHED_RULE_MAPS[label]
        xstar = 3.0 if label == "union" else 0.0  # the union ties everywhere else
        assert_radius_equal(T, [xstar], 3.0, samples=BLOCK_ROWS + 7, seed=2,
                            bisect_iters=8)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_three_dimensional_prox(self, seed):
        # directions that are not +-1, so the samples' rounding shows in
        # the counterexample's bytes
        f = MinConvexFn([mc.indicator_singleton([0.0, 0.0, 0.0]),
                         mc.indicator_singleton([2.0, 1.0, 0.0]),
                         mc.quadratic(np.eye(3), [0.0, -3.0, 0.0], c=4.0)])
        got = assert_radius_equal(mc.prox_union(f, 1.0), [0.0, 0.0, 0.0], 3.0,
                                  samples=BLOCK_ROWS + 1, seed=seed, bisect_iters=8)
        assert got[1] is False

    def test_user_map_without_a_row_rule(self):
        # the second piece joins within 0.5 of the origin: radius about 1.5
        got = assert_radius_equal(user_union_map(), [2.0], 3.0, samples=300,
                                  bisect_iters=12)
        assert got[1] is False

    def guarded_two_point(self, limit, raised):
        """compose([guard, two-point prox]): the guard is the identity and
        raises beyond |x| > limit; the selection leaves {0} beyond 1."""

        def guard(x):
            if abs(x[0]) > limit:
                raised.append(x[0])
                raise RuntimeError(f"guard at {x[0]}")
            return x

        return compose([from_map(AveragedMap(guard, alpha=0.5)), two_point_prox()])

    def test_error_after_the_first_rejection_falls_back_to_the_scan(self):
        raised = []
        T = self.guarded_two_point(2.9, raised)
        frozen = radius_fingerprint(*frozen_estimate_radius(
            T, [0.0], 3.0, samples=2000, bisect_iters=8))
        assert not raised  # the scan rejects before it meets the guard
        est = oracle.estimate_radius(T, [0.0], 3.0, samples=2000, bisect_iters=8)
        assert raised  # the first block met it in the batched rule
        assert radius_fingerprint(est.radius, est.hit_delta_max,
                                  est.counterexample) == frozen

    def test_error_before_the_first_rejection_is_the_scans_error(self):
        got = assert_radius_equal(self.guarded_two_point(0.5, []), [0.0], 3.0,
                                  samples=50)
        assert got[0] is RuntimeError

    @pytest.mark.parametrize("samples", RADIUS_SAMPLE_COUNTS)
    @pytest.mark.parametrize("limit", [0.5, 1.5, 2.9])
    def test_guarded_composition_at_chunk_boundaries(self, limit, samples):
        # the guard raises inside the selection's ball (0.5), between its
        # edge and delta_max (1.5), or only near delta_max (2.9)
        assert_radius_equal(self.guarded_two_point(limit, []), [0.0], 3.0,
                            samples=samples, seed=3, bisect_iters=8)

    def test_nan_valued_pieces(self):
        # the value is NaN beyond x = 1.5: the batched envelopes raise, so
        # blocks are rescanned and the scan's NaN error or rejection wins
        nan_beyond = ConvexPiece(
            value=lambda x: math.nan if x[0] > 1.5 else 0.0,
            prox=lambda gamma, x: np.array(x), label="nan-beyond",
            value_many=lambda X: np.where(X[:, 0] > 1.5, math.nan, 0.0),
            prox_many=lambda gamma, X: np.array(X))
        for first in (mc.indicator_singleton([0.0]), mc.indicator_singleton([-3.0])):
            T = mc.prox_union(MinConvexFn([first, nan_beyond]), 1.0)
            for xstar in (0.0, 1.0):
                assert_radius_equal(T, [xstar], 3.0, samples=200, bisect_iters=8)

    def test_non_finite_samples_raise_as_the_scan(self):
        with np.errstate(over="ignore"):  # the samples overflow
            got = assert_radius_equal(two_point_prox(), [1e308], 1e308, samples=5)
        assert got[0] is ValueError and "finite" in got[1]
