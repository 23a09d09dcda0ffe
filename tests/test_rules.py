"""One pass per point: a union map's rule returns its active (index, point)
pairs, each point bit for bit the piece's, so no piece runs twice.

The references below are frozen copies of the two-pass selectors (select
the indices, then evaluate the chosen pieces), written over the members'
public ``selector``, ``pieces``, ``piece_envelope`` and ``distance``, and
over the sparsity sets' C(n, s) magnitude scan (``scan_magnitude_selector``);
the rules must reproduce their index lists, order included.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from unionfix import cli, minconvex as mc, sets, solvers
from unionfix.core_ops import (
    DEFAULT_TIE_TOL,
    AveragedMap,
    EmptySelectionError,
    UnionMap,
    compose,
    convex_combination,
    dr_map,
    from_map,
    relax,
    union_of,
)
from unionfix.minconvex import MinConvexFn
from unionfix.solvers import Schedule, SelectionPolicy, StopRule

from test_sets import scan_magnitude_selector


def counted_prox(piece, calls):
    """The piece, each of its proxes counted: one per point, a batched call
    one per row."""
    def prox(gamma, x):
        calls.append(piece.label)
        return piece.prox(gamma, x)

    def prox_many(gamma, X):
        calls.extend([piece.label] * len(X))
        return piece.prox_many(gamma, X)

    return dataclasses.replace(
        piece, prox=prox, prox_many=None if piece.prox_many is None else prox_many)


def counted_projection(piece, calls):
    """The piece, each of its projections counted: one per point, a batched
    call one per row."""
    def project(x):
        calls.append(piece.label)
        return piece.project(x)

    def project_many(X):
        calls.extend([piece.label] * len(X))
        return piece.project_many(X)

    return dataclasses.replace(
        piece, project=project,
        project_many=None if piece.project_many is None else project_many)


# ---------------------------------------------------------------------------
# Frozen two-pass references
# ---------------------------------------------------------------------------

def ref_prox(f, gamma, tie_tol=DEFAULT_TIE_TOL):
    def select(x):
        envs = [mc.piece_envelope(p, gamma, x) for p in f.pieces]
        best = min(envs)
        return [i for i, e in enumerate(envs) if e <= best + tie_tol]
    return select


def ref_distance(pieces, tie_tol=DEFAULT_TIE_TOL):
    def select(x):
        dists = {i: p.distance(x) for i, p in pieces.items()}
        dmin = min(dists.values())
        return [i for i, d in dists.items() if d <= dmin + tie_tol]
    return select


def ref_union_of_sets(members, levels, tie_tol=DEFAULT_TIE_TOL):
    """Member j offers the supports of the C(n, s) magnitude scan if
    ``levels[j]`` is its sparsity level s, else all its pieces; the offers
    within tie_tol of the smallest distance are active."""
    single = [len(m.pieces) == 1 for m in members]

    def select(x):
        candidates = [
            (j if single[j] else (j, i), m.pieces[i])
            for j, m in enumerate(members)
            for i in (m.pieces if levels[j] is None
                      else scan_magnitude_selector(x, levels[j], tie_tol))
        ]
        dists = [p.distance(x) for _, p in candidates]
        dmin = min(dists)
        return [k for (k, _), d in zip(candidates, dists) if d <= dmin + tie_tol]
    return select


def ref_union_of(refs):
    return lambda x: [(j, i) for j, r in enumerate(refs) for i in r(x)]


def ref_combination(refs):
    return lambda x: list(itertools.product(*[r(x) for r in refs]))


def ref_compose(maps, refs):
    def select(x):
        out = []

        def chain(k, v, prefix):
            if k == len(maps):
                out.append(prefix)
                return
            for i in refs[k](v):
                chain(k + 1, maps[k].pieces[i](v), prefix + (i,))

        chain(0, np.asarray(x, dtype=float), ())
        return out
    return select


def ref_dr(PA, PB, ref_a, ref_b):
    def select(x):
        x = np.asarray(x, dtype=float)
        out = []
        for i in ref_a(x):
            a = PA.pieces[i](x)
            out.extend((i, j) for j in ref_b(2.0 * a - x))
        return out
    return select


# ---------------------------------------------------------------------------
# The maps under test, with their reference selectors
# ---------------------------------------------------------------------------

def prox_fn():
    """Two singletons (tied at (1, 0)) and a quadratic that never ties."""
    return MinConvexFn([mc.indicator_singleton([0.0, 0.0]),
                        mc.indicator_singleton([2.0, 0.0]),
                        mc.quadratic(np.eye(2), [0.0, -2.0], c=3.0)],
                       label="three")


def axes():
    """x- and y-axis under the distance rule (tied on the diagonals)."""
    return sets.UnionConvexSet({
        "x": sets.span_set(np.array([[1.0], [0.0]])).pieces[0],
        "y": sets.span_set(np.array([[0.0], [1.0]])).pieces[0],
    }, label="axes")


def union_set_members():
    """The members and their sparsity levels (None: not a sparsity set)."""
    members = [axes(), sets.sparsity_set(2, 1), sets.singleton_set([3.0, 3.0])]
    return members, [None, 1, None]


def one_piece_sets():
    """Each one-piece catalog set, by kind.  On the union of them the
    x-axis and the singleton tie at (1, 1), the others are farther."""
    return {
        "span": sets.span_set(np.array([[1.0], [0.0]])),
        "affine": sets.affine_set([[1.0, 1.0]], [10.0]),
        "box": sets.box_set([3.0, 3.0], [4.0, 4.0]),
        "ball": sets.ball_set([-3.0, -3.0], 0.5),
        "halfspace": sets.halfspace_set([0.0, 1.0], -5.0),
        "singleton": sets.singleton_set([1.0, 2.0]),
    }


def halves():
    """Index-selector map {x/2, -x/2}, both pieces at x[0] = 0."""
    pieces = {0: AveragedMap(lambda x: x / 2.0, alpha=0.5),
              1: AveragedMap(lambda x: -x / 2.0, alpha=0.5)}
    return UnionMap(pieces, lambda x: [i for i, keep in
                                       enumerate((x[0] >= 0, x[0] <= 0)) if keep],
                    alpha=0.5, dim=2)


def cases():
    """(label, map, reference selector)."""
    f = prox_fn()
    P = mc.prox_union(f, 1.0)
    ref_P = ref_prox(f, 1.0)
    A = axes()
    PA, RA = sets.project_union(A), sets.reflect_union(A)
    ref_A = ref_distance(A.pieces)
    S = sets.sparsity_set(2, 1)
    PS = sets.project_union(S)
    ref_S = lambda x: scan_magnitude_selector(x, 1, DEFAULT_TIE_TOL)
    members, levels = union_set_members()
    PU = sets.project_union(sets.union_of_sets(members))
    ref_U = ref_union_of_sets(members, levels)
    H = halves()
    half = from_map(AveragedMap(lambda x: 0.5 * x, alpha=0.5), dim=2)
    ref_one = lambda x: [0]
    fs = solvers.SmoothFn(value=lambda x: 0.5 * float(x @ x), grad=lambda x: x,
                          lipschitz=1.0)
    FB = solvers.fb_operator(fs, f, 0.5)
    DRS = solvers.drs_operator(f, f, 0.5)
    ref_P_half = ref_prox(f, 0.5)
    one_piece = [(f"{kind} projector", sets.project_union(C), ref_distance(C.pieces))
                 for kind, C in one_piece_sets().items()]
    U1 = sets.union_of_sets(one_piece_sets().values())
    one_piece.append(("union_of_sets of one-piece sets projector",
                      sets.project_union(U1), ref_distance(U1.pieces)))
    return one_piece + [
        ("prox_union", P, ref_P),
        ("project_union", PA, ref_A),
        ("reflect_union", RA, ref_A),
        ("sparsity projector", PS, ref_S),
        ("union_of_sets projector", PU, ref_U),
        ("index selector", H, H.selector),
        ("from_map", half, ref_one),
        ("union_of", union_of([P, PA, H]), ref_union_of([ref_P, ref_A, H.selector])),
        ("convex_combination", convex_combination([P, PA, RA], [0.2, 0.3, 0.5]),
         ref_combination([ref_P, ref_A, ref_A])),
        ("compose", compose([PA, P, RA, H]),
         ref_compose([PA, P, RA, H], [ref_A, ref_P, ref_A, H.selector])),
        ("relax", relax(P, 1.5), ref_P),
        ("relax of reflector", relax(RA, 0.5), ref_A),
        ("dr_map", dr_map(PA, P), ref_dr(PA, P, ref_A, ref_P)),
        ("dr_operator", sets.dr_operator(A, S),
         ref_dr(PA, PS, ref_A, ref_S)),
        ("fb_operator", FB, ref_compose(
            [from_map(AveragedMap(lambda x: x - 0.5 * x, alpha=0.25)), mc.prox_union(f, 0.5)],
            [ref_one, ref_P_half])),
        ("drs_operator", DRS, ref_dr(mc.prox_union(f, 0.5), mc.prox_union(f, 0.5),
                                     ref_P_half, ref_P_half)),
    ]


CASES = cases()

#: tie-free points, points on the maps' ties ((1, 0) for the two
#: singletons, |x1| = |x2| for the axes and the sparsity set, x1 = 0 for
#: the halves, (2, 0) for the forward-backward step onto (1, 0)), and
#: random points
POINTS = ([np.array(p) for p in ((0.3, -0.4), (1.7, 0.2), (-2.5, 1.1),
                                 (1.0, 0.0), (1.0, 1.0), (-2.0, 2.0),
                                 (0.0, 0.7), (0.0, 0.0), (3.0, 3.0), (2.0, 0.0))]
          + list(np.random.default_rng(3).normal(scale=2.0, size=(25, 2))))


def test_points_exercise_ties():
    multi = {label for label, T, _ in CASES for x in POINTS if len(T.selector(x)) > 1}
    assert multi == {label for label, T, _ in CASES if len(T.pieces) > 1}


@pytest.mark.parametrize("label, T, ref", CASES, ids=[c[0] for c in CASES])
class TestRule:
    def test_pairs_are_the_pieces_bit_for_bit(self, label, T, ref):
        for x in POINTS:
            got = T.evaluate(x)
            want = [(i, T.pieces[i](x)) for i in T.selector(x)]
            assert [i for i, _ in got] == [i for i, _ in want]
            for (_, v), (_, w) in zip(got, want):
                assert v.dtype == w.dtype and v.shape == w.shape
                assert v.tobytes() == w.tobytes(), (label, x)

    def test_selector_equals_two_pass_reference(self, label, T, ref):
        for x in POINTS:
            assert T.selector(x) == ref(x), (label, x)


def test_a_nan_projection_selects_no_piece():
    # a one-piece set whose projection holds a NaN where x[0] > 1 (in either
    # entry), alone and as the member of a union: the reference's distance
    # is NaN there, and no distance is within tie_tol of a NaN minimum
    for k in (0, 1):
        def project(x, k=k):
            p = np.array(x, dtype=float)
            if x[0] > 1.0:
                p[k] = np.nan
            return p

        C = sets.UnionConvexSet({0: sets.ConvexSetPiece(project, "nan", np.zeros(2))})
        for S in (C, sets.union_of_sets([C])):
            got = [S.active(x) for x in POINTS]
            assert got == [ref_distance(S.pieces)(x) for x in POINTS]
            assert [] in got and [0] in got
            with pytest.raises(EmptySelectionError):
                sets.project_union(S).evaluate([2.0, 0.0])


# ---------------------------------------------------------------------------
# Prox and projection calls per evaluate
# ---------------------------------------------------------------------------

class TestPieceCallCount:
    """Each piece runs once per point: the rule keeps the proxes and
    projections its selection computed."""

    def counted_fn(self, calls):
        return MinConvexFn([counted_prox(p, calls) for p in prox_fn().pieces])

    def test_prox_union(self):
        calls = []
        T = mc.prox_union(self.counted_fn(calls), 1.0)
        for x in ([0.3, -0.4], [1.0, 0.0]):  # tie-free, tie
            calls.clear()
            T.evaluate(x)
            assert len(calls) == 3

    def test_distance_rule_projector(self):
        calls = []
        A = sets.UnionConvexSet({
            i: counted_projection(sets.span_set(v).pieces[0], calls)
            for i, v in enumerate((np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]),
                                   np.array([[1.0], [1.0]])))
        })
        for T in (sets.project_union(A), sets.reflect_union(A)):
            for x in ([0.3, -0.4], [1.0, 0.0]):
                calls.clear()
                T.evaluate(x)
                assert len(calls) == 3

    def test_one_piece_affine_projector(self):
        calls = []
        piece = sets.affine_set(np.array([[1.0, 2.0, -1.0]]), [1.0]).pieces[0]
        T = sets.project_union(sets.UnionConvexSet({0: counted_projection(piece, calls)}))
        T.evaluate([0.5, -1.0, 2.0])
        assert len(calls) == 1

    def test_fb_operator(self):
        calls = []
        fs = solvers.SmoothFn(value=lambda x: 0.5 * float(x @ x), grad=lambda x: x,
                              lipschitz=1.0)
        T = solvers.fb_operator(fs, self.counted_fn(calls), 0.5)
        T.evaluate([0.3, -0.4])
        assert len(calls) == 3

    def f_and_g(self, calls):
        f = MinConvexFn([counted_prox(mc.quadratic(np.eye(2), [0.0, 0.0]), calls)])
        return f, self.counted_fn(calls)

    def test_drs_operator(self):
        calls = []
        T = solvers.drs_operator(*self.f_and_g(calls), 0.5)
        T.evaluate([0.3, -0.4])
        assert len(calls) == 4

    def test_douglas_rachford_step(self):
        calls = []
        f, g = self.f_and_g(calls)
        trace = solvers.douglas_rachford(f, g, 0.5, Schedule.constant(1.0),
                                         SelectionPolicy(), [0.3, -0.4],
                                         StopRule(max_iters=1))
        assert trace.status == "max-iters" and len(trace.steps) == 1
        assert len(calls) == 4



# ---------------------------------------------------------------------------
# Lone forms: the list rule's one pair, or None
# ---------------------------------------------------------------------------

def one_piece_kinds(dim: int, rng) -> dict:
    """A set of every one-piece kind of the config catalog, in R^dim."""
    A = rng.normal(size=(max(1, dim // 2), dim))
    return {
        "affine": sets.affine_set(A, A @ rng.normal(size=dim)),
        "box": sets.box_set(-np.ones(dim), np.ones(dim)),
        "ball": sets.ball_set(rng.normal(size=dim), 0.5),
        "halfspace": sets.halfspace_set(rng.normal(size=dim), 0.25),
        "singleton": sets.singleton_set(rng.normal(size=dim)),
        "span": sets.span_set(rng.normal(size=(dim, 1))),
    }


def lone_points(n: int, s: int, tie_tol: float, rng) -> list:
    """Random points, and for s >= 1 points whose s-th and (s+1)-th largest
    magnitudes are planted tie_tol / 2 and 2 tie_tol apart, the other
    magnitudes well away from both."""
    points = list(rng.normal(size=(3, n)))
    for gap in ((tie_tol / 2.0, 2.0 * tie_tol) if s else ()):
        mags = np.concatenate([rng.uniform(2.5, 3.5, s - 1), [2.0, 2.0 - gap],
                               rng.uniform(0.0, 1.0, n - s - 1)])
        points.append(rng.permutation(mags * rng.choice([-1.0, 1.0], n)))
    return points


def assert_lone_is_the_one_pair(T, x):
    """T._lone(x) is None where T's batched rule on the one row x[None]
    (``_rule_rows``) raises EmptySelectionError or has other than one pair,
    and that pair, key and bits, where it has one.  The batched rule is the
    reference: a combinator's scalar rule is its lone form where that has
    a pair."""
    try:
        _, keys, P = T._rule_rows(x[None])
    except EmptySelectionError:
        keys, P = [], []
    got = T._lone(x)
    if len(keys) != 1:
        assert got is None
        return
    (key, point), want_key, want = got, keys[0], P[0]
    assert repr(key) == repr(want_key)
    assert point.dtype == want.dtype and point.shape == want.shape
    assert point.tobytes() == want.tobytes()


def test_the_maps_with_a_lone_form():
    # of the maps above, every set's projector and reflector, relaxations
    # and DR operators over them, and from_map; every map over a prox or
    # the index selector has none
    assert {label for label, T, _ in CASES if T._lone is not None} == {
        *(f"{kind} projector" for kind in one_piece_sets()), "sparsity projector",
        "union_of_sets projector", "union_of_sets of one-piece sets projector",
        "project_union", "reflect_union", "relax of reflector", "dr_operator",
        "from_map"}


def test_a_union_of_sets_lone_form_is_its_scans_one_pair():
    # the union projectors above, their reflectors, and the DR maps and
    # composites that chain them, at the points above: the union of
    # one-piece sets ties at (1, 1), the other union on the diagonals
    members, _ = union_set_members()
    line = sets.span_set(np.array([[1.0], [2.0]]))
    ties = 0
    for U in (sets.union_of_sets(members),
              sets.union_of_sets(one_piece_sets().values())):
        maps = [sets.project_union(U), sets.reflect_union(U),
                sets.dr_operator(line, U), sets.dr_operator(U, line),
                compose(solvers.dr_ring([line, U])),
                compose(solvers.projectors([U, line]))]
        for x in POINTS:
            ties += maps[0]._lone(x) is None
            for T in maps:
                assert T._lone is not None
                assert_lone_is_the_one_pair(T, x)
    assert ties >= 2


def test_every_one_piece_kind_is_checked():
    one_piece = set(cli.SET_KINDS) - {"sparsity", "union-of"}
    assert set(one_piece_kinds(3, np.random.default_rng(0))) == one_piece


@pytest.mark.parametrize("tie_tol", [0.0, 1e-10, 0.25])
@pytest.mark.parametrize("n", range(2, 11))
def test_lone_form_is_the_list_rules_one_pair(n, tie_tol):
    # the sparsity projector, and with each one-piece set C: C's projector,
    # both DR operators, and the composites of their DR ring and projectors
    rng = np.random.default_rng(n)
    others = one_piece_kinds(n, rng)
    ties = 0
    for s in range(n):
        S = sets.sparsity_set(n, s)
        maps = [sets.project_union(S, tie_tol)]
        for C in others.values():
            maps += [sets.project_union(C, tie_tol), sets.dr_operator(C, S, tie_tol),
                     sets.dr_operator(S, C, tie_tol),
                     compose(solvers.dr_ring([C, S], tie_tol)),
                     compose(solvers.projectors([C, S], tie_tol))]
        for x in lone_points(n, s, tie_tol, rng):
            ties += maps[0]._lone(x) is None
            for T in maps:
                assert T._lone is not None
                assert_lone_is_the_one_pair(T, x)
    assert ties >= n - 1  # the planted gaps of tie_tol / 2, at least


def test_a_sparsity_rule_builds_only_tied_pieces():
    # the lone form builds no piece; the rule builds the band scan's
    # supports at a tie, and none where the gap test passes
    rng = np.random.default_rng(7)
    for n, s in ((6, 2), (8, 3), (10, 1)):
        for x in lone_points(n, s, 1e-10, rng):
            lone, listed = sets.sparsity_set(n, s), sets.sparsity_set(n, s)
            pairs = listed._nearest(x, 1e-10)
            tied = lone._lone(1e-10, x) is None
            assert not lone.pieces._built and (len(pairs) > 1) == tied
            assert list(listed.pieces._built) == ([k for k, _ in pairs] if tied else [])


def test_a_nan_projection_raises_at_a_lone_step_as_evaluate_does():
    def project(x):
        return np.full(x.shape, np.nan) if x[0] > 1.0 else np.array(x)

    C = sets.UnionConvexSet({0: sets.ConvexSetPiece(project, "nan", np.zeros(2))})
    x = np.array([2.0, 0.5])
    for T in (sets.project_union(C), sets.dr_operator(C, sets.sparsity_set(2, 1)),
              compose(solvers.projectors([sets.sparsity_set(2, 1), C]))):
        assert T._lone is not None and T._lone(x) is None
        with pytest.raises(EmptySelectionError) as want:
            T.evaluate(x)
        with pytest.raises(EmptySelectionError) as got:
            solvers._pick(0, x, solvers._Chooser(SelectionPolicy()), T)
        assert str(got.value) == str(want.value)
