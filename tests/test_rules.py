"""One pass per point: a union map's rule returns its active (index, point)
pairs, each point bit for bit the piece's, so no piece runs twice.

The references below are frozen copies of the two-pass selectors (select
the indices, then evaluate the chosen pieces), written over the members'
public ``selector``, ``pieces``, ``piece_envelope`` and ``distance``, and
over the sparsity sets' C(n, s) magnitude scan (``scan_magnitude_selector``);
the rules must reproduce their index lists, order included.
"""

import dataclasses
import importlib.util
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

from unionfix import cli, minconvex as mc, projections, sets, solvers
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


def assert_lone_is_the_one_pair(T, x, exact: bool = True):
    """T._lone(x) is None where T's batched rule on the one row x[None]
    (``_rule_rows``) raises EmptySelectionError or has other than one pair,
    and that pair, key and bits, where it has one; not ``exact``, it may be
    None there too.  The batched rule is the reference: a combinator's
    scalar rule is its lone form where that has a pair."""
    try:
        _, keys, P = T._rule_rows(x[None])
    except EmptySelectionError:
        keys, P = [], []
    got = T._lone(x)
    if len(keys) != 1 or (got is None and not exact):
        assert got is None
        return
    (key, point), want_key, want = got, keys[0], P[0]
    assert repr(key) == repr(want_key)
    assert point.dtype == want.dtype and point.shape == want.shape
    assert point.tobytes() == want.tobytes()


def test_the_maps_with_a_lone_form():
    # of the maps above, every set's projector and reflector, the prox of a
    # function whose pieces all run in group kernels, the relaxations, DR
    # and forward-backward operators over them, and from_map; union_of,
    # convex_combination and every map over the index selector have none
    assert {label for label, T, _ in CASES if T._lone is not None} == {
        *(f"{kind} projector" for kind in one_piece_sets()), "sparsity projector",
        "union_of_sets projector", "union_of_sets of one-piece sets projector",
        "project_union", "reflect_union", "relax of reflector", "dr_operator",
        "from_map", "prox_union", "relax", "dr_map", "fb_operator",
        "drs_operator"}


def test_a_union_of_sets_lone_form_is_its_scans_one_pair():
    # the union projectors above, their reflectors, and the DR maps and
    # composites that chain them, at the points above: the union of
    # one-piece sets ties at (1, 1), the other union on the diagonals,
    # where its axes member ties too.  The union's lone form scans its
    # members' lone pairs: it is None where a member has none, so that
    # point runs the block rule, and else it is the block rule's one pair
    # where that has one.  A lone form that chains it, where it returns a
    # pair, returns the chain's block rule's one pair
    line = sets.span_set(np.array([[1.0], [2.0]]))
    ties = undecided = 0
    for members in (union_set_members()[0], list(one_piece_sets().values())):
        U = sets.union_of_sets(members)
        maps = [sets.project_union(U), sets.reflect_union(U),
                sets.dr_operator(line, U), sets.dr_operator(U, line),
                compose(solvers.dr_ring([line, U])),
                compose(solvers.projectors([U, line]))]
        for x in POINTS:
            decided = all(m._lone(DEFAULT_TIE_TOL, x) is not None for m in members)
            undecided += not decided
            ties += decided and maps[0]._lone(x) is None
            assert_lone_is_the_one_pair(maps[0], x, exact=decided)
            for T in maps[1:]:
                assert T._lone is not None
                assert_lone_is_the_one_pair(T, x, exact=False)
    assert ties >= 1 and undecided >= 1


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
            solvers._pick(0, x, solvers._Chooser(SelectionPolicy()), T,
                          T._rule_rows, T._lone)
        assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# Lone forms fixed when a set is built
# ---------------------------------------------------------------------------

def flat_sets(n: int, rng) -> dict:
    """Affine and span sets of R^n in each flat form, labelled by kind and
    form."""
    out = {}
    for form, k in (("dense", n // 2), ("direction", 1), ("normal", n - 1)):
        A = rng.normal(size=(n - k, n))
        out[f"affine {form}"] = sets.affine_set(A, A @ rng.normal(size=n))
        out[f"span {form}"] = sets.span_set(rng.normal(size=(n, k)), rng.normal(size=n))
    return out


def closure_of(fn) -> dict:
    """A closure's free variables by name."""
    return dict(zip(fn.__code__.co_freevars, (c.cell_contents for c in fn.__closure__)))


def test_one_piece_catalog_sets_bind_their_kernel():
    # each catalog kind's lone form is the one-piece lone form bound to its
    # kernel, and its pair is the block rule's one pair; a set built from
    # the same piece binds the same lone form to the piece's projection,
    # taken as a float array, and gives the same pair
    rng = np.random.default_rng(11)
    flats = flat_sets(8, rng)
    assert all(S.pieces[0].project.form == label.split()[1] for label, S in flats.items())
    one_piece = sets._one_piece_lone(0, None).__code__
    for label, S in {**one_piece_kinds(8, rng), **flats}.items():
        assert S._lone.__code__ is one_piece, label
        assert closure_of(S._lone) == {"key": 0, "project": S.pieces[0].project}, label
        own = sets.UnionConvexSet({0: S.pieces[0]})
        assert own._lone.__code__ is one_piece
        bound = closure_of(own._lone)
        assert bound["key"] == 0 and bound["project"] is not S.pieces[0].project
        T = sets.project_union(S, DEFAULT_TIE_TOL)
        for x in rng.normal(scale=3.0, size=(6, 8)):
            assert T._lone(x) is not None
            assert_lone_is_the_one_pair(T, x)
            (key, p), (own_key, own_p) = S._lone(0.0, x), own._lone(0.0, x)
            assert key == own_key == 0 and p.tobytes() == own_p.tobytes()


def dense_far_sets(n: int) -> dict:
    """A span and an affine set of R^n in the dense form whose projector
    P has rows with large entries of both signs: span(u, contrasts), u
    with u_0^2 = 1/2, P_00 = 1/2 and P_(2j-1, 2j) about -1/2."""
    u = np.full(n, np.sqrt(0.5 / (n - 1)))
    u[0] = np.sqrt(0.5)
    V = np.zeros((n, n // 2))
    V[:, 0] = u
    for j in range(1, n // 2):
        V[2 * j - 1, j], V[2 * j, j] = np.sqrt(0.5), -np.sqrt(0.5)
    A = projections.complement_basis(projections.orthonormal_basis(V)).T
    return {"span dense": sets.span_set(V),
            "affine dense": sets.affine_set(A, np.zeros(len(A)))}


def test_a_catalog_lone_form_is_none_where_its_projection_holds_a_nan():
    # starts near the largest float, far from each set: a difference
    # x - offset overflows to inf, and an inf times a zero or an inf minus
    # an inf makes a NaN.  The dense form takes no difference; its P x
    # sums inf - inf where the BLAS sums a row in several partial sums (as
    # under SkylakeX and Haswell); a kernel that sums in one pass gives inf
    n, big = 16, 1.797e308
    far = np.full(n, -1e308)
    rng = np.random.default_rng(12)
    catalog = {
        "span direction": sets.span_set(rng.normal(size=(n, 1)), far),
        "span normal": sets.span_set(rng.normal(size=(n, n - 1)), far),
        "affine normal": sets.affine_set(np.eye(n)[:1], [-1e308]),
        "affine direction": sets.affine_set(np.eye(n)[1:], far[1:]),
        **dense_far_sets(n),
        "ball": sets.ball_set(far, 1.0),
        "halfspace": sets.halfspace_set(np.eye(n)[0] * 2.0, 0.0),
        "box": sets.box_set(far, np.zeros(n)),
        "singleton": sets.singleton_set(far),
    }
    starts = [np.full(n, big), big * (-1.0) ** np.arange(n)]
    nan = set()
    with np.errstate(over="ignore", invalid="ignore"):
        for label, S in catalog.items():
            T = sets.project_union(S)
            for x in starts:
                holds_nan = bool(np.isnan(S.pieces[0].project(x)).any())
                assert (T._lone(x) is None) == holds_nan, label
                assert_lone_is_the_one_pair(T, x)
                if not holds_nan:
                    continue
                nan.add(label)
                with pytest.raises(EmptySelectionError) as want:
                    T.evaluate(x)
                with pytest.raises(EmptySelectionError) as got:
                    solvers._pick(0, x, solvers._Chooser(SelectionPolicy()), T,
                                  T._rule_rows, T._lone)
                assert str(got.value) == str(want.value)
    assert [S.pieces[0].project.form for label, S in catalog.items()
            if label.startswith(("span", "affine"))] == [
        "direction", "normal", "normal", "direction", "dense", "dense"]
    assert nan >= {"affine normal", "affine direction", "span direction",
                   "span normal", "ball", "halfspace"}
    assert not nan & {"box", "singleton"}  # a clip or a copy is never NaN


SWITCH = sets.SPARSITY_PARTITION_N
FORMS = {"list": sets._top_s_list, "partition": sets._top_s_partition}


def sparsity_points(n: int, s: int, tie_tol: float, rng) -> list:
    """:func:`lone_points`, with for s >= 1 a point whose s-th and (s+1)-th
    largest magnitudes are one value of both signs (an exact tie), and
    points holding signed zeros: three (at most n) among random entries,
    and all but s - 1 entries zero (m_s = m_(s+1) = 0)."""
    points = lone_points(n, s, tie_tol, rng)
    x = rng.normal(size=n)
    zeros = min(3, n)
    x[rng.choice(n, zeros, replace=False)] = [0.0, -0.0, -0.0][:zeros]
    points.append(x)
    if s:
        x = rng.uniform(0.0, 1.0, n)
        top = rng.choice(n, s + 1, replace=False)
        x[top] = np.r_[rng.uniform(2.5, 3.5, s - 1), 2.0, -2.0]
        points.append(x)
        x = np.array(rng.choice([0.0, -0.0], n))
        x[rng.choice(n, s - 1, replace=False)] = rng.normal(size=s - 1)
        points.append(x)
    return points


@pytest.mark.parametrize("tie_tol", [0.0, 1e-10, 0.25])
@pytest.mark.parametrize("n", [2, 5, SWITCH, SWITCH + 1, 200])
def test_the_two_sparsity_lone_forms_agree(n, tie_tol):
    # the same support (Python ints) and projection bits, or both None
    rng = np.random.default_rng(n)
    passed = failed = 0
    for s in sorted({0, 1, 2, n // 2, n - 1} & set(range(n))):
        for x in sparsity_points(n, s, tie_tol, rng):
            got, want = sets._top_s_partition(n, s, tie_tol, x), \
                sets._top_s_list(n, s, tie_tol, x)
            if want is None:
                assert got is None
                failed += 1
                continue
            assert got[0] == want[0] and all(type(i) is int for i in got[0])
            assert got[1].tobytes() == want[1].tobytes()
            passed += 1
    assert passed and failed


def test_a_sparsity_set_takes_its_lone_form_by_n(monkeypatch):
    assert sets.sparsity_set(SWITCH, 3)._lone.func is sets._top_s_list
    assert sets.sparsity_set(SWITCH + 1, 3)._lone.func is sets._top_s_partition
    # every rung of the sparse ladder keeps the list form; the rungs are
    # read from the benchmark's own table
    spec = importlib.util.spec_from_file_location(
        "ladder", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    ladder = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "ladder", ladder)  # for its dataclasses
    spec.loader.exec_module(ladder)
    for _, n, s, _ in ladder.SPARSE_MIX:
        assert sets.sparsity_set(n, s)._lone.func is sets._top_s_list, (n, s)


@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("n", [SWITCH, SWITCH + 1])
def test_each_sparsity_lone_form_is_the_rules_one_pair(n, form, monkeypatch):
    # the switch moved so that each form is built at n on each side of it
    monkeypatch.setattr(sets, "SPARSITY_PARTITION_N", n - 1 if form == "partition" else n)
    rng = np.random.default_rng(n)
    for tie_tol in (0.0, 1e-10):
        for s in (0, 1, 3, n - 1):
            S = sets.sparsity_set(n, s)
            assert S._lone.func is FORMS[form]
            T = sets.project_union(S, tie_tol)
            for x in sparsity_points(n, s, tie_tol, rng):
                assert_lone_is_the_one_pair(T, x)


# ---------------------------------------------------------------------------
# Lone forms fixed when a prox is built
# ---------------------------------------------------------------------------

def kernel_fns(d: int, rng) -> dict:
    """Min-convex functions of R^d whose pieces all run in group kernels:
    one quadratic, stacked quadratics and singletons with twins (which tie
    wherever the twin is lowest: the quadratics on the side x[0] < 0), one
    singleton, and the two kinds interleaved, so that the groups' order is
    not the pieces'."""
    def quadratic():
        A = rng.normal(size=(d, d))
        return mc.quadratic(A @ A.T + 0.1 * np.eye(d), rng.normal(size=d),
                            float(rng.uniform(0.0, 2.0)))

    def centred(sign):  # ||x - m||^2 about m = sign e_1, less a constant
        m = sign * np.eye(d)[0]
        return mc.quadratic(2.0 * np.eye(d), -2.0 * m, 0.0)

    q1, q2 = quadratic(), quadratic()
    s1, s2, s3 = (mc.indicator_singleton(rng.uniform(-2.0, 2.0, size=d))
                  for _ in range(3))
    return {"one quadratic": MinConvexFn([q1]),
            "stacked quadratics": MinConvexFn([centred(-1.0), centred(1.0),
                                               centred(-1.0)]),
            "singletons": MinConvexFn([s1, s2, s3, s2]),
            "one singleton": MinConvexFn([s1]),
            "interleaved": MinConvexFn([s1, q1, s2, q2, s3])}


def kernel_points(f, d: int, rng) -> list:
    """Random points, the midpoints of the singletons (planted ties), and
    far starts, where a quadratic's value or a singleton's envelope
    overflows (a start of norm 1e200) or the difference to a point does."""
    centres = [p.prox.stack.data[0] for p in f.pieces if p.prox.stack.kind == "singleton"]
    far = np.zeros(d)
    far[0] = 1e200
    return (list(rng.normal(scale=2.0, size=(6, d)))
            + [(a + b) / 2.0 for a, b in itertools.combinations(centres, 2)]
            + [far, -far, 1e200 * rng.normal(size=d), np.full(d, -1.7e308)])


def prox_lone_outcome(T, f, gamma: float, x) -> str:
    """Check T = prox_union(f, gamma)'s lone form at x, which runs silently
    (the suite makes a warning an error): None where some piece's envelope
    (``_prox_envelope``) is not finite, else the one pair of the block rule
    on x[None], key and bits, where that has one, else None; its point is
    the caller's own, so writing into it changes no later pair.  The
    outcome: "refused", "pair" or "tie"."""
    got = T._lone(x)
    with np.errstate(over="ignore", invalid="ignore"):
        envelopes = []
        for p in f.pieces:
            try:
                envelopes.append(mc._prox_envelope(p, gamma, x)[1])
            except ValueError:  # a prox that is not finite
                envelopes.append(np.nan)
    if not all(map(np.isfinite, envelopes)):
        assert got is None
        return "refused"
    _, keys, P = T._rule_rows(x[None])
    if len(keys) != 1:
        assert got is None
        return "tie"
    (key, point), want_key, want = got, keys[0], P[0]
    assert repr(key) == repr(want_key)
    assert point.dtype == want.dtype and point.shape == want.shape
    assert point.tobytes() == want.tobytes()
    point[:] = np.nan
    assert T._lone(x)[1].tobytes() == want.tobytes()
    return "pair"


@pytest.mark.parametrize("tie_tol", [0.0, 1e-10, 0.25])
@pytest.mark.parametrize("d", [1, 3])
def test_a_prox_lone_form_is_the_block_rules_one_pair(d, tie_tol):
    # the lone form selects in the groups' concatenated order, the block
    # rule in piece order: the interleaved function's pairs include some
    # whose key is not its place in the groups' order
    rng = np.random.default_rng(d)
    outcomes, moved = {}, set()
    for name, f in kernel_fns(d, rng).items():
        assert (mc._Groups(f, 1.0).position is not None) == (name == "interleaved")
        order = [i for keys, _ in mc._Groups(f, 1.0) for i in keys]
        for gamma in (0.5, 1.0):
            T = mc.prox_union(f, gamma, tie_tol)
            assert T._lone is not None
            for x in kernel_points(f, d, rng):
                outcome = prox_lone_outcome(T, f, gamma, x)
                outcomes.setdefault(name, set()).add(outcome)
                if outcome == "pair" and order.index(T._lone(x)[0]) != T._lone(x)[0]:
                    moved.add(name)
    # every function takes pairs, those with twins tie, and every one is
    # refused at some far start
    assert all({"pair", "refused"} <= seen for seen in outcomes.values()), outcomes
    assert {name for name, seen in outcomes.items() if "tie" in seen} >= {
        "stacked quadratics", "singletons"}
    assert moved == {"interleaved"}
    # pieces of two groups tie: at a singleton's point its envelope and the
    # zero quadratic's are both 0
    c = rng.normal(size=d)
    f = MinConvexFn([mc.indicator_singleton(c), mc.quadratic(np.zeros((d, d)), np.zeros(d)),
                     mc.indicator_singleton(c + 5.0)])
    assert len(mc._Groups(f, 1.0).groups) == 2
    T = mc.prox_union(f, 1.0, tie_tol)
    assert T._lone(c) is None and T._rule_rows(c[None])[1] == [0, 1]


def test_a_prox_lone_form_refuses_a_row_of_another_dimension():
    # the block rule then raises its own error, which the scalar rule keeps
    rng = np.random.default_rng(5)
    for f in kernel_fns(2, rng).values():
        T = mc.prox_union(f, 1.0)
        for x in (np.ones(1), np.ones(3)):
            assert T._lone(x) is None
            with pytest.raises(ValueError) as want:
                T._rule_rows(x[None])
            with pytest.raises(ValueError) as got:
                T.evaluate(x)
            assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def test_a_prox_has_a_lone_form_only_where_every_piece_runs_in_a_kernel():
    q = mc.quadratic(np.eye(2), [0.0, 1.0])
    assert mc.prox_union(MinConvexFn([q, mc.indicator_singleton([1.0, 0.0])]), 1.0)._lone
    for other in (mc.scaled_l1(1.0), mc.indicator_box([-1.0, -1.0], [1.0, 1.0]),
                  dataclasses.replace(q, value=lambda x: q.value(x))):
        assert mc.prox_union(MinConvexFn([q, other]), 1.0)._lone is None


@pytest.mark.parametrize("d", [1, 3])
def test_a_dr_lone_step_is_the_step_rules_one_candidate(d):
    # Douglas-Rachford maps over two proxes with lone forms, and over a
    # prox and a set: where the lone step is not None it is the one
    # candidate ((i, j), a, b) of the step rule on x[None], bits included,
    # and the map's lone pair is derived from it; it is None wherever the
    # step rule has other than one candidate
    rng = np.random.default_rng(10 + d)
    fns = kernel_fns(d, rng)
    ball = sets.ball_set(np.zeros(d), 1.0)
    maps = [(fns[a], fns[b], None) for a, b in (
        ("one quadratic", "singletons"), ("interleaved", "one quadratic"),
        ("stacked quadratics", "one singleton"))]
    maps.append((fns["singletons"], None, ball))
    taken = ties = 0
    for f, g, C in maps:
        PA = mc.prox_union(f, 0.5)
        PB = sets.project_union(C) if g is None else mc.prox_union(g, 0.5)
        T = dr_map(PA, PB)
        assert T._lone_step is not None
        for x in kernel_points(f, d, rng):
            step = T._lone_step(x)
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    _, keys, A, B = T._step_rows(x[None])
                except ValueError:  # a prox that is not finite
                    keys = None
            if step is None:
                ties += keys is not None and len(keys) > 1
                continue
            taken += 1
            assert len(keys) == 1 and repr(step[0]) == repr(keys[0])
            assert step[1].tobytes() == A[0].tobytes()
            assert step[2].tobytes() == B[0].tobytes()
            key, point = T._lone(x)
            assert key == step[0] and point.tobytes() == (x + step[2] - step[1]).tobytes()
            assert_lone_is_the_one_pair(T, x, exact=False)
    assert taken > 0 and ties > 0
