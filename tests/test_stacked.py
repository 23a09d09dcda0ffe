"""The stacked piece kernels of ``prox_union`` against the pieces' own calls.

``prox_union`` evaluates the catalog's quadratics and singleton indicators
of one dimension in one numpy call per kind.  Both of its rules, the scalar
``_pairs`` and the batched ``_rule_rows``, must give the pairs of the frozen
per-piece rule below, which calls every piece through ``_prox_envelope``
as the rule did before kernels: same keys in piece order, same points under
``tobytes`` (signed zeros count).
"""

import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest

from unionfix import minconvex as mc
from unionfix.core_ops import _near_min
from unionfix.minconvex import ConvexPiece, MinConvexFn


def frozen_pairs(f, gamma, x, tie_tol=1e-10):
    """The active (index, prox) pairs, every piece called on its own."""
    found = [mc._prox_envelope(p, gamma, x) for p in f.pieces]
    envs = mc._no_nan(f, [e for _, e in found], "envelope", x)
    return _near_min([(i, p) for i, (p, _) in enumerate(found)], envs, tie_tol)


def assert_rules_frozen(f, gamma, X, tie_tol=1e-10):
    """Both rules of prox_union(f, gamma) equal the frozen rule at every
    row of X; returns the number of rows with a tie."""
    T = mc.prox_union(f, gamma, tie_tol)
    want = [(r, i, p) for r, x in enumerate(X) for i, p in frozen_pairs(f, gamma, x, tie_tol)]
    for r, x in enumerate(X):
        got = T._pairs(x)
        mine = [(i, p) for s, i, p in want if s == r]
        assert [i for i, _ in got] == [i for i, _ in mine], (r, x)
        assert [p.tobytes() for _, p in got] == [p.tobytes() for _, p in mine], (r, x)
    rows, keys, P = T._rule_rows(X)
    assert rows.tolist() == [r for r, _, _ in want]
    assert repr(keys) == repr([i for _, i, _ in want])
    assert [p.tobytes() for p in P] == [p.tobytes() for _, _, p in want]
    return int((np.bincount(rows) > 1).sum())


def assert_kernels_frozen(f, gamma, X):
    """Every group kernel's proxes and envelopes at the rows of X equal the
    piece's own prox and envelope through ``_prox_envelope``."""
    for keys, kernel in mc._Groups(f, gamma):
        if kernel is None:
            continue
        P, E = kernel(X)
        for j, i in enumerate(keys):
            for r, x in enumerate(X):
                p, e = mc._prox_envelope(f.pieces[i], gamma, x)
                assert P[j, r].tobytes() == p.tobytes(), (i, r)
                assert E[j, r].tobytes() == np.float64(e).tobytes(), (i, r)


def kernel_keys(f, gamma=1.0):
    """The piece keys of each group that runs a kernel."""
    return [keys for keys, kernel in mc._Groups(f, gamma) if kernel is not None]


def random_quadratic(rng, d):
    A = rng.normal(size=(d, d))
    return mc.quadratic(A @ A.T + 0.1 * np.eye(d), rng.normal(size=d),
                        float(rng.uniform(0.0, 2.0)))


def pieces(kind, d, m, rng):
    if kind == "quadratic":
        return [random_quadratic(rng, d) for _ in range(m)]
    return [mc.indicator_singleton(rng.uniform(-2.0, 2.0, size=d)) for _ in range(m)]


def block(d, rng, count=40):
    """Generic rows, a row of signed zeros and one far row."""
    return np.vstack([rng.normal(size=(count, d)) * 2.0, np.full((1, d), -0.0),
                      np.full((1, d), 1e3)])


class TestKernelsEqualThePieces:
    @pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("m", [1, 2, 8])
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 20])
    @pytest.mark.parametrize("kind", ["quadratic", "singleton"])
    def test_homogeneous(self, kind, d, m, gamma):
        rng = np.random.default_rng([d, m, int(10 * gamma), kind == "quadratic"])
        f = MinConvexFn(pieces(kind, d, m, rng))
        assert kernel_keys(f) == [list(range(m))]
        X = block(d, rng)
        assert_kernels_frozen(f, gamma, X)
        assert_rules_frozen(f, gamma, X)

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 20])
    def test_singleton_midpoints_tie(self, d):
        # integer points: each midpoint is exactly equidistant from its pair
        rng = np.random.default_rng(d)
        points = rng.integers(-4, 5, size=(8, d)).astype(float)
        f = MinConvexFn([mc.indicator_singleton(p) for p in points])
        X = np.vstack([(points[i] + points[j]) / 2.0
                       for i in range(8) for j in range(i + 1, 8)])
        for gamma, tie_tol in ((0.1, 0.0), (1.0, 1e-10), (10.0, 0.25)):
            assert assert_rules_frozen(f, gamma, X, tie_tol) > 0

    def test_two_quadratics_ppa_tie(self):
        # the preset's pieces: x^2 and (x - 2)^2, whose envelopes tie at
        # x = 1 within the default tie_tol (their roundings differ)
        f = MinConvexFn([mc.quadratic([[2.0]], [0.0]),
                         mc.quadratic([[2.0]], [-4.0], c=4.0)])
        X = np.array([[1.0], [1.6], [0.4], [-0.0], [2.0], [1.0 + 1e-12]])
        assert assert_rules_frozen(f, 1.0, X) == 2
        assert assert_rules_frozen(f, 1.0, X, tie_tol=0.0) == 0


class TestGroups:
    def mixed(self, d, rng):
        """quadratic, l1, singleton, quadratic, singleton, l2, singleton."""
        return MinConvexFn([
            random_quadratic(rng, d), mc.scaled_l1(0.4),
            mc.indicator_singleton(rng.uniform(-1.0, 1.0, size=d)),
            random_quadratic(rng, d),
            mc.indicator_singleton(rng.uniform(-1.0, 1.0, size=d)),
            mc.scaled_l2(0.3), mc.indicator_singleton(np.zeros(d))])

    @pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_mixed_kinds_keep_piece_order(self, d, gamma):
        rng = np.random.default_rng(d)
        f = self.mixed(d, rng)
        assert kernel_keys(f) == [[0, 3], [2, 4, 6]]
        X = np.vstack([block(d, rng), np.zeros((1, d))])
        assert_kernels_frozen(f, gamma, X)
        assert_rules_frozen(f, gamma, X)
        assert_rules_frozen(f, gamma, X, tie_tol=1e9)  # every piece active

    def test_pieces_of_another_dimension_form_their_own_group(self):
        f = MinConvexFn([mc.indicator_singleton([0.0]),
                         mc.indicator_singleton([1.0, 1.0]),
                         mc.indicator_singleton([2.0])])
        assert kernel_keys(f) == [[0, 2], [1]]

    @staticmethod
    def replaced(piece, field):
        """The piece with one callback replaced by an equal one, counted."""
        calls = []
        old = getattr(piece, field)

        def new(*args):
            calls.append(1)
            return old(*args)

        return dataclasses.replace(piece, **{field: new}), calls

    @pytest.mark.parametrize("field", ["value", "prox", "value_many", "prox_many"])
    @pytest.mark.parametrize("kind", ["quadratic", "singleton"])
    def test_a_replaced_callback_is_not_stacked(self, kind, field):
        rng = np.random.default_rng(5)
        ps = pieces(kind, 3, 4, rng)
        ps[2], calls = self.replaced(ps[2], field)
        f = MinConvexFn(ps)
        assert kernel_keys(f) == [[0, 1, 3]]
        assert_rules_frozen(f, 1.0, block(3, rng))
        assert calls  # the replacement ran, on one path or both

    def test_a_replaced_value_is_what_the_rules_use(self):
        # the replaced value moves piece 1 up by 10: it is never active,
        # where the catalog quadratic's own value would tie with piece 0
        q = mc.quadratic([[2.0]], [0.0])
        shifted = dataclasses.replace(q, value=lambda x: q.value(x) + 10.0,
                                      value_many=None)
        T = mc.prox_union(MinConvexFn([q, shifted]), 1.0)
        X = np.linspace(-2.0, 2.0, 9)[:, None]
        assert all([i for i, _ in T._pairs(x)] == [0] for x in X)
        assert T._rule_rows(X)[1] == [0] * len(X)

    def test_a_wrapper_that_copies_the_tag_is_not_stacked(self):
        q = mc.quadratic([[2.0]], [0.0])
        wrapped = dataclasses.replace(q, prox=functools.wraps(q.prox)(
            lambda gamma, x: q.prox(gamma, x)))
        assert wrapped.prox.stack is q.prox.stack  # the tag was copied
        assert kernel_keys(MinConvexFn([q, wrapped])) == [[0]]

    def test_active_selector_takes_the_groups(self):
        rng = np.random.default_rng(2)
        f = self.mixed(3, rng)
        for x in block(3, rng):
            assert mc.active_selector(f, 1.0, x) == [i for i, _ in frozen_pairs(f, 1.0, x)]


class TestErrors:
    @pytest.mark.parametrize("Q, b", [([[1.0]], [-1e308]), ([[1e308]], [0.0])],
                             ids=["gamma-b", "gamma-Q"])
    def test_a_gamma_that_overflows_a_quadratic_is_refused(self, Q, b):
        # gamma b or I + gamma Q overflows, so every prox of the piece would:
        # refused when the prox is built, naming the piece, without a warning
        f = MinConvexFn([mc.indicator_singleton([0.0]), mc.quadratic([[1.0]], [0.0]),
                         mc.quadratic(Q, b), mc.quadratic(Q, b)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"gamma = 10\.0 overflows quadratic "
                                                 r"piece 2: I \+ gamma Q or gamma b"):
                mc.prox_union(f, 10.0)
            mc.prox_union(f, 1.0)  # both fit

    @pytest.mark.parametrize("b", [-1e307], ids=["x-minus-gamma-b"])
    def test_non_finite_prox_raises_on_both_paths(self, b):
        # x - gamma b overflows: the quadratic's own prox is infinite
        q = mc.quadratic([[1.0]], [b])
        T = mc.prox_union(MinConvexFn([mc.indicator_singleton([0.0]), q]), 10.0)
        X = np.array([[0.0], [1e308]])
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="entries must be finite"):
                T._pairs(X[1])
            with pytest.raises(ValueError, match="entries must be finite"):
                T._rule_rows(X)

    def test_the_first_failing_piece_raises_as_without_kernels(self):
        def boom(gamma, x):
            raise RuntimeError("boom")

        bad = ConvexPiece(value=lambda x: 0.0, prox=boom, label="boom")
        q = mc.quadratic([[1.0]], [-1e307])  # x - gamma b overflows
        x = np.array([1e308])
        with np.errstate(over="ignore"):
            for ps, error in (([q, bad], ValueError), ([bad, q], RuntimeError)):
                T = mc.prox_union(MinConvexFn(ps), 10.0)
                with pytest.raises(error):
                    frozen_pairs(MinConvexFn(ps), 10.0, x)
                with pytest.raises(error):
                    T._pairs(x)

    def test_nan_envelope_names_the_piece(self):
        nan = ConvexPiece(value=lambda x: math.nan, prox=lambda gamma, x: x, label="nan")
        f = MinConvexFn([mc.indicator_singleton([1.0]), nan,
                         mc.quadratic([[1.0]], [0.0])])
        T = mc.prox_union(f, 1.0)
        with pytest.raises(ValueError, match=r"piece 1 \('nan'\).*NaN envelope"):
            T._pairs(np.array([0.5]))
        with pytest.raises(ValueError, match=r"piece 1 \('nan'\).*NaN envelope"):
            T._rule_rows(np.array([[0.5], [2.0]]))


class TestOneRowSelection:
    """Every block selects in numpy, one row included: at every row x,
    ``_pairs(x)``, the block rule on the one row x[None] (these functions
    have no lone form), is row 0 of ``_rule_rows`` on x stacked with
    another row, keys and points bit for bit, and a NaN envelope raises the
    same error on both."""

    @staticmethod
    def f(*extra):
        """l1, quadratic, singleton, quadratic, singleton (then ``extra``),
        in one dimension: its kernels take the pieces out of key order.  At
        x = 3 the singletons and the second quadratic, whose minimum 0.5 is
        at 3, tie exactly (gamma = 1); at x = +-0 the l1 piece and the first
        quadratic, whose minimum is at 0, tie at an envelope of 0."""
        return MinConvexFn([
            mc.scaled_l1(1.0), mc.quadratic([[2.0]], [0.0]),
            mc.indicator_singleton([2.0]), mc.quadratic([[2.0]], [-6.0], c=9.5),
            mc.indicator_singleton([4.0]), *extra])

    @staticmethod
    def row_pairs(T, X, row):
        rows, keys, P = T._rule_rows(X)
        return [(keys[k], P[k]) for k in np.flatnonzero(rows == row)]

    @pytest.mark.parametrize("tie_tol", [0.0, 1e-10, 0.75])
    def test_pairs_are_row_zero_of_a_block(self, tie_tol):
        f = self.f()
        T = mc.prox_union(f, 1.0, tie_tol)
        assert mc._Groups(f, 1.0).position is not None
        rows = [[3.0], [3.0 + 1e-12], [3.0 - 1e-12], [0.0], [-0.0], [1e-300],
                [-2.5], [5.0], [1e3]]
        ties = 0
        for x, y in zip(rows, rows[1:] + rows[:1]):
            x, y = np.array(x), np.array(y)
            got = T._pairs(x)
            want = self.row_pairs(T, np.stack([x, y]), 0)
            assert [i for i, _ in got] == [i for i, _ in want], (x, tie_tol)
            assert [p.tobytes() for _, p in got] == [p.tobytes() for _, p in want]
            ties += len(got) > 1
        assert ties >= (4 if tie_tol else 3)  # exact ties count at tie_tol 0

    def test_exact_and_near_ties(self):
        T = mc.prox_union(self.f(), 1.0, 0.0)
        assert [i for i, _ in T._pairs(np.array([3.0]))] == [2, 3, 4]
        assert [i for i, _ in T._pairs(np.array([-0.0]))] == [0, 1]
        near = mc.prox_union(self.f(), 1.0, 1e-10)
        assert [i for i, _ in near._pairs(np.array([3.0 + 1e-12]))] == [2, 3, 4]
        # the points keep their signed zeros: those of the pieces' own proxes
        for x in (np.array([-0.0]), np.array([0.0])):
            assert [p.tobytes() for _, p in T._pairs(x)] == [
                p.tobytes() for _, p in frozen_pairs(self.f(), 1.0, x, 0.0)]

    def test_a_nan_envelope_raises_alike(self):
        def nan_piece(label):
            return ConvexPiece(value=lambda x: math.nan, prox=lambda gamma, x: x,
                               label=label)

        T = mc.prox_union(self.f(nan_piece("first"), nan_piece("second")), 1.0)
        x, y = np.array([3.0]), np.array([-1.0])
        with pytest.raises(ValueError) as one:
            T._pairs(x)
        with pytest.raises(ValueError) as block:
            T._rule_rows(np.stack([x, y]))
        assert str(one.value) == str(block.value)
        assert str(one.value).startswith("piece 5 ('first')")
