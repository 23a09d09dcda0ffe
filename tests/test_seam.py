"""The arithmetic seam: every BLAS-routed product of the library is a kernel
of ``unionfix.projections`` (a point form and a block form whose rows are
bit for bit the point form), and no other module calls the numpy forms."""

import ast
import itertools
import pathlib
import warnings

import numpy as np
import pytest

from unionfix import minconvex as mc, projections as pj, sets, solvers
from unionfix.core_ops import AveragedMap
from unionfix.solvers import ControlSequence, Schedule, StopRule

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "unionfix"

#: numpy products that only the kernels may call: as ``np.<name>``
#: (``dot`` as any ``.dot(`` method too), ``np.linalg.<name>``, or the
#: ``@`` operator
PRODUCTS = {"dot", "vdot", "vecdot", "matvec", "vecmat", "inner", "matmul", "einsum"}
LINALG = {"solve", "norm"}

#: (module, call) -> why the call stays outside the seam
EXEMPT = {
    ("oracle.py", "np.linalg.norm(dirs, axis=1, keepdims=True)"):
        "the ball sampler's normalisation is numpy's own row reduction, not "
        "a BLAS product; the sweep digests and acceptance radii hold its bits",
    ("cli.py", "np.linalg.norm(Q, 2)"):
        "a smooth term's Lipschitz constant is the spectral norm of Q, an "
        "SVD with no point or block form",
}


def _numpy(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id in ("np", "numpy")


def seam_calls(tree: ast.AST):
    """Every product call, ``@`` and numpy product import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            f = node.func
            if (f.attr == "dot" or (f.attr in PRODUCTS and _numpy(f.value))
                    or (f.attr in LINALG and isinstance(f.value, ast.Attribute)
                        and f.value.attr == "linalg" and _numpy(f.value.value))):
                yield node
        elif (isinstance(node, ast.ImportFrom)
              and node.module in ("numpy", "numpy.linalg")
              and {a.name for a in node.names} & (PRODUCTS | LINALG)):
            yield node


def test_no_product_outside_the_seam():
    found, exempt_seen = [], set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "projections.py":
            continue
        for node in seam_calls(ast.parse(path.read_text())):
            key = (path.name, ast.unparse(node))
            if key in EXEMPT:
                exempt_seen.add(key)
            else:
                found.append(f"{path.name}:{node.lineno}: {key[1]}")
    assert not found, "products outside unionfix.projections:\n" + "\n".join(found)
    assert exempt_seen == set(EXEMPT), "stale exemptions"


def test_the_scan_sees_each_form():
    src = ("np.dot(a, b); M.dot(x); x @ Q; y @= Q; np.vecdot(X, a); "
           "np.linalg.solve(M, r); numpy.linalg.norm(x); np.einsum('i,i', a, b)\n"
           "from numpy import vdot\n"
           "projections.norm(x); projections._dot(a, b); np.sum(x)")
    assert len(list(seam_calls(ast.parse(src)))) == 9


# ---------------------------------------------------------------------------
# Kernel contract: block row k is bit for bit the point form of row k
# ---------------------------------------------------------------------------

DIMS = [1, 2, 3, 8, 20]
HEIGHTS = [1, 7, 1024]


def rows(d: int, n: int, far: bool = False) -> np.ndarray:
    """n seeded rows of length d over many scales, signed zeros first; with
    ``far``, rows whose sum of squares overflows and an infinite row too."""
    rng = np.random.default_rng([d, n, far])
    X = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-8, 9, size=(n, 1))
    edge = [np.zeros(d), -np.zeros(d), np.where(np.arange(d) % 2, -0.0, 0.0)]
    if far:
        edge += [np.full(d, 1e200), np.full(d, -1e300), np.full(d, np.inf)]
    X[:len(edge)] = edge[:n]
    return X


def same_rows(block: np.ndarray, points) -> None:
    points = list(points)
    assert len(block) == len(points)
    for k, (got, want) in enumerate(zip(block, points)):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), k


def silently(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(*args)


@pytest.mark.parametrize("d,n", list(itertools.product(DIMS, HEIGHTS)))
class TestKernelContract:
    """Each point form is taken on the block's row and on a copy of it."""

    def test_sum_of_squares(self, d, n):
        X = rows(d, n, far=True)
        block = silently(pj._sumsq_rows, X)
        same_rows(block, (silently(pj._sumsq, x) for x in X))
        same_rows(block, (pj._sumsq(x.copy()) for x in X))
        stacked = silently(pj._sumsq_rows, np.stack([X, X[::-1]]))
        same_rows(stacked[1], (pj._sumsq(x.copy()) for x in X[::-1]))

    def test_norms(self, d, n):
        X = rows(d, n, far=True)
        block = silently(pj.row_norms, X)
        same_rows(block, (silently(pj.norm, x) for x in X))
        same_rows(block, (pj.norm(x.copy()) for x in X))
        if n > 4:  # the rows whose sum of squares overflows
            assert np.isfinite(block[3:5]).all()

    def test_dot(self, d, n):
        X, Y = rows(d, n), rows(d, n)[::-1].copy()
        a = np.random.default_rng(d).normal(size=d)
        same_rows(pj._dot_rows(X, a), (pj._dot(x.copy(), a) for x in X))
        same_rows(pj._dot_rows(X, Y), (pj._dot(x, y) for x, y in zip(X, Y)))
        same_rows(pj._dot_rows(X, -X), (pj._dot(x.copy(), -x) for x in X))

    def test_matvec(self, d, n):
        X = rows(d, n)
        rng = np.random.default_rng(d)
        # bases as the sets make them: C-ordered, and F-ordered (a null
        # space's transposed rows), each passed with its transpose view
        Q = np.linalg.qr(rng.normal(size=(d, d)))[0]
        for B in (np.ascontiguousarray(Q[:, :max(d // 2, 1)]), Q[max(d // 2, 1):].T):
            Z = pj._matvec_rows(B.T, X)
            same_rows(Z, (pj._matvec(B.T, x.copy()) for x in X))
            same_rows(pj._matvec_rows(B, Z), (pj._matvec(B, z.copy()) for z in Z))
        for M in (rng.normal(size=(d, d)), rng.normal(size=(1, d)), rng.normal(size=(3, d))):
            same_rows(pj._matvec_rows(M, X), (pj._matvec(M, x.copy()) for x in X))

    def test_vecmat(self, d, n):
        X = rows(d, n)
        Q = np.random.default_rng(d).normal(size=(d, d))
        Qs = np.stack([Q, Q.T])[:, None]
        same_rows(pj._vecmat_rows(X, Q), (pj._vecmat(x.copy(), Q) for x in X))
        same_rows(pj._vecmat_rows(X, Qs)[1], (pj._vecmat(x.copy(), Qs[1, 0]) for x in X))

    def test_solve(self, d, n):
        X = rows(d, n)
        A = np.random.default_rng(d).normal(size=(d, d))
        M = np.eye(d) + 0.5 * (A @ A.T)
        same_rows(pj._solve_rows(M, X), (pj._solve(M, x.copy()) for x in X))
        Ms = np.stack([M, np.eye(d) + 2.0 * M])
        R = np.stack([X, X[::-1]])
        same_rows(pj._solve_rows(Ms[:, None], R)[1],
                  (pj._solve(Ms[1], x.copy()) for x in X[::-1]))


class TestBlockTests:
    """The silent sum of squares as a block's finiteness and NaN test."""

    @pytest.mark.parametrize("entry,finite,nan", [
        (1.0, True, False), (1e200, True, False), (np.inf, False, False),
        (-np.inf, False, False), (np.nan, False, True)])
    def test_one_entry_decides(self, entry, finite, nan):
        X = rows(3, 7)
        X[4, 1] = entry
        assert silently(pj._all_finite, X) is finite
        assert silently(pj._has_nan, X) is nan
        assert pj._has_nan(X[4]) is nan


# ---------------------------------------------------------------------------
# Norms of far points through projections.norm: finite differences whose
# sum of squares overflows warn nowhere
# ---------------------------------------------------------------------------

class TestFarPointNorms:
    def test_evaluate_points_of_far_candidates(self):
        T = sets.project_union(sets.union_of_sets(
            [sets.singleton_set([1e200, 0]), sets.singleton_set([-1e200, 0])]))
        points = T.evaluate_points([0, 0])
        assert [p.tolist() for p in points] == [[1e200, 0.0], [-1e200, 0.0]]

    def test_is_local_min_with_a_far_prox(self):
        f = mc.MinConvexFn([mc.scaled_l2(0.0)])
        assert mc.is_local_min(f, [0.0, 0.0], 1e-9, w=[1e200, 0.0]) is False

    def test_km_recurrent_residual_of_a_far_map(self):
        far = AveragedMap(lambda x: np.array([1e200, 0.0]), alpha=0.5)
        trace = solvers.km_admissible(
            [far], ControlSequence.cyclic([0]), Schedule.constant(0.5),
            [1e200, 1e200], StopRule(max_iters=3, residual_fn=lambda x: 0.0))
        assert trace.status == "converged"
        assert trace.meta["recurrent_fixed_residuals"] == {0: 5e199}
        assert trace.meta["fixed_by_recurrent"] is False
