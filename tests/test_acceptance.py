"""Acceptance suite: end-to-end criteria at pinned tolerances.

Each test prints a single pass/fail line.  Seeds are frozen, so every run
is deterministic; failures indicate a real regression, not sampling noise.
"""

import math
import time

import numpy as np
import pytest

from unionfix import cli, minconvex as mc, oracle, sets, solvers
from unionfix.core_ops import (
    AveragedMap,
    combination_alpha,
    compose,
    composition_alpha,
    convex_combination,
    from_map,
    union_of,
)
from unionfix.minconvex import MinConvexFn
from unionfix.oracle import GridSpec
from unionfix.solvers import Schedule, SelectionPolicy, SmoothFn, StopRule


def report(number, name, ok):
    print(f"[acceptance] criterion {number} ({name}): "
          f"{'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


# ---------------------------------------------------------------------------
# Randomized min-convex corpus shared by criteria 1 and 2
# ---------------------------------------------------------------------------

def random_piece(rng, dim):
    kind = rng.integers(5)
    if kind == 0:
        A = rng.normal(size=(dim, dim))
        Q = A @ A.T + 0.1 * np.eye(dim)
        return mc.quadratic(Q, rng.normal(size=dim))
    if kind == 1:
        return mc.scaled_l1(float(rng.uniform(0.2, 2.0)))
    if kind == 2:
        return mc.scaled_l2(float(rng.uniform(0.2, 2.0)))
    if kind == 3:
        center = rng.uniform(-2.0, 2.0, size=dim)
        half = rng.uniform(0.5, 2.0, size=dim)
        return mc.indicator_box(center - half, center + half)
    center = rng.uniform(-2.0, 2.0, size=dim)
    return mc.indicator_ball(center, float(rng.uniform(0.8, 2.5)))


def corpus():
    """50 randomized 1D/2D min-convex instances with a probe point each."""
    rng = np.random.default_rng(20240817)
    instances = []
    for k in range(50):
        dim = 1 if k < 30 else 2
        pieces = [random_piece(rng, dim) for _ in range(int(rng.integers(2, 4)))]
        x = rng.uniform(-3.0, 3.0, size=dim)
        instances.append((MinConvexFn(pieces), x))
    return instances


def test_criterion_1_prox_oracle_equivalence():
    """prox_union agrees with brute-force grid minimization.

    Guaranteed direction: every brute near-minimizer lies within the
    strong-convexity cluster radius sqrt(2*gamma*tol) + one cell diameter
    of the prox of a piece whose envelope is within tol of the minimum;
    and the exact envelope never exceeds the grid minimum.
    """
    start = time.monotonic()
    ok = True
    for f, x in corpus():
        dim = x.size
        grid = GridSpec(bounds=((-6.0, 6.0),) * dim, points=601 if dim == 1 else 121)
        for gamma in (0.1, 1.0, 10.0):
            brute = oracle.brute_force_prox(f, gamma, x, grid)
            env = mc.envelope(f, gamma, x)
            if env > brute.min_objective + 1e-9:
                ok = False
            near = [
                np.asarray(p.prox(gamma, x))
                for p in f.pieces
                if mc.piece_envelope(p, gamma, x) <= env + brute.tolerance
            ]
            cluster = math.sqrt(2.0 * gamma * brute.tolerance) + grid.cell_diameter
            for q in brute.points:
                if min(float(np.linalg.norm(q - p)) for p in near) > cluster:
                    ok = False
    elapsed = time.monotonic() - start
    report(1, "prox-oracle equivalence", ok and elapsed < 60.0)


def test_criterion_2_envelope_law():
    """Envelope of the minimum equals the minimum of piece envelopes."""
    rng = np.random.default_rng(7)
    ok = True
    for f, x0 in corpus():
        xs = rng.uniform(-4.0, 4.0, size=(1000, x0.size))
        for x in xs:
            per_piece = []
            for p in f.pieces:
                y = np.asarray(p.prox(1.0, x))
                per_piece.append(
                    float(p.value(y)) + float(np.dot(x - y, x - y)) / 2.0
                )
            if abs(mc.envelope(f, 1.0, x) - min(per_piece)) > 1e-12:
                ok = False
    report(2, "envelope law", ok)


def test_criterion_3_alpha_arithmetic():
    """Combinator alphas match the closed forms; composites satisfy the
    sampled averagedness inequality."""
    ok = composition_alpha([0.5, 0.5]) == 2.0 / 3.0
    ok &= combination_alpha([0.5, 1.0 / 3.0], [0.25, 0.75]) == pytest.approx(
        3.0 / 8.0, abs=1e-15
    )
    P1 = sets.project_union(sets.span_set(np.array([[1.0], [0.0]])))
    P2 = sets.project_union(sets.span_set(np.array([[1.0], [1.0]])))
    composites = [
        compose([P1, P2]),
        convex_combination([P1, P2], [0.3, 0.7]),
        union_of([P1, P2]),
    ]
    ok &= composites[0].alpha == 2.0 / 3.0
    ok &= composites[1].alpha == pytest.approx(0.5, abs=1e-15)
    ok &= composites[2].alpha == 0.5
    region = ([-5.0, -5.0], [5.0, 5.0])
    for T in composites:
        rep = oracle.sample_inequality(T, T.alpha, region, pairs=10_000, seed=1)
        ok &= rep.max_violation <= 1e-9
    report(3, "alpha arithmetic", ok)


def test_criterion_4_km_admissible_control():
    """Random subspace projector families in R^5 under admissible control
    with lambda = 1/2: convergence to the common point 0 with Fejer
    monotonicity at every step."""
    rng = np.random.default_rng(42)
    ok = True
    stop = StopRule(residual_fn=lambda x: float(np.linalg.norm(x)),
                    residual_tol=1e-9, max_iters=10_000)
    for family in range(20):
        maps = []
        for _ in range(3):
            k = int(rng.integers(1, 3))
            basis, _ = np.linalg.qr(rng.normal(size=(5, k)))
            maps.append(AveragedMap(
                lambda x, B=basis: B @ (B.T @ x), alpha=0.5
            ))
        control = solvers.ControlSequence.seeded_random([0, 1, 2], seed=family)
        x0 = rng.normal(size=5)
        trace = solvers.km_admissible(
            maps, control, Schedule.constant(0.5), x0, stop
        )
        if trace.status != "converged" or np.linalg.norm(trace.x_final) > 1e-8:
            ok = False
        norms = [np.linalg.norm(x) for x in trace.iterates]
        if not all(b <= a + 1e-12 for a, b in zip(norms, norms[1:])):
            ok = False
    report(4, "KM admissible control", ok)


def test_criterion_5_local_convergence():
    """Starts inside the oracle-estimated attraction ball converge to a
    fixed point inside that ball: 100/100 per instance."""
    two_points = mc.prox_union(
        MinConvexFn([mc.indicator_singleton([0.0]),
                     mc.indicator_singleton([2.0])]),
        1.0,
    )
    sparsity = sets.project_union(sets.sparsity_set(2, 1))
    cases = [
        (two_points, np.array([0.0]), 3.0),
        (two_points, np.array([2.0]), 3.0),
        (sparsity, np.array([1.0, 0.0]), 2.0),
    ]
    ok = True
    for T, xstar, delta_max in cases:
        est = oracle.estimate_radius(T, xstar, delta_max, samples=2000, seed=0)
        rng = np.random.default_rng(99)
        for _ in range(100):
            d = rng.standard_normal(xstar.size)
            d /= np.linalg.norm(d)
            # the estimate is sampled and can overshoot by ~0.1%; keep
            # starts at 99.5% of it so they are inside the true ball
            x0 = xstar + 0.995 * est.radius * float(rng.random()) * d
            trace = solvers.iterate_union(
                T, Schedule.constant(1.0), SelectionPolicy(), x0,
                StopRule(max_iters=1000),
            )
            cls = trace.meta.get("classification")
            if trace.status != "converged" or cls is None or not cls.is_fixed:
                ok = False
            elif np.linalg.norm(trace.x_final - xstar) > est.radius + 1e-9:
                ok = False
    report(5, "local convergence inside attraction balls", ok)


def test_criterion_6_sparse_affine_feasibility():
    """Alternating projections recover the known 1-sparse solution."""
    A = np.array([[1.0, 0.5, 0.5, 0.5]])
    b = np.array([1.0])
    xstar = np.array([1.0, 0.0, 0.0, 0.0])
    C1 = sets.sparsity_set(4, 1)
    C2 = sets.affine_set(A, b)
    rng = np.random.default_rng(13)
    ok = True
    for _ in range(10):
        noise = rng.standard_normal(4)
        x0 = xstar + 0.009 * noise / np.linalg.norm(noise)
        trace = solvers.cyclic_projections(
            [C1, C2], x0, stop=StopRule(max_iters=500)
        )
        xbar = trace.x_final
        if trace.status != "converged":
            ok = False
        if np.linalg.norm(A @ xbar - b) > 1e-9:
            ok = False
        # exact support recovery: all mass on coordinate 0
        if not (abs(xbar[0]) > 0.5 and np.all(np.abs(xbar[1:]) <= 1e-8)):
            ok = False
    report(6, "sparse affine feasibility", ok)


def test_criterion_7_cadr_shadow():
    """Anchored Douglas-Rachford with a convex anchor: the shadow point is
    feasible for every set, for starts near a common point."""
    C1 = sets.span_set(np.array([[1.0], [0.0]]))  # line x2 = 0 (anchor)
    C2 = sets.union_of_sets(
        [sets.singleton_set([0.0, 0.0]), sets.singleton_set([5.0, 5.0])]
    )
    C3 = sets.ball_set([0.0, 0.0], 1.0)
    rng = np.random.default_rng(21)
    ok = True
    for _ in range(25):
        x0 = 0.05 * rng.standard_normal(2)
        trace = solvers.cadr([C1, C2, C3], x0, stop=StopRule(max_iters=2000))
        if trace.status != "converged" or not trace.meta.get("shadow_feasible"):
            ok = False
        elif max(trace.meta["shadow_distances"]) > 1e-8:
            ok = False
    report(7, "anchored DR shadow feasibility", ok)


def test_criterion_8_fb_drs_classification():
    """Forward-backward and Douglas-Rachford limits classify correctly and
    strong-fixed limits are local minima of f + g."""
    fs = SmoothFn(value=lambda x: 0.5 * float(x @ x), grad=lambda x: x,
                  lipschitz=1.0)
    g = MinConvexFn(
        [mc.indicator_singleton([-1.0]), mc.indicator_singleton([1.0])]
    )
    fq = MinConvexFn([mc.quadratic([[1.0]], [0.0])])
    ok = True

    # forward-backward around each strong fixed point +-1
    T_fb = solvers.fb_operator(fs, g, 0.5)
    for xstar in (np.array([-1.0]), np.array([1.0])):
        est = oracle.estimate_radius(T_fb, xstar, 3.0, samples=2000, seed=0)
        rng = np.random.default_rng(5)
        for _ in range(50):
            x0 = xstar + est.radius * float(rng.uniform(-1, 1))
            trace = solvers.forward_backward(
                fs, g, 0.5, Schedule.constant(1.0), SelectionPolicy(), x0,
                StopRule(),
            )
            cls = trace.meta.get("classification")
            if (trace.status != "converged" or cls is None
                    or cls.kind != "strong-fixed"
                    or cls.consistent is not True
                    or not trace.meta.get("local_min")):
                ok = False

    # Douglas-Rachford, gamma = 0.5: strong fixed points at +-1.5
    T_dr = solvers.drs_operator(fq, g, 0.5)
    for xstar in (np.array([-1.5]), np.array([1.5])):
        est = oracle.estimate_radius(T_dr, xstar, 3.0, samples=2000, seed=0)
        rng = np.random.default_rng(6)
        for _ in range(50):
            x0 = xstar + est.radius * float(rng.uniform(-1, 1))
            trace = solvers.douglas_rachford(
                fq, g, 0.5, Schedule.constant(1.0), SelectionPolicy(), x0,
                StopRule(),
            )
            cls = trace.meta.get("classification")
            if (trace.status != "converged" or cls is None
                    or cls.kind != "strong-fixed"
                    or cls.consistent is not True
                    or not trace.meta.get("shadow_local_min")):
                ok = False

    # gamma = 1 degenerates: 2 prox_f - Id = 0, so the g-selector ties
    # everywhere and the limits are fixed but not strong
    rep = oracle.verify_fixed_classification(
        solvers.drs_operator(fq, g, 1.0), [2.0]
    )
    ok &= rep.kind == "fixed" and not rep.singleton and rep.consistent
    report(8, "FB and DRS classification", ok)


def test_criterion_9_determinism(tmp_path):
    """Identical config and seed give byte-identical trace files."""
    ok = True
    for preset in sorted(cli.PRESETS):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / preset / sub
            code = cli.main(["run", preset, "--out", str(out), "--quiet"])
            if code != 0:
                ok = False
            outs.append((out / f"{preset}.jsonl").read_bytes())
        if outs[0] != outs[1]:
            ok = False
    report(9, "byte-identical trace replays", ok)
