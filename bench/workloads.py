"""The three benchmark workloads: seeded inputs, ops and correctness gates.

A workload is built once per process from its seed (the set-up) and then
yields rounds of ops.  Round ``r`` draws its inputs from
``numpy.random.default_rng([seed, r])``, so the same seed gives the same
ops, and every round has the same mix of op kinds.  An op's ``call`` is
the timed public call into unionfix; its ``check`` is the correctness gate,
run outside the timed region.

Code under test is always reached through module attributes
(``solvers.cyclic_projections``, never a name imported at load time), so
the span recorder can wrap it.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from unionfix import cli, core_ops, minconvex as mc, oracle, sets, solvers


@dataclass
class Outcome:
    ok: bool
    steps: int = 0  # solver steps, or oracle grid nodes and inequality pairs
    bytes_written: int = 0
    detail: str = ""


@dataclass
class Op:
    label: str  # op class, e.g. "cp-16-3" or "run-ppa"
    call: Callable[[], object]
    check: Callable[[object], Outcome]


def _fail(detail: str, steps: int = 0) -> Outcome:
    return Outcome(ok=False, steps=steps, detail=detail)


# ---------------------------------------------------------------------------
# sparse-ladder: one driver call on sparsity(n, s) and affine(A, b)
# ---------------------------------------------------------------------------

#: (algorithm, n, s, ops per round); m = rows of A.  Six ops per round are
#: cheaper and six dearer than the four cp-12-3 / cdr-12-2 ops, so the median
#: op is usually one of those.
SPARSE_MIX = (
    ("cp", 8, 2, 2), ("cp", 12, 3, 2), ("cp", 16, 3, 2), ("cp", 20, 3, 2),
    ("cadr", 8, 2, 1), ("cadr", 12, 2, 2), ("cadr", 16, 3, 1),
    ("cdr", 8, 2, 1), ("cdr", 12, 2, 2), ("cdr", 16, 3, 1),
)
CP_ROWS = {8: 5, 12: 7, 16: 8, 20: 10}
X_TOL = 1e-6
STRATUM_DRAWS = 5  # planted instances drawn per cosine stratum


def support_cosine(A: np.ndarray, support: np.ndarray) -> float:
    """cos of the Friedrichs angle between span{e_i : i in support} and null(A).

    It sets the local linear rate of the sparse-affine drivers: ops with a
    cosine near 1 take many steps.
    """
    null_basis = np.linalg.svd(A)[2][A.shape[0]:].T
    return float(np.linalg.svd(null_basis[support, :], compute_uv=False)[0])


def stratified_instance(rng, n: int, s: int, m: int, stratum: int, strata: int):
    """A planted instance from cosine stratum ``stratum`` of ``strata``.

    STRATUM_DRAWS * strata instances are drawn and sorted by cosine; the
    middle one of the stratum's slice is returned.  Taking every stratum
    once samples the Gaussian instances evenly across their cosine
    distribution, the worst-conditioned slice included, so the mix of rates
    a run sees repeats from seed to seed.
    """
    candidates = [planted_instance(rng, n, s, m) for _ in range(STRATUM_DRAWS * strata)]
    candidates.sort(key=lambda c: support_cosine(c[0], np.flatnonzero(c[2])))
    return candidates[stratum * STRATUM_DRAWS + STRATUM_DRAWS // 2]


def planted_instance(rng, n: int, s: int, m: int):
    """Gaussian A (m x n), s-sparse x* with magnitudes in [0.5, 1.5],
    b = A x*, and x0 = x* + 0.05 * (unit noise)."""
    A = rng.standard_normal((m, n))
    support = rng.choice(n, size=s, replace=False)
    xstar = np.zeros(n)
    xstar[support] = rng.choice([-1.0, 1.0], size=s) * rng.uniform(0.5, 1.5, size=s)
    noise = rng.standard_normal(n)
    x0 = xstar + 0.05 * noise / np.linalg.norm(noise)
    return A, A @ xstar, xstar, x0


class SparseLadder:
    name = "sparse-ladder"
    tail_pct = 87
    min_rounds = 5  # 80 ops: at least 10 beyond p87
    solver_steps = True

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.sparsity = {(n, s): sets.sparsity_set(n, s)
                         for _, n, s, _ in SPARSE_MIX}

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r])
        ops = []
        for algo, n, s, count in SPARSE_MIX:
            m = CP_ROWS[n] if algo == "cp" else n // 2
            # over min_rounds rounds, the ops of a rung take every stratum once
            strata = count * self.min_rounds
            for j in range(count):
                stratum = (j * self.min_rounds + r) % strata
                A, b, xstar, x0 = stratified_instance(rng, n, s, m, stratum, strata)
                affine = sets.affine_set(A, b)
                ops.append(self._op(algo, n, s, self.sparsity[n, s], affine,
                                    xstar, x0))
        return ops

    @staticmethod
    def _op(algo, n, s, sparse, affine, xstar, x0) -> Op:
        label = f"{algo}-{n}-{s}"
        if algo == "cp":
            def call():
                return solvers.cyclic_projections([sparse, affine], x0)

            def check(trace):
                steps = len(trace.steps)
                if trace.status != "converged":
                    return _fail(f"status {trace.status}", steps)
                err = float(np.linalg.norm(trace.x_final - xstar))
                if err > X_TOL or not trace.meta["in_intersection"]:
                    return _fail(f"|x - x*| = {err:.3e}", steps)
                return Outcome(ok=True, steps=steps)
        elif algo == "cadr":
            def call():
                return solvers.cadr([affine, sparse], x0)

            def check(trace):
                steps = len(trace.steps)
                if trace.status != "converged" or not trace.meta.get("shadow_feasible"):
                    return _fail(f"status {trace.status}, shadow not feasible", steps)
                return Outcome(ok=True, steps=steps)
        else:
            def call():
                return solvers.cyclic_dr([sparse, affine], x0)

            def check(trace):
                steps = len(trace.steps)
                cls = trace.meta.get("classification")
                if (trace.status != "converged" or cls is None
                        or not cls.is_fixed or not cls.consistent):
                    return _fail(f"status {trace.status}, classification {cls}",
                                 steps)
                return Outcome(ok=True, steps=steps)
        return Op(label, call, check)


# ---------------------------------------------------------------------------
# splitting-cli: one in-process CLI command on a generated JSON config
# ---------------------------------------------------------------------------

CLI_DIM = 3
CLI_PIECES = 8
#: run and sweep commands per round: the cheap and the dear ops balance
#: around the douglas-rachford runs, so the median op is one of them, and
#: the ppa sweeps are the dearest ops, so the tail percentile is one of them
RUNS_PER_KIND = {"ppa": 4, "fb": 10, "drs": 10}
SWEEPS_PER_KIND = {"ppa": 2, "fb": 1, "drs": 1}
SWEEP = {"radius": 1.0, "count": 8}


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON constant {token}")


def strict_json(text: str):
    """json.loads that rejects NaN and +-Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _summary_ok(summary: dict) -> bool:
    cls = summary.get("classification") or {}
    if (summary.get("status") != "converged" or cls.get("kind") != "strong-fixed"
            or cls.get("consistent") is not True):
        return False
    if "local_min" in summary or "shadow_local_min" in summary:
        return summary.get("local_min") is True or summary.get("shadow_local_min") is True
    # cyclic-projection presets carry no local-minimum test
    return summary.get("in_intersection") is True


def check_trace_file(path: Path) -> tuple[bool, int, str]:
    """Strictly parse one JSONL trace; return (ok, step records, detail)."""
    records = [strict_json(line) for line in path.read_text().splitlines()]
    steps = sum(rec.get("record") == "step" for rec in records)
    if not records or records[0].get("record") != "header":
        return False, steps, f"{path.name}: no header record"
    if records[-1].get("record") != "summary" or not _summary_ok(records[-1]):
        return False, steps, f"{path.name}: summary {records[-1]}"
    return True, steps, ""


def check_cli_output(code, out_dir: Path, sweep_count: int | None) -> Outcome:
    """Gate for a run (sweep_count None) or sweep command, then delete out_dir."""
    try:
        files = sorted(out_dir.glob("*"))
        nbytes = sum(f.stat().st_size for f in files)
        if code != 0:
            return _fail(f"exit code {code}")
        traces = [f for f in files if f.suffix == ".jsonl"]
        expected = 1 if sweep_count is None else sweep_count
        if len(traces) != expected:
            return _fail(f"{len(traces)} trace files, expected {expected}")
        steps = 0
        for path in traces:
            ok, n, detail = check_trace_file(path)
            steps += n
            if not ok:
                return _fail(detail, steps)
        if sweep_count is not None:
            (summary_path,) = [f for f in files if f.name.endswith("-sweep-summary.json")]
            summary = strict_json(summary_path.read_text())
            if summary.get("statuses") != {"converged": sweep_count}:
                return _fail(f"sweep statuses {summary.get('statuses')}", steps)
        return Outcome(ok=True, steps=steps, bytes_written=nbytes)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


class SplittingCli:
    name = "splitting-cli"
    tail_pct = 97
    min_rounds = 12  # 456 ops: at least 10 beyond p97
    solver_steps = True

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.presets = sorted(cli.PRESETS)
        self._ops_built = 0

    @staticmethod
    def _problem(rng, kind: str) -> dict:
        """A fresh ppa, forward-backward or douglas-rachford config skeleton."""
        if kind == "ppa":
            quads = []
            for _ in range(CLI_PIECES):
                # random eigenbasis and curvatures
                U = np.linalg.qr(rng.standard_normal((CLI_DIM, CLI_DIM)))[0]
                curv = rng.uniform(0.5, 2.0, size=CLI_DIM)
                Q = U @ np.diag(curv) @ U.T
                center = rng.uniform(-3.0, 3.0, size=CLI_DIM)
                quads.append({"kind": "quadratic", "Q": Q.tolist(),
                              "b": (-Q @ center).tolist(),
                              "c": float(rng.uniform(0.0, 2.0))})
            return {"problem": {"f": {"pieces": quads}},
                    "algorithm": {"kind": "ppa", "gamma": 1.0}}
        points = rng.uniform(-2.0, 2.0, size=(CLI_PIECES, CLI_DIM))
        g = {"pieces": [{"kind": "indicator-singleton", "point": p.tolist()}
                        for p in points]}
        eye = np.eye(CLI_DIM).tolist()
        zero = [0.0] * CLI_DIM
        if kind == "fb":
            return {"problem": {"smooth": {"kind": "quadratic", "Q": eye, "b": zero},
                                "g": g},
                    "algorithm": {"kind": "forward-backward", "gamma": 0.5, "lam": 1.0}}
        return {"problem": {"f": {"pieces": [{"kind": "quadratic", "Q": eye, "b": zero}]},
                            "g": g},
                "algorithm": {"kind": "douglas-rachford", "gamma": 0.5, "lam": 1.0}}

    def _command(self, argv_head: list[str], sweep_count: int | None,
                 label: str) -> Op:
        out_dir = self.workdir / f"out-{self._ops_built}"
        self._ops_built += 1
        argv = [*argv_head, "--out", str(out_dir), "--quiet"]
        return Op(label, lambda: cli.main(argv),
                  lambda code: check_cli_output(code, out_dir, sweep_count))

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r])
        cfg_dir = self.workdir / f"configs-{r}"
        shutil.rmtree(self.workdir / f"configs-{r - 1}", ignore_errors=True)
        cfg_dir.mkdir(parents=True, exist_ok=True)
        ops = []
        for kind in RUNS_PER_KIND:
            for k in range(RUNS_PER_KIND[kind] + SWEEPS_PER_KIND[kind]):
                sweep = k >= RUNS_PER_KIND[kind]
                cfg = {"name": f"{kind}-{k}", **self._problem(rng, kind),
                       "x0": rng.uniform(-3.0, 3.0, size=CLI_DIM).tolist(),
                       "seed": int(rng.integers(2**31))}
                if sweep:
                    cfg["sweep"] = dict(SWEEP)
                path = cfg_dir / f"{kind}-{k}.json"
                path.write_text(json.dumps(cfg))
                command = "sweep" if sweep else "run"
                ops.append(self._command([command, str(path)],
                                         SWEEP["count"] if sweep else None,
                                         f"{command}-{kind}"))
        for preset in self.presets:
            ops.append(self._command(["run", preset], None, "run-preset"))
            ops.append(self._command(["sweep", preset], 20, "sweep-preset"))
        return ops


# ---------------------------------------------------------------------------
# oracle-audit: one oracle call
# ---------------------------------------------------------------------------

GRID_BOUND = 6.0
GAMMAS = (0.1, 1.0, 10.0)
BRUTE_1D, BRUTE_2D = 4, 1  # corpus instances per round (ops: 1 per gamma)
RADIUS_SAMPLES = 2000
RADIUS_BISECT = 8
RADIUS_SEED = 0  # the acceptance criteria's sample seed
INEQ_PAIRS = 10_000
VIOLATION_TOL = 1e-9


def random_piece(rng, dim: int):
    """The acceptance suite's criterion-1 piece generator."""
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


def corpus_instance(rng, dim: int):
    """A criterion-1 instance whose piece proxes all lie inside the grid.

    The oracle's guarantees need the grid to contain the minimiser; an
    instance whose prox leaves [-5.5, 5.5]^dim for some gamma is redrawn.
    """
    while True:
        f = mc.MinConvexFn([random_piece(rng, dim)
                            for _ in range(int(rng.integers(2, 4)))])
        x = rng.uniform(-3.0, 3.0, size=dim)
        if all(np.max(np.abs(np.asarray(p.prox(g, x)))) <= GRID_BOUND - 0.5
               for p in f.pieces for g in GAMMAS):
            return f, x


def check_brute(f, gamma, x, grid, brute) -> Outcome:
    """Criterion-1 invariants for one brute-force grid prox.

    The exact envelope is at most the grid minimum, and every grid point
    within ``tol`` of the grid minimum lies in the cluster of some piece i:
    the objective of piece i is (1/gamma)-strongly convex with minimum
    env_i at prox_i, so ||q - prox_i||^2 <= 2 gamma (grid_min + tol - env_i).
    The cluster radius is taken from the grid minimum, not from the exact
    envelope: near a steep boundary the two differ by more than ``tol``.
    """
    env = mc.envelope(f, gamma, x)
    if env > brute.min_objective + 1e-9:
        return _fail(f"envelope {env} above grid minimum {brute.min_objective}")
    level = brute.min_objective + brute.tolerance
    clusters = [(np.asarray(p.prox(gamma, x)), mc.piece_envelope(p, gamma, x))
                for p in f.pieces]
    for q in brute.points:
        if not any(float(np.linalg.norm(q - centre))
                   <= math.sqrt(2.0 * gamma * (level - e)) + 1e-6
                   for centre, e in clusters if e <= level):
            return _fail(f"grid near-minimiser {q} outside every cluster")
    return Outcome(ok=True, steps=grid.points ** grid.dim)


class OracleAudit:
    name = "oracle-audit"
    tail_pct = 86
    min_rounds = 2  # 74 ops: at least 10 beyond p86; every radius estimate repeats
    solver_steps = False  # steps are grid nodes and inequality pairs

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self._ops_built = 0
        self._radius_seen: dict[tuple, tuple] = {}
        # criterion-8 operators and the two-point prox of criterion 5
        fs = solvers.SmoothFn(value=lambda x: 0.5 * float(x @ x),
                              grad=lambda x: x, lipschitz=1.0)
        g = mc.MinConvexFn([mc.indicator_singleton([-1.0]),
                            mc.indicator_singleton([1.0])])
        fq = mc.MinConvexFn([mc.quadratic([[1.0]], [0.0])])
        two = mc.MinConvexFn([mc.indicator_singleton([0.0]),
                              mc.indicator_singleton([2.0])])
        self.radius_cases = (
            ("fb", solvers.fb_operator(fs, g, 0.5), (-1.0, 1.0)),
            ("drs", solvers.drs_operator(fq, g, 0.5), (-1.5, 1.5)),
            ("two-point", mc.prox_union(two, 1.0), (0.0, 2.0)),
        )
        # two seeded lines through the origin and their three composites
        rng = np.random.default_rng([seed, 2**20])
        first = rng.uniform(0.0, math.pi)
        angles = (first, first + rng.uniform(0.2, math.pi - 0.2))
        lines = [sets.project_union(sets.span_set(
            np.array([[math.cos(a)], [math.sin(a)]]))) for a in angles]
        self.composites = (
            ("compose", core_ops.compose(lines)),
            ("convex-combination", core_ops.convex_combination(lines, [0.3, 0.7])),
            ("union", core_ops.union_of(lines)),
        )
        self.presets = sorted(cli.PRESETS)

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r])
        ops = []
        for dim, count in ((1, BRUTE_1D), (2, BRUTE_2D)):
            grid = oracle.GridSpec(bounds=((-GRID_BOUND, GRID_BOUND),) * dim,
                                   points=601 if dim == 1 else 121)
            for _ in range(count):
                f, x = corpus_instance(rng, dim)
                for gamma in GAMMAS:
                    ops.append(self._brute_op(f, gamma, x, grid))
        # every round repeats the radius estimate at each fixed point; the
        # repeats must come out bit-identical
        for label, T, centers in self.radius_cases:
            for xstar in centers:
                ops.append(self._radius_op(label, T, xstar))
        for _ in range(2):
            for label, T in self.composites:
                ops.append(self._ineq_op(label, T, int(rng.integers(2**31))))
            for preset in self.presets:
                ops.append(self._verify_op(preset, int(rng.integers(2**31))))
        return ops

    @staticmethod
    def _brute_op(f, gamma, x, grid) -> Op:
        return Op(f"brute-{grid.dim}d",
                  lambda: oracle.brute_force_prox(f, gamma, x, grid),
                  lambda brute: check_brute(f, gamma, x, grid, brute))

    def _radius_op(self, label, T, xstar) -> Op:
        key = (label, xstar)

        def call():
            return oracle.estimate_radius(T, [xstar], 3.0, samples=RADIUS_SAMPLES,
                                          seed=RADIUS_SEED, bisect_iters=RADIUS_BISECT)

        def check(est):
            cex = None if est.counterexample is None else est.counterexample.tobytes()
            fingerprint = (float(est.radius).hex(), est.hit_delta_max, cex)
            seen = self._radius_seen.setdefault(key, fingerprint)
            if seen != fingerprint:
                return _fail(f"radius estimate {key} not bit-identical on repeat")
            if not 0.0 < est.radius <= 3.0:
                return _fail(f"radius {est.radius} outside (0, 3]")
            return Outcome(ok=True)

        return Op(f"radius-{label}", call, check)

    @staticmethod
    def _ineq_op(label, T, pair_seed) -> Op:
        def check(rep):
            if rep.pairs_checked != INEQ_PAIRS or not rep.max_violation <= VIOLATION_TOL:
                return _fail(f"{label}: max_violation {rep.max_violation}")
            return Outcome(ok=True, steps=INEQ_PAIRS)

        return Op(f"inequality-{label}",
                  lambda: oracle.sample_inequality(T, T.alpha, ([-5.0, -5.0], [5.0, 5.0]),
                                                   pairs=INEQ_PAIRS, seed=pair_seed),
                  check)

    def _verify_op(self, preset, seed) -> Op:
        out_dir = self.workdir / f"verify-{self._ops_built}"
        self._ops_built += 1
        argv = ["verify", preset, "--seed", str(seed), "--out", str(out_dir), "--quiet"]

        def check(code):
            try:
                if code != 0:
                    return _fail(f"verify {preset}: exit code {code}")
                path = out_dir / f"{preset}-verify.json"
                report = strict_json(path.read_text())
                worst = max(op["max_violation"] for op in report["operators"])
                if report.get("passed") is not True or not worst <= VIOLATION_TOL:
                    return _fail(f"verify {preset}: max_violation {worst}")
                pairs = sum(op["pairs"] for op in report["operators"])
                return Outcome(ok=True, steps=pairs,
                               bytes_written=path.stat().st_size)
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)

        return Op("verify-preset", lambda: cli.main(argv), check)


WORKLOADS = {w.name: w for w in (SparseLadder, SplittingCli, OracleAudit)}
