"""Config-driven experiment runner.

Subcommands::

    unionfix run <config>      run one experiment, write a JSONL trace
    unionfix verify <config>   sample operator inequalities, write a report
    unionfix sweep <config>    run a grid of starts, summarize basins

``<config>`` is a JSON file path or the name of a built-in preset.  The
schema is documented in the README; unknown keys are rejected with the
offending field path.  Exit codes: 0 converged / all checks passed,
1 config error, 2 max-iters or failed checks, 3 divergence guard.

Traces are line-delimited JSON: one self-describing header record, one
record per step (iterate, chosen index, relaxation, step norm), and one
summary record (status, fixed-point classification, shadow point when
applicable).  Identical config and seed produce byte-identical files.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from unionfix import minconvex, oracle, sets as sets_mod, solvers
from unionfix.core_ops import UnionMap
from unionfix.minconvex import ConvexPiece, MinConvexFn
from unionfix.solvers import (
    IterationTrace,
    Schedule,
    SelectionPolicy,
    StopRule,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MAX_ITERS = 2
EXIT_DIVERGED = 3

_STATUS_EXIT = {"converged": EXIT_OK, "max-iters": EXIT_MAX_ITERS,
                "diverged-guard": EXIT_DIVERGED}


class ConfigError(ValueError):
    """Malformed experiment config; message names the field at fault."""


# ---------------------------------------------------------------------------
# Strict config parsing
# ---------------------------------------------------------------------------

def _require_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object, got {type(obj).__name__}")
    return obj


def _check_keys(d: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}; allowed: {sorted(allowed)}")
    missing = sorted(required - set(d))
    if missing:
        raise ConfigError(f"{where}: missing required keys {missing}")


def _vector(obj, where: str) -> list[float]:
    if not isinstance(obj, list) or not obj or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj
    ):
        raise ConfigError(f"{where}: expected a nonempty list of numbers")
    return [float(v) for v in obj]


def _matrix(obj, where: str) -> list[list[float]]:
    if not isinstance(obj, list) or not obj:
        raise ConfigError(f"{where}: expected a nonempty list of rows")
    return [_vector(row, f"{where}[{k}]") for k, row in enumerate(obj)]


@dataclass
class ExperimentConfig:
    """Parsed experiment description; to_dict/from_dict round-trip exactly."""

    name: str
    problem: dict
    algorithm: dict
    x0: list[float]
    stop: dict = field(default_factory=dict)
    seed: int = 0
    output: str | None = None
    verify: dict | None = None
    sweep: dict | None = None

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        raw = _require_mapping(raw, "config")
        _check_keys(
            raw,
            allowed={"name", "problem", "algorithm", "x0", "stop", "seed",
                     "output", "verify", "sweep"},
            required={"name", "problem", "algorithm", "x0"},
            where="config",
        )
        stop = _require_mapping(raw.get("stop", {}), "config.stop")
        _check_keys(stop, allowed={"step_tol", "max_iters"}, required=set(),
                    where="config.stop")
        seed = raw.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ConfigError("config.seed: expected an integer")
        cfg = ExperimentConfig(
            name=str(raw["name"]),
            problem=_require_mapping(raw["problem"], "config.problem"),
            algorithm=_require_mapping(raw["algorithm"], "config.algorithm"),
            x0=_vector(raw["x0"], "config.x0"),
            stop=stop,
            seed=seed,
            output=raw.get("output"),
            verify=raw.get("verify"),
            sweep=raw.get("sweep"),
        )
        # Validate eagerly so malformed configs fail at parse time.
        build_experiment(cfg)
        return cfg

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "problem": copy.deepcopy(self.problem),
            "algorithm": copy.deepcopy(self.algorithm),
            "x0": list(self.x0),
        }
        if self.stop:
            out["stop"] = dict(self.stop)
        out["seed"] = self.seed
        for key in ("output", "verify", "sweep"):
            val = getattr(self, key)
            if val is not None:
                out[key] = copy.deepcopy(val)
        return out


# ---------------------------------------------------------------------------
# Catalog builders
# ---------------------------------------------------------------------------

def build_set(spec: dict, where: str) -> sets_mod.UnionConvexSet:
    spec = _require_mapping(spec, where)
    kind = spec.get("kind")
    schemas = {
        "affine": {"A", "b"},
        "box": {"lo", "hi"},
        "ball": {"center", "radius"},
        "halfspace": {"a", "beta"},
        "singleton": {"point"},
        "span": {"vectors", "offset"},
        "sparsity": {"n", "s"},
        "union-of": {"members"},
    }
    if kind not in schemas:
        raise ConfigError(f"{where}.kind: unknown set kind {kind!r}; "
                          f"expected one of {sorted(schemas)}")
    _check_keys(spec, allowed=schemas[kind] | {"kind"},
                required=(schemas[kind] - {"offset"}) | {"kind"}, where=where)
    if kind == "affine":
        return sets_mod.affine_set(_matrix(spec["A"], f"{where}.A"),
                                   _vector(spec["b"], f"{where}.b"))
    if kind == "box":
        return sets_mod.box_set(_vector(spec["lo"], f"{where}.lo"),
                                _vector(spec["hi"], f"{where}.hi"))
    if kind == "ball":
        return sets_mod.ball_set(_vector(spec["center"], f"{where}.center"),
                                 float(spec["radius"]))
    if kind == "halfspace":
        return sets_mod.halfspace_set(_vector(spec["a"], f"{where}.a"),
                                      float(spec["beta"]))
    if kind == "singleton":
        return sets_mod.singleton_set(_vector(spec["point"], f"{where}.point"))
    if kind == "span":
        vectors = _matrix(spec["vectors"], f"{where}.vectors")
        offset = spec.get("offset")
        return sets_mod.span_set(
            np.array(vectors, dtype=float).T,
            offset=None if offset is None else _vector(offset, f"{where}.offset"),
        )
    if kind == "sparsity":
        return sets_mod.sparsity_set(int(spec["n"]), int(spec["s"]))
    members = spec["members"]
    if not isinstance(members, list) or not members:
        raise ConfigError(f"{where}.members: expected a nonempty list")
    return sets_mod.union_of_sets(
        [build_set(m, f"{where}.members[{k}]") for k, m in enumerate(members)]
    )


def build_piece(spec: dict, where: str) -> ConvexPiece:
    spec = _require_mapping(spec, where)
    kind = spec.get("kind")
    schemas = {
        "quadratic": ({"Q", "b", "c"}, {"Q", "b"}),
        "l1": ({"weight"}, {"weight"}),
        "l2": ({"weight"}, {"weight"}),
        "indicator-box": ({"lo", "hi"}, {"lo", "hi"}),
        "indicator-ball": ({"center", "radius"}, {"center", "radius"}),
        "indicator-singleton": ({"point"}, {"point"}),
        "indicator-halfspace": ({"a", "beta"}, {"a", "beta"}),
        "indicator-affine": ({"A", "b"}, {"A", "b"}),
    }
    if kind not in schemas:
        raise ConfigError(f"{where}.kind: unknown piece kind {kind!r}; "
                          f"expected one of {sorted(schemas)}")
    allowed, required = schemas[kind]
    _check_keys(spec, allowed=allowed | {"kind"}, required=required | {"kind"},
                where=where)
    if kind == "quadratic":
        return minconvex.quadratic(_matrix(spec["Q"], f"{where}.Q"),
                                   _vector(spec["b"], f"{where}.b"),
                                   c=float(spec.get("c", 0.0)))
    if kind == "l1":
        return minconvex.scaled_l1(float(spec["weight"]))
    if kind == "l2":
        return minconvex.scaled_l2(float(spec["weight"]))
    if kind == "indicator-box":
        return minconvex.indicator_box(_vector(spec["lo"], f"{where}.lo"),
                                       _vector(spec["hi"], f"{where}.hi"))
    if kind == "indicator-ball":
        return minconvex.indicator_ball(_vector(spec["center"], f"{where}.center"),
                                        float(spec["radius"]))
    if kind == "indicator-singleton":
        return minconvex.indicator_singleton(_vector(spec["point"], f"{where}.point"))
    if kind == "indicator-halfspace":
        return minconvex.indicator_halfspace(_vector(spec["a"], f"{where}.a"),
                                             float(spec["beta"]))
    return minconvex.indicator_affine(_matrix(spec["A"], f"{where}.A"),
                                      _vector(spec["b"], f"{where}.b"))


def build_fn(spec: dict, where: str) -> MinConvexFn:
    spec = _require_mapping(spec, where)
    _check_keys(spec, allowed={"pieces"}, required={"pieces"}, where=where)
    pieces = spec["pieces"]
    if not isinstance(pieces, list) or not pieces:
        raise ConfigError(f"{where}.pieces: expected a nonempty list")
    return MinConvexFn(
        [build_piece(p, f"{where}.pieces[{k}]") for k, p in enumerate(pieces)]
    )


def build_smooth(spec: dict, where: str) -> solvers.SmoothFn:
    spec = _require_mapping(spec, where)
    _check_keys(spec, allowed={"kind", "Q", "b"}, required={"kind", "Q", "b"},
                where=where)
    if spec["kind"] != "quadratic":
        raise ConfigError(f"{where}.kind: the smooth catalog has only 'quadratic'")
    Q = np.array(_matrix(spec["Q"], f"{where}.Q"))
    b = np.array(_vector(spec["b"], f"{where}.b"))
    lipschitz = float(np.linalg.norm(Q, 2))
    return solvers.SmoothFn(
        value=lambda x: 0.5 * float(x @ Q @ x) + float(b @ x),
        grad=lambda x: Q @ x + b,
        lipschitz=lipschitz,
    )


def _build_policy(spec, where: str, seed: int) -> SelectionPolicy:
    if spec is None:
        return SelectionPolicy(seed=seed)
    spec = _require_mapping(spec, where)
    _check_keys(spec, allowed={"kind"}, required={"kind"}, where=where)
    kind = spec["kind"]
    if kind not in ("lowest-index", "seeded-random", "round-robin"):
        raise ConfigError(f"{where}.kind: unknown policy {kind!r}")
    return SelectionPolicy(kind=kind, seed=seed)


@dataclass
class Experiment:
    """A fully-built experiment: a runner plus the operators to verify."""

    run: "callable"
    operators: list[UnionMap]
    dim: int


def _gamma(algo: dict) -> float:
    gamma = float(algo["gamma"])
    _positive(gamma, "config.algorithm.gamma")
    return gamma


def _schedule(algo: dict, operator: UnionMap) -> Schedule:
    """Constant schedule from config.algorithm.lam, checked against the
    driver's bound 1/alpha; one step checks every step of a constant one."""
    schedule = Schedule.constant(float(algo.get("lam", 1.0)))
    try:
        solvers.validate_schedule(schedule, 1.0 / operator.alpha, horizon=1)
    except solvers.ScheduleError as exc:
        raise ConfigError(f"config.algorithm.lam: {exc}") from exc
    return schedule


def _set_driver(driver: str, operators: str):
    """Builder for a driver over config.problem.sets.  The driver and its
    operator-list function are looked up on ``solvers`` when called, so
    wrappers installed on that module after import are honoured."""

    def build(problem: dict, algo: dict, tie_tol: float):
        specs = problem["sets"]
        if not isinstance(specs, list) or len(specs) < 2:
            raise ConfigError("config.problem.sets: expected a list of >= 2 sets")
        set_list = [build_set(s, f"config.problem.sets[{k}]")
                    for k, s in enumerate(specs)]

        def solve(x0, policy, stop):
            return getattr(solvers, driver)(set_list, x0, stop=stop, policy=policy,
                                            tie_tol=tie_tol)

        return solve, getattr(solvers, operators)(set_list, tie_tol)

    return build


def _ppa(problem: dict, algo: dict, tie_tol: float):
    f = build_fn(problem["f"], "config.problem.f")
    gamma = _gamma(algo)

    def solve(x0, policy, stop):
        return solvers.ppa(f, gamma, policy, x0, stop, tie_tol=tie_tol)

    return solve, [minconvex.prox_union(f, gamma, tie_tol)]


def _forward_backward(problem: dict, algo: dict, tie_tol: float):
    fsmooth = build_smooth(problem["smooth"], "config.problem.smooth")
    g = build_fn(problem["g"], "config.problem.g")
    gamma = float(algo["gamma"])
    try:
        operator = solvers.fb_operator(fsmooth, g, gamma, tie_tol)
    except ValueError as exc:
        raise ConfigError(f"config.algorithm.gamma: {exc}") from exc
    schedule = _schedule(algo, operator)

    def solve(x0, policy, stop):
        return solvers.forward_backward(fsmooth, g, gamma, schedule, policy, x0,
                                        stop, tie_tol=tie_tol)

    return solve, [operator]


def _douglas_rachford(problem: dict, algo: dict, tie_tol: float):
    f = build_fn(problem["f"], "config.problem.f")
    g = build_fn(problem["g"], "config.problem.g")
    gamma = _gamma(algo)
    operator = solvers.drs_operator(f, g, gamma, tie_tol)
    schedule = _schedule(algo, operator)

    def solve(x0, policy, stop):
        return solvers.douglas_rachford(f, g, gamma, schedule, policy, x0, stop,
                                        tie_tol=tie_tol)

    return solve, [operator]


#: algorithm kind -> (algorithm keys beyond kind/policy/tie_tol, problem keys,
#: builder(problem, algo, tie_tol) -> (solve(x0, policy, stop), operators));
#: gamma is required wherever it is allowed, lam is optional
ALGORITHMS = {
    "cyclic-projections": ((), ("sets",),
                           _set_driver("cyclic_projections", "projectors")),
    "cyclic-dr": ((), ("sets",), _set_driver("cyclic_dr", "dr_ring")),
    "cadr": ((), ("sets",), _set_driver("cadr", "dr_anchored")),
    "ppa": (("gamma",), ("f",), _ppa),
    "forward-backward": (("gamma", "lam"), ("smooth", "g"), _forward_backward),
    "douglas-rachford": (("gamma", "lam"), ("f", "g"), _douglas_rachford),
}


def build_experiment(cfg: ExperimentConfig) -> Experiment:
    """Assemble the problem and return a runner closure over (x0, stop)."""
    algo = cfg.algorithm
    where = "config.algorithm"
    kind = algo.get("kind")
    if kind not in ALGORITHMS:
        raise ConfigError(f"{where}.kind: unknown algorithm {kind!r}; "
                          f"expected one of {sorted(ALGORITHMS)}")
    algo_keys, problem_keys, build = ALGORITHMS[kind]
    allowed = {"kind", "policy", "tie_tol", *algo_keys}
    _check_keys(algo, allowed=allowed, required={"kind"} | (allowed & {"gamma"}),
                where=where)
    _check_keys(cfg.problem, allowed=set(problem_keys), required=set(problem_keys),
                where="config.problem")
    try:
        stop = StopRule(step_tol=float(cfg.stop.get("step_tol", 1e-10)),
                        max_iters=int(cfg.stop.get("max_iters", 10_000)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config.stop: {exc}") from exc
    policy = _build_policy(algo.get("policy"), f"{where}.policy", cfg.seed)
    solve, operators = build(cfg.problem, algo, float(algo.get("tie_tol", 1e-10)))

    def run(x0, max_iters=None):
        rule = stop if max_iters is None else replace(stop, max_iters=max_iters)
        return solve(x0, policy, rule)

    return Experiment(run=run, operators=operators, dim=len(cfg.x0))


def _positive(value: float, where: str) -> None:
    if not value > 0:
        raise ConfigError(f"{where}: must be positive, got {value}")


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

PRESETS: dict[str, dict] = {
    "sparse-affine-feasibility": {
        "name": "sparse-affine-feasibility",
        "problem": {
            "sets": [
                {"kind": "sparsity", "n": 4, "s": 1},
                {"kind": "affine", "A": [[1.0, 0.5, 0.5, 0.5]], "b": [1.0]},
            ]
        },
        "algorithm": {"kind": "cyclic-projections"},
        "x0": [1.005, 0.003, -0.002, 0.004],
        "stop": {"max_iters": 500},
        "seed": 0,
    },
    "two-singleton-prox": {
        "name": "two-singleton-prox",
        "problem": {
            "f": {
                "pieces": [
                    {"kind": "indicator-singleton", "point": [0.0]},
                    {"kind": "indicator-singleton", "point": [2.0]},
                ]
            }
        },
        "algorithm": {"kind": "ppa", "gamma": 1.0},
        "x0": [0.9],
        "seed": 0,
    },
    "crossed-lines": {
        "name": "crossed-lines",
        "problem": {
            "sets": [
                {"kind": "span", "vectors": [[1.0, 0.0]]},
                {"kind": "span", "vectors": [[1.0, 1.0]]},
            ]
        },
        "algorithm": {"kind": "cyclic-projections"},
        "x0": [0.1, 0.05],
        "seed": 0,
    },
    "quadratic-plus-two-points-fb": {
        "name": "quadratic-plus-two-points-fb",
        "problem": {
            "smooth": {"kind": "quadratic", "Q": [[1.0]], "b": [0.0]},
            "g": {
                "pieces": [
                    {"kind": "indicator-singleton", "point": [-1.0]},
                    {"kind": "indicator-singleton", "point": [1.0]},
                ]
            },
        },
        "algorithm": {"kind": "forward-backward", "gamma": 0.5, "lam": 1.0},
        "x0": [-0.8],
        "seed": 0,
    },
    "two-quadratics-ppa": {
        "name": "two-quadratics-ppa",
        "problem": {
            "f": {
                "pieces": [
                    {"kind": "quadratic", "Q": [[2.0]], "b": [0.0]},
                    {"kind": "quadratic", "Q": [[2.0]], "b": [-4.0], "c": 4.0},
                ]
            }
        },
        "algorithm": {"kind": "ppa", "gamma": 1.0},
        "x0": [1.6],
        "seed": 0,
    },
}


def load_config(source: str) -> ExperimentConfig:
    """Load a config from a JSON file path or a preset name."""
    if source in PRESETS:
        return ExperimentConfig.from_dict(copy.deepcopy(PRESETS[source]))
    path = Path(source)
    if not path.exists():
        raise ConfigError(
            f"config {source!r} is neither a file nor a preset; presets: "
            f"{sorted(PRESETS)}"
        )
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{source}: invalid JSON at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from exc
    return ExperimentConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# Trace serialization
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [float(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, tuple):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, list):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if obj is None or isinstance(obj, (str, bool)):
        return obj
    return str(obj)


def _dumps(record: dict) -> str:
    return json.dumps(_jsonable(record), sort_keys=True, allow_nan=False)


def trace_records(cfg: ExperimentConfig, trace: IterationTrace) -> list[str]:
    """Serialize a trace as JSONL records: header, steps, summary."""
    header = {
        "record": "header",
        "name": cfg.name,
        "algorithm": trace.meta.get("algorithm"),
        "dim": len(cfg.x0),
        "seed": cfg.seed,
        "config": cfg.to_dict(),
    }
    lines = [_dumps(header)]
    for s in trace.steps:
        rec = {"record": "step", "n": s.n, "x": s.x, "index": s.index,
               "lam": s.lam, "step_norm": s.step_norm}
        if s.extras:
            rec.update(s.extras)
        lines.append(_dumps(rec))
    summary = {"record": "summary", "status": trace.status,
               "x_final": trace.x_final}
    cls = trace.meta.get("classification")
    if cls is not None:
        summary["classification"] = {
            "kind": cls.kind,
            "witnesses": cls.witnesses,
            "singleton": cls.singleton,
            "consistent": cls.consistent,
        }
    for key in ("shadow", "shadow_distances", "shadow_feasible", "shadow_local_min",
                "local_min", "set_distances", "in_intersection"):
        if key in trace.meta:
            summary[key] = trace.meta[key]
    lines.append(_dumps(summary))
    return lines


def write_trace(path: Path, cfg: ExperimentConfig, trace: IterationTrace) -> None:
    path.write_text("\n".join(trace_records(cfg, trace)) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_run(cfg: ExperimentConfig, out_dir: Path, quiet: bool,
            max_iters: int | None) -> int:
    experiment = build_experiment(cfg)
    trace = experiment.run(cfg.x0, max_iters)
    out_path = out_dir / (cfg.output or f"{cfg.name}.jsonl")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_trace(out_path, cfg, trace)
    if not quiet:
        cls = trace.meta.get("classification")
        print(f"{cfg.name}: {trace.status} after {len(trace.steps)} steps; "
              f"x_final = {trace.x_final}"
              + (f"; classification = {cls.kind}" if cls else ""))
        print(f"trace written to {out_path}")
    return _STATUS_EXIT[trace.status]


def cmd_verify(cfg: ExperimentConfig, out_dir: Path, quiet: bool) -> int:
    experiment = build_experiment(cfg)
    spec = _require_mapping(cfg.verify or {}, "config.verify")
    _check_keys(spec, allowed={"pairs", "lo", "hi", "tol"}, required=set(),
                where="config.verify")
    pairs = int(spec.get("pairs", 1000))
    if pairs < 1:
        raise ConfigError(f"config.verify.pairs: must be at least 1, got {pairs}")
    lo = _vector(spec["lo"], "config.verify.lo") if "lo" in spec \
        else [-5.0] * experiment.dim
    hi = _vector(spec["hi"], "config.verify.hi") if "hi" in spec \
        else [5.0] * experiment.dim
    tol = float(spec.get("tol", 1e-9))
    reports = []
    for op in experiment.operators:
        rep = oracle.sample_inequality(op, op.alpha, (lo, hi), pairs,
                                       seed=cfg.seed)
        reports.append({
            "operator": op.label,
            "alpha": op.alpha,
            "pairs": rep.pairs_checked,
            "max_violation": rep.max_violation,
            "passed": rep.passed(tol),
        })
    passed = all(r["passed"] for r in reports)
    out_path = out_dir / f"{cfg.name}-verify.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(_dumps({"record": "verify", "name": cfg.name,
                                "tol": tol, "operators": reports,
                                "passed": passed}) + "\n")
    if not quiet:
        for r in reports:
            flag = "ok" if r["passed"] else "VIOLATION"
            print(f"{r['operator']}: alpha={r['alpha']} "
                  f"max_violation={r['max_violation']:.3e} [{flag}]")
        print(f"report written to {out_path}")
    return EXIT_OK if passed else EXIT_MAX_ITERS


def cmd_sweep(cfg: ExperimentConfig, out_dir: Path, quiet: bool,
              max_iters: int | None) -> int:
    experiment = build_experiment(cfg)
    spec = _require_mapping(cfg.sweep or {}, "config.sweep")
    _check_keys(spec, allowed={"radius", "count", "round_decimals"},
                required=set(), where="config.sweep")
    radius = float(spec.get("radius", 0.5))
    count = int(spec.get("count", 20))
    decimals = int(spec.get("round_decimals", 6))
    _positive(radius, "config.sweep.radius")
    if count < 1:
        raise ConfigError("config.sweep.count: must be at least 1")
    center = np.array(cfg.x0)
    rng = np.random.default_rng(cfg.seed)
    dirs = rng.standard_normal((count, center.size))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
    radii = radius * rng.random(count) ** (1.0 / center.size)
    out_dir.mkdir(parents=True, exist_ok=True)
    basins: dict[tuple, int] = {}
    statuses: dict[str, int] = {}
    for k in range(count):
        x0 = center + radii[k] * dirs[k]
        trace = experiment.run(x0, max_iters)
        write_trace(out_dir / f"{cfg.name}-sweep-{k:04d}.jsonl", cfg, trace)
        statuses[trace.status] = statuses.get(trace.status, 0) + 1
        if trace.status == "converged":
            key = tuple(round(float(v), decimals) for v in trace.x_final)
            basins[key] = basins.get(key, 0) + 1
    summary = {
        "record": "sweep-summary", "name": cfg.name, "count": count,
        "statuses": dict(sorted(statuses.items())),
        "basins": [{"point": list(k), "count": v}
                   for k, v in sorted(basins.items())],
    }
    out_path = out_dir / f"{cfg.name}-sweep-summary.json"
    out_path.write_text(_dumps(summary) + "\n")
    if not quiet:
        print(f"{cfg.name}: {count} starts, statuses {summary['statuses']}")
        for b in summary["basins"]:
            print(f"  basin {b['point']}: {b['count']}")
        print(f"summary written to {out_path}")
    return EXIT_OK if statuses.get("converged", 0) == count else EXIT_MAX_ITERS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="unionfix",
        description="Run, verify, and sweep union fixed-point experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "run one experiment and write a JSONL trace"),
        ("verify", "sample operator inequalities and write a report"),
        ("sweep", "run a ball of starting points and summarize basins"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="JSON config path or preset name: "
                       + ", ".join(sorted(PRESETS)))
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--max-iters", type=int, default=None,
                       help="override the stop rule's max_iters")
        p.add_argument("--out", type=Path, default=Path("."),
                       help="output directory (default: current)")
        p.add_argument("--quiet", action="store_true",
                       help="suppress the console summary")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.max_iters is not None and args.max_iters < 1:
            raise ConfigError(f"--max-iters: must be at least 1, got {args.max_iters}")
        if args.command == "run":
            return cmd_run(cfg, args.out, args.quiet, args.max_iters)
        if args.command == "verify":
            return cmd_verify(cfg, args.out, args.quiet)
        return cmd_sweep(cfg, args.out, args.quiet, args.max_iters)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
