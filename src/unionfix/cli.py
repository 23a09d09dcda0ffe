"""Config-driven experiment runner.

Subcommands::

    unionfix run <config>      run one experiment, write a JSONL trace
    unionfix verify <config>   sample operator inequalities, write a report
    unionfix sweep <config>    run a grid of starts, summarize basins

``<config>`` is a JSON file path or the name of a built-in preset.  The
schema is documented in the README and declared below as field tables:
every section is parsed with its fields' types when the config is loaded,
and every defect is reported with the offending field path.  A defect's
text, path included, is built only when it is raised: a config that
parses formats no path and sorts no keys.  Every
algorithm is wired by one builder, ``_set_driver`` for the set algorithms
and ``_splitting`` for ppa, forward-backward and Douglas-Rachford; a
splitting builder's operator is both the one ``verify`` checks and the one
the driver runs.  Exit codes: 0 converged / all checks passed, 1 config
error, 2 max-iters or failed checks, 3 divergence guard.

Traces are line-delimited JSON: one self-describing header record, one
record per step (iterate, chosen index, relaxation, step norm), and one
summary record (status, fixed-point classification, shadow point when
applicable).  Identical config and seed produce byte-identical files.
Every output is strict JSON with non-ASCII escaped, written as its bytes.
"""

from __future__ import annotations

import argparse
import copy
import functools
import itertools
import json
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

from unionfix import core_ops, minconvex, oracle, projections, sets as sets_mod, solvers
from unionfix.core_ops import UnionMap, piece_count
from unionfix.minconvex import MinConvexFn
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
    """Malformed experiment config; message names the field at fault.

    A field type raises it with the defect alone.  Each section and list
    it passes up through adds its part of the field's path (``.key``,
    ``[k]``), and the loader adds the root (``config``, ``--seed``), so the
    path is joined only when a config is refused.  An error raised with its
    full text has no parts."""

    def __init__(self, message: str):
        super().__init__(message)
        self.path: list[str] = []  # innermost part first

    def at(self, part: str) -> "ConfigError":
        """The error, with the path part that encloses the others."""
        self.path.append(part)
        return self

    def __str__(self) -> str:
        if not self.path:
            return self.args[0]
        return f"{''.join(reversed(self.path))}: {self.args[0]}"


def parse_at(where: str, parse, value, *args):
    """``parse(value, *args)``; a ConfigError it raises gets ``where`` as
    the part of its path that encloses the others."""
    try:
        return parse(value, *args)
    except ConfigError as exc:
        raise exc.at(where)


# ---------------------------------------------------------------------------
# Field types: parse(value, dim) -> value, or a ConfigError naming the defect
# ---------------------------------------------------------------------------

def mapping(value, dim: int = 0) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"expected an object, got {type(value).__name__}")
    return value


def number(value, dim: int = 0) -> float:
    """A JSON int or float that is finite and not a bool."""
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        return float(value)
    raise ConfigError(f"expected a finite number, got {value!r}")


def integer(value, dim: int = 0) -> int:
    """A JSON int, or a float with no fractional part; never a bool."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"expected an integer, got {value!r}")
    return value


def file_name(value, dim: int = 0) -> str:
    """A nonempty string with no directory part, and not . or .."""
    if (not isinstance(value, str) or value in ("", ".", "..") or "\0" in value
            or Path(value).name != value):
        raise ConfigError(f"expected a plain file name, got {value!r}")
    return value


def one_of(options, value, dim: int = 0) -> str:
    """A string among ``options`` (a collection of strings)."""
    if not (isinstance(value, str) and value in options):
        raise ConfigError(f"expected one of {sorted(options)}, got {value!r}")
    return value


def choice(*options: str):
    return functools.partial(one_of, options)


def list_of(item, least: int = 1):
    """A list of at least ``least`` entries, each parsed with ``item``."""
    def parse(value, dim: int = 0) -> list:
        if not isinstance(value, list) or len(value) < least:
            raise ConfigError(f"expected a list of at least {least} entries")
        out = []
        try:
            for v in value:
                out.append(item(v, dim))
        except ConfigError as exc:
            raise exc.at(f"[{len(out)}]")
        return out
    return parse


def checked(parse, test, rule: str):
    """``parse``, then require test(value, dim); ``rule`` may name {d}."""
    def check(value, dim: int = 0):
        out = parse(value, dim)
        if not test(out, dim):
            raise ConfigError(f"must be {rule.format(d=dim)}, got {out}")
        return out
    return check


positive = checked(number, lambda v, d: v > 0, "positive")
nonnegative = checked(number, lambda v, d: v >= 0, "nonnegative")
count = checked(integer, lambda v, d: v >= 1, "at least 1")
seed = checked(integer, lambda v, d: v >= 0, "nonnegative")
dimension = checked(integer, lambda v, d: v == d, "len(x0) = {d}")
vector = list_of(number)
point = checked(vector, lambda v, d: len(v) == d, "a point with len(x0) = {d} entries")
rows = list_of(point)
matrix = checked(rows, lambda v, d: len(v) == d, "a {d}x{d} matrix (len(x0) = {d})")


def columns(value, dim: int = 0) -> np.ndarray:
    """Rows of points, stacked as the columns of a matrix."""
    return np.array(rows(value, dim), dtype=float).T


class Default(NamedTuple):
    """An optional field: its type and the value used when it is absent."""

    parse: Callable
    value: object = None


def parse_section(raw, fields: dict, dim: int = 0) -> dict:
    """Check raw's keys against the field table and parse every field with
    its type, in table order; absent optional fields take their default."""
    raw = mapping(raw)
    if not raw.keys() <= fields.keys():
        raise ConfigError(f"unknown keys {sorted(raw.keys() - fields.keys())}; "
                          f"allowed: {sorted(fields)}")
    if len(raw) < len(fields):
        missing = [k for k, f in fields.items()
                   if not isinstance(f, Default) and k not in raw]
        if missing:
            raise ConfigError(f"missing required keys {sorted(missing)}")
    out = {}
    for key, f in fields.items():
        if key not in raw:
            out[key] = f.value
            continue
        try:
            out[key] = (f.parse if isinstance(f, Default) else f)(raw[key], dim)
        except ConfigError as exc:
            raise exc.at(f".{key}")
    return out


def section(fields: dict):
    """The type of a nested section with the given field table."""
    return lambda value, dim=0: parse_section(value, fields, dim)


def _kind(raw, table: dict) -> tuple[str, dict]:
    """A section's kind, checked against the table, and its other fields."""
    raw = mapping(raw)
    kind = parse_at(".kind", one_of, table, raw.get("kind"))
    rest = raw.copy()
    del rest["kind"]
    return kind, rest


def _build(spec, dim: int, table: dict, module):
    """Parse a catalog spec and call its constructor, looked up on the
    module when called (so wrappers installed later are honoured), with the
    fields in table order; a constructor's ValueError is a ConfigError."""
    kind, rest = _kind(spec, table)
    constructor, fields = table[kind]
    args = parse_section(rest, fields, dim)
    try:
        return getattr(module, constructor)(*args.values())
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_set(spec, dim: int) -> sets_mod.UnionConvexSet:
    return _build(spec, dim, SET_KINDS, sets_mod)


def build_piece(spec, dim: int) -> minconvex.ConvexPiece:
    return _build(spec, dim, PIECE_KINDS, minconvex)


#: set kind -> (constructor on ``sets``, fields in argument order)
SET_KINDS = {
    "affine": ("affine_set", {"A": rows, "b": vector}),
    "box": ("box_set", {"lo": point, "hi": point}),
    "ball": ("ball_set", {"center": point, "radius": nonnegative}),
    "halfspace": ("halfspace_set", {"a": point, "beta": number}),
    "singleton": ("singleton_set", {"point": point}),
    "span": ("span_set", {"vectors": columns, "offset": Default(point)}),
    "sparsity": ("sparsity_set", {"n": dimension, "s": integer}),
    "union-of": ("union_of_sets", {"members": list_of(build_set)}),
}

#: piece kind -> (constructor on ``minconvex``, fields in argument order);
#: indicator-<k> takes the fields of set kind k
PIECE_KINDS = {
    "quadratic": ("quadratic", {"Q": matrix, "b": point, "c": Default(number, 0.0)}),
    "l1": ("scaled_l1", {"weight": number}),
    "l2": ("scaled_l2", {"weight": number}),
    **{f"indicator-{k}": (f"indicator_{k}", SET_KINDS[k][1])
       for k in ("box", "ball", "singleton", "halfspace", "affine")},
}


def build_fn(spec, dim: int) -> MinConvexFn:
    return MinConvexFn(parse_section(spec, FN, dim)["pieces"])


def build_smooth(spec, dim: int) -> solvers.SmoothFn:
    fields = parse_section(spec, SMOOTH, dim)
    try:
        Q = minconvex.psd_matrix(fields["Q"], dim)
    except ValueError as exc:
        raise ConfigError(str(exc)).at(".Q") from exc
    b = np.array(fields["b"])
    return solvers.SmoothFn(
        value=lambda x: (0.5 * float(projections._dot(projections._vecmat(x, Q), x))
                         + float(projections._dot(x, b))),
        grad=lambda x: projections._matvec(Q, x) + b,
        lipschitz=float(np.linalg.norm(Q, 2)),
        grad_many=lambda X: projections._matvec_rows(Q, X) + b,
    )


@dataclass
class Experiment:
    """A fully-built experiment: a runner plus the operators to verify."""

    run: "callable"
    operators: list[UnionMap]


def _set_driver(driver: str, operators: str):
    """Builder for a driver over config.problem.sets.  The driver and its
    operator-list function are looked up on ``solvers`` when called, so
    wrappers installed on that module after import are honoured."""

    def build(problem: dict, algo: dict):
        set_list, tie_tol = problem["sets"], algo["tie_tol"]

        def solve(x0, policy, stop):
            return getattr(solvers, driver)(set_list, x0, stop=stop, policy=policy,
                                            tie_tol=tie_tol)

        return solve, getattr(solvers, operators)(set_list, tie_tol)

    return build


def _splitting(driver: str, module, operator: str):
    """Builder for a splitting driver over config.problem's terms, in table
    order.  It builds ``operator(*terms, gamma, tie_tol)`` on ``module``
    once, to verify and to pass to the driver as its ``_operator``;
    config.algorithm.lam, if the algorithm has one, is a constant schedule
    checked against 1/alpha (one step checks every step of a constant one).
    The driver and the constructor are looked up when called, so wrappers
    installed on their modules after import are honoured."""

    def build(problem: dict, algo: dict):
        terms, gamma, tie_tol = problem.values(), algo["gamma"], algo["tie_tol"]
        try:
            T = getattr(module, operator)(*terms, gamma, tie_tol)
        except ValueError as exc:
            raise ConfigError(f"config.algorithm.gamma: {exc}") from exc
        schedule = ()
        if "lam" in algo:
            schedule = (Schedule.constant(algo["lam"]),)
            try:
                solvers.validate_schedule(*schedule, 1.0 / T.alpha, horizon=1)
            except solvers.ScheduleError as exc:
                raise ConfigError(f"config.algorithm.lam: {exc}") from exc

        def solve(x0, policy, stop):
            return getattr(solvers, driver)(*terms, gamma, *schedule, policy, x0,
                                            stop, tie_tol=tie_tol, _operator=T)

        return solve, [T]

    return build


#: top-level fields, in to_dict order; the sections are parsed once
#: len(x0) is known
CONFIG = {
    "name": file_name, "problem": mapping, "algorithm": mapping, "x0": vector,
    "stop": Default(mapping, {}), "seed": Default(seed, 0),
    "output": Default(file_name), "verify": Default(mapping),
    "sweep": Default(mapping),
}
STOP = {"step_tol": Default(nonnegative, 1e-10), "max_iters": Default(count, 10_000)}
POLICY = {"kind": choice(*solvers.POLICY_KINDS)}
ALGORITHM = {"policy": Default(section(POLICY), {"kind": "lowest-index"}),
             "tie_tol": Default(nonnegative, 1e-10)}

_SETS = {"sets": list_of(build_set, least=2)}
_RELAXED = {**ALGORITHM, "gamma": positive, "lam": Default(number, 1.0)}

#: algorithm kind -> (algorithm fields beyond kind, problem fields,
#: builder(problem, algo) -> (solve(x0, policy, stop), operators))
ALGORITHMS = {
    "cyclic-projections": (ALGORITHM, _SETS,
                           _set_driver("cyclic_projections", "projectors")),
    "cyclic-dr": (ALGORITHM, _SETS, _set_driver("cyclic_dr", "dr_ring")),
    "cadr": (ALGORITHM, _SETS, _set_driver("cadr", "dr_anchored")),
    "ppa": ({**ALGORITHM, "gamma": positive}, {"f": build_fn},
            _splitting("ppa", minconvex, "prox_union")),
    "forward-backward": (_RELAXED, {"smooth": build_smooth, "g": build_fn},
                         _splitting("forward_backward", solvers, "fb_operator")),
    "douglas-rachford": (_RELAXED, {"f": build_fn, "g": build_fn},
                         _splitting("douglas_rachford", solvers, "drs_operator")),
}

VERIFY = {"pairs": Default(count, 1000), "lo": Default(point), "hi": Default(point),
          "tol": Default(nonnegative, 1e-9)}
SWEEP = {"radius": Default(positive, 0.5), "count": Default(count, 20),
         "round_decimals": Default(integer, 6)}
FN = {"pieces": list_of(build_piece)}
SMOOTH = {"kind": choice("quadratic"), "Q": matrix, "b": point}


def _verify_region(spec: dict, dim: int) -> dict:
    """The verify section with its sampling box filled in (default
    [-5, 5] per entry) and checked as the oracle checks it."""
    lo = spec["lo"] or [-5.0] * dim
    hi = spec["hi"] or [5.0] * dim
    try:
        oracle._check_region(lo, hi)
    except ValueError as exc:
        raise ConfigError(f"config.verify.lo/hi: {exc}") from exc
    return {**spec, "lo": lo, "hi": hi}


@dataclass
class ExperimentConfig:
    """An experiment config as written, which to_dict echoes, and its
    sections as parsed at load time; to_dict/from_dict round-trip exactly."""

    name: str
    problem: dict
    algorithm: dict
    x0: list[float]
    stop: dict = field(default_factory=dict)
    seed: int = 0
    output: str | None = None
    verify: dict | None = None
    sweep: dict | None = None
    parsed: dict = field(default_factory=dict, compare=False, repr=False)

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        top = parse_at("config", parse_section, raw, CONFIG)
        dim = len(top["x0"])
        kind, algo = parse_at("config.algorithm", _kind, top["algorithm"], ALGORITHMS)
        algo_fields, problem_fields, _ = ALGORITHMS[kind]
        parsed = {
            "stop": parse_at("config.stop", parse_section, top["stop"], STOP, dim),
            "algorithm": {"kind": kind, **parse_at(
                "config.algorithm", parse_section, algo, algo_fields, dim)},
            "problem": parse_at("config.problem", parse_section, top["problem"],
                                problem_fields, dim),
            "verify": _verify_region(parse_at(
                "config.verify", parse_section, top["verify"] or {}, VERIFY, dim), dim),
            "sweep": parse_at("config.sweep", parse_section, top["sweep"] or {},
                              SWEEP, dim),
        }
        cfg = ExperimentConfig(**top, parsed=parsed)
        # Build eagerly so the gamma window and the lam bound fail here too.
        cfg.experiment
        return cfg

    @functools.cached_property
    def experiment(self) -> Experiment:
        """The built experiment, which every command runs: built once, at
        load time by from_dict; its runs read the seed when they start."""
        return build_experiment(self)

    def to_dict(self) -> dict:
        """The config as written, less absent fields; an empty stop counts
        as absent."""
        return copy.deepcopy(self._written())

    def _written(self) -> dict:
        """:meth:`to_dict` without the copy, for callers that only read it."""
        out = {key: getattr(self, key) for key in CONFIG}
        return {k: v for k, v in out.items() if v is not None and (v or k != "stop")}


def build_experiment(cfg: ExperimentConfig) -> Experiment:
    """Assemble the parsed problem and return a runner over (x0, max_iters),
    whose selection policy takes ``cfg.seed`` as it is when a run starts."""
    algo = cfg.parsed["algorithm"]
    stop = StopRule(**cfg.parsed["stop"])
    solve, operators = ALGORITHMS[algo["kind"]][2](cfg.parsed["problem"], algo)

    def run(x0, max_iters=None):
        rule = stop if max_iters is None else replace(stop, max_iters=max_iters)
        return solve(x0, SelectionPolicy(kind=algo["policy"]["kind"], seed=cfg.seed),
                     rule)

    return Experiment(run=run, operators=operators)


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
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
        raise ConfigError(f"{source}: not a readable JSON config: {exc}") from exc
    return ExperimentConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# Trace serialization
# ---------------------------------------------------------------------------

def _json_default(obj):
    """JSON form of what the encoder does not know: numpy arrays as lists
    of floats, numpy scalars as Python ones, anything else as its str."""
    if isinstance(obj, np.ndarray):
        return obj.astype(float).tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    return str(obj)


#: strict JSON (no NaN or infinity) with sorted keys; numpy floats are
#: Python floats to the encoder, so they print as float does
_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False, default=_json_default)
_dumps = _ENCODER.encode


def header_record(cfg: ExperimentConfig, trace: IterationTrace) -> str:
    """A trace's encoded header record, which depends only on the config
    and the trace's algorithm."""
    return _dumps({
        "record": "header",
        "name": cfg.name,
        "algorithm": trace.meta.get("algorithm"),
        "dim": len(cfg.x0),
        "seed": cfg.seed,
        "config": cfg._written(),  # encoded, never changed: no copy
    })


def _step_lines(steps: list) -> list[str]:
    """The steps' records as :func:`_dumps` encodes their dicts: one encoder
    call per column (n, lam, step_norm, and the points x and the first step's
    extras, which every step has), split into rows; one per distinct index."""
    texts: dict = {}  # keyed by repr: 1, True, 1.0 and 0.0, -0.0 encode apart
    columns = {"index": [texts.get(k := repr(s.index))
                         or texts.setdefault(k, _dumps(s.index)) for s in steps]}
    for key in ("n", "lam", "step_norm"):
        columns[key] = _dumps([getattr(s, key) for s in steps])[1:-1].split(", ")
    points = ("x", *(steps and steps[0].extras or ()))  # no steps: no rows
    for key in points:
        rows = np.array([s.x if key == "x" else s.extras[key] for s in steps], float)
        columns[key] = _dumps(rows.tolist())[2:-2].split("], [")
    line = _dumps({**dict.fromkeys(columns, "%s"), **dict.fromkeys(points, ["%s"]),
                   "record": "step"}).replace('"%s"', "%s")
    return [line % row for row in zip(*(columns[key] for key in sorted(columns)))]


def trace_records(cfg: ExperimentConfig, trace: IterationTrace,
                  head: list[str] | None = None) -> list[str]:
    """Serialize a trace as JSONL records: header, steps, summary.
    ``head``, when given, is a new list of the trace's header and step
    records, already encoded; the summary is appended to it."""
    lines = head or [header_record(cfg, trace), *_step_lines(trace.steps)]
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


def write_trace(path: Path, cfg: ExperimentConfig, trace: IterationTrace,
                head: list[str] | None = None) -> None:
    _write(path, "\n".join(trace_records(cfg, trace, head)) + "\n")


def _write(path: Path, text: str) -> None:
    """Create or truncate the file at path and write the encoder's text as
    bytes: the encoder escapes every non-ASCII character, so these are the
    bytes a text-mode write would make."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        data = memoryview(text.encode())
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_run(cfg: ExperimentConfig, out_dir: Path, quiet: bool,
            max_iters: int | None) -> int:
    trace = cfg.experiment.run(cfg.x0, max_iters)
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
    experiment = cfg.experiment
    spec = cfg.parsed["verify"]
    pieces = sum(piece_count(op.pieces) for op in experiment.operators)
    if spec["pairs"] * pieces > oracle.MAX_GRID_POINTS:
        raise ConfigError(
            f"config.verify.pairs: {spec['pairs']} pairs x {pieces} operator "
            f"pieces exceeds the {oracle.MAX_GRID_POINTS} evaluation cap")
    tol = spec["tol"]
    reports = []
    for op in experiment.operators:
        rep = oracle.sample_inequality(op, op.alpha, (spec["lo"], spec["hi"]),
                                       spec["pairs"], seed=cfg.seed)
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
    _write(out_path, _dumps({"record": "verify", "name": cfg.name, "tol": tol,
                             "operators": reports, "passed": passed}) + "\n")
    if not quiet:
        for r in reports:
            flag = "ok" if r["passed"] else "VIOLATION"
            print(f"{r['operator']}: alpha={r['alpha']} "
                  f"max_violation={r['max_violation']:.3e} [{flag}]")
        print(f"report written to {out_path}")
    return EXIT_OK if passed else EXIT_MAX_ITERS


#: steps whose lines a sweep encodes in one :func:`_step_lines` call: enough
#: to spread the encoder's fixed costs, few enough to bound the lines held
_ENCODE_STEPS = 4096


def _encoded(traces: list) -> Iterator[tuple[IterationTrace, list]]:
    """Each trace with its step lines: one :func:`_step_lines` call over the
    steps of all the traces, cut per trace, or, if that raises, one call per
    trace, so that the traces before a step the encoder refuses come first,
    as in a trace-by-trace encoding."""
    try:
        lines = iter(_step_lines([s for trace in traces for s in trace.steps]))
    except Exception:
        for trace in traces:
            yield trace, _step_lines(trace.steps)
        return
    for trace in traces:
        yield trace, list(itertools.islice(lines, len(trace.steps)))


def _sweep_traces(experiment: Experiment, X0: np.ndarray,
                  max_iters: int | None) -> Iterator[tuple[IterationTrace, list]]:
    """The traces of a block of sweep starts, in start order, each with its
    step lines: one lockstep run, whose consecutive traces are encoded
    together up to ``_ENCODE_STEPS`` steps at a time, or, if that raises,
    one run per start, so that the traces yielded and the error raised are
    those of a start-by-start sweep."""
    try:
        traces = experiment.run(X0, max_iters)
    except Exception:
        # a block raises when some start would, maybe with another start's
        # error; the redo raises the first failing start's own error, after
        # the earlier starts' traces are written
        if len(X0) == 1:  # already the start's own error
            raise
        for x0 in X0:
            trace = experiment.run(x0, max_iters)
            yield trace, _step_lines(trace.steps)
        return
    group, steps = [], 0
    for trace in traces:
        group.append(trace)
        steps += len(trace.steps)
        if steps >= _ENCODE_STEPS:
            yield from _encoded(group)
            group, steps = [], 0
    if group:
        yield from _encoded(group)


def cmd_sweep(cfg: ExperimentConfig, out_dir: Path, quiet: bool,
              max_iters: int | None) -> int:
    spec = cfg.parsed["sweep"]
    radius, starts, decimals = spec["radius"], spec["count"], spec["round_decimals"]
    center = np.array(cfg.x0)
    if starts * center.size > oracle.MAX_GRID_POINTS:
        raise ConfigError(
            f"config.sweep.count: {starts} starts x {center.size} coordinates "
            f"exceeds the {oracle.MAX_GRID_POINTS} evaluation cap")
    experiment = cfg.experiment
    dirs, radii = oracle._ball_samples(np.random.default_rng(cfg.seed), starts,
                                       center.size)
    radii = radius * radii
    out_dir.mkdir(parents=True, exist_ok=True)
    basins: dict[tuple, int] = {}
    statuses: dict[str, int] = {}
    header = None
    block = core_ops.BLOCK_ROWS
    for first in range(0, starts, block):
        # row k is bit for bit the start center + radii[k] * dirs[k]
        X0 = center + radii[first:first + block, None] * dirs[first:first + block]
        for k, (trace, lines) in enumerate(_sweep_traces(experiment, X0, max_iters),
                                           first):
            header = header or header_record(cfg, trace)
            write_trace(out_dir / f"{cfg.name}-sweep-{k:04d}.jsonl", cfg, trace,
                        [header, *lines])
            statuses[trace.status] = statuses.get(trace.status, 0) + 1
            if trace.status == "converged":
                key = tuple(round(float(v), decimals) for v in trace.x_final)
                basins[key] = basins.get(key, 0) + 1
    summary = {
        "record": "sweep-summary", "name": cfg.name, "count": starts,
        "statuses": dict(sorted(statuses.items())),
        "basins": [{"point": list(k), "count": v}
                   for k, v in sorted(basins.items())],
    }
    out_path = out_dir / f"{cfg.name}-sweep-summary.json"
    _write(out_path, _dumps(summary) + "\n")
    if not quiet:
        print(f"{cfg.name}: {starts} starts, statuses {summary['statuses']}")
        for b in summary["basins"]:
            print(f"  basin {b['point']}: {b['count']}")
        print(f"summary written to {out_path}")
    return EXIT_OK if statuses.get("converged", 0) == starts else EXIT_MAX_ITERS


def output_dir(path: Path) -> Path:
    """--out: a directory, or a path whose nearest existing ancestor is one
    (ancestors are looked up nearest first, as far as the first that
    exists)."""
    for existing in itertools.chain((path,), path.parents):
        if existing.exists():
            if not existing.is_dir():
                raise ConfigError(f"--out: {existing} exists and is not a directory")
            break
    return path


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused by every
    later one in the process (parsing does not change it)."""
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
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = parse_at("--seed", seed, args.seed)
        if args.max_iters is not None:
            parse_at("--max-iters", count, args.max_iters)
        out = output_dir(args.out)
        if args.command == "run":
            return cmd_run(cfg, out, args.quiet, args.max_iters)
        if args.command == "verify":
            return cmd_verify(cfg, out, args.quiet)
        return cmd_sweep(cfg, out, args.quiet, args.max_iters)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
