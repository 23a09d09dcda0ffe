"""Span recorder for the traced benchmark run.

The recorder wraps the public calls into each unionfix module from the
outside: nothing in ``src/`` changes.  :func:`instrument` must run after
``unionfix`` is imported and before any problem is built, because closures
keep the function references they were built with.

Each span records its name, start, end, parent span and op id.  Spans are
kept in typed arrays in memory and written out with :meth:`SpanRecorder.save`
when the run ends.  Spans are recorded only while an op is open, so input
generation and correctness checks cost nothing and appear in no metric.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from array import array
from pathlib import Path

import numpy as np

OP_SPAN = "bench.op"

#: every span name gives the per-layer metrics <name>.calls and <name>.self_s;
#: all are reported, so that self times add up to the op time
SPAN_NAMES = (
    "core_ops.as_vector",
    "core_ops.selector",
    "core_ops.evaluate",
    "core_ops.combinators",
    "sets.active",
    "projections",
    "minconvex.active_selector",
    "minconvex.piece_envelope",
    "minconvex.piece_prox",
    "minconvex.value",
    "solvers.drivers",
    "solvers.validate_schedule",
    "oracle.brute_force_prox",
    "oracle.estimate_radius",
    "oracle.sample_inequality",
    "oracle.verify_fixed_classification",
    "cli.main",
    "cli.parse",
    "cli.build_experiment",
    "cli.serialize",
    "cli.write",
)

#: counters filled by the hooks below while an op is open
COUNTERS = ("pieces_built", "evaluate_ties", "supports_scanned",
            "supports_active", "grid_nodes", "pairs")


class SpanRecorder:
    """In-memory span store with one open-span stack (single-threaded)."""

    def __init__(self):
        self.names: list[str] = [OP_SPAN, *SPAN_NAMES]
        self._ids = {n: k for k, n in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.stop = array("i")  # span count when the span closed
        self.start = array("d")
        self.end = array("d")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = [-1]
        self.op_id = -1

    def _open(self, nid: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.stop.append(0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()
        self.stop[sid] = len(self.name)

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._op_sid = self._open(self._ids[OP_SPAN])

    def end_op(self) -> None:
        self._close(self._op_sid)
        self.op_id = -1

    def wrap(self, name: str, fn, hook=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``hook(counters, args, kwargs, result)`` runs after a recorded call.
        """
        nid = self._ids[name]
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rec.op_id < 0:
                return fn(*args, **kwargs)
            sid = rec._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(sid)
            if hook is not None:
                hook(rec.counters, args, kwargs, result)
            return result

        traced.bench_span = name
        return traced

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name=np.asarray(self.name),
                 parent=np.asarray(self.parent), op=np.asarray(self.op),
                 start=np.asarray(self.start), end=np.asarray(self.end))

    def layers(self) -> dict:
        """Per-span-name calls and self time, plus the derived counters."""
        name = np.asarray(self.name)
        parent = np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        n_names = len(self.names)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                            minlength=len(dur)) if len(dur) else dur
        self_s = dur - child
        calls = np.bincount(name, minlength=n_names)
        self_by = np.bincount(name, weights=self_s, minlength=n_names)
        out = {"spans": int(len(dur))}
        for k, n in enumerate(self.names):
            out[n] = {"calls": int(calls[k]), "self_s": float(self_by[k])}
        op_mask = name == self._ids[OP_SPAN]
        out["op_total_s"] = float(dur[op_mask].sum())
        out["self_total_s"] = float(self_s.sum())
        # selector calls made inside estimate_radius spans: spans open while
        # an estimate is open have ids in (estimate id, its stop count)
        est = np.flatnonzero(name == self._ids["oracle.estimate_radius"])
        sel = np.flatnonzero(name == self._ids["core_ops.selector"])
        stop = np.asarray(self.stop)
        inside = (np.searchsorted(sel, stop[est]) - np.searchsorted(sel, est + 1))
        out["estimate_selector_calls"] = int(inside.sum())
        out.update(self.counters)
        return out


# ---------------------------------------------------------------------------
# Hooks for the derived counts
# ---------------------------------------------------------------------------

def _count_pieces(counters, args, kwargs, result):
    counters["pieces_built"] += len(result.pieces)


def _count_ties(counters, args, kwargs, result):
    counters["evaluate_ties"] += len(result) > 1


def _count_supports(counters, args, kwargs, result):
    owner = args[0]
    if owner.label.startswith("sparsity("):
        counters["supports_scanned"] += len(owner.pieces)
        counters["supports_active"] += len(result)


def _count_grid(counters, args, kwargs, result):
    grid = args[3] if len(args) > 3 else kwargs["grid"]
    counters["grid_nodes"] += grid.points ** grid.dim


def _count_pairs(counters, args, kwargs, result):
    counters["pairs"] += int(args[3] if len(args) > 3 else kwargs["pairs"])


def instrument(rec: SpanRecorder) -> None:
    """Replace the public calls of every unionfix module with span wrappers.

    Module functions are replaced in every module namespace that bound
    them (``from ... import`` copies), class methods on the class, and the
    ``minconvex`` catalog factories return pieces whose prox is wrapped.
    """
    from unionfix import cli, core_ops, minconvex, oracle, projections, sets, solvers

    modules = (core_ops, projections, sets, minconvex, solvers, oracle, cli)
    targets: dict[int, tuple] = {}

    def add(fn, name, hook=None):
        targets[id(fn)] = (fn, rec.wrap(name, fn, hook))

    add(core_ops.as_vector, "core_ops.as_vector")
    for fn in (core_ops.compose, core_ops.relax, core_ops.union_of,
               core_ops.convex_combination, sets.dr_operator):
        add(fn, "core_ops.combinators", _count_pieces)
    for fname in ("orthonormal_basis", "project_span", "affine_solution_parts",
                  "project_affine", "project_box", "project_ball",
                  "project_halfspace", "project_support"):
        add(getattr(projections, fname), "projections")
    add(minconvex.active_selector, "minconvex.active_selector")
    add(minconvex.piece_envelope, "minconvex.piece_envelope")
    add(minconvex.value, "minconvex.value")
    for fname in ("km_admissible", "iterate_union", "cyclic_compose",
                  "cyclic_projections", "cyclic_dr", "cadr", "ppa",
                  "forward_backward", "douglas_rachford"):
        add(getattr(solvers, fname), "solvers.drivers")
    add(solvers.validate_schedule, "solvers.validate_schedule")
    add(oracle.brute_force_prox, "oracle.brute_force_prox", _count_grid)
    add(oracle.estimate_radius, "oracle.estimate_radius")
    add(oracle.sample_inequality, "oracle.sample_inequality", _count_pairs)
    add(oracle.verify_fixed_classification, "oracle.verify_fixed_classification")
    add(cli.main, "cli.main")
    add(cli.load_config, "cli.parse")
    add(cli.build_experiment, "cli.build_experiment")
    add(cli.trace_records, "cli.serialize")
    add(cli.write_trace, "cli.write")

    def wrap_factory(factory):
        @functools.wraps(factory)
        def build(*args, **kwargs):
            piece = factory(*args, **kwargs)
            if getattr(piece.prox, "bench_span", None):
                return piece  # built through another wrapped factory
            return dataclasses.replace(
                piece, prox=rec.wrap("minconvex.piece_prox", piece.prox))
        return build

    for fname in ("quadratic", "scaled_l1", "scaled_l2", "indicator",
                  "indicator_singleton", "indicator_box", "indicator_ball",
                  "indicator_halfspace", "indicator_affine"):
        fn = getattr(minconvex, fname)
        targets[id(fn)] = (fn, wrap_factory(fn))

    for module in modules:
        for key, value in list(vars(module).items()):
            hit = targets.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, key, hit[1])

    core_ops.UnionMap.selector = rec.wrap("core_ops.selector",
                                          core_ops.UnionMap.selector)
    core_ops.UnionMap.evaluate = rec.wrap("core_ops.evaluate",
                                          core_ops.UnionMap.evaluate, _count_ties)
    sets.UnionConvexSet.active = rec.wrap("sets.active",
                                          sets.UnionConvexSet.active,
                                          _count_supports)
