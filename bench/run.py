#!/usr/bin/env python3
"""unionfix benchmark: sparse-ladder, splitting-cli and oracle-audit.

Run from the root of a checkout:

    python3 bench/run.py --workload sparse-ladder --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

With ``--trace 0`` a workload runs whole rounds of ops until ``--seconds``
have passed and its minimum number of rounds is done, and reports the
end-to-end metrics.  With ``--trace 1`` it runs
a fixed number of rounds with every public unionfix call wrapped in a span,
re-runs the same ops untraced in a child process, and reports the
per-layer metrics and the tracing overhead.  Every op passes a correctness
gate; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The code under test is imported from ``src/`` next to this directory; the
benchmark exits with code 2 when it is missing.  Scratch files go to
``.bench_work/`` in the checkout.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here

import os  # noqa: E402
import signal  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ[_var] = "1"

#: Set-up is timed at reference speed too.  numpy is not loaded yet, so a
#: pure-Python loop is the probe; it runs every 10 ms until the set-up ends.
#: SETUP_PROBE_REF_S is what the loop takes on an idle 2-core Xeon VM.
SETUP_PROBE_REF_S = 4.7e-5


def python_probe() -> float:
    """Seconds one pass of a fixed pure-Python loop takes right now."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(400):
        table[i & 63] = acc
        acc += i * i
    return time.perf_counter() - t0


SETUP_PROBES = []
if __name__ == "__main__":
    SETUP_PROBES.append(python_probe())
    signal.signal(signal.SIGALRM, lambda signum, frame: SETUP_PROBES.append(python_probe()))
    signal.setitimer(signal.ITIMER_REAL, 0.01, 0.01)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BASELINE = BENCH_DIR / "baseline.json"
WORKLOAD_NAMES = ("sparse-ladder", "splitting-cli", "oracle-audit")
SETUP_REPEATS = 11  # set-up is timed in this process and in 10 fresh ones
TRACE_ROUNDS = {"sparse-ladder": 5, "splitting-cli": 4, "oracle-audit": 2}
CHILD_TIMEOUT_S = 170
MAX_FAILURES_SHOWN = 5

#: The machine's speed drifts by up to 2x within seconds (shared cores), so
#: every op is bracketed by a speed probe, a fixed loop of the small-array
#: numpy calls unionfix makes in every step, and timed runs also sample the
#: probe every SPEED_SAMPLE_S while an op runs.  Times are reported at
#: reference speed: raw time * CALIBRATION_REF_S / (mean probe time), where
#: CALIBRATION_REF_S is what the probe takes on an idle 2-core Xeon VM.
CALIBRATION_LOOPS = 1500
CALIBRATION_REF_S = 1.8e-3
SPEED_SAMPLE_S = 0.05

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "op/s", "op_ms.p50": "ms", "op_ms.tail": "ms",
    "steps_per_s": "step/s", "peak_rss_mib": "MiB", "ok_frac": "1",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # internal: time set-up only / run a fixed number of rounds untraced
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--rounds", type=int, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs across numpy versions
        openblas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "loadavg": list(os.getloadavg()),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def speed_probe() -> float:
    """Seconds one pass of the calibration loop takes right now."""
    import numpy as np

    x = np.ones(4)
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(CALIBRATION_LOOPS):
        v = np.array(x, dtype=float)
        acc += float(np.dot(v, v))
    return time.perf_counter() - t0


class SpeedSampler:
    """Runs the speed probe from a SIGALRM handler while an op is open."""

    def __init__(self):
        self.active = False
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        if self.active:
            self.samples.append(speed_probe())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SPEED_SAMPLE_S, SPEED_SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def child_argv(args, *extra) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", "0", *extra]


def run_child(argv: list[str]) -> dict:
    """Run a child benchmark process and return its last stdout line as JSON."""
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child {argv[2:]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rounds(workload, seconds=None, rounds=None, recorder=None) -> list[dict]:
    """Run whole rounds of ops: exactly ``rounds``, or until ``seconds`` pass
    and at least ``workload.min_rounds`` are done.

    Time-bounded runs also sample the machine speed during each op; the
    probes' own time is taken out of the op's time.
    """
    records = []
    sampler = SpeedSampler()
    phase_start = time.perf_counter()
    r = 0
    with sampler if seconds is not None else contextlib.nullcontext():
        while (r < rounds) if rounds is not None else (
                r < workload.min_rounds
                or time.perf_counter() - phase_start < seconds):
            for op in workload.round(r):
                records.append(run_op(op, len(records), sampler, recorder))
            r += 1
    return records


def run_op(op, op_id: int, sampler: SpeedSampler, recorder) -> dict:
    """Time one op between speed probes, then run its correctness gate."""
    from workloads import Outcome

    error = None
    probes = [speed_probe()]
    sampler.samples = []
    if recorder is not None:
        recorder.begin_op(op_id)
    sampler.active = True
    t0 = time.perf_counter()
    try:
        result = op.call()
    except Exception:  # an op that raises is a failed op
        error = traceback.format_exc()
    elapsed = time.perf_counter() - t0
    sampler.active = False
    if recorder is not None:
        recorder.end_op()
    elapsed -= sum(sampler.samples)
    probes += sampler.samples
    probes.append(speed_probe())
    probe = statistics.fmean(probes)
    bracket = (probes[0] + probes[-1]) / 2
    if error is None:
        try:
            outcome = op.check(result)
        except Exception:  # a broken output fails its gate
            outcome = Outcome(ok=False, detail=traceback.format_exc())
    else:
        outcome = Outcome(ok=False, detail=f"raised: {error}")
    return {"label": op.label, "s": elapsed, "ref_s": elapsed * CALIBRATION_REF_S / probe,
            "bracket_ref_s": elapsed * CALIBRATION_REF_S / bracket,
            "ok": outcome.ok, "steps": outcome.steps, "bytes": outcome.bytes_written,
            "detail": outcome.detail}


def report_failures(records) -> int:
    failures = [rec for rec in records if not rec["ok"]]
    for rec in failures[:MAX_FAILURES_SHOWN]:
        print(f"FAILED op {rec['label']}: {rec['detail']}", file=sys.stderr)
    return len(failures)


def tail_value(times: list[float], pct: int) -> float:
    """Nearest-rank percentile; baseline.json notes why each workload's."""
    ordered = sorted(times)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def end_to_end_values(records, time_key: str, setup_s: float, tail_pct: int) -> dict:
    times = [rec[time_key] for rec in records]
    op_s = sum(times)
    n = len(records)
    return {
        "setup_s": setup_s,
        "ops_per_s": n / op_s,
        "op_ms.p50": 1e3 * statistics.median(times),
        "op_ms.tail": 1e3 * tail_value(times, tail_pct),
        "steps_per_s": sum(rec["steps"] for rec in records) / op_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": sum(rec["ok"] for rec in records) / n,
    }


def end_to_end(args, workload, setup: dict) -> tuple[dict, list, dict]:
    """Metrics at reference speed, and the same metrics from raw wall times
    and from the bracketing probes alone (reported for comparison)."""
    fresh = [run_child(child_argv(args, "--setup-probe"))
             for _ in range(SETUP_REPEATS - 1)]
    setups = {k: statistics.median([setup[k], *(f[k] for f in fresh)])
              for k in ("setup_s", "setup_raw_s")}
    records = run_rounds(workload, seconds=args.seconds)
    values = end_to_end_values(records, "ref_s", setups["setup_s"], workload.tail_pct)
    alternatives = {
        "raw": end_to_end_values(records, "s", setups["setup_raw_s"], workload.tail_pct),
        "bracket": end_to_end_values(records, "bracket_ref_s", setups["setup_s"],
                                     workload.tail_pct),
    }
    return ({k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, records,
            alternatives)


def per_layer(args, workload, recorder) -> tuple[dict, list, bool]:
    from spans import SPAN_NAMES

    rounds = TRACE_ROUNDS[args.workload]
    records = run_rounds(workload, rounds=rounds, recorder=recorder)
    reference = run_child(child_argv(args, "--rounds", str(rounds)))["ops"]
    if [r["label"] for r in reference] != [r["label"] for r in records]:
        raise RuntimeError("untraced reference run executed different ops")
    recorder.save(WORK / f"spans-{args.workload}-seed{args.seed}.npz")
    layers = recorder.layers()

    m: dict[str, tuple] = {}
    for name in SPAN_NAMES:
        m[f"{name}.calls"] = (layers[name]["calls"], "count")
        m[f"{name}.self_s"] = (layers[name]["self_s"], "s")
    traced_s = layers["op_total_s"]
    m["bench.unattributed_s"] = (layers["bench.op"]["self_s"], "s")
    m["bench.traced_op_s"] = (traced_s, "s")
    m["bench.untraced_op_s"] = (sum(r["s"] for r in reference), "s")
    # median over the paired ops, at reference speed: the two runs see
    # different machine load, and a few long ops would dominate a sum
    m["bench.tracing_overhead_frac"] = (statistics.median(
        t["ref_s"] / u["ref_s"] for t, u in zip(records, reference)) - 1.0, "1")
    m["bench.spans"] = (layers["spans"], "count")

    def ratio(a, b):
        return a / b if b else 0.0

    solver_steps = sum(r["steps"] for r in records) if workload.solver_steps else 0
    evaluate_calls = layers["core_ops.evaluate"]["calls"]
    m["core_ops.pieces_built"] = (layers["pieces_built"], "count")
    m["core_ops.ties_frac"] = (ratio(layers["evaluate_ties"], evaluate_calls), "1")
    m["sets.supports_scanned"] = (layers["supports_scanned"], "count")
    m["sets.active_yield"] = (ratio(layers["supports_active"],
                                    layers["supports_scanned"]), "1")
    m["minconvex.prox_per_step"] = (
        ratio(layers["minconvex.piece_prox"]["calls"], solver_steps), "1")
    m["solvers.steps"] = (solver_steps, "count")
    for n, s in ((8, 2), (12, 3), (16, 3), (20, 3)):
        cp = [r for r in reference if r["label"] == f"cp-{n}-{s}"]
        m[f"solvers.step_ms.cp-{n}-{s}"] = (
            1e3 * ratio(sum(r["ref_s"] for r in cp), sum(r["steps"] for r in cp)), "ms")
    m["oracle.grid_nodes"] = (layers["grid_nodes"], "count")
    m["oracle.selector_calls_per_estimate"] = (
        ratio(layers["estimate_selector_calls"],
              layers["oracle.estimate_radius"]["calls"]), "1")
    m["oracle.pairs"] = (layers["pairs"], "count")
    m["cli.bytes_written"] = (sum(r["bytes"] for r in records), "B")

    # self times of all spans add up to the traced op time by construction;
    # a mismatch means a span was left open or closed twice
    attributed = layers["self_total_s"]
    balanced = abs(attributed - traced_s) <= 1e-6 * max(traced_s, 1e-9)
    if not balanced:
        print(f"span self times sum to {attributed} s, op time is {traced_s} s",
              file=sys.stderr)
    return m, records, balanced


def fingerprint_check(workload_name: str, seed: int, metrics: dict) -> None:
    """Compare exact counts with the baseline's fingerprint for this seed."""
    if not BASELINE.is_file():
        return
    baseline = json.loads(BASELINE.read_text())
    expected = baseline.get("fingerprint", {}).get(workload_name, {}).get(str(seed))
    if expected is None:
        return
    changed = {k: (v, metrics[k][0]) for k, v in expected.items()
               if k in metrics and metrics[k][0] != v}
    if changed:
        print(f"fingerprint: BEHAVIOUR CHANGE on {workload_name} seed {seed} "
              f"(baseline, now): {json.dumps(changed)}")
    else:
        print(f"fingerprint: {len(expected)} counts match the baseline")


def print_result(workload_name, metrics, records, correct):
    for name, (value, unit) in metrics.items():
        print(f"{workload_name:14s} {name:42s} {value!r:>24} {unit}")
    failed = sum(not r["ok"] for r in records)
    print(json.dumps({
        "correct": bool(correct and failed == 0),
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_workload(args, workdir: Path) -> int:
    recorder = None
    if args.trace:
        from spans import SpanRecorder, instrument

        recorder = SpanRecorder()
        instrument(recorder)  # before any problem is built
    import unionfix
    import workloads

    if Path(unionfix.__file__).resolve().parent.parent != SRC:
        print(f"error: imported unionfix from {unionfix.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setup_raw_s = time.perf_counter() - T_START
    signal.setitimer(signal.ITIMER_REAL, 0)
    SETUP_PROBES.append(python_probe())
    setup_raw_s -= sum(SETUP_PROBES[1:-1])
    setup = {"setup_raw_s": setup_raw_s,
             "setup_s": setup_raw_s * SETUP_PROBE_REF_S / statistics.fmean(SETUP_PROBES)}

    if args.setup_probe:
        print(json.dumps(setup))
        return 0
    if args.rounds is not None:
        records = run_rounds(workload, rounds=args.rounds)
        print(json.dumps({"ops": records}))
        return 0

    env = environment()
    print("environment: " + json.dumps(env))
    alternatives = None
    if args.trace:
        metrics, records, correct = per_layer(args, workload, recorder)
        fingerprint_check(args.workload, args.seed, metrics)
    else:
        metrics, records, alternatives = end_to_end(args, workload, setup)
        print("alternatives: " + json.dumps(alternatives))
        correct = True
    failed = report_failures(records)
    by_label: dict[str, list] = {}
    for rec in records:
        by_label.setdefault(rec["label"], []).append(rec["ref_s"])
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "tail_pct": workload.tail_pct,
        "ops": len(records), "failed": failed,
        "speed_median": statistics.median(r["s"] / r["ref_s"] for r in records),
        "op_ms_median_by_label": {k: 1e3 * statistics.median(v)
                                  for k, v in sorted(by_label.items())},
        "ops_by_label": {k: len(v) for k, v in sorted(by_label.items())},
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "alternatives": alternatives,
    }
    WORK.mkdir(exist_ok=True)
    (WORK / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    print_result(args.workload, metrics, records, correct)
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print all metrics."""
    merged, attempted, failed, correct = {}, 0, 0, True
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=3 * CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for k, v in result["metrics"].items():
            merged[f"{name}/{k}"] = v
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "unionfix" / "__init__.py").is_file():
        signal.setitimer(signal.ITIMER_REAL, 0)  # stop the set-up probe
        print(f"error: no unionfix package at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        signal.setitimer(signal.ITIMER_REAL, 0)  # set-up is timed per workload
        return run_all(args)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        return run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
