#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, recorded as a BENCH file.

Run from anywhere, with two checkouts of the repository, the parent commit's
and the change's:

    python3 tools/bench_pairs.py --parent PARENT --change CHANGE \
        --workload sparse-ladder --seed 1 --pairs 10 --out BENCH_28.json

Each pair runs ``python3 bench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, with ``python3`` found on PATH and T the
``run_seconds`` of the parent's BENCHMARK.json, the parent first in even
pairs and the change first in odd ones.  For every end-to-end metric that BENCHMARK.json
names (read from the parent checkout) the file records each side's median
and quartiles, the pair count, the pairs the change won (strictly better
in the metric's direction; ties count for neither) and a verdict
(:func:`verdict`: gain, worse, unresolved or flat).  A run that is not
``correct`` stops the script.  Two checkouts whose BENCHMARK.json or files
under ``bench/`` differ are refused before any run, naming the first file
that differs (:func:`benchmark_difference`): pairs of runs of two
different benchmarks measure nothing.  The out file collects one entry per
(workload, seed), replacing an earlier one.  Each entry carries its command
and a record of the machine it ran on: CPU model, core count, the Python
and numpy versions of that ``python3``, the OpenBLAS core numpy loads, and
whether PYTHONDONTWRITEBYTECODE was set (so set-up compiled the sources).
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path


PYTHON = "python3"


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run's metrics, by name."""
    out = subprocess.run(
        [PYTHON, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if result["correct"] is not True:
        raise SystemExit(f"{checkout}: {workload} seed {seed} not correct: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def benchmark_files(checkout: Path) -> dict:
    """The files that define a checkout's benchmark, by path relative to
    it: BENCHMARK.json and every file under bench/, bytecode caches left
    out."""
    files = [checkout / "BENCHMARK.json", *(checkout / "bench").rglob("*")]
    return {f.relative_to(checkout).as_posix(): f for f in files
            if f.is_file() and "__pycache__" not in f.parts}


def benchmark_difference(parent: Path, change: Path) -> str | None:
    """The first file, in path order, that differs between the two
    checkouts' benchmarks (in one only, or with other bytes), or None."""
    a, b = benchmark_files(parent), benchmark_files(change)
    for name in sorted(a.keys() | b.keys()):
        if name not in a or name not in b or a[name].read_bytes() != b[name].read_bytes():
            return name
    return None


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def wins(better: str, parent: list, change: list) -> int:
    """The pairs whose change run is strictly better than its parent run."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - q) > 0 for q, c in zip(parent, change))


def verdict(better: str, bound: float, parent: list, change: list) -> str:
    """A metric's verdict from its paired runs (``better`` is "higher" or
    "lower"; ``bound`` the worsening BENCHMARK.json allows, a fraction of
    the parent's median), the first of these that holds:

    - ``gain``: the change wins at least 9 of 10 pairs, and its median is
      better than the parent's by more than the parent's quartile distance;
    - ``worse``: the change's median is worse than the parent's by more
      than ``bound``;
    - ``unresolved``: the parent's quartile distance exceeds ``bound`` of
      its median, and not every change run reads better than every parent
      run;
    - ``flat``: anything else.
    """
    sign = 1 if better == "higher" else -1
    p, c = summary(parent), summary(change)
    spread, scale = p["q3"] - p["q1"], bound * abs(p["median"])
    gap = sign * (c["median"] - p["median"])  # > 0: the change is better
    if 10 * wins(better, parent, change) >= 9 * len(parent) and gap > spread:
        return "gain"
    if -gap > scale:
        return "worse"
    if spread > scale and not all(sign * (x - y) > 0 for x in change for y in parent):
        return "unresolved"
    return "flat"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def machine() -> dict:
    probe = subprocess.run(
        [PYTHON, "-c", "import platform, numpy; "
         "print(platform.python_version(), numpy.__version__)"],
        env={**os.environ, "OPENBLAS_VERBOSE": "2"}, capture_output=True, text=True,
        check=True)
    python, numpy = probe.stdout.strip().splitlines()[-1].split()
    core = re.search(r"Core: (\S+)", probe.stdout + probe.stderr)
    return {"cpu": cpu_model(), "nproc": os.cpu_count(),
            "python": python, "numpy": numpy,
            "openblas_core": core.group(1) if core else None,
            "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    differ = benchmark_difference(args.parent, args.change)
    if differ is not None:
        raise SystemExit(f"the checkouts run different benchmarks: {differ} differs "
                         f"between {args.parent} and {args.change}")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sides = {"parent": [], "change": []}
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            sides[side].append(run(getattr(args, side), args.workload, args.seed, seconds))
        print(f"pair {k + 1}/{args.pairs}: "
              + ", ".join(f"{s} {sides[s][-1]}" for s in order), file=sys.stderr)
    metrics = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        parent = [r[name] for r in sides["parent"] if name in r]
        change = [r[name] for r in sides["change"] if name in r]
        if len(parent) != args.pairs or len(change) != args.pairs:
            continue  # not reported by this workload
        metrics[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": summary(parent), "change": summary(change),
            "pairs": args.pairs, "wins": wins(m["better"], parent, change),
            "verdict": verdict(m["better"], m["bound"], parent, change),
        }
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    runs = [r for r in record.get("runs", [])
            if (r["workload"], r["seed"]) != (args.workload, args.seed)]
    runs.append({"workload": args.workload, "seed": args.seed, "machine": machine(),
                 "command": f"{PYTHON} bench/run.py --workload {args.workload} "
                            f"--seed {args.seed} --seconds {seconds:g} --trace 0",
                 "metrics": metrics})
    record["runs"] = sorted(runs, key=lambda r: (r["workload"], r["seed"]))
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
