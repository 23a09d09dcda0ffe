#!/usr/bin/env python3
"""Measure the baseline that ``bench/baseline.json`` records.

    python3 bench/make_baseline.py [--seconds 10] [--seeds 1-10] [--workloads a,b]

Runs each workload once per seed with tracing off, then once traced on
the default seed, and writes the medians and quartiles of every end-to-end
metric, the spread (quartile distance / median), the spreads the same runs
give from raw and from bracket-probed times, and the traced run's exact
counts.  It then runs ``survey.py`` and records its output.  The seeds,
the notes and the entries of workloads not re-measured are kept from an
existing file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BASELINE = BENCH_DIR / "baseline.json"
WORKLOADS = ("sparse-ladder", "splitting-cli", "oracle-audit")
COUNT_UNITS = ("count", "B")
#: exact ratios of counts, fingerprinted with the counts
COUNT_RATIOS = ("core_ops.ties_frac", "sets.active_yield", "minconvex.prox_per_step",
                "oracle.selector_calls_per_estimate")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    tagged = {tag: json.loads(line.split(": ", 1)[1]) for line in lines
              for tag in ("environment", "alternatives") if line.startswith(tag + ": ")}
    return {"result": json.loads(lines[-1]), **tagged}


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": values}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    args = p.parse_args()
    lo, hi = (int(v) for v in args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    old = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}
    out = {
        "seeds": old.get("seeds", {"default": 1, "held_back": 97}),
        "run_seconds": args.seconds,
        "spread_seeds": seeds,
        "workloads": old.get("workloads", {}),
        "fingerprint": old.get("fingerprint", {}),
    }
    default = out["seeds"]["default"]
    for name in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(run(name, seed, args.seconds, 0))
            res = runs[-1]["result"]
            print(name, seed, res["correct"], res["attempted"], res["failed"],
                  {k: round(v["value"], 4) for k, v in res["metrics"].items()},
                  flush=True)
        metrics = runs[0]["result"]["metrics"]
        out["workloads"][name] = {
            "environment_first_run": runs[0].get("environment"),
            "ops_per_run": [r["result"]["attempted"] for r in runs],
            "failed_per_run": [r["result"]["failed"] for r in runs],
            "end_to_end": {
                k: {"unit": v["unit"],
                    **summary([r["result"]["metrics"][k]["value"] for r in runs])}
                for k, v in metrics.items()
            },
            "spread_by_timing": {
                "probe": {k: summary([r["result"]["metrics"][k]["value"]
                                      for r in runs])["spread"] for k in metrics},
                **{variant: {k: summary([r["alternatives"][variant][k]
                                         for r in runs])["spread"] for k in metrics}
                   for variant in ("raw", "bracket")},
            },
        }
        traced = run(name, default, args.seconds, 1)["result"]["metrics"]
        out["workloads"][name]["per_layer_default_seed"] = {
            k: v["value"] for k, v in traced.items()}
        out["fingerprint"][name] = {str(default): {
            k: v["value"] for k, v in traced.items()
            if v["unit"] in COUNT_UNITS or k in COUNT_RATIOS}}
    survey = subprocess.run([sys.executable, str(BENCH_DIR / "survey.py")], cwd=ROOT,
                            capture_output=True, text=True, check=True)
    out["input_survey"] = json.loads(survey.stdout.strip().splitlines()[-1])
    if "notes" in old:  # hand-written: tail percentiles, ROADMAP comparisons
        out["notes"] = old["notes"]
    BASELINE.write_text(json.dumps(out, indent=1) + "\n")
    for name, w in out["workloads"].items():
        for k, s in w["end_to_end"].items():
            print(f"{name:14s} {k:14s} median {s['median']:.6g} spread {s['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
