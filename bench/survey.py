#!/usr/bin/env python3
"""Survey the unfiltered inputs of the benchmark's solver workloads.

    python3 bench/survey.py [--draws 40] [--seed 1000]

For every sparse-ladder rung it draws ``--draws`` planted instances
(Gaussian A, s-sparse x*, no stratification), runs the rung's driver and
gate on each, and prints the quartiles of the cosine of the Friedrichs
angle between the support's coordinate subspace and null(A), of the step
counts and of the op times, the number of failed ops, and the rank
correlation of cosine and steps (the workload stratifies by cosine).  For splitting-cli it does the same for the
step counts of the generated ppa, forward-backward and douglas-rachford
runs.  The output is one JSON object; ``bench/baseline.json`` records it
under ``input_survey``.  Survey seeds are kept apart from run seeds.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def quartiles(values) -> list[float]:
    values = list(values)
    if len(values) < 2:
        return values * 3
    q1, med, q3 = statistics.quantiles(values, n=4)
    return [round(q1, 4), round(med, 4), round(q3, 4)]


def rank_corr(a, b) -> float:
    """Spearman rank correlation (ties broken by order)."""
    ra, rb = (np.argsort(np.argsort(v)) for v in (a, b))
    return float(np.corrcoef(ra, rb)[0, 1])


def survey_sparse(draws: int, seed: int) -> dict:
    out = {}
    ladder = workloads.SparseLadder(seed, Path("."))
    for algo, n, s, _ in workloads.SPARSE_MIX:
        label = f"{algo}-{n}-{s}"
        if label in out:
            continue
        m = workloads.CP_ROWS[n] if algo == "cp" else n // 2
        rng = np.random.default_rng([seed, n, s, m, len(out)])
        cosines, steps, times, failed = [], [], [], 0
        for _ in range(draws):
            A, b, xstar, x0 = workloads.planted_instance(rng, n, s, m)
            support = np.flatnonzero(xstar)
            cosines.append(workloads.support_cosine(A, support))
            op = ladder._op(algo, n, s, ladder.sparsity[n, s],
                            workloads.sets.affine_set(A, b), xstar, x0)
            t0 = time.perf_counter()
            result = op.call()
            times.append(1e3 * (time.perf_counter() - t0))
            outcome = op.check(result)
            steps.append(outcome.steps)
            failed += not outcome.ok
        out[label] = {"draws": draws, "failed": failed,
                      "cosine_q": quartiles(cosines),
                      "cosine_max": round(max(cosines), 4),
                      "steps_q": quartiles(steps), "steps_max": max(steps),
                      "cosine_steps_rank_corr": round(rank_corr(cosines, steps), 3),
                      "op_ms_q": quartiles(times)}
        print(label, out[label], file=sys.stderr, flush=True)
    return out


def survey_cli(draws: int, seed: int) -> dict:
    steps: dict[str, list] = {}
    failed: dict[str, int] = {}
    with tempfile.TemporaryDirectory() as tmp:
        cli_wl = workloads.SplittingCli(seed, Path(tmp))
        for r in range(draws):
            for op in cli_wl.round(r):
                kind = op.label
                if not kind.startswith("run-") or kind == "run-preset":
                    continue
                outcome = op.check(op.call())
                steps.setdefault(kind, []).append(outcome.steps)
                failed[kind] = failed.get(kind, 0) + (not outcome.ok)
    return {k: {"runs": len(v), "failed": failed[k], "steps_q": quartiles(v),
                "steps_max": max(v)} for k, v in sorted(steps.items())}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--draws", type=int, default=40)
    p.add_argument("--seed", type=int, default=1000)
    args = p.parse_args()
    result = {"draws": args.draws, "seed": args.seed,
              "sparse-ladder": survey_sparse(args.draws, args.seed),
              "splitting-cli": survey_cli(max(1, args.draws // 4), args.seed)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
