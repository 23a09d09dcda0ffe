#!/usr/bin/env python3
"""Call counts of unionfix's functions over one benchmark workload's ops.

Run from anywhere:

    python3 tools/traffic.py --workload sparse-ladder --seed 1 --rounds 5

The workload is built from ``bench/workloads.py``, which is only imported,
with its working files in a temporary directory.  Rounds 0 to R - 1 (R the
workload's ``min_rounds`` unless ``--rounds`` is given) build their ops, and
each op's call runs under a ``sys.setprofile`` hook that counts every call
of a Python function whose code lies under ``src/unionfix`` (a generator
counts once per resumption); the ops' correctness checks run outside it,
and an op that fails its check stops the tool.  Each function is named
``module.qualname`` (``sets._top_s_list``), and the counts are written to
stdout as one JSON object, sorted by name, with the run's arguments and its
op count.
"""

import argparse
import collections
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "unionfix"


def counting(counts: collections.Counter):
    """A profile hook that counts calls of functions defined under SRC."""
    names = {}  # code object -> its name, or None outside SRC

    def hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        name = names.get(code, 0)
        if name == 0:
            path = Path(code.co_filename)
            name = names[code] = (f"{path.stem}.{code.co_qualname}"
                                  if path.parent == SRC else None)
        if name is not None:
            counts[name] += 1

    return hook


def traffic(workload: str, seed: int, rounds: int | None) -> dict:
    """The call counts of ``rounds`` rounds of the workload's ops."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads

    counts = collections.Counter()
    ops = 0
    with tempfile.TemporaryDirectory() as work:
        w = workloads.WORKLOADS[workload](seed, Path(work))
        rounds = w.min_rounds if rounds is None else rounds
        hook = counting(counts)
        for r in range(rounds):
            for op in w.round(r):
                sys.setprofile(hook)
                try:
                    result = op.call()
                finally:
                    sys.setprofile(None)
                if not op.check(result).ok:
                    raise SystemExit(f"{workload} round {r}: op {op.label} failed")
                ops += 1
    return {"workload": workload, "seed": seed, "rounds": rounds, "ops": ops,
            "calls": dict(sorted(counts.items()))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sparse-ladder", "splitting-cli", "oracle-audit"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=None)
    args = parser.parse_args(argv)
    print(json.dumps(traffic(args.workload, args.seed, args.rounds), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
