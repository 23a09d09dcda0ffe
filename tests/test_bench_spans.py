"""The benchmark's span recorder (``bench/spans.py``) wraps unionfix
functions and methods that it looks up by name.  A refactor that renames
or moves one of them must fail the suite, not only the benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

import unionfix

ROOT = Path(__file__).resolve().parents[1]


def test_instrument_finds_every_name_it_wraps():
    path = os.pathsep.join([str(ROOT / "bench"), str(Path(unionfix.__file__).parents[1])])
    shown = subprocess.run(
        [sys.executable, "-c",
         "import spans\n"
         "from unionfix import core_ops, sets, solvers\n"
         "spans.instrument(spans.SpanRecorder())\n"
         "print(sets.dr_operator.bench_span, core_ops.UnionMap.evaluate.bench_span,\n"
         "      solvers.douglas_rachford.bench_span)"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path})
    assert shown.returncode == 0, shown.stderr
    assert shown.stdout == "core_ops.combinators core_ops.evaluate solvers.drivers\n"
