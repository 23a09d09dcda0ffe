"""``tools/traffic.py`` counts the calls of one workload's rounds."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "traffic.py"


def test_one_oracle_audit_round_counts_its_oracle_calls(tmp_path):
    out = subprocess.run(
        [sys.executable, str(TOOL), "--workload", "oracle-audit", "--seed", "1",
         "--rounds", "1"], cwd=tmp_path, capture_output=True, text=True,
        check=True).stdout
    result = json.loads(out)
    assert (result["workload"], result["seed"], result["rounds"]) == ("oracle-audit", 1, 1)
    assert result["ops"] == 37
    calls = result["calls"]
    # a round brute-forces five corpus instances, each at three gammas, and
    # estimates the radius at six fixed points
    assert calls["oracle.brute_force_prox"] == 15
    assert calls["oracle.estimate_radius"] == 6
    # only unionfix's own functions are counted
    modules = {path.stem for path in (TOOL.parents[1] / "src" / "unionfix").glob("*.py")}
    assert {name.split(".")[0] for name in calls} <= modules
    assert all(count > 0 for count in calls.values())
