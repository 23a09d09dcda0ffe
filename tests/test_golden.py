"""Byte-exact `run` traces for the presets and one small config per driver.

Each trace in ``tests/golden/`` is regenerated and compared byte for byte,
so a refactor that changes any iterate, index, extra or summary field
fails here.  The files pin this numpy build's floating-point results; after
an intended trace change, re-pin them with
``unionfix run <preset-or-config> --out tests/golden --quiet``.
"""

from pathlib import Path

import pytest

from unionfix import cli

GOLDEN = Path(__file__).parent / "golden"
SOURCES = sorted(cli.PRESETS) + sorted(str(p) for p in GOLDEN.glob("*.json"))


@pytest.mark.parametrize("source", SOURCES, ids=lambda s: Path(s).stem)
def test_trace_matches_golden(source, tmp_path):
    cfg = cli.load_config(source)
    assert cli.main(["run", source, "--out", str(tmp_path), "--quiet"]) == 0
    name = cfg.output or f"{cfg.name}.jsonl"
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
