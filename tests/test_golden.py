"""Byte-exact outputs for the presets and one small config per driver.

Each `run` trace in ``tests/golden/``, each `verify` report in
``tests/golden/verify/`` and each `sweep` summary in ``tests/golden/sweep/``
is regenerated and compared byte for byte, so a refactor that changes any
iterate, index, extra, summary field, sampled violation or basin fails
here.  The files pin this numpy build's floating-point results; after an
intended output change, re-pin them with
``unionfix run <preset-or-config> --out tests/golden --quiet`` (and
``verify`` / ``sweep`` with ``--out tests/golden/verify`` /
``--out tests/golden/sweep``, keeping only the sweep summary).
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


@pytest.mark.parametrize("source", SOURCES, ids=lambda s: Path(s).stem)
@pytest.mark.parametrize("command, suffix", [("verify", "-verify.json"),
                                             ("sweep", "-sweep-summary.json")])
def test_report_matches_golden(source, command, suffix, tmp_path):
    cfg = cli.load_config(source)
    assert cli.main([command, source, "--out", str(tmp_path), "--quiet"]) == 0
    name = f"{cfg.name}{suffix}"
    assert (tmp_path / name).read_bytes() == (GOLDEN / command / name).read_bytes()
