"""Byte-exact outputs for the presets and one small config per driver.

Each `run` trace in ``tests/golden/``, each `verify` report in
``tests/golden/verify/`` and each `sweep` summary in ``tests/golden/sweep/``
is regenerated and compared byte for byte, so a refactor that changes any
iterate, index, extra, summary field, sampled violation or basin fails
here.  The per-start traces of every sweep are pinned by their SHA-256
digests, in ``tests/golden/sweep/sweep-traces.sha256`` (``sha256sum``
format).  The files pin this numpy build's floating-point results; after
an intended output change, re-pin them with
``unionfix run <preset-or-config> --out tests/golden --quiet`` (and
``verify`` / ``sweep`` with ``--out tests/golden/verify`` /
``--out <dir>``, copying only the sweep summaries to
``tests/golden/sweep``), then rewrite the digests with
``cd <dir> && sha256sum *-sweep-[0-9]*.jsonl > <repo>/tests/golden/sweep/sweep-traces.sha256``.
"""

import hashlib
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


def sweep_digests() -> dict[str, str]:
    """File name -> SHA-256 of every pinned per-start sweep trace."""
    lines = (GOLDEN / "sweep" / "sweep-traces.sha256").read_text().splitlines()
    return {name: digest for digest, name in (line.split() for line in lines)}


@pytest.mark.parametrize("source", SOURCES, ids=lambda s: Path(s).stem)
def test_sweep_traces_match_digests(source, tmp_path):
    cfg = cli.load_config(source)
    assert cli.main(["sweep", source, "--out", str(tmp_path), "--quiet"]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in tmp_path.glob(f"{cfg.name}-sweep-[0-9]*.jsonl")}
    want = {name: digest for name, digest in sweep_digests().items()
            if name.startswith(f"{cfg.name}-sweep-")}
    assert len(want) == cfg.parsed["sweep"]["count"]
    assert got == want


def test_every_pinned_sweep_trace_has_a_source():
    names = {cli.load_config(source).name for source in SOURCES}
    assert {name.rsplit("-sweep-", 1)[0] for name in sweep_digests()} == names
