"""Tests for the experiment CLI: config parsing, subcommands, traces."""

import copy
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from unionfix import cli, minconvex
from unionfix.cli import PRESETS, ConfigError, ExperimentConfig
from unionfix.solvers import TraceStep

GOLDEN = Path(__file__).parent / "golden"


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestConfigParsing:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_presets_parse(self, preset):
        cfg = ExperimentConfig.from_dict(copy.deepcopy(PRESETS[preset]))
        assert cfg.name == preset

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_round_trip_is_identity(self, preset):
        cfg = ExperimentConfig.from_dict(copy.deepcopy(PRESETS[preset]))
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.to_dict() == cfg.to_dict()

    def test_unknown_top_level_key_rejected(self):
        raw = copy.deepcopy(PRESETS["two-singleton-prox"])
        raw["typo"] = 1
        with pytest.raises(ConfigError, match="typo"):
            ExperimentConfig.from_dict(raw)

    def test_unknown_nested_key_rejected(self):
        raw = copy.deepcopy(PRESETS["two-singleton-prox"])
        raw["algorithm"]["momentum"] = 0.9
        with pytest.raises(ConfigError, match="momentum"):
            ExperimentConfig.from_dict(raw)

    def test_unknown_piece_kind_rejected(self):
        raw = copy.deepcopy(PRESETS["two-singleton-prox"])
        raw["problem"]["f"]["pieces"][0] = {"kind": "mystery"}
        with pytest.raises(ConfigError, match="mystery"):
            ExperimentConfig.from_dict(raw)

    def test_missing_required_key_rejected(self):
        raw = copy.deepcopy(PRESETS["two-singleton-prox"])
        del raw["x0"]
        with pytest.raises(ConfigError, match="x0"):
            ExperimentConfig.from_dict(raw)

    def test_invalid_json_cites_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x",\n  "oops"\n}')
        with pytest.raises(ConfigError, match="line"):
            cli.load_config(str(path))

    @pytest.mark.parametrize("text", [
        b'{"name": "x", "x0": [' + b"1" * 5000 + b"]}",  # int beyond 4300 digits
        b"\xff\xfe{}",  # not UTF-8
    ], ids=["oversized-integer", "not-utf8"])
    def test_unparseable_file_exits_one(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert f"config error: {path}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_source(self):
        with pytest.raises(ConfigError, match="preset"):
            cli.load_config("no-such-config")


class TestRun:
    def test_sparse_affine_preset_exits_zero(self, tmp_path, capsys):
        code = cli.main(["run", "sparse-affine-feasibility",
                         "--out", str(tmp_path)])
        assert code == 0
        trace = (tmp_path / "sparse-affine-feasibility.jsonl").read_text()
        lines = [json.loads(line) for line in trace.splitlines()]
        assert lines[0]["record"] == "header"
        assert lines[-1]["record"] == "summary"
        assert lines[-1]["status"] == "converged"
        assert lines[-1]["classification"]["kind"] == "strong-fixed"
        assert lines[-1]["in_intersection"] is True

    def test_a_start_on_the_first_line_runs_the_cycle(self, tmp_path):
        # step 0 leaves [1, 0] where it is; the run must not stop there
        raw = {**PRESETS["crossed-lines"], "x0": [1.0, 0.0]}
        code = cli.main(["run", write_config(tmp_path, raw), "--out", str(tmp_path),
                         "--quiet"])
        assert code == 0
        lines = (tmp_path / "crossed-lines.jsonl").read_text().splitlines()
        summary = json.loads(lines[-1])
        assert summary["in_intersection"] is True
        assert summary["classification"]["kind"] == "strong-fixed"
        assert len(lines) > 4  # header, summary and more than two steps

    def test_fb_gamma_out_of_window_exits_one(self, tmp_path, capsys):
        raw = copy.deepcopy(PRESETS["quadratic-plus-two-points-fb"])
        raw["algorithm"]["gamma"] = 3.0
        code = cli.main(["run", write_config(tmp_path, raw),
                         "--out", str(tmp_path)])
        assert code == 1
        assert "(0, 2/L)" in capsys.readouterr().err

    def test_max_iters_exit_code(self, tmp_path):
        # geometric convergence never reaches step 0 exactly
        raw = copy.deepcopy(PRESETS["two-quadratics-ppa"])
        raw["stop"] = {"step_tol": 0.0, "max_iters": 3}
        code = cli.main(["run", write_config(tmp_path, raw),
                         "--out", str(tmp_path), "--quiet"])
        assert code == 2

    # gamma = 0.5, L = 1: lam must lie in (0, (4 - gamma L)/2] = (0, 1.75]
    @pytest.mark.parametrize("lam", [1.9, 0.0])
    def test_fb_lam_out_of_window_exits_one(self, tmp_path, capsys, lam):
        raw = copy.deepcopy(PRESETS["quadratic-plus-two-points-fb"])
        raw["algorithm"]["lam"] = lam
        with pytest.raises(ConfigError, match=r"config\.algorithm\.lam"):
            ExperimentConfig.from_dict(copy.deepcopy(raw))
        code = cli.main(["run", write_config(tmp_path, raw),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert "config.algorithm.lam" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_drs_lam_two_exits_one(self, tmp_path, capsys):
        # lam = 2 passes the range check but fails lam (2 - lam) >= eps
        raw = json.loads((GOLDEN / "golden-douglas-rachford.json").read_text())
        raw["algorithm"]["lam"] = 2.0
        code = cli.main(["run", write_config(tmp_path, raw),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert "config.algorithm.lam" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, stop", [
        (["--max-iters", "0"], None),
        (["--max-iters", "-3"], None),
        ([], {"max_iters": 0}),
    ], ids=["flag-zero", "flag-negative", "config-zero"])
    def test_bad_max_iters_exits_one(self, tmp_path, capsys, flags, stop):
        raw = copy.deepcopy(PRESETS["two-quadratics-ppa"])
        if stop is not None:
            raw["stop"] = stop
        code = cli.main(["run", write_config(tmp_path, raw),
                         "--out", str(tmp_path / "out"), *flags])
        assert code == 1
        assert "max" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_step_records_present(self, tmp_path):
        cli.main(["run", "two-singleton-prox", "--out", str(tmp_path),
                  "--quiet"])
        lines = [json.loads(line) for line in
                 (tmp_path / "two-singleton-prox.jsonl").read_text().splitlines()]
        steps = [r for r in lines if r["record"] == "step"]
        assert steps and {"n", "x", "index", "lam", "step_norm"} <= set(steps[0])

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli.main(["run", "quadratic-plus-two-points-fb",
                             "--out", str(out), "--quiet"]) == 0
        assert (a / "quadratic-plus-two-points-fb.jsonl").read_bytes() == \
               (b / "quadratic-plus-two-points-fb.jsonl").read_bytes()


class TestVerify:
    def test_sparsity_projector_zero_violations(self, tmp_path):
        code = cli.main(["verify", "sparse-affine-feasibility",
                         "--out", str(tmp_path), "--quiet"])
        assert code == 0
        report = json.loads(
            (tmp_path / "sparse-affine-feasibility-verify.json").read_text()
        )
        assert report["passed"]
        assert all(op["max_violation"] <= 1e-9 for op in report["operators"])

    def test_zero_pairs_exits_one(self, tmp_path, capsys):
        raw = copy.deepcopy(PRESETS["two-singleton-prox"])
        raw["verify"] = {"pairs": 0}
        out = tmp_path / "out"
        code = cli.main(["verify", write_config(tmp_path, raw),
                         "--out", str(out), "--quiet"])
        assert code == 1
        assert "config.verify.pairs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n, s, pairs", [(40, 8, 1), (4, 1, 2_000_001)],
                             ids=["sparsity-40-8", "pairs-above-cap"])
    def test_evaluation_blowup_exits_one(self, tmp_path, capsys, n, s, pairs):
        # pairs x pieces above the oracle's cap: C(40, 8) + 1 pieces with one
        # pair, or the preset's 4 + 1 pieces with 2,000,001 pairs
        raw = copy.deepcopy(PRESETS["sparse-affine-feasibility"])
        raw["problem"]["sets"] = [{"kind": "sparsity", "n": n, "s": s},
                                  {"kind": "affine", "A": [[1.0] * n], "b": [1.0]}]
        raw["x0"] = [-1.0] * n
        raw["verify"] = {"pairs": pairs}
        out = tmp_path / "out"
        code = cli.main(["verify", write_config(tmp_path, raw), "--out", str(out),
                         "--quiet"])
        assert code == 1
        assert "config error: config.verify.pairs" in capsys.readouterr().err
        assert not out.exists()

    def test_the_douglas_rachford_operator_is_labelled_drs(self, tmp_path):
        config = str(GOLDEN / "golden-douglas-rachford.json")
        assert cli.main(["verify", config, "--out", str(tmp_path), "--quiet"]) == 0
        report = json.loads(
            (tmp_path / "golden-douglas-rachford-verify.json").read_text())
        assert [op["operator"] for op in report["operators"]] == ["drs"]

    def test_all_presets_verify_clean(self, tmp_path):
        for preset in sorted(PRESETS):
            assert cli.main(["verify", preset, "--out", str(tmp_path),
                             "--quiet"]) == 0

    @pytest.mark.parametrize("sets, lo, hi", [
        (PRESETS["crossed-lines"]["problem"]["sets"], [0.0, 0.0], [1.7e308, 1.7e308]),
        ([{"kind": "span", "vectors": [[1.0, 0.0]]},
          {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}],
         [-8e307, -8e307], [8e307, 8e307]),
    ], ids=["crossed-lines", "span-and-ball"])
    def test_a_box_whose_far_point_overflows_is_refused(self, tmp_path, capsys,
                                                        sets, lo, hi):
        # the operators' own projections overflow at such points, and so
        # would the report's max_violation
        raw = {**PRESETS["crossed-lines"], "problem": {"sets": sets},
               "algorithm": {"kind": "cyclic-dr"}, "verify": {"lo": lo, "hi": hi}}
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["verify", write_config(tmp_path, raw), "--out",
                             str(out), "--quiet"])
        assert (code, capsys.readouterr().err) == (
            1, f"config error: config.verify.lo/hi: sample region lo={lo}, "
               f"hi={hi}: the squared norm of its farthest point overflows\n")
        assert not out.exists()

    @pytest.mark.parametrize("algorithm", ["cyclic-projections", "cyclic-dr", "cadr"])
    def test_a_box_just_inside_the_limit_writes_strict_json(self, tmp_path, capsys,
                                                            algorithm):
        # ||x - y||^2 overflows for some pairs, which are taken at scale.
        # The tolerance is absolute, so rounding error at this scale may
        # count as a violation (exit 2)
        raw = {**PRESETS["crossed-lines"], "algorithm": {"kind": algorithm},
               "verify": {"lo": [-9e153, -9e153], "hi": [9e153, 9e153],
                          "pairs": 3000}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["verify", write_config(tmp_path, raw), "--out",
                             str(tmp_path), "--quiet"])
        assert code in (cli.EXIT_OK, cli.EXIT_MAX_ITERS)
        assert capsys.readouterr().err == ""
        [report] = strict_lines(tmp_path / "crossed-lines-verify.json")
        assert {op["pairs"] for op in report["operators"]} == {3000}


class TestSweep:
    def test_two_singleton_basins(self, tmp_path):
        raw = copy.deepcopy(PRESETS["two-singleton-prox"])
        raw["x0"] = [1.0]
        raw["sweep"] = {"radius": 0.8, "count": 30}
        code = cli.main(["sweep", write_config(tmp_path, raw),
                         "--out", str(tmp_path), "--quiet"])
        assert code == 0
        summary = json.loads(
            (tmp_path / "two-singleton-prox-sweep-summary.json").read_text()
        )
        assert summary["statuses"] == {"converged": 30}
        points = {tuple(b["point"]) for b in summary["basins"]}
        assert points <= {(0.0,), (2.0,)}
        assert sum(b["count"] for b in summary["basins"]) == 30

    def test_sweep_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            cli.main(["sweep", "two-singleton-prox", "--out", str(out),
                      "--quiet"])
        assert (a / "two-singleton-prox-sweep-summary.json").read_bytes() == \
               (b / "two-singleton-prox-sweep-summary.json").read_bytes()

    def test_seed_override_changes_draws(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["sweep", "two-singleton-prox", "--out", str(a), "--quiet"])
        cli.main(["sweep", "two-singleton-prox", "--out", str(b), "--quiet",
                  "--seed", "123"])
        assert (a / "two-singleton-prox-sweep-0000.jsonl").read_bytes() != \
               (b / "two-singleton-prox-sweep-0000.jsonl").read_bytes()


class TestBuiltOnce:
    """Each command runs the experiment that loading its config built."""

    @pytest.mark.parametrize("command", ["run", "verify", "sweep"])
    def test_each_command_builds_its_experiment_once(self, tmp_path, monkeypatch,
                                                     command):
        built = []
        build = cli.build_experiment
        monkeypatch.setattr(cli, "build_experiment",
                            lambda cfg: built.append(cfg.name) or build(cfg))
        assert cli.main([command, "two-quadratics-ppa", "--out", str(tmp_path),
                         "--quiet"]) == 0
        assert built == ["two-quadratics-ppa"]

    def test_a_seed_override_reaches_the_selection_policy(self, tmp_path):
        # x0 = -1 ties the two points, so the seeded policy decides the limit
        raw = copy.deepcopy(PRESETS["two-singleton-prox"])
        raw["problem"]["f"]["pieces"][1]["point"] = [-2.0]
        raw["algorithm"]["policy"] = {"kind": "seeded-random"}
        raw["x0"] = [-1.0]
        limits = set()
        for s in range(6):
            loaded, written = tmp_path / f"loaded-{s}", tmp_path / f"written-{s}"
            cli.main(["run", write_config(tmp_path, raw), "--seed", str(s),
                      "--out", str(loaded), "--quiet"])
            cli.main(["run", write_config(tmp_path, {**raw, "seed": s}),
                      "--out", str(written), "--quiet"])
            trace = (loaded / "two-singleton-prox.jsonl").read_bytes()
            assert trace == (written / "two-singleton-prox.jsonl").read_bytes()
            limits.add(json.loads(trace.splitlines()[-1])["x_final"][0])
        assert limits == {-2.0, 0.0}

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("config, builds", [
        ("two-quadratics-ppa", 1),
        ("quadratic-plus-two-points-fb", 1),
        (str(GOLDEN / "golden-douglas-rachford.json"), 2),  # prox f and prox g
    ], ids=["ppa", "forward-backward", "douglas-rachford"])
    def test_each_command_builds_each_operator_once(self, tmp_path, monkeypatch,
                                                    command, config, builds):
        # the driver runs the operators that loading the config built
        calls = []
        prox_union = minconvex.prox_union
        monkeypatch.setattr(minconvex, "prox_union",
                            lambda *args: calls.append(args) or prox_union(*args))
        assert cli.main([command, config, "--out", str(tmp_path), "--quiet"]) == 0
        assert len(calls) == builds

    def test_the_header_encodes_the_config_without_copying_it(self, monkeypatch):
        cfg = cli.load_config("two-quadratics-ppa")
        trace = cfg.experiment.run(cfg.x0)
        header = cli.header_record(cfg, trace)

        def refuse(value, memo=None):
            raise AssertionError("deepcopy called")

        monkeypatch.setattr(cli.copy, "deepcopy", refuse)
        assert cli.header_record(cfg, trace) == header
        monkeypatch.undo()
        written = cfg.to_dict()  # still a copy
        written["problem"]["f"]["pieces"].clear()
        assert cfg.to_dict()["problem"]["f"]["pieces"]


class TestOutputDir:
    @pytest.mark.parametrize("command", ["run", "verify", "sweep"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_out_naming_a_file_exits_one(self, tmp_path, capsys, command, below):
        existing = tmp_path / "existing"
        existing.write_text("kept")
        out = existing / "sub" if below else existing
        code = cli.main([command, "two-singleton-prox", "--out", str(out),
                         "--quiet"])
        assert code == 1
        assert "config error: --out" in capsys.readouterr().err
        assert existing.read_text() == "kept"
        assert [p.name for p in tmp_path.iterdir()] == ["existing"]


#: in-process calls in a row, each with other flags than the last: (argv,
#: the golden file its output equals, or None where a flag changes it)
REPEATED_CALLS = [
    (["run", "two-quadratics-ppa", "--seed", "0"], "two-quadratics-ppa.jsonl"),
    (["verify", "quadratic-plus-two-points-fb", "--seed", "5", "--quiet"], None),
    (["verify", "quadratic-plus-two-points-fb"],
     "verify/quadratic-plus-two-points-fb-verify.json"),
    (["run", "sparse-affine-feasibility", "--max-iters", "500", "--quiet"],
     "sparse-affine-feasibility.jsonl"),
    (["sweep", "crossed-lines", "--max-iters", "10000"],
     "sweep/crossed-lines-sweep-summary.json"),
    (["run", "two-singleton-prox", "--quiet"], "two-singleton-prox.jsonl"),
]

#: command lines the parser refuses, exiting with status 2
BAD_ARGVS = [[], ["run"], ["solve", "two-quadratics-ppa"],
             ["run", "two-quadratics-ppa", "--seed", "x"],
             ["run", "two-quadratics-ppa", "--max-iters"]]


class TestRepeatedCalls:
    def test_each_call_parses_only_its_own_flags(self, tmp_path, capsys):
        for round_ in range(2):
            for k, (argv, golden) in enumerate(REPEATED_CALLS):
                out = tmp_path / f"{round_}-{k}"
                assert cli.main([*argv, "--out", str(out)]) == 0
                assert (capsys.readouterr().out == "") == ("--quiet" in argv)
                if golden is None:
                    name = "quadratic-plus-two-points-fb-verify.json"
                    assert (out / name).read_bytes() != \
                        (GOLDEN / "verify" / name).read_bytes()
                else:
                    assert (out / Path(golden).name).read_bytes() == \
                        (GOLDEN / golden).read_bytes()
                for bad in BAD_ARGVS:
                    with pytest.raises(SystemExit) as exit_:
                        cli.main(bad)
                    assert exit_.value.code == 2
                    assert "usage: unionfix" in capsys.readouterr().err

    def test_importing_the_cli_builds_no_parser(self):
        src = Path(cli.__file__).parents[1]
        shown = subprocess.run(
            [sys.executable, "-c", "import unionfix.cli as c; "
             "print(c._parser.cache_info().currsize)"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert shown.stdout == "0\n"


def _set(section, key, value):
    """Edit that sets raw[section...][key] = value along a dotted path."""
    def edit(raw):
        node = raw
        for part in section.split(".") if section else ():
            node = node[int(part)] if isinstance(node, list) else node[part]
        node[key] = value
    return edit


#: (id, preset, edit, argv beyond the config, field path expected on stderr)
MALFORMED = [
    ("gamma-string", "two-quadratics-ppa", _set("algorithm", "gamma", "abc"),
     ["run"], "config.algorithm.gamma"),
    ("gamma-bool", "two-quadratics-ppa", _set("algorithm", "gamma", True),
     ["run"], "config.algorithm.gamma"),
    ("box-lo-above-hi", "sparse-affine-feasibility",
     _set("problem.sets", 1, {"kind": "box", "lo": [1.0] * 4, "hi": [0.0] * 4}),
     ["run"], "config.problem.sets[1]"),
    ("sparsity-s-above-n", "crossed-lines",
     _set("problem.sets", 0, {"kind": "sparsity", "n": 2, "s": 5}),
     ["run"], "config.problem.sets[0]"),
    ("ball-radius-string", "crossed-lines",
     _set("problem.sets", 0, {"kind": "ball", "center": [0.0, 0.0], "radius": "x"}),
     ["run"], "config.problem.sets[0].radius"),
    ("l1-negative-weight", "two-quadratics-ppa",
     _set("problem.f.pieces", 1, {"kind": "l1", "weight": -1}),
     ["run"], "config.problem.f.pieces[1]"),
    ("affine-inconsistent", "sparse-affine-feasibility",
     _set("problem.sets", 1, {"kind": "affine", "A": [[1.0, 0.0, 0.0, 0.0]] * 2,
                              "b": [0.0, 1.0]}),
     ["run"], "config.problem.sets[1]"),
    ("indicator-box-lo-above-hi", "two-singleton-prox",
     _set("problem.f.pieces", 0, {"kind": "indicator-box", "lo": [1.0], "hi": [0.0]}),
     ["run"], "config.problem.f.pieces[0]"),
    ("indicator-halfspace-zero-normal", "two-singleton-prox",
     _set("problem.f.pieces", 0, {"kind": "indicator-halfspace", "a": [0.0],
                                  "beta": -1.0}),
     ["run"], "config.problem.f.pieces[0]"),
    ("quadratic-not-psd", "two-quadratics-ppa",
     _set("problem.f.pieces.0", "Q", [[-1.0]]), ["run"], "config.problem.f.pieces[0]"),
    ("smooth-not-psd", "quadratic-plus-two-points-fb",
     _set("problem.smooth", "Q", [[-1.0]]), ["run"], "config.problem.smooth"),
    ("tie-tol-negative", "two-quadratics-ppa", _set("algorithm", "tie_tol", -1),
     ["run"], "config.algorithm.tie_tol"),
    ("x0-nan", "two-quadratics-ppa", _set("", "x0", [float("nan")]),
     ["run"], "config.x0"),
    ("x0-length-quadratic", "two-quadratics-ppa", _set("", "x0", [1.6, 0.0]),
     ["run"], "config.problem.f.pieces[0].Q"),
    ("x0-length-span", "crossed-lines", _set("", "x0", [0.1, 0.05, 0.0]),
     ["run"], "config.problem.sets[0].vectors"),
    ("x0-length-sparsity", "sparse-affine-feasibility",
     _set("", "x0", [1.005, 0.003, -0.002, 0.004, 0.0]),
     ["run"], "config.problem.sets[0].n"),
    ("singleton-1d-x0-3d", "two-singleton-prox", _set("", "x0", [0.9, 0.0, 0.0]),
     ["run"], "config.problem.f.pieces[0].point"),
    ("verify-pairs-string", "two-singleton-prox",
     _set("", "verify", {"pairs": "ten"}), ["verify"], "config.verify.pairs"),
    ("verify-lo-length", "two-singleton-prox",
     _set("", "verify", {"lo": [-1.0, -1.0]}), ["verify"], "config.verify.lo"),
    ("verify-hi-length", "two-singleton-prox",
     _set("", "verify", {"hi": [1.0, 1.0]}), ["verify"], "config.verify.hi"),
    # the sampling box is checked once its defaults ([-5, 5] per entry) are in
    ("verify-lo-above-hi", "two-singleton-prox",
     _set("", "verify", {"lo": [1.0], "hi": [-1.0]}), ["verify"],
     "config.verify.lo/hi"),
    ("verify-lo-above-default-hi", "two-singleton-prox",
     _set("", "verify", {"lo": [6.0]}), ["verify"], "config.verify.lo/hi"),
    ("verify-width-overflows", "two-singleton-prox",
     _set("", "verify", {"lo": [-1e308], "hi": [1e308]}), ["verify"],
     "config.verify.lo/hi"),
    ("sweep-radius-string", "two-singleton-prox",
     _set("", "sweep", {"radius": "abc"}), ["sweep"], "config.sweep.radius"),
    ("sweep-count-fraction", "two-singleton-prox",
     _set("", "sweep", {"count": 2.7}), ["sweep"], "config.sweep.count"),
    # count x len(x0) above the oracle's evaluation cap, refused before the
    # starts are drawn
    ("sweep-count-above-cap", "crossed-lines",
     _set("", "sweep", {"count": 2**62}), ["sweep"], "config.sweep.count"),
    ("output-list", "two-singleton-prox", _set("", "output", ["x"]),
     ["run"], "config.output"),
    ("name-parent-dir", "two-singleton-prox", _set("", "name", "../x"),
     ["run"], "config.name"),
    ("seed-flag-negative-run", "two-singleton-prox", lambda raw: None,
     ["run", "--seed", "-1"], "--seed"),
    ("seed-flag-negative-sweep", "two-singleton-prox", lambda raw: None,
     ["sweep", "--seed", "-1"], "--seed"),
]


class TestMalformedConfig:
    @pytest.mark.parametrize("preset, edit, argv, path",
                             [row[1:] for row in MALFORMED],
                             ids=[row[0] for row in MALFORMED])
    def test_exits_one_naming_field(self, tmp_path, capsys, preset, edit,
                                    argv, path):
        raw = copy.deepcopy(PRESETS[preset])
        edit(raw)
        config = write_config(tmp_path, raw)
        command, *flags = argv
        code = cli.main([command, config, "--out", str(tmp_path / "out"),
                         "--quiet", *flags])
        assert code == 1
        assert f"config error: {path}" in capsys.readouterr().err
        # nothing written under --out, nor beside it
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def strict_lines(path: Path) -> list:
    """The records of a JSONL file, refusing NaN and infinity constants."""
    def refuse(constant):
        raise ValueError(f"non-finite constant {constant} in {path.name}")
    return [json.loads(line, parse_constant=refuse)
            for line in path.read_text().splitlines()]


#: finite configs whose norms overflow a sum of squares (1e200^2), with
#: their run and sweep exit codes and fields of the run's summary
FAR_STARTS = [
    # the cycle carries the far start to the crossing at the origin
    ({**PRESETS["crossed-lines"], "x0": [1e200, 0.0]}, 0, 0,
     {"status": "converged", "in_intersection": True}),
    # the start lies on the span, but the cycle goes on to the affine line,
    # 1e200 away, which trips the divergence guard, as it does for the
    # sweep starts
    ({**PRESETS["crossed-lines"], "problem": {"sets": [
        {"kind": "span", "vectors": [[1.0, 0.0]]},
        {"kind": "affine", "A": [[1.0, 0.0]], "b": [1e200]}]}, "x0": [0.0, 0.0]},
     3, 2, {"status": "diverged-guard"}),
]


class TestOverflowingNorms:
    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("raw, run_code, sweep_code, summary", FAR_STARTS,
                             ids=["crossed-lines-far-start", "far-affine-line"])
    def test_exits_with_its_status_code_and_writes_strict_json(
            self, tmp_path, capsys, command, raw, run_code, sweep_code, summary):
        out = tmp_path / "out"
        code = cli.main([command, write_config(tmp_path, raw), "--out", str(out),
                         "--quiet"])
        assert code == (run_code if command == "run" else sweep_code)
        assert capsys.readouterr().err == ""
        written = sorted(out.iterdir())
        assert len(written) == (1 if command == "run" else 21)
        records = [r for path in written for r in strict_lines(path)]
        if command == "run":
            assert {k: records[-1][k] for k in summary} == summary


def singletons(*points) -> dict:
    return {"pieces": [{"kind": "indicator-singleton", "point": p} for p in points]}


#: far prox configs, with their run's exit code and the classification
#: witnesses of its summary: the console-script checks' far-singleton (its
#: singleton's envelope overflows to inf beside the l2 piece's),
#: far-indicators (the affine line's envelope at its own prox is finite, so
#: the witnesses are the line alone), and two far starts whose later steps
#: take the prox lone forms: a ppa over singletons only, whose first step
#: ties (every envelope is inf), and a Douglas-Rachford run with one
#: quadratic, flat along the start, and singleton g
FAR_PROX = {
    "far-singleton": ({"algorithm": {"kind": "ppa", "gamma": 1.0},
                       "problem": {"f": {"pieces": [
                           {"kind": "l2", "weight": 1.0},
                           {"kind": "indicator-singleton", "point": [0.0, 0.0]}]}},
                       "x0": [1e200, 0.0]}, [0]),
    "far-indicators": ({"algorithm": {"kind": "ppa", "gamma": 1.0},
                        "problem": {"f": {"pieces": [
                            {"kind": "indicator-affine", "A": [[1.0, 0.3]], "b": [0.7]},
                            {"kind": "indicator-box", "lo": [-1.0, -1.0],
                             "hi": [1.0, 1.0]}]}},
                        "x0": [3.7e7, -1.91e8]}, [0]),
    "far-ppa-singletons": ({"algorithm": {"kind": "ppa", "gamma": 1.0},
                            "problem": {"f": singletons([1.0, 0.0, 0.5], [-1.0, 2.0, 0.0],
                                                        [0.0, -1.0, 1.0])},
                            "x0": [1e200, 0.0, 0.0]}, [0]),
    "far-drs": ({"algorithm": {"kind": "douglas-rachford", "gamma": 0.5, "lam": 1.0},
                 "problem": {"f": {"pieces": [{"kind": "quadratic",
                                               "Q": np.diag([0.0, 1.0, 1.0]).tolist(),
                                               "b": [0.0, 0.0, 0.0]}]},
                             "g": singletons([1.0, 0.0, 0.5], [-1.0, 2.0, 0.0])},
                 "x0": [1e200, 0.0, 0.0]}, [[0, 0]]),
}


class TestFarProx:
    """The far prox configs run in process with every warning an error:
    each exits 0, writes nothing to stderr and a strict-JSON trace whose
    summary has its pinned witnesses; a quadratic whose I + gamma Q
    overflows is refused before any arithmetic can warn."""

    @staticmethod
    def run_quietly(argv) -> int:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return cli.main(argv)

    @pytest.mark.parametrize("name", sorted(FAR_PROX))
    def test_a_far_start_converges_silently(self, tmp_path, capsys, monkeypatch,
                                             name):
        raw, witnesses = FAR_PROX[name]
        pairs = []  # the lone forms' pairs the run took

        def lone_form(*args):
            lone = lone_form_of(*args)
            return lone and (lambda x: pairs.append(lone(x)) or pairs[-1])

        lone_form_of = minconvex._lone_form
        monkeypatch.setattr(minconvex, "_lone_form", lone_form)
        out = tmp_path / "out"
        code = self.run_quietly(["run", write_config(tmp_path, {"name": name, **raw}),
                                 "--out", str(out), "--quiet"])
        assert (code, capsys.readouterr().err) == (0, "")
        records = strict_lines(out / f"{name}.jsonl")
        assert records[-1]["status"] == "converged"
        assert records[-1]["classification"]["witnesses"] == witnesses
        # the two far starts reach the lone forms; far-singleton's l2
        # piece has no kernel, and far-indicators has none at all
        taken = sum(pair is not None for pair in pairs)
        assert (taken > 0) == (name in ("far-ppa-singletons", "far-drs"))

    def test_an_overflowing_quadratic_is_refused(self, tmp_path, capsys):
        raw = {"name": "overflow-q", "algorithm": {"kind": "ppa", "gamma": 1e10},
               "problem": {"f": {"pieces": [
                   {"kind": "quadratic", "Q": [[1e308, 0.0], [0.0, 1e308]],
                    "b": [0.0, 0.0]},
                   {"kind": "l1", "weight": 1.0}]}},
               "x0": [1e300, 1.0]}
        out = tmp_path / "out"
        code = self.run_quietly(["run", write_config(tmp_path, raw), "--out", str(out),
                                 "--quiet"])
        assert (code, capsys.readouterr().err) == (
            1, "config error: config.algorithm.gamma: gamma = 10000000000.0 overflows "
               "quadratic piece 0: I + gamma Q or gamma b is not finite\n")
        assert not out.exists()


#: entries whose repr is the shortest round trip in every form: signed zero,
#: the least subnormal, exponent notation at 1e16 and below 1e-4, and a sum
#: that is not its decimal
FLOATS = [-0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2]


def record_lines(steps) -> list[str]:
    """The step lines as the encoder writes each step's record dict."""
    lines = []
    for s in steps:
        rec = {"record": "step", "n": s.n, "x": s.x, "index": s.index,
               "lam": s.lam, "step_norm": s.step_norm}
        rec.update(s.extras or {})
        lines.append(cli._dumps(rec))
    return lines


def planted_steps(dim: int, indices: list, extras: bool = False) -> list:
    """One step per index, cycling every entry of FLOATS (and its negative)
    through x, step_norm, lam and the extras."""
    values = FLOATS + [-v for v in FLOATS]
    steps = []
    for n, index in enumerate(indices):
        draw = [values[(n + k) % len(values)] for k in range(3 * dim + 2)]
        point = np.array(draw[:dim])
        steps.append(TraceStep(
            n, point, index, lam=abs(draw[dim]), step_norm=abs(draw[dim + 1]),
            extras={"y": np.array(draw[dim + 2:2 * dim + 2]),
                    "z": np.array(draw[2 * dim + 2:])} if extras else None))
    return steps


class TestStepLines:
    INDICES = {
        "int": [0, 1, 1, 0, 2, 0],
        "nested-tuple": [((0, 1), (2,)), (1, ((0, 3), 2)), ((0, 1), (2,)), (0, (1,))],
        "np-int64": [np.int64(3), np.int64(0), np.int64(3), 1],
        # equal as dict keys, but encoded apart
        "equal-keys": [1, True, 1.0, 1, -0.0, 0.0, 0, False, (1, 2), (True, 2.0)],
        "sparsity-support": [(0, 3, 5), (1, 3, 5), (0, 3, 5), (2, 4, 5)],
    }

    @pytest.mark.parametrize("extras", [False, True], ids=["no-extras", "dr-extras"])
    @pytest.mark.parametrize("dim", [1, 6])
    @pytest.mark.parametrize("kind", sorted(INDICES))
    def test_matches_the_encoded_record(self, kind, dim, extras):
        steps = planted_steps(dim, self.INDICES[kind], extras)
        assert cli._step_lines(steps) == record_lines(steps)

    @pytest.mark.parametrize("extras", [False, True], ids=["no-extras", "dr-extras"])
    @pytest.mark.parametrize("dim", [1, 6])
    def test_one_step_and_no_steps(self, dim, extras):
        steps = planted_steps(dim, [(0, 2)], extras)
        assert cli._step_lines(steps) == record_lines(steps)
        assert cli._step_lines([]) == []

    def test_every_float_as_each_field(self):
        for k, v in enumerate(FLOATS):
            steps = [TraceStep(k, np.array([v, -v, v]), k, lam=v, step_norm=v,
                               extras={"y": np.array([v, 1.0, v]),
                                       "z": np.array([-v, v, 0.5])})]
            assert cli._step_lines(steps) == record_lines(steps)

    def test_solver_traces(self, tmp_path):
        # the presets' and golden configs' traces, with the drivers' own
        # index types, extras and iterate views
        configs = sorted(PRESETS) + [str(p) for p in sorted(GOLDEN.glob("*.json"))]
        for config in configs:
            cfg = cli.load_config(config)
            trace = cfg.experiment.run(cfg.x0)
            assert cli._step_lines(trace.steps) == record_lines(trace.steps)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["x", "step_norm", "lam", "y", "z"])
    def test_a_non_finite_value_raises_the_encoders_error(self, field, bad):
        steps = planted_steps(3, [0, 1, 2, 3], extras=True)
        s = steps[2]
        if field == "x":
            s.x[1] = bad
        elif field in ("y", "z"):
            s.extras[field][2] = bad
        else:
            setattr(s, field, bad)
        with pytest.raises(ValueError) as expected:
            record_lines(steps)
        with pytest.raises(ValueError) as raised:
            cli._step_lines(steps)
        assert str(raised.value) == str(expected.value)


#: malformed configs, each with the exact message it raises, written by
#: tests/make_config_errors.py: every field type and nesting level, each
#: with missing and unknown keys, wrong types, non-finite and oversized
#: numbers, lists of the wrong length and unknown or unhashable kinds
CONFIG_ERRORS = [json.loads(line)
                 for line in (GOLDEN / "config-errors.jsonl").read_text().splitlines()]


class TestConfigErrorCorpus:
    def test_messages_are_pinned(self):
        wrong = []
        for case in CONFIG_ERRORS:
            with pytest.raises(ConfigError) as err:
                ExperimentConfig.from_dict(json.loads(case["config"]))
            if str(err.value) != case["message"]:
                wrong.append((case["message"], str(err.value)))
        assert wrong == []
        assert len(CONFIG_ERRORS) > 800

    def test_cli_prints_the_pinned_line(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        for case in CONFIG_ERRORS:
            path.write_text(case["config"])
            code = cli.main(["run", str(path), "--out", str(tmp_path / "out"),
                             "--quiet"])
            assert (code, capsys.readouterr().err) == (
                1, f"config error: {case['message']}\n"), case["config"]
        assert not (tmp_path / "out").exists()


#: config sections that are not objects, and the line each is refused with;
#: the pinned corpus (tests/golden/config-errors.jsonl) holds none of them
NOT_OBJECTS = {
    "stop-number": (_set("", "stop", 5), "config.stop: expected an object, got int"),
    "problem-list": (_set("", "problem", []),
                     "config.problem: expected an object, got list"),
    "set-spec-number": (_set("problem.sets", 0, 5),
                        "config.problem.sets[0]: expected an object, got int"),
}


@pytest.mark.parametrize("case", sorted(NOT_OBJECTS))
def test_a_section_that_is_not_an_object_is_refused(tmp_path, capsys, case):
    edit, message = NOT_OBJECTS[case]
    raw = copy.deepcopy(PRESETS["crossed-lines"])
    edit(raw)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(copy.deepcopy(raw))
    assert str(err.value) == message
    code = cli.main(["run", write_config(tmp_path, raw), "--out",
                     str(tmp_path / "out"), "--quiet"])
    assert (code, capsys.readouterr().err) == (1, f"config error: {message}\n")
    assert not (tmp_path / "out").exists()
