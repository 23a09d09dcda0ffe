"""The verdict rules of ``tools/bench_pairs.py`` on synthetic runs, and its
refusal of two checkouts whose benchmarks differ."""

import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

#: ten parent runs with median 100 and quartile distance 2 (99 to 101)
PARENT = [96.0, 98.0, 99.0, 99.0, 100.0, 100.0, 101.0, 101.0, 102.0, 104.0]


def shifted(runs: list, by: float) -> list:
    return [x + by for x in runs]


@pytest.mark.parametrize("better, sign", [("higher", 1), ("lower", -1)])
class TestVerdict:
    def test_gain_wins_nine_of_ten_and_clears_the_spread(self, better, sign):
        change = shifted(PARENT, 5 * sign)
        assert bench_pairs.wins(better, PARENT, change) == 10
        assert bench_pairs.verdict(better, 0.25, PARENT, change) == "gain"
        # one pair lost of ten still counts; two do not
        one_lost = change[:9] + [PARENT[9] - 50 * sign]
        assert bench_pairs.verdict(better, 0.25, PARENT, one_lost) == "gain"
        two_lost = change[:8] + [PARENT[8] - sign, PARENT[9] - sign]
        assert bench_pairs.wins(better, PARENT, two_lost) == 8
        assert bench_pairs.verdict(better, 0.25, PARENT, two_lost) == "flat"

    def test_a_win_inside_the_spread_is_flat(self, better, sign):
        # every pair won, by 1.5: less than the quartile distance 2
        change = shifted(PARENT, 1.5 * sign)
        assert bench_pairs.wins(better, PARENT, change) == 10
        assert bench_pairs.verdict(better, 0.25, PARENT, change) == "flat"

    def test_ties_count_for_neither_side(self, better, sign):
        assert bench_pairs.wins(better, PARENT, PARENT) == 0
        assert bench_pairs.verdict(better, 0.25, PARENT, PARENT) == "flat"

    def test_worse_past_the_bound(self, better, sign):
        assert bench_pairs.verdict(better, 0.25, PARENT, shifted(PARENT, -30 * sign)) \
            == "worse"
        # 20 worse is inside the bound of 25
        assert bench_pairs.verdict(better, 0.25, PARENT, shifted(PARENT, -20 * sign)) \
            == "flat"

    def test_unresolved_where_the_parent_spreads_past_the_bound(self, better, sign):
        # the parent's quartile distance is 2% of its median, past a 1% bound
        assert bench_pairs.verdict(better, 0.01, PARENT, shifted(PARENT, -0.5 * sign)) \
            == "unresolved"

    def test_a_change_better_than_every_parent_run_is_resolved(self, better, sign):
        # a parent with a long tail on its worse side: quartile distance
        # 67.5, past the bound, and a change run 1 better than its best
        parent = [100.0 - sign * k for k in (90, 80, 70, 60)] + [100.0] * 6
        change = [100.0 + sign] * 10
        assert bench_pairs.wins(better, parent, change) == 10
        assert bench_pairs.verdict(better, 0.25, parent, change) == "flat"
        assert bench_pairs.verdict(better, 0.25, parent, [100.0] * 10) == "unresolved"


def checkout(root, files: dict):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


BENCHMARK = {"BENCHMARK.json": "{}", "bench/run.py": "run", "bench/data/w.json": "[]"}


@pytest.mark.parametrize("changed, differ", [
    ({"BENCHMARK.json": '{"run_seconds": 1}'}, "BENCHMARK.json"),
    ({"bench/data/w.json": "[1]", "bench/run.py": "run2"}, "bench/data/w.json"),
    ({"bench/extra.py": ""}, "bench/extra.py"),
])
def test_two_different_benchmarks_are_refused(tmp_path, capsys, changed, differ):
    parent = checkout(tmp_path / "parent", BENCHMARK)
    change = checkout(tmp_path / "change", {**BENCHMARK, **changed})
    assert bench_pairs.benchmark_difference(parent, change) == differ
    with pytest.raises(SystemExit) as refused:  # before any run
        bench_pairs.main(["--parent", str(parent), "--change", str(change),
                          "--workload", "w", "--seed", "1",
                          "--out", str(tmp_path / "out.json")])
    assert refused.value.code != 0 and differ in str(refused.value.code)
    assert not (tmp_path / "out.json").exists()


def test_a_missing_file_and_bytecode_caches(tmp_path):
    parent = checkout(tmp_path / "parent", BENCHMARK)
    change = checkout(tmp_path / "change", {**BENCHMARK,
                                            "bench/__pycache__/run.pyc": "x"})
    assert bench_pairs.benchmark_difference(parent, change) is None
    (change / "bench" / "run.py").unlink()
    assert bench_pairs.benchmark_difference(parent, change) == "bench/run.py"
