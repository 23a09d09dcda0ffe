"""The verdict rules of ``tools/bench_pairs.py`` on synthetic runs."""

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
