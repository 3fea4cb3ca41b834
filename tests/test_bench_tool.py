"""Paired statistics of tools/bench.py --against, on synthetic runs."""
import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "bench.py")
_SPEC = importlib.util.spec_from_file_location("bench_tool", _PATH)
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)
NONE_FAILED = (0.0, 0.0)


def test_clear_gain_passes_the_rule():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]
    change = [p - 0.2 for p in parent]
    s = bench.paired(parent, change, "lower", 0.24, NONE_FAILED)
    assert (s["wins"], s["losses"], s["ties"], s["pairs"]) == (10, 0, 0, 10)
    assert s["parent"]["median"] == pytest.approx(1.0)
    assert s["change"]["median"] == pytest.approx(0.8)
    assert s["median_change"] == pytest.approx(-0.2)
    assert s["gain"] and s["within_bound"]


def test_nine_of_ten_is_enough_and_eight_is_not():
    parent = [1.0 + 0.01 * i for i in range(10)]
    change = [p - 0.3 for p in parent]
    change[3] = parent[3] + 0.1
    assert bench.paired(parent, change, "lower", 0.24, NONE_FAILED)["wins"] == 9
    assert bench.paired(parent, change, "lower", 0.24, NONE_FAILED)["gain"]
    change[4] = parent[4]
    s = bench.paired(parent, change, "lower", 0.24, NONE_FAILED)
    assert (s["wins"], s["losses"], s["ties"]) == (8, 1, 1)
    assert not s["gain"]


def test_median_gap_must_exceed_the_parent_iqr():
    # every pair a win, but by less than the parent's own spread
    parent = [1.0, 1.5, 2.0, 2.5, 3.0, 1.0, 1.5, 2.0, 2.5, 3.0]
    change = [p - 0.1 for p in parent]
    s = bench.paired(parent, change, "lower", 0.24, NONE_FAILED)
    assert s["wins"] == 10
    assert s["parent_iqr"] == pytest.approx(1.0)
    assert not s["gain"]


def test_median_gap_must_exceed_a_tenth_of_the_bound():
    # a peak RSS in 4 KB pages: near-zero IQR, every pair a win by a page
    # or two, yet a 0.09 MB shift is under a tenth of a 5% bound (0.7 MB)
    parent = [140.70 + 0.004 * (i % 3) for i in range(10)]
    change = [p - 0.09 for p in parent]
    s = bench.paired(parent, change, "lower", 0.05, NONE_FAILED)
    assert s["wins"] == 10 and s["parent_iqr"] < 0.09
    assert not s["gain"]
    assert bench.paired(parent, [p - 0.8 for p in parent], "lower", 0.05,
                        NONE_FAILED)["gain"]


def test_higher_is_better_and_the_bound():
    parent = [10.0] * 10
    assert bench.paired(parent, [12.0] * 10, "higher", 0.05, NONE_FAILED)["gain"]
    worse = bench.paired(parent, [9.4] * 10, "higher", 0.05, NONE_FAILED)
    assert worse["losses"] == 10 and not worse["within_bound"]
    assert bench.paired(parent, [9.6] * 10, "higher", 0.05, NONE_FAILED)["within_bound"]
    assert not bench.paired([1.0] * 4, [1.06] * 4, "lower", 0.05,
                            NONE_FAILED)["within_bound"]


def test_fewer_than_ten_pairs_are_no_gain():
    s = bench.paired([1.0, 1.1], [0.5, 0.6], "lower", 0.24, NONE_FAILED)
    assert (s["wins"], s["pairs"]) == (2, 2) and s["within_bound"]
    assert not s["gain"]
    nine = bench.paired([1.0] * 9, [0.5] * 9, "lower", 0.24, NONE_FAILED)
    assert nine["wins"] == 9 and not nine["gain"]


def test_more_failed_operations_are_no_gain():
    parent = [1.0 + 0.01 * i for i in range(10)]
    change = [p - 0.3 for p in parent]
    assert bench.paired(parent, change, "lower", 0.24, (0.01, 0.01))["gain"]
    assert bench.paired(parent, change, "lower", 0.24, (0.01, 0.0))["gain"]
    s = bench.paired(parent, change, "lower", 0.24, (0.0, 0.01))
    assert s["wins"] == 10 and s["within_bound"] and not s["gain"]


def test_failed_share_sums_over_runs():
    runs = [{"attempted": 10, "failed": 1}, {"attempted": 30, "failed": 0}]
    assert bench.failed_share(runs) == pytest.approx(1 / 40)
    assert bench.failed_share([{"attempted": 0, "failed": 0}]) == 0.0


def test_identical_runs_read_no_change():
    runs = [0.5, 0.6, 0.55, 0.52, 0.58]
    s = bench.paired(runs, list(runs), "lower", 0.24, NONE_FAILED)
    assert (s["wins"], s["losses"], s["ties"]) == (0, 0, 5)
    assert not s["gain"] and s["within_bound"] and s["median_change"] == 0.0


def test_bad_pairings_are_refused():
    with pytest.raises(ValueError):
        bench.paired([1.0, 2.0], [1.0], "lower", 0.1, NONE_FAILED)
    with pytest.raises(ValueError):
        bench.paired([1.0], [1.0], "lower", 0.1, NONE_FAILED)


def test_pair_seeds_are_recorded_and_depend_on_both_commits():
    seeds = bench.pair_seeds("a" * 40, "b" * 40)
    assert seeds == bench.pair_seeds("a" * 40, "b" * 40)
    assert seeds == list(range(seeds[0], seeds[0] + bench.PAIRS))
    assert bench.pair_seeds("a" * 40, "c" * 40) != seeds
