"""The arithmetic of ``tools/pairs.py`` on fixed numbers.

Quartiles are ``statistics.quantiles(n=4)``'s exclusive cut points: on
1..10 they sit at positions 2.75, 5.5 and 8.25.  A win is a pair the
change makes strictly better; a gain needs at least 10 pairs, 9 in 10
wins and the change's median beyond the parent's IQR on the better side.
A metric is worse beyond its bound when the change's median moves the
wrong way by more than the bound, as a share of the parent's median.
"""

import argparse
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

PARENT = [float(v) for v in range(1, 11)]


def test_quartiles_are_the_exclusive_cut_points():
    assert pairs.quartiles(PARENT) == {"q1": 2.75, "median": 5.5, "q3": 8.25}
    # Two values: the cut points extrapolate past both.
    assert pairs.quartiles([4.0, 2.0]) == {"q1": 1.5, "median": 3.0, "q3": 4.5}


def test_a_lower_is_better_gain():
    change = [v - 8 for v in PARENT]
    change[0] = 5.0  # one loss: 9 wins in 10
    metric = pairs.summarize(PARENT, change, "lower", 0.25)
    assert metric["parent"] == {"q1": 2.75, "median": 5.5, "q3": 8.25}
    assert sorted(change) == [-6, -5, -4, -3, -2, -1, 0, 1, 2, 5]
    assert metric["change"] == {"q1": -4.25, "median": -1.5, "q3": 1.25}
    assert metric["wins"] == 9 and metric["n"] == 10
    assert metric["beyond_parent_iqr"] is True and metric["gain"] is True
    assert metric["median_shift"] == pytest.approx(-7 / 5.5)


def test_a_higher_is_better_metric_read_the_other_way():
    change = [v + 8 for v in PARENT]
    higher = pairs.summarize(PARENT, change, "higher", 0.25)
    assert higher["wins"] == 10 and higher["gain"] is True
    lower = pairs.summarize(PARENT, change, "lower", 0.25)
    assert lower["wins"] == 0 and lower["gain"] is False
    assert lower["beyond_parent_iqr"] is False


@pytest.mark.parametrize(
    "change, wins, beyond",
    [
        # Eight wins in ten are too few, though the median is far out.
        ([v - 8 if i < 8 else v + 1 for i, v in enumerate(PARENT)], 8, True),
        # Ten wins, each by a hair: the median stays inside the IQR.
        ([v - 0.01 for v in PARENT], 10, False),
        # Equal values are not wins.
        (PARENT, 0, False),
    ],
)
def test_no_gain_without_both_the_wins_and_the_shift(change, wins, beyond):
    metric = pairs.summarize(PARENT, change, "lower", 0.25)
    assert metric["wins"] == wins
    assert metric["beyond_parent_iqr"] is beyond
    assert metric["gain"] is False


def test_fewer_than_ten_pairs_never_read_as_a_gain():
    parent, change = PARENT[:9], [v - 100 for v in PARENT[:9]]
    metric = pairs.summarize(parent, change, "lower", 0.25)
    assert metric["wins"] == 9 and metric["beyond_parent_iqr"] is True
    assert metric["gain"] is False


def test_seed_ranges():
    assert pairs.seed_range("3-5") == range(3, 6)
    for text in ("5", "5-5", "6-5", "a-b", "-3"):
        with pytest.raises(argparse.ArgumentTypeError):
            pairs.seed_range(text)


@pytest.mark.parametrize(
    "better, factor, worse",
    [
        ("lower", 1.25, False),  # exactly at the bound
        ("lower", 1.26, True),
        ("lower", 0.5, False),  # better, however far
        ("higher", 0.75, False),
        ("higher", 0.74, True),
        ("higher", 2.0, False),
    ],
)
def test_worse_beyond_the_bound(better, factor, worse):
    parent = [100.0] * 4
    metric = pairs.summarize(parent, [100.0 * factor] * 4, better, 0.25)
    assert metric["median_shift"] == pytest.approx(factor - 1)
    assert metric["worse_beyond_bound"] is worse
    assert metric["bound"] == 0.25
