"""The summary-based grid search against the scenario-by-scenario reference.

``reference_find_violation`` is the search as it was before it decided
scenarios on summaries: build every scenario of the stream and run
``check_diachronic`` on it.  The fast search must return the same first
hit (index, scenario and report) or the same None, on fixed grids chosen to
cover thirds, quarters, three-branch games and negative rewards, and on
random small grids.
"""

import itertools
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from branchgames import (
    Agent,
    GridSpec,
    GridTooLargeError,
    Verdict,
    check_diachronic,
    enumerate_scenarios,
    find_violation,
    scenario_count,
)
from branchgames.search import ViolationHit, _weight_tuple_counts, _weight_tuples

F = Fraction

KINDS = ("dtbr", "egalitarian", "optimist", "stoic")
AGENTS = {kind: Agent.of(kind, kind) for kind in KINDS}


def reference_find_violation(agent: Agent, spec: GridSpec) -> Optional[ViolationHit]:
    """First violated scenario, found by checking every scenario in stream order."""
    for index, scenario in enumerate(enumerate_scenarios(spec)):
        report = check_diachronic(agent, scenario)
        if report.verdict is Verdict.VIOLATED:
            return ViolationHit(index, scenario, report)
    return None


GRIDS = {
    # name: (rewards, weights, max root branches, max option branches)
    "thirds_negative": ([-1, 0, 2], ["1/3", "2/3", 1], 2, 2),
    "thirds_no_certainty": ([0, 1, 2], ["1/3", "2/3"], 2, 2),
    "quarters_and_halves": ([0, 1, 2], ["1/4", "1/2", "3/4"], 2, 2),
    "quarters": ([0, 1], ["1/4", "3/4", "1/2", 1], 2, 2),
    "quarters_negative": ([-1, 1], ["1/4", "3/4"], 2, 2),
    "half_rewards": ([-1, "1/2", 2], ["1/2", 1], 2, 2),
    "three_branch_pool": ([0, 1], ["1/3", "2/3"], 2, 3),
    "three_branch_roots": ([-1, 1], ["1/3", 1], 3, 1),
    "negative_pair": ([-1, 0], ["1/2", 1], 2, 2),
}

# (grid, kind, first-hit index or None).  Each pair costs the reference one
# check per scenario up to the hit, or the whole grid when there is none.
CASES = [
    ("thirds_negative", "egalitarian", 13781),
    ("thirds_no_certainty", "egalitarian", 128),
    ("quarters_and_halves", "egalitarian", 380),
    ("half_rewards", "egalitarian", 2657),
    ("quarters", "optimist", 2955),
    ("quarters_negative", "optimist", 521),
    ("three_branch_pool", "optimist", 4113),
    ("three_branch_roots", "optimist", 15),
    ("negative_pair", "optimist", 259),
    ("quarters_negative", "dtbr", None),
    ("negative_pair", "dtbr", None),
    ("negative_pair", "egalitarian", None),
    ("negative_pair", "stoic", None),
    ("three_branch_roots", "dtbr", None),
    ("three_branch_roots", "egalitarian", None),
    ("three_branch_roots", "stoic", None),
]


def _spec(name: str) -> GridSpec:
    rewards, weights, roots, options = GRIDS[name]
    return GridSpec.of(rewards, weights, roots, options)


def _assert_same_hit(agent: Agent, spec: GridSpec) -> Optional[ViolationHit]:
    hit = find_violation(agent, spec)
    assert hit == reference_find_violation(agent, spec)
    return hit


@pytest.mark.parametrize("grid,kind,index", CASES)
def test_first_hit_matches_the_reference(grid, kind, index):
    hit = _assert_same_hit(AGENTS[kind], _spec(grid))
    assert (hit.index if hit else None) == index


@pytest.mark.parametrize("grid", ["negative_pair", "three_branch_roots"])
def test_projected_count_matches_the_stream_on_fixed_grids(grid):
    spec = _spec(grid)
    assert scenario_count(spec) == len(list(enumerate_scenarios(spec)))


@st.composite
def small_grids(draw):
    rewards = draw(
        st.lists(
            st.sampled_from([F(-2), F(-1), F(0), F(1, 2), F(1), F(3)]),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    # Weights share one small denominator, so unit sums are common.
    denominator = draw(st.integers(2, 4))
    numerators = draw(
        st.lists(st.integers(1, denominator), min_size=1, max_size=3, unique=True)
    )
    return GridSpec(
        tuple(rewards),
        tuple(F(n, denominator) for n in numerators),
        draw(st.integers(1, 3)),
        draw(st.integers(1, 3)),
    )


@settings(max_examples=100)
@given(small_grids(), st.sampled_from(KINDS))
def test_random_small_grids_match_the_reference(spec, kind):
    # The reference checks every scenario up to the hit, or the whole grid
    # when there is none: keep that short enough for the example deadline.
    count = scenario_count(spec)
    assume(count <= 20_000)
    agent = AGENTS[kind]
    hit = find_violation(agent, spec)
    assume((hit.index + 1 if hit else count) <= 400)
    assert hit == reference_find_violation(agent, spec)
    if count <= 400:
        assert count == len(list(enumerate_scenarios(spec)))


@given(
    st.lists(
        st.sampled_from([F(1, 6), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1)]),
        min_size=1,
        max_size=5,
        unique=True,
    ),
    st.integers(1, 4),
)
def test_weight_tuples_match_the_filtered_product(grid, length):
    grid = tuple(grid)
    expected = [
        combo for combo in itertools.product(grid, repeat=length) if sum(combo) == 1
    ]
    assert _weight_tuples(grid, length) == expected
    assert _weight_tuple_counts(grid, length)[length] == len(expected)


def test_a_grid_far_over_the_cap_is_counted_and_refused_without_enumeration():
    spec = GridSpec.of(
        rewards=[0, 1],
        weights=[F(k, 20) for k in range(1, 21)],
        max_root_branches=5,
        max_option_branches=2,
    )
    assert scenario_count(spec) == 32_310_794_801_206_535_938_740
    with pytest.raises(GridTooLargeError):
        find_violation(AGENTS["dtbr"], spec)
    with pytest.raises(GridTooLargeError):
        next(enumerate_scenarios(spec))


def test_a_menu_with_no_unit_sums_has_an_empty_stream():
    spec = GridSpec.of(
        rewards=[0, 1], weights=["1/3"], max_root_branches=2, max_option_branches=2
    )
    assert scenario_count(spec) == 0
    assert list(enumerate_scenarios(spec)) == []
    for agent in AGENTS.values():
        assert find_violation(agent, spec) is None
