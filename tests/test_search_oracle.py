"""The class-by-class grid search against two slower references.

``reference_find_violation`` is the search as it was before it decided
scenarios on summaries: build every scenario of the stream and run
``reference_check_diachronic`` on it, which flattens both compounds and
ranks them with ``compare`` rather than composing summaries.
``reference_arm_walk`` is the search as it was before it grouped arms into
classes: decide every scenario of the stream from its arms' summaries.
The fast search must return the same first hit (index, scenario and
report) or the same None, on fixed grids chosen to cover thirds, quarters,
three-branch games, three root branches and negative rewards, and on
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
from branchgames.agents import RULES, Preference, Summary
from branchgames.axioms import DiachronicScenario, broken_clause
from branchgames.core import scale_to_integers
from branchgames.search import (
    CAP_ENV_VAR,
    ViolationHit,
    _check_cap,
    _grid_games,
    _pool_summaries,
    _weight_tuple_counts,
    _weight_tuples,
)
from test_diachronic_oracle import reference_check_diachronic

F = Fraction

KINDS = ("dtbr", "egalitarian", "optimist", "stoic")
AGENTS = {kind: Agent.of(kind, kind) for kind in KINDS}


def reference_find_violation(agent: Agent, spec: GridSpec) -> Optional[ViolationHit]:
    """First violated scenario, found by checking every scenario in stream order."""
    for index, scenario in enumerate(enumerate_scenarios(spec)):
        report = reference_check_diachronic(agent, scenario)
        if report.verdict is Verdict.VIOLATED:
            return ViolationHit(index, scenario, report)
    return None


def _compound(weights, continuations: list[Summary]) -> Summary:
    return (
        sum(w * c[0] for w, c in zip(weights, continuations)),
        min(c[1] for c in continuations),
        max(c[2] for c in continuations),
    )


def reference_arm_walk(agent: Agent, spec: GridSpec) -> Optional[ViolationHit]:
    """First violated scenario, deciding every scenario in stream order from
    its arms: per root branch, the two options, their summaries and the
    descendant's verdict."""
    _check_cap(spec)
    pool = _grid_games(spec, spec.max_option_branches, spec.reward_grid, "O")
    summarised = list(zip(pool, _pool_summaries(pool)))
    rule = RULES[agent.kind]
    arms = [
        ((first, second), (left, right), rule(left, right))
        for first, left in summarised
        for second, right in summarised
    ]
    index = 0
    for root in _grid_games(spec, spec.max_root_branches, (F(0),), "R"):
        weights = scale_to_integers([b.weight for b in root.branches])
        # Arms in odometer order put the slots in odometer order: within an
        # arm the second slot varies fastest.
        for chosen in itertools.product(arms, repeat=len(weights)):
            descendant = [preference for _, _, preference in chosen]
            if Preference.PrefersRight not in descendant:
                forward = rule(
                    _compound(weights, [pair[0] for _, pair, _ in chosen]),
                    _compound(weights, [pair[1] for _, pair, _ in chosen]),
                )
                if broken_clause(descendant, forward) is not None:
                    scenario = DiachronicScenario(
                        root, tuple(options for options, _, _ in chosen)
                    )
                    return ViolationHit(index, scenario, check_diachronic(agent, scenario))
            index += 1
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
    "three_roots": ([0, 1], ["1/4", "1/2"], 3, 2),
    "three_roots_signed": ([-1, 0, 1], ["1/4", "1/2"], 3, 2),
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
    ("three_roots", "optimist", 69),
    ("three_roots_signed", "egalitarian", 1658),
    ("three_roots_signed", "optimist", 739),
    ("quarters_negative", "dtbr", None),
    ("negative_pair", "dtbr", None),
    ("negative_pair", "egalitarian", None),
    ("negative_pair", "stoic", None),
    ("three_branch_roots", "dtbr", None),
    ("three_branch_roots", "egalitarian", None),
    ("three_branch_roots", "stoic", None),
    ("three_roots", "dtbr", None),
    ("three_roots", "stoic", None),
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


@pytest.mark.parametrize("kind", KINDS)
def test_the_arm_walk_agrees_on_a_four_reward_grid(kind):
    # 160,400 scenarios: the arm walk decides every one of them on a clean scan.
    spec = GridSpec.of([0, 1, 2, 3], ["1/2", 1], 2, 2)
    assert scenario_count(spec) == 160_400
    assert find_violation(AGENTS[kind], spec) == reference_arm_walk(AGENTS[kind], spec)


def test_a_three_root_grid_past_the_default_cap(monkeypatch):
    spec = GridSpec.of([0, 1, 2], ["1/4", "1/2", "3/4", 1], 3, 2)
    assert scenario_count(spec) == 2_189_430_900
    monkeypatch.setenv(CAP_ENV_VAR, str(scenario_count(spec)))
    assert find_violation(AGENTS["stoic"], spec) is None
    for kind, index in (("optimist", 27_931), ("egalitarian", 1_415)):
        hit = find_violation(AGENTS[kind], spec)
        assert hit.index == index
        # Both references stop at the hit.
        assert hit == reference_find_violation(AGENTS[kind], spec)
        assert hit == reference_arm_walk(AGENTS[kind], spec)


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


@settings(max_examples=100)
@given(small_grids(), st.sampled_from(KINDS))
def test_random_small_grids_match_the_arm_walk(spec, kind):
    # The arm walk decides every scenario up to the hit, or the whole grid
    # when there is none: keep that short enough for the example deadline.
    count = scenario_count(spec)
    assume(count <= 2_000_000)
    agent = AGENTS[kind]
    hit = find_violation(agent, spec)
    assume((hit.index + 1 if hit else count) <= 10_000)
    assert hit == reference_arm_walk(agent, spec)


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
    # Neither grid has an option game, so the search has no arm to class.
    for spec in (
        GridSpec.of(
            rewards=[0, 1], weights=["1/3"], max_root_branches=2, max_option_branches=2
        ),
        GridSpec.of(
            rewards=[-2], weights=["1/2"], max_root_branches=1, max_option_branches=1
        ),
    ):
        assert scenario_count(spec) == 0
        assert list(enumerate_scenarios(spec)) == []
        for agent in AGENTS.values():
            assert find_violation(agent, spec) is None
