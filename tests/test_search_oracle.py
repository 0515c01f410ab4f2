"""The folded grid search against three slower references.

``reference_find_violation`` is the search as it was before it decided
scenarios on summaries: build every scenario of the stream and run
``reference_check_diachronic`` on it, which flattens both compounds and
ranks them with ``compare`` rather than composing summaries.
``reference_arm_walk`` is the search as it was before it grouped arms into
classes: decide every scenario of the stream from its arms' summaries.
``reference_class_walk`` is the search as it was before it folded classes
into states: for every root, decide every tuple of arm classes, in product
order, on the summaries composed with that root's weights.  The fast
search must return the same first hit (index, scenario and report) or the
same None, on fixed grids chosen to cover thirds, quarters, three-branch
games, three and four root branches and negative rewards, and on random
small grids.
"""

import itertools
import os
import time
from fractions import Fraction
from typing import Optional
from unittest import mock

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
from branchgames.agents import (
    RULES,
    Preference,
    Summary,
    compose,
    scaled_statistics,
    summary,
)
from branchgames import search
from branchgames.axioms import DiachronicScenario, broken_clause
from branchgames.core import scale_to_integers
from branchgames.search import (
    CAP_ENV_VAR,
    ViolationHit,
    _arm_classes,
    _check_cap,
    _first_violation,
    _grid_games,
    _reachable,
    _weight_tuple_counts,
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


def _pool_summaries(pool) -> list[Summary]:
    """Each pool game's full summary, every field over one pool-wide denominator."""
    summaries = [summary(game) for game in pool]
    values = scale_to_integers([s[0] for s in summaries])
    bounds = scale_to_integers([s[1] for s in summaries] + [s[2] for s in summaries])
    return list(zip(values, bounds[: len(pool)], bounds[len(pool) :]))


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


def reference_arm_classes(agent: Agent, pool) -> list[tuple]:
    """Every arm class whose descendant does not prefer its second option,
    by first arm: its position, options, partial summaries and verdict."""
    rule = RULES[agent.kind]
    firsts: dict = {}
    for position, fields in enumerate(scaled_statistics(agent.kind, pool)):
        firsts.setdefault(fields, position)
    classes = []
    for left_fields, left in firsts.items():
        for right_fields, right in firsts.items():
            verdict = rule(left_fields, right_fields)
            if verdict is not Preference.PrefersRight:
                classes.append(
                    (
                        left * len(pool) + right,
                        (pool[left], pool[right]),
                        (left_fields, right_fields),
                        verdict,
                    )
                )
    return classes


def reference_first_tuple(rule, classes, root) -> Optional[tuple]:
    """The first tuple of arm classes, in product order, that breaks a
    clause on the summaries composed with this root's weights."""
    weights = scale_to_integers([b.weight for b in root.branches])
    rewards = (0,) * len(weights)
    for chosen in itertools.product(classes, repeat=len(weights)):
        forward = rule(
            compose(weights, rewards, [pair[0] for _, _, pair, _ in chosen]),
            compose(weights, rewards, [pair[1] for _, _, pair, _ in chosen]),
        )
        if broken_clause([verdict for *_, verdict in chosen], forward) is not None:
            return chosen
    return None


def reference_class_walk(agent: Agent, spec: GridSpec) -> Optional[ViolationHit]:
    """First violated scenario, deciding for every root each tuple of arm
    classes in product order, on the summaries composed with its weights."""
    _check_cap(spec)
    pool = _grid_games(spec, spec.max_option_branches, spec.reward_grid, "O")
    classes = reference_arm_classes(agent, pool)
    arm_count = len(pool) ** 2
    offset = 0
    for root in _grid_games(spec, spec.max_root_branches, (F(0),), "R"):
        # Classes are listed by first arm, so product order is the stream
        # order of the scenarios the tuples stand for.
        chosen = reference_first_tuple(RULES[agent.kind], classes, root)
        if chosen is not None:
            index = offset
            for position, (first, *_) in enumerate(reversed(chosen)):
                index += first * arm_count**position
            scenario = DiachronicScenario(root, tuple(options for _, options, _, _ in chosen))
            return ViolationHit(index, scenario, check_diachronic(agent, scenario))
        offset += arm_count ** len(root.branches)
    return None


def _class_tuples(agent: Agent, spec: GridSpec) -> int:
    """How many class tuples the class walk decides on a clean scan."""
    pool = _grid_games(spec, spec.max_option_branches, spec.reward_grid, "O")
    classes = len(reference_arm_classes(agent, pool))
    roots = _grid_games(spec, spec.max_root_branches, (F(0),), "R")
    return sum(classes ** len(root.branches) for root in roots)


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


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("kind", KINDS)
def test_the_class_walk_agrees_on_every_fixed_grid(grid, kind):
    spec = _spec(grid)
    assert find_violation(AGENTS[kind], spec) == reference_class_walk(AGENTS[kind], spec)


@pytest.mark.parametrize("kind", KINDS)
def test_the_arm_walk_agrees_on_a_four_reward_grid(kind):
    # 160,400 scenarios: the arm walk decides every one of them on a clean scan.
    spec = GridSpec.of([0, 1, 2, 3], ["1/2", 1], 2, 2)
    assert scenario_count(spec) == 160_400
    hit = find_violation(AGENTS[kind], spec)
    assert hit == reference_arm_walk(AGENTS[kind], spec)
    assert hit == reference_class_walk(AGENTS[kind], spec)


def _quarter_grid(roots: int) -> GridSpec:
    return GridSpec.of([0, 1, 2], ["1/4", "1/2", "3/4", 1], roots, 2)


def test_a_three_root_grid_past_the_default_cap(monkeypatch):
    spec = _quarter_grid(3)
    assert scenario_count(spec) == 2_189_430_900
    monkeypatch.setenv(CAP_ENV_VAR, str(scenario_count(spec)))
    # The class walk decides about 91,000 class tuples per three-branch
    # root on this clean dtbr scan, so only the verdict is pinned.
    assert find_violation(AGENTS["dtbr"], spec) is None
    assert find_violation(AGENTS["stoic"], spec) is None
    for kind, index in (("optimist", 27_931), ("egalitarian", 1_415)):
        hit = find_violation(AGENTS[kind], spec)
        assert hit.index == index
        # Both references stop at the hit.
        assert hit == reference_find_violation(AGENTS[kind], spec)
        assert hit == reference_arm_walk(AGENTS[kind], spec)
        assert hit == reference_class_walk(AGENTS[kind], spec)


# Per kind, the first hit on the four-root quarter grid, and how many fold
# states 0, 1, ... arm classes reach, up to the first repeat, where the
# list stops.  The product walk decides classes^k tuples per root instead:
# about 4 million per four-branch root for dtbr.
FOUR_ROOTS = {
    "dtbr": (None, [1, 1, 1]),
    "egalitarian": (1_415, [1, 9, 10, 10]),
    "optimist": (27_931, [1, 6, 8, 8]),
    "stoic": (None, [1, 1, 1]),
}


@pytest.mark.parametrize("kind", KINDS)
def test_a_four_root_grid_is_decided_on_few_states(monkeypatch, kind):
    spec = _quarter_grid(4)
    assert scenario_count(spec) == 658_289_430_900
    monkeypatch.setenv(CAP_ENV_VAR, str(scenario_count(spec)))
    index, reachable = FOUR_ROOTS[kind]
    started = time.perf_counter()
    hit = find_violation(AGENTS[kind], spec)
    assert time.perf_counter() - started < 1.0
    assert (hit.index if hit else None) == index
    pool = _grid_games(spec, spec.max_option_branches, spec.reward_grid, "O")
    states = {state for _, _, state in _arm_classes(AGENTS[kind], pool)}
    assert [len(reach) for reach in _reachable(states, 4)] == reachable


def reference_reachable(states: set, longest: int) -> list[set]:
    """``reach[j]`` for every j up to ``longest``, past the fixed point."""
    reach: list[set] = [{None}]
    for _ in range(longest):
        reach.append({search._fold(state, arm) for state in reach[-1] for arm in states})
    return reach


# Per kind, how many fold states 0, 1, ... arm classes reach on a grid
# whose longest root has 1,000 branches of 1/1000, up to the first repeat.
LONG_ROOT = {
    "dtbr": [1, 1, 1],
    "egalitarian": [1, 3, 6, 6],
    "optimist": [1, 6, 8, 8],
    "stoic": [1, 1, 1],
}


@pytest.mark.parametrize("kind", KINDS)
def test_a_long_root_reaches_its_fixed_point_in_a_few_folds(kind):
    spec = GridSpec.of([0, 1, 2], ["1/1000", 1], 1000, 1)
    pool = _grid_games(spec, spec.max_option_branches, spec.reward_grid, "O")
    classes = _arm_classes(AGENTS[kind], pool)
    states = {state for _, _, state in classes}
    # find_violation asks for one fewer than the longest root length.
    reach = _reachable(states, 999)
    assert [len(tails) for tails in reach] == LONG_ROOT[kind]
    full = reference_reachable(states, 999)
    assert all(reach[min(j, len(reach) - 1)] == full[j] for j in range(1000))
    for size in (1, 2, 3, 1000):
        assert _first_violation(RULES[kind], classes, reach, size) == (
            _first_violation(RULES[kind], classes, full, size)
        )


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


@st.composite
def rooted_grids(draw):
    """Grids of up to four root branches whose menu holds 1/d, so that every
    root length up to d has a weight tuple."""
    rewards = draw(
        st.lists(
            st.sampled_from([F(-2), F(-1), F(0), F(1, 2), F(1), F(3)]),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    denominator = draw(st.integers(2, 4))
    numerators = draw(st.lists(st.integers(2, denominator), max_size=2, unique=True))
    return GridSpec(
        tuple(rewards),
        tuple(F(n, denominator) for n in (1, *numerators)),
        draw(st.integers(1, 4)),
        draw(st.integers(1, 2)),
    )


@settings(max_examples=100)
@given(rooted_grids(), st.sampled_from(KINDS))
def test_random_rooted_grids_match_the_class_walk(spec, kind):
    # The class walk decides every class tuple of every root on a clean
    # scan: keep that short enough for the example deadline.
    agent = AGENTS[kind]
    assume(_class_tuples(agent, spec) <= 5_000)
    with mock.patch.dict(os.environ, {CAP_ENV_VAR: str(scenario_count(spec) or 1)}):
        assert find_violation(agent, spec) == reference_class_walk(agent, spec)


@settings(max_examples=100)
@given(rooted_grids(), st.sampled_from(KINDS))
def test_every_root_of_a_length_has_the_fold_walks_first_tuple(spec, kind):
    # The search decides each root length once, on its first root: every
    # root of that length must have the same first violating class tuple,
    # or none, whatever its weights.
    agent = AGENTS[kind]
    assume(_class_tuples(agent, spec) <= 5_000)
    pool = _grid_games(spec, spec.max_option_branches, spec.reward_grid, "O")
    classes = _arm_classes(agent, pool)
    reach = _reachable({state for _, _, state in classes}, spec.max_root_branches)
    reference_classes = reference_arm_classes(agent, pool)
    for root in _grid_games(spec, spec.max_root_branches, (F(0),), "R"):
        chosen = _first_violation(RULES[kind], classes, reach, len(root.branches))
        first = reference_first_tuple(RULES[kind], reference_classes, root)
        assert [arm[0] for arm in chosen or ()] == [arm[0] for arm in first or ()]


@given(
    st.lists(
        st.sampled_from([F(1, 6), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1)]),
        min_size=1,
        max_size=5,
        unique=True,
    ),
    st.integers(1, 5),
)
def test_weight_tuples_match_the_filtered_product(grid, longest):
    # One reward, so each weight tuple is one game: the weight tuples of each
    # length's games, in pool order, must be the filtered product, in order.
    grid = tuple(grid)
    games = _grid_games(GridSpec.of([0], grid, longest, 1), longest, (F(0),), "R")
    counts = _weight_tuple_counts(grid, longest)
    for length in range(1, longest + 1):
        expected = [
            combo
            for combo in itertools.product(grid, repeat=length)
            if sum(combo) == 1
        ]
        assert [
            tuple(b.weight for b in game.branches)
            for game in games
            if len(game.branches) == length
        ] == expected
        assert counts[length] == len(expected)


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


def test_a_menu_with_no_unit_sums_has_an_empty_stream(monkeypatch):
    # The first three grids have no option game, so the search has no arm
    # to class; the third would still have 2**19 root games.  The fourth
    # has no root game but 3**20 option games.  A grid that projects no
    # scenario builds no game.
    def no_games(*args):
        raise AssertionError("a grid of no scenarios builds no game")

    monkeypatch.setattr(search, "_grid_games", no_games)
    for spec in (
        GridSpec.of(
            rewards=[0, 1], weights=["1/3"], max_root_branches=2, max_option_branches=2
        ),
        GridSpec.of(
            rewards=[-2], weights=["1/2"], max_root_branches=1, max_option_branches=1
        ),
        GridSpec.of(
            rewards=[0],
            weights=[F(k, 20) for k in range(1, 20)],
            max_root_branches=20,
            max_option_branches=1,
        ),
        GridSpec.of(
            rewards=[0, 1, 2], weights=["1/20"], max_root_branches=1, max_option_branches=20
        ),
    ):
        assert scenario_count(spec) == 0
        assert list(enumerate_scenarios(spec)) == []
        for agent in AGENTS.values():
            assert find_violation(agent, spec) is None


def test_a_clean_scan_builds_no_root_game(monkeypatch):
    # Each root length is placed in the stream by its count of weight
    # tuples; only a hit builds root games.  dtbr and stoic never violate.
    build = search._grid_games

    def options_only(spec, limit, rewards, prefix):
        if rewards == (F(0),):
            raise AssertionError("a clean scan builds no root game")
        return build(spec, limit, rewards, prefix)

    monkeypatch.setattr(search, "_grid_games", options_only)
    for spec in (
        GridSpec.of(
            rewards=[0, 1],
            weights=["1/2", 1],
            max_root_branches=2,
            max_option_branches=2,
        ),
        GridSpec.of(
            rewards=[0, 1, 2],
            weights=["1/3", "2/3", 1],
            max_root_branches=3,
            max_option_branches=1,
        ),
    ):
        for kind in ("dtbr", "stoic"):
            assert find_violation(AGENTS[kind], spec) is None
