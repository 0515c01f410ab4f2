"""``check_diachronic`` against the check it replaced.

``reference_check_diachronic`` is the diachronic check as it was before it
ranked compounds on composed summaries: flatten both compounds into games
and rank them, and every descendant's pair, with ``compare``.  The fast
check must return the same report, witness included, on every scenario of
a small grid and on random scenarios whose root rewards are nonzero and
fractional, which the grid search never builds.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from branchgames import (
    AGENT_KINDS,
    Agent,
    AxiomReport,
    Branch,
    CompoundGame,
    DiachronicScenario,
    Game,
    GridSpec,
    Preference,
    Verdict,
    check_diachronic,
    compare,
    flatten,
)
from branchgames.axioms import DiachronicWitness, broken_clause
from branchgames.search import _grid_games
from conftest import REWARD_POOL, games

F = Fraction

AGENTS = {kind: Agent.of(kind, kind) for kind in AGENT_KINDS}


def reference_check_diachronic(
    agent: Agent, scenario: DiachronicScenario
) -> AxiomReport:
    """The diachronic verdict from the flattened compounds, ranked by ``compare``."""
    root, options = scenario.root, scenario.options
    left = flatten(
        CompoundGame(root, tuple(first for first, _ in options)), "compound_first"
    )
    right = flatten(
        CompoundGame(root, tuple(second for _, second in options)), "compound_second"
    )
    descendant = tuple(compare(agent, first, second) for first, second in options)
    forward = compare(agent, left, right)
    clause = broken_clause(descendant, forward)
    if clause is None:
        return AxiomReport("diachronic", Verdict.SATISFIED, None)
    witness = DiachronicWitness(
        clause=clause,
        descendant_preferences=descendant,
        strict_branches=tuple(
            i for i, p in enumerate(descendant) if p is Preference.PrefersLeft
        ),
        left_compound=left,
        right_compound=right,
        compound_preference=forward,
    )
    return AxiomReport("diachronic", Verdict.VIOLATED, witness)


def _small_grid_scenarios():
    """Roots with rewards -1 and 1/2 on one or two even branches, over seven
    option games: the grid pool on rewards 0 and 2, and a sure 1 with a
    zero-weight branch paying 3, which ties the even 0/2 game on expected
    value with a smaller spread."""
    spec = GridSpec.of([0, 2], ["1/2", 1], 2, 2)
    roots = _grid_games(spec, 2, (F(-1), F(1, 2)), "R")
    pool = _grid_games(spec, 2, spec.reward_grid, "O")
    pool.append(Game("Oz", (Branch(F(3), F(0)), Branch(F(1), F(1)))))
    for root in roots:
        size = len(root.branches)
        for slots in itertools.product(pool, repeat=2 * size):
            yield DiachronicScenario(
                root, tuple((slots[2 * i], slots[2 * i + 1]) for i in range(size))
            )


@pytest.mark.parametrize("kind", AGENT_KINDS)
def test_every_scenario_of_a_small_grid_matches_the_reference(kind):
    agent = AGENTS[kind]
    checked = violated = 0
    for scenario in _small_grid_scenarios():
        report = check_diachronic(agent, scenario)
        assert report == reference_check_diachronic(agent, scenario), scenario
        checked += 1
        violated += report.verdict is Verdict.VIOLATED
    assert checked == 2 * 7**2 + 4 * 7**4
    # The optimist and the spread ranker break a clause somewhere on this grid.
    assert (violated > 0) == (kind in ("egalitarian", "optimist"))


# Nonzero and fractional rewards for the root, including thirds and sixths
# that no option reward shares.  Option rewards come from a short menu, so
# that the compounds' best rewards often tie and the root rewards decide.
ROOT_REWARDS = tuple(r for r in REWARD_POOL if r) + (F(5, 3), F(-7, 6))
OPTION_REWARDS = (F(0), F(1), F(2))


@st.composite
def scenarios(draw):
    root = draw(
        games(
            name="root", max_branches=3, rewards=ROOT_REWARDS, allow_zero_weight=False
        )
    )
    options = tuple(
        (
            draw(games(name=f"o{i}a", max_branches=3, rewards=OPTION_REWARDS)),
            draw(games(name=f"o{i}b", max_branches=3, rewards=OPTION_REWARDS)),
        )
        for i in range(len(root.branches))
    )
    return DiachronicScenario(root, options)


@pytest.mark.parametrize("kind", AGENT_KINDS)
@given(scenarios())
def test_random_scenarios_with_root_rewards_match_the_reference(kind, scenario):
    agent = AGENTS[kind]
    assert check_diachronic(agent, scenario) == reference_check_diachronic(
        agent, scenario
    )
