"""Checks that rank many games against ``compare`` on every pair.

``check_continuity`` and ``analyze_dutch_book`` read each game's
statistics once from ``agents.STATISTICS``, and ``build_instance`` reads
them in integers from ``agents.scaled_statistics``; all three rank them
with ``agents.RULES``.  Each test here ranks the same games pairwise with
``compare`` instead and expects the same verdicts.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from branchgames import (
    AGENT_KINDS,
    Agent,
    Branch,
    ContinuityLevel,
    Game,
    Preference,
    RewardAlphabet,
    UtilityFit,
    analyze_dutch_book,
    build_instance,
    check_continuity,
    compare,
    fit_utility,
)
from branchgames.axioms import _perturbations
from branchgames.representation import FEASIBLE
from conftest import REWARD_POOL, games

AGENTS = tuple(Agent.of(kind, kind) for kind in AGENT_KINDS)
STRICT_AGENTS = AGENTS[:3]
DELTAS = (Fraction(1, 2), Fraction(1, 8))
SAMPLES = 2


@given(
    st.sampled_from(AGENTS),
    st.lists(games(max_branches=3), min_size=1, max_size=5),
)
def test_build_instance_matrix_is_compare_on_every_pair(agent, drawn):
    pool = [Game(f"g{k}", g.branches) for k, g in enumerate(drawn)]
    instance = build_instance(agent, pool, RewardAlphabet.from_games(*pool))
    for i, left in enumerate(pool):
        for j, right in enumerate(pool):
            assert instance.comparisons[i][j] is compare(agent, left, right)


# Sure games and even splits of two and three branches: dense in
# expected-value ties between games of differing spread.  Halves on one end
# of a support and integers on the other make a pair whose support mins and
# maxes have different least common denominators, such as
# {0, 0, 2} against {-1, 3/2, 3/2}; the egalitarian rule ranks that pair
# correctly only if the min and max share one denominator.
_TIE_REWARDS = tuple(Fraction(r) for r in ("-1", "0", "1/2", "1", "3/2", "2"))
_TIE_POOL = tuple(
    Game("g", tuple(Branch(r, Fraction(1, size)) for r in rewards))
    for size in (1, 2, 3)
    for rewards in combinations_with_replacement(_TIE_REWARDS, size)
    if size == 1 or len(set(rewards)) > 1
)


@pytest.mark.parametrize("agent", AGENTS, ids=AGENT_KINDS)
def test_build_instance_matrix_is_compare_on_every_pool_pair(agent):
    alphabet = RewardAlphabet(_TIE_REWARDS)
    for pair in combinations_with_replacement(_TIE_POOL, 2):
        matrix = build_instance(agent, pair, alphabet).comparisons
        assert matrix == tuple(
            tuple(compare(agent, g, h) for h in pair) for g in pair
        )
    empty = build_instance(agent, (), alphabet)
    assert empty.comparisons == ()
    assert fit_utility(empty) == UtilityFit(
        FEASIBLE, {r: Fraction(0) for r in _TIE_REWARDS}, None, False
    )


def reference_levels(agent, left, right, alphabet, seed):
    """Each radius's first falsifying pair, ranked pairwise with compare."""
    levels = []
    for delta in DELTAS:
        rng = random.Random(f"{seed}:{delta}")
        lefts = _perturbations(left, alphabet, delta, rng, SAMPLES)
        rights = _perturbations(right, alphabet, delta, rng, SAMPLES)
        level = ContinuityLevel(delta, None, None, None)
        for lp, rp in product(lefts, rights):
            verdict = compare(agent, lp, rp)
            if verdict is not Preference.PrefersLeft:
                level = ContinuityLevel(delta, lp, rp, verdict)
                break
        levels.append(level)
    return tuple(levels)


@given(
    st.sampled_from(STRICT_AGENTS),
    games(name="L", max_branches=3),
    games(name="R", max_branches=3),
    st.integers(0, 5),
)
def test_continuity_levels_match_pairwise_compare(agent, left, right, seed):
    verdict = compare(agent, left, right)
    assume(verdict is not Preference.Indifferent)
    if verdict is Preference.PrefersRight:
        left, right = right, left
    alphabet = RewardAlphabet.from_games(left, right)
    report = check_continuity(agent, left, right, alphabet, DELTAS, SAMPLES, seed)
    assert report.witness.levels == reference_levels(
        agent, left, right, alphabet, seed
    )


@given(st.sampled_from(AGENTS), games(name="base", max_branches=3), st.data())
def test_dutch_book_preferences_are_compare_against_the_null_game(agent, base, data):
    count = data.draw(st.integers(1, 3))
    package = [base] + [
        Game(
            f"g{k}",
            tuple(
                Branch(data.draw(st.sampled_from(REWARD_POOL)), b.weight)
                for b in base.branches
            ),
        )
        for k in range(1, count)
    ]
    report = analyze_dutch_book(agent, package)
    assert report.individual_preferences == tuple(
        compare(agent, g, report.null) for g in package
    )
    assert report.combined_preference is compare(agent, report.combined, report.null)
