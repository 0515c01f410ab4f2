"""The four preference orders: worked comparisons and preorder laws."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchgames import (
    AGENT_KINDS,
    Agent,
    CompoundGame,
    Game,
    Preference,
    compare,
    flatten,
    strictly_prefers,
    weakly_prefers,
)
from branchgames.agents import RULES, STATISTICS, compose, summary
from conftest import games

F = Fraction

DTBR = Agent.of("ev", "dtbr")
EGAL = Agent.of("egal", "egalitarian")
OPT = Agent.of("opt", "optimist")
STOIC = Agent.of("stoic", "stoic")
AGENTS = (DTBR, EGAL, OPT, STOIC)

A = Game.of("A", (2, F(1, 2)), (3, F(1, 2)))
B = Game.of("B", (1, F(1, 2)), (4, F(1, 2)))
CERTAIN1 = Game.of("certain1", (1, 1))
B0 = Game.of("B0", (1, 0), (0, 1))
B_EPS = Game.of("Beps", (1, F(1, 100)), (0, F(99, 100)))
CERTAIN10 = Game.of("certain10", (10, 1))
COINFLIP = Game.of("coinflip", (0, F(1, 2)), (1, F(1, 2)))


class TestWorkedComparisons:
    def test_dtbr_is_indifferent_between_equal_means(self):
        assert compare(DTBR, A, B) is Preference.Indifferent

    def test_dtbr_prefers_the_higher_mean(self):
        assert compare(DTBR, CERTAIN10, COINFLIP) is Preference.PrefersLeft
        assert compare(DTBR, COINFLIP, CERTAIN10) is Preference.PrefersRight

    def test_egalitarian_breaks_mean_ties_by_smaller_spread(self):
        assert compare(EGAL, A, B) is Preference.PrefersLeft
        assert compare(EGAL, B, A) is Preference.PrefersRight

    def test_egalitarian_puts_the_mean_first(self):
        # certain 10 beats an even 0/1 flip despite both having some spread order
        assert compare(EGAL, CERTAIN10, COINFLIP) is Preference.PrefersLeft
        # and a risky high-mean game beats a safe low-mean one
        risky = Game.of("risky", (0, F(1, 2)), (100, F(1, 2)))
        assert compare(EGAL, risky, CERTAIN10) is Preference.PrefersLeft

    def test_egalitarian_equal_mean_equal_spread_is_indifference(self):
        shifted = Game.of("shifted", (1, F(1, 2)), (4, F(1, 2)))
        assert compare(EGAL, B, shifted) is Preference.Indifferent

    def test_optimist_tracks_only_the_best_live_outcome(self):
        # at any positive weight the better top reward wins...
        assert compare(OPT, B_EPS, CERTAIN1) is Preference.Indifferent
        win_two = Game.of("win2", (2, F(1, 100)), (0, F(99, 100)))
        assert compare(OPT, win_two, CERTAIN1) is Preference.PrefersLeft
        # ...but a zero-weight branch does not count as live
        assert compare(OPT, CERTAIN1, B0) is Preference.PrefersLeft

    def test_optimist_ignores_how_weight_is_spread(self):
        lopsided = Game.of("lop", (4, F(1, 100)), (1, F(99, 100)))
        assert compare(OPT, lopsided, B) is Preference.Indifferent

    def test_stoic_is_indifferent_everywhere(self):
        for left, right in itertools.product((A, B, B0, CERTAIN10), repeat=2):
            assert compare(STOIC, left, right) is Preference.Indifferent

    def test_weak_and_strict_helpers(self):
        assert strictly_prefers(EGAL, A, B)
        assert not strictly_prefers(EGAL, B, A)
        assert weakly_prefers(EGAL, A, B)
        assert not weakly_prefers(EGAL, B, A)
        assert weakly_prefers(DTBR, A, B)
        assert weakly_prefers(DTBR, B, A)


class TestAgentConstruction:
    def test_every_advertised_kind_constructs(self):
        assert AGENT_KINDS == ("dtbr", "egalitarian", "optimist", "stoic")
        for kind in AGENT_KINDS:
            assert Agent.of("a", kind).kind == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Agent.of("x", "maximin")

    def test_max_reward_only_legal_on_stoic(self):
        with pytest.raises(ValueError):
            Agent.of("x", "dtbr", max_reward=5)
        capped = Agent.of("x", "stoic", max_reward="7/2")
        assert capped.max_reward == F(7, 2)

    def test_stoic_bound_does_not_change_comparisons(self):
        capped = Agent.of("tiny", "stoic", max_reward=1)
        huge = Game.of("huge", (1000, 1))
        assert compare(capped, huge, CERTAIN1) is Preference.Indifferent

    def test_agents_are_immutable(self):
        with pytest.raises(AttributeError):
            DTBR.kind = "stoic"


def test_preference_flip_is_an_involution():
    for p in Preference:
        assert p.flipped().flipped() is p
    assert Preference.PrefersLeft.flipped() is Preference.PrefersRight
    assert Preference.Indifferent.flipped() is Preference.Indifferent


def test_preference_values_are_the_wire_strings():
    assert {p.value for p in Preference} == {
        "PrefersLeft",
        "PrefersRight",
        "Indifferent",
    }


def _tiny_game_set():
    """All games with 1-2 branches over rewards {0, 1, 2} and weights {1/3, 1/2, 2/3, 1}."""
    rewards = [F(0), F(1), F(2)]
    weights = [F(1, 3), F(1, 2), F(2, 3), F(1)]
    out = []
    for r in rewards:
        out.append(Game.of("g", (r, 1)))
    for w1, w2 in itertools.product(weights, repeat=2):
        if w1 + w2 != 1:
            continue
        for r1, r2 in itertools.product(rewards, repeat=2):
            out.append(Game.of("g", (r1, w1), (r2, w2)))
    return out


class TestPreorderLaws:
    @given(st.sampled_from(AGENTS), games(name="g"))
    def test_reflexive(self, agent, game):
        assert compare(agent, game, game) is Preference.Indifferent

    @given(st.sampled_from(AGENTS), games(name="x"), games(name="y"))
    def test_antisymmetric_under_swap(self, agent, left, right):
        assert compare(agent, left, right) is compare(agent, right, left).flipped()

    @given(st.sampled_from(AGENTS), games(name="x"), games(name="y"))
    def test_total(self, agent, left, right):
        assert weakly_prefers(agent, left, right) or weakly_prefers(agent, right, left)

    @settings(deadline=None)
    @given(st.sampled_from(AGENTS))
    def test_transitive_on_a_small_exhaustive_grid(self, agent):
        pool = _tiny_game_set()
        for x, y, z in itertools.product(pool, repeat=3):
            if weakly_prefers(agent, x, y) and weakly_prefers(agent, y, z):
                assert weakly_prefers(agent, x, z)

    @given(games(name="x"), games(name="y"))
    def test_egalitarian_agrees_with_dtbr_off_ties(self, left, right):
        by_mean = compare(DTBR, left, right)
        if by_mean is not Preference.Indifferent:
            assert compare(EGAL, left, right) is by_mean


@given(st.sampled_from(AGENTS), games(name="x"), games(name="y"))
def test_compare_is_the_rule_on_full_summaries(agent, left, right):
    # compare reads only the statistics a kind needs; the verdict must be
    # the one the shared rule gives on the complete summaries.
    assert compare(agent, left, right) is RULES[agent.kind](
        summary(left), summary(right)
    )


@given(
    st.sampled_from(AGENT_KINDS),
    games(name="root", max_branches=3, allow_zero_weight=False),
    st.data(),
)
def test_compose_is_the_partial_summary_of_the_flattened_game(kind, root, data):
    # Root rewards are drawn like option rewards: nonzero and fractional too.
    continuations = tuple(
        data.draw(games(name=f"c{i}", max_branches=3))
        for i in range(len(root.branches))
    )
    statistics = STATISTICS[kind]
    composed = compose(
        [b.weight for b in root.branches],
        [b.reward for b in root.branches],
        [statistics(c) for c in continuations],
    )
    assert composed == statistics(flatten(CompoundGame(root, continuations)))
