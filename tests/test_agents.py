"""The four preference orders: worked comparisons and preorder laws."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from branchgames import (
    AGENT_KINDS,
    Agent,
    Game,
    Preference,
    compare,
    flatten,
)
from branchgames.agents import (
    RANK_KEYS,
    RULES,
    STATISTICS,
    compose,
    scaled_statistics,
    summary,
)
from branchgames.core import expected_value
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
        assert compare(EGAL, A, B) is Preference.PrefersLeft
        assert compare(EGAL, B, A) is not Preference.PrefersLeft
        assert compare(EGAL, A, B) is not Preference.PrefersRight
        assert compare(EGAL, B, A) is Preference.PrefersRight
        assert compare(DTBR, A, B) is not Preference.PrefersRight
        assert compare(DTBR, B, A) is not Preference.PrefersRight


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
        assert (
            compare(agent, left, right) is not Preference.PrefersRight
            or compare(agent, right, left) is not Preference.PrefersRight
        )

    @pytest.mark.parametrize("agent", AGENTS, ids=[a.kind for a in AGENTS])
    def test_transitive_on_a_small_exhaustive_grid(self, agent):
        pool = _tiny_game_set()
        for x, y, z in itertools.product(pool, repeat=3):
            if (
                compare(agent, x, y) is not Preference.PrefersRight
                and compare(agent, y, z) is not Preference.PrefersRight
            ):
                assert compare(agent, x, z) is not Preference.PrefersRight

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
    assert composed == statistics(flatten(root, continuations))


# Which fields of each kind's partial summary are None: the ones its rule
# never reads.
NONE_FIELDS = {
    "dtbr": [False, True, True],
    "egalitarian": [False, False, False],
    "optimist": [True, True, False],
    "stoic": [True, True, True],
}


@pytest.mark.parametrize("kind", AGENT_KINDS)
def test_every_partial_summary_is_a_triple(kind):
    # STATISTICS, compose and scaled_statistics give every kind, stoic
    # too, the same (expected value, support min, support max) shape.
    parts = [STATISTICS[kind](game) for game in (A, B, CERTAIN1)]
    for part in (
        *parts,
        compose([F(1, 2), F(1, 2)], [0, 1], parts[:2]),
        *scaled_statistics(kind, (A, B, CERTAIN1)),
    ):
        assert type(part) is tuple
        assert [field is None for field in part] == NONE_FIELDS[kind]


def _reference_order(left, right):
    """The verdict when a larger statistic is better."""
    if left > right:
        return Preference.PrefersLeft
    if left < right:
        return Preference.PrefersRight
    return Preference.Indifferent


def reference_rule(kind, left, right):
    """Each kind's comparator on two summaries, written out per kind.

    The rules ``RANK_KEYS`` builds replaced these; a summary is
    (expected value, support min, support max), and any field the kind
    does not read may be None, as all of stoic's are.
    """
    if kind == "dtbr":
        return _reference_order(left[0], right[0])
    if kind == "egalitarian":
        by_value = _reference_order(left[0], right[0])
        if by_value is not Preference.Indifferent:
            return by_value
        # On an exact expected-value tie the smaller spread wins.
        return _reference_order(right[2] - right[1], left[2] - left[1])
    if kind == "optimist":
        return _reference_order(left[2], right[2])
    return Preference.Indifferent


@st.composite
def mean_twins(draw):
    """A game and another with exactly its expected value, often a different spread."""
    game = draw(games(name="g"))
    mean = expected_value(game)
    half = draw(st.sampled_from((F(0), F(1, 2), F(1), F(3))))
    twin = Game.of("twin", (mean - half, F(1, 2)), (mean + half, F(1, 2)))
    return [game, twin]


@given(
    st.sampled_from(AGENT_KINDS),
    st.lists(mean_twins(), min_size=1, max_size=3).map(
        lambda pairs: [game for pair in pairs for game in pair]
    ),
)
def test_rules_and_rank_keys_match_the_reference_rule(kind, game_list):
    # Fraction summaries, the kind's partial summaries (stoic's all None)
    # and their integer form, ranked pairwise by the rule and by key tuples.
    keys = RANK_KEYS[kind]
    rule = RULES[kind]
    for parts in (
        [summary(game) for game in game_list],
        [STATISTICS[kind](game) for game in game_list],
        scaled_statistics(kind, game_list),
    ):
        for left, right in itertools.product(parts, repeat=2):
            expected = reference_rule(kind, left, right)
            assert rule(left, right) is expected
            first = tuple(key(left) for key in keys)
            second = tuple(key(right) for key in keys)
            assert (first > second, first < second) == (
                expected is Preference.PrefersLeft,
                expected is Preference.PrefersRight,
            )


def test_the_egalitarian_reads_the_spread_only_on_a_mean_tie():
    narrow = (F(1), F(1, 2), F(3, 2))
    wide = (F(1), F(0), F(2))
    higher = (F(2), None, None)
    rule = RULES["egalitarian"]
    assert rule(narrow, wide) is Preference.PrefersLeft
    assert rule(wide, narrow) is Preference.PrefersRight
    # No spread is read off a summary that wins on its mean.
    assert rule(higher, wide) is Preference.PrefersLeft
    assert rule(wide, higher) is Preference.PrefersRight


def test_expected_value_is_the_first_key_wherever_it_is_summarised():
    # The grid search folds arms only when a kind that reads the expected
    # value ranks it first (search._arm_classes checks this at run time).
    game = Game.of("g", (1, F(1, 3)), (4, F(2, 3)))
    readers = []
    for kind in AGENT_KINDS:
        part = STATISTICS[kind](game)
        if part[0] is not None:
            readers.append(kind)
            assert RANK_KEYS[kind][0](part) == part[0] == F(3)
            assert RANK_KEYS[kind][0]((F(7), None, None)) == F(7)
    assert readers == ["dtbr", "egalitarian"]
