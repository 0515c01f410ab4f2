"""Core model: validation, statistics, flattening, combination, distance.

Combination is ``analyze_dutch_book``'s ``combined`` game, checked here
against a left fold of ``combine_on_shared_event``, a pairwise reference.
"""

import dataclasses
import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchgames import (
    Agent,
    AlphabetMismatchError,
    Branch,
    EmptyGameError,
    EventMismatchError,
    Game,
    RewardAlphabet,
    WeightRangeError,
    WeightSumError,
    as_rational,
    analyze_dutch_book,
    build_instance,
    expected_value,
    flatten,
    game_distance,
    largest_reward,
    support_bounds,
    validate_game,
    weight_vector,
)
from branchgames.agents import AGENT_KINDS, summary
from branchgames.core import scale_to_integers, weight_vectors
from conftest import REWARD_POOL, compounds, games

F = Fraction

A = Game.of("A", (2, F(1, 2)), (3, F(1, 2)))
B = Game.of("B", (1, F(1, 2)), (4, F(1, 2)))
B0 = Game.of("B0", (1, 0), (0, 1))
CERTAIN1 = Game.of("certain1", (1, 1))
DTBR = Agent.of("ev", "dtbr")


class TestValidation:
    def test_two_branch_game_is_valid(self):
        validate_game(A)

    def test_single_certain_branch_is_valid(self):
        validate_game(CERTAIN1)

    def test_zero_weight_branch_is_legal_and_kept(self):
        validate_game(B0)
        assert len(B0.branches) == 2
        assert support_bounds(B0) == (F(0), F(0))

    def test_empty_game_rejected(self):
        with pytest.raises(EmptyGameError, match="^game 'empty' has no branches$"):
            Game.of("empty")

    def test_all_zero_weights_rejected(self):
        # The sum is 0, not 1, so no game without support can be built.
        message = "^game 'null': weights sum to 0, expected 1$"
        with pytest.raises(WeightSumError, match=message):
            Game.of("null", (1, 0), (2, 0))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(WeightSumError):
            Game.of("short", (1, F(1, 2)), (2, F(1, 3)))

    def test_negative_weight_rejected(self):
        with pytest.raises(WeightRangeError):
            Game.of("neg", (1, F(-1, 2)), (2, F(3, 2)))

    def test_weight_above_one_rejected(self):
        with pytest.raises(WeightRangeError):
            Game.of("big", (1, F(3, 2)), (2, F(-1, 2)))

    def test_validate_rejects_hand_built_invalid_game(self):
        # Game validates itself, so Game.of adds no check of its own.
        message = "^game 'bad': weights sum to 1/2, expected 1$"
        with pytest.raises(WeightSumError, match=message):
            Game("bad", (Branch(F(1), F(1, 2)),))


class TestRationalParsing:
    def test_integer_and_fraction_strings(self):
        assert as_rational("3") == F(3)
        assert as_rational("-2") == F(-2)
        assert as_rational("1/3") == F(1, 3)
        assert as_rational("-7/2") == F(-7, 2)

    def test_existing_rationals_and_ints_pass_through(self):
        assert as_rational(F(5, 4)) == F(5, 4)
        assert as_rational(7) == F(7)

    def test_decimal_notation_rejected(self):
        with pytest.raises(ValueError):
            as_rational("0.5")

    def test_exponent_notation_rejected(self):
        with pytest.raises(ValueError):
            as_rational("1e-3")

    @pytest.mark.parametrize(
        "text",
        ["\u0663", "\uff11", "-\uff11", "1/\u0663", "\u0661\u0662/3"],
        ids=["arabic-indic", "fullwidth", "minus", "denominator", "numerator"],
    )
    def test_only_ascii_digits_are_digits(self, text):
        with pytest.raises(ValueError):
            as_rational(text)

    @pytest.mark.parametrize("text", [" 1", "1\n", " 1\n", "1 /2", "\u00a01"])
    def test_whitespace_is_not_part_of_a_literal(self, text):
        with pytest.raises(ValueError):
            as_rational(text)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            as_rational(0.5)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            as_rational("1/0")


class TestStatistics:
    def test_expected_value(self):
        assert expected_value(A) == F(5, 2)
        assert expected_value(B) == F(5, 2)
        assert expected_value(B0) == F(0)

    def test_expected_value_single_branch(self):
        assert expected_value(Game.of("seven", (7, 1))) == F(7)

    def test_largest_reward_ignores_zero_weight_branches(self):
        assert largest_reward(B) == F(4)
        assert largest_reward(B0) == F(0)

    def test_largest_reward_with_negative_rewards(self):
        g = Game.of("losses", (-5, F(1, 2)), (-1, F(1, 2)))
        assert largest_reward(g) == F(-1)

    def test_reward_range_over_support(self):
        for game, spread in ((A, F(1)), (B, F(3)), (B0, F(0)), (CERTAIN1, F(0))):
            low, high = support_bounds(game)
            assert high - low == spread

    @pytest.mark.parametrize(
        "branches",
        [
            # Zero-weight branches beside the one that carries all the weight.
            (Branch(F(1), F(0)), Branch(F(-1, 2), F(0)), Branch(F(3), F(1))),
            # Mixed denominators, with a zero-weight branch.
            (Branch(F(3), F(1, 2)), Branch(F(-1, 3), F(1, 4)), Branch(F(5), F(0)),
             Branch(F(2, 7), F(1, 4))),
        ],
    )
    def test_expected_value_raises_nothing_on_hand_built_games(self, branches):
        value = expected_value(Game("hand", branches))
        assert type(value) is Fraction
        assert value == sum((b.weight * b.reward for b in branches), F(0))

    def test_reward_range_without_support_raises(self):
        # A game without support is refused when built, so no statistic
        # meets one.
        message = "^game 'empty': weights sum to 0, expected 1$"
        with pytest.raises(WeightSumError, match=message):
            support_bounds(Game("empty", (Branch(F(1), F(0)),)))


class TestFlatten:
    def test_rewards_add_and_weights_multiply(self):
        root = Game.of("root", (1, F(1, 2)), (2, F(1, 2)))
        conts = (
            Game.of("c1", (10, F(1, 2)), (20, F(1, 2))),
            Game.of("c2", (0, 1)),
        )
        flat = flatten(root, conts, name="flat")
        assert flat.name == "flat"
        assert flat.branches == (
            Branch(F(11), F(1, 4)),
            Branch(F(21), F(1, 4)),
            Branch(F(2), F(1, 2)),
        )

    def test_certain_continuations(self):
        root = Game.of("flip", (0, F(1, 2)), (0, F(1, 2)))
        conts = (Game.of("two", (2, 1)), Game.of("three", (3, 1)))
        flat = flatten(root, conts)
        assert weight_vector(flat, RewardAlphabet.of([2, 3])) == (F(1, 2), F(1, 2))

    def test_zero_weight_root_branch_propagates(self):
        root = Game.of("r", (1, 0), (0, 1))
        conts = (Game.of("c", (5, 1)), Game.of("d", (7, 1)))
        flat = flatten(root, conts)
        assert flat.branches == (Branch(F(6), F(0)), Branch(F(7), F(1)))
        validate_game(flat)

    def test_flatten_validates_by_default(self):
        # flatten needs no check of its own: an invalid root is refused
        # when built, so no compound holds one.
        message = "^game 'bad': weights sum to 1/2, expected 1$"
        with pytest.raises(WeightSumError, match=message):
            Game("bad", (Branch(F(0), F(1, 2)),))

    def test_continuation_count_must_match(self):
        message = "^compound on 'A': 2 root branches but 1 continuations$"
        with pytest.raises(ValueError, match=message):
            flatten(A, (CERTAIN1,))


def combine_on_shared_event(first, second):
    """Add two games that resolve on the same branching event.

    Branch i of the result keeps the shared weight and pays the sum of the
    two rewards.  Raises :class:`EventMismatchError` unless the weight
    lists agree branch for branch.
    """
    if [b.weight for b in first.branches] != [b.weight for b in second.branches]:
        raise EventMismatchError(
            f"{first.name!r} and {second.name!r} do not share a branching event"
        )
    branches = tuple(
        Branch(a.reward + b.reward, a.weight)
        for a, b in zip(first.branches, second.branches)
    )
    return Game(f"{first.name}+{second.name}", branches)


def combined(*games):
    """The package's combined game, as ``analyze_dutch_book`` builds it."""
    return analyze_dutch_book(DTBR, games).combined


class TestCombine:
    def test_mirror_bets_lock_in_a_loss(self):
        heads = Game.of("heads", (1, F(1, 2)), (-2, F(1, 2)))
        tails = Game.of("tails", (-2, F(1, 2)), (1, F(1, 2)))
        both = combined(heads, tails)
        assert both.name == "heads+tails"
        assert both.branches == (Branch(F(-1), F(1, 2)), Branch(F(-1), F(1, 2)))

    def test_null_game_is_identity(self):
        null = Game.of("null", (0, F(1, 2)), (0, F(1, 2)))
        assert combined(A, null).branches == A.branches

    def test_default_name_joins_the_operands(self):
        assert combined(A, B).name == "A+B"

    def test_combining_a_game_with_itself_doubles_rewards(self):
        doubled = combined(B, B)
        assert doubled.branches == (Branch(F(2), F(1, 2)), Branch(F(8), F(1, 2)))

    def test_weight_profiles_must_match(self):
        skew = Game.of("skew", (1, F(1, 3)), (4, F(2, 3)))
        with pytest.raises(EventMismatchError):
            combined(B, skew)

    def test_branch_counts_must_match(self):
        with pytest.raises(EventMismatchError):
            combined(A, CERTAIN1)

    @given(
        games(name="event", max_branches=4),
        st.lists(
            st.tuples(
                st.sampled_from("abc"),
                st.lists(st.sampled_from(REWARD_POOL), min_size=5, max_size=5),
            ),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from(AGENT_KINDS),
    )
    def test_combined_is_the_left_fold_of_the_package(self, event, parts, kind):
        # Every game rides the event's weights, zero-weight branches included.
        package = [
            Game(name, tuple(Branch(r, b.weight) for r, b in zip(rewards, event.branches)))
            for name, rewards in parts
        ]
        report = analyze_dutch_book(Agent.of("a", kind), package)
        fold = functools.reduce(combine_on_shared_event, package)
        assert report.combined.name == fold.name
        assert report.combined.branches == fold.branches


def reference_weight_vector(game, alphabet):
    """``weight_vector`` as it was: a running ``Fraction`` sum per reward."""
    totals = [F(0)] * len(alphabet)
    for b in game.branches:
        totals[alphabet.index(b.reward)] += b.weight
    return tuple(totals)


def _outcome(build):
    """What ``build()`` returns, or the type and text of the error it raised."""
    try:
        return build()
    except Exception as error:
        return type(error), str(error)


def assert_weight_vectors_match_the_reference(pool, alphabet, extra):
    for game in pool:
        vector = _outcome(lambda: weight_vector(game, alphabet))
        reference = _outcome(lambda: reference_weight_vector(game, alphabet))
        # Fractions, not integers equal to them; or the same error.
        assert vector == reference
        assert list(map(type, vector)) == list(map(type, reference))
    outcome = _outcome(lambda: weight_vectors(pool, alphabet, *extra))
    expected = _outcome(lambda: [reference_weight_vector(g, alphabet) for g in pool])
    if isinstance(expected, tuple):
        # The first offending game's first stray reward, with the same text.
        assert outcome == expected
        return
    common, vectors = outcome
    denominators = [b.weight.denominator for g in pool for b in g.branches]
    assert common == math.lcm(*denominators, *extra)
    assert vectors == [[int(w * common) for w in v] for v in expected]
    assert all(type(x) is int for v in vectors for x in v)


# Mixed denominators within a game, zero weights, and duplicate rewards.
_SEEDED_REWARDS = (F(-1), F(0), F(1, 2), F(2), F(9, 4))
_SEEDED_DENOMINATORS = (2, 3, 4, 5, 6, 8, 12)


def _seeded_game(rng, name):
    branches, remaining = [], F(1)
    for _ in range(rng.randint(0, 3)):
        d = rng.choice(_SEEDED_DENOMINATORS)
        w = min(remaining, F(rng.randint(0, d), d))
        branches.append(Branch(rng.choice(_SEEDED_REWARDS), w))
        remaining -= w
    branches.append(Branch(rng.choice(_SEEDED_REWARDS), remaining))
    return Game(name, tuple(branches))


@pytest.mark.parametrize("seed", range(40))
def test_weight_vectors_are_the_reference_times_d_on_seeded_games(seed):
    rng = random.Random(seed)
    pool = [_seeded_game(rng, f"g{k}") for k in range(rng.randint(1, 5))]
    extra = rng.sample(range(1, 31), rng.randint(0, 2))
    alphabet = RewardAlphabet.of(b.reward for g in pool for b in g.branches)
    assert_weight_vectors_match_the_reference(pool, alphabet, extra)
    # Without its first reward the alphabet refuses whichever game names it first.
    if len(alphabet) > 1:
        narrower = RewardAlphabet(alphabet.rewards[1:])
        assert_weight_vectors_match_the_reference(pool, narrower, extra)


@given(
    st.lists(games(max_branches=4), min_size=1, max_size=4),
    st.lists(st.integers(1, 40), max_size=3),
    st.lists(st.sampled_from(REWARD_POOL), max_size=2),
    st.booleans(),
)
def test_weight_vectors_are_the_reference_times_d(pool, extra, wider, drop):
    alphabet = RewardAlphabet.of(
        [b.reward for g in pool for b in g.branches] + wider
    )
    if drop and len(alphabet) > 1:
        alphabet = RewardAlphabet(alphabet.rewards[1:])
    assert_weight_vectors_match_the_reference(pool, alphabet, extra)


class TestWeightVectors:
    def test_extra_denominators_and_no_games(self):
        alphabet = RewardAlphabet.of([0, 1])
        assert weight_vectors((), alphabet) == (1, [])
        assert weight_vectors((), alphabet, 4, 6) == (12, [])
        # Sixths merged at reward 1 reduce to 1/2, but D keeps every branch's 6.
        g = Game.of("g", (1, F(1, 6)), (1, F(1, 3)), (0, F(1, 2)))
        assert weight_vectors((g,), alphabet) == (6, [[3, 3]])
        assert weight_vectors((g,), alphabet, 10) == (30, [[15, 15]])

    def test_the_first_offending_game_is_named(self):
        alphabet = RewardAlphabet.of([0, 1])
        good = Game.of("good", (1, 1))
        late = Game.of("late", (1, 1), (7, 0))
        early = Game.of("early", (9, 0), (0, 1))
        pool = (good, late, early)
        message = r"^reward 7 not in alphabet \{0, 1\}$"
        with pytest.raises(AlphabetMismatchError, match=message):
            weight_vectors(pool, alphabet)
        with pytest.raises(AlphabetMismatchError, match=message):
            [reference_weight_vector(g, alphabet) for g in pool]

    def test_equal_rewards_merge(self):
        g = Game.of("g", (1, F(1, 4)), (1, F(1, 4)), (0, F(1, 2)))
        alphabet = RewardAlphabet.of([0, 1])
        assert weight_vector(g, alphabet) == (F(1, 2), F(1, 2))

    def test_zero_weight_reward_outside_alphabet_rejected(self):
        alphabet = RewardAlphabet.of([0])
        with pytest.raises(AlphabetMismatchError):
            weight_vector(B0, alphabet)

    @pytest.mark.parametrize(
        "values, scaled",
        [
            ((), []),
            ((F(1, 2), F(-2, 3), F(3)), [3, -4, 18]),
            ((F(0), F(5, 4)), [0, 5]),
            # None adds no denominator and stays None.
            ((None, F(1, 6), None, F(-3, 4)), [None, 2, None, -9]),
            ((None, None), [None, None]),
        ],
    )
    def test_scale_to_integers(self, values, scaled):
        assert scale_to_integers(values) == scaled

    def test_distance_examples(self):
        alphabet = RewardAlphabet.of([0, 1])
        b_eps = Game.of("beps", (1, F(1, 100)), (0, F(99, 100)))
        certain1 = Game.of("c1", (1, 1), (0, 0))
        assert game_distance(certain1, b_eps, alphabet) == F(99, 100)
        assert game_distance(certain1, certain1, alphabet) == F(0)
        assert game_distance(certain1, B0, alphabet) == F(1)


class TestRewardAlphabet:
    def test_duplicates_collapse_and_order_is_sorted(self):
        alphabet = RewardAlphabet.of([3, 1, 1, 2])
        assert list(alphabet) == [F(1), F(2), F(3)]

    def test_from_games_collects_all_rewards(self):
        alphabet = RewardAlphabet.of(b.reward for g in (A, B0) for b in g.branches)
        assert list(alphabet) == [F(0), F(1), F(2), F(3)]

    def test_index_and_membership(self):
        alphabet = RewardAlphabet.of([0, 1])
        assert alphabet.index(F(1)) == 1
        assert F(0) in alphabet
        assert F(2) not in alphabet
        with pytest.raises(AlphabetMismatchError):
            alphabet.index(F(2))

    def test_index_reads_rewards_by_value(self):
        alphabet = RewardAlphabet.of([-1, F(1, 2), 3])
        half = F(2, 4)
        assert half is not alphabet.rewards[1]
        assert alphabet.index(half) == 1
        assert alphabet.index(3) == 2
        assert alphabet.index(-1) == 0
        for miss, text in ((F(1, 3), "1/3"), (2, "2"), (F(-3, 2), "-3/2")):
            message = rf"^reward {text} not in alphabet \{{-1, 1/2, 3\}}$"
            with pytest.raises(AlphabetMismatchError, match=message):
                alphabet.index(miss)
        # The lookup table leaves equality, hashing and repr as they were.
        same = RewardAlphabet((F(-1), F(1, 2), F(3)))
        assert alphabet == same and hash(alphabet) == hash(same)
        assert alphabet != RewardAlphabet((F(-1), F(3)))
        assert repr(alphabet) == (
            "RewardAlphabet(rewards=(Fraction(-1, 1), Fraction(1, 2), Fraction(3, 1)))"
        )
        # A zero-weight branch still names its reward.
        ghost = Game.of("ghost", (3, 1), (7, 0))
        message = r"^reward 7 not in alphabet \{-1, 1/2, 3\}$"
        with pytest.raises(AlphabetMismatchError, match=message):
            weight_vector(ghost, alphabet)
        with pytest.raises(AlphabetMismatchError, match=message):
            build_instance(Agent.of("ev", "dtbr"), (ghost,), alphabet)

    def test_membership_agrees_with_index(self):
        alphabet = RewardAlphabet.of(["1/2", 3])
        half = F(2, 4)
        assert half is not alphabet.rewards[0]
        for member, position in ((half, 0), (3, 1), (F(3), 1)):
            assert member in alphabet
            assert alphabet.index(member) == position
        # A float or a string equal in value is not a rational: index
        # misses it, and so does membership.
        for stranger in (0.5, 3.0, "1/2", "3", None):
            assert stranger not in alphabet
            with pytest.raises(AlphabetMismatchError):
                alphabet.index(stranger)
        for miss in (F(1, 3), 2, -3):
            assert miss not in alphabet

    def test_must_not_be_empty(self):
        with pytest.raises(ValueError):
            RewardAlphabet.of([])

    def test_hand_built_unsorted_alphabet_rejected(self):
        with pytest.raises(ValueError):
            RewardAlphabet((F(2), F(1)))


class TestProperties:
    @given(compounds())
    def test_expected_value_adds_along_paths(self, compound):
        root, continuations = compound
        flat = flatten(root, continuations)
        direct = expected_value(root) + sum(
            (
                branch.weight * expected_value(cont)
                for branch, cont in zip(root.branches, continuations)
            ),
            F(0),
        )
        assert expected_value(flat) == direct

    @given(compounds())
    def test_flatten_output_is_always_valid(self, compound):
        validate_game(flatten(*compound))

    @given(games(name="x"), st.lists(st.sampled_from(REWARD_POOL), min_size=1, max_size=8))
    def test_combine_adds_expected_values(self, left, rewards):
        # share the left game's event structure, vary only the rewards
        paired = Game(
            "paired",
            tuple(
                Branch(rewards[i % len(rewards)], branch.weight)
                for i, branch in enumerate(left.branches)
            ),
        )
        both = combined(left, paired)
        assert expected_value(both) == expected_value(left) + expected_value(paired)
        assert largest_reward(both) <= largest_reward(left) + largest_reward(paired)

    @given(games(name="g"), st.randoms(use_true_random=False))
    def test_expected_value_is_branch_order_invariant(self, game, rng):
        shuffled = list(game.branches)
        rng.shuffle(shuffled)
        other = Game("shuffled", tuple(shuffled))
        assert expected_value(other) == expected_value(game)
        assert largest_reward(other) == largest_reward(game)
        assert support_bounds(other) == support_bounds(game)

    @given(games(name="g"), st.integers(0, 3))
    def test_splitting_a_branch_preserves_statistics(self, game, quarters):
        branch = game.branches[0]
        first = branch.weight * F(quarters, 4)
        rest = branch.weight - first
        split = Game(
            "split",
            (Branch(branch.reward, first), Branch(branch.reward, rest))
            + game.branches[1:],
        )
        validate_game(split)
        assert expected_value(split) == expected_value(game)
        alphabet = RewardAlphabet.of(b.reward for b in game.branches)
        assert weight_vector(split, alphabet) == weight_vector(game, alphabet)

    @given(
        games(name="x"),
        games(name="y"),
        games(name="z"),
    )
    @settings(max_examples=60)
    def test_distance_is_a_pseudometric(self, x, y, z):
        alphabet = RewardAlphabet.of(REWARD_POOL)
        assert game_distance(x, x, alphabet) == F(0)
        assert game_distance(x, y, alphabet) == game_distance(y, x, alphabet)
        assert game_distance(x, z, alphabet) <= (
            game_distance(x, y, alphabet) + game_distance(y, z, alphabet)
        )


@given(games(name="g"))
def test_expected_value_matches_the_fraction_sum(game):
    assert expected_value(game) == sum(
        (b.weight * b.reward for b in game.branches), Fraction(0)
    )


# Reward literals over small numerators and denominators, each also written
# scaled up, so equal values arrive as distinct Fraction objects.
_REWARD_LITERALS = st.builds(
    lambda top, bottom, scale: as_rational(f"{top * scale}/{bottom * scale}"),
    st.integers(-6, 6),
    st.integers(1, 4),
    st.integers(1, 3),
)


@st.composite
def _support_games(draw):
    """Games of one to five support branches, with zero-weight branches
    whose rewards may lie beyond the support's own extremes."""
    support = draw(st.lists(_REWARD_LITERALS, min_size=1, max_size=5))
    size = len(support)
    parts = draw(st.lists(st.integers(1, 6), min_size=size, max_size=size))
    outside = st.sampled_from([F(-100), F(100), F(-201, 4), F(201, 4)])
    zeros = draw(st.lists(_REWARD_LITERALS | outside, max_size=3))
    branches = [Branch(r, F(p, sum(parts))) for r, p in zip(support, parts)]
    branches += [Branch(r, F(0)) for r in zeros]
    return Game("g", tuple(draw(st.permutations(branches))))


class TestSupportBounds:
    @given(_support_games())
    def test_bounds_are_min_and_max_over_the_support(self, game):
        rewards = [b.reward for b in game.branches if b.weight > 0]
        low, high = support_bounds(game)
        # The first smallest and first largest, as the branches hold them.
        assert low is min(rewards)
        assert high is max(rewards)
        assert summary(game) == (expected_value(game), low, high)
        assert largest_reward(game) is high

    @pytest.mark.parametrize(
        "branches, low, high",
        [
            (((F(-7, 3), 1),), F(-7, 3), F(-7, 3)),
            (((F(1), 0), (F(2), 1), (F(-5), 0)), F(2), F(2)),
            (((F(9), 0), (F(-1, 2), F(1, 2)), (F(3, 4), F(1, 2))), F(-1, 2), F(3, 4)),
            (
                ((F(1, 3), F(1, 3)), (F(-2, 6), F(1, 3)), (F(2, 6), F(1, 3))),
                F(-1, 3),
                F(1, 3),
            ),
        ],
    )
    def test_pinned_bounds(self, branches, low, high):
        game = Game.of("g", *branches)
        assert support_bounds(game) == (low, high)

    def test_equal_values_give_the_first_branch_holding_them(self):
        first, second = as_rational("1/2"), as_rational("2/4")
        assert first == second and first is not second
        game = Game("g", (Branch(first, F(1, 2)), Branch(second, F(1, 2))))
        low, high = support_bounds(game)
        assert low is first and high is first

    @pytest.mark.parametrize(
        "statistic",
        [support_bounds, summary, largest_reward],
    )
    @pytest.mark.parametrize(
        "branches",
        [(), (Branch(F(1), F(0)),), (Branch(F(1), F(0)), Branch(F(-1), F(0)))],
    )
    def test_empty_support_raises(self, statistic, branches):
        # Game refuses every game without support when built, so the
        # statistic never meets one.
        error = WeightSumError if branches else EmptyGameError
        with pytest.raises(error) as err:
            statistic(Game("empty", branches))
        assert str(err.value) == (
            "game 'empty': weights sum to 0, expected 1"
            if branches
            else "game 'empty' has no branches"
        )

    def test_statistics_build_and_compare_no_fraction(self, monkeypatch):
        # Mixed denominators, zero-weight branches beyond both support
        # extremes, and two equal but distinct rewards: a min() or max()
        # over Fractions would compare them, and a sum would build them.
        branches = (
            Branch(F(5, 3), F(1, 4)),
            Branch(F(1, 2), F(1, 4)),
            Branch(F(-7), F(0)),
            Branch(F(2, 4), F(1, 6)),
            Branch(F(9, 2), F(0)),
            Branch(F(-1, 6), F(1, 3)),
        )
        calls = {}
        for method in ("__new__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__"):

            def counting(*args, method=method, original=getattr(F, method)):
                calls[method] = calls.get(method, 0) + 1
                return original(*args)

            monkeypatch.setattr(F, method, counting)
        # Built while counting: the walk that validates it finds the terms.
        game = Game("g", branches)
        bounds = support_bounds(game)
        by_bounds = dict(calls)
        value = expected_value(game)
        by_value = {m: n - by_bounds.get(m, 0) for m, n in calls.items()}
        monkeypatch.undo()
        assert by_bounds == {}
        assert by_value == {"__new__": 1}
        assert bounds[0] is game.terms[2] and bounds[1] is game.terms[3]
        assert bounds == (F(-1, 6), F(5, 3))
        assert value == F(5, 12) + F(1, 8) + F(1, 12) - F(1, 18)


def reference_summary_terms(game):
    """The statistics walk that ``validate_game`` absorbed, kept as the oracle.

    Returns ``(numerator, denominator, low, high)`` as ``Game.terms`` does,
    but multiplies its running denominator by every branch's weight and
    reward denominators, so the expected value's terms grow with the
    branch count, and it reads the game's branches a second time.
    """
    numerator, denominator = 0, 1
    low = high = None
    for b in game.branches:
        top, bottom = b.reward.numerator, b.reward.denominator
        share, scale = b.weight.numerator, b.weight.denominator * bottom
        numerator = numerator * scale + share * top * denominator
        denominator *= scale
        if share <= 0:
            continue
        if low is None:
            low = high = b.reward
            least = most = top, bottom
        elif top * least[1] < least[0] * bottom:
            low, least = b.reward, (top, bottom)
        elif top * most[1] > most[0] * bottom:
            high, most = b.reward, (top, bottom)
    return numerator, denominator, low, high


@st.composite
def _framed_games(draw):
    """A support game with zero-weight branches added before and after it."""
    game = draw(_support_games())
    rewards = _REWARD_LITERALS | st.sampled_from([F(-9), F(9)])
    zeros = st.lists(st.builds(Branch, rewards, st.just(F(0))), max_size=2)
    return Game("g", (*draw(zeros), *game.branches, *draw(zeros)))


class TestStoredTerms:
    @given(_framed_games())
    def test_terms_are_the_reference_walk(self, game):
        numerator, denominator, low, high = game.terms
        reference = reference_summary_terms(game)
        assert F(numerator, denominator) == F(*reference[:2])
        # The very objects of the first branches holding each bound.
        assert low is reference[2] and high is reference[3]

    @given(games())
    def test_validate_game_returns_the_stored_terms(self, game):
        assert validate_game(game) == game.terms

    def test_equal_games_from_distinct_branches_are_equal(self):
        first = Game("g", (Branch(F(1, 2), F(1, 3)), Branch(F(2), F(2, 3))))
        second = Game("g", (Branch(F(2, 4), F(1, 3)), Branch(F(2), F(2, 3))))
        assert first.branches[0] is not second.branches[0]
        assert first == second and hash(first) == hash(second)

    def test_repr_leaves_the_terms_out(self):
        game = Game.of("g", (1, F(1, 2)), (-2, F(1, 2)))
        assert repr(game) == (
            "Game(name='g', branches=("
            "Branch(reward=Fraction(1, 1), weight=Fraction(1, 2)), "
            "Branch(reward=Fraction(-2, 1), weight=Fraction(1, 2))))"
        )

    def test_replace_recomputes_the_terms(self):
        renamed = dataclasses.replace(A, name="h")
        assert renamed.name == "h" and renamed == Game("h", A.branches)
        assert renamed.terms == A.terms == (5, 2, F(2), F(3))

    def test_long_game_keeps_its_weight_denominator(self):
        # One weight denominator n over n branches: the walk multiplies it
        # in once, where the reference's denominator is n**n.
        n = 300
        game = Game("long", tuple(Branch(F(i % 7), F(1, n)) for i in range(n)))
        assert game.terms == (sum(i % 7 for i in range(n)), n, F(0), F(6))
        assert reference_summary_terms(game)[1] == n**n

    def test_a_reward_without_an_integer_pair_fails_when_built(self):
        with pytest.raises(AttributeError):
            Game("g", (Branch(F(1), F(1, 2)), Branch(0.5, F(1, 2))))
