"""``validate_game`` against the Fraction-sum validator it replaced.

``core.validate_game`` checks each weight's range on its numerator and
denominator and sums the weights in integers over a running common
denominator.  ``reference_validate_game`` below is the earlier version,
which compared and added Fractions; it is kept unchanged as the oracle.
Both must raise the same exception class with the same message, or both
must accept the game.
"""

import itertools
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from branchgames import (
    Branch,
    EmptyGameError,
    Game,
    WeightRangeError,
    WeightSumError,
    validate_game,
)
from conftest import games

F = Fraction


def reference_validate_game(game: Game) -> None:
    """The Fraction-arithmetic validator, as it was before the integer sum."""
    if not game.branches:
        raise EmptyGameError(f"game {game.name!r} has no branches")
    total = F(0)
    for b in game.branches:
        if b.weight < 0 or b.weight > 1:
            raise WeightRangeError(
                f"game {game.name!r}: weight {b.weight} outside [0, 1]"
            )
        total += b.weight
    if total != 1:
        raise WeightSumError(
            f"game {game.name!r}: weights sum to {total}, expected 1"
        )


def outcome(validate, game):
    """``None`` if ``validate`` accepts the game, else its error's class and text."""
    try:
        validate(game)
    except Exception as exc:  # the class is part of what is compared
        return type(exc), str(exc)
    return None


def assert_same_verdict(game):
    assert outcome(validate_game, game) == outcome(reference_validate_game, game)


# Negative, zero, in-range, above-one, and int as well as Fraction weights.
GRID_WEIGHTS = (
    -1,
    F(-1, 2),
    0,
    F(0),
    F(1, 3),
    F(1, 2),
    F(2, 3),
    1,
    F(1),
    F(3, 2),
    2,
)


def test_every_game_of_up_to_three_branches_on_the_grid():
    checked = 0
    verdicts = set()
    for count in range(4):
        for weights in itertools.product(GRID_WEIGHTS, repeat=count):
            game = Game("g", tuple(Branch(F(count), w) for w in weights))
            assert_same_verdict(game)
            result = outcome(reference_validate_game, game)
            verdicts.add(None if result is None else result[0])
            checked += 1
    assert checked == 1 + 11 + 11**2 + 11**3
    # The grid reaches every verdict.
    assert verdicts == {None, EmptyGameError, WeightRangeError, WeightSumError}


weights = st.one_of(
    st.integers(-2, 3),
    st.fractions(min_value=-1, max_value=2, max_denominator=12),
)


@st.composite
def arbitrary_games(draw):
    """Any weights at all, including none."""
    drawn = draw(st.lists(weights, max_size=5))
    size = len(drawn)
    rewards = draw(st.lists(st.integers(-3, 5), min_size=size, max_size=size))
    return Game("g", tuple(Branch(F(r), w) for r, w in zip(rewards, drawn)))


@st.composite
def nudged_games(draw):
    """A valid game with one weight replaced: a sum near but off 1, or a
    weight just outside [0, 1]."""
    game = draw(games())
    index = draw(st.integers(0, len(game.branches) - 1))
    branches = list(game.branches)
    branches[index] = Branch(branches[index].reward, draw(weights))
    return Game(game.name, tuple(branches))


@given(st.one_of(games(), arbitrary_games(), nudged_games()))
def test_agrees_with_the_reference_on_random_games(game):
    assert_same_verdict(game)

