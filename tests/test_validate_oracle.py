"""Building a ``Game`` against the Fraction-sum validator it replaced.

``Game`` validates itself when built, by ``core.validate_game``, which
checks each weight's range on its numerator and denominator and sums the
weights in integers over a running common denominator.
``reference_validate_game`` below is the earlier validator, which
compared and added Fractions; it is kept as the oracle, and reads the
name and branches a game would be built from.  On the same inputs the
constructor and the reference must raise the same exception class with
the same message, or the game must be built and the reference accept it.
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
)
from conftest import games

F = Fraction


def reference_validate_game(name, branches) -> None:
    """The Fraction-arithmetic validator, as it was before the integer sum."""
    if not branches:
        raise EmptyGameError(f"game {name!r} has no branches")
    total = F(0)
    for b in branches:
        if b.weight < 0 or b.weight > 1:
            raise WeightRangeError(f"game {name!r}: weight {b.weight} outside [0, 1]")
        total += b.weight
    if total != 1:
        raise WeightSumError(f"game {name!r}: weights sum to {total}, expected 1")


def outcome(build, name, branches):
    """``None`` if ``build`` accepts the inputs, else its error's class and text."""
    try:
        build(name, branches)
    except Exception as exc:  # the class is part of what is compared
        return type(exc), str(exc)
    return None


def assert_same_verdict(name, branches):
    expected = outcome(reference_validate_game, name, branches)
    assert outcome(Game, name, branches) == expected
    return expected


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
            result = assert_same_verdict(
                "g", tuple(Branch(F(count), w) for w in weights)
            )
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
    return "g", tuple(Branch(F(r), w) for r, w in zip(rewards, drawn))


@st.composite
def nudged_games(draw):
    """A valid game with one weight replaced: a sum near but off 1, or a
    weight just outside [0, 1]."""
    game = draw(games())
    index = draw(st.integers(0, len(game.branches) - 1))
    branches = list(game.branches)
    branches[index] = Branch(branches[index].reward, draw(weights))
    return game.name, tuple(branches)


valid_games = games().map(lambda game: (game.name, game.branches))


@given(st.one_of(valid_games, arbitrary_games(), nudged_games()))
def test_agrees_with_the_reference_on_random_games(inputs):
    assert_same_verdict(*inputs)

