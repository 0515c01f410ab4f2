"""Integer ranking against the ``Fraction`` paths it replaced.

``compare`` ranks two games on their ``terms``, each expected value put
over the pair's common denominator, and ``scaled_statistics`` puts each
field a kind reads over the lcm of its column's denominators straight
from the ``terms``.  Both used to build each game's ``STATISTICS``
partial summary in ``Fraction``s first; :func:`reference_compare` and
:func:`reference_scaled_statistics` keep those paths as oracles.
``compare`` must give the reference's verdict on every pair, and
``scaled_statistics`` the reference's ``RULES`` verdicts, its None
fields, and its equal/unequal pattern and order per field.  The compare
record's values and the branch texts of ``--machine`` records, written
from integers, must equal what ``str(Fraction)`` writes.  Checked under
hypothesis on negative and fractional rewards, zero-weight branches and
large coprime denominators, and exhaustively on a small grid.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from branchgames import AGENT_KINDS, Agent, Branch, Game
from branchgames.agents import RULES, STATISTICS, compare, scaled_statistics
from branchgames.cli import _compare_values, _GameJson
from branchgames.core import expected_value, scale_to_integers, support_bounds

F = Fraction
AGENTS = tuple(Agent.of(kind, kind) for kind in AGENT_KINDS)


def reference_compare(agent, left, right):
    """Rank two games on their ``STATISTICS`` partial summaries in Fractions."""
    statistics = STATISTICS[agent.kind]
    return RULES[agent.kind](statistics(left), statistics(right))


def reference_scaled_statistics(kind, games):
    """Each game's ``STATISTICS`` summary, each field scaled by ``scale_to_integers``."""
    parts = [STATISTICS[kind](game) for game in games]
    if not parts:
        return parts
    values, lows, highs = zip(*parts)
    bounds = scale_to_integers(lows + highs)
    return list(zip(scale_to_integers(values), bounds, bounds[len(parts) :]))


def _sign(x):
    return (x > 0) - (x < 0)


def assert_scaled_statistics_agree(kind, games):
    scaled = scaled_statistics(kind, games)
    reference = reference_scaled_statistics(kind, games)
    assert len(scaled) == len(reference) == len(games)
    for s, r in zip(scaled, reference):
        assert [f is None for f in s] == [f is None for f in r]
        assert all(type(f) is int for f in s if f is not None)
    rule = RULES[kind]
    for (s, r), (t, q) in itertools.product(zip(scaled, reference), repeat=2):
        assert rule(s, t) is rule(r, q)
        for field in range(3):
            if s[field] is not None:
                assert _sign(s[field] - t[field]) == _sign(r[field] - q[field])


# Denominators: small ones, and large primes, so that two rewards or two
# weights rarely share a factor and every lcm is a product.
_DENOMINATORS = (1, 2, 3, 4, 7, 10007, 65537, 2**31 - 1, 2**61 - 1)
_rewards = st.builds(
    F, st.integers(-(10**20), 10**20), st.sampled_from(_DENOMINATORS)
) | st.sampled_from([F(-3), F(-1, 2), F(0), F(1, 2), F(2), F(5)])


@st.composite
def wide_games(draw, name="g"):
    """A valid game whose weights take large coprime denominators.

    Each weight but the last is a drawn share of the weight still left,
    so weights may be zero and their denominators multiply; zero-weight
    branches may also be added anywhere.
    """
    count = draw(st.integers(1, 4))
    left, branches = F(1), []
    for _ in range(count - 1):
        bottom = draw(st.sampled_from(_DENOMINATORS))
        weight = left * F(draw(st.integers(0, bottom)), bottom)
        branches.append(Branch(draw(_rewards), weight))
        left -= weight
    branches.append(Branch(draw(_rewards), left))
    for _ in range(draw(st.integers(0, 2))):
        spot = draw(st.integers(0, len(branches)))
        branches.insert(spot, Branch(draw(_rewards), F(0)))
    return Game(name, tuple(branches))


@st.composite
def _related_pair(draw):
    """Two games, the second often tying the first on some statistic."""
    left = draw(wide_games("l"))
    how = draw(st.sampled_from(["free", "same", "shuffled", "same_value"]))
    if how == "free":
        return left, draw(wide_games("r"))
    if how == "same":
        return left, Game("r", left.branches)
    if how == "shuffled":
        return left, Game("r", tuple(draw(st.permutations(left.branches))))
    # A sure game paying the left game's expected value: same value, spread 0.
    return left, Game("r", (Branch(expected_value(left), F(1)),))


@given(st.sampled_from(AGENTS), _related_pair())
def test_compare_matches_the_reference(agent, pair):
    left, right = pair
    assert compare(agent, left, right) is reference_compare(agent, left, right)
    assert compare(agent, right, left) is reference_compare(agent, right, left)


@given(st.sampled_from(AGENT_KINDS), st.lists(wide_games(), max_size=6))
def test_scaled_statistics_match_the_reference(kind, games):
    assert_scaled_statistics_agree(kind, games)


@given(st.sampled_from(AGENT_KINDS), _related_pair())
def test_scaled_statistics_match_the_reference_on_close_pairs(kind, pair):
    assert_scaled_statistics_agree(kind, list(pair))


# Every game of one or two branches over these rewards and weights: halves
# on one end of a support and integers on the other, equal expected values
# at different spreads, and zero-weight branches on either side.
_GRID_REWARDS = (F(-1), F(0), F(1, 2), F(1), F(3, 2), F(2))
_GRID_WEIGHTS = (
    (F(1),),
    (F(0), F(1)),
    (F(1), F(0)),
    (F(1, 3), F(2, 3)),
    (F(1, 2), F(1, 2)),
)
_GRID = tuple(
    Game(f"g{i}", tuple(map(Branch, rewards, weights)))
    for i, (weights, rewards) in enumerate(
        (w, r)
        for w in _GRID_WEIGHTS
        for r in itertools.product(_GRID_REWARDS, repeat=len(w))
    )
)


@pytest.mark.parametrize("agent", AGENTS, ids=AGENT_KINDS)
def test_compare_matches_the_reference_on_every_grid_pair(agent):
    for left, right in itertools.product(_GRID, repeat=2):
        assert compare(agent, left, right) is reference_compare(agent, left, right)


@pytest.mark.parametrize("kind", AGENT_KINDS)
def test_scaled_statistics_match_the_reference_on_the_grid(kind):
    assert_scaled_statistics_agree(kind, _GRID)
    assert scaled_statistics(kind, ()) == [] == reference_scaled_statistics(kind, ())
    # Pairs too: the support mins of two games can need another common
    # denominator than their maxes, where the whole grid's columns share one.
    for pair in itertools.combinations(_GRID, 2):
        assert_scaled_statistics_agree(kind, pair)


def _reference_branch_text(branch):
    return f'{{"reward": "{str(branch.reward)}", "weight": "{str(branch.weight)}"}}'


def assert_texts_are_fraction_strings(game):
    value = expected_value(game)
    low, high = support_bounds(game)
    assert _compare_values(game) == (str(value), str(high), str(high - low))
    text = _GameJson()(game)
    branches = ", ".join(_reference_branch_text(b) for b in game.branches)
    assert text == f'{{"branches": [{branches}], "name": "{game.name}"}}'


@given(wide_games())
def test_compare_values_and_branch_texts_are_fraction_strings(game):
    assert_texts_are_fraction_strings(game)


def test_compare_values_and_branch_texts_on_the_grid():
    for game in _GRID:
        assert_texts_are_fraction_strings(game)
    # Integer rewards and weights, as ints, write no denominator.
    assert_texts_are_fraction_strings(Game("ints", (Branch(-2, 0), Branch(3, 1))))
