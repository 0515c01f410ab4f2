"""Agent preference orders over branching games.

Each agent kind defines a total preorder on valid games via
:func:`compare`.  Four kinds are provided:

* ``dtbr`` ranks games by expected value, the weight-weighted mean reward.
* ``egalitarian`` ranks by expected value first and breaks exact ties in
  favour of the smaller support reward spread.
* ``optimist`` ranks by the largest reward on the support and does not
  resolve ties among games sharing that largest reward.
* ``stoic`` is indifferent between all games.  Its ``max_reward`` bound is
  descriptive only (the reward scale is taken as capped at that value); no
  comparison depends on it.

Every kind ranks by at most three statistics of a game: its expected
value, and the smallest and largest reward on its support.  :data:`RULES`
holds each kind's rule on such summaries, and :data:`STATISTICS` each
kind's partial summary of one game: just the fields its rule reads.
:func:`compare` ranks two games through both tables.  Callers that rank
several games read each game's statistics once and then rank with
``RULES``: the Dutch-book check reads ``STATISTICS``, and the comparison
matrix and the grid search read :func:`scaled_statistics`, which puts
every field in integers over a denominator shared by all the games with
``core.scale_to_integers``, so their rules compare integers instead of
``Fraction``s.  All three statistics compose along branches, and
:func:`compose` is the one rule that does it: the diachronic check ranks
compounds on summaries it composes from their continuations' partial
summaries, the grid search folds arms by its rule for support bounds, and
the continuity check ranks perturbed games as compounds of sure-zero
continuations.  Comparisons return one of three verdicts and never raise
on valid input, so every kind is a total preorder by construction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from operator import add, itemgetter
from typing import Any, Callable, Optional, Sequence

from .core import (
    Game,
    RationalLike,
    as_rational,
    expected_value,
    largest_reward,
    scale_to_integers,
    summary_terms,
)


class Preference(enum.Enum):
    """Outcome of comparing a left game against a right game."""

    PrefersLeft = "PrefersLeft"
    PrefersRight = "PrefersRight"
    Indifferent = "Indifferent"

    def flipped(self) -> "Preference":
        if self is Preference.PrefersLeft:
            return Preference.PrefersRight
        if self is Preference.PrefersRight:
            return Preference.PrefersLeft
        return Preference.Indifferent


AGENT_KINDS = ("dtbr", "egalitarian", "optimist", "stoic")


@dataclass(frozen=True)
class Agent:
    """A named preference order of one of the four supported kinds."""

    name: str
    kind: str
    max_reward: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if self.kind not in AGENT_KINDS:
            raise ValueError(
                f"unknown agent kind {self.kind!r}; expected one of {AGENT_KINDS}"
            )
        if self.max_reward is not None and self.kind != "stoic":
            raise ValueError(f"max_reward only applies to stoic agents, not {self.kind}")

    @classmethod
    def of(cls, name: str, kind: str, max_reward: RationalLike | None = None) -> "Agent":
        bound = as_rational(max_reward) if max_reward is not None else None
        return cls(name, kind, bound)


# (expected value, support min, support max).  Any exact ordered numbers
# will do: Fractions, or integers scaled by one positive factor per field,
# with the min and max sharing theirs.
# A field that a kind's rule never reads may be None.
Summary = tuple


def summary(game: Game) -> Summary:
    """Every statistic any kind ranks by, for one valid game.

    The Fraction form of :func:`core.summary_terms`, which the CLI reads
    as integers.
    """
    numerator, denominator, low, high = summary_terms(game)
    return Fraction(numerator, denominator), low, high


def _order(left: object, right: object) -> Preference:
    """The verdict when a larger statistic is better."""
    if left > right:
        return Preference.PrefersLeft
    if left < right:
        return Preference.PrefersRight
    return Preference.Indifferent


def _by_value(left: Summary, right: Summary) -> Preference:
    return _order(left[0], right[0])


def _by_value_then_spread(left: Summary, right: Summary) -> Preference:
    by_value = _order(left[0], right[0])
    if by_value is not Preference.Indifferent:
        return by_value
    # On an exact expected-value tie the smaller spread wins.
    return _order(right[2] - right[1], left[2] - left[1])


def _by_best(left: Summary, right: Summary) -> Preference:
    return _order(left[2], right[2])


def _indifferent(left: Summary, right: Summary) -> Preference:
    return Preference.Indifferent


# Each kind's ranking rule on two summaries.  Every ranking in the package
# goes through this table.
RULES: dict[str, Callable[[Summary, Summary], Preference]] = {
    "dtbr": _by_value,
    "egalitarian": _by_value_then_spread,
    "optimist": _by_best,
    "stoic": _indifferent,
}

# Per kind, the partial summary holding just the fields its rule reads.
STATISTICS: dict[str, Callable[[Game], Optional[Summary]]] = {
    "dtbr": lambda game: (expected_value(game), None, None),
    "egalitarian": summary,
    "optimist": lambda game: (None, None, largest_reward(game)),
    "stoic": lambda game: None,
}


def scaled_statistics(kind: str, games: Sequence[Game]) -> list[Optional[Summary]]:
    """Each game's ``STATISTICS[kind]`` partial summary, in integers.

    Each field is one ``core.scale_to_integers`` column across the games,
    so it becomes an integer.  The support min and max are one column and
    share one multiplier, because the egalitarian rule subtracts them.  A
    positive multiplier per field keeps every ``RULES`` verdict between the
    games and maps distinct values to distinct integers, so equal summaries
    stay equal and no others become so.
    """
    parts = [STATISTICS[kind](game) for game in games]
    if not parts or parts[0] is None:
        return parts
    values, lows, highs = zip(*parts)
    bounds = scale_to_integers(lows + highs)
    return list(zip(scale_to_integers(values), bounds, bounds[len(parts) :]))


_LOW, _HIGH = itemgetter(1), itemgetter(2)


def compose(
    weights: Sequence[Any],
    rewards: Sequence[Any],
    parts: Sequence[Optional[Summary]],
) -> Optional[Summary]:
    """The partial summary of a compound, from its root branches.

    Root branch i has weight ``weights[i]`` and reward ``rewards[i]`` and
    continues into a game whose partial summary is ``parts[i]``.  With
    every root weight positive the compound has expected value
    sum_i w_i*(r_i + EV_i), support min min_i (r_i + lo_i) and support max
    max_i (r_i + hi_i), which is the summary of the game ``core.flatten``
    builds.  A field the parts leave None stays None, so a stoic compound
    composes to None and a dtbr one composes only its expected value.
    """
    shape = parts[0]
    if shape is None:
        return None
    value, low, high = shape
    # check_diachronic calls this for both compounds of every scenario it
    # decides: a plain loop and maps over operator functions are its
    # fastest forms here.
    if value is not None:
        value = 0
        for w, r, p in zip(weights, rewards, parts):
            value += w * (r + p[0])
    if low is not None:
        low = min(map(add, rewards, map(_LOW, parts)))
    if high is not None:
        high = max(map(add, rewards, map(_HIGH, parts)))
    return value, low, high


def compare(agent: Agent, left: Game, right: Game) -> Preference:
    """Rank two valid games under the agent's preference order."""
    statistics = STATISTICS[agent.kind]
    return RULES[agent.kind](statistics(left), statistics(right))


def strictly_prefers(agent: Agent, left: Game, right: Game) -> bool:
    return compare(agent, left, right) is Preference.PrefersLeft


def weakly_prefers(agent: Agent, left: Game, right: Game) -> bool:
    return compare(agent, left, right) is not Preference.PrefersRight
