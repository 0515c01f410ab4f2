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
value, and the smallest and largest reward on its support.
:data:`RANK_KEYS` holds each kind's keys on such summaries, the larger
preferred and a later key read only on an exact tie; exact keys make
every kind a total preorder by construction.  :data:`RULES` holds the
rule each kind's keys make.  :func:`compare` ranks two games through it
on integer expected values: it reads both games' ``terms`` and puts the
two values over the common denominator of the pair, so it builds no
``Fraction``; the Dutch-book check ranks each game against its null game
through it.  The comparison matrix and the grid search read
:func:`scaled_statistics`, which puts every field a kind reads in
integers over a denominator shared by all the games, straight from their
``terms``; the matrix sorts the games by their key tuples.
:data:`STATISTICS` holds each kind's partial summary of one game, just
the fields its keys read, in ``Fraction``s; only the diachronic and
continuity checks read it.  All three statistics compose along branches,
and :func:`compose` is the one rule that does it: the diachronic check
ranks compounds on summaries it composes from their continuations'
partial summaries, the grid search folds arms by its rule for support
bounds, and the continuity check ranks perturbed games as compounds of
sure-zero continuations.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, itemgetter
from typing import Any, Callable, Optional, Sequence

from .core import Game, RationalLike, as_rational, expected_value, largest_reward


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
# A field that a kind's rule never reads may be None; stoic's are all None.
Summary = tuple


def summary(game: Game) -> Summary:
    """Every statistic any kind ranks by, for one valid game.

    The Fraction form of the game's ``terms``, which the CLI reads as
    integers.
    """
    numerator, denominator, low, high = game.terms
    return Fraction(numerator, denominator), low, high


_VALUE, _LOW, _HIGH = itemgetter(0), itemgetter(1), itemgetter(2)

# Each kind's rank keys on a summary, compared in order, larger preferred:
# a later key is read only on an exact tie of the earlier ones.
RANK_KEYS: dict[str, tuple[Callable[[Summary], Any], ...]] = {
    "dtbr": (_VALUE,),
    # On an exact expected-value tie the smaller spread wins.
    "egalitarian": (_VALUE, lambda s: s[1] - s[2]),
    "optimist": (_HIGH,),
    "stoic": (),
}


def _rule(keys: Sequence[Callable]) -> Callable[[Summary, Summary], Preference]:
    """The ranking rule that compares two summaries key by key."""
    # Bound once: reading a member off the enum class is a slow lookup.
    left_wins, right_wins = Preference.PrefersLeft, Preference.PrefersRight
    tie = Preference.Indifferent

    def rule(left: Summary, right: Summary) -> Preference:
        for key in keys:
            a, b = key(left), key(right)
            if a > b:
                return left_wins
            if a < b:
                return right_wins
        return tie

    return rule


# Each kind's ranking rule on two summaries.  Every ranking in the package
# goes through this table, or through RANK_KEYS directly.
RULES: dict[str, Callable[[Summary, Summary], Preference]] = {
    kind: _rule(keys) for kind, keys in RANK_KEYS.items()
}

# Per kind, the partial summary holding just the fields its rule reads.
STATISTICS: dict[str, Callable[[Game], Summary]] = {
    "dtbr": lambda game: (expected_value(game), None, None),
    "egalitarian": summary,
    "optimist": lambda game: (None, None, largest_reward(game)),
    "stoic": lambda game: (None, None, None),
}


# Per kind, the summary fields its rule reads: those its STATISTICS
# partial summary does not leave None.
_FIELDS = {"dtbr": (0,), "egalitarian": (0, 1, 2), "optimist": (2,), "stoic": ()}


def _over_lcm(pairs: Sequence[tuple[int, int]]) -> list[int]:
    """Each numerator/denominator pair's numerator over the lcm of them all."""
    common = math.lcm(*(bottom for _, bottom in pairs))
    return [top * (common // bottom) for top, bottom in pairs]


def scaled_statistics(kind: str, games: Sequence[Game]) -> list[Summary]:
    """Each game's ``STATISTICS[kind]`` partial summary, in integers.

    Read from the games' ``terms``, with no ``Fraction`` built.  Each
    field is one column across the games, put over the lcm of its
    denominators, so it becomes an integer; a field the kind does not
    read stays None.  The support min and max are one column and share
    one multiplier, because the egalitarian rule subtracts them.  A
    positive multiplier per field keeps every ``RULES`` verdict between
    the games and maps distinct values to distinct integers, so equal
    summaries stay equal and no others become so.
    """
    fields, terms = _FIELDS[kind], [game.terms for game in games]
    count = len(terms)
    values = lows = highs = [None] * count
    if 0 in fields:
        values = _over_lcm([t[:2] for t in terms])
    # A summary's support min and max are at terms[2] and terms[3].
    bounds = _over_lcm([t[i + 1].as_integer_ratio() for i in fields if i for t in terms])
    if 1 in fields:
        lows = bounds[:count]
    if 2 in fields:
        highs = bounds[len(bounds) - count :]
    return list(zip(values, lows, highs))


def compose(
    weights: Sequence[Any],
    rewards: Sequence[Any],
    parts: Sequence[Summary],
) -> Summary:
    """The partial summary of a compound, from its root branches.

    Root branch i has weight ``weights[i]`` and reward ``rewards[i]`` and
    continues into a game whose partial summary is ``parts[i]``.  With
    every root weight positive the compound has expected value
    sum_i w_i*(r_i + EV_i), support min min_i (r_i + lo_i) and support max
    max_i (r_i + hi_i), which is the summary of the game ``core.flatten``
    builds.  A field the parts leave None stays None, so a dtbr compound
    composes only its expected value and a stoic one composes nothing.
    """
    value, low, high = parts[0]
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
    """Rank two valid games under the agent's preference order.

    Ranks the games' ``terms`` through ``RULES``: each expected value
    a/b and c/d is put over b*d as the integer a*d or c*b, and the support
    bounds are the games' own, so no ``Fraction`` is built.
    """
    a, b, left_low, left_high = left.terms
    c, d, right_low, right_high = right.terms
    rule = RULES[agent.kind]
    return rule((a * d, left_low, left_high), (c * b, right_low, right_high))
