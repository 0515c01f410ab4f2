"""Exact model of branching games.

A game is a finite branching event with a monetary reward attached to each
outcome branch, and a weight on each branch.  All numbers are exact
rationals (``fractions.Fraction``): the preference orders built on top of
this module turn on exact ties, which floating point would corrupt.

Composition follows a single rule: rewards add along a path, weights
multiply.  Zero-weight branches are legal and preserved as written, because
an agent may care about the difference between "an outcome with weight zero"
and "an outcome not listed at all".  The *support* of a game is the set of
branches with strictly positive weight.  A ``Game`` validates itself when
built, so every game is valid and its support is never empty.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

RationalLike = Union[Fraction, int, str]

_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


class GameError(Exception):
    """Base class for structural errors in games and their combinations."""


class EmptyGameError(GameError):
    """A game has no branches."""


class WeightRangeError(GameError):
    """A branch weight lies outside [0, 1]."""


class WeightSumError(GameError):
    """Branch weights do not sum exactly to 1."""


class EventMismatchError(GameError):
    """Games claimed to share one branching event have different weights."""


class AlphabetMismatchError(GameError):
    """A reward does not belong to the reward alphabet in use."""


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, ``p/q`` string, or Fraction to an exact rational.

    String literals follow the scenario-file grammar: an optional minus
    sign, ASCII digits, and an optional ``/posint`` suffix.  Decimal and float
    forms are rejected; they would smuggle binary-float ambiguity into an
    exact model.
    """
    if isinstance(value, str):
        if not _RATIONAL_RE.fullmatch(value):
            raise ValueError(f"expected a rational like 3 or 1/2, got {value!r}")
        numerator, slash, denominator = value.partition("/")
        if slash:
            bottom = int(denominator)
            if bottom == 0:
                raise ValueError(f"zero denominator in {value!r}")
            return Fraction(int(numerator), bottom)
        return Fraction(int(numerator))
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


@dataclass(frozen=True, slots=True)
class Branch:
    """One outcome of a game: a reward and the weight of its branch."""

    reward: Fraction
    weight: Fraction


@dataclass(frozen=True, slots=True)
class Game:
    """A finite branching event with a reward attached to each outcome.

    Every game is valid from the moment it exists: the constructor calls
    :func:`validate_game`, so a game with no branches, a weight outside
    [0, 1] or weights not summing exactly to 1 raises its own
    :class:`GameError` subclass instead of being built.  Zero-weight
    branches are kept as written rather than normalised away.  The
    ``terms`` that call returns are kept on the game; they take no part in
    equality, hashing or ``repr``.
    """

    name: str
    branches: tuple[Branch, ...]
    terms: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", validate_game(self))

    @classmethod
    def of(cls, name: str, *branches: tuple[RationalLike, RationalLike]) -> "Game":
        """Build a game from ``(reward, weight)`` pairs."""
        return cls(
            name,
            tuple(Branch(as_rational(r), as_rational(w)) for r, w in branches),
        )

    def __str__(self) -> str:
        inner = ", ".join(f"{b.reward}@{b.weight}" for b in self.branches)
        return f"{self.name}{{{inner}}}"


@dataclass(frozen=True)
class RewardAlphabet:
    """The ordered set of reward values a family of games may mention.

    Fixes the coordinate system for weight vectors, and with them the
    distance between games and the unknowns of a utility fit.  Each reward's
    position is looked up in a table keyed by its integer pair (numerator,
    denominator), built once per alphabet: hashing two integers is cheaper
    than comparing or hashing ``Fraction``s.  The table takes no part in
    equality, hashing or ``repr``.
    """

    rewards: tuple[Fraction, ...]
    _positions: dict[tuple[int, int], int] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not self.rewards:
            raise ValueError("alphabet must contain at least one reward")
        if any(a >= b for a, b in zip(self.rewards, self.rewards[1:])):
            raise ValueError("alphabet rewards must be strictly increasing")
        positions = {
            (r.numerator, r.denominator): i for i, r in enumerate(self.rewards)
        }
        object.__setattr__(self, "_positions", positions)

    @classmethod
    def of(cls, values: Iterable[RationalLike]) -> "RewardAlphabet":
        return cls(tuple(sorted({as_rational(v) for v in values})))

    def index(self, reward: Fraction) -> int:
        try:
            return self._positions[reward.numerator, reward.denominator]
        except (KeyError, AttributeError):
            raise AlphabetMismatchError(
                f"reward {reward} not in alphabet {self}"
            ) from None

    def __contains__(self, reward: object) -> bool:
        """Whether ``index`` finds ``reward``.

        Reads the same table, so a value without ``numerator`` and
        ``denominator``, such as a float or a string, is never a member.
        """
        try:
            return (reward.numerator, reward.denominator) in self._positions
        except AttributeError:
            return False

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.rewards)

    def __len__(self) -> int:
        return len(self.rewards)

    def __str__(self) -> str:
        return "{" + ", ".join(str(r) for r in self.rewards) + "}"


def validate_game(game: Game) -> tuple[int, int, Fraction, Fraction]:
    """Check the game invariants and summarize the game, in one walk.

    A valid game has at least one branch, every weight in [0, 1], and
    weights summing exactly to 1; otherwise a :class:`GameError` subclass
    is raised.  A valid game's terms are ``(numerator, denominator, low,
    high)``: its expected value is numerator/denominator, not reduced, so
    whoever reads it reduces it once; low and high are the first smallest
    and first largest support reward, as the branches hold them.  Weights
    are summed and rewards compared as integer pairs: a Fraction is built
    only to word an error.  Each running denominator is multiplied only by
    a new denominator it is not already a multiple of.
    """
    if not game.branches:
        raise EmptyGameError(f"game {game.name!r} has no branches")
    total, common = 0, 1
    numerator, denominator = 0, 1
    low = high = None
    for b in game.branches:
        share, bottom = b.weight.numerator, b.weight.denominator
        if share < 0 or share > bottom:
            raise WeightRangeError(
                f"game {game.name!r}: weight {b.weight} outside [0, 1]"
            )
        if common % bottom:
            total = total * bottom + share * common
            common *= bottom
        else:
            total += share * (common // bottom)
        top, scale = b.reward.numerator, b.reward.denominator
        if not share:
            continue
        step = bottom * scale
        if denominator % step:
            numerator = numerator * step + share * top * denominator
            denominator *= step
        else:
            numerator += share * top * (denominator // step)
        if low is None:
            low = high = b.reward
            least = most = top, scale
        elif top * least[1] < least[0] * scale:
            low, least = b.reward, (top, scale)
        elif top * most[1] > most[0] * scale:
            high, most = b.reward, (top, scale)
    if total != common:
        total = Fraction(total, common)
        raise WeightSumError(f"game {game.name!r}: weights sum to {total}, expected 1")
    return numerator, denominator, low, high


def expected_value(game: Game) -> Fraction:
    """Weight-weighted sum of rewards; zero-weight branches contribute nothing."""
    return Fraction(*game.terms[:2])


def support_bounds(game: Game) -> tuple[Fraction, Fraction]:
    """The first smallest and first largest reward on the support."""
    return game.terms[2:]


def largest_reward(game: Game) -> Fraction:
    """Largest reward on the support (branches with weight > 0 only)."""
    return support_bounds(game)[1]


def flatten(
    root: Game, continuations: Sequence[Game], name: str | None = None
) -> Game:
    """Collapse a root game plus one continuation per root branch into one game.

    Produces one branch per (root branch i, continuation branch j) pair
    with reward ``root_i + cont_j`` and weight ``root_i * cont_j``.  The
    root and every continuation are valid games, so the result is one:
    each product lies in [0, 1], and continuation i's products sum to
    ``root_i``, so all of them sum to 1.  Raises ``ValueError`` unless
    there is exactly one continuation per root branch.
    """
    if len(continuations) != len(root.branches):
        raise ValueError(
            f"compound on {root.name!r}: {len(root.branches)} root "
            f"branches but {len(continuations)} continuations"
        )
    branches = tuple(
        Branch(r.reward + b.reward, r.weight * b.weight)
        for r, cont in zip(root.branches, continuations)
        for b in cont.branches
    )
    return Game(name if name is not None else f"{root.name}*", branches)


def scale_to_integers(values: Sequence[Optional[Fraction]]) -> list[Optional[int]]:
    """The values times the lcm of their denominators; a None stays None."""
    common = math.lcm(*(v.denominator for v in values if v is not None))
    return [
        None if v is None else v.numerator * (common // v.denominator) for v in values
    ]


def weight_vectors(
    games: Sequence[Game], alphabet: RewardAlphabet, *denominators: int
) -> tuple[int, list[list[int]]]:
    """Each game's total weight per alphabet reward, in integers over D.

    Returns ``(D, vectors)``: D is the lcm of every branch-weight
    denominator and of ``denominators``, and a branch of weight w adds w*D
    at its reward's alphabet index.  Raises :class:`AlphabetMismatchError`
    at the first reward outside the alphabet, zero-weight branches included.
    """
    common = math.lcm(
        *denominators, *(b.weight.denominator for g in games for b in g.branches)
    )
    vectors = []
    for g in games:
        vector = [0] * len(alphabet)
        for b in g.branches:
            w = b.weight
            vector[alphabet.index(b.reward)] += w.numerator * (common // w.denominator)
        vectors.append(vector)
    return common, vectors


def weight_vector(game: Game, alphabet: RewardAlphabet) -> tuple[Fraction, ...]:
    """Total weight per alphabet reward: :func:`weight_vectors` as ``Fraction``s."""
    common, (vector,) = weight_vectors((game,), alphabet)
    return tuple(Fraction(w, common) for w in vector)


def game_distance(first: Game, second: Game, alphabet: RewardAlphabet) -> Fraction:
    """Largest componentwise gap between the two games' weight vectors.

    A pseudometric: games differing only by branch order, or by splitting
    a branch into equal-reward pieces, are at distance 0.
    """
    v = weight_vector(first, alphabet)
    w = weight_vector(second, alphabet)
    return max(abs(a - b) for a, b in zip(v, w))
