"""Rationality axiom checkers and the Dutch-book analyzer.

Two axioms are mechanized over the game model:

* Diachronic consistency ties an agent's ranking of two compound games to
  the branch-local rankings of the agent's descendants, who share the
  agent's kind.  The checker decides each scenario exactly, on summaries
  composed by ``agents.compose``, and returns a replayable witness on
  violation.

* Solution continuity demands that a strict preference survive all
  sufficiently small perturbations of either game.  Finitely many
  candidates cannot certify a claim about every nearby game, so the
  checker is falsification-only; it ranks each game and its extreme
  weight moves on composed summaries and builds games only for witnesses.

The Dutch-book analyzer combines games riding on one shared branching
event and asks whether an agent who accepts each part also accepts a
package that loses on every branch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Optional, Sequence

from .agents import RULES, STATISTICS, Agent, Preference, compare, compose
from .core import (
    Branch,
    EventMismatchError,
    Game,
    GameError,
    RewardAlphabet,
    flatten,
    game_distance,  # noqa: F401 - unused here; perfbench/tracing.py wraps it
    scale_to_integers,
    support_bounds,
    validate_game,  # noqa: F401 - unused here; perfbench/tracing.py wraps it
    weight_vector,  # noqa: F401 - unused here; perfbench/tracing.py wraps it
    weight_vectors,
)


class ScenarioError(GameError):
    """A diachronic scenario breaks its structural invariants."""


class NotStrictPreferenceError(GameError):
    """Continuity was asked about a pair the agent does not strictly rank."""


class Verdict(enum.Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    NO_VIOLATION_FOUND = "no_violation_found"


@dataclass(frozen=True)
class DiachronicScenario:
    """A root game plus, per root branch, the descendant's two options.

    Every root branch must carry positive weight: a weight-zero branch has
    no descendant, and letting one vote would manufacture spurious
    violations.
    """

    root: Game
    options: tuple[tuple[Game, Game], ...]

    def __post_init__(self) -> None:
        if len(self.options) != len(self.root.branches):
            raise ScenarioError(
                f"scenario on {self.root.name!r}: {len(self.root.branches)} root "
                f"branches but {len(self.options)} option pairs"
            )
        for b in self.root.branches:
            if b.weight <= 0:
                raise ScenarioError(
                    f"scenario on {self.root.name!r}: root branch with weight "
                    f"{b.weight} has no descendant"
                )


@dataclass(frozen=True)
class DiachronicWitness:
    """Everything needed to replay a diachronic verdict by hand.

    ``descendant_preferences[i]`` is the branch-i comparison of the first
    option against the second.  The two compounds are the flattened games
    the senior agent ranks; :func:`check_diachronic` ranks them on their
    composed summaries (``agents.compose``) and builds them only here, so
    ``compound_preference`` is what ``compare`` returns on them.
    """

    clause: str
    descendant_preferences: tuple[Preference, ...]
    strict_branches: tuple[int, ...]
    left_compound: Game
    right_compound: Game
    compound_preference: Preference


@dataclass(frozen=True)
class ContinuityLevel:
    """Outcome of probing one perturbation radius.

    The perturbed pair and its comparison are present exactly when a
    counterexample was found at this radius.
    """

    delta: Fraction
    left_perturbed: Optional[Game]
    right_perturbed: Optional[Game]
    preference: Optional[Preference]

    @property
    def falsified(self) -> bool:
        return self.preference is not None


@dataclass(frozen=True)
class ContinuityWitness:
    levels: tuple[ContinuityLevel, ...]


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    verdict: Verdict
    witness: object | None


def broken_clause(
    descendant: Sequence[Preference], forward: Preference
) -> Optional[str]:
    """The diachronic clause broken, if any, by these verdicts.

    ``descendant`` holds each branch's comparison of its first option
    against its second; ``forward`` compares the compound of first options
    against the compound of second options.  Clause i takes precedence.
    """
    if Preference.PrefersRight in descendant:
        return None
    if forward is Preference.PrefersRight:
        return "i"
    if Preference.PrefersLeft in descendant and forward is not Preference.PrefersLeft:
        return "ii"
    return None


def check_diachronic(agent: Agent, scenario: DiachronicScenario) -> AxiomReport:
    """Decide diachronic consistency for one agent and scenario.

    With descendant preferences p_i = compare(first_i, second_i) and the
    flattened compounds L (root followed by first options) and R (root
    followed by second options):

    * clause i: if no p_i is PrefersRight, the agent must not rank R
      strictly above L;
    * clause ii: if additionally some p_i is PrefersLeft, the agent must
      rank L strictly above R.

    Each option's partial summary (``agents.STATISTICS``) is read once;
    the descendants rank their pairs with ``agents.RULES``, and the agent
    ranks L against R on the summaries :func:`compose` builds from the
    root branches, without building either game.  Only a broken clause
    flattens L and R, for the witness.
    """
    root, options = scenario.root, scenario.options
    statistics, rule = STATISTICS[agent.kind], RULES[agent.kind]
    firsts = [statistics(first) for first, _ in options]
    seconds = [statistics(second) for _, second in options]
    descendant = tuple(map(rule, firsts, seconds))
    if Preference.PrefersRight in descendant:
        return AxiomReport("diachronic", Verdict.SATISFIED, None)

    weights = [b.weight for b in root.branches]
    rewards = [b.reward for b in root.branches]
    forward = rule(
        compose(weights, rewards, firsts), compose(weights, rewards, seconds)
    )
    clause = broken_clause(descendant, forward)
    if clause is None:
        return AxiomReport("diachronic", Verdict.SATISFIED, None)
    left = flatten(root, [first for first, _ in options], "compound_first")
    right = flatten(root, [second for _, second in options], "compound_second")
    witness = DiachronicWitness(
        clause=clause,
        descendant_preferences=descendant,
        strict_branches=tuple(
            i for i, p in enumerate(descendant) if p is Preference.PrefersLeft
        ),
        left_compound=left,
        right_compound=right,
        compound_preference=forward,
    )
    return AxiomReport("diachronic", Verdict.VIOLATED, witness)


def _moves(vector: list[int], limit: int) -> list[tuple[int, int, int]]:
    """Each extreme move (i, j, min(limit, v_i)) from a support entry i to j != i."""
    entries = range(len(vector))
    return [
        (i, j, min(limit, v)) for i, v in enumerate(vector) if v for j in entries if j != i
    ]


def check_continuity(
    agent: Agent,
    left: Game,
    right: Game,
    alphabet: RewardAlphabet,
    deltas: Sequence[Fraction],
) -> AxiomReport:
    """Probe whether the strict preference for ``left`` survives nearby games.

    Requires compare(agent, left, right) = PrefersLeft; the axiom only
    constrains strict preferences.  For each radius delta (given strictly
    decreasing) the checker tests perturbed pairs (left', right') with
    both games within delta of the originals; finding a pair the agent no
    longer strictly ranks falsifies that radius.  The verdict is
    ``violated`` only when every radius is falsified, and the witness
    records one counterexample per radius; otherwise the verdict is
    ``no_violation_found``.

    Candidates are the game and its :func:`_moves` extreme moves on integer
    weights over D (``core.weight_vectors``: the lcm of both games' branch
    weight denominators and the radii), kept within delta × D and [0, D]
    and ranked in left-major order on ``agents.compose`` summaries; games
    are built, and named, only for each radius's first falsifying pair.  A
    smaller move from entry i to j lies between the game and the extreme move
    from i to j; where it leaves a pair not strictly ranked, so does one of them:

    * dtbr, egalitarian: expected value is linear in the amount moved and,
      as alphabet rewards are distinct, strictly monotone; so one end ranks
      the pair no better, and an exact tie inside, which the egalitarian
      settles by spread, is a strict loss at one end.
    * optimist: on the left the extreme move's support lies within the
      smaller move's, so its support max is no larger; on the right the
      game or the extreme move to j reaches the smaller move's support max.
    * stoic: refused with ``NotStrictPreferenceError`` before any ranking.
    """
    if not deltas:
        raise ValueError("deltas must be a nonempty decreasing sequence")
    for d in deltas:
        if d <= 0:
            raise ValueError(f"delta {d} is not positive")
    if any(a <= b for a, b in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be strictly decreasing")
    if compare(agent, left, right) is not Preference.PrefersLeft:
        raise NotStrictPreferenceError(
            f"agent {agent.name!r} does not strictly prefer {left.name!r} "
            f"to {right.name!r}"
        )

    statistics, rule = STATISTICS[agent.kind], RULES[agent.kind]
    scale, vectors = weight_vectors(
        (left, right), alphabet, *(d.denominator for d in deltas)
    )
    # Over its support a candidate is a compound of sure-zero continuations,
    # whose partial summary holds 0 in each field the rule reads.
    rewards = scale_to_integers(alphabet.rewards)
    zeros = [tuple(None if x is None else 0 for x in statistics(left))] * len(rewards)

    def ranked(move: Optional[tuple], weights: list[int]) -> tuple:
        support = list(filter(None, weights)), list(compress(rewards, weights))
        return move, weights, compose(*support, zeros)

    def built(game: Game, delta: Fraction, move: Optional[tuple], weights) -> Game:
        if move is None:
            return game
        branches = map(Branch, alphabet, (Fraction(w, scale) for w in weights))
        return Game(f"{game.name}[{move[0]}->{move[1]}@{delta}]", tuple(branches))

    levels = []
    for delta in deltas:
        limit = delta.numerator * (scale // delta.denominator)
        sides = []
        for game, vector in zip((left, right), vectors):
            side = [ranked(None, vector)]
            for i, j, amount in _moves(vector, limit):
                # Never fires; a stray would make a falsified radius meaningless.
                if not 0 <= amount <= min(limit, vector[i], scale - vector[j]):
                    name = f"{game.name}[{i}->{j}@{delta}]"
                    stray = f"perturbation {name!r} moves {Fraction(amount, scale)}"
                    raise RuntimeError(f"{stray}, outside the radius {delta} or [0, 1]")
                moved = list(vector)
                moved[i] -= amount
                moved[j] += amount
                side.append(ranked((i, j), moved))
            sides.append(side)
        # The first pair in left-major order that the agent no longer
        # strictly ranks falsifies the radius.
        pairs = (
            ContinuityLevel(
                delta, built(left, delta, *lc[:2]), built(right, delta, *rc[:2]), verdict
            )
            for lc in sides[0]
            for rc in sides[1]
            if (verdict := rule(lc[2], rc[2])) is not Preference.PrefersLeft
        )
        levels.append(next(pairs, ContinuityLevel(delta, None, None, None)))

    witness = ContinuityWitness(tuple(levels))
    if all(level.falsified for level in levels):
        return AxiomReport("continuity", Verdict.VIOLATED, witness)
    return AxiomReport("continuity", Verdict.NO_VIOLATION_FOUND, witness)


@dataclass(frozen=True)
class DutchBookReport:
    """Verdicts for a package of games riding on one branching event."""

    individual_preferences: tuple[Preference, ...]
    combined: Game
    null: Game
    combined_preference: Preference
    sure_loss: bool
    exposure: bool
    weak_exposure: bool


def analyze_dutch_book(agent: Agent, games: Sequence[Game]) -> DutchBookReport:
    """Check whether accepting every game in the package is a sure loss.

    All games must share one branching event (identical weight lists).
    Each game is ranked against ``null``, built to pay 0 on every branch
    of that event; any other such game would differ from it only in its
    name.  The combined game, named by joining the games' names with
    ``+``, pays on each branch the sum of the games' rewards at the shared
    weight.  ``sure_loss`` holds when every support reward of the
    combined game is negative.  ``exposure`` requires the agent to accept
    each game strictly (preferred to null), to weakly accept the combined
    game, and sure_loss.  ``weak_exposure`` relaxes individual acceptance
    to weak preference, covering agents who are indifferent to everything.
    """
    if not games:
        raise ValueError("need at least one game")
    weights = [b.weight for b in games[0].branches]
    for g in games[1:]:
        if [b.weight for b in g.branches] != weights:
            raise EventMismatchError(
                f"{g.name!r} does not ride the same event as {games[0].name!r}"
            )
    null = Game("null", tuple(Branch(Fraction(0), w) for w in weights))

    columns = zip(*(g.branches for g in games))
    combined = Game(
        "+".join(g.name for g in games),
        tuple(Branch(sum(b.reward for b in c), w) for c, w in zip(columns, weights)),
    )

    statistics, rule = STATISTICS[agent.kind], RULES[agent.kind]
    null_statistics = statistics(null)
    individual = tuple(rule(statistics(g), null_statistics) for g in games)
    combined_pref = rule(statistics(combined), null_statistics)
    sure_loss = support_bounds(combined)[1] < 0
    accepts_each = all(p is Preference.PrefersLeft for p in individual)
    weakly_accepts_each = all(p is not Preference.PrefersRight for p in individual)
    accepts_package = combined_pref is not Preference.PrefersRight
    return DutchBookReport(
        individual_preferences=individual,
        combined=combined,
        null=null,
        combined_preference=combined_pref,
        sure_loss=sure_loss,
        exposure=accepts_each and accepts_package and sure_loss,
        weak_exposure=weakly_accepts_each and accepts_package and sure_loss,
    )
