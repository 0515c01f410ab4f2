"""Rationality axiom checkers and the Dutch-book analyzer.

Two axioms are mechanized over the game model:

* Diachronic consistency ties an agent's ranking of two compound games to
  the branch-local rankings of the agent's descendants, who share the
  agent's kind.  The checker decides each scenario exactly, on summaries
  composed by ``agents.compose``, and returns a replayable witness on
  violation.

* Solution continuity demands that a strict preference survive all
  sufficiently small perturbations of either game.  A sampler cannot
  certify a claim that quantifies over every nearby game, so the checker
  is falsification-only: it reports ``violated`` when every probed radius
  admits a counterexample, and ``no_violation_found`` otherwise.

The Dutch-book analyzer combines games riding on one shared branching
event and asks whether an agent who accepts each part also accepts a
package that loses on every branch.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .agents import RULES, STATISTICS, Agent, Preference, compare, compose
from .core import (
    Branch,
    CompoundGame,
    EventMismatchError,
    Game,
    GameError,
    RewardAlphabet,
    combine_on_shared_event,
    flatten,
    game_distance,
    support_bounds,
    validate_game,
    weight_vector,
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

    def smallest_falsified(self) -> Optional[ContinuityLevel]:
        hit = None
        for level in self.levels:
            if level.falsified and (hit is None or level.delta < hit.delta):
                hit = level
        return hit


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

    The root is validated first, then every first option, then every
    second option, so an invalid game raises its own :class:`GameError`
    before anything is ranked.  Each option's partial summary
    (``agents.STATISTICS``) is read once; the descendants rank their pairs
    with ``agents.RULES``, and the agent ranks L against R on the
    summaries :func:`compose` builds from the root branches, without
    building either game.  Only a broken clause flattens L and R, for the
    witness.
    """
    root, options = scenario.root, scenario.options
    validate_game(root)
    for first, _ in options:
        validate_game(first)
    for _, second in options:
        validate_game(second)
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
    left = flatten(
        CompoundGame(root, tuple(first for first, _ in options)), "compound_first"
    )
    right = flatten(
        CompoundGame(root, tuple(second for _, second in options)), "compound_second"
    )
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


def _perturbations(
    game: Game,
    alphabet: RewardAlphabet,
    delta: Fraction,
    rng: random.Random,
    samples: int,
) -> list[Game]:
    """Candidate games within ``delta`` of ``game``, original first.

    Always includes every axis-aligned extreme move (shift min(delta, w_i)
    of weight from a support component i to another component j), then
    ``samples`` seeded random two-component moves.  All candidates stay on
    the alphabet and remain valid games.
    """
    vector = weight_vector(game, alphabet)
    size = len(vector)
    if size < 2:
        return [game]
    support = [i for i in range(size) if vector[i] > 0]
    # (label, from, to, amount) per move.
    moves = [
        (f"{i}->{j}", i, j, min(delta, vector[i]))
        for i in support
        for j in range(size)
        if j != i
    ]
    for s in range(samples):
        i = rng.choice(support)
        j = rng.choice([m for m in range(size) if m != i])
        amount = min(delta, vector[i]) * Fraction(rng.randint(1, 8), 8)
        moves.append((f"rand{s}", i, j, amount))
    candidates = [game]
    for label, i, j, amount in moves:
        moved = list(vector)
        moved[i] -= amount
        moved[j] += amount
        branches = tuple(Branch(r, w) for r, w in zip(alphabet.rewards, moved))
        candidates.append(Game(f"{game.name}[{label}@{delta}]", branches))
    return candidates


def _check_radius(
    game: Game, candidates: Sequence[Game], alphabet: RewardAlphabet, delta: Fraction
) -> None:
    # Every candidate moves at most delta of weight, so this never fires; a
    # candidate that did not would make a falsified radius meaningless.
    for candidate in candidates:
        distance = game_distance(game, candidate, alphabet)
        if distance > delta:
            raise RuntimeError(
                f"perturbation {candidate.name!r} lies {distance} from "
                f"{game.name!r}, outside the radius {delta}"
            )


def check_continuity(
    agent: Agent,
    left: Game,
    right: Game,
    alphabet: RewardAlphabet,
    deltas: Sequence[Fraction],
    samples_per_delta: int,
    seed: int,
) -> AxiomReport:
    """Probe whether the strict preference for ``left`` survives nearby games.

    Requires compare(agent, left, right) = PrefersLeft; the axiom only
    constrains strict preferences.  For each radius delta (given strictly
    decreasing) the checker tests perturbed pairs (left', right') with
    both games within delta of the originals; finding a pair the agent no
    longer strictly ranks falsifies that radius.  The verdict is
    ``violated`` only when every radius is falsified, and the witness
    records one counterexample per radius; otherwise the verdict is
    ``no_violation_found``.  Deterministic for a fixed seed.
    """
    validate_game(left)
    validate_game(right)
    if not deltas:
        raise ValueError("deltas must be a nonempty decreasing sequence")
    for d in deltas:
        if d <= 0:
            raise ValueError(f"delta {d} is not positive")
    if any(a <= b for a, b in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be strictly decreasing")
    if samples_per_delta < 1:
        raise ValueError("samples_per_delta must be at least 1")
    if compare(agent, left, right) is not Preference.PrefersLeft:
        raise NotStrictPreferenceError(
            f"agent {agent.name!r} does not strictly prefer {left.name!r} "
            f"to {right.name!r}"
        )

    statistics, rule = STATISTICS[agent.kind], RULES[agent.kind]
    levels = []
    for delta in deltas:
        # One RNG per radius, seeded by a stable string, so results do not
        # depend on process hash seeds or on which radii were probed before.
        rng = random.Random(f"{seed}:{delta}")
        left_candidates = _perturbations(
            left, alphabet, delta, rng, samples_per_delta
        )
        right_candidates = _perturbations(
            right, alphabet, delta, rng, samples_per_delta
        )
        _check_radius(left, left_candidates, alphabet, delta)
        _check_radius(right, right_candidates, alphabet, delta)
        # Each candidate's statistics once; the first pair in left-major
        # order that the agent no longer strictly ranks falsifies the radius.
        right_ranked = [(rp, statistics(rp)) for rp in right_candidates]
        pairs = (
            ContinuityLevel(delta, lp, rp, verdict)
            for lp, s in zip(left_candidates, map(statistics, left_candidates))
            for rp, t in right_ranked
            if (verdict := rule(s, t)) is not Preference.PrefersLeft
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
    name.  ``sure_loss`` holds when every support reward of the
    combined game is negative.  ``exposure`` requires the agent to accept
    each game strictly (preferred to null), to weakly accept the combined
    game, and sure_loss.  ``weak_exposure`` relaxes individual acceptance
    to weak preference, covering agents who are indifferent to everything.
    """
    if not games:
        raise ValueError("need at least one game")
    for g in games:
        validate_game(g)
    weights = [b.weight for b in games[0].branches]
    for g in games[1:]:
        if [b.weight for b in g.branches] != weights:
            raise EventMismatchError(
                f"{g.name!r} does not ride the same event as {games[0].name!r}"
            )
    null = Game("null", tuple(Branch(Fraction(0), w) for w in weights))

    combined = games[0]
    for g in games[1:]:
        combined = combine_on_shared_event(combined, g)

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
