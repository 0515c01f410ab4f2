"""Exhaustive enumeration of small diachronic scenario spaces.

The grid fixes a reward menu and a weight menu; every game whose weights
come from the menu and sum exactly to 1 is in play.  Root-branch rewards
are pinned to 0 throughout: adding the same root reward to both compounds
shifts their expected values equally and their reward ranges not at all,
so it can neither create nor destroy a violation, and dropping that axis
shrinks the space substantially.

Enumeration order is documented and stable, which makes runs reproducible
and lets a returned violation be identified by its index:

* scenarios are grouped by root branch count, ascending;
* within a group, root weight tuples follow menu product order (rightmost
  position varies fastest);
* the 2k option slots (first_1, second_1, ..., first_k, second_k) then run
  through the option-game pool in odometer order, last slot fastest;
* the option pool itself lists games by branch count ascending, then
  weight tuple, then reward tuple, in the same product order.

The search builds no game for a scenario it rejects.  Every kind ranks by
expected value, support min and support max, and ``agents.compose`` is the
one rule that composes them along branches, here with every root reward 0:
with positive root weights w_i over continuations c_i, the compound has
expected value sum_i w_i*EV(c_i), support min min_i lo(c_i) and support max
max_i hi(c_i).  :func:`check_diachronic` ranks its compounds by the same
rule.  Call a root branch's pair of options an arm.  A scenario's verdict
depends only on its root weights and, per arm, on the fields of the two
summaries that the kind's rule reads: the kind's partial summary,
``agents.STATISTICS``.  So :func:`find_violation` groups the pool games by
that partial summary and the arms by their pair of game classes, and
decides each tuple of arm classes once, on the partial summaries of the
class's first arm in odometer order (as integers over a pool-wide
denominator), so the work grows with the class tuples, not with the
stream.  A class whose descendant prefers its second option is dropped,
because no clause binds on such a scenario.

Within a root group of k branches over A arms, the scenario with arms
a_1..a_k has index sum_i a_i*A^(k-i), which rises with each slot on its
own.  Class tuples walked in product order, classes sorted by first arm,
put those first arms in lexicographic order; so the first violating tuple,
each slot at its class's first arm, is the group's first violating
scenario.  Only that scenario is built, and :func:`check_diachronic`
replays it for the witness.

The projected scenario count is computed in polynomial time, from
partial-sum counts of the weight tuples, and checked against a cap before
any scenario is built; set BRANCHGAMES_SCENARIO_CAP to raise or lower it.
The cap bounds the projected stream, not the class tuples decided.
No tuple longer than 1 / (least menu weight) sums to 1, so every walk over
tuple lengths stops there, whatever the branch limits.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .agents import (
    RULES,
    STATISTICS,
    Agent,
    Preference,
    Summary,
    compose,
    summary,
)
from .axioms import (
    AxiomReport,
    DiachronicScenario,
    Verdict,
    broken_clause,
    check_diachronic,
)
from .core import Branch, Game, GameError, RationalLike, as_rational, scale_to_integers

DEFAULT_SCENARIO_CAP = 2_000_000
CAP_ENV_VAR = "BRANCHGAMES_SCENARIO_CAP"


class GridTooLargeError(GameError):
    """The grid would enumerate more scenarios than the configured cap."""


@dataclass(frozen=True)
class GridSpec:
    """Menus and size limits defining one enumeration space."""

    reward_grid: tuple[Fraction, ...]
    weight_grid: tuple[Fraction, ...]
    max_root_branches: int
    max_option_branches: int

    def __post_init__(self) -> None:
        if not self.reward_grid:
            raise ValueError("reward grid is empty")
        if not self.weight_grid:
            raise ValueError("weight grid is empty")
        if len(set(self.reward_grid)) != len(self.reward_grid):
            raise ValueError("reward grid has duplicates")
        if len(set(self.weight_grid)) != len(self.weight_grid):
            raise ValueError("weight grid has duplicates")
        for w in self.weight_grid:
            if w <= 0 or w > 1:
                raise ValueError(f"weight {w} outside (0, 1]")
        if self.max_root_branches < 1 or self.max_option_branches < 1:
            raise ValueError("branch limits must be at least 1")

    @classmethod
    def of(
        cls,
        rewards: list[RationalLike] | tuple[RationalLike, ...],
        weights: list[RationalLike] | tuple[RationalLike, ...],
        max_root_branches: int,
        max_option_branches: int,
    ) -> "GridSpec":
        return cls(
            tuple(as_rational(r) for r in rewards),
            tuple(as_rational(w) for w in weights),
            max_root_branches,
            max_option_branches,
        )


@dataclass(frozen=True)
class ViolationHit:
    """A violating scenario, its position in the stream, and its report."""

    index: int
    scenario: DiachronicScenario
    report: AxiomReport


def _weight_tuples(
    grid: tuple[Fraction, ...], length: int
) -> list[tuple[Fraction, ...]]:
    """Menu tuples of the given length summing exactly to 1, in product order.

    A depth-first walk with the rightmost position varying fastest, on the
    menu scaled to integers with 1 alongside it.  Menu weights are
    positive, so a prefix summing past 1 is dropped with every tuple it
    starts.
    """
    *steps, unit = scale_to_integers([*grid, Fraction(1)])
    menu = list(zip(grid, steps))
    tuples: list[tuple[Fraction, ...]] = []

    def extend(prefix: tuple[Fraction, ...], total: int) -> None:
        if len(prefix) == length:
            if total == unit:
                tuples.append(prefix)
            return
        for weight, step in menu:
            if total + step <= unit:
                extend(prefix + (weight,), total + step)

    extend((), 0)
    return tuples


def _weight_tuple_counts(grid: tuple[Fraction, ...], longest: int) -> list[int]:
    """``counts[n]``: how many menu tuples of length n sum exactly to 1.

    A dictionary over partial sums, in integers over the menu's common
    denominator, grown one position at a time; sums past 1 are dropped,
    because menu weights are positive.
    """
    *steps, unit = scale_to_integers([*grid, Fraction(1)])
    counts = [0]
    sums = {0: 1}
    for _ in range(longest):
        grown: dict[int, int] = {}
        for total, ways in sums.items():
            for step in steps:
                if total + step <= unit:
                    grown[total + step] = grown.get(total + step, 0) + ways
        sums = grown
        counts.append(sums.get(unit, 0))
    return counts


def _lengths(spec: GridSpec, limit: int) -> range:
    """Tuple lengths 1 to ``limit`` that are short enough to sum to 1."""
    return range(1, min(limit, 1 // min(spec.weight_grid)) + 1)


def _grid_games(
    spec: GridSpec, limit: int, rewards: Sequence[Fraction], prefix: str
) -> list[Game]:
    """Every game of at most ``limit`` branches over the menus, in pool order.

    Called with the reward menu and prefix ``O`` for the option pool, and
    with the pinned root reward 0 and prefix ``R`` for the root games.
    """
    games = []
    for size in _lengths(spec, limit):
        for weights in _weight_tuples(spec.weight_grid, size):
            for chosen in itertools.product(rewards, repeat=size):
                games.append(
                    Game(
                        f"{prefix}{len(games)}",
                        tuple(Branch(r, w) for r, w in zip(chosen, weights)),
                    )
                )
    return games


def scenario_count(spec: GridSpec) -> int:
    """Exact size of the stream, computed without enumerating it."""
    roots = _lengths(spec, spec.max_root_branches)
    options = _lengths(spec, spec.max_option_branches)
    tuples = _weight_tuple_counts(spec.weight_grid, max(len(roots), len(options)))
    option_count = sum(
        tuples[size] * len(spec.reward_grid) ** size for size in options
    )
    return sum(tuples[size] * option_count ** (2 * size) for size in roots)


def _cap() -> int:
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_SCENARIO_CAP
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{CAP_ENV_VAR} must be positive")
    return value


def _check_cap(spec: GridSpec) -> None:
    projected = scenario_count(spec)
    cap = _cap()
    if projected > cap:
        raise GridTooLargeError(
            f"grid projects {projected} scenarios, over the cap of {cap} "
            f"(set {CAP_ENV_VAR} to override)"
        )


def enumerate_scenarios(spec: GridSpec) -> Iterator[DiachronicScenario]:
    """Yield every grid scenario exactly once, in the documented order."""
    _check_cap(spec)
    options = _grid_games(spec, spec.max_option_branches, spec.reward_grid, "O")
    for root in _grid_games(spec, spec.max_root_branches, (Fraction(0),), "R"):
        size = len(root.branches)
        for slots in itertools.product(options, repeat=2 * size):
            pairs = tuple(
                (slots[2 * i], slots[2 * i + 1]) for i in range(size)
            )
            yield DiachronicScenario(root, pairs)


def _pool_summaries(pool: Sequence[Game]) -> list[Summary]:
    """Each pool game's summary, every field over one pool-wide denominator."""
    summaries = [summary(game) for game in pool]
    values = scale_to_integers([s[0] for s in summaries])
    bounds = scale_to_integers([s[1] for s in summaries] + [s[2] for s in summaries])
    return list(zip(values, bounds[: len(pool)], bounds[len(pool) :]))


class _ArmClass(NamedTuple):
    """Arms alike to the kind's rule, held by their first arm in odometer
    order: its position, options and partial summaries, and the
    descendant's verdict."""

    first: int
    options: tuple[Game, Game]
    summaries: tuple[Optional[Summary], Optional[Summary]]
    preference: Preference


def _arm_classes(agent: Agent, pool: Sequence[Game]) -> list[_ArmClass]:
    """The classes of arms that can take part in a violation, by first arm.

    Pool games fall into one class per partial summary of the kind; an arm
    class is a pair of game classes, and its first arm pairs their first
    games.  Each class keeps just the integer summary fields the kind's
    partial summary holds, so :func:`compose` does no work the rule
    ignores.  Classes whose descendant prefers the second option are
    dropped.
    """
    statistics = STATISTICS[agent.kind]
    rule = RULES[agent.kind]
    firsts: dict[Optional[Summary], int] = {}
    for position, game in enumerate(pool):
        firsts.setdefault(statistics(game), position)
    summaries = _pool_summaries(pool)
    partial: dict[int, Optional[Summary]] = {}
    for fields, position in firsts.items():
        if fields is not None:
            fields = tuple(
                None if f is None else x for f, x in zip(fields, summaries[position])
            )
        partial[position] = fields
    classes = []
    for left in firsts.values():
        for right in firsts.values():
            pair = (partial[left], partial[right])
            preference = rule(*pair)
            if preference is not Preference.PrefersRight:
                classes.append(
                    _ArmClass(
                        left * len(pool) + right,
                        (pool[left], pool[right]),
                        pair,
                        preference,
                    )
                )
    return classes


def _violates(
    rule: Callable[[Summary, Summary], Preference],
    weights: Sequence[int],
    rewards: Sequence[int],
    chosen: Sequence[_ArmClass],
) -> bool:
    """Decide a tuple of arm classes from its root branches, scaled to integers."""
    forward = rule(
        compose(weights, rewards, [arm.summaries[0] for arm in chosen]),
        compose(weights, rewards, [arm.summaries[1] for arm in chosen]),
    )
    return broken_clause([arm.preference for arm in chosen], forward) is not None


def find_violation(agent: Agent, spec: GridSpec) -> Optional[ViolationHit]:
    """First scenario in the stream the agent violates, or None when clean.

    Each class of arms is decided once, from summaries (see the module
    docstring); the first hit is built and replayed by
    :func:`check_diachronic`, whose report the hit carries.
    """
    _check_cap(spec)
    pool = _grid_games(spec, spec.max_option_branches, spec.reward_grid, "O")
    classes = _arm_classes(agent, pool)
    rule = RULES[agent.kind]
    arm_count = len(pool) ** 2
    offset = 0
    for root in _grid_games(spec, spec.max_root_branches, (Fraction(0),), "R"):
        weights = scale_to_integers([b.weight for b in root.branches])
        rewards = (0,) * len(weights)
        # Classes are listed by first arm, so product order is the stream
        # order of the scenarios the tuples stand for: the first hit is the
        # group's earliest.
        for chosen in itertools.product(classes, repeat=len(weights)):
            if _violates(rule, weights, rewards, chosen):
                index = offset
                for position, arm in enumerate(reversed(chosen)):
                    index += arm.first * arm_count**position
                scenario = DiachronicScenario(root, tuple(arm.options for arm in chosen))
                report = check_diachronic(agent, scenario)
                if report.verdict is not Verdict.VIOLATED:
                    raise RuntimeError(
                        f"scenario {index}: summaries say violated, "
                        f"check_diachronic says {report.verdict.value}"
                    )
                return ViolationHit(index, scenario, report)
        offset += arm_count ** len(weights)
    return None
