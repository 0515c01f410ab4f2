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
that partial summary, read in integers over pool-wide denominators by
``agents.scaled_statistics``, and the arms by their pair of game classes,
and decides each tuple of arm classes once, on the partial summaries of
the class's first arm in odometer order, so the work grows with the class
tuples, not with the stream.  A class whose descendant prefers its second
option is dropped, because no clause binds on such a scenario.

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
One walk over the weight menu, a position at a time, gives the weight
tuples of every length; the counts come from the same walk over partial
sums alone.  No tuple longer than 1 / (least menu weight) sums to 1, so
both walks stop there, whatever the branch limits.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .agents import (
    RULES,
    Agent,
    Preference,
    Summary,
    compose,
    scaled_statistics,
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
    The walk runs on the menu scaled to integers with 1 alongside it: each
    step extends every kept prefix by each menu weight, in menu order, and
    drops a prefix past 1 (menu weights are positive); after n steps the
    prefixes summing to exactly 1 are the n-branch weight tuples, in
    product order.
    """
    *steps, unit = scale_to_integers([*spec.weight_grid, Fraction(1)])
    menu = list(zip(spec.weight_grid, steps))
    prefixes: list[tuple[tuple[Fraction, ...], int]] = [((), 0)]
    games = []
    for size in _lengths(spec, limit):
        prefixes = [
            (weights + (weight,), total + step)
            for weights, total in prefixes
            for weight, step in menu
            if total + step <= unit
        ]
        for weights in [w for w, total in prefixes if total == unit]:
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

    Pool games fall into one class per partial summary of the kind, read
    in integers by :func:`agents.scaled_statistics`; scaling is injective
    field by field, so the integer summaries group the games as the
    rational ones would.  An arm class is a pair of game classes, and its
    first arm pairs their first games.  Each class holds just the fields
    the kind's partial summary holds, so :func:`compose` does no work the
    rule ignores.  The root rewards the search composes with are 0, which
    reads the same at every scale.  Classes whose descendant prefers the
    second option are dropped.
    """
    rule = RULES[agent.kind]
    firsts: dict[Optional[Summary], int] = {}
    for position, fields in enumerate(scaled_statistics(agent.kind, pool)):
        firsts.setdefault(fields, position)
    classes = []
    for left_fields, left in firsts.items():
        for right_fields, right in firsts.items():
            pair = (left_fields, right_fields)
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
