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
depends, per arm, only on the fields of the two summaries that the kind's
rule reads: the kind's partial summary, ``agents.STATISTICS``.  So
:func:`find_violation` groups the pool games by that partial summary, read
in integers over pool-wide denominators by ``agents.scaled_statistics``,
and the arms by their pair of game classes, each held by its first arm in
odometer order.  A class whose descendant prefers its second option is
dropped, because no clause binds on such a scenario.  So is a class strict
in expected value: every rule that reads it ranks by it first, so a kept
arm's first option never has the smaller one, and one strict arm makes the
compound of first options strictly better, which breaks no clause.

On the classes left, the compounds tie in expected value whatever the
root weights, and the support bounds do not read weights at all, so no
verdict reads the root weights: each root length is decided once, and the
first root of the shortest length that has a hit holds the stream's first
hit.  A class folds into a state, a plain tuple of what the rule reads:
the descendant's verdict, and the support min and max of each side, 0
where the kind's partial summary has no such field (its rule never reads
one).  Arms fold into one state as ``agents.compose`` composes support
bounds, so a tuple's verdict is its state's, ranked with the tied
expected value read as 0.  Classes with one state decide alike, so only
the first of them, by first arm, is kept.  The states that j classes
reach are built once per j, until two j in a row reach the same states,
and a root of k branches is decided slot by slot: each slot takes the
first class whose fold with the slots before it completes a violation
with some state the remaining slots reach.  Within a root of k branches
over A arms, the scenario with arms a_1..a_k has index
sum_i a_i*A^(k-i), which rises with each slot on its own; so the
slot-by-slot choice is the root's first violating scenario.  The work is
about k x classes x states, however many scenarios the grid holds: on a
four-root grid of 658,289,430,900 scenarios no kind reaches more than 10
states.  Only the hit is built, and :func:`check_diachronic` replays it
for the witness.

The scenario count comes in polynomial time from ``GridSpec.tuple_counts``,
which a spec fills once, when it is built, in one walk over partial sums,
together with ``root_lengths``, the root lengths that hold a tuple, so a
count reads no length without one.  It is checked against a cap, set by
BRANCHGAMES_SCENARIO_CAP, before any game is built; a grid that projects
no scenario builds none.  The cap bounds the projected stream, not the
work, which grows with the root lengths, the classes and the states they
reach.  The counts place each root length in the stream, so root games are
built only for a hit.  No tuple longer than 1 / (least menu weight) sums
to 1, so no walk over the menu goes past it.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from .agents import (
    RULES,
    Agent,
    Preference,
    Summary,
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
    """Menus and size limits defining one enumeration space.

    ``tuple_counts[n]`` is how many menu tuples of length n sum to 1, counted
    once, when the spec is built, up to the longest length either limit allows;
    ``root_lengths`` lists, ascending, the root lengths n with such a tuple.
    """

    reward_grid: tuple[Fraction, ...]
    weight_grid: tuple[Fraction, ...]
    max_root_branches: int
    max_option_branches: int
    tuple_counts: tuple[int, ...] = field(init=False, compare=False, repr=False)
    root_lengths: tuple[int, ...] = field(init=False, compare=False, repr=False)

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
        limit = max(self.max_root_branches, self.max_option_branches)
        # No tuple longer than 1 / (least menu weight) sums to 1.
        longest = min(limit, 1 // min(self.weight_grid))
        counts = tuple(_weight_tuple_counts(self.weight_grid, longest))
        object.__setattr__(self, "tuple_counts", counts)
        roots = filter(counts.__getitem__, _lengths(self, self.max_root_branches))
        object.__setattr__(self, "root_lengths", tuple(roots))

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
    return range(1, min(limit + 1, len(spec.tuple_counts)))


def _grid_games(
    spec: GridSpec, limit: int, rewards: Sequence[Fraction], prefix: str
) -> list[Game]:
    """Every game of at most ``limit`` branches over the menus, in pool order.

    Called with the reward menu and prefix ``O`` for the option pool, and
    with the pinned root reward 0 and prefix ``R`` for a hit's root games.
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
    """Exact size of the stream, from the spec's counts and root lengths."""
    tuples = spec.tuple_counts
    # A length without a tuple would still raise the reward count to its power.
    option_count = sum(
        tuples[size] * len(spec.reward_grid) ** size
        for size in filter(tuples.__getitem__, _lengths(spec, spec.max_option_branches))
    )
    return sum(tuples[size] * option_count ** (2 * size) for size in spec.root_lengths)


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


def _check_cap(spec: GridSpec) -> int:
    projected = scenario_count(spec)
    cap = _cap()
    if projected > cap:
        # Python refuses to print an int of more than 4,300 digits.
        shown = projected if projected <= 10**4000 else "more than 10^4000"
        raise GridTooLargeError(
            f"grid projects {shown} scenarios, over the cap of {cap} "
            f"(set {CAP_ENV_VAR} to override)"
        )
    return projected


def enumerate_scenarios(spec: GridSpec) -> Iterator[DiachronicScenario]:
    """Yield every grid scenario exactly once, in the documented order."""
    if not _check_cap(spec):
        return
    options = _grid_games(spec, spec.max_option_branches, spec.reward_grid, "O")
    for root in _grid_games(spec, spec.max_root_branches, (Fraction(0),), "R"):
        size = len(root.branches)
        for slots in itertools.product(options, repeat=2 * size):
            pairs = tuple(
                (slots[2 * i], slots[2 * i + 1]) for i in range(size)
            )
            yield DiachronicScenario(root, pairs)


def _arm_classes(
    agent: Agent, pool: Sequence[Game]
) -> list[tuple[int, tuple[Game, Game], tuple]]:
    """The classes of arms that can take part in a violation, by first arm.

    Pool games fall into one class per partial summary of the kind, read
    in integers by :func:`agents.scaled_statistics`; scaling is injective
    field by field, so the integer summaries group the games as the
    rational ones would.  An arm class is a pair of game classes, and its
    first arm pairs their first games.  Each class comes as that arm's
    position, its options and its fold state: the descendant's verdict,
    then the support min and max of the first option and of the second.
    Classes whose descendant prefers the second option, or that are
    strict in expected value, are dropped, and only the first class of
    each fold state is kept (see the module docstring).
    """
    rule = RULES[agent.kind]
    firsts: dict[Summary, int] = {}
    for position, fields in enumerate(scaled_statistics(agent.kind, pool)):
        firsts.setdefault(fields, position)
    bounds = {fields: tuple(f or 0 for f in fields[1:]) for fields in firsts}
    classes: dict[tuple, tuple[int, tuple[Game, Game], tuple]] = {}
    for left_fields, left in firsts.items():
        for right_fields, right in firsts.items():
            preference = rule(left_fields, right_fields)
            if preference is Preference.PrefersRight:
                continue
            if left_fields[0] is not None:
                if left_fields[0] < right_fields[0]:
                    raise RuntimeError("EV is not ranked first")
                if left_fields[0] > right_fields[0]:
                    continue
            state = (preference, *bounds[left_fields], *bounds[right_fields])
            classes.setdefault(
                state, (left * len(pool) + right, (pool[left], pool[right]), state)
            )
    return list(classes.values())


def _fold(state: Optional[tuple], other: tuple) -> tuple:
    """The fold state of the arms of both; ``state`` None holds no arm.

    A descendant strict in either is strict in both, and each support min
    and max is the least and the greatest, as ``agents.compose`` composes
    them.
    """
    if state is None:
        return other
    return (
        state[0] if state[0] is Preference.PrefersLeft else other[0],
        min(state[1], other[1]),
        max(state[2], other[2]),
        min(state[3], other[3]),
        max(state[4], other[4]),
    )


def _reachable(states: set, longest: int) -> list[set]:
    """``reach[j]``: the fold states of the tuples of j arm classes.

    The list stops at its fixed point, so ``reach[min(j, len(reach) - 1)]``
    holds the states of j classes.  A fold is idempotent, so for j >= 1
    every state of ``reach[j]`` folds with its own last arm to itself and
    ``reach[j]`` is a subset of ``reach[j + 1]``; and ``reach[j + 1]`` is
    read off ``reach[j]`` alone, so once two sets in a row are equal, every
    later set equals them too.
    """
    reach: list[set] = [{None}]
    for _ in range(longest):
        reach.append({_fold(state, other) for state in reach[-1] for other in states})
        if reach[-1] == reach[-2]:
            break
    return reach


def _first_violation(
    rule: Callable[[Summary, Summary], Preference],
    classes: Sequence[tuple],
    reach: Sequence[set],
    size: int,
) -> Optional[list[tuple]]:
    """The classes, slot by slot, of the first violating tuple of ``size``.

    Each slot takes the first class, by first arm, whose fold with the
    slots before it still completes a violation with some state the
    remaining slots reach; None when the first slot has no such class.
    """
    prefix, chosen = None, []
    for rest in reversed(range(size)):
        tails = reach[min(rest, len(reach) - 1)]
        for arm in classes:
            state = _fold(prefix, arm[2])
            # The compounds tie in expected value: read it as 0.
            if any(
                broken_clause((whole[0],), rule((0, *whole[1:3]), (0, *whole[3:])))
                is not None
                for whole in (_fold(tail, state) for tail in tails)
            ):
                break
        else:
            return None
        prefix = state
        chosen.append(arm)
    return chosen


def find_violation(agent: Agent, spec: GridSpec) -> Optional[ViolationHit]:
    """First scenario in the stream the agent violates, or None when clean.

    Each root length is counted by the spec, not built, and decided once,
    slot by slot on fold states (see the module docstring); the first hit is
    built and replayed by :func:`check_diachronic`, whose report it carries.
    """
    if not _check_cap(spec):
        return None
    pool = _grid_games(spec, spec.max_option_branches, spec.reward_grid, "O")
    classes = _arm_classes(agent, pool)
    counts, sizes = spec.tuple_counts, spec.root_lengths
    reach = _reachable({state for _, _, state in classes}, sizes[-1] - 1)
    arm_count = len(pool) ** 2
    offset = 0
    for size in sizes:
        # No verdict reads the root weights, so the first root of a length
        # with roots holds its first hit, if it has one.
        chosen = _first_violation(RULES[agent.kind], classes, reach, size)
        if chosen is not None:
            index = 0
            for first, _, _ in chosen:
                index = index * arm_count + first
            index += offset
            roots = _grid_games(spec, size, (Fraction(0),), "R")
            scenario = DiachronicScenario(
                roots[sum(counts[:size])], tuple(options for _, options, _ in chosen)
            )
            report = check_diachronic(agent, scenario)
            if report.verdict is not Verdict.VIOLATED:
                raise RuntimeError(
                    f"scenario {index}: summaries say violated, "
                    f"check_diachronic says {report.verdict.value}"
                )
            return ViolationHit(index, scenario, report)
        offset += counts[size] * arm_count**size
    return None
