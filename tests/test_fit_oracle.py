"""Differential test: ``fit_utility`` against the pairwise reference solver.

``reference_fit_utility`` is the solver ``fit_utility`` replaced, kept here
unchanged as the oracle: one row per recorded comparison over all
n(n-1)/2 pairs, plain Fourier-Motzkin elimination that multiplies every
upper row with every lower row, and a backward deletion filter that
solves once per comparison.  The fast solver must agree with it on every
field of ``UtilityFit``: verdict, raw ``u`` (the same rationals, not just
an equivalent utility), certificate and uniqueness flag.

Two steps of the integer solver also have references of their own, the
versions they replaced: ``reference_back_substitute`` assigns the witness
in ``Fraction``s, and ``reference_deletion_filter`` builds every
comparison's rows up front and copies the trial list for every candidate.
Each is fed the very arguments ``fit_utility`` hands its fast counterpart.

``verify_fit`` checks a utility against an instance directly: the expected
utilities of every ordered pair of games must order as the instance
records.  The representation and acceptance tests assert fits with it.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Mapping, Optional, Sequence
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from branchgames import (
    Agent,
    Branch,
    ComparisonConstraint,
    Game,
    Preference,
    PreferenceInstance,
    RewardAlphabet,
    UtilityFit,
    build_instance,
    fit_utility,
)
from branchgames import representation
from branchgames.core import weight_vector
from branchgames.representation import (
    FEASIBLE,
    INFEASIBLE,
    _check_preorder,
    _Infeasible,
    _project,
    _tracked_rows,
)

F = Fraction
_ZERO = F(0)
_ONE = F(1)

KINDS = ("dtbr", "egalitarian", "optimist", "stoic")

# -- the reference solver ----------------------------------------------------

Row = tuple[tuple[Fraction, ...], Fraction]  # coeffs . u <= bound


def _normalize_row(row: Row) -> Row:
    coeffs, bound = row
    for c in coeffs:
        if c != 0:
            scale = abs(c)
            return (tuple(x / scale for x in coeffs), bound / scale)
    return row


def _clean(rows: list[Row]) -> Optional[list[Row]]:
    seen = {}
    for row in rows:
        coeffs, bound = _normalize_row(row)
        if all(c == 0 for c in coeffs):
            if bound < 0:
                return None
            continue
        seen.setdefault((coeffs, bound), None)
    return list(seen.keys())


def _eliminate(rows: list[Row], var: int) -> list[Row]:
    upper = []
    lower = []
    kept = []
    for coeffs, bound in rows:
        c = coeffs[var]
        if c > 0:
            upper.append((coeffs, bound))
        elif c < 0:
            lower.append((coeffs, bound))
        else:
            kept.append((coeffs, bound))
    for ucoeffs, ubound in upper:
        for lcoeffs, lbound in lower:
            a = ucoeffs[var]
            b = -lcoeffs[var]
            coeffs = tuple(u * b + l * a for u, l in zip(ucoeffs, lcoeffs))
            kept.append((coeffs, ubound * b + lbound * a))
    return kept


def reference_solve_rows(rows: list[Row], nvars: int) -> Optional[list[Fraction]]:
    current = _clean(rows)
    if current is None:
        return None
    snapshots: list[tuple[int, list[Row]]] = []
    for k in range(nvars - 1, -1, -1):
        snapshots.append((k, current))
        current = _clean(_eliminate(current, k))
        if current is None:
            return None
    values: list[Optional[Fraction]] = [None] * nvars
    for k, rows_k in reversed(snapshots):
        low = None
        high = None
        for coeffs, bound in rows_k:
            c = coeffs[k]
            if c == 0:
                continue
            rest = bound
            for m in range(k):
                if coeffs[m]:
                    rest -= coeffs[m] * values[m]
            limit = rest / c
            if c > 0:
                high = limit if high is None else min(high, limit)
            else:
                low = limit if low is None else max(low, limit)
        if low is not None and high is not None:
            values[k] = (low + high) / 2
        elif low is not None:
            values[k] = low
        elif high is not None:
            values[k] = high
        else:
            values[k] = _ZERO
    return values  # type: ignore[return-value]


def reference_constraint_rows(
    instance: PreferenceInstance, constraints: Sequence[ComparisonConstraint]
) -> list[Row]:
    vectors = [weight_vector(g, instance.alphabet) for g in instance.games]
    rows: list[Row] = []
    for c in constraints:
        diff = tuple(a - b for a, b in zip(vectors[c.left], vectors[c.right]))
        if c.preference is Preference.Indifferent:
            rows.append((diff, _ZERO))
            rows.append((tuple(-d for d in diff), _ZERO))
        elif c.preference is Preference.PrefersLeft:
            rows.append((tuple(-d for d in diff), -_ONE))
        else:
            rows.append((diff, -_ONE))
    return rows


def reference_equality_rank(
    instance: PreferenceInstance, constraints: Sequence[ComparisonConstraint]
) -> int:
    vectors = [weight_vector(g, instance.alphabet) for g in instance.games]
    pivots: dict[int, list[Fraction]] = {}
    for c in constraints:
        if c.preference is not Preference.Indifferent:
            continue
        row = [a - b for a, b in zip(vectors[c.left], vectors[c.right])]
        while True:
            lead = next((i for i, x in enumerate(row) if x != 0), None)
            if lead is None:
                break
            if lead not in pivots:
                pivots[lead] = row
                break
            pivot = pivots[lead]
            factor = row[lead] / pivot[lead]
            row = [x - factor * y for x, y in zip(row, pivot)]
    return len(pivots)


def reference_irreducible_certificate(
    instance: PreferenceInstance, constraints: tuple[ComparisonConstraint, ...]
) -> tuple[ComparisonConstraint, ...]:
    kept = list(constraints)
    for candidate in reversed(constraints):
        trial = [c for c in kept if c is not candidate]
        nvars = len(instance.alphabet)
        rows = reference_constraint_rows(instance, trial)
        if reference_solve_rows(rows, nvars) is None:
            kept = trial
    return tuple(kept)


def reference_fit_utility(instance: PreferenceInstance) -> UtilityFit:
    _check_preorder(instance)
    constraints = instance.constraint_list()
    nvars = len(instance.alphabet)
    rows = reference_constraint_rows(instance, constraints)
    solution = reference_solve_rows(rows, nvars)
    if solution is None:
        return UtilityFit(
            verdict=INFEASIBLE,
            u=None,
            certificate=reference_irreducible_certificate(instance, constraints),
            unique=None,
        )
    u = {r: solution[i] for i, r in enumerate(instance.alphabet.rewards)}
    has_strict = any(c.preference is not Preference.Indifferent for c in constraints)
    expected_rank = nvars - 2 if has_strict else nvars - 1
    unique = reference_equality_rank(instance, constraints) == expected_rank
    return UtilityFit(verdict=FEASIBLE, u=u, certificate=None, unique=unique)


# -- the fit checker ----------------------------------------------------------


def verify_fit(
    instance: PreferenceInstance, u: Mapping[Fraction, Fraction]
) -> bool:
    """Independently confirm that u reproduces every recorded comparison."""
    for r in instance.alphabet:
        if r not in u:
            return False

    def eu(game: Game) -> Fraction:
        total = _ZERO
        for b in game.branches:
            total += b.weight * u[b.reward]
        return total

    for i, g in enumerate(instance.games):
        for j, h in enumerate(instance.games):
            gap = eu(g) - eu(h)
            recorded = instance.comparisons[i][j]
            if gap > 0 and recorded is not Preference.PrefersLeft:
                return False
            if gap < 0 and recorded is not Preference.PrefersRight:
                return False
            if gap == 0 and recorded is not Preference.Indifferent:
                return False
    return True



# -- the references for single steps of the integer solver -------------------


def reference_back_substitute(snapshots) -> list[Fraction]:
    """``_back_substitute`` as it was: every step in ``Fraction``s."""
    values: list[Fraction] = []
    for k, rows_k in enumerate(snapshots):
        low = None
        high = None
        for coeffs, bound, _ in rows_k:
            c = coeffs[k]
            if c == 0:
                continue
            rest = bound
            for m in range(k):
                if coeffs[m]:
                    rest -= coeffs[m] * values[m]
            limit = Fraction(rest, c)
            if c > 0:
                high = limit if high is None else min(high, limit)
            else:
                low = limit if low is None else max(low, limit)
        if low is not None and high is not None:
            values.append((low + high) / 2)
        elif low is not None:
            values.append(low)
        elif high is not None:
            values.append(high)
        else:
            values.append(_ZERO)
    return values


def reference_deletion_filter(
    vectors,
    gap: int,
    constraints: tuple[ComparisonConstraint, ...],
    core: int,
    nvars: int,
) -> tuple[ComparisonConstraint, ...]:
    """``_irreducible_certificate`` as it was: all rows built up front."""
    rows = [
        _tracked_rows(vectors, gap, c.left, c.right, c.preference, i)
        for i, c in enumerate(constraints)
    ]
    kept = list(range(len(constraints)))
    for candidate in reversed(range(len(constraints))):
        trial = [i for i in kept if i != candidate]
        if core >> candidate & 1:
            try:
                _project([row for i in trial for row in rows[i]], nvars)
                continue
            except _Infeasible as exc:
                core = exc.core
        kept = trial
    return tuple(constraints[i] for i in kept)


def _calls_of(name: str, instance: PreferenceInstance) -> list[tuple]:
    """Fit ``instance``; return the arguments of each call it made to ``name``."""
    real = getattr(representation, name)
    calls = []

    def spy(*args):
        calls.append(args)
        return real(*args)

    with mock.patch.object(representation, name, spy):
        fit_utility(instance)
    return calls


def assert_same_back_substitution(instance: PreferenceInstance) -> bool:
    """Compare on ``instance``'s snapshots; return whether it had any."""
    calls = _calls_of("_back_substitute", instance)
    for (snapshots,) in calls:
        fast = representation._back_substitute(snapshots)
        assert fast == reference_back_substitute(snapshots)
        assert all(type(v) is Fraction for v in fast)
    return bool(calls)


def assert_same_deletion_filter(instance: PreferenceInstance) -> bool:
    """Compare on ``instance``'s infeasible core; return whether it had one."""
    calls = _calls_of("_irreducible_certificate", instance)
    constraints = instance.constraint_list()
    for vectors, gap, comparisons, core, nvars in calls:
        assert comparisons == [(c.left, c.right, c.preference) for c in constraints]
        fast = representation._irreducible_certificate(
            vectors, gap, comparisons, core, nvars
        )
        assert fast == reference_deletion_filter(vectors, gap, constraints, core, nvars)
    return bool(calls)


# -- comparison ---------------------------------------------------------------


def assert_same_fit(instance: PreferenceInstance) -> None:
    fast = fit_utility(instance)
    slow = reference_fit_utility(instance)
    assert fast.verdict == slow.verdict
    assert fast.u == slow.u
    if fast.u is not None:
        # same rationals in the same alphabet order, so the output bytes agree
        assert list(fast.u.items()) == list(slow.u.items())
    assert fast.certificate == slow.certificate
    assert fast.unique == slow.unique


def _named(games: Sequence[Game]) -> tuple[Game, ...]:
    return tuple(Game(f"g{i}", g.branches) for i, g in enumerate(games))


# -- exhaustive small grid ----------------------------------------------------


_HALVES_AND_THIRDS = (F(1, 3), F(1, 2), F(2, 3))
# Fifths and sevenths beside them: one instance can mix coprime
# denominators, so its common denominator is no game's own.
_MIXED = _HALVES_AND_THIRDS + (F(2, 5), F(3, 7))


def _pool(rewards: Sequence[Fraction], splits: Sequence[Fraction]) -> list[Game]:
    """Sure rewards and two-branch splits; ``splits`` lists the lower reward's weights."""
    pool = [Game("p", (Branch(r, _ONE),)) for r in rewards]
    for lo, hi in itertools.combinations(rewards, 2):
        for w in splits:
            pool.append(Game("p", (Branch(lo, w), Branch(hi, 1 - w))))
    return pool


def _small_grid():
    """Every instance of the exhaustive grid, for each agent kind."""
    for size in (1, 2, 3):
        rewards = tuple(F(r) for r in range(size))
        alphabet = RewardAlphabet(rewards)
        # every multiset of at most three games from the mixed pool, then
        # every set of four from the halves-and-thirds pool
        combos = [
            combo
            for count in (1, 2, 3)
            for combo in itertools.combinations_with_replacement(
                _pool(rewards, _MIXED), count
            )
        ] + list(itertools.combinations(_pool(rewards, _HALVES_AND_THIRDS), 4))
        for combo in combos:
            games = _named(combo)
            for kind in KINDS:
                yield build_instance(Agent(kind, kind), games, alphabet)


def test_exhaustive_small_grid_agrees_with_the_reference():
    cases = 0
    for instance in _small_grid():
        assert_same_fit(instance)
        cases += 1
    assert cases > 1000
    # Branch denominators 4, 2 and 3 clear at 12, but the merged weight
    # totals, 1/2 and 1/2 against 1/3 and 2/3, clear at 6.
    games = (
        Game.of("quarters", (1, F(1, 4)), (1, F(1, 4)), (0, F(1, 2))),
        Game.of("thirds", (0, F(1, 3)), (1, F(2, 3))),
    )
    alphabet = RewardAlphabet.of([0, 1])
    for kind in KINDS:
        assert_same_fit(build_instance(Agent(kind, kind), games, alphabet))


def test_back_substitution_agrees_with_the_reference_on_the_small_grid():
    feasible = sum(map(assert_same_back_substitution, _small_grid()))
    assert feasible > 1000


def test_pinned_optimist_certificate_is_unchanged():
    alphabet = RewardAlphabet.of([0, 1])
    games = (
        Game.of("win", (1, 1)),
        Game.of("win_at_zero", (1, 0), (0, 1)),
        Game.of("win_at_half", (1, F(1, 2)), (0, F(1, 2))),
    )
    instance = build_instance(Agent.of("opt", "optimist"), games, alphabet)
    assert_same_fit(instance)
    assert fit_utility(instance).certificate == (
        ComparisonConstraint(0, 1, Preference.PrefersLeft),
        ComparisonConstraint(0, 2, Preference.Indifferent),
    )


# -- random instances ---------------------------------------------------------

_REWARD_MENU = tuple(F(r) for r in range(-2, 6))
_SPLITS = {
    1: ((_ONE,),),
    2: (
        (F(1, 2), F(1, 2)),
        (F(1, 3), F(2, 3)),
        (F(2, 3), F(1, 3)),
        (F(2, 5), F(3, 5)),
        (F(4, 7), F(3, 7)),
    ),
    3: (
        (F(1, 3), F(1, 3), F(1, 3)),
        (F(1, 4), F(1, 4), F(1, 2)),
        (F(1, 5), F(2, 5), F(2, 5)),
        (F(1, 7), F(2, 7), F(4, 7)),
    ),
}


@st.composite
def _instances(draw):
    menu = draw(st.sets(st.sampled_from(_REWARD_MENU), min_size=2, max_size=4))
    rewards = sorted(menu)
    count = draw(st.integers(1, 6))
    games = []
    for i in range(count):
        size = draw(st.integers(1, 3))
        # Rewards may repeat across branches, so merged weight totals can
        # clear at a smaller denominator than the branch weights.
        chosen = draw(st.lists(st.sampled_from(rewards), min_size=size, max_size=size))
        weights = draw(st.sampled_from(_SPLITS[size]))
        branches = list(map(Branch, chosen, weights))
        if draw(st.booleans()):
            ghost = Branch(draw(st.sampled_from(rewards)), _ZERO)
            branches.insert(draw(st.integers(0, size)), ghost)
        games.append(Game(f"g{i}", tuple(branches)))
    kind = draw(st.sampled_from(KINDS))
    return Agent(kind, kind), tuple(games), RewardAlphabet(tuple(rewards))


@given(_instances())
@settings(max_examples=150)
def test_random_instances_agree_with_the_reference(case):
    agent, games, alphabet = case
    assert_same_fit(build_instance(agent, games, alphabet))


# -- seeded fit_ladder shapes -------------------------------------------------


def _seeded_instance(
    seed: int, kind: str, size: int, count: int, branches=2, denominators=(2,)
):
    """A seeded instance drawn the way the fit_ladder bench draws its own.

    ``size`` rewards out of 0..9, then ``count`` games of one to
    ``branches`` distinct rewards, with positive weights over a denominator
    drawn from ``denominators``.  The defaults give fit_ladder's games: a
    sure reward or an even split.
    """
    rng = random.Random(f"{seed} {kind} {size}x{count} {branches} {denominators}")
    rewards = sorted(rng.sample(range(10), size))
    games = []
    for i in range(count):
        width = rng.randint(1, min(branches, size))
        d = rng.choice([x for x in denominators if x >= width])
        cuts = sorted(rng.sample(range(1, d), width - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [d])]
        chosen = rng.sample(rewards, width)
        games.append(
            Game(f"g{i}", tuple(Branch(F(r), F(p, d)) for r, p in zip(chosen, parts)))
        )
    alphabet = RewardAlphabet(tuple(F(r) for r in rewards))
    return build_instance(Agent(kind, kind), games, alphabet)


_LADDER = [(kind, 4, 12) for kind in KINDS] + [(kind, 5, 8) for kind in KINDS]


def test_back_substitution_agrees_with_the_reference_on_ladder_shapes():
    feasible = 0
    for kind, size, count in _LADDER:
        for seed in range(25):
            instance = _seeded_instance(seed, kind, size, count)
            feasible += assert_same_back_substitution(instance)
    assert feasible > 100


def test_back_substitution_agrees_with_the_reference_on_three_branch_games():
    # weights in thirds, quarters and sixths, mixed within one instance
    feasible = 0
    for kind, size, count in _LADDER:
        for seed in range(15):
            instance = _seeded_instance(seed, kind, size, count, 3, (3, 4, 6))
            feasible += assert_same_back_substitution(instance)
    assert feasible > 50


def test_deletion_filter_agrees_with_the_reference_on_ladder_shapes():
    infeasible = 0
    for kind, size, count in _LADDER:
        for seed in range(25):
            instance = _seeded_instance(seed, kind, size, count)
            infeasible += assert_same_deletion_filter(instance)
    assert infeasible > 25


def test_deletion_filter_builds_rows_only_for_the_comparisons_it_reads():
    instance = _seeded_instance(0, "optimist", 4, 12)
    n = len(instance.games)
    ((_, _, _, core, _),) = _calls_of("_irreducible_certificate", instance)
    # the chain's n - 1 comparisons come first, then the deletion filter's
    positions = [args[-1] for args in _calls_of("_tracked_rows", instance)[n - 1 :]]
    assert len(positions) == len(set(positions)) < n * (n - 1) // 2
    # nothing above the core's last position, the first candidate solved
    assert max(positions) <= core.bit_length() - 1
