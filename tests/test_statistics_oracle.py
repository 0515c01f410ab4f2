"""Checks that rank many games against ``compare`` on every pair.

``check_continuity`` ranks summaries that ``agents.compose`` takes from
integer weight vectors, and ``build_instance`` reads each game's
statistics once, in integers, from ``agents.scaled_statistics``; both
rank them with ``agents.RULES``.  ``analyze_dutch_book`` ranks each game
and the combined game against its null game with ``compare``.  Each test
here ranks the same games pairwise with ``compare`` and expects the same
verdicts.  ``build_instance``
ranks the games with one sort, so its matrix is also held to
:func:`reference_matrix`, the rule on every pair of integer statistics.
The continuity tests also replay :func:`reference_check_continuity`, the
checker that built a ``Game`` for every candidate, measured each with
``game_distance`` and ranked seeded random moves after the extreme ones,
and expect the same report or the same error whatever the reference's
sample count and seed.
"""

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from branchgames import (
    AGENT_KINDS,
    Agent,
    AlphabetMismatchError,
    AxiomReport,
    Branch,
    ContinuityLevel,
    ContinuityWitness,
    Game,
    NotStrictPreferenceError,
    Preference,
    RewardAlphabet,
    UtilityFit,
    Verdict,
    WeightSumError,
    analyze_dutch_book,
    build_instance,
    check_continuity,
    compare,
    fit_utility,
    game_distance,
    validate_game,
    weight_vector,
)
from branchgames import axioms
from branchgames.agents import RULES, scaled_statistics
from branchgames.core import weight_vectors
from branchgames.representation import FEASIBLE
from conftest import REWARD_POOL, games

AGENTS = tuple(Agent.of(kind, kind) for kind in AGENT_KINDS)
STRICT_AGENTS = AGENTS[:3]
DELTAS = (Fraction(1, 2), Fraction(1, 8))
SAMPLES = 2


@given(
    st.sampled_from(AGENTS),
    st.lists(games(max_branches=3), min_size=1, max_size=5),
)
def test_build_instance_matrix_is_compare_on_every_pair(agent, drawn):
    pool = [Game(f"g{k}", g.branches) for k, g in enumerate(drawn)]
    instance = build_instance(agent, pool, RewardAlphabet.of(b.reward for g in pool for b in g.branches))
    for i, left in enumerate(pool):
        for j, right in enumerate(pool):
            assert instance.comparisons[i][j] is compare(agent, left, right)


# Sure games and even splits of two and three branches: dense in
# expected-value ties between games of differing spread.  Halves on one end
# of a support and integers on the other make a pair whose support mins and
# maxes have different least common denominators, such as
# {0, 0, 2} against {-1, 3/2, 3/2}; the egalitarian rule ranks that pair
# correctly only if the min and max share one denominator.
_TIE_REWARDS = tuple(Fraction(r) for r in ("-1", "0", "1/2", "1", "3/2", "2"))
_TIE_POOL = tuple(
    Game("g", tuple(Branch(r, Fraction(1, size)) for r in rewards))
    for size in (1, 2, 3)
    for rewards in combinations_with_replacement(_TIE_REWARDS, size)
    if size == 1 or len(set(rewards)) > 1
)


def reference_matrix(agent, games):
    """The comparison matrix as ``build_instance`` filled it: the rule on every pair."""
    statistics = scaled_statistics(agent.kind, games)
    rule = RULES[agent.kind]
    return tuple(tuple(rule(s, t) for t in statistics) for s in statistics)


@pytest.mark.parametrize("agent", AGENTS, ids=AGENT_KINDS)
def test_build_instance_matrix_is_compare_on_every_pool_pair(agent):
    alphabet = RewardAlphabet(_TIE_REWARDS)
    for pair in combinations_with_replacement(_TIE_POOL, 2):
        matrix = build_instance(agent, pair, alphabet).comparisons
        assert matrix == tuple(
            tuple(compare(agent, g, h) for h in pair) for g in pair
        )
    # The whole pool at once, in both orders, and single games.
    for pool in (_TIE_POOL, _TIE_POOL[::-1]):
        matrix = build_instance(agent, pool, alphabet).comparisons
        assert matrix == reference_matrix(agent, pool)
    for game in _TIE_POOL:
        matrix = build_instance(agent, (game,), alphabet).comparisons
        assert matrix == reference_matrix(agent, (game,))
    empty = build_instance(agent, (), alphabet)
    assert empty.comparisons == () == reference_matrix(agent, ())
    assert fit_utility(empty) == UtilityFit(
        FEASIBLE, {r: Fraction(0) for r in _TIE_REWARDS}, None, False
    )


@pytest.mark.parametrize("agent", AGENTS, ids=AGENT_KINDS)
@pytest.mark.parametrize("size, count", [(4, 12), (5, 8)])
def test_build_instance_matrix_is_the_reference_on_seeded_instances(
    agent, size, count
):
    # Sure rewards and even splits between two rewards, as in the
    # benchmark's fit ladder: ties are frequent at these shapes.
    for seed in range(25):
        rng = random.Random(seed)
        rewards = sorted(rng.sample(range(10), size))
        pool = []
        for k in range(count):
            picked = rng.sample(rewards, rng.randint(1, 2))
            weight = Fraction(1, len(picked))
            pool.append(
                Game(f"g{k}", tuple(Branch(Fraction(r), weight) for r in picked))
            )
        alphabet = RewardAlphabet(tuple(Fraction(r) for r in rewards))
        matrix = build_instance(agent, pool, alphabet).comparisons
        assert matrix == reference_matrix(agent, pool)


def _perturbations(game, alphabet, delta, rng, samples):
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


def _check_radius(game, candidates, alphabet, delta):
    for candidate in candidates:
        distance = game_distance(game, candidate, alphabet)
        if distance > delta:
            raise RuntimeError(
                f"perturbation {candidate.name!r} lies {distance} from "
                f"{game.name!r}, outside the radius {delta}"
            )


def reference_check_continuity(
    agent, left, right, alphabet, deltas, samples_per_delta, seed
):
    """``check_continuity`` as it was: a ``Game`` per candidate, ranked by compare."""
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
    levels = []
    for delta in deltas:
        rng = random.Random(f"{seed}:{delta}")
        lefts = _perturbations(left, alphabet, delta, rng, samples_per_delta)
        rights = _perturbations(right, alphabet, delta, rng, samples_per_delta)
        _check_radius(left, lefts, alphabet, delta)
        _check_radius(right, rights, alphabet, delta)
        level = ContinuityLevel(delta, None, None, None)
        for lp, rp in product(lefts, rights):
            verdict = compare(agent, lp, rp)
            if verdict is not Preference.PrefersLeft:
                level = ContinuityLevel(delta, lp, rp, verdict)
                break
        levels.append(level)
    witness = ContinuityWitness(tuple(levels))
    if all(level.falsified for level in levels):
        return AxiomReport("continuity", Verdict.VIOLATED, witness)
    return AxiomReport("continuity", Verdict.NO_VIOLATION_FOUND, witness)


def _outcome(check, *args):
    """The check's report, or the type and text of the error it raised."""
    try:
        return check(*args)
    except Exception as error:
        return type(error), str(error)


def assert_continuity_matches_reference(*args, samples, seed):
    """``args`` go to both checks; ``samples`` and ``seed`` to the reference."""
    outcome = _outcome(check_continuity, *args)
    assert outcome == _outcome(reference_check_continuity, *args, samples, seed)
    return outcome


def reference_levels(agent, left, right, alphabet, seed):
    """Each radius's first falsifying pair, ranked pairwise with compare."""
    report = reference_check_continuity(
        agent, left, right, alphabet, DELTAS, SAMPLES, seed
    )
    return report.witness.levels


# Negative and fractional rewards; every alphabet of one to four of them.
_GRID_REWARDS = tuple(Fraction(r) for r in ("-2", "-1/2", "0", "3/4"))
_GRID_ALPHABETS = tuple(
    RewardAlphabet(rewards)
    for size in range(1, 5)
    for rewards in combinations(_GRID_REWARDS, size)
)


def _grid_game(name, *branches):
    return Game(name, tuple(Branch(Fraction(r), Fraction(w)) for r, w in branches))


# Sure games, uneven splits, a zero-weight branch and duplicate rewards.
# Weights of 1/8 and 1/6 sit below the radii, 1/2 and 2/3 above them.
# check_continuity's D is the lcm of the branch denominators and the radii.
# On twins it differs from the lcm of the merged per-reward totals, whose
# 1/4 + 1/4 = 1/2 has the smaller denominator.  Sevenths' 7 divides no
# radius denominator and the radius 1/10's 10 divides no branch
# denominator, so D needs a factor from each half.
_GRID_GAMES = (
    _grid_game("sure", ("-1/2", "1")),
    _grid_game("top", ("3/4", "1")),
    _grid_game("coin", ("-2", "1/2"), ("3/4", "1/2")),
    _grid_game("thirds", ("0", "1/3"), ("3/4", "2/3")),
    _grid_game("idle", ("-2", "0"), ("0", "1")),
    _grid_game("twins", ("-1/2", "1/4"), ("-1/2", "1/4"), ("3/4", "1/2")),
    _grid_game("three", ("-2", "1/6"), ("0", "1/2"), ("3/4", "1/3")),
    _grid_game("tail", ("0", "7/8"), ("-2", "1/8")),
    _grid_game("sevenths", ("-1/2", "2/7"), ("3/4", "5/7")),
)
_GRID_DELTAS = (Fraction(1, 3), Fraction(1, 10))


@pytest.mark.parametrize("agent", STRICT_AGENTS, ids=AGENT_KINDS[:3])
def test_continuity_matches_the_reference_on_a_grid(agent):
    verdicts = set()
    # Seeds 0-3 draw 1, 2, 4 and 12 reference samples: no count changes a report.
    for alphabet, left, right, (seed, samples) in product(
        _GRID_ALPHABETS, _GRID_GAMES, _GRID_GAMES, enumerate((1, 2, 4, 12))
    ):
        outcome = assert_continuity_matches_reference(
            agent, left, right, alphabet, _GRID_DELTAS, samples=samples, seed=seed
        )
        report = isinstance(outcome, AxiomReport)
        verdicts.add(outcome.verdict if report else outcome[0])
    # The grid reaches a violation and both refusals for every kind, and
    # a preference that survives for every kind but the optimist.
    refusals = {NotStrictPreferenceError, AlphabetMismatchError}
    assert {Verdict.VIOLATED, *refusals} <= verdicts
    assert (Verdict.NO_VIOLATION_FOUND in verdicts) is (agent.kind != "optimist")


def test_moves_are_the_reference_candidates():
    # The reference's candidates without samples: the game, then every
    # extreme move, on the same entries, by the same amounts, under the
    # same names.
    alphabet = RewardAlphabet(_GRID_REWARDS)
    for game, delta in product(_GRID_GAMES, _GRID_DELTAS):
        vector = weight_vector(game, alphabet)
        scale, (weights,) = weight_vectors((game,), alphabet, delta.denominator)
        moves = axioms._moves(weights, int(delta * scale))
        candidates = _perturbations(game, alphabet, delta, random.Random(0), 0)
        assert candidates[0] is game and len(candidates) == len(moves) + 1
        for (i, j, amount), candidate in zip(moves, candidates[1:]):
            assert candidate.name == f"{game.name}[{i}->{j}@{delta}]"
            moved = list(vector)
            moved[i] -= Fraction(amount, scale)
            moved[j] += Fraction(amount, scale)
            assert weight_vector(candidate, alphabet) == tuple(moved)


# ``samples`` is the reference's sample count; check_continuity takes none.
@pytest.mark.parametrize(
    "deltas, samples",
    [
        ((), 2),
        ((Fraction(1, 2), Fraction(0)), 2),
        ((Fraction(1, 4), Fraction(1, 4)), 2),
    ],
)
def test_continuity_argument_errors_match_the_reference(deltas, samples):
    top, coin = _GRID_GAMES[1], _GRID_GAMES[2]
    alphabet = RewardAlphabet(_GRID_REWARDS)
    outcome = assert_continuity_matches_reference(
        STRICT_AGENTS[0], top, coin, alphabet, deltas, samples=samples, seed=0
    )
    assert outcome[0] is ValueError
    # A game that would fail the reference's validation is refused when built.
    message = "^game 'broken': weights sum to 1/2, expected 1$"
    with pytest.raises(WeightSumError, match=message):
        _grid_game("broken", ("0", "1/2"))


_DECREASING_DELTAS = st.lists(
    st.fractions(Fraction(1, 50), Fraction(1)), min_size=1, max_size=3, unique=True
).map(lambda ds: tuple(sorted(ds, reverse=True)))


@given(
    st.sampled_from(AGENTS),
    games(name="L", max_branches=3),
    games(name="R", max_branches=3),
    st.lists(st.sampled_from(REWARD_POOL), max_size=2),
    _DECREASING_DELTAS,
    st.integers(1, 3),
    st.integers(0, 5),
)
def test_continuity_matches_the_reference(
    agent, left, right, extra, deltas, samples, seed
):
    # Extra rewards widen the alphabet; sometimes one game's reward is
    # dropped from it instead, so both checks must refuse alike.
    alphabet = RewardAlphabet.of(b.reward for g in (left, right) for b in g.branches)
    if extra:
        alphabet = RewardAlphabet.of([*alphabet, *extra])
    if len(extra) == 1 and len(alphabet) > 1:
        alphabet = RewardAlphabet(alphabet.rewards[1:])
    assert_continuity_matches_reference(
        agent, left, right, alphabet, deltas, samples=samples, seed=seed
    )


@given(
    st.sampled_from(STRICT_AGENTS),
    games(name="L", max_branches=3),
    games(name="R", max_branches=3),
    st.integers(0, 5),
)
def test_continuity_levels_match_pairwise_compare(agent, left, right, seed):
    verdict = compare(agent, left, right)
    assume(verdict is not Preference.Indifferent)
    if verdict is Preference.PrefersRight:
        left, right = right, left
    alphabet = RewardAlphabet.of(b.reward for g in (left, right) for b in g.branches)
    report = check_continuity(agent, left, right, alphabet, DELTAS)
    assert report.witness.levels == reference_levels(
        agent, left, right, alphabet, seed
    )


@given(st.sampled_from(AGENTS), games(name="base", max_branches=3), st.data())
def test_dutch_book_preferences_are_compare_against_the_null_game(agent, base, data):
    count = data.draw(st.integers(1, 3))
    package = [base] + [
        Game(
            f"g{k}",
            tuple(
                Branch(data.draw(st.sampled_from(REWARD_POOL)), b.weight)
                for b in base.branches
            ),
        )
        for k in range(1, count)
    ]
    report = analyze_dutch_book(agent, package)
    assert report.individual_preferences == tuple(
        compare(agent, g, report.null) for g in package
    )
    assert report.combined_preference is compare(agent, report.combined, report.null)
