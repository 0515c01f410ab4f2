"""Acceptance suite: ten end-to-end checks, one printed line each.

Every assertion is exact rational equality; there are no tolerances
anywhere.  Run with ``pytest -s tests/test_acceptance.py`` to see the
pass/fail line per criterion.
"""

import itertools
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from branchgames import (
    Agent,
    Branch,
    ComparisonConstraint,
    DegenerateNormalizationError,
    DiachronicScenario,
    Game,
    GridSpec,
    Preference,
    RewardAlphabet,
    Verdict,
    analyze_dutch_book,
    build_instance,
    check_continuity,
    check_diachronic,
    compare,
    enumerate_scenarios,
    expected_value,
    fit_utility,
    flatten,
    find_violation,
    normalize_fit,
    validate_game,
    weight_vector,
)
from branchgames.cli import emit, gallery_source, parse, render, run_file
from test_fit_oracle import verify_fit

F = Fraction

DTBR = Agent.of("dtbr", "dtbr")
EGAL = Agent.of("egalitarian", "egalitarian")
OPT = Agent.of("optimist", "optimist")
STOIC = Agent.of("stoic", "stoic")


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {description}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {description}: PASS")


def test_criterion_01_spread_break_on_an_exact_mean_tie():
    with criterion(1, "equal-mean pair: spread ranker strict, mean ranker indifferent"):
        a = Game.of("A", (2, F(1, 2)), (3, F(1, 2)))
        b = Game.of("B", (1, F(1, 2)), (4, F(1, 2)))
        assert compare(EGAL, a, b) is Preference.PrefersLeft
        assert compare(DTBR, a, b) is Preference.Indifferent


def test_criterion_02_best_outcome_agent_breaks_the_strict_clause():
    with criterion(2, "two-descendant trap: best-outcome agent violates clause ii"):
        root = Game.of("root", (0, F(1, 2)), (0, F(1, 2)))
        scenario = DiachronicScenario(
            root,
            (
                (Game.of("h1", (2, 1)), Game.of("h1p", (1, 1))),
                (Game.of("h2", (3, 1)), Game.of("h2p", (3, 1))),
            ),
        )
        report = check_diachronic(OPT, scenario)
        assert report.verdict is Verdict.VIOLATED
        w = report.witness
        assert w.clause == "ii"
        assert w.descendant_preferences == (
            Preference.PrefersLeft,
            Preference.Indifferent,
        )
        assert w.strict_branches == (0,)
        # replay the witness from scratch
        left = flatten(root, (scenario.options[0][0], scenario.options[1][0]))
        right = flatten(root, (scenario.options[0][1], scenario.options[1][1]))
        assert w.left_compound.branches == left.branches
        assert w.right_compound.branches == right.branches
        assert compare(OPT, left, right) is w.compound_preference
        assert w.compound_preference is Preference.Indifferent


def test_criterion_03_best_outcome_strict_preference_has_no_neighbourhood():
    with criterion(3, "sure win vs zero-weight win: falsified at every radius"):
        alphabet = RewardAlphabet.of([0, 1])
        a = Game.of("A", (1, 1))
        b0 = Game.of("B0", (1, 0), (0, 1))
        deltas = (F(1, 2), F(1, 4), F(1, 8), F(1, 16))
        report = check_continuity(OPT, a, b0, alphabet, deltas)
        assert report.verdict is Verdict.VIOLATED
        levels = report.witness.levels
        assert tuple(level.delta for level in levels) == deltas
        for level in levels:
            assert level.falsified
            assert level.preference is not Preference.PrefersLeft
            # the counterexample keeps A and hands the zero-weight win a
            # live weight of exactly delta
            assert weight_vector(level.left_perturbed, alphabet) == (F(0), F(1))
            assert weight_vector(level.right_perturbed, alphabet) == (
                1 - level.delta,
                level.delta,
            )
            assert compare(OPT, level.left_perturbed, level.right_perturbed) is (
                level.preference
            )


def test_criterion_04_mirror_coin_bets_sum_to_a_sure_loss():
    with criterion(4, "mirror coin bets combine to (-1,-1) and are refused"):
        heads = Game.of("heads", (1, F(1, 2)), (-2, F(1, 2)))
        tails = Game.of("tails", (-2, F(1, 2)), (1, F(1, 2)))
        report = analyze_dutch_book(OPT, (heads, tails))
        assert report.combined.branches == (
            Branch(F(-1), F(1, 2)),
            Branch(F(-1), F(1, 2)),
        )
        assert report.sure_loss
        assert report.individual_preferences == (
            Preference.PrefersLeft,
            Preference.PrefersLeft,
        )
        assert report.combined_preference is Preference.PrefersRight
        assert report.exposure is False


STOIC_GRID = GridSpec.of(
    rewards=[0, 1, 2, 3],
    weights=["1/2", 1],
    max_root_branches=2,
    max_option_branches=2,
)


def test_criterion_05_universal_indifference_satisfies_every_scenario():
    with criterion(5, "indifferent agent satisfied on all 160400 grid scenarios"):
        checked = 0
        for scenario in enumerate_scenarios(STOIC_GRID):
            report = check_diachronic(STOIC, scenario)
            assert report.verdict is Verdict.SATISFIED
            checked += 1
        assert checked == 160400
        # and no strict preference exists on any pair of grid games
        from branchgames.search import _grid_games

        pool = _grid_games(
            STOIC_GRID, STOIC_GRID.max_option_branches, STOIC_GRID.reward_grid, "O"
        ) + _grid_games(STOIC_GRID, STOIC_GRID.max_root_branches, (F(0),), "R")
        for left, right in itertools.combinations(pool, 2):
            assert compare(STOIC, left, right) is Preference.Indifferent


def test_criterion_06_indifference_is_represented_only_by_constants():
    with criterion(6, "indifferent agent fits a constant utility; 0/1 rescale impossible"):
        alphabet = RewardAlphabet.of([0, 1, 2, 3, 4])
        game_sets = (
            (
                Game.of("A", (2, F(1, 2)), (3, F(1, 2))),
                Game.of("B", (1, F(1, 2)), (4, F(1, 2))),
                Game.of("sure1", (1, 1)),
            ),
            (
                Game.of("sure0", (0, 1)),
                Game.of("sure4", (4, 1)),
            ),
            (
                Game.of("mix", (0, F(1, 2)), (4, F(1, 2))),
                Game.of("sure2", (2, 1)),
                Game.of("skew", (1, F(3, 4)), (3, F(1, 4))),
                Game.of("sure3", (3, 1)),
            ),
        )
        for games in game_sets:
            instance = build_instance(STOIC, games, alphabet)
            fit = fit_utility(instance)
            assert fit.feasible
            assert len(set(fit.u.values())) == 1
            assert verify_fit(instance, fit.u)
            with pytest.raises(DegenerateNormalizationError):
                normalize_fit(fit, F(0), F(1))


def _calibrated_mean_instance(seed):
    """Certainty ladder + midpoint mixtures + seeded extra games on {0..4}."""
    alphabet = RewardAlphabet.of([0, 1, 2, 3, 4])
    games = [Game.of(f"sure{k}", (k, 1)) for k in range(5)]
    for k in (1, 2, 3):
        games.append(
            Game.of(f"mix{k}", (k - 1, F(1, 2)), (k + 1, F(1, 2)))
        )
    rng = random.Random(1000 + seed)
    compositions = (
        (F(1),),
        (F(1, 2), F(1, 2)),
        (F(1, 4), F(3, 4)),
        (F(1, 2), F(1, 4), F(1, 4)),
    )
    for extra in range(3):
        weights = rng.choice(compositions)
        games.append(
            Game.of(
                f"rand{seed}_{extra}",
                *((rng.randint(0, 4), w) for w in weights),
            )
        )
    return build_instance(DTBR, tuple(games), alphabet)


def test_criterion_07_mean_agent_is_clean_and_fits_the_identity():
    with criterion(7, "mean agent: no grid violation; fits normalize to the identity"):
        assert find_violation(DTBR, STOIC_GRID) is None
        for seed in range(5):
            instance = _calibrated_mean_instance(seed)
            fit = fit_utility(instance)
            assert fit.feasible
            assert verify_fit(instance, fit.u)
            normalized = normalize_fit(fit, F(0), F(1))
            assert normalized.u == {r: r for r in instance.alphabet}


def test_criterion_08_spread_ranker_caught_by_search_and_by_hand():
    with criterion(8, "spread ranker: grid search finds a violation; pinned witness replays"):
        spec = GridSpec.of(
            rewards=[0, 3, 4, 5],
            weights=["1/2", 1],
            max_root_branches=2,
            max_option_branches=2,
        )
        hit = find_violation(EGAL, spec)
        assert hit is not None
        assert hit.report.verdict is Verdict.VIOLATED
        assert check_diachronic(EGAL, hit.scenario).verdict is Verdict.VIOLATED

        root = Game.of("root", (0, F(1, 2)), (0, F(1, 2)))
        sure4 = Game.of("sure4", (4, 1))
        spread = Game.of("spread", (3, F(1, 2)), (5, F(1, 2)))
        witness_scenario = DiachronicScenario(
            root, ((sure4, spread), (spread, spread))
        )
        report = check_diachronic(EGAL, witness_scenario)
        assert report.verdict is Verdict.VIOLATED
        assert report.witness.clause == "ii"
        assert report.witness.descendant_preferences == (
            Preference.PrefersLeft,
            Preference.Indifferent,
        )
        assert report.witness.compound_preference is Preference.Indifferent


def test_criterion_09_best_outcome_ranking_admits_no_utility():
    with criterion(9, "best-outcome trio is infeasible with the two-constraint certificate"):
        alphabet = RewardAlphabet.of([0, 1])
        a = Game.of("A", (1, 1))
        b0 = Game.of("B0", (1, 0), (0, 1))
        bhalf = Game.of("Bhalf", (1, F(1, 2)), (0, F(1, 2)))
        instance = build_instance(OPT, (a, b0, bhalf), alphabet)
        fit = fit_utility(instance)
        assert not fit.feasible
        assert fit.u is None
        assert fit.certificate == (
            ComparisonConstraint(0, 1, Preference.PrefersLeft),
            ComparisonConstraint(0, 2, Preference.Indifferent),
        )
        # brute force over u(0), u(1) in {-2, ..., 2} by quarter steps
        grid = [F(k, 4) for k in range(-8, 9)]
        for u0, u1 in itertools.product(grid, repeat=2):
            assert not verify_fit(instance, {F(0): u0, F(1): u1})


def _triple_grid_games():
    rewards = (F(0), F(1), F(2))
    weights = (F(1, 3), F(1, 2), F(2, 3), F(1))
    games = []
    for size in (1, 2, 3):
        for combo in itertools.product(weights, repeat=size):
            if sum(combo) != 1:
                continue
            for rs in itertools.product(rewards, repeat=size):
                games.append(
                    Game(
                        f"g{len(games)}",
                        tuple(Branch(r, w) for r, w in zip(rs, combo)),
                    )
                )
    return games


def _random_compound(rng):
    def random_game(name):
        parts = [rng.randint(1, 5) for _ in range(rng.randint(1, 3))]
        total = sum(parts)
        return Game(
            name,
            tuple(
                Branch(F(rng.randint(-5, 5)), F(p, total)) for p in parts
            ),
        )

    root = random_game("root")
    return root, [random_game(f"c{i}") for i in range(len(root.branches))]


def test_criterion_10_property_suites():
    with criterion(10, "preorder laws, path additivity, round trips, stable reports"):
        # totality and transitivity for all four agents on all triples
        pool = _triple_grid_games()
        assert len(pool) == 57
        for agent in (DTBR, EGAL, OPT, STOIC):
            weak = [
                [compare(agent, x, y) is not Preference.PrefersRight for y in pool]
                for x in pool
            ]
            n = len(pool)
            for i in range(n):
                for j in range(n):
                    assert weak[i][j] or weak[j][i]
            for i in range(n):
                row_i = weak[i]
                for j in range(n):
                    if not row_i[j]:
                        continue
                    row_j = weak[j]
                    for k in range(n):
                        if row_j[k]:
                            assert row_i[k]

        # expected value adds along paths on 1000 seeded random compounds
        rng = random.Random(4242)
        for _ in range(1000):
            root, continuations = _random_compound(rng)
            flat = flatten(root, continuations)
            validate_game(flat)
            direct = expected_value(root) + sum(
                (
                    branch.weight * expected_value(cont)
                    for branch, cont in zip(root.branches, continuations)
                ),
                F(0),
            )
            assert expected_value(flat) == direct

        # parse/render round trips on the bundled scenario texts
        from pathlib import Path

        texts = [gallery_source()]
        scenario_dir = Path(__file__).resolve().parent.parent / "scenarios"
        texts.extend(
            path.read_text(encoding="utf-8")
            for path in sorted(scenario_dir.glob("*.game"))
        )
        assert len(texts) >= 3
        for text in texts:
            parsed = parse(text)
            assert parse(render(parsed)) == parsed

        # machine-mode reports are byte-identical across consecutive runs
        first = emit(run_file(parse(gallery_source())), machine=True)
        second = emit(run_file(parse(gallery_source())), machine=True)
        assert first.encode() == second.encode()
