"""Axiom checkers: diachronic consistency, continuity probing, sure-loss packages."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchgames import (
    Agent,
    CompoundGame,
    DiachronicScenario,
    EmptyGameError,
    EventMismatchError,
    Game,
    NotStrictPreferenceError,
    Preference,
    RewardAlphabet,
    ScenarioError,
    Verdict,
    WeightSumError,
    analyze_dutch_book,
    check_continuity,
    check_diachronic,
    compare,
    flatten,
    game_distance,
    validate_game,
)
from branchgames.core import Branch
from conftest import games

F = Fraction

DTBR = Agent.of("ev", "dtbr")
EGAL = Agent.of("egal", "egalitarian")
OPT = Agent.of("opt", "optimist")
STOIC = Agent.of("stoic", "stoic")
AGENTS = (DTBR, EGAL, OPT, STOIC)

FLIP = Game.of("flip", (0, F(1, 2)), (0, F(1, 2)))
PRIZE2 = Game.of("prize2", (2, 1))
PRIZE3 = Game.of("prize3", (3, 1))
CERTAIN1 = Game.of("certain1", (1, 1))

# One descendant strictly prefers its first option, the other is
# indifferent, yet the flattened compounds share the same best reward.
TIE_AT_THE_TOP = DiachronicScenario(
    FLIP, ((PRIZE2, CERTAIN1), (PRIZE3, PRIZE3))
)


def replay_witness(agent, scenario, witness):
    """Recompute every recorded field of a diachronic witness from scratch."""
    assert witness.descendant_preferences == tuple(
        compare(agent, first, second) for first, second in scenario.options
    )
    assert witness.strict_branches == tuple(
        i
        for i, p in enumerate(witness.descendant_preferences)
        if p is Preference.PrefersLeft
    )
    left = flatten(
        CompoundGame(scenario.root, tuple(p[0] for p in scenario.options))
    )
    right = flatten(
        CompoundGame(scenario.root, tuple(p[1] for p in scenario.options))
    )
    assert witness.left_compound.branches == left.branches
    assert witness.right_compound.branches == right.branches
    assert witness.compound_preference is compare(
        agent, witness.left_compound, witness.right_compound
    )


class TestDiachronic:
    def test_optimist_breaks_the_strict_clause(self):
        report = check_diachronic(OPT, TIE_AT_THE_TOP)
        assert report.axiom == "diachronic"
        assert report.verdict is Verdict.VIOLATED
        w = report.witness
        assert w.clause == "ii"
        assert w.descendant_preferences == (
            Preference.PrefersLeft,
            Preference.Indifferent,
        )
        assert w.strict_branches == (0,)
        assert w.compound_preference is Preference.Indifferent
        assert w.left_compound.branches == (
            Branch(F(2), F(1, 2)),
            Branch(F(3), F(1, 2)),
        )
        assert w.right_compound.branches == (
            Branch(F(1), F(1, 2)),
            Branch(F(3), F(1, 2)),
        )
        replay_witness(OPT, TIE_AT_THE_TOP, w)

    def test_mean_maximiser_passes_the_same_scenario(self):
        report = check_diachronic(DTBR, TIE_AT_THE_TOP)
        assert report.verdict is Verdict.SATISFIED
        assert report.witness is None

    def test_universal_indifference_passes_the_same_scenario(self):
        assert check_diachronic(STOIC, TIE_AT_THE_TOP).verdict is Verdict.SATISFIED

    def test_spread_ranker_can_reverse_indifferent_descendants(self):
        # Both descendants are indifferent between their options, yet
        # mixing makes the second compound tighter, so it wins strictly.
        h1 = Game.of("h1", ("9/2", F(3, 4)), ("13/2", F(1, 4)))
        h1p = Game.of("h1p", (4, F(1, 2)), (6, F(1, 2)))
        h2 = Game.of("h2", (-2, F(1, 2)), (5, F(1, 2)))
        scenario = DiachronicScenario(FLIP, ((h1, h1p), (h2, h2)))
        report = check_diachronic(EGAL, scenario)
        assert report.verdict is Verdict.VIOLATED
        w = report.witness
        assert w.clause == "i"
        assert w.strict_branches == ()
        assert w.descendant_preferences == (
            Preference.Indifferent,
            Preference.Indifferent,
        )
        assert w.compound_preference is Preference.PrefersRight
        replay_witness(EGAL, scenario, w)

    def test_weak_clause_takes_precedence_when_both_fail(self):
        # Descendant 1 strictly prefers its first option (same mean,
        # tighter spread), but after mixing the second compound is
        # tighter overall: both clauses fail, and the weak one is blamed.
        h1 = Game.of("h1", (8, F(1, 4)), ("32/3", F(3, 4)))
        h1p = Game.of("h1p", (7, F(1, 7)), ("21/2", F(6, 7)))
        zero = Game.of("zero", (0, 1))
        scenario = DiachronicScenario(FLIP, ((h1, h1p), (zero, zero)))
        assert compare(EGAL, h1, h1p) is Preference.PrefersLeft
        report = check_diachronic(EGAL, scenario)
        assert report.verdict is Verdict.VIOLATED
        assert report.witness.clause == "i"
        assert report.witness.strict_branches == (0,)
        assert report.witness.compound_preference is Preference.PrefersRight
        replay_witness(EGAL, scenario, report.witness)

    def test_zero_weight_root_branch_is_rejected(self):
        root = Game.of("root", (0, 1), (0, 0))
        with pytest.raises(ScenarioError):
            DiachronicScenario(root, ((PRIZE2, PRIZE2), (PRIZE3, PRIZE3)))

    def test_option_count_must_match_root_branches(self):
        with pytest.raises(ScenarioError):
            DiachronicScenario(FLIP, ((PRIZE2, PRIZE2),))

    def test_invalid_game_inside_scenario_is_reported(self):
        bad = Game("bad", (Branch(F(1), F(1, 2)),))
        scenario = DiachronicScenario(FLIP, ((bad, PRIZE2), (PRIZE3, PRIZE3)))
        with pytest.raises(WeightSumError):
            check_diachronic(OPT, scenario)

    def test_invalid_second_option_is_reported(self):
        bad = Game("bad", (Branch(F(1), F(1, 2)),))
        scenario = DiachronicScenario(FLIP, ((PRIZE2, PRIZE2), (PRIZE3, bad)))
        with pytest.raises(WeightSumError, match="'bad'"):
            check_diachronic(OPT, scenario)

    def test_an_invalid_root_is_reported_before_an_invalid_first_option(self):
        root = Game("root", (Branch(F(0), F(1, 2)), Branch(F(0), F(1, 4))))
        bad = Game("bad", (Branch(F(1), F(2)),))
        scenario = DiachronicScenario(root, ((bad, PRIZE2), (PRIZE3, PRIZE3)))
        with pytest.raises(WeightSumError, match="'root'"):
            check_diachronic(OPT, scenario)

    def test_every_first_option_is_validated_before_any_second(self):
        # The invalid second option sits on an earlier branch than the
        # invalid first option, and still loses.
        first = Game("bad_first", (Branch(F(1), F(1, 2)),))
        second = Game("bad_second", (Branch(F(1), F(2)),))
        scenario = DiachronicScenario(FLIP, ((PRIZE2, second), (first, PRIZE3)))
        with pytest.raises(WeightSumError, match="'bad_first'"):
            check_diachronic(OPT, scenario)

    def test_a_settled_verdict_does_not_skip_validation(self):
        # Branch 0's descendant prefers its second option, which settles the
        # verdict; branch 1's invalid second option must still raise.
        bad = Game("bad", (Branch(F(1), F(1, 2)),))
        scenario = DiachronicScenario(FLIP, ((CERTAIN1, PRIZE3), (PRIZE2, bad)))
        assert compare(OPT, CERTAIN1, PRIZE3) is Preference.PrefersRight
        with pytest.raises(WeightSumError, match="'bad'"):
            check_diachronic(OPT, scenario)

    def test_root_without_branches_is_an_empty_game(self):
        scenario = DiachronicScenario(Game("e", ()), ())
        with pytest.raises(EmptyGameError, match="^game 'e' has no branches$"):
            check_diachronic(OPT, scenario)

    @given(st.data())
    @settings(max_examples=60)
    def test_mean_maximiser_always_satisfies(self, data):
        scenario = data.draw(_scenarios())
        report = check_diachronic(DTBR, scenario)
        assert report.verdict is Verdict.SATISFIED

    @given(st.data())
    @settings(max_examples=60)
    def test_universal_indifference_always_satisfies(self, data):
        scenario = data.draw(_scenarios())
        assert check_diachronic(STOIC, scenario).verdict is Verdict.SATISFIED

    @given(st.data())
    @settings(max_examples=60)
    def test_violation_witnesses_replay(self, data):
        agent = data.draw(st.sampled_from(AGENTS))
        scenario = data.draw(_scenarios())
        report = check_diachronic(agent, scenario)
        if report.verdict is Verdict.VIOLATED:
            replay_witness(agent, scenario, report.witness)
        else:
            assert report.witness is None


@st.composite
def _scenarios(draw):
    root = draw(games(name="root", max_branches=3, allow_zero_weight=False))
    options = tuple(
        (
            draw(games(name=f"o{i}a", max_branches=3)),
            draw(games(name=f"o{i}b", max_branches=3)),
        )
        for i in range(len(root.branches))
    )
    return DiachronicScenario(root, options)


ALPHABET01 = RewardAlphabet.of([0, 1])
SURE1 = Game.of("sure1", (1, 1))
NEARLY_SURE0 = Game.of("nearly0", (1, 0), (0, 1))
DELTAS = (F(1, 2), F(1, 4), F(1, 8), F(1, 16))


class TestContinuity:
    def test_optimist_preference_collapses_at_every_radius(self):
        report = check_continuity(
            OPT, SURE1, NEARLY_SURE0, ALPHABET01, DELTAS, samples_per_delta=4, seed=7
        )
        assert report.axiom == "continuity"
        assert report.verdict is Verdict.VIOLATED
        levels = report.witness.levels
        assert tuple(level.delta for level in levels) == DELTAS
        assert all(level.falsified for level in levels)
        assert report.witness.smallest_falsified().delta == F(1, 16)

    def test_falsifying_pairs_actually_falsify(self):
        report = check_continuity(
            OPT, SURE1, NEARLY_SURE0, ALPHABET01, DELTAS, samples_per_delta=4, seed=7
        )
        for level in report.witness.levels:
            lp, rp = level.left_perturbed, level.right_perturbed
            validate_game(lp)
            validate_game(rp)
            assert game_distance(SURE1, lp, ALPHABET01) <= level.delta
            assert game_distance(NEARLY_SURE0, rp, ALPHABET01) <= level.delta
            assert compare(OPT, lp, rp) is level.preference
            assert level.preference is not Preference.PrefersLeft

    def test_mean_preference_survives_small_radii(self):
        report = check_continuity(
            DTBR, SURE1, NEARLY_SURE0, ALPHABET01, DELTAS, samples_per_delta=4, seed=7
        )
        assert report.verdict is Verdict.NO_VIOLATION_FOUND
        falsified = [level.falsified for level in report.witness.levels]
        # moving half the weight can equalise the means, a quarter cannot
        assert falsified == [True, False, False, False]

    def test_requires_a_strict_preference(self):
        with pytest.raises(NotStrictPreferenceError):
            check_continuity(
                STOIC, SURE1, NEARLY_SURE0, ALPHABET01, DELTAS, 4, 7
            )
        with pytest.raises(NotStrictPreferenceError):
            check_continuity(
                DTBR, NEARLY_SURE0, SURE1, ALPHABET01, DELTAS, 4, 7
            )

    def test_delta_and_sample_validation(self):
        with pytest.raises(ValueError):
            check_continuity(OPT, SURE1, NEARLY_SURE0, ALPHABET01, (), 4, 7)
        with pytest.raises(ValueError):
            check_continuity(
                OPT, SURE1, NEARLY_SURE0, ALPHABET01, (F(1, 2), F(0)), 4, 7
            )
        with pytest.raises(ValueError):
            check_continuity(
                OPT, SURE1, NEARLY_SURE0, ALPHABET01, (F(1, 4), F(1, 4)), 4, 7
            )
        with pytest.raises(ValueError):
            check_continuity(
                OPT, SURE1, NEARLY_SURE0, ALPHABET01, DELTAS, 0, 7
            )

    def test_same_seed_same_report(self):
        runs = [
            check_continuity(
                OPT, SURE1, NEARLY_SURE0, ALPHABET01, DELTAS, 6, seed=123
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_verdict_is_falsification_only(self):
        # a clear gap that no probe can close: certain 1 versus certain 0
        # on a wide alphabet, tiny radius
        sure0 = Game.of("sure0", (0, 1))
        report = check_continuity(
            DTBR, SURE1, sure0, ALPHABET01, (F(1, 100),), 8, seed=5
        )
        assert report.verdict is Verdict.NO_VIOLATION_FOUND
        assert report.witness.smallest_falsified() is None


HEADS_BET = Game.of("heads_bet", (1, F(1, 2)), (-2, F(1, 2)))
TAILS_BET = Game.of("tails_bet", (-2, F(1, 2)), (1, F(1, 2)))


class TestDutchBook:
    def test_mirror_coin_bets_verdicts(self):
        report = analyze_dutch_book(OPT, (HEADS_BET, TAILS_BET))
        assert report.sure_loss
        assert report.combined.branches == (
            Branch(F(-1), F(1, 2)),
            Branch(F(-1), F(1, 2)),
        )
        assert report.individual_preferences == (
            Preference.PrefersLeft,
            Preference.PrefersLeft,
        )
        # the package as a whole is refused, so no exposure
        assert report.combined_preference is Preference.PrefersRight
        assert not report.exposure
        assert not report.weak_exposure

    def test_mean_maximiser_refuses_each_bet(self):
        report = analyze_dutch_book(DTBR, (HEADS_BET, TAILS_BET))
        assert report.individual_preferences == (
            Preference.PrefersRight,
            Preference.PrefersRight,
        )
        assert report.sure_loss
        assert not report.exposure
        assert not report.weak_exposure

    def test_universal_indifference_is_weakly_exposed(self):
        report = analyze_dutch_book(STOIC, (HEADS_BET, TAILS_BET))
        assert report.sure_loss
        assert not report.exposure
        assert report.weak_exposure

    def test_flags_are_order_insensitive(self):
        one = analyze_dutch_book(OPT, (HEADS_BET, TAILS_BET))
        two = analyze_dutch_book(OPT, (TAILS_BET, HEADS_BET))
        assert (one.sure_loss, one.exposure, one.weak_exposure) == (
            two.sure_loss,
            two.exposure,
            two.weak_exposure,
        )

    def test_profitable_package_is_not_a_sure_loss(self):
        win = Game.of("win", (3, F(1, 2)), (-1, F(1, 2)))
        report = analyze_dutch_book(DTBR, (win,))
        assert not report.sure_loss
        assert not report.exposure

    def test_null_game_is_synthesised_on_the_shared_event(self):
        report = analyze_dutch_book(OPT, (HEADS_BET, TAILS_BET))
        assert report.null.name == "null"
        assert [b.weight for b in report.null.branches] == [F(1, 2), F(1, 2)]
        assert all(b.reward == 0 for b in report.null.branches)

    def test_games_must_share_the_event(self):
        lopsided = Game.of("lop", (1, F(1, 3)), (-2, F(2, 3)))
        with pytest.raises(EventMismatchError):
            analyze_dutch_book(OPT, (HEADS_BET, lopsided))

    def test_empty_package_rejected(self):
        with pytest.raises(ValueError):
            analyze_dutch_book(OPT, ())

    @given(st.data())
    @settings(max_examples=80)
    def test_no_built_in_agent_is_strictly_exposed(self, data):
        base = data.draw(games(name="base", max_branches=3))
        weights = [b.weight for b in base.branches]
        count = data.draw(st.integers(1, 3))
        rewards = st.integers(-5, 5)
        package = [base] + [
            Game(
                f"g{k}",
                tuple(
                    Branch(F(data.draw(rewards)), w) for w in weights
                ),
            )
            for k in range(count - 1)
        ]
        agent = data.draw(st.sampled_from(AGENTS))
        assert not analyze_dutch_book(agent, package).exposure


def test_diachronic_flattens_only_for_a_witness(monkeypatch):
    import branchgames.axioms as axioms

    flattened, validated = [], []

    def counting_flatten(compound, name=None):
        flattened.append(name)
        return flatten(compound, name)

    def counting_validate(game):
        validated.append(game.name)
        validate_game(game)

    def no_compare(agent, left, right):
        raise AssertionError("check_diachronic ranks on composed summaries")

    monkeypatch.setattr(axioms, "flatten", counting_flatten)
    monkeypatch.setattr(axioms, "validate_game", counting_validate)
    monkeypatch.setattr(axioms, "compare", no_compare)
    assert check_diachronic(DTBR, TIE_AT_THE_TOP).verdict is Verdict.SATISFIED
    assert flattened == []
    # The root once, then every first option, then every second option.
    assert validated == ["flip", "prize2", "prize3", "certain1", "prize3"]
    assert check_diachronic(OPT, TIE_AT_THE_TOP).verdict is Verdict.VIOLATED
    assert flattened == ["compound_first", "compound_second"]


def test_continuity_refuses_a_candidate_outside_the_radius(monkeypatch):
    import branchgames.axioms as axioms

    original = axioms._moves

    def with_a_stray(stray):
        def moves(vector, limit, rng, samples):
            return original(vector, limit, rng, samples) + [stray(limit)]

        return moves

    # SURE1's weights over {0, 1} are (0, D) and every radius is at most
    # 1/2: moving limit + 1 out of entry 1 keeps both entries in [0, D] but
    # leaves the radius; moving 1 out of the empty entry 0 stays inside the
    # radius but drives that entry below 0.
    strays = (lambda limit: ("far", 1, 0, limit + 1), lambda limit: ("below", 0, 1, 1))
    for stray in strays:
        monkeypatch.setattr(axioms, "_moves", with_a_stray(stray))
        with pytest.raises(RuntimeError, match="outside the radius"):
            check_continuity(OPT, SURE1, NEARLY_SURE0, ALPHABET01, DELTAS, 4, seed=7)


@pytest.mark.parametrize(
    "agent, right, deltas, falsified",
    [
        (OPT, NEARLY_SURE0, DELTAS, [True, True, True, True]),
        (DTBR, NEARLY_SURE0, DELTAS, [True, False, False, False]),
        (DTBR, Game.of("sure0", (0, 1)), DELTAS[1:], [False, False, False]),
    ],
)
def test_continuity_builds_games_only_for_witnesses(
    monkeypatch, agent, right, deltas, falsified
):
    import branchgames.axioms as axioms

    built = []

    def counting_game(name, branches):
        built.append(name)
        return Game(name, branches)

    monkeypatch.setattr(axioms, "Game", counting_game)
    report = check_continuity(agent, SURE1, right, ALPHABET01, deltas, 4, seed=7)
    levels = report.witness.levels
    assert [level.falsified for level in levels] == falsified
    for level in levels:
        names = [name for name in built if name.endswith(f"@{level.delta}]")]
        witnesses = (level.left_perturbed, level.right_perturbed)
        # A falsified radius builds its witness pair, except an original game.
        assert names == [g.name for g in witnesses if g not in (None, SURE1, right)]
    assert len(built) <= 2 * sum(falsified)
