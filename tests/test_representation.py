"""Utility representability: exact feasibility, certificates, normalization."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchgames import (
    Agent,
    AlphabetMismatchError,
    Branch,
    ComparisonConstraint,
    DegenerateNormalizationError,
    Game,
    InconsistentPreorderError,
    Preference,
    PreferenceInstance,
    RewardAlphabet,
    WeightSumError,
    build_instance,
    fit_utility,
    normalize_fit,
)
from branchgames.representation import _check_preorder
from conftest import games
from test_fit_oracle import (
    reference_constraint_rows,
    reference_equality_rank,
    reference_solve_rows,
    verify_fit,
)

F = Fraction

DTBR = Agent.of("ev", "dtbr")
EGAL = Agent.of("egal", "egalitarian")
OPT = Agent.of("opt", "optimist")
STOIC = Agent.of("stoic", "stoic")

ALPHA01 = RewardAlphabet.of([0, 1])
ALPHA012 = RewardAlphabet.of([0, 1, 2])

SURE0 = Game.of("sure0", (0, 1))
SURE1 = Game.of("sure1", (1, 1))
SURE2 = Game.of("sure2", (2, 1))
MIX02 = Game.of("mix02", (0, F(1, 2)), (2, F(1, 2)))

# the trio that defeats a best-outcome ranker: a sure win, the same win
# at weight zero, and the same win at weight one half
WIN = Game.of("win", (1, 1))
WIN_AT_ZERO = Game.of("win_at_zero", (1, 0), (0, 1))
WIN_AT_HALF = Game.of("win_at_half", (1, F(1, 2)), (0, F(1, 2)))


class TestBuildInstance:
    def test_matrix_is_total_and_antisymmetric(self):
        inst = build_instance(DTBR, (SURE0, SURE1, MIX02), ALPHA012)
        n = len(inst.games)
        for i in range(n):
            assert inst.comparisons[i][i] is Preference.Indifferent
            for j in range(n):
                assert inst.comparisons[i][j] is inst.comparisons[j][i].flipped()

    def test_constraint_list_covers_each_unordered_pair_once(self):
        inst = build_instance(DTBR, (SURE0, SURE1, SURE2), ALPHA012)
        pairs = [(c.left, c.right) for c in inst.constraint_list()]
        assert pairs == [(0, 1), (0, 2), (1, 2)]

    def test_rewards_outside_the_alphabet_are_rejected(self):
        with pytest.raises(AlphabetMismatchError):
            build_instance(DTBR, (SURE0, SURE2), ALPHA01)
        message = r"^reward 7 not in alphabet \{0, 1\}$"
        # A zero-weight branch still names its reward.
        ghost = Game.of("ghost", (0, 1), (7, 0))
        with pytest.raises(AlphabetMismatchError, match=message):
            build_instance(DTBR, (SURE0, ghost), ALPHA01)
        # An instance built by hand is checked when it is built, whatever
        # its matrix.
        same, right, left = (
            Preference.Indifferent,
            Preference.PrefersRight,
            Preference.PrefersLeft,
        )
        for game, matrix in (
            (Game.of("sure7", (7, 1)), ((same, right), (left, same))),
            (ghost, ((same, same), (same, same))),
            (ghost, ((same, left), (left, same))),
        ):
            with pytest.raises(AlphabetMismatchError, match=message):
                PreferenceInstance(ALPHA01, (SURE0, game), matrix)
        # An invalid game is refused when built, before any alphabet sees it.
        message = "^game 'broken': weights sum to 1/2, expected 1$"
        with pytest.raises(WeightSumError, match=message):
            Game("broken", (Branch(F(7), F(1, 2)),))

    def test_games_are_checked_one_at_a_time_in_order(self):
        # Of two games outside the alphabet, the first one's error is raised.
        seven = Game.of("seven", (7, 1))
        eight = Game.of("eight", (8, 1))
        with pytest.raises(AlphabetMismatchError, match=r"^reward 7 not in"):
            build_instance(DTBR, (seven, eight), ALPHA01)
        with pytest.raises(AlphabetMismatchError, match=r"^reward 8 not in"):
            build_instance(DTBR, (eight, seven), ALPHA01)

    def test_the_integer_form_is_no_part_of_equality_hashing_or_repr(self):
        inst = build_instance(DTBR, (SURE0, MIX02), ALPHA012)
        assert inst.integer_form == (2, [[2, 0, 0], [1, 0, 1]])
        other = build_instance(DTBR, (SURE0, MIX02), ALPHA012)
        object.__setattr__(other, "integer_form", (1, []))
        assert inst == other
        assert hash(inst) == hash(other)
        assert repr(inst) == repr(other)
        assert "integer_form" not in repr(inst)

    def test_an_instance_built_by_hand_fits_as_the_built_one(self):
        games = (SURE0, SURE1, SURE2, MIX02, WIN_AT_HALF)
        for agent in (DTBR, EGAL, OPT, STOIC):
            built = build_instance(agent, games, ALPHA012)
            by_hand = PreferenceInstance(ALPHA012, games, built.comparisons)
            assert fit_utility(by_hand) == fit_utility(built)


class TestFeasibleFits:
    def test_mean_ranking_pins_the_midpoint(self):
        inst = build_instance(DTBR, (SURE0, SURE1, SURE2, MIX02), ALPHA012)
        fit = fit_utility(inst)
        assert fit.feasible
        assert fit.certificate is None
        assert verify_fit(inst, fit.u)
        # one indifference ties the midpoint, two strict gaps use up the
        # affine freedom: the fit is unique up to positive rescaling
        assert fit.unique is True
        normalized = normalize_fit(fit, F(0), F(2))
        assert normalized.u == {F(0): F(0), F(1): F(1, 2), F(2): F(1)}

    def test_normalization_is_idempotent(self):
        inst = build_instance(DTBR, (SURE0, SURE1, SURE2, MIX02), ALPHA012)
        once = normalize_fit(fit_utility(inst), F(0), F(2))
        twice = normalize_fit(once, F(0), F(2))
        assert once.u == twice.u

    def test_underdetermined_fit_is_flagged_non_unique(self):
        inst = build_instance(DTBR, (SURE0, SURE2), ALPHA012)
        fit = fit_utility(inst)
        assert fit.feasible
        assert verify_fit(inst, fit.u)
        assert fit.unique is False

    def test_indifference_everywhere_forces_a_constant(self):
        inst = build_instance(STOIC, (SURE0, SURE1, SURE2, MIX02), ALPHA012)
        fit = fit_utility(inst)
        assert fit.feasible
        assert len(set(fit.u.values())) == 1
        assert verify_fit(inst, fit.u)
        with pytest.raises(DegenerateNormalizationError):
            normalize_fit(fit, F(0), F(2))

    def test_positive_affine_rescaling_preserves_a_fit(self):
        inst = build_instance(DTBR, (SURE0, SURE1, SURE2, MIX02), ALPHA012)
        fit = fit_utility(inst)
        for a, b in ((F(3), F(-7)), (F(1, 5), F(2, 3))):
            scaled = {r: a * v + b for r, v in fit.u.items()}
            assert verify_fit(inst, scaled)
        flipped = {r: -v for r, v in fit.u.items()}
        assert not verify_fit(inst, flipped)


class TestInfeasibleFits:
    def test_best_outcome_ranking_has_no_utility(self):
        inst = build_instance(OPT, (WIN, WIN_AT_ZERO, WIN_AT_HALF), ALPHA01)
        fit = fit_utility(inst)
        assert not fit.feasible
        assert fit.u is None
        assert fit.unique is None
        assert fit.certificate == (
            ComparisonConstraint(0, 1, Preference.PrefersLeft),
            ComparisonConstraint(0, 2, Preference.Indifferent),
        )

    def test_certificate_is_infeasible_on_its_own(self):
        inst = build_instance(OPT, (WIN, WIN_AT_ZERO, WIN_AT_HALF), ALPHA01)
        fit = fit_utility(inst)
        rows = reference_constraint_rows(inst, fit.certificate)
        assert reference_solve_rows(rows, len(ALPHA01)) is None

    def test_certificate_is_minimal(self):
        inst = build_instance(OPT, (WIN, WIN_AT_ZERO, WIN_AT_HALF), ALPHA01)
        fit = fit_utility(inst)
        for dropped in range(len(fit.certificate)):
            kept = tuple(
                c for k, c in enumerate(fit.certificate) if k != dropped
            )
            rows = reference_constraint_rows(inst, kept)
            assert reference_solve_rows(rows, len(ALPHA01)) is not None

    def test_no_constant_utility_matches_a_strict_preference(self):
        inst = build_instance(DTBR, (SURE0, SURE2), ALPHA012)
        constant = {r: F(5) for r in ALPHA012}
        assert not verify_fit(inst, constant)

    def test_verify_rejects_a_partial_utility(self):
        inst = build_instance(DTBR, (SURE0, SURE2), ALPHA012)
        assert not verify_fit(inst, {F(0): F(0), F(2): F(1)})


class TestPreorderValidation:
    def test_non_indifferent_diagonal_is_rejected(self):
        matrix = ((Preference.PrefersLeft,),)
        inst = PreferenceInstance(ALPHA01, (WIN,), matrix)
        message = (
            "'win' vs 'win' reads PrefersLeft, but their strict win counts "
            "1 and 1 call for Indifferent"
        )
        with pytest.raises(InconsistentPreorderError, match=f"^{message}$"):
            fit_utility(inst)

    def test_asymmetric_matrix_is_rejected(self):
        matrix = (
            (Preference.Indifferent, Preference.PrefersLeft),
            (Preference.PrefersLeft, Preference.Indifferent),
        )
        inst = PreferenceInstance(ALPHA01, (WIN, WIN_AT_HALF), matrix)
        message = (
            "'win' vs 'win_at_half' reads PrefersLeft, but their strict win "
            "counts 1 and 1 call for Indifferent"
        )
        with pytest.raises(InconsistentPreorderError, match=f"^{message}$"):
            fit_utility(inst)

    def test_intransitive_matrix_is_rejected(self):
        left, right, same = (
            Preference.PrefersLeft,
            Preference.PrefersRight,
            Preference.Indifferent,
        )
        # a beats b, b beats c, c beats a
        matrix = (
            (same, left, right),
            (right, same, left),
            (left, right, same),
        )
        inst = PreferenceInstance(
            ALPHA01, (WIN, WIN_AT_HALF, WIN_AT_ZERO), matrix
        )
        # every game wins once, so the counts call every pair a tie
        message = (
            "'win' vs 'win_at_half' reads PrefersLeft, but their strict win "
            "counts 1 and 1 call for Indifferent"
        )
        with pytest.raises(InconsistentPreorderError, match=f"^{message}$"):
            fit_utility(inst)

    def test_non_square_matrix_is_rejected(self):
        matrix = ((Preference.Indifferent,),)
        inst = PreferenceInstance(ALPHA01, (WIN, WIN_AT_HALF), matrix)
        with pytest.raises(
            InconsistentPreorderError, match="^comparison matrix is not square$"
        ):
            fit_utility(inst)


def reference_is_total_preorder(m) -> bool:
    """The preorder laws, checked one by one."""
    n = len(m)
    at_least = [[p is not Preference.PrefersRight for p in row] for row in m]
    return (
        all(m[i][i] is Preference.Indifferent for i in range(n))
        and all(m[i][j] is m[j][i].flipped() for i in range(n) for j in range(n))
        and all(
            at_least[i][k]
            for i, j, k in itertools.product(range(n), repeat=3)
            if at_least[i][j] and at_least[j][k]
        )
    )


_IMPLIED = {
    1: Preference.PrefersLeft,
    0: Preference.Indifferent,
    -1: Preference.PrefersRight,
}


def reference_check_preorder(instance):
    """``_check_preorder`` entry by entry: each verdict against the win counts."""
    games = instance.games
    m = instance.comparisons
    n = len(games)
    if len(m) != n or any(len(row) != n for row in m):
        raise InconsistentPreorderError("comparison matrix is not square")
    wins = [sum(p is Preference.PrefersLeft for p in row) for row in m]
    for i, row in enumerate(m):
        for j, verdict in enumerate(row):
            implied = _IMPLIED[(wins[i] > wins[j]) - (wins[i] < wins[j])]
            if verdict is not implied:
                raise InconsistentPreorderError(
                    f"{games[i].name!r} vs {games[j].name!r} reads "
                    f"{verdict.value}, but their strict win counts "
                    f"{wins[i]} and {wins[j]} call for {implied.value}"
                )
    return sorted(range(n), key=lambda i: -wins[i])


def _checked(check, instance):
    """The order the check returns, or the text of the error it raises."""
    try:
        return check(instance)
    except InconsistentPreorderError as error:
        return str(error)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_win_counts_decide_every_small_matrix(n):
    # The one win-count check accepts exactly the matrices that satisfy the
    # preorder laws, and orders the games by the relation they define.  It
    # returns what the entry-by-entry check returns and words its errors
    # alike, with rows given as tuples or as lists.
    trio = (WIN, WIN_AT_HALF, WIN_AT_ZERO)[:n]
    for entries in itertools.product(Preference, repeat=n * n):
        m = tuple(entries[i * n : (i + 1) * n] for i in range(n))
        for rows in (m, [list(row) for row in m]):
            instance = PreferenceInstance(ALPHA01, trio, rows)
            outcome = _checked(_check_preorder, instance)
            assert outcome == _checked(reference_check_preorder, instance), m
        expected = reference_is_total_preorder(m)
        if isinstance(outcome, str):
            assert not expected, m
            continue
        assert expected, m
        assert sorted(outcome) == list(range(n))
        for a, b in zip(outcome, outcome[1:]):
            assert m[a][b] is not Preference.PrefersRight, m


def test_first_bad_entry_below_row_zero_is_reported():
    left, right, same = (
        Preference.PrefersLeft,
        Preference.PrefersRight,
        Preference.Indifferent,
    )
    games = tuple(Game(f"g{k}", SURE0.branches) for k in range(5))
    # Rows 0 and 1 agree with the win counts 4, 3, 1, 2, 1.  Row 2 reads
    # g2 and g3 as tied, but g3 claims a win over g2.
    matrix = [
        [same, left, left, left, left],
        [right, same, left, left, left],
        [right, right, same, same, left],
        [right, right, left, same, left],
        [right, left, right, right, same],
    ]
    instance = PreferenceInstance(ALPHA01, games, matrix)
    outcome = _checked(_check_preorder, instance)
    assert outcome == _checked(reference_check_preorder, instance)
    assert outcome.startswith("'g2' vs 'g3' reads Indifferent"), outcome


class TestNormalizeErrors:
    def test_infeasible_fit_cannot_be_normalized(self):
        inst = build_instance(OPT, (WIN, WIN_AT_ZERO, WIN_AT_HALF), ALPHA01)
        with pytest.raises(ValueError):
            normalize_fit(fit_utility(inst), F(0), F(1))

    def test_anchors_must_be_in_the_alphabet(self):
        inst = build_instance(DTBR, (SURE0, SURE2), ALPHA012)
        with pytest.raises(ValueError):
            normalize_fit(fit_utility(inst), F(0), F(7))

    def test_reversed_anchors_are_degenerate(self):
        inst = build_instance(DTBR, (SURE0, SURE1, SURE2, MIX02), ALPHA012)
        with pytest.raises(DegenerateNormalizationError):
            normalize_fit(fit_utility(inst), F(2), F(0))


SMALL_REWARDS = (F(0), F(1), F(2))


@st.composite
def thirds_and_quarters(draw):
    """An alphabet of at most five rewards and at most eight games over it.

    Each game's weights are all thirds or all quarters.
    """
    rewards = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=5, unique=True))
    alphabet = RewardAlphabet.of(rewards)
    out = []
    for i in range(draw(st.integers(1, 8))):
        whole = draw(st.sampled_from((3, 4)))
        cuts = sorted(draw(st.sets(st.integers(1, whole - 1))))
        parts = [b - a for a, b in zip([0, *cuts], [*cuts, whole])]
        branches = tuple(
            Branch(draw(st.sampled_from(alphabet.rewards)), F(part, whole))
            for part in parts
        )
        out.append(Game(f"g{i}", branches))
    return alphabet, tuple(out)


class TestFitProperties:
    @given(
        st.sampled_from((DTBR, EGAL, OPT, STOIC)),
        st.lists(
            games(name="g", max_branches=3, rewards=SMALL_REWARDS),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=60)
    def test_fit_outcomes_are_self_certifying(self, agent, game_list):
        named = tuple(
            Game(f"g{i}", g.branches) for i, g in enumerate(game_list)
        )
        inst = build_instance(agent, named, ALPHA012)
        fit = fit_utility(inst)
        if fit.feasible:
            assert verify_fit(inst, fit.u)
            assert fit.certificate is None
        else:
            assert fit.certificate
            rows = reference_constraint_rows(inst, fit.certificate)
            assert reference_solve_rows(rows, len(ALPHA012)) is None
            for dropped in range(len(fit.certificate)):
                kept = tuple(
                    c for k, c in enumerate(fit.certificate) if k != dropped
                )
                assert reference_solve_rows(
                    reference_constraint_rows(inst, kept), len(ALPHA012)
                ) is not None

    @given(st.sampled_from((DTBR, STOIC)), thirds_and_quarters())
    def test_mean_and_indifferent_rankings_always_fit(self, agent, drawn):
        # Expected value is an expected utility and so is a constant, so
        # dtbr and stoic matrices are always representable.
        alphabet, game_list = drawn
        inst = build_instance(agent, game_list, alphabet)
        fit = fit_utility(inst)
        assert fit.feasible
        assert verify_fit(inst, fit.u)

    @given(st.lists(st.integers(-4, 4), min_size=2, max_size=5))
    @settings(max_examples=40)
    def test_certainty_ladder_always_fits_the_mean_ranking(self, rewards):
        distinct = sorted(set(F(r) for r in rewards))
        if len(distinct) < 2:
            distinct = [F(0), F(1)]
        alphabet = RewardAlphabet.of(distinct)
        ladder = tuple(
            Game(f"sure{i}", (Branch(r, F(1)),)) for i, r in enumerate(distinct)
        )
        inst = build_instance(DTBR, ladder, alphabet)
        fit = fit_utility(inst)
        assert fit.feasible
        assert verify_fit(inst, fit.u)
        # ladder order forces strictly increasing utility
        values = [fit.u[r] for r in distinct]
        assert all(a < b for a, b in zip(values, values[1:]))


def _thirds_games(seed, rewards, count):
    """Seeded games of one to three branches, every weight in thirds."""
    rng = random.Random(seed)
    splits = {1: ((3,),), 2: ((1, 2), (2, 1)), 3: ((1, 1, 1),)}
    out = []
    for i in range(count):
        size = rng.randint(1, 3)
        chosen = rng.sample(rewards, size)
        parts = rng.choice(splits[size])
        out.append(
            Game(f"g{i}", tuple(Branch(r, F(p, 3)) for r, p in zip(chosen, parts)))
        )
    return tuple(out)


class TestLargeInstances:
    """Shapes where elimination over every pairwise row used to blow up."""

    @pytest.mark.parametrize("agent", (STOIC, DTBR), ids=("stoic", "dtbr"))
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_eight_rewards_fourteen_games_fit(self, agent, seed):
        rewards = [F(r) for r in range(8)]
        alphabet = RewardAlphabet.of(rewards)
        inst = build_instance(agent, _thirds_games(seed, rewards, 14), alphabet)
        fit = fit_utility(inst)
        assert fit.feasible
        assert verify_fit(inst, fit.u)
        constraints = inst.constraint_list()
        has_strict = any(
            c.preference is not Preference.Indifferent for c in constraints
        )
        expected_rank = len(alphabet) - (2 if has_strict else 1)
        rank = reference_equality_rank(inst, constraints)
        assert fit.unique == (rank == expected_rank)

    def test_optimist_six_by_sixteen_certificate_is_irreducible(self):
        rewards = [F(r) for r in range(6)]
        alphabet = RewardAlphabet.of(rewards)
        inst = build_instance(OPT, _thirds_games(0, rewards, 16), alphabet)
        fit = fit_utility(inst)
        assert not fit.feasible
        certificate = fit.certificate
        rows = reference_constraint_rows(inst, certificate)
        assert reference_solve_rows(rows, len(alphabet)) is None
        for dropped in range(len(certificate)):
            kept = certificate[:dropped] + certificate[dropped + 1 :]
            rows = reference_constraint_rows(inst, kept)
            assert reference_solve_rows(rows, len(alphabet)) is not None
