"""Grid enumeration: counts, ordering, caps, and violation hunting."""

import dataclasses
import subprocess
import sys
from fractions import Fraction

import pytest

from branchgames import (
    Agent,
    AxiomReport,
    GridSpec,
    GridTooLargeError,
    Verdict,
    check_diachronic,
    enumerate_scenarios,
    find_violation,
    scenario_count,
)
from branchgames import agents, cli, search
from branchgames.search import CAP_ENV_VAR, DEFAULT_SCENARIO_CAP, _grid_games
from conftest import child_env

F = Fraction

DTBR = Agent.of("ev", "dtbr")
EGAL = Agent.of("egal", "egalitarian")
OPT = Agent.of("opt", "optimist")
STOIC = Agent.of("stoic", "stoic")

TINY = GridSpec.of(rewards=[0], weights=[1], max_root_branches=1, max_option_branches=1)
SMALL = GridSpec.of(
    rewards=[0, 1], weights=["1/2", 1], max_root_branches=2, max_option_branches=2
)


def _structure(game):
    return tuple((b.reward, b.weight) for b in game.branches)


def _scenario_structure(scenario):
    return (
        _structure(scenario.root),
        tuple(
            (_structure(first), _structure(second))
            for first, second in scenario.options
        ),
    )


class TestGridSpec:
    def test_menus_must_be_nonempty_and_duplicate_free(self):
        with pytest.raises(ValueError):
            GridSpec.of(rewards=[], weights=[1], max_root_branches=1, max_option_branches=1)
        with pytest.raises(ValueError):
            GridSpec.of(rewards=[0], weights=[], max_root_branches=1, max_option_branches=1)
        with pytest.raises(ValueError):
            GridSpec.of(rewards=[0, 0], weights=[1], max_root_branches=1, max_option_branches=1)
        with pytest.raises(ValueError):
            GridSpec.of(rewards=[0], weights=[1, "2/2"], max_root_branches=1, max_option_branches=1)

    def test_weights_must_be_usable(self):
        with pytest.raises(ValueError):
            GridSpec.of(rewards=[0], weights=[0, 1], max_root_branches=1, max_option_branches=1)
        with pytest.raises(ValueError):
            GridSpec.of(rewards=[0], weights=["3/2"], max_root_branches=1, max_option_branches=1)

    def test_limits_must_be_positive(self):
        with pytest.raises(ValueError):
            GridSpec.of(rewards=[0], weights=[1], max_root_branches=0, max_option_branches=1)

    def test_menu_literals_take_no_whitespace(self):
        with pytest.raises(ValueError):
            GridSpec.of(rewards=[" 1"], weights=[1], max_root_branches=1, max_option_branches=1)
        with pytest.raises(ValueError):
            GridSpec.of(rewards=[0], weights=["1\n"], max_root_branches=1, max_option_branches=1)


class TestTupleCounts:
    def test_the_spec_holds_its_tuple_counts_outside_equality_hash_and_repr(self):
        spec = GridSpec.of([0, 1], ["1/3", "2/3", 1], 3, 2)
        counts = search._weight_tuple_counts(spec.weight_grid, 3)
        assert spec.tuple_counts == tuple(counts) == (0, 1, 2, 1)
        twin = GridSpec.of([0, 1], ["1/3", "2/3", 1], 3, 2)
        object.__setattr__(twin, "tuple_counts", ())
        assert twin == spec and hash(twin) == hash(spec)
        assert repr(twin) == repr(spec) and "tuple_counts" not in repr(spec)
        # Counted up to the longest length either limit allows, and no
        # further than a tuple of the menu can sum to 1.
        assert dataclasses.replace(spec, max_root_branches=1).tuple_counts == (0, 1, 2)
        assert GridSpec.of([0], ["1/2", 1], 10**6, 1).tuple_counts == (0, 1, 1)

    def test_a_search_request_counts_its_weight_tuples_once(self, monkeypatch, capsys):
        lengths = []
        count = search._weight_tuple_counts

        def counted(grid, longest):
            lengths.append(longest)
            return count(grid, longest)

        monkeypatch.setattr(search, "_weight_tuple_counts", counted)
        argv = [
            "search", "diachronic", "agent=optimist", "rewards=0,1",
            "weights=1/2,1", "root_branches=2", "option_branches=2",
        ]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.startswith("search diachronic optimist -> found")
        assert lengths == [2]
        spec = GridSpec.of([0, 1], ["1/2", 1], 2, 2)
        assert lengths == [2, 2]
        scenario_count(spec)
        find_violation(OPT, spec)
        list(enumerate_scenarios(spec))
        assert lengths == [2, 2]
        dataclasses.replace(spec, max_option_branches=1)
        assert lengths == [2, 2, 2]

    def test_the_spec_lists_its_root_lengths_once(self):
        spec = GridSpec.of([0], ["1/100000", 1], 100000, 1)
        assert spec.root_lengths == (1, 100000)
        # Lengths without a tuple are left out, and so are lengths past the
        # root limit that the option limit still counts.
        assert GridSpec.of([0], ["1/2"], 3, 1).root_lengths == (2,)
        assert GridSpec.of([0, 1], ["1/3", "2/3", 1], 2, 3).root_lengths == (1, 2)
        twin = GridSpec.of([0], ["1/100000", 1], 100000, 1)
        object.__setattr__(twin, "root_lengths", ())
        assert twin == spec and hash(twin) == hash(spec)
        assert "root_lengths" not in repr(spec)
        assert dataclasses.replace(spec, max_root_branches=99999).root_lengths == (1,)

        class Reads(tuple):
            def __getitem__(self, index):
                read.append(index)
                return tuple.__getitem__(self, index)

        read = []
        object.__setattr__(spec, "tuple_counts", Reads(spec.tuple_counts))
        # The count reads the one option length (to skip it if empty, then
        # to count it) and the two root lengths, not each of the 100,000
        # lengths between them.
        assert scenario_count(spec) == 2
        assert sorted(read) == [1, 1, 1, 100000]

    def test_the_count_raises_rewards_only_to_option_lengths_with_a_tuple(self):
        # Of 20,000 option lengths only 1 and 20,000 hold a tuple; raising
        # the reward count to the power of every length took 0.5 s a count.
        spec = GridSpec.of([0, 1], ["1/20000", 1], 1, 20000)
        sizes = []

        class Rewards(tuple):
            def __len__(self):
                sizes.append(None)
                return tuple.__len__(self)

        object.__setattr__(spec, "reward_grid", Rewards(spec.reward_grid))
        assert scenario_count(spec) == (2 + 2**20000) ** 2
        assert len(sizes) == 2

    def test_option_games_longer_than_the_roots_are_counted_in_full(self):
        # One root, and 2 one-branch and 4 two-branch option games, so
        # 6 * 6 scenarios; counting tuples only up to the root limit would
        # leave the 2 one-branch games and 4 scenarios.
        spec = GridSpec.of([0, 1], ["1/2", 1], 1, 2)
        assert scenario_count(spec) == len(list(enumerate_scenarios(spec))) == 36


class TestEnumeration:
    def test_single_cell_grid(self):
        scenarios = list(enumerate_scenarios(TINY))
        assert len(scenarios) == scenario_count(TINY) == 1
        only = scenarios[0]
        assert _structure(only.root) == ((F(0), F(1)),)
        assert len(only.options) == 1

    def test_two_reward_single_weight_grid_in_full(self):
        spec = GridSpec.of(
            rewards=[0, 1], weights=[1], max_root_branches=1, max_option_branches=1
        )
        # one root, a two-game option pool, two slots: four scenarios
        scenarios = list(enumerate_scenarios(spec))
        assert scenario_count(spec) == len(scenarios) == 4
        seen = [
            (
                scenario.options[0][0].branches[0].reward,
                scenario.options[0][1].branches[0].reward,
            )
            for scenario in scenarios
        ]
        # odometer order: the second slot varies fastest
        assert seen == [
            (F(0), F(0)),
            (F(0), F(1)),
            (F(1), F(0)),
            (F(1), F(1)),
        ]

    def test_projected_count_matches_the_stream(self):
        assert scenario_count(SMALL) == len(list(enumerate_scenarios(SMALL)))

    def test_stream_is_deterministic(self):
        first = [_scenario_structure(s) for s in enumerate_scenarios(SMALL)]
        second = [_scenario_structure(s) for s in enumerate_scenarios(SMALL)]
        assert first == second

    def test_root_rewards_are_always_zero(self):
        for scenario in enumerate_scenarios(SMALL):
            assert all(b.reward == 0 for b in scenario.root.branches)

    def test_every_scenario_is_well_formed(self):
        # spot-check: every root weight positive, option counts line up
        for scenario in enumerate_scenarios(SMALL):
            assert len(scenario.options) == len(scenario.root.branches)
            assert all(b.weight > 0 for b in scenario.root.branches)


class TestCap:
    def test_default_cap_allows_the_small_grid(self):
        assert scenario_count(SMALL) < DEFAULT_SCENARIO_CAP

    def test_cap_env_var_is_enforced(self, monkeypatch):
        monkeypatch.setenv(CAP_ENV_VAR, "3")
        with pytest.raises(GridTooLargeError):
            list(enumerate_scenarios(SMALL))
        monkeypatch.setenv(CAP_ENV_VAR, str(scenario_count(SMALL)))
        assert sum(1 for _ in enumerate_scenarios(SMALL)) == scenario_count(SMALL)

    def test_huge_branch_limits_cost_no_more_than_the_menu_allows(self):
        # no tuple from {1/2, 1} longer than 2 sums to 1, so a limit of a
        # million branches projects and scans the same 20,880 scenarios as 2
        huge = 10**6
        for roots, options in ((huge, 2), (2, huge), (huge, huge)):
            spec = GridSpec.of([0, 1, 2], ["1/2", 1], roots, options)
            assert scenario_count(spec) == 20_880
            assert find_violation(DTBR, spec) is None

    def test_a_deep_weight_menu_builds_its_games_without_recursion(self, capsys):
        # 1000 branches of 1/1000 make the one long root; the grid holds 2
        # scenarios, and building that root must not recurse per branch
        spec = GridSpec.of([0], ["1/1000", 1], 1000, 1)
        assert scenario_count(spec) == 2
        for agent in (DTBR, EGAL, OPT, STOIC):
            assert find_violation(agent, spec) is None
        argv = [
            "search", "diachronic", "agent=dtbr", "rewards=0",
            "weights=1/1000,1", "root_branches=1000", "option_branches=1",
        ]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == (
            "search diachronic dtbr -> none (scanned 2 scenarios)\n"
        )

    def test_a_count_too_long_to_print_is_refused_as_too_large(self, monkeypatch, capsys):
        # 8,000 branches of 1/8000 make one long root: 4 + 2**16000
        # scenarios, a count of 4,817 digits, more than Python prints
        monkeypatch.delenv(CAP_ENV_VAR, raising=False)
        spec = GridSpec.of([0, 1], ["1/8000", 1], 8000, 1)
        assert scenario_count(spec) == 4 + 2**16000
        message = (
            "grid projects more than 10^4000 scenarios, over the cap of "
            f"{DEFAULT_SCENARIO_CAP} (set {CAP_ENV_VAR} to override)"
        )
        with pytest.raises(GridTooLargeError) as error:
            find_violation(DTBR, spec)
        assert str(error.value) == message
        with pytest.raises(GridTooLargeError) as error:
            next(enumerate_scenarios(spec))
        assert str(error.value) == message
        argv = [
            "search", "diachronic", "agent=dtbr", "rewards=0,1",
            "weights=1/8000,1", "root_branches=8000", "option_branches=1",
        ]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("execution error: ")
        assert err.endswith(f": {message}\n") and err.count("\n") == 1

    def test_a_count_of_4000_digits_is_printed_in_full(self, monkeypatch):
        # 4 + 2**13286 has 4,000 digits; 4 + 2**13288 has 4,001
        monkeypatch.delenv(CAP_ENV_VAR, raising=False)
        for branches, shown in ((6643, str(4 + 2**13286)), (6644, "more than 10^4000")):
            spec = GridSpec.of([0, 1], [F(1, branches), 1], branches, 1)
            with pytest.raises(GridTooLargeError) as error:
                find_violation(DTBR, spec)
            assert str(error.value).startswith(f"grid projects {shown} scenarios, ")

    def test_cap_env_var_must_be_a_positive_integer(self, monkeypatch):
        monkeypatch.setenv(CAP_ENV_VAR, "many")
        with pytest.raises(ValueError):
            list(enumerate_scenarios(SMALL))
        monkeypatch.setenv(CAP_ENV_VAR, "0")
        with pytest.raises(ValueError):
            list(enumerate_scenarios(SMALL))


class TestFindViolation:
    def test_mean_and_indifferent_agents_are_clean_on_the_small_grid(self):
        assert find_violation(DTBR, SMALL) is None
        assert find_violation(STOIC, SMALL) is None

    def test_best_outcome_agent_is_caught(self):
        hit = find_violation(OPT, SMALL)
        assert hit is not None
        assert hit.report.verdict is Verdict.VIOLATED
        # replay the hit and confirm it is the earliest one
        replay = check_diachronic(OPT, hit.scenario)
        assert replay.verdict is Verdict.VIOLATED
        for index, scenario in enumerate(enumerate_scenarios(SMALL)):
            if index == hit.index:
                assert _scenario_structure(scenario) == _scenario_structure(
                    hit.scenario
                )
                break
            assert check_diachronic(OPT, scenario).verdict is Verdict.SATISFIED

    def test_single_root_branch_scenarios_never_violate(self):
        # with one descendant the compounds inherit that descendant's
        # comparison, so any coherent agent passes
        spec = GridSpec.of(
            rewards=[0, 1, 2], weights=[1], max_root_branches=1, max_option_branches=1
        )
        for agent in (DTBR, EGAL, OPT, STOIC):
            assert find_violation(agent, spec) is None

    def test_wider_menus_catch_the_spread_ranker(self):
        spec = GridSpec.of(
            rewards=[0, 3, 4, 5],
            weights=["1/2", 1],
            max_root_branches=2,
            max_option_branches=2,
        )
        hit = find_violation(EGAL, spec)
        assert hit is not None
        assert hit.report.witness.clause == "ii"

    def test_the_optimist_trap_appears_in_its_grid(self):
        # the known two-descendant trap: (2 vs 1) beside (3 vs 3)
        spec = GridSpec.of(
            rewards=[0, 1, 2, 3],
            weights=["1/2", 1],
            max_root_branches=2,
            max_option_branches=2,
        )
        trap = (
            ((F(0), F(1, 2)), (F(0), F(1, 2))),
            (
                (((F(2), F(1)),), ((F(1), F(1)),)),
                (((F(3), F(1)),), ((F(3), F(1)),)),
            ),
        )
        stream = (_scenario_structure(s) for s in enumerate_scenarios(spec))
        assert trap in stream

    def test_option_pool_lists_small_games_first(self):
        pool = _grid_games(SMALL, SMALL.max_option_branches, SMALL.reward_grid, "O")
        sizes = [len(g.branches) for g in pool]
        assert sizes == sorted(sizes)
        # 2 one-branch games, then one even weight profile x 4 reward pairs
        assert sizes.count(1) == 2
        assert sizes.count(2) == 4

    def test_a_replay_that_disagrees_with_the_summaries_raises(self, monkeypatch):
        index = find_violation(OPT, SMALL).index

        def satisfied(agent, scenario):
            return AxiomReport("diachronic", Verdict.SATISFIED, None)

        monkeypatch.setattr(search, "check_diachronic", satisfied)
        with pytest.raises(RuntimeError, match=f"scenario {index}: summaries say violated"):
            find_violation(OPT, SMALL)


# The fold relies on every rule that reads the expected value ranking by
# it first.  The optimist's rule on egalitarian summaries does not, and
# the search must refuse it, also when Python strips asserts.
EV_NOT_FIRST = GridSpec.of([0, 1, 2], ["1/2", 1], 2, 2)


def test_arm_classes_refuse_a_rule_that_does_not_rank_ev_first(monkeypatch):
    monkeypatch.setitem(agents.RULES, "egalitarian", agents.RULES["optimist"])
    spec = EV_NOT_FIRST
    pool = _grid_games(spec, spec.max_option_branches, spec.reward_grid, "O")
    with pytest.raises(RuntimeError, match="^EV is not ranked first$"):
        search._arm_classes(EGAL, pool)


def test_the_ev_guard_holds_under_python_optimize():
    script = (
        "from branchgames import Agent, GridSpec, agents, find_violation\n"
        "agents.RULES['egalitarian'] = agents.RULES['optimist']\n"
        "find_violation(Agent.of('egal', 'egalitarian'), "
        "GridSpec.of([0, 1, 2], ['1/2', 1], 2, 2))\n"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 1
    assert done.stderr.endswith("RuntimeError: EV is not ranked first\n")
