"""Scenario files end to end: parsing, canonical rendering, execution, CLI."""

import argparse
import gc
import json
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from branchgames import (
    AGENT_KINDS,
    Agent,
    Preference,
    Verdict,
    compare,
    expected_value,
    largest_reward,
    support_bounds,
)
from branchgames.cli import (
    _TOKEN_RE,
    CheckExecutionError,
    CompareCheck,
    DuplicateNameError,
    ParseError,
    ScenarioFile,
    UnknownReferenceError,
    _argument_parser,
    emit,
    gallery_source,
    main,
    parse,
    render,
    run_file,
    run_gallery,
)
from branchgames import agents, cli
from conftest import child_env, games
from test_emit_oracle import _SeededFile

F = Fraction

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

SMALL_SOURCE = """\
# a small but complete scenario file
game certain2
  branch reward=2 weight=1

game gamble
  branch reward=1 weight=1/2
  branch reward=4 weight=2/4   # weights may arrive unreduced

agent ev kind=dtbr
agent careful kind=egalitarian

scenario toss root=flip
  arm certain2 vs gamble
  arm certain2 vs certain2

game flip
  branch reward=0 weight=1/2
  branch reward=0 weight=1/2

check compare agent=ev left=certain2 right=gamble
check diachronic agent=careful scenario=toss
"""


CONTINUITY_SOURCE = """\
game sure1
  branch reward=1 weight=1
game nearly0
  branch reward=1 weight=0
  branch reward=0 weight=1
agent opt kind=optimist
agent ev kind=dtbr
check continuity agent=opt left=sure1 right=nearly0 alphabet=0,1 deltas=1/2,1/32 {keys}
check continuity agent=ev left=sure1 right=nearly0 alphabet=0,1 deltas=1/2,1/32 {keys}
"""


def random_fit_source(rewards, count, seed):
    """One dtbr ``check fit`` over ``count`` random games on ``rewards`` rewards.

    Each game has 2 or 3 branches on distinct rewards of 0..rewards-1 and
    one weight denominator of 4 to 12, cut into positive parts.  At 16
    rewards by 30 games, seed 1, the fit needs more than 200 MB.
    """
    rng = random.Random(f"{rewards}x{count}:{seed}")
    lines = []
    for g in range(count):
        k = rng.randint(2, 3)
        chosen = rng.sample(range(rewards), k)
        den = rng.randint(4, 12)
        cuts = [0, *sorted(rng.sample(range(1, den), k - 1)), den]
        lines.append(f"game g{g}")
        for reward, low, high in zip(chosen, cuts, cuts[1:]):
            lines.append(f"  branch reward={reward} weight={high - low}/{den}")
    names = ",".join(f"g{g}" for g in range(count))
    alphabet = ",".join(map(str, range(rewards)))
    lines.append("agent a kind=dtbr")
    lines.append(f"check fit agent=a games={names} alphabet={alphabet}")
    return "\n".join(lines) + "\n"


class TestParsing:
    def test_small_file_structure(self):
        sf = parse(SMALL_SOURCE)
        assert set(sf.games) == {"certain2", "gamble", "flip"}
        assert sf.games["gamble"].branches[1].weight == F(1, 2)
        assert sf.agents["ev"].kind == "dtbr"
        assert set(sf.scenarios) == {"toss"}
        toss = sf.scenarios["toss"]
        assert toss.root is sf.games["flip"]
        assert toss.options == (
            (sf.games["certain2"], sf.games["gamble"]),
            (sf.games["certain2"], sf.games["certain2"]),
        )
        assert [type(c).__name__ for c in sf.checks] == [
            "CompareCheck",
            "DiachronicCheck",
        ]

    def test_scenarios_may_reference_games_declared_later(self):
        # SMALL_SOURCE declares flip after the scenario that uses it
        assert parse(SMALL_SOURCE).scenarios["toss"].root.name == "flip"

    def test_empty_file_parses_to_an_empty_scenario_set(self):
        sf = parse("")
        assert sf.games == {}
        assert sf.checks == ()
        assert render(sf) == ""

    def test_comments_and_layout_do_not_matter(self):
        spaced = SMALL_SOURCE.replace("\ngame gamble", "\n\n# noise\n\ngame gamble")
        assert parse(spaced) == parse(SMALL_SOURCE)

    def test_game_and_agent_namespaces_are_separate(self):
        sf = parse(
            "game x\n  branch reward=0 weight=1\nagent x kind=stoic\n"
        )
        assert "x" in sf.games and "x" in sf.agents

    def test_max_reward_is_accepted_on_stoic_agents(self):
        sf = parse("agent capped kind=stoic max_reward=100\n")
        assert sf.agents["capped"].max_reward == F(100)


class TestParseErrors:
    def assert_parse_error(self, source, fragment, exc=ParseError):
        with pytest.raises(exc) as err:
            parse(source)
        assert fragment in str(err.value)

    def test_unknown_directive(self):
        self.assert_parse_error("wager 3\n", "line 1")

    def test_duplicate_game_name(self):
        source = (
            "game g\n  branch reward=0 weight=1\n"
            "game g\n  branch reward=1 weight=1\n"
        )
        self.assert_parse_error(source, "g", DuplicateNameError)

    def test_branch_outside_game_block(self):
        self.assert_parse_error("branch reward=0 weight=1\n", "line 1")

    def test_arm_outside_scenario_block(self):
        self.assert_parse_error("arm a vs b\n", "line 1")

    def test_decimal_literals_are_rejected_with_position(self):
        with pytest.raises(ParseError) as err:
            parse("game g\n  branch reward=0.5 weight=1\n")
        message = str(err.value)
        assert "line 2" in message and "column" in message

    @pytest.mark.parametrize(
        "branch",
        [
            "reward=\u0663 weight=1",  # ARABIC-INDIC DIGIT THREE
            "reward=0 weight=\uff11",  # FULLWIDTH DIGIT ONE
            "reward=1/\u0663 weight=1",
        ],
    )
    def test_literals_take_only_ascii_digits(self, branch):
        with pytest.raises(ParseError) as err:
            parse(f"game g\n  branch {branch}\n")
        message = str(err.value)
        assert "line 2" in message and "column" in message

    @pytest.mark.parametrize(
        "source, exc, message",
        [
            (
                "game g\n  branch reward=0.5 weight=1\n",
                ParseError,
                "line 2, column 10: expected a rational like 3 or 1/2, got '0.5'",
            ),
            (
                "game g\n  branch reward=0 weight=1/0\n",
                ParseError,
                "line 2, column 19: zero denominator in '1/0'",
            ),
            (
                "game g\n  branch reward=0 weight=2\n",
                ParseError,
                "line 2, column 19: weight 2 outside [0, 1]",
            ),
            (
                "game g\n  branch reward=0 weight=1 colour=red\n",
                ParseError,
                "line 2, column 28: unknown key 'colour'",
            ),
            (
                "game g\n  branch reward=0 reward=1 weight=1\n",
                ParseError,
                "line 2, column 19: duplicate key 'reward'",
            ),
            (
                "game g\n  branch reward= weight=1\n",
                ParseError,
                "line 2, column 10: empty value for 'reward'",
            ),
            (
                "game g\n  branch reward=0 =1\n",
                ParseError,
                "line 2, column 19: unknown key ''",
            ),
            (
                "game g\n  branch reward=0 weight\n",
                ParseError,
                "line 2, column 19: expected key=value, got 'weight'",
            ),
            ("  wager 3\n", ParseError, "line 1, column 3: unknown keyword 'wager'"),
            (
                "game 3bad\n  branch reward=0 weight=1\n",
                ParseError,
                "line 1, column 6: invalid game name '3bad'",
            ),
            (
                "game g\n  branch reward=0 weight=1\ngame  g\n",
                DuplicateNameError,
                "line 3, column 7: duplicate game name 'g'",
            ),
            (
                "agent a kind=dtbr\nagent a kind=stoic\n",
                DuplicateNameError,
                "line 2, column 7: duplicate agent name 'a'",
            ),
            (
                "agent a kind=dtbr\n check   frobnicate agent=a\n",
                ParseError,
                "line 2, column 10: unknown check kind 'frobnicate'; "
                "expected one of compare, diachronic, continuity, dutchbook, fit",
            ),
            (
                "search frob agent=a\n",
                ParseError,
                "line 1, column 8: unknown search kind 'frob'; "
                "expected one of diachronic",
            ),
            # A tab is one column.
            (
                "game g\n\tbranch reward=0.5 weight=1\n",
                ParseError,
                "line 2, column 9: expected a rational like 3 or 1/2, got '0.5'",
            ),
            (
                "game g\n\t\tbranch\treward=0\tweight=x\n",
                ParseError,
                "line 2, column 19: expected a rational like 3 or 1/2, got 'x'",
            ),
            # NO-BREAK SPACE and IDEOGRAPHIC SPACE separate tokens, one
            # column each.
            (
                "game g\n  branch reward=1\u00a0weight=2\n",
                ParseError,
                "line 2, column 19: weight 2 outside [0, 1]",
            ),
            (
                "game g\n  branch\u3000reward=1\u3000\u3000weight=-1\n",
                ParseError,
                "line 2, column 20: weight -1 outside [0, 1]",
            ),
            (
                "game g # comment\n  branch reward=1 # weight=1\n",
                ParseError,
                "line 2: missing required key weight=...",
            ),
            (
                "game g\n  branch reward=0 weight=1\nagent a kind=dtbr\n"
                "check continuity agent=a left=g right=g alphabet=0,,1 "
                "deltas=1/2 samples=2 seed=1\n",
                ParseError,
                "line 4, column 41: malformed list '0,,1'",
            ),
            (
                "agent a kind=dtbr\ncheck dutchbook agent=a games=g,h-1\n",
                ParseError,
                "line 2, column 25: malformed name list 'g,h-1'",
            ),
            (
                "game g\n  branch reward=0 weight=1\nagent a kind=dtbr\n"
                "check continuity agent=a left=g right=g alphabet=0,1 "
                "deltas=1/2 samples=0 seed=1\n",
                ParseError,
                "line 4, column 65: expected a positive integer, got '0'",
            ),
            ("check\n", ParseError, "line 1: expected a check kind after 'check'"),
            (
                "game g\n  branch reward=0 weight=1\nscenario s root=g\n  arm g g\n",
                ParseError,
                "line 4: expected: arm <game> vs <game>",
            ),
            ("game\n", ParseError, "line 1: expected a name after 'game'"),
        ],
    )
    def test_error_text_names_line_and_column(self, source, exc, message):
        with pytest.raises(ParseError) as err:
            parse(source)
        assert type(err.value) is exc
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "source, exc, message",
        [
            (
                "game g0 extra\n",
                ParseError,
                "line 1, column 9: expected key=value, got 'extra'",
            ),
            ("game g0 k=v\n", ParseError, "line 1, column 9: unknown key 'k'"),
            ("game  g0 \t k=\n", ParseError, "line 1, column 12: unknown key 'k'"),
            ("game g0 =\n", ParseError, "line 1, column 9: unknown key ''"),
            (
                "game g0\n  branch reward=0 weight=1\ngame g0 extra\n",
                DuplicateNameError,
                "line 3, column 6: duplicate game name 'g0'",
            ),
            (
                "game g0\n  branch reward=0 weight=1\n game\tg0\n",
                DuplicateNameError,
                "line 3, column 7: duplicate game name 'g0'",
            ),
        ],
    )
    def test_game_lines_with_tokens_after_the_name(self, source, exc, message):
        # A bare game line skips the key loop; any token after the name
        # still goes through it, and a duplicate name is caught first.
        with pytest.raises(ParseError) as err:
            parse(source)
        assert type(err.value) is exc
        assert str(err.value) == message

    def test_a_literal_valid_as_a_reward_is_still_checked_as_a_weight(self):
        source = (
            "game g\n  branch reward=2 weight=1\n"
            "game h\n  branch reward=0 weight=2\n"
        )
        with pytest.raises(ParseError) as err:
            parse(source)
        assert str(err.value) == "line 4, column 19: weight 2 outside [0, 1]"

    @pytest.mark.parametrize(
        "first, second",
        [
            # \f and U+2028 separate tokens but do not end a line.
            ("game A\f\n", "  branch reward=1 weight=1\n"),
            ("game A\n", "  branch reward=1 weight=1\u2028\n"),
            ("game A\r", "  branch reward=1 weight=1\r"),
        ],
    )
    def test_only_line_breaks_count_as_lines(self, first, second):
        ending = first[-1]
        source = first + second + f"game B{ending}  branch reward=1 weight=2{ending}"
        with pytest.raises(ParseError) as err:
            parse(source)
        assert str(err.value) == "line 4, column 19: weight 2 outside [0, 1]"

    def test_whitespace_splits_tokens_as_the_column_scan_does(self):
        # Error columns come from re-scanning a line with _TOKEN_RE, so its
        # tokens must be those of str.split() on every code point.
        every = "".join(map(chr, range(0x110000)))
        assert every.split() == _TOKEN_RE.findall(every)

    def test_weight_out_of_range_points_at_the_branch(self):
        self.assert_parse_error(
            "game g\n  branch reward=0 weight=2\n", "line 2"
        )

    def test_bad_weight_sum_points_at_the_game(self):
        self.assert_parse_error(
            "game g\n  branch reward=0 weight=1/2\n", "line 1"
        )

    def test_unknown_agent_kind(self):
        self.assert_parse_error("agent a kind=maximax\n", "maximax")

    def test_max_reward_on_non_stoic_agent(self):
        self.assert_parse_error("agent a kind=dtbr max_reward=3\n", "max_reward")

    def test_missing_required_key(self):
        self.assert_parse_error(
            "agent a kind=dtbr\ncheck compare agent=a left=x\n", "right"
        )

    def test_unknown_key_is_rejected(self):
        self.assert_parse_error(
            "game g\n  branch reward=0 weight=1 colour=red\n", "colour"
        )

    def test_duplicate_key_is_rejected(self):
        self.assert_parse_error(
            "game g\n  branch reward=0 reward=1 weight=1\n", "reward"
        )

    def test_unknown_game_reference_in_a_check(self):
        source = "agent a kind=dtbr\ncheck compare agent=a left=x right=x\n"
        self.assert_parse_error(source, "x", UnknownReferenceError)

    def test_unknown_agent_reference_in_a_check(self):
        source = (
            "game g\n  branch reward=0 weight=1\n"
            "check compare agent=who left=g right=g\n"
        )
        self.assert_parse_error(source, "who", UnknownReferenceError)

    def test_scenario_with_zero_weight_root_branch(self):
        source = (
            "game root\n  branch reward=0 weight=1\n  branch reward=0 weight=0\n"
            "game o\n  branch reward=1 weight=1\n"
            "scenario s root=root\n  arm o vs o\n  arm o vs o\n"
        )
        self.assert_parse_error(source, "weight")

    def test_scenario_arm_count_mismatch(self):
        source = (
            "game root\n  branch reward=0 weight=1/2\n  branch reward=0 weight=1/2\n"
            "game o\n  branch reward=1 weight=1\n"
            "scenario s root=root\n  arm o vs o\n"
        )
        self.assert_parse_error(source, "s")

    def test_fit_anchors_must_be_a_pair(self):
        source = (
            "game g\n  branch reward=0 weight=1\nagent a kind=dtbr\n"
            "check fit agent=a games=g alphabet=0,1 anchors=0,1,2\n"
        )
        self.assert_parse_error(source, "anchors")

    def test_invalid_declaration_name(self):
        self.assert_parse_error("game 3bad\n  branch reward=0 weight=1\n", "3bad")

    def test_continuity_requires_every_key(self):
        source = (
            "game g\n  branch reward=0 weight=1\nagent a kind=dtbr\n"
            "check continuity agent=a left=g right=g alphabet=0,1 deltas=1/2\n"
        )
        self.assert_parse_error(source, "samples")


class TestRendering:
    def test_round_trip_is_identity_on_parsed_files(self):
        for text in (SMALL_SOURCE, gallery_source()):
            once = parse(text)
            assert parse(render(once)) == once

    def test_shipped_scenario_files_round_trip(self):
        paths = sorted(SCENARIO_DIR.glob("*.game"))
        assert paths, "expected bundled scenario files"
        for path in paths:
            sf = parse(path.read_text(encoding="utf-8"))
            assert parse(render(sf)) == sf

    def test_rendering_reduces_rationals_and_sorts_games(self):
        rendered = render(parse(SMALL_SOURCE))
        assert "weight=1/2" in rendered and "2/4" not in rendered
        names = [
            line.split()[1]
            for line in rendered.splitlines()
            if line.startswith("game ")
        ]
        assert names == sorted(names)

    def test_checks_keep_declaration_order(self):
        rendered = render(parse(SMALL_SOURCE))
        compare_at = rendered.index("check compare")
        diachronic_at = rendered.index("check diachronic")
        assert compare_at < diachronic_at


MACHINE_KEYS = {"check_kind", "inputs", "verdict", "witness", "values"}


class TestExecution:
    def test_compare_outcome_record(self):
        outcomes = run_file(parse(SMALL_SOURCE))
        record = json.loads(outcomes[0].line)
        assert set(record) == MACHINE_KEYS
        assert record["check_kind"] == "compare"
        assert record["verdict"] == Preference.PrefersRight.value
        assert record["values"]["left_expected_value"] == "2"
        assert record["values"]["right_expected_value"] == "5/2"
        assert not outcomes[0].violation

    @given(
        games(name="left"), games(name="right"), st.sampled_from(AGENT_KINDS)
    )
    def test_compare_record_matches_the_core_statistics(self, left, right, kind):
        sf = ScenarioFile(
            games={"left": left, "right": right},
            agents={kind: Agent.of(kind, kind)},
            scenarios={},
            checks=(CompareCheck(kind, "left", "right"),),
        )
        (outcome,) = run_file(sf)
        assert (
            json.loads(outcome.line)["verdict"]
            == compare(sf.agents[kind], left, right).value
        )
        assert json.loads(outcome.line)["values"] == {
            f"{side}_{name}": str(statistic(game))
            for name, statistic in (
                ("expected_value", expected_value),
                ("largest_reward", largest_reward),
                ("reward_range", lambda g: support_bounds(g)[1] - support_bounds(g)[0]),
            )
            for side, game in (("left", left), ("right", right))
        }

    def test_compare_verdicts_come_from_compare(self, monkeypatch):
        # The values come from the integer pass and the verdict from
        # cli.compare alone, which the per-layer tracer counts: flipping
        # compare flips every compare verdict and leaves the values be.
        sf = parse(gallery_source())
        before = [json.loads(o.line) for o in run_file(sf)]
        monkeypatch.setattr(
            cli, "compare", lambda *args: agents.compare(*args).flipped()
        )
        after = [json.loads(o.line) for o in run_file(sf)]
        compares = [
            (old, new)
            for old, new in zip(before, after)
            if old["check_kind"] == "compare"
        ]
        assert len(compares) > 60
        assert {old["verdict"] for old, _ in compares} == {
            p.value for p in Preference
        }
        for old, new in compares:
            assert new["verdict"] == Preference(old["verdict"]).flipped().value
            assert new["values"] == old["values"]

    @pytest.mark.parametrize("kind", AGENT_KINDS)
    def test_compare_on_a_game_without_support_names_the_game(self, kind):
        # A game without support is refused when its block closes, so no
        # compare check runs on one, and the error names the game.
        source = (
            "game empty\n"
            "  branch reward=1 weight=0\n"
            "\n"
            f"agent {kind} kind={kind}\n"
            f"check compare agent={kind} left=empty right=empty\n"
        )
        message = "^line 1: game 'empty': weights sum to 0, expected 1$"
        with pytest.raises(ParseError, match=message):
            parse(source)

    def test_diachronic_violation_is_flagged(self):
        outcomes = run_file(parse(SMALL_SOURCE))
        record = json.loads(outcomes[1].line)
        # careful agent: same mean, certain2 has no spread, gamble does;
        # mixing cannot rescue the wider compound here
        assert record["check_kind"] == "diachronic"
        assert record["verdict"] in {v.value for v in Verdict}

    def test_machine_emission_is_one_json_object_per_line(self):
        outcomes = run_file(parse(gallery_source()))
        payload = emit(outcomes, machine=True)
        lines = payload.splitlines()
        assert len(lines) == len(outcomes)
        for line in lines:
            record = json.loads(line)
            assert set(record) == MACHINE_KEYS
            assert line == json.dumps(record, sort_keys=True)

    def test_machine_emission_is_reproducible(self):
        first = emit(run_file(parse(gallery_source())), machine=True)
        second = emit(run_file(parse(gallery_source())), machine=True)
        assert first.encode() == second.encode()

    def test_gallery_covers_every_check_kind(self):
        kinds = {json.loads(o.line)["check_kind"] for o in run_gallery()}
        assert kinds == {"compare", "diachronic", "continuity", "dutchbook", "fit"}

    def test_gallery_verdicts_tell_the_story(self):
        by_kind = {}
        for outcome in run_gallery():
            kind = json.loads(outcome.line)["check_kind"]
            by_kind.setdefault(kind, []).append(outcome)
        assert json.loads(by_kind["diachronic"][0].line)["verdict"] == "violated"
        assert json.loads(by_kind["continuity"][0].line)["verdict"] == "violated"
        assert {json.loads(o.line)["verdict"] for o in by_kind["dutchbook"]} == {
            "not_exposed"
        }
        fits = {
            json.loads(o.line)["inputs"]["agent"]: json.loads(o.line)["verdict"]
            for o in by_kind["fit"]
        }
        assert fits == {
            "stoic": "feasible",
            "dtbr": "feasible",
            "optimist": "infeasible",
        }

    def test_fit_record_values(self):
        for outcome in run_gallery():
            if json.loads(outcome.line)["check_kind"] != "fit":
                continue
            agent = json.loads(outcome.line)["inputs"]["agent"]
            values = json.loads(outcome.line)["values"]
            if agent == "stoic":
                assert values["normalization_error"] == "DegenerateNormalization"
                assert values["normalized_u"] is None
            if agent == "dtbr":
                # anchored at rewards 0 and 1, the mean ranking normalizes
                # to the identity on {0, 1, 2}
                assert values["normalized_u"] == {"0": "0", "1": "1", "2": "2"}
                assert values["unique"] is True
            if agent == "optimist":
                assert values["u"] is None
                certificate = json.loads(outcome.line)["witness"]["certificate"]
                assert {
                    (c["left"], c["right"], c["preference"]) for c in certificate
                } == {
                    ("certain1", "B0", "PrefersLeft"),
                    ("certain1", "Bhalf", "Indifferent"),
                }

    def test_execution_errors_carry_the_check_location(self):
        source = (
            "game g\n  branch reward=0 weight=1\n"
            "agent s kind=stoic\n"
            "check continuity agent=s left=g right=g alphabet=0 "
            "deltas=1/2 samples=1 seed=1\n"
        )
        with pytest.raises(CheckExecutionError) as err:
            run_file(parse(source))
        assert "line 4" in str(err.value)


class TestCommandLine:
    def run_main(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_run_text_mode(self, tmp_path, capsys):
        path = tmp_path / "demo.game"
        path.write_text(SMALL_SOURCE, encoding="utf-8")
        code, out, err = self.run_main(["run", str(path)], capsys)
        assert code == 0
        assert err == ""
        assert "compare ev certain2 gamble -> PrefersRight" in out

    def test_run_machine_mode_emits_json(self, tmp_path, capsys):
        path = tmp_path / "demo.game"
        path.write_text(SMALL_SOURCE, encoding="utf-8")
        code, out, _ = self.run_main(["run", str(path), "--machine"], capsys)
        assert code == 0
        for line in out.splitlines():
            assert set(json.loads(line)) == MACHINE_KEYS

    def test_fail_on_violation_flips_the_exit_code(self, capsys):
        path = SCENARIO_DIR / "optimist_axioms.game"
        code, _, _ = self.run_main(["run", str(path)], capsys)
        assert code == 0
        code, _, _ = self.run_main(
            ["run", str(path), "--fail-on-violation"], capsys
        )
        assert code == 1

    def test_clean_file_passes_fail_on_violation(self, tmp_path, capsys):
        path = tmp_path / "clean.game"
        path.write_text(SMALL_SOURCE.replace("careful", "quiet"), encoding="utf-8")
        # replace the egalitarian with a stoic, who satisfies everything
        text = path.read_text(encoding="utf-8").replace(
            "agent quiet kind=egalitarian", "agent quiet kind=stoic"
        )
        path.write_text(text, encoding="utf-8")
        code, _, _ = self.run_main(
            ["run", str(path), "--fail-on-violation"], capsys
        )
        assert code == 0

    def test_missing_file_is_an_error(self, capsys):
        code, out, err = self.run_main(["run", "/no/such/file.game"], capsys)
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_file_that_is_not_utf8_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.game"
        path.write_bytes(b"game A\n  branch reward=1 weight=1\xff\n")
        code, out, err = self.run_main(["run", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "utf-8" in err

    @pytest.mark.parametrize("machine", [False, True], ids=["text", "machine"])
    @pytest.mark.parametrize(
        "path", sorted(SCENARIO_DIR.glob("*.game")), ids=lambda path: path.stem
    )
    def test_a_byte_order_mark_at_the_start_is_dropped(
        self, path, machine, tmp_path, capsys
    ):
        marked = tmp_path / path.name
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        argv = ["run", str(marked)] + (["--machine"] if machine else [])
        code, out, err = self.run_main(argv, capsys)
        golden = GOLDEN_DIR / f"{path.stem}.{'jsonl' if machine else 'txt'}"
        assert (code, err) == (0, "")
        assert out.encode("utf-8") == golden.read_bytes()

    def test_a_byte_order_mark_after_the_start_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "late-mark.game"
        path.write_bytes(
            b"game g\n  branch reward=1 weight=1\n\xef\xbb\xbfagent a kind=dtbr\n"
        )
        code, out, err = self.run_main(["run", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == (
            "parse error: line 3, column 1: unknown keyword '\\ufeffagent'\n"
        )

    def test_run_numbers_lines_as_parse_does(self, tmp_path, capsys):
        source = (
            "game A\f\n  branch reward=1 weight=1\r\n"
            "game B\r  branch reward=1 weight=2\n"
        )
        with pytest.raises(ParseError) as err:
            parse(source)
        path = tmp_path / "breaks.game"
        path.write_bytes(source.encode("utf-8"))
        code, out, err_text = self.run_main(["run", str(path)], capsys)
        assert code == 2
        assert str(err.value) in err_text

    def test_parse_errors_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.game"
        path.write_text("game g\n  branch reward=0.5 weight=1\n", encoding="utf-8")
        code, out, err = self.run_main(["run", str(path)], capsys)
        assert code == 2
        assert "parse error" in err

    def test_execution_errors_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad_check.game"
        path.write_text(
            "game g\n  branch reward=0 weight=1\n"
            "agent s kind=stoic\n"
            "check continuity agent=s left=g right=g alphabet=0 "
            "deltas=1/2 samples=1 seed=1\n",
            encoding="utf-8",
        )
        code, _, err = self.run_main(["run", str(path)], capsys)
        assert code == 2
        assert "execution error" in err

    @pytest.mark.parametrize("kind", ["dtbr", "optimist"])  # feasible, infeasible
    def test_fit_anchors_outside_the_alphabet_exit_2_whatever_the_verdict(
        self, kind, tmp_path, capsys
    ):
        check = (
            "check fit agent=a games=win,win_at_zero,win_at_half "
            "alphabet=0,1 anchors=7,9"
        )
        path = tmp_path / "anchors.game"
        path.write_text(
            "game win\n  branch reward=1 weight=1\n"
            "game win_at_zero\n  branch reward=1 weight=0\n  branch reward=0 weight=1\n"
            "game win_at_half\n  branch reward=1 weight=1/2\n"
            "  branch reward=0 weight=1/2\n"
            f"agent a kind={kind}\n{check}\n",
            encoding="utf-8",
        )
        code, out, err = self.run_main(["run", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err == (
            f"execution error: check at line 10 ({check}): "
            "anchor rewards are outside the fitted alphabet\n"
        )

    def test_continuity_over_a_one_reward_alphabet_names_the_stray_reward(
        self, tmp_path, capsys
    ):
        # A one-reward alphabet leaves no weight to move, so the sure game
        # on it is its own only perturbation; the other game's reward then
        # falls outside the alphabet and is reported, not sampled from.
        check = (
            "check continuity agent=ev left=high right=low alphabet=5 "
            "deltas=1/2 samples=2 seed=1"
        )
        path = tmp_path / "one_reward.game"
        path.write_text(
            "game high\n  branch reward=5 weight=1\n"
            "game low\n  branch reward=1 weight=1\n"
            f"agent ev kind=dtbr\n{check}\n",
            encoding="utf-8",
        )
        code, out, err = self.run_main(["run", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err == (
            f"execution error: check at line 6 ({check}): "
            "reward 1 not in alphabet {5}\n"
        )

    def test_continuity_samples_and_seed_are_only_echoed(self, tmp_path, capsys):
        runs = []
        for keys in ("samples=1 seed=0", "samples=9 seed=123"):
            path = tmp_path / "continuity.game"
            path.write_text(CONTINUITY_SOURCE.format(keys=keys), encoding="utf-8")
            machine = self.run_main(["run", str(path), "--machine"], capsys)
            text = self.run_main(["run", str(path)], capsys)
            assert machine[0] == text[0] == 0
            records = [json.loads(line) for line in machine[1].splitlines()]
            echoed = [
                (r["inputs"].pop("samples"), r["inputs"].pop("seed")) for r in records
            ]
            runs.append((echoed, records, text))
        (echo_one, records_one, text_one), (echo_two, records_two, text_two) = runs
        assert echo_one == [(1, 0)] * 2 and echo_two == [(9, 123)] * 2
        assert [r["verdict"] for r in records_one] == ["violated", "no_violation_found"]
        assert records_one == records_two
        assert text_one == text_two

    def test_a_check_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            # Raised while handling another, as when unwinding runs out of
            # memory for a traceback entry: the first holds the frames.
            try:
                raise MemoryError
            except MemoryError:
                raise MemoryError

        monkeypatch.setattr(cli, "fit_utility", exhausted)
        source = random_fit_source(3, 2, 1)
        check = source.splitlines()[-1]
        line = len(source.splitlines())
        path = tmp_path / "fit.game"
        path.write_text(source, encoding="utf-8")
        code, out, err = self.run_main(["run", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err == f"execution error: check at line {line} ({check}): MemoryError\n"
        # The failed check's frames go with the traceback and the context.
        with pytest.raises(CheckExecutionError) as raised:
            run_file(parse(source))
        cause = raised.value.cause
        assert cause.__traceback__ is None and cause.__context__ is None

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux"
    )
    def test_a_fit_that_exhausts_memory_exits_2(self, tmp_path):
        import resource

        path = tmp_path / "fit16x30.game"
        path.write_text(random_fit_source(16, 30, 1), encoding="utf-8")
        limit = 200_000 * 1024

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        done = subprocess.run(
            [sys.executable, "-m", "branchgames.cli", "run", str(path)],
            preexec_fn=cap_memory,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 2, done.stderr
        assert done.stdout == ""
        assert done.stderr.startswith("execution error: check at line 104 (check fit ")
        assert done.stderr.count("\n") == 1 and done.stderr.endswith(": MemoryError\n")

    def test_gallery_machine_output_is_byte_identical(self, capsys):
        code_one, out_one, _ = self.run_main(["gallery", "--machine"], capsys)
        code_two, out_two, _ = self.run_main(["gallery", "--machine"], capsys)
        assert code_one == code_two == 0
        assert out_one.encode() == out_two.encode()

    def test_repeated_calls_reuse_one_parser(self, capsys, monkeypatch):
        # Help text wraps to the terminal width, read at each call.
        monkeypatch.setenv("COLUMNS", "80")
        search = ["search", "diachronic", "agent=egalitarian", "rewards=0,3,4,5",
                  "weights=1/2,1", "root_branches=2", "option_branches=2"]
        calls = [
            (["--help"], 0),
            (["run", "--help"], 0),
            (["search", "--help"], 0),
            ([], 2),
            (["run"], 2),
            (["gallery", "--fail-on-violation"], 2),
            (["search"], 2),
            (search, 0),
            (["gallery", "--machine"], 0),
        ]
        builds = 0
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            nonlocal builds
            builds += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        # Start cold, so the first round shows that the count sees a build.
        _argument_parser.cache_clear()

        def one_round():
            results = []
            for argv, expected in calls:
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                captured = capsys.readouterr()
                assert code == expected, argv
                results.append((code, captured.out, captured.err))
            return results

        first = one_round()
        assert builds > 0
        builds = 0
        assert one_round() == first
        assert builds == 0
        assert first[0][1].startswith("usage: branchgames ")
        for _, out, err in first[3:7]:
            assert out == "" and err.startswith("usage: branchgames")

    def test_search_subcommand_finds_the_best_outcome_trap(self, capsys):
        code, out, _ = self.run_main(
            [
                "search",
                "diachronic",
                "agent=optimist",
                "rewards=0,1,2",
                "weights=1/2,1",
                "root_branches=2",
                "option_branches=2",
                "--machine",
            ],
            capsys,
        )
        assert code == 0
        record = json.loads(out.splitlines()[0])
        assert record["check_kind"] == "search"
        assert record["verdict"] == "found"
        assert record["witness"]["report"]["clause"] == "ii"

    def test_search_subcommand_reports_clean_grids(self, capsys):
        code, out, _ = self.run_main(
            [
                "search",
                "diachronic",
                "agent=egalitarian",
                "rewards=0,1",
                "weights=1",
                "root_branches=1",
                "option_branches=1",
                "--machine",
            ],
            capsys,
        )
        assert code == 0
        record = json.loads(out.splitlines()[0])
        assert record["verdict"] == "none"
        assert record["values"]["scenario_count"] == 4

    def test_search_fail_on_violation(self, capsys):
        argv = [
            "search",
            "diachronic",
            "agent=optimist",
            "rewards=0,1,2",
            "weights=1/2,1",
            "root_branches=2",
            "option_branches=2",
            "--fail-on-violation",
        ]
        code, _, _ = self.run_main(argv, capsys)
        assert code == 1

    def test_search_requires_a_known_agent_kind(self, capsys):
        code, _, err = self.run_main(
            ["search", "diachronic", "agent=gambler", "rewards=0", "weights=1",
             "root_branches=1", "option_branches=1"],
            capsys,
        )
        assert code == 2
        assert "gambler" in err

    def test_search_requires_the_diachronic_form(self, capsys):
        code, _, err = self.run_main(
            ["search", "continuity", "agent=dtbr"], capsys
        )
        assert code == 2
        assert "diachronic" in err

    @pytest.mark.parametrize(
        "terms, message",
        [
            (
                ["frob", "agent=dtbr"],
                "term 'frob': unknown search kind 'frob'; expected one of diachronic",
            ),
            (
                ["diachronic", "agent=dtbr", "rewards=0.5"],
                "term 'rewards=0.5': expected a rational like 3 or 1/2, got '0.5'",
            ),
            (
                ["diachronic", "agent=dtbr", "colour=red"],
                "term 'colour=red': unknown key 'colour'",
            ),
            (
                ["diachronic", "agent=dtbr", "agent=stoic"],
                "term 'agent=stoic': duplicate key 'agent'",
            ),
            (
                ["diachronic", "agent=dtbr", "rewards=0,1", "weights=1",
                 "root_branches=1"],
                "missing required key option_branches=...",
            ),
        ],
    )
    def test_search_errors_quote_the_term(self, terms, message, capsys):
        code, out, err = self.run_main(["search", *terms], capsys)
        assert code == 2
        assert out == ""
        assert err == f"parse error: {message}\n"

    @pytest.mark.parametrize(
        "term",
        [
            # once truncated at the '#' as a comment, and accepted
            "option_branches=1#junk",
            # once injected as a third line of synthesized scenario text
            "option_branches=1\ngame X",
            # a rational parser that strips whitespace would accept these
            "rewards=0, 1",
            "rewards=0,1\n",
            # FULLWIDTH DIGIT ONE
            "option_branches=\uff11",
        ],
    )
    def test_search_terms_are_tokens_not_scenario_text(self, term, capsys):
        # The term stands in for the valid term with the same key.
        key = term.split("=")[0] + "="
        argv = ["search", "diachronic", "agent=dtbr", "rewards=0,1", "weights=1",
                "root_branches=1", "option_branches=1"]
        code, out, err = self.run_main(
            [term if t.startswith(key) else t for t in argv], capsys
        )
        assert code == 2
        assert out == ""
        assert repr(term) in err
        assert "line" not in err

    def test_search_over_the_cap_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("BRANCHGAMES_SCENARIO_CAP", "3")
        code, out, err = self.run_main(
            ["search", "diachronic", "agent=dtbr", "rewards=0,1",
             "weights=1/2,1", "root_branches=2", "option_branches=2"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "grid projects 1332 scenarios, over the cap of 3" in err


OVER_CAP_SEARCH = ["search", "diachronic", "agent=dtbr", "rewards=0,1",
                   "weights=1/2,1", "root_branches=2", "option_branches=2"]
# Each way out of main: the argv, and the exit code or what it raises.
MAIN_EXITS = {
    "exit-0": (["gallery", "--machine"], 0),
    "violation": (
        ["run", str(SCENARIO_DIR / "optimist_axioms.game"), "--fail-on-violation"], 1
    ),
    "parse-error": (["search", "frob", "agent=dtbr"], 2),
    "execution-error": (OVER_CAP_SEARCH, 2),
    "usage-error": (["run"], "SystemExit 2"),
    "help": (["--help"], "SystemExit 0"),
    # run_gallery is patched to raise.
    "exception": (["gallery"], "ZeroDivisionError"),
}
SEARCH_FOUND = ["search", "diachronic", "agent=optimist", "rewards=0,1,2",
                "weights=1/2,1", "root_branches=2", "option_branches=2"]
SEARCH_NONE = ["search", "diachronic", "agent=dtbr", "rewards=0,1,2",
               "weights=1/2,1", "root_branches=2", "option_branches=2"]
# Successful runs, each argv without --machine; None stands for a seeded file.
CLEAN_RUNS = {
    "gallery": ["gallery"],
    **{p.stem: ["run", str(p)] for p in sorted(SCENARIO_DIR.glob("*.game"))},
    "seeded": None,
    "search-found": SEARCH_FOUND,
    "search-none": SEARCH_NONE,
}


@pytest.fixture
def collector():
    """Restore the collector's setting, thresholds, callbacks and debug flags."""
    enabled, thresholds, debug = gc.isenabled(), gc.get_threshold(), gc.get_debug()
    callbacks = list(gc.callbacks)
    yield
    gc.callbacks[:] = callbacks
    gc.set_debug(debug)
    gc.garbage.clear()
    gc.set_threshold(*thresholds)
    (gc.enable if enabled else gc.disable)()


class TestCollectorPause:
    """main pauses cyclic collection, and a run leaves nothing for it to free."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("exit_path", MAIN_EXITS)
    def test_main_restores_the_callers_setting(
        self, exit_path, enabled, collector, capsys, monkeypatch
    ):
        argv, expected = MAIN_EXITS[exit_path]
        monkeypatch.setenv("BRANCHGAMES_SCENARIO_CAP", "3")
        if exit_path == "exception":
            monkeypatch.setattr(cli, "run_gallery", lambda: 1 // 0)
        (gc.enable if enabled else gc.disable)()
        try:
            outcome = main(argv)
        except SystemExit as exc:
            outcome = f"SystemExit {exc.code}"
        except ZeroDivisionError:
            outcome = "ZeroDivisionError"
        assert gc.isenabled() is enabled
        assert outcome == expected
        capsys.readouterr()

    def test_no_collection_starts_during_parse_run_or_emit(
        self, tmp_path, collector, capsys
    ):
        path = tmp_path / "seeded.game"
        path.write_text(_SeededFile(0).build(), encoding="utf-8")
        stages = {f.__code__ for f in (parse, cli._Parser.parse, run_file, emit)}
        starts = []

        def record(phase, info):
            if phase == "start":
                frame, codes = sys._getframe(1), set()
                while frame is not None:
                    codes.add(frame.f_code)
                    frame = frame.f_back
                starts.append(codes & stages)

        gc.enable()
        gc.set_threshold(100, 5, 5)
        gc.callbacks.append(record)
        # Called outside main, the same run does set off collections.
        emit(run_file(parse(path.read_text(encoding="utf-8"))), True)
        assert any(run_file.__code__ in codes for codes in starts)
        starts.clear()
        assert main(["run", str(path), "--machine"]) == 0
        gc.callbacks.remove(record)
        assert not any(starts)
        capsys.readouterr()

    def test_the_run_is_freed_before_the_collector_is_back_on(
        self, collector, capsys, monkeypatch
    ):
        # Outcomes still alive when collection resumes would fill its
        # first collection.
        live, alive_at_enable = [], []
        run = cli.run_file

        def tracked(sf):
            outcomes = run(sf)
            live.extend(map(weakref.ref, outcomes))
            return outcomes

        def enable():
            alive_at_enable.append(sum(ref() is not None for ref in live))
            gc.enable()

        monkeypatch.setattr(cli, "run_file", tracked)
        shim = SimpleNamespace(isenabled=gc.isenabled, disable=gc.disable, enable=enable)
        monkeypatch.setattr(cli, "gc", shim)
        gc.enable()
        assert main(["gallery", "--machine"]) == 0
        assert alive_at_enable == [0]
        capsys.readouterr()

    @pytest.mark.parametrize("run", CLEAN_RUNS)
    def test_a_run_leaves_no_cyclic_garbage(self, run, tmp_path, collector, capsys):
        argv = CLEAN_RUNS[run]
        if argv is None:
            path = tmp_path / "seeded.game"
            path.write_text(_SeededFile(3).build(), encoding="utf-8")
            argv = ["run", str(path)]
        _argument_parser()
        # Off, so that only the collections below run.
        gc.disable()
        for mode in ([], ["--machine"]):
            gc.set_debug(0)
            gc.collect()
            # Keep what the collector finds, so a failure can name it.
            gc.set_debug(gc.DEBUG_SAVEALL)
            code = main(argv + mode)
            found = gc.collect()
            names = sorted({type(o).__name__ for o in gc.garbage})
            gc.garbage.clear()
            assert (code, found) == (0, 0), (mode, names)
        capsys.readouterr()
