"""Scenario files, check execution, reports, and the command line.

Scenario files are line oriented; ``#`` starts a comment and indentation
is ignored.  Rational literals are ``<int>`` or ``<int>/<posint>`` only.
Decimals are rejected on purpose: they would smuggle binary-float
ambiguity into an exact model.

    game <name>
      branch reward=<rational> weight=<rational>
    agent <name> kind=<dtbr|egalitarian|optimist|stoic> [max_reward=<rational>]
    scenario <name> root=<game>
      arm <game> vs <game>
    check compare agent=<a> left=<game> right=<game>
    check diachronic agent=<a> scenario=<s>
    check continuity agent=<a> left=<game> right=<game> alphabet=<r1,r2,...>
                     deltas=<d1,d2,...> samples=<n> seed=<n>
    check dutchbook agent=<a> games=<g1,g2,...>
    check fit agent=<a> games=<g1,...> alphabet=<r1,...> [anchors=<rlo,rhi>]
    search diachronic agent=<a> rewards=<...> weights=<...>
                      root_branches=<n> option_branches=<n>

Checks run in declaration order.  Text mode prints one block per check;
machine mode prints one JSON object per line with stable keys
(check_kind, inputs, verdict, witness, values) and is byte-identical
across runs of the same file.  A violated axiom is a reported result, not
a failure: the exit code is 0 whenever every check executed, 2 on parse
or execution errors, and 1 only under --fail-on-violation when some check
found a violation or exposure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from .agents import AGENT_KINDS, Agent, compare
from .axioms import (
    AxiomReport,
    DiachronicScenario,
    DiachronicWitness,
    ScenarioError,
    Verdict,
    analyze_dutch_book,
    check_continuity,
    check_diachronic,
)
from .core import (
    Branch,
    Game,
    GameError,
    RewardAlphabet,
    expected_value,
    largest_reward,
    reward_range,
    validate_game,
)
from .representation import (
    DegenerateNormalizationError,
    UtilityFit,
    build_instance,
    fit_utility,
    normalize_fit,
)
from .search import GridSpec, find_violation, scenario_count


class ParseError(Exception):
    def __init__(
        self, message: str, line: Optional[int] = None, column: Optional[int] = None
    ) -> None:
        self.message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


class DuplicateNameError(ParseError):
    pass


class UnknownReferenceError(ParseError):
    pass


class CheckExecutionError(Exception):
    """A check could not be executed (as opposed to reporting a violation)."""

    def __init__(self, description: str, cause: Exception) -> None:
        self.description = description
        self.cause = cause
        super().__init__(f"{description}: {cause}")


@dataclass(frozen=True)
class CompareCheck:
    agent: str
    left: str
    right: str
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class DiachronicCheck:
    agent: str
    scenario: str
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class ContinuityCheck:
    agent: str
    left: str
    right: str
    alphabet: tuple[Fraction, ...]
    deltas: tuple[Fraction, ...]
    samples: int
    seed: int
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class DutchBookCheck:
    agent: str
    games: tuple[str, ...]
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class FitCheck:
    agent: str
    games: tuple[str, ...]
    alphabet: tuple[Fraction, ...]
    anchors: Optional[tuple[Fraction, Fraction]]
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class SearchCheck:
    agent: str
    rewards: tuple[Fraction, ...]
    weights: tuple[Fraction, ...]
    root_branches: int
    option_branches: int
    # None when the check came from the command line rather than a file.
    line: Optional[int] = field(compare=False, default=0)


CheckDecl = Union[
    CompareCheck,
    DiachronicCheck,
    ContinuityCheck,
    DutchBookCheck,
    FitCheck,
    SearchCheck,
]


@dataclass
class ScenarioFile:
    games: dict[str, Game]
    agents: dict[str, Agent]
    scenarios: dict[str, DiachronicScenario]
    checks: tuple[CheckDecl, ...]


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?")
_TOKEN_RE = re.compile(r"\S+")


def _rational(text: str, line: int, column: int) -> Fraction:
    if not _RATIONAL_RE.fullmatch(text):
        raise ParseError(
            f"expected a rational like 3 or 1/2, got {text!r}", line, column
        )
    top, slash, bottom = text.partition("/")
    if slash:
        if int(bottom) == 0:
            raise ParseError(f"zero denominator in {text!r}", line, column)
        return Fraction(int(top), int(bottom))
    return Fraction(int(top))


def _rational_list(text: str, line: int, column: int) -> tuple[Fraction, ...]:
    parts = text.split(",")
    if any(p == "" for p in parts):
        raise ParseError(f"malformed list {text!r}", line, column)
    return tuple(_rational(p, line, column) for p in parts)


def _name_list(text: str, line: int, column: int) -> tuple[str, ...]:
    parts = text.split(",")
    if any(not _NAME_RE.fullmatch(p) for p in parts):
        raise ParseError(f"malformed name list {text!r}", line, column)
    return tuple(parts)


def _integer(text: str, line: int, column: int) -> int:
    if not re.fullmatch(r"-?\d+", text):
        raise ParseError(f"expected an integer, got {text!r}", line, column)
    return int(text)


def _positive_int(text: str, line: int, column: int) -> int:
    value = _integer(text, line, column)
    if value < 1:
        raise ParseError(f"expected a positive integer, got {text!r}", line, column)
    return value


def _keyword_args(
    tokens: list[tuple[str, int]],
    line: int,
    allowed: tuple[str, ...],
    required: tuple[str, ...],
) -> dict[str, tuple[str, int]]:
    args: dict[str, tuple[str, int]] = {}
    for token, column in tokens:
        key, eq, value = token.partition("=")
        if not eq:
            raise ParseError(f"expected key=value, got {token!r}", line, column)
        if key not in allowed:
            raise ParseError(f"unknown key {key!r}", line, column)
        if key in args:
            raise ParseError(f"duplicate key {key!r}", line, column)
        if value == "":
            raise ParseError(f"empty value for {key!r}", line, column)
        args[key] = (value, column)
    for key in required:
        if key not in args:
            raise ParseError(f"missing required key {key}=...", line)
    return args


class _Parser:
    def __init__(self) -> None:
        self.games: dict[str, Game] = {}
        self.agents: dict[str, Agent] = {}
        self.scenario_decls: list[tuple] = []
        self.checks: list[CheckDecl] = []
        self.pending_game: Optional[tuple[str, int, list[Branch]]] = None
        self.pending_scenario: Optional[tuple[str, str, int, list[tuple]]] = None

    def parse(self, text: str) -> ScenarioFile:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            content = raw.split("#", 1)[0]
            tokens = [
                (m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(content)
            ]
            if not tokens:
                continue
            self._line(tokens, lineno)
        self._close_blocks()
        return self._resolve()

    # -- declaration handling -------------------------------------------

    def _line(self, tokens: list[tuple[str, int]], lineno: int) -> None:
        keyword, column = tokens[0]
        rest = tokens[1:]
        if keyword == "branch":
            self._branch(rest, lineno)
            return
        if keyword == "arm":
            self._arm(rest, lineno)
            return
        self._close_blocks()
        if keyword == "game":
            self._game(rest, lineno)
        elif keyword == "agent":
            self._agent(rest, lineno)
        elif keyword == "scenario":
            self._scenario(rest, lineno)
        elif keyword == "check":
            self._check(rest, lineno)
        elif keyword == "search":
            self._search(rest, lineno)
        else:
            raise ParseError(f"unknown keyword {keyword!r}", lineno, column)

    def _declare_name(self, name: str, kind: str, line: int, column: int) -> None:
        if not _NAME_RE.fullmatch(name):
            raise ParseError(f"invalid {kind} name {name!r}", line, column)
        namespace = {
            "game": self.games,
            "agent": self.agents,
        }.get(kind)
        taken = (
            name in namespace
            if namespace is not None
            else any(decl[0] == name for decl in self.scenario_decls)
        )
        if taken:
            raise DuplicateNameError(f"duplicate {kind} name {name!r}", line, column)

    def _game(self, rest: list[tuple[str, int]], lineno: int) -> None:
        if len(rest) != 1:
            raise ParseError("expected: game <name>", lineno)
        name, column = rest[0]
        self._declare_name(name, "game", lineno, column)
        self.pending_game = (name, lineno, [])

    def _branch(self, rest: list[tuple[str, int]], lineno: int) -> None:
        if self.pending_game is None:
            raise ParseError("branch outside a game block", lineno)
        args = _keyword_args(
            rest, lineno, ("reward", "weight"), ("reward", "weight")
        )
        reward = _rational(*(args["reward"][0], lineno, args["reward"][1]))
        weight = _rational(*(args["weight"][0], lineno, args["weight"][1]))
        if weight < 0 or weight > 1:
            raise ParseError(
                f"weight {weight} outside [0, 1]", lineno, args["weight"][1]
            )
        self.pending_game[2].append(Branch(reward, weight))

    def _agent(self, rest: list[tuple[str, int]], lineno: int) -> None:
        if not rest:
            raise ParseError("expected: agent <name> kind=<kind>", lineno)
        name, column = rest[0]
        self._declare_name(name, "agent", lineno, column)
        args = _keyword_args(
            rest[1:], lineno, ("kind", "max_reward"), ("kind",)
        )
        kind, kind_col = args["kind"]
        if kind not in AGENT_KINDS:
            raise ParseError(
                f"unknown agent kind {kind!r}; expected one of {', '.join(AGENT_KINDS)}",
                lineno,
                kind_col,
            )
        bound = None
        if "max_reward" in args:
            bound = _rational(args["max_reward"][0], lineno, args["max_reward"][1])
        try:
            self.agents[name] = Agent(name, kind, bound)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None

    def _scenario(self, rest: list[tuple[str, int]], lineno: int) -> None:
        if not rest:
            raise ParseError("expected: scenario <name> root=<game>", lineno)
        name, column = rest[0]
        self._declare_name(name, "scenario", lineno, column)
        args = _keyword_args(rest[1:], lineno, ("root",), ("root",))
        self.pending_scenario = (name, args["root"][0], lineno, [])

    def _arm(self, rest: list[tuple[str, int]], lineno: int) -> None:
        if self.pending_scenario is None:
            raise ParseError("arm outside a scenario block", lineno)
        if len(rest) != 3 or rest[1][0] != "vs":
            raise ParseError("expected: arm <game> vs <game>", lineno)
        self.pending_scenario[3].append((rest[0][0], rest[2][0], lineno))

    def _check(self, rest: list[tuple[str, int]], lineno: int) -> None:
        if not rest:
            raise ParseError("expected a check kind after 'check'", lineno)
        kind, column = rest[0]
        args_tokens = rest[1:]
        if kind == "compare":
            args = _keyword_args(
                args_tokens, lineno,
                ("agent", "left", "right"), ("agent", "left", "right"),
            )
            self.checks.append(
                CompareCheck(
                    args["agent"][0], args["left"][0], args["right"][0], lineno
                )
            )
        elif kind == "diachronic":
            args = _keyword_args(
                args_tokens, lineno, ("agent", "scenario"), ("agent", "scenario")
            )
            self.checks.append(
                DiachronicCheck(args["agent"][0], args["scenario"][0], lineno)
            )
        elif kind == "continuity":
            keys = ("agent", "left", "right", "alphabet", "deltas", "samples", "seed")
            args = _keyword_args(args_tokens, lineno, keys, keys)
            self.checks.append(
                ContinuityCheck(
                    agent=args["agent"][0],
                    left=args["left"][0],
                    right=args["right"][0],
                    alphabet=_rational_list(args["alphabet"][0], lineno, args["alphabet"][1]),
                    deltas=_rational_list(args["deltas"][0], lineno, args["deltas"][1]),
                    samples=_positive_int(args["samples"][0], lineno, args["samples"][1]),
                    seed=_integer(args["seed"][0], lineno, args["seed"][1]),
                    line=lineno,
                )
            )
        elif kind == "dutchbook":
            args = _keyword_args(
                args_tokens, lineno, ("agent", "games"), ("agent", "games")
            )
            self.checks.append(
                DutchBookCheck(
                    args["agent"][0],
                    _name_list(args["games"][0], lineno, args["games"][1]),
                    lineno,
                )
            )
        elif kind == "fit":
            args = _keyword_args(
                args_tokens, lineno,
                ("agent", "games", "alphabet", "anchors"),
                ("agent", "games", "alphabet"),
            )
            anchors = None
            if "anchors" in args:
                pair = _rational_list(args["anchors"][0], lineno, args["anchors"][1])
                if len(pair) != 2:
                    raise ParseError(
                        "anchors must be exactly two rewards", lineno, args["anchors"][1]
                    )
                anchors = (pair[0], pair[1])
            self.checks.append(
                FitCheck(
                    agent=args["agent"][0],
                    games=_name_list(args["games"][0], lineno, args["games"][1]),
                    alphabet=_rational_list(args["alphabet"][0], lineno, args["alphabet"][1]),
                    anchors=anchors,
                    line=lineno,
                )
            )
        else:
            raise ParseError(f"unknown check kind {kind!r}", lineno, column)

    def _search(self, rest: list[tuple[str, int]], lineno: Optional[int]) -> None:
        if not rest or rest[0][0] != "diachronic":
            raise ParseError("expected: search diachronic ...", lineno)
        keys = ("agent", "rewards", "weights", "root_branches", "option_branches")
        args = _keyword_args(rest[1:], lineno, keys, keys)
        self.checks.append(
            SearchCheck(
                agent=args["agent"][0],
                rewards=_rational_list(args["rewards"][0], lineno, args["rewards"][1]),
                weights=_rational_list(args["weights"][0], lineno, args["weights"][1]),
                root_branches=_positive_int(
                    args["root_branches"][0], lineno, args["root_branches"][1]
                ),
                option_branches=_positive_int(
                    args["option_branches"][0], lineno, args["option_branches"][1]
                ),
                line=lineno,
            )
        )

    # -- block closing and reference resolution --------------------------

    def _close_blocks(self) -> None:
        if self.pending_game is not None:
            name, lineno, branches = self.pending_game
            self.pending_game = None
            game = Game(name, tuple(branches))
            try:
                validate_game(game)
            except GameError as exc:
                raise ParseError(str(exc), lineno) from None
            self.games[name] = game
        if self.pending_scenario is not None:
            self.scenario_decls.append(self.pending_scenario)
            self.pending_scenario = None

    def _resolve(self) -> ScenarioFile:
        scenarios: dict[str, DiachronicScenario] = {}
        for name, root_ref, lineno, arms in self.scenario_decls:
            root = self._lookup_game(root_ref, lineno)
            pairs = []
            for first_ref, second_ref, arm_line in arms:
                pairs.append(
                    (
                        self._lookup_game(first_ref, arm_line),
                        self._lookup_game(second_ref, arm_line),
                    )
                )
            try:
                scenarios[name] = DiachronicScenario(root, tuple(pairs))
            except ScenarioError as exc:
                raise ParseError(str(exc), lineno) from None
        for check in self.checks:
            self._lookup_agent(check.agent, check.line)
            if isinstance(check, CompareCheck):
                self._lookup_game(check.left, check.line)
                self._lookup_game(check.right, check.line)
            elif isinstance(check, DiachronicCheck):
                if check.scenario not in scenarios:
                    raise UnknownReferenceError(
                        f"unknown scenario {check.scenario!r}", check.line
                    )
            elif isinstance(check, ContinuityCheck):
                self._lookup_game(check.left, check.line)
                self._lookup_game(check.right, check.line)
            elif isinstance(check, (DutchBookCheck, FitCheck)):
                for ref in check.games:
                    self._lookup_game(ref, check.line)
        return ScenarioFile(
            games=self.games,
            agents=self.agents,
            scenarios=scenarios,
            checks=tuple(self.checks),
        )

    def _lookup_game(self, name: str, line: int) -> Game:
        if name not in self.games:
            raise UnknownReferenceError(f"unknown game {name!r}", line)
        return self.games[name]

    def _lookup_agent(self, name: str, line: int) -> Agent:
        if name not in self.agents:
            raise UnknownReferenceError(f"unknown agent {name!r}", line)
        return self.agents[name]


def parse(text: str) -> ScenarioFile:
    """Parse scenario-file text; raises ParseError with line and column."""
    return _Parser().parse(text)


def _parse_search_terms(terms: Sequence[str]) -> ScenarioFile:
    """The one-check file for ``branchgames search <terms>``.

    Each term is one ``search`` token, never scenario-file text.  The agent
    must be an agent kind, since no file declares it.  A ParseError names
    the offending term.
    """
    parser = _Parser()
    try:
        # A term's 1-based position stands in for its column.
        parser._search(
            [(term, position) for position, term in enumerate(terms, start=1)],
            None,
        )
    except ParseError as exc:
        if exc.column is None:
            raise
        raise ParseError(f"term {terms[exc.column - 1]!r}: {exc.message}") from None
    check = parser.checks[0]
    if check.agent not in AGENT_KINDS:
        raise ParseError(
            f"agent must be one of {', '.join(AGENT_KINDS)} (got {check.agent!r})"
        )
    return ScenarioFile(
        games={},
        agents={check.agent: Agent.of(check.agent, check.agent)},
        scenarios={},
        checks=(check,),
    )


def _fmt_list(values: Sequence) -> str:
    return ",".join(str(v) for v in values)


def _render_check(check: CheckDecl) -> str:
    if isinstance(check, CompareCheck):
        return (
            f"check compare agent={check.agent} left={check.left} "
            f"right={check.right}"
        )
    if isinstance(check, DiachronicCheck):
        return f"check diachronic agent={check.agent} scenario={check.scenario}"
    if isinstance(check, ContinuityCheck):
        return (
            f"check continuity agent={check.agent} left={check.left} "
            f"right={check.right} alphabet={_fmt_list(check.alphabet)} "
            f"deltas={_fmt_list(check.deltas)} samples={check.samples} "
            f"seed={check.seed}"
        )
    if isinstance(check, DutchBookCheck):
        return f"check dutchbook agent={check.agent} games={_fmt_list(check.games)}"
    if isinstance(check, FitCheck):
        text = (
            f"check fit agent={check.agent} games={_fmt_list(check.games)} "
            f"alphabet={_fmt_list(check.alphabet)}"
        )
        if check.anchors is not None:
            text += f" anchors={check.anchors[0]},{check.anchors[1]}"
        return text
    return (
        f"search diachronic agent={check.agent} rewards={_fmt_list(check.rewards)} "
        f"weights={_fmt_list(check.weights)} root_branches={check.root_branches} "
        f"option_branches={check.option_branches}"
    )


def render(sf: ScenarioFile) -> str:
    """Canonical text: sorted declarations, reduced rationals, checks in order."""
    lines = []
    for name in sorted(sf.games):
        lines.append(f"game {name}")
        for b in sf.games[name].branches:
            lines.append(f"  branch reward={b.reward} weight={b.weight}")
    for name in sorted(sf.agents):
        agent = sf.agents[name]
        suffix = "" if agent.max_reward is None else f" max_reward={agent.max_reward}"
        lines.append(f"agent {name} kind={agent.kind}{suffix}")
    for name in sorted(sf.scenarios):
        scenario = sf.scenarios[name]
        lines.append(f"scenario {name} root={scenario.root.name}")
        for first, second in scenario.options:
            lines.append(f"  arm {first.name} vs {second.name}")
    for check in sf.checks:
        lines.append(_render_check(check))
    return "\n".join(lines) + ("\n" if lines else "")


# -- check execution ------------------------------------------------------


@dataclass
class CheckOutcome:
    kind: str
    record: dict
    text: str
    violation: bool


def _game_json(game: Game) -> dict:
    return {
        "name": game.name,
        "branches": [
            {"reward": str(b.reward), "weight": str(b.weight)}
            for b in game.branches
        ],
    }


def _diachronic_witness_json(witness: DiachronicWitness) -> dict:
    return {
        "clause": witness.clause,
        "descendant_preferences": [p.value for p in witness.descendant_preferences],
        "strict_branches": list(witness.strict_branches),
        "left_compound": _game_json(witness.left_compound),
        "right_compound": _game_json(witness.right_compound),
        "compound_preference": witness.compound_preference.value,
    }


def _diachronic_text(name: str, agent: str, report: AxiomReport) -> str:
    if report.verdict is not Verdict.VIOLATED:
        return f"diachronic {agent} {name} -> {report.verdict.value}"
    w = report.witness
    lines = [
        f"diachronic {agent} {name} -> violated clause={w.clause}",
        f"  descendants: {', '.join(p.value for p in w.descendant_preferences)}",
        f"  {w.left_compound} vs {w.right_compound} -> {w.compound_preference.value}",
    ]
    return "\n".join(lines)


def _execute_compare(check: CompareCheck, sf: ScenarioFile) -> CheckOutcome:
    agent = sf.agents[check.agent]
    left = sf.games[check.left]
    right = sf.games[check.right]
    verdict = compare(agent, left, right)
    values = {
        "left_expected_value": str(expected_value(left)),
        "right_expected_value": str(expected_value(right)),
        "left_largest_reward": str(largest_reward(left)),
        "right_largest_reward": str(largest_reward(right)),
        "left_reward_range": str(reward_range(left)),
        "right_reward_range": str(reward_range(right)),
    }
    record = {
        "check_kind": "compare",
        "inputs": {
            "agent": check.agent,
            "kind": agent.kind,
            "left": _game_json(left),
            "right": _game_json(right),
        },
        "verdict": verdict.value,
        "witness": None,
        "values": values,
    }
    text = f"compare {check.agent} {check.left} {check.right} -> {verdict.value}"
    return CheckOutcome("compare", record, text, violation=False)


def _execute_diachronic(check: DiachronicCheck, sf: ScenarioFile) -> CheckOutcome:
    agent = sf.agents[check.agent]
    scenario = sf.scenarios[check.scenario]
    report = check_diachronic(agent, scenario)
    witness = None
    if report.witness is not None:
        witness = _diachronic_witness_json(report.witness)
    record = {
        "check_kind": "diachronic",
        "inputs": {
            "agent": check.agent,
            "scenario": check.scenario,
            "root": _game_json(scenario.root),
            "options": [
                [_game_json(first), _game_json(second)]
                for first, second in scenario.options
            ],
        },
        "verdict": report.verdict.value,
        "witness": witness,
        "values": {},
    }
    return CheckOutcome(
        "diachronic",
        record,
        _diachronic_text(check.scenario, check.agent, report),
        violation=report.verdict is Verdict.VIOLATED,
    )


def _execute_continuity(check: ContinuityCheck, sf: ScenarioFile) -> CheckOutcome:
    agent = sf.agents[check.agent]
    left = sf.games[check.left]
    right = sf.games[check.right]
    report = check_continuity(
        agent,
        left,
        right,
        RewardAlphabet.of(check.alphabet),
        check.deltas,
        check.samples,
        check.seed,
    )
    levels = []
    text_lines = [
        f"continuity {check.agent} {check.left} {check.right} -> "
        f"{report.verdict.value}"
    ]
    for level in report.witness.levels:
        if level.falsified:
            levels.append(
                {
                    "delta": str(level.delta),
                    "left": _game_json(level.left_perturbed),
                    "right": _game_json(level.right_perturbed),
                    "preference": level.preference.value,
                }
            )
            text_lines.append(
                f"  delta={level.delta}: {level.left_perturbed} vs "
                f"{level.right_perturbed} -> {level.preference.value}"
            )
        else:
            levels.append(
                {
                    "delta": str(level.delta),
                    "left": None,
                    "right": None,
                    "preference": None,
                }
            )
            text_lines.append(f"  delta={level.delta}: no counterexample found")
    record = {
        "check_kind": "continuity",
        "inputs": {
            "agent": check.agent,
            "left": _game_json(left),
            "right": _game_json(right),
            "alphabet": [str(r) for r in check.alphabet],
            "deltas": [str(d) for d in check.deltas],
            "samples": check.samples,
            "seed": check.seed,
        },
        "verdict": report.verdict.value,
        "witness": {"levels": levels},
        "values": {},
    }
    return CheckOutcome(
        "continuity",
        record,
        "\n".join(text_lines),
        violation=report.verdict is Verdict.VIOLATED,
    )


def _execute_dutchbook(check: DutchBookCheck, sf: ScenarioFile) -> CheckOutcome:
    agent = sf.agents[check.agent]
    games = [sf.games[name] for name in check.games]
    report = analyze_dutch_book(agent, games)
    verdict = "exposed" if report.exposure else "not_exposed"
    record = {
        "check_kind": "dutchbook",
        "inputs": {
            "agent": check.agent,
            "games": [_game_json(g) for g in games],
        },
        "verdict": verdict,
        "witness": {
            "combined": _game_json(report.combined),
            "null": _game_json(report.null),
        },
        "values": {
            "individual_preferences": [p.value for p in report.individual_preferences],
            "combined_preference": report.combined_preference.value,
            "sure_loss": report.sure_loss,
            "exposure": report.exposure,
            "weak_exposure": report.weak_exposure,
        },
    }
    text = "\n".join(
        [
            f"dutchbook {check.agent} {_fmt_list(check.games)} -> {verdict} "
            f"sure_loss={str(report.sure_loss).lower()} "
            f"weak_exposure={str(report.weak_exposure).lower()}",
            f"  combined={report.combined} -> {report.combined_preference.value}",
            "  individual: "
            + ", ".join(p.value for p in report.individual_preferences),
        ]
    )
    return CheckOutcome("dutchbook", record, text, violation=report.exposure)


def _fit_values(
    fit: UtilityFit,
    alphabet: RewardAlphabet,
    anchors: Optional[tuple[Fraction, Fraction]],
) -> tuple[dict, list[str]]:
    values: dict = {
        "u": None,
        "unique": fit.unique,
        "normalized_u": None,
        "normalization_error": None,
    }
    text_lines = []
    if fit.u is not None:
        values["u"] = {str(r): str(fit.u[r]) for r in alphabet}
        text_lines.append(
            "  u: " + ", ".join(f"{r}->{fit.u[r]}" for r in alphabet)
            + f" unique={str(fit.unique).lower()}"
        )
    if anchors is not None and fit.feasible:
        lo, hi = anchors
        try:
            normalized = normalize_fit(fit, lo, hi)
            values["normalized_u"] = {str(r): str(normalized.u[r]) for r in alphabet}
            text_lines.append(
                f"  normalized at ({lo},{hi}): "
                + ", ".join(f"{r}->{normalized.u[r]}" for r in alphabet)
            )
        except DegenerateNormalizationError:
            values["normalization_error"] = "DegenerateNormalization"
            text_lines.append(
                f"  normalization at ({lo},{hi}): DegenerateNormalization"
            )
    return values, text_lines


def _execute_fit(check: FitCheck, sf: ScenarioFile) -> CheckOutcome:
    agent = sf.agents[check.agent]
    games = [sf.games[name] for name in check.games]
    alphabet = RewardAlphabet.of(check.alphabet)
    instance = build_instance(agent, games, alphabet)
    fit = fit_utility(instance)
    witness = None
    if fit.certificate is not None:
        witness = {
            "certificate": [
                {
                    "left": instance.games[c.left].name,
                    "right": instance.games[c.right].name,
                    "preference": c.preference.value,
                }
                for c in fit.certificate
            ]
        }
    values, extra_lines = _fit_values(fit, alphabet, check.anchors)
    record = {
        "check_kind": "fit",
        "inputs": {
            "agent": check.agent,
            "games": [_game_json(g) for g in games],
            "alphabet": [str(r) for r in check.alphabet],
            "anchors": (
                [str(check.anchors[0]), str(check.anchors[1])]
                if check.anchors is not None
                else None
            ),
        },
        "verdict": fit.verdict,
        "witness": witness,
        "values": values,
    }
    text_lines = [
        f"fit {check.agent} {_fmt_list(check.games)} -> {fit.verdict}"
    ]
    if witness is not None:
        parts = [
            f"{c['left']} {c['preference']} {c['right']}"
            for c in witness["certificate"]
        ]
        text_lines.append("  certificate: " + "; ".join(parts))
    text_lines.extend(extra_lines)
    return CheckOutcome(
        "fit", record, "\n".join(text_lines), violation=False
    )


def _execute_search(check: SearchCheck, sf: ScenarioFile) -> CheckOutcome:
    agent = sf.agents[check.agent]
    spec = GridSpec(
        check.rewards,
        check.weights,
        check.root_branches,
        check.option_branches,
    )
    total = scenario_count(spec)
    hit = find_violation(agent, spec)
    if hit is None:
        record_verdict = "none"
        witness = None
        text = (
            f"search diachronic {check.agent} -> none "
            f"(scanned {total} scenarios)"
        )
    else:
        record_verdict = "found"
        witness = {
            "index": hit.index,
            "scenario": {
                "root": _game_json(hit.scenario.root),
                "options": [
                    [_game_json(first), _game_json(second)]
                    for first, second in hit.scenario.options
                ],
            },
            "report": _diachronic_witness_json(hit.report.witness),
        }
        text_lines = [
            f"search diachronic {check.agent} -> found index={hit.index} "
            f"clause={hit.report.witness.clause}",
            f"  root={hit.scenario.root}",
        ]
        for i, (first, second) in enumerate(hit.scenario.options):
            text_lines.append(f"  arm {i}: {first} vs {second}")
        text_lines.append(
            f"  {hit.report.witness.left_compound} vs "
            f"{hit.report.witness.right_compound} -> "
            f"{hit.report.witness.compound_preference.value}"
        )
        text = "\n".join(text_lines)
    record = {
        "check_kind": "search",
        "inputs": {
            "agent": check.agent,
            "kind": agent.kind,
            "rewards": [str(r) for r in check.rewards],
            "weights": [str(w) for w in check.weights],
            "root_branches": check.root_branches,
            "option_branches": check.option_branches,
        },
        "verdict": record_verdict,
        "witness": witness,
        "values": {"scenario_count": total},
    }
    return CheckOutcome("search", record, text, violation=hit is not None)


_EXECUTORS = {
    CompareCheck: _execute_compare,
    DiachronicCheck: _execute_diachronic,
    ContinuityCheck: _execute_continuity,
    DutchBookCheck: _execute_dutchbook,
    FitCheck: _execute_fit,
    SearchCheck: _execute_search,
}


def run_file(sf: ScenarioFile) -> list[CheckOutcome]:
    """Execute all checks in declaration order; raises CheckExecutionError."""
    outcomes = []
    for check in sf.checks:
        executor = _EXECUTORS[type(check)]
        try:
            outcomes.append(executor(check, sf))
        except (GameError, ValueError) as exc:
            origin = "check" if check.line is None else f"check at line {check.line}"
            raise CheckExecutionError(
                f"{origin} ({_render_check(check)})", exc
            ) from exc
    return outcomes


def emit(outcomes: Sequence[CheckOutcome], machine: bool) -> str:
    if machine:
        return "\n".join(
            json.dumps(o.record, sort_keys=True) for o in outcomes
        ) + ("\n" if outcomes else "")
    return "\n".join(o.text for o in outcomes) + ("\n" if outcomes else "")


# -- built-in gallery ------------------------------------------------------

_GALLERY_BASE = """\
# Worked examples bundled with the package.

game A
  branch reward=2 weight=1/2
  branch reward=3 weight=1/2
game B
  branch reward=1 weight=1/2
  branch reward=4 weight=1/2
game certain0
  branch reward=0 weight=1
game certain1
  branch reward=1 weight=1
game certain2
  branch reward=2 weight=1
game mix02
  branch reward=0 weight=1/2
  branch reward=2 weight=1/2
game B0
  branch reward=1 weight=0
  branch reward=0 weight=1
game Bhalf
  branch reward=1 weight=1/2
  branch reward=0 weight=1/2
game coin_win_heads
  branch reward=1 weight=1/2
  branch reward=-2 weight=1/2
game coin_win_tails
  branch reward=-2 weight=1/2
  branch reward=1 weight=1/2
game zero_coin
  branch reward=0 weight=1/2
  branch reward=0 weight=1/2
game prize2
  branch reward=2 weight=1
game prize3
  branch reward=3 weight=1

agent dtbr kind=dtbr
agent egalitarian kind=egalitarian
agent optimist kind=optimist
agent stoic kind=stoic max_reward=1000000000

scenario optimist_choice root=zero_coin
  arm prize2 vs certain1
  arm prize3 vs prize3

check compare agent=egalitarian left=A right=B
check compare agent=dtbr left=A right=B
check diachronic agent=optimist scenario=optimist_choice
check continuity agent=optimist left=certain1 right=B0 alphabet=0,1 deltas=1/2,1/4,1/8,1/16 samples=4 seed=7
check dutchbook agent=optimist games=coin_win_heads,coin_win_tails
check dutchbook agent=stoic games=coin_win_heads,coin_win_tails
check compare agent=dtbr left=coin_win_heads right=zero_coin
"""

_GALLERY_GAMES = (
    "A",
    "B",
    "B0",
    "Bhalf",
    "certain0",
    "certain1",
    "certain2",
    "coin_win_heads",
    "coin_win_tails",
    "mix02",
    "prize2",
    "prize3",
    "zero_coin",
)

_GALLERY_FITS = """\
check fit agent=stoic games=A,B,certain1 alphabet=1,2,3,4 anchors=1,2
check fit agent=dtbr games=certain0,certain1,certain2,mix02 alphabet=0,1,2 anchors=0,1
check fit agent=optimist games=certain1,B0,Bhalf alphabet=0,1
"""


def gallery_source() -> str:
    """The gallery as scenario-file text (stoic all-pairs checks generated)."""
    lines = [_GALLERY_BASE]
    for i, left in enumerate(_GALLERY_GAMES):
        for right in _GALLERY_GAMES[i + 1 :]:
            lines.append(f"check compare agent=stoic left={left} right={right}")
    lines.append(_GALLERY_FITS)
    return "\n".join(lines)


def run_gallery() -> list[CheckOutcome]:
    """Parse and execute the built-in gallery."""
    return run_file(parse(gallery_source()))


# -- command line ----------------------------------------------------------


def _emit_and_exit_code(
    outcomes: Sequence[CheckOutcome], machine: bool, fail_on_violation: bool
) -> int:
    sys.stdout.write(emit(outcomes, machine))
    if fail_on_violation and any(o.violation for o in outcomes):
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="branchgames",
        description=(
            "Exact-arithmetic laboratory for branching decision games: "
            "agent preference orders, rationality axiom checks, Dutch-book "
            "analysis, and expected-utility fitting."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute the checks in a scenario file")
    run_parser.add_argument("file", help="scenario file path")
    run_parser.add_argument(
        "--machine", action="store_true", help="one JSON record per check"
    )
    run_parser.add_argument(
        "--fail-on-violation",
        action="store_true",
        help="exit 1 when any check reports a violation or exposure",
    )

    gallery_parser = sub.add_parser(
        "gallery", help="run the built-in gallery of worked examples"
    )
    gallery_parser.add_argument("--machine", action="store_true")

    search_parser = sub.add_parser(
        "search",
        help="grid search without a scenario file, e.g. "
        "search diachronic agent=egalitarian rewards=0,3,4,5 weights=1/2,1 "
        "root_branches=2 option_branches=2",
    )
    search_parser.add_argument(
        "terms", nargs="+", help="the scenario-file search form, tokenized"
    )
    search_parser.add_argument("--machine", action="store_true")
    search_parser.add_argument("--fail-on-violation", action="store_true")

    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            try:
                with open(args.file, encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            outcomes = run_file(parse(text))
            return _emit_and_exit_code(
                outcomes, args.machine, args.fail_on_violation
            )
        if args.command == "gallery":
            return _emit_and_exit_code(run_gallery(), args.machine, False)
        outcomes = run_file(_parse_search_terms(args.terms))
        return _emit_and_exit_code(outcomes, args.machine, args.fail_on_violation)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except CheckExecutionError as exc:
        print(f"execution error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
