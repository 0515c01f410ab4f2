"""Scenario files, check execution, reports, and the command line.

Scenario files are line oriented; ``#`` starts a comment and indentation
is ignored.  Rational literals are ``<int>`` or ``<int>/<posint>`` only,
in ASCII digits.
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

A line is split on whitespace by ``str.split()``.  A token's 1-based
column (a tab counts as one) is worked out only when an error names it,
by scanning that line again with ``_TOKEN_RE``, which splits on the same
code points.  Each ``parse`` call keeps one table from the text of a
branch line before any comment to the ``Branch`` it parsed to, and looks
every line up there before splitting it.  A line found there inside an
open game block adds that shared, frozen ``Branch`` and is not split or
parsed again; a line that fails is never stored.  So every game of a file
holds one ``Branch`` object per distinct branch line, which the records
of a run then write out once (below).  The parse loop itself opens the
block of a ``game <name>`` line whose name is valid and not yet declared,
and sends every ``check`` and ``search`` line straight to
``_parse_check``; other lines go through ``_line``.  The ``key=value``
tokens of every line, in any order, are read by ``_key_values`` in one
pass in line order, which raises at the first bad token, else at the
first required key that no token sets.  ``_declaration`` words a bad
name, a game line reaching it only when malformed.  So every error keeps
its text, line and column.
A game is built when its block closes, and ``Game`` validates itself, so
an invalid game is a parse error on its ``game`` line.

A check kind is one entry of ``_CHECK_KINDS``: its record kind, the
first two words of its line, its dataclass and its executor.  The
dataclass's fields, in order, are the keys of the line, each with a value
parser, the kind of declaration its value names (if any) and whether it
is required.  Parsing, reference resolution, canonical rendering and the
``inputs`` of each record are read from that entry; only the executor is
written per kind.

Checks run in declaration order.  Text mode prints one block per check;
machine mode prints one JSON object per line with stable keys
(check_kind, inputs, verdict, witness, values) and is byte-identical
across runs of the same file.  Each executor returns its record's
verdict, the JSON texts of its values and witness, and its text block;
``run_file`` writes the record's line from them, once, and ``emit`` only
joins the lines.  The line is the only form a record takes, and it is
what ``json.dumps(record, sort_keys=True)`` would write:
the record, its ``inputs`` and every witness object are written from the
text of each member, keys in sorted order; a leaf that holds no game
goes through one shared encoder, a string on its fast path, and an
integer through ``str()``.  A compare record's verdict comes from
``compare``; its six values are written from the integers of
each game's ``terms``, as ``str(Fraction)`` would write them, without
building or formatting a ``Fraction``.  Every game a record holds,
inputs and witnesses alike, goes through one ``_GameJson`` per
``run_file`` call, which writes each ``Branch`` object's text once,
from its integer ``pairs``.  Nothing of it outlives the call.  A
violated axiom is a reported result, not a failure: the exit code is 0
whenever every check executed, 2 on parse or execution errors, and 1
only under --fail-on-violation when some check found a violation or
exposure.

``main(argv)`` returns that exit code rather than exiting, so it can be
called repeatedly in one process.  It builds its argparse parser on the
first call and reuses it after; argparse itself still exits, with 0 after
``--help`` and 2 on a usage error.

``main`` pauses Python's cyclic garbage collector for the length of its
call and restores the caller's setting on every way out: a collector
that was enabled on entry is enabled again, one that was disabled stays
so.  A run makes no reference cycles: its games, branches, declarations
and records are freed by reference counting alone, so a collection
during a run traverses them and finds nothing.  Without the pause a run
of about 1,150 checks sets off about 21 collections, about 1.7 ms of its
47 ms; a search over rewards 0..5, weights k/12, 3 root and 4 option
branches (226,122 option games) takes 1.9 s for dtbr with it, 3.8 s
without.  Only argparse leaves cyclic garbage, its help formatter's, when
it builds the parser and when it writes usage or help; the first
collection after the call frees it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import math
import re
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Any, Callable, Iterable, NamedTuple, Optional, Sequence, Union

from .agents import AGENT_KINDS, Agent, compare
from .axioms import (
    DiachronicScenario,
    DiachronicWitness,
    ScenarioError,
    analyze_dutch_book,
    check_continuity,
    check_diachronic,
)
from .core import (
    Branch,
    Game,
    GameError,
    RewardAlphabet,
    as_rational,
    validate_game,  # noqa: F401 - unused here; perfbench/tracing.py wraps it
)
from .representation import (
    DegenerateNormalizationError,
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
        super().__init__(f"{description}: {str(cause) or type(cause).__name__}")


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# The tokens of a line, as str.split() finds them: both split on the same
# code points.
_TOKEN_RE = re.compile(r"\S+")


class _Line(NamedTuple):
    """The tokens of one line, and how an error points at one of them."""

    tokens: list[str]
    # The line's text before any comment; None for command-line terms.
    text: Optional[str] = None
    number: Optional[int] = None

    def error(
        self, message: str, index: int, exc_type: type[ParseError] = ParseError
    ) -> ParseError:
        """An error at token ``index``: by line and column, else quoting it."""
        if self.text is None:
            return exc_type(f"term {self.tokens[index]!r}: {message}")
        column = list(_TOKEN_RE.finditer(self.text))[index].start() + 1
        return exc_type(message, self.number, column)


# -- value parsers: text to value, or ValueError ----------------------------


def _rationals(text: str) -> tuple[Fraction, ...]:
    parts = text.split(",")
    if "" in parts:
        raise ValueError(f"malformed list {text!r}")
    return tuple(as_rational(part) for part in parts)


def _names(text: str) -> tuple[str, ...]:
    parts = text.split(",")
    if not all(_NAME_RE.fullmatch(part) for part in parts):
        raise ValueError(f"malformed name list {text!r}")
    return tuple(parts)


def _integer(text: str) -> int:
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise ValueError(f"expected a positive integer, got {text!r}")
    return value


def _anchors(text: str) -> tuple[Fraction, ...]:
    pair = _rationals(text)
    if len(pair) != 2:
        raise ValueError("anchors must be exactly two rewards")
    return pair


def _weight(text: str) -> Fraction:
    weight = as_rational(text)
    if weight.numerator < 0 or weight.numerator > weight.denominator:
        raise ValueError(f"weight {weight} outside [0, 1]")
    return weight


def _agent_kind(text: str) -> str:
    if text not in AGENT_KINDS:
        expected = ", ".join(AGENT_KINDS)
        raise ValueError(f"unknown agent kind {text!r}; expected one of {expected}")
    return text


class _Key(NamedTuple):
    """One ``key=value`` of a line."""

    name: str
    parse: Callable[[str], Any]
    # What the value names: "agent", "game", "games" or "scenario"; None
    # for a literal.
    ref: Optional[str] = None
    required: bool = True


def _keys(*keys: _Key) -> dict[str, _Key]:
    return {key.name: key for key in keys}


# The keys of a branch line, after its keyword.
_BRANCH_KEYS = _keys(_Key("reward", as_rational), _Key("weight", _weight))

# The keys after the name of each declaration.
_DECLARATION_KEYS = {
    "game": _keys(),
    "agent": _keys(
        _Key("kind", _agent_kind), _Key("max_reward", as_rational, required=False)
    ),
    "scenario": _keys(_Key("root", str)),
}


def _key_field(
    parse: Callable[[str], Any], ref: Optional[str] = None, required: bool = True
) -> Any:
    """A check field, read from the ``key=value`` token of the same name.

    The arguments are those of :class:`_Key`.  The fields of a check
    dataclass, in order, are the keys of its line.
    """
    return field(metadata={"parse": parse, "ref": ref, "required": required})


@dataclass(frozen=True)
class CompareCheck:
    agent: str = _key_field(str, "agent")
    left: str = _key_field(str, "game")
    right: str = _key_field(str, "game")
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class DiachronicCheck:
    agent: str = _key_field(str, "agent")
    scenario: str = _key_field(str, "scenario")
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class ContinuityCheck:
    agent: str = _key_field(str, "agent")
    left: str = _key_field(str, "game")
    right: str = _key_field(str, "game")
    alphabet: tuple[Fraction, ...] = _key_field(_rationals)
    deltas: tuple[Fraction, ...] = _key_field(_rationals)
    samples: int = _key_field(_positive_int)
    seed: int = _key_field(_integer)
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class DutchBookCheck:
    agent: str = _key_field(str, "agent")
    games: tuple[str, ...] = _key_field(_names, "games")
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class FitCheck:
    agent: str = _key_field(str, "agent")
    games: tuple[str, ...] = _key_field(_names, "games")
    alphabet: tuple[Fraction, ...] = _key_field(_rationals)
    anchors: Optional[tuple[Fraction, Fraction]] = _key_field(_anchors, required=False)
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class SearchCheck:
    agent: str = _key_field(str, "agent")
    rewards: tuple[Fraction, ...] = _key_field(_rationals)
    weights: tuple[Fraction, ...] = _key_field(_rationals)
    root_branches: int = _key_field(_positive_int)
    option_branches: int = _key_field(_positive_int)
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


def _key_values(line: _Line, start: int, keys: dict[str, _Key]) -> list:
    """The parsed value of each key, in key order, from token ``start`` on.

    The tokens may set the keys in any order, and an optional key that no
    token sets reads None.  The first bad token in line order raises, with
    its column: one without "=", an unknown or repeated key, an empty
    value, or one its parser rejects.  Else the first required key that no
    token sets raises.
    """
    given = {}
    for index, token in enumerate(line.tokens[start:], start):
        name, eq, value = token.partition("=")
        try:
            if not eq:
                raise ValueError(f"expected key=value, got {token!r}")
            if name not in keys:
                raise ValueError(f"unknown key {name!r}")
            if name in given:
                raise ValueError(f"duplicate key {name!r}")
            if value == "":
                raise ValueError(f"empty value for {name!r}")
            given[name] = keys[name].parse(value)
        except ValueError as exc:
            raise line.error(str(exc), index) from None
    for name, key in keys.items():
        if key.required and name not in given:
            raise ParseError(f"missing required key {name}=...", line.number)
    return [given.get(name) for name in keys]


def _parse_check(line: _Line) -> CheckDecl:
    """A ``check <kind> key=value ...`` or ``search diachronic ...`` line."""
    keyword = line.tokens[0]
    if len(line.tokens) < 2:
        raise ParseError(f"expected a {keyword} kind after {keyword!r}", line.number)
    word = line.tokens[1]
    kind = _CHECK_FORMS.get(f"{keyword} {word}")
    if kind is None:
        forms = [form.split() for form in _CHECK_FORMS]
        expected = ", ".join(w for k, w in forms if k == keyword)
        raise line.error(
            f"unknown {keyword} kind {word!r}; expected one of {expected}", 1
        )
    return kind.decl(*_key_values(line, 2, kind.keys), line=line.number)


class _Parser:
    def __init__(self) -> None:
        self.games: dict[str, Game] = {}
        self.agents: dict[str, Agent] = {}
        self.scenario_decls: dict[str, tuple] = {}
        self.checks: list[CheckDecl] = []
        self.pending_game: Optional[tuple[str, int, list[Branch]]] = None
        self.pending_scenario: Optional[tuple[str, str, int, list[tuple]]] = None
        # Declaration kind -> the names declared so far.
        self.namespaces = {
            "game": self.games,
            "agent": self.agents,
            "scenario": self.scenario_decls,
        }
        # A branch line's text before any comment -> its Branch.  Only
        # lines that parsed are stored, so a bad one fails again wherever
        # it recurs.
        self.branch_lines: dict[str, Branch] = {}

    def parse(self, text: str) -> ScenarioFile:
        # Lines end only where text-mode open() ends them; str.splitlines()
        # would also end one at \f, \v, U+2028 and others, which
        # misnumbers every later line.  Those stay token separators.
        lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        branch_lines = self.branch_lines
        games = self.games
        for number, raw in enumerate(lines, start=1):
            content = raw.partition("#")[0]
            branch = branch_lines.get(content)
            # Outside a game block a known branch line takes the path below,
            # which raises.
            if branch is not None and self.pending_game is not None:
                self.pending_game[2].append(branch)
                continue
            tokens = content.split()
            if not tokens:
                continue
            keyword = tokens[0]
            if keyword == "game":
                # The block before may fail to validate; that error comes
                # first, and its name counts as declared after it.
                self._close_blocks()
                if (
                    len(tokens) != 2
                    or tokens[1] in games
                    or not _NAME_RE.fullmatch(tokens[1])
                ):
                    self._declaration(keyword, _Line(tokens, content, number))
                self.pending_game = (tokens[1], number, [])
                continue
            if keyword in _CHECK_KEYWORDS:
                self._close_blocks()
                self.checks.append(_parse_check(_Line(tokens, content, number)))
                continue
            self._line(_Line(tokens, content, number))
        self._close_blocks()
        return self._resolve()

    # -- declaration handling -------------------------------------------

    def _line(self, line: _Line) -> None:
        keyword = line.tokens[0]
        if keyword not in ("branch", "arm"):
            self._close_blocks()
        if keyword == "branch":
            if self.pending_game is None:
                raise ParseError("branch outside a game block", line.number)
            branch = Branch(*_key_values(line, 1, _BRANCH_KEYS))
            self.branch_lines[line.text] = branch
            self.pending_game[2].append(branch)
        elif keyword == "arm":
            if self.pending_scenario is None:
                raise ParseError("arm outside a scenario block", line.number)
            tokens = line.tokens
            if len(tokens) != 4 or tokens[2] != "vs":
                raise ParseError("expected: arm <game> vs <game>", line.number)
            self.pending_scenario[3].append((tokens[1], tokens[3], line.number))
        elif keyword in _DECLARATION_KEYS:
            self._declaration(keyword, line)
        else:
            raise line.error(f"unknown keyword {keyword!r}", 0)

    def _declaration(self, keyword: str, line: _Line) -> None:
        """Check a declaration's name and keys, and declare an agent or scenario.

        The parse loop opens a game block itself, and calls this only for
        a malformed game line, which raises here with its error worded.
        """
        if len(line.tokens) < 2:
            raise ParseError(f"expected a name after {keyword!r}", line.number)
        name = line.tokens[1]
        if not _NAME_RE.fullmatch(name):
            raise line.error(f"invalid {keyword} name {name!r}", 1)
        if name in self.namespaces[keyword]:
            message = f"duplicate {keyword} name {name!r}"
            raise line.error(message, 1, DuplicateNameError)
        values = _key_values(line, 2, _DECLARATION_KEYS[keyword])
        if keyword == "scenario":
            self.pending_scenario = (name, *values, line.number, [])
        elif keyword == "agent":
            try:
                self.agents[name] = Agent(name, *values)
            except ValueError as exc:
                raise ParseError(str(exc), line.number) from None

    # -- block closing and reference resolution --------------------------

    def _close_blocks(self) -> None:
        if self.pending_game is not None:
            name, lineno, branches = self.pending_game
            self.pending_game = None
            try:
                self.games[name] = Game(name, tuple(branches))
            except GameError as exc:
                raise ParseError(str(exc), lineno) from None
        if self.pending_scenario is not None:
            self.scenario_decls[self.pending_scenario[0]] = self.pending_scenario
            self.pending_scenario = None

    def _resolve(self) -> ScenarioFile:
        scenarios: dict[str, DiachronicScenario] = {}
        declared = {"agent": self.agents, "game": self.games, "scenario": scenarios}

        def lookup(kind: str, name: str, line: Optional[int]) -> Any:
            if name not in declared[kind]:
                raise UnknownReferenceError(f"unknown {kind} {name!r}", line)
            return declared[kind][name]

        for name, root_ref, lineno, arms in self.scenario_decls.values():
            root = lookup("game", root_ref, lineno)
            pairs = tuple(
                (lookup("game", first, arm_line), lookup("game", second, arm_line))
                for first, second, arm_line in arms
            )
            try:
                scenarios[name] = DiachronicScenario(root, pairs)
            except ScenarioError as exc:
                raise ParseError(str(exc), lineno) from None
        for check in self.checks:
            for key in _KIND_OF[type(check)].keys.values():
                value = getattr(check, key.name)
                if key.ref == "games":
                    for game in value:
                        lookup("game", game, check.line)
                elif key.ref is not None:
                    lookup(key.ref, value, check.line)
        return ScenarioFile(self.games, self.agents, scenarios, tuple(self.checks))


def parse(text: str) -> ScenarioFile:
    """Parse scenario-file text; raises ParseError with line and column."""
    return _Parser().parse(text)


def _parse_search_terms(terms: Sequence[str]) -> ScenarioFile:
    """The one-check file for ``branchgames search <terms>``.

    Each term is one ``search`` token, never scenario-file text.  The agent
    must be an agent kind, since no file declares it.  A ParseError names
    the offending term.
    """
    for term in terms:
        if not _TOKEN_RE.fullmatch(term):
            raise ParseError(f"term {term!r}: not a single token")
    check = _parse_check(_Line(["search", *terms]))
    if check.agent not in AGENT_KINDS:
        raise ParseError(
            f"agent must be one of {', '.join(AGENT_KINDS)} (got {check.agent!r})"
        )
    agents = {check.agent: Agent.of(check.agent, check.agent)}
    return ScenarioFile(games={}, agents=agents, scenarios={}, checks=(check,))


def _fmt(value: Any) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _key_words(keys: dict[str, _Key], declared: Any) -> list[str]:
    """``key=value`` for each key the declaration sets, in key order."""
    values = [(name, getattr(declared, name)) for name in keys]
    return [f"{name}={_fmt(value)}" for name, value in values if value is not None]


def _render_check(check: CheckDecl) -> str:
    kind = _KIND_OF[type(check)]
    return " ".join([kind.form, *_key_words(kind.keys, check)])


def render(sf: ScenarioFile) -> str:
    """Canonical text: sorted declarations, reduced rationals, checks in order."""
    lines = []
    for name in sorted(sf.games):
        lines.append(f"game {name}")
        for b in sf.games[name].branches:
            lines.append(f"  branch reward={b.reward} weight={b.weight}")
    for name in sorted(sf.agents):
        words = _key_words(_DECLARATION_KEYS["agent"], sf.agents[name])
        lines.append(" ".join(["agent", name, *words]))
    for name in sorted(sf.scenarios):
        scenario = sf.scenarios[name]
        lines.append(f"scenario {name} root={scenario.root.name}")
        for first, second in scenario.options:
            lines.append(f"  arm {first.name} vs {second.name}")
    for check in sf.checks:
        lines.append(_render_check(check))
    return "\n".join(lines) + ("\n" if lines else "")


# -- check execution ------------------------------------------------------

# The record verdicts that --fail-on-violation counts.
_VIOLATIONS = frozenset({"violated", "exposed", "found"})


@dataclass
class CheckOutcome:
    """One executed check: its ``--machine`` line, its text block, its verdict.

    The line is the record; parse it with ``json.loads`` to read its members.
    """

    line: str
    text: str
    verdict: str

    @property
    def violation(self) -> bool:
        return self.verdict in _VIOLATIONS


# One encoder for the record leaves that hold no game: json.dumps(value,
# sort_keys=True) writes the same bytes but builds an encoder per call.  A
# str takes its fast path, which builds no C encoder; any other value
# builds one per call, so a record sends at most one such value through
# it, and writes an int with str().  No leaf is cyclic, so the
# circular-reference check is skipped.
_RECORD_ENCODER = json.JSONEncoder(sort_keys=True, check_circular=False)
_encode = _RECORD_ENCODER.encode


def _list(texts: Iterable[str]) -> str:
    """The JSON array of these element texts."""
    return "[" + ", ".join(texts) + "]"


def _object(members: dict[str, str]) -> str:
    """The JSON object of these member texts, in sorted key order.

    The keys are identifiers, which JSON writes as they are.
    """
    texts = [f'"{key}": {members[key]}' for key in sorted(members)]
    return "{" + ", ".join(texts) + "}"


class _GameJson:
    """The JSON text of games in records, for one ``run_file`` call.

    Each distinct ``Branch`` object is written as its ``{"reward": ...,
    "weight": ...}`` text once, and every game that holds that object
    reuses the text.  The parser hands every game of a file one shared
    ``Branch`` per distinct branch line, so a file's records stringify
    each of those once.  The table is keyed by ``id`` and keeps the
    ``Branch`` beside its text, so no id is reused while the entry lives;
    ``Branch`` and ``Fraction`` values are never hashed, which costs more
    than recomputing the strings.  A game is written as ``{"branches":
    [...], "name": ...}`` with its name through the record encoder.  A new
    table is made per call, so nothing outlives it.
    """

    def __init__(self) -> None:
        self.branches: dict[int, tuple[Branch, str]] = {}

    def _branch(self, branch: Branch) -> tuple[Branch, str]:
        # A rational's text needs no JSON escaping.
        share, bottom, top, scale = branch.pairs
        reward = top if scale == 1 else f"{top}/{scale}"
        weight = share if bottom == 1 else f"{share}/{bottom}"
        text = f'{{"reward": "{reward}", "weight": "{weight}"}}'
        entry = (branch, text)
        self.branches[id(branch)] = entry
        return entry

    def __call__(self, game: Optional[Game]) -> str:
        if game is None:
            return "null"
        known = self.branches.get
        add = self._branch
        branches = ", ".join([(known(id(b)) or add(b))[1] for b in game.branches])
        return f'{{"branches": [{branches}], "name": {_encode(game.name)}}}'

    def scenario(self, scenario: DiachronicScenario) -> dict[str, str]:
        """The texts of a scenario's ``root`` and ``options`` members."""
        pairs = scenario.options
        options = (_list([self(first), self(second)]) for first, second in pairs)
        return {"root": self(scenario.root), "options": _list(options)}

    def witness(self, witness: DiachronicWitness) -> str:
        return _object(
            {
                "clause": _encode(witness.clause),
                "descendant_preferences": _list(
                    [_encode(p.value) for p in witness.descendant_preferences]
                ),
                "strict_branches": _list(map(str, witness.strict_branches)),
                "left_compound": self(witness.left_compound),
                "right_compound": self(witness.right_compound),
                "compound_preference": _encode(witness.compound_preference.value),
            }
        )


def _compound_line(witness: DiachronicWitness) -> str:
    return (
        f"  {witness.left_compound} vs {witness.right_compound} -> "
        f"{witness.compound_preference.value}"
    )


def _inputs(check: CheckDecl, sf: ScenarioFile, game_json: _GameJson) -> dict[str, str]:
    """The text of each of the check's keys: games in full, rationals as strings."""
    inputs = {}
    for key in _KIND_OF[type(check)].keys.values():
        value = getattr(check, key.name)
        if key.ref == "game":
            text = game_json(sf.games[value])
        elif key.ref == "games":
            text = _list([game_json(sf.games[name]) for name in value])
        elif isinstance(value, tuple):
            text = _list([_encode(str(v)) for v in value])
        elif isinstance(value, str):
            text = _encode(value)
        else:  # an integer, or None for an optional key left out
            text = "null" if value is None else str(value)
        inputs[key.name] = text
    return inputs


# An executor runs its check and returns its record's verdict, the JSON
# texts of its values and witness ("{}" and "null" where the kind has
# none), and its text block.  It adds to the ``inputs`` texts that run_file
# hands it those its keys do not name.  Every game it writes goes through
# the run's ``game_json``.


def _rational_text(numerator: int, denominator: int) -> str:
    """``str(Fraction(numerator, denominator))`` for a positive denominator."""
    common = math.gcd(numerator, denominator)
    if common == denominator:
        return str(numerator // common)
    return f"{numerator // common}/{denominator // common}"


def _compare_values(game: Game) -> tuple[str, str, str]:
    """A game's expected value, largest reward and reward range, as text.

    Written from the integers of the game's ``terms``: each support bound
    is read once as its integer ratio, and the range is reduced from
    them, so no Fraction is built or formatted.
    """
    numerator, denominator, low, high = game.terms
    top, bottom = high.as_integer_ratio()
    least, scale = low.as_integer_ratio()
    return (
        _rational_text(numerator, denominator),
        _rational_text(top, bottom),
        _rational_text(top * scale - least * bottom, bottom * scale),
    )


def _execute_compare(
    check: CompareCheck, sf: ScenarioFile, inputs: dict[str, str], game_json: _GameJson
) -> tuple[str, str, str, str]:
    agent = sf.agents[check.agent]
    left = sf.games[check.left]
    right = sf.games[check.right]
    inputs["kind"] = _encode(agent.kind)
    verdict = compare(agent, left, right).value
    left_value, left_high, left_range = _compare_values(left)
    right_value, right_high, right_range = _compare_values(right)
    # In sorted key order.
    values = (
        f'{{"left_expected_value": {_encode(left_value)}, '
        f'"left_largest_reward": {_encode(left_high)}, '
        f'"left_reward_range": {_encode(left_range)}, '
        f'"right_expected_value": {_encode(right_value)}, '
        f'"right_largest_reward": {_encode(right_high)}, '
        f'"right_reward_range": {_encode(right_range)}}}'
    )
    text = f"compare {check.agent} {check.left} {check.right} -> {verdict}"
    return verdict, values, "null", text


def _execute_diachronic(
    check: DiachronicCheck,
    sf: ScenarioFile,
    inputs: dict[str, str],
    game_json: _GameJson,
) -> tuple[str, str, str, str]:
    scenario = sf.scenarios[check.scenario]
    report = check_diachronic(sf.agents[check.agent], scenario)
    inputs.update(game_json.scenario(scenario))
    verdict = report.verdict.value
    text = f"diachronic {check.agent} {check.scenario} -> {verdict}"
    w = report.witness
    if w is None:
        return verdict, "{}", "null", text
    descendants = ", ".join(p.value for p in w.descendant_preferences)
    lines = [f"{text} clause={w.clause}", f"  descendants: {descendants}"]
    return verdict, "{}", game_json.witness(w), "\n".join([*lines, _compound_line(w)])


def _execute_continuity(
    check: ContinuityCheck,
    sf: ScenarioFile,
    inputs: dict[str, str],
    game_json: _GameJson,
) -> tuple[str, str, str, str]:
    report = check_continuity(
        sf.agents[check.agent],
        sf.games[check.left],
        sf.games[check.right],
        RewardAlphabet.of(check.alphabet),
        check.deltas,
    )
    verdict = report.verdict.value
    levels = []
    lines = [f"continuity {check.agent} {check.left} {check.right} -> {verdict}"]
    for level in report.witness.levels:
        found = "no counterexample found"
        preference = "null"
        if level.falsified:
            preference = _encode(level.preference.value)
            found = (
                f"{level.left_perturbed} vs {level.right_perturbed} -> "
                f"{level.preference.value}"
            )
        levels.append(
            _object(
                {
                    "delta": _encode(str(level.delta)),
                    "left": game_json(level.left_perturbed),
                    "right": game_json(level.right_perturbed),
                    "preference": preference,
                }
            )
        )
        lines.append(f"  delta={level.delta}: {found}")
    witness = _object({"levels": _list(levels)})
    return verdict, "{}", witness, "\n".join(lines)


def _execute_dutchbook(
    check: DutchBookCheck,
    sf: ScenarioFile,
    inputs: dict[str, str],
    game_json: _GameJson,
) -> tuple[str, str, str, str]:
    report = analyze_dutch_book(
        sf.agents[check.agent], [sf.games[name] for name in check.games]
    )
    verdict = "exposed" if report.exposure else "not_exposed"
    witness = _object(
        {"combined": game_json(report.combined), "null": game_json(report.null)}
    )
    individual = [p.value for p in report.individual_preferences]
    combined = report.combined_preference.value
    values = _encode(
        {
            "individual_preferences": individual,
            "combined_preference": combined,
            "sure_loss": report.sure_loss,
            "exposure": report.exposure,
            "weak_exposure": report.weak_exposure,
        }
    )
    lines = [
        f"dutchbook {check.agent} {_fmt(check.games)} -> {verdict} "
        f"sure_loss={str(report.sure_loss).lower()} "
        f"weak_exposure={str(report.weak_exposure).lower()}",
        f"  combined={report.combined} -> {combined}",
        "  individual: " + ", ".join(individual),
    ]
    return verdict, values, witness, "\n".join(lines)


def _utility_text(u: dict[str, str]) -> str:
    return ", ".join(f"{reward}->{value}" for reward, value in u.items())


def _execute_fit(
    check: FitCheck, sf: ScenarioFile, inputs: dict[str, str], game_json: _GameJson
) -> tuple[str, str, str, str]:
    alphabet = RewardAlphabet.of(check.alphabet)
    instance = build_instance(
        sf.agents[check.agent], [sf.games[name] for name in check.games], alphabet
    )
    # Checked before fitting: an infeasible fit never normalizes, so stray
    # anchors would otherwise pass unremarked.
    if check.anchors is not None and not all(r in alphabet for r in check.anchors):
        raise ValueError("anchor rewards are outside the fitted alphabet")
    fit = fit_utility(instance)
    witness = "null"
    values = {
        "u": None,
        "unique": fit.unique,
        "normalized_u": None,
        "normalization_error": None,
    }
    lines = [f"fit {check.agent} {_fmt(check.games)} -> {fit.verdict}"]
    if fit.certificate is not None:
        games = instance.games
        # (left, preference, right) per comparison.
        certificate = [
            (games[c.left].name, c.preference.value, games[c.right].name)
            for c in fit.certificate
        ]
        entries = [
            _object({"left": _encode(a), "preference": _encode(p), "right": _encode(b)})
            for a, p, b in certificate
        ]
        witness = _object({"certificate": _list(entries)})
        lines.append("  certificate: " + "; ".join(" ".join(c) for c in certificate))
    if fit.u is not None:
        values["u"] = {str(r): str(fit.u[r]) for r in alphabet}
        unique = str(fit.unique).lower()
        lines.append(f"  u: {_utility_text(values['u'])} unique={unique}")
    if check.anchors is not None and fit.feasible:
        anchors = f"({_fmt(check.anchors)})"
        try:
            normalized = normalize_fit(fit, *check.anchors)
        except DegenerateNormalizationError:
            values["normalization_error"] = "DegenerateNormalization"
            lines.append(f"  normalization at {anchors}: DegenerateNormalization")
        else:
            values["normalized_u"] = {str(r): str(normalized.u[r]) for r in alphabet}
            lines.append(
                f"  normalized at {anchors}: {_utility_text(values['normalized_u'])}"
            )
    return fit.verdict, _encode(values), witness, "\n".join(lines)


def _execute_search(
    check: SearchCheck, sf: ScenarioFile, inputs: dict[str, str], game_json: _GameJson
) -> tuple[str, str, str, str]:
    agent = sf.agents[check.agent]
    spec = GridSpec(
        check.rewards, check.weights, check.root_branches, check.option_branches
    )
    total = scenario_count(spec)
    hit = find_violation(agent, spec)
    inputs["kind"] = _encode(agent.kind)
    values = f'{{"scenario_count": {total}}}'
    if hit is None:
        text = f"search diachronic {check.agent} -> none (scanned {total} scenarios)"
        return "none", values, "null", text
    w = hit.report.witness
    witness = _object(
        {
            "index": str(hit.index),
            "scenario": _object(game_json.scenario(hit.scenario)),
            "report": game_json.witness(w),
        }
    )
    lines = [
        f"search diachronic {check.agent} -> found index={hit.index} clause={w.clause}",
        f"  root={hit.scenario.root}",
    ]
    for i, (first, second) in enumerate(hit.scenario.options):
        lines.append(f"  arm {i}: {first} vs {second}")
    lines.append(_compound_line(w))
    return "found", values, witness, "\n".join(lines)


@dataclass
class _CheckKind:
    name: str  # the record's check_kind
    form: str  # the first two words of its line
    decl: type
    execute: Callable[[Any, ScenarioFile, dict[str, str], _GameJson], tuple]
    keys: dict[str, _Key] = field(init=False)

    def __post_init__(self) -> None:
        self.keys = _keys(
            *(_Key(f.name, **f.metadata) for f in fields(self.decl) if f.metadata)
        )


_CHECK_KINDS = (
    _CheckKind("compare", "check compare", CompareCheck, _execute_compare),
    _CheckKind("diachronic", "check diachronic", DiachronicCheck, _execute_diachronic),
    _CheckKind("continuity", "check continuity", ContinuityCheck, _execute_continuity),
    _CheckKind("dutchbook", "check dutchbook", DutchBookCheck, _execute_dutchbook),
    _CheckKind("fit", "check fit", FitCheck, _execute_fit),
    _CheckKind("search", "search diachronic", SearchCheck, _execute_search),
)
_CHECK_FORMS = {kind.form: kind for kind in _CHECK_KINDS}
_CHECK_KEYWORDS = {form.split()[0] for form in _CHECK_FORMS}
_KIND_OF = {kind.decl: kind for kind in _CHECK_KINDS}
# Built once: the except clause may not build a tuple after a MemoryError.  On
# one, run_file drops its traceback and context, freeing the check's frames.
_EXECUTION_ERRORS = (GameError, ValueError, MemoryError)


def run_file(sf: ScenarioFile) -> list[CheckOutcome]:
    """Execute all checks in declaration order; raises CheckExecutionError.

    Each outcome holds its record's ``--machine`` line, written here as
    JSON text from the check's inputs and what its executor returns.
    Within one call each distinct branch object is written once (see
    :class:`_GameJson`).
    """
    outcomes = []
    game_json = _GameJson()
    for check in sf.checks:
        kind = _KIND_OF[type(check)]
        inputs = _inputs(check, sf, game_json)
        try:
            verdict, values, witness, text = kind.execute(check, sf, inputs, game_json)
        except _EXECUTION_ERRORS as exc:
            if isinstance(exc, MemoryError):
                exc.__traceback__ = exc.__context__ = None
            origin = "check" if check.line is None else f"check at line {check.line}"
            raise CheckExecutionError(
                f"{origin} ({_render_check(check)})", exc
            ) from exc
        # The record, its keys in sorted order.
        line = (
            f'{{"check_kind": {_encode(kind.name)}, "inputs": {_object(inputs)}, '
            f'"values": {values}, "verdict": {_encode(verdict)}, '
            f'"witness": {witness}}}'
        )
        outcomes.append(CheckOutcome(line, text, verdict))
    return outcomes


def emit(outcomes: Sequence[CheckOutcome], machine: bool) -> str:
    """Each check's ``--machine`` line, or else its text block, one after another."""
    blocks = [o.line if machine else o.text for o in outcomes]
    return "\n".join(blocks) + ("\n" if blocks else "")


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

_GALLERY_FITS = """\
check fit agent=stoic games=A,B,certain1 alphabet=1,2,3,4 anchors=1,2
check fit agent=dtbr games=certain0,certain1,certain2,mix02 alphabet=0,1,2 anchors=0,1
check fit agent=optimist games=certain1,B0,Bhalf alphabet=0,1
"""


def gallery_source() -> str:
    """The gallery as scenario-file text (stoic all-pairs checks generated)."""
    games = sorted(parse(_GALLERY_BASE).games)
    lines = [_GALLERY_BASE]
    for i, left in enumerate(games):
        for right in games[i + 1 :]:
            lines.append(f"check compare agent=stoic left={left} right={right}")
    lines.append(_GALLERY_FITS)
    return "\n".join(lines)


def run_gallery() -> list[CheckOutcome]:
    """Parse and execute the built-in gallery."""
    return run_file(parse(gallery_source()))


# -- command line ----------------------------------------------------------


@functools.cache
def _argument_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first ``main`` call of a process."""
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
    gallery_parser = sub.add_parser(
        "gallery", help="run the built-in gallery of worked examples"
    )
    gallery_parser.set_defaults(fail_on_violation=False)
    search_parser = sub.add_parser(
        "search",
        help="grid search without a scenario file, e.g. "
        "search diachronic agent=egalitarian rewards=0,3,4,5 weights=1/2,1 "
        "root_branches=2 option_branches=2",
    )
    search_parser.add_argument(
        "terms", nargs="+", help="the scenario-file search form, tokenized"
    )
    for command in (run_parser, gallery_parser, search_parser):
        command.add_argument(
            "--machine", action="store_true", help="one JSON record per check"
        )
    for command in (run_parser, search_parser):
        command.add_argument(
            "--fail-on-violation",
            action="store_true",
            help="exit 1 when any check reports a violation or exposure",
        )
    return parser


@contextlib.contextmanager
def _collector_paused():
    """Disable automatic cyclic collection; on exit, restore the caller's setting."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def main(argv: Optional[Sequence[str]] = None) -> int:
    with _collector_paused():
        return _main(argv)


def _main(argv: Optional[Sequence[str]]) -> int:
    # Its own frame, so the run's objects are freed before the collector
    # is back on; held until then, they would fill its first collection.
    args = _argument_parser().parse_args(argv)

    try:
        if args.command == "run":
            try:
                # utf-8-sig drops one byte-order mark at the start of the file.
                with open(args.file, encoding="utf-8-sig") as handle:
                    text = handle.read()
            except (OSError, UnicodeDecodeError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            outcomes = run_file(parse(text))
        elif args.command == "gallery":
            outcomes = run_gallery()
        else:
            outcomes = run_file(_parse_search_terms(args.terms))
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except CheckExecutionError as exc:
        print(f"execution error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(emit(outcomes, args.machine))
    if args.fail_on_violation and any(o.violation for o in outcomes):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
