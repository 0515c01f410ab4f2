"""``cli.parse`` against the parse loop it replaced, kept here as the reference.

``cli.parse`` takes two shortcuts.  It keeps, for one call, a table from
the text of each branch line that parsed (before any comment) to its
``Branch``, and adds that ``Branch`` again wherever the line recurs inside
an open game block.  And it opens the block of a well-formed ``game
<name>`` line itself, and calls ``_declaration`` for a game line only to
word its error.

The reference below is the parse loop as first written: every line is
split and goes through ``_line``, every declaration through
``_declaration``, and every ``key=value`` token through
``reference_keyword_args``, which parses and words errors in one pass,
token by token in line order, as ``cli._key_values`` does; the random
files below write lines with one or two faults and malformed declaration
keys, so the two readers are held to the same first error.  The reference
shares only block closing and reference resolution with ``cli``.  Both
parses must give equal games, agents, scenarios and checks, or raise the
same ``ParseError`` class with the same message, line and column.  The
``search`` terms of the command line are checked the same way.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from branchgames import AGENT_KINDS, Agent, Branch
from branchgames import cli
from branchgames.cli import (
    _BRANCH_KEYS,
    _CHECK_FORMS,
    _CHECK_KEYWORDS,
    _DECLARATION_KEYS,
    _NAME_RE,
    _TOKEN_RE,
    DuplicateNameError,
    ParseError,
    ScenarioFile,
    _Line,
    parse,
)


def reference_keyword_args(line: _Line, start: int, keys: dict) -> dict:
    """The parsed value of each ``key=value`` token from ``start`` on, by key."""
    args = {}
    for index, token in enumerate(line.tokens[start:], start):
        name, eq, value = token.partition("=")
        try:
            if not eq:
                raise ValueError(f"expected key=value, got {token!r}")
            if name not in keys:
                raise ValueError(f"unknown key {name!r}")
            if name in args:
                raise ValueError(f"duplicate key {name!r}")
            if value == "":
                raise ValueError(f"empty value for {name!r}")
            args[name] = keys[name].parse(value)
        except ValueError as exc:
            raise line.error(str(exc), index) from None
    for key in keys.values():
        if key.required and key.name not in args:
            raise ParseError(f"missing required key {key.name}=...", line.number)
    return args


def reference_parse_check(line: _Line):
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
    args = reference_keyword_args(line, 2, kind.keys)
    return kind.decl(**{name: args.get(name) for name in kind.keys}, line=line.number)


class ReferenceParser(cli._Parser):
    """Every line split and parsed in full, by the code below."""

    def parse(self, text: str) -> ScenarioFile:
        lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        for number, raw in enumerate(lines, start=1):
            content = raw.partition("#")[0]
            tokens = content.split()
            if tokens:
                self._line(_Line(tokens, content, number))
        self._close_blocks()
        return self._resolve()

    def _line(self, line: _Line) -> None:
        keyword = line.tokens[0]
        if keyword not in ("branch", "arm"):
            self._close_blocks()
        if keyword == "branch":
            if self.pending_game is None:
                raise ParseError("branch outside a game block", line.number)
            args = reference_keyword_args(line, 1, _BRANCH_KEYS)
            self.pending_game[2].append(Branch(args["reward"], args["weight"]))
        elif keyword == "arm":
            if self.pending_scenario is None:
                raise ParseError("arm outside a scenario block", line.number)
            tokens = line.tokens
            if len(tokens) != 4 or tokens[2] != "vs":
                raise ParseError("expected: arm <game> vs <game>", line.number)
            self.pending_scenario[3].append((tokens[1], tokens[3], line.number))
        elif keyword in _DECLARATION_KEYS:
            self._declaration(keyword, line)
        elif keyword in _CHECK_KEYWORDS:
            self.checks.append(reference_parse_check(line))
        else:
            raise line.error(f"unknown keyword {keyword!r}", 0)

    def _declaration(self, keyword: str, line: _Line) -> None:
        if len(line.tokens) < 2:
            raise ParseError(f"expected a name after {keyword!r}", line.number)
        name = line.tokens[1]
        if not _NAME_RE.fullmatch(name):
            raise line.error(f"invalid {keyword} name {name!r}", 1)
        if name in self.namespaces[keyword]:
            message = f"duplicate {keyword} name {name!r}"
            raise line.error(message, 1, DuplicateNameError)
        args = reference_keyword_args(line, 2, _DECLARATION_KEYS[keyword])
        if keyword == "game":
            self.pending_game = (name, line.number, [])
        elif keyword == "scenario":
            self.pending_scenario = (name, args["root"], line.number, [])
        else:
            try:
                self.agents[name] = Agent(name, args["kind"], args.get("max_reward"))
            except ValueError as exc:
                raise ParseError(str(exc), line.number) from None


def reference_parse(text: str) -> ScenarioFile:
    return ReferenceParser().parse(text)


def reference_parse_search_terms(terms) -> ScenarioFile:
    for term in terms:
        if not _TOKEN_RE.fullmatch(term):
            raise ParseError(f"term {term!r}: not a single token")
    check = reference_parse_check(_Line(["search", *terms]))
    if check.agent not in AGENT_KINDS:
        raise ParseError(
            f"agent must be one of {', '.join(AGENT_KINDS)} (got {check.agent!r})"
        )
    agents = {check.agent: Agent.of(check.agent, check.agent)}
    return ScenarioFile(games={}, agents=agents, scenarios={}, checks=(check,))


def outcome(parser, source):
    """What the parser makes of the source: the file's parts, or the error's."""
    try:
        sf = parser(source)
    except ParseError as exc:
        return type(exc), exc.message, exc.line, exc.column
    return (
        list(sf.games.items()),
        list(sf.agents.items()),
        list(sf.scenarios.items()),
        [(check, check.line) for check in sf.checks],
    )


def assert_same_outcome(text: str):
    got = outcome(parse, text)
    assert got == outcome(reference_parse, text)
    return got


PINNED = {
    "shared across games and within one game": (
        "game a\n"
        "  branch reward=1 weight=1/2\n"
        "  branch reward=1 weight=1/2\n"
        "game b\n"
        "  branch reward=1 weight=1/2\n"
        "  branch reward=-3/2 weight=1/2\n"
        "game c\n"
        "  branch reward=-3/2 weight=1/2\n"
        "  branch reward=1 weight=1/2\n"
        "agent d kind=dtbr\n"
        "check compare agent=d left=a right=b\n"
        "check dutchbook agent=d games=a,b,c\n"
    ),
    "known branch after a scenario line": (
        "game a\n"
        "  branch reward=0 weight=1\n"
        "scenario s root=a\n"
        "  branch reward=0 weight=1\n"
    ),
    "known branch after an arm line": (
        "game a\n"
        "  branch reward=0 weight=1\n"
        "game b\n"
        "  branch reward=0 weight=1\n"
        "scenario s root=a\n"
        "  arm a vs b\n"
        "  branch reward=0 weight=1\n"
    ),
    "known branch after an agent line": (
        "game a\n"
        "  branch reward=0 weight=1\n"
        "agent d kind=dtbr\n"
        "  branch reward=0 weight=1\n"
    ),
    "bad branch line that recurs": (
        "game a\n"
        "  branch reward=1 weight=1/2\n"
        "  branch reward=1 weight=3/2\n"
        "game b\n"
        "  branch reward=1 weight=3/2\n"
    ),
    "bad branch line after its good twin": (
        "game a\n"
        "  branch reward=1 weight=1\n"
        "game b\n"
        "  branch reward=1 weight=1 weight=1\n"
    ),
    "known lines summing past one": (
        "game a\n"
        "  branch reward=2 weight=1/2\n"
        "  branch reward=2 weight=1/2\n"
        "game b\n"
        "  branch reward=2 weight=1/2\n"
        "  branch reward=2 weight=1/2\n"
        "  branch reward=2 weight=1/2\n"
    ),
    "comments and line endings": (
        "# header\r\n"
        "game a # first\r\n"
        "  branch reward=1 weight=1/2 # one\r"
        "  branch reward=1 weight=1/2 # two\n"
        "game b\r"
        "  branch reward=1 weight=1/2#three\r\n"
        "  branch reward=2 weight=1/2\r\r\n"
        "agent o kind=optimist # last\r"
        "check compare agent=o left=a right=b"
    ),
    "error column after comments and line endings": (
        "game a # first\r\n"
        "  branch reward=1 weight=1/2 # one\r"
        "  branch reward=1 weight=1/2 # two\r\n"
        "game b\r"
        "  branch reward=1 weight=1/2 # three\n"
        "  branch reward=1 wieght=1/2 # four\n"
    ),
    "tab and form-feed separators": (
        "game\ta\n"
        "\tbranch\treward=1\fweight=1/2\n"
        "\tbranch\treward=1\fweight=1/2\n"
        "game\fb\n"
        "\tbranch\treward=1\fweight=1/2\n"
        "  branch reward=0 weight=1/2\n"
    ),
    "error column after a tab and a form feed": (
        "game a\n"
        "\tbranch\treward=1\fweight=1\n"
        "game b\n"
        "\tbranch\treward=1\fweight=1\fweight=0\n"
    ),
    "duplicate game right after its open block": (
        "game g\n"
        "  branch reward=0 weight=1\n"
        "game g\n"
        "  branch reward=1 weight=1\n"
    ),
    "invalid game name": "game 9z\n  branch reward=0 weight=1\n",
    "game line with a token after the name": (
        "game g extra\n  branch reward=0 weight=1\n"
    ),
    "game line whose block before fails": (
        "game g\n  branch reward=0 weight=1/2\ngame g extra\n"
    ),
    **{
        f"check {form.partition(' ')[0]} with {case}": (
            "game a\n  branch reward=0 weight=1\n"
            "agent d kind=dtbr\n"
            f"check {form}\n"
        )
        for case, form in {
            "a duplicate key": "compare agent=d left=a agent=d right=a",
            "an unknown key": "compare agent=d left=a right=a side=a",
            "a missing key": "compare agent=d right=a",
            "an empty value": "compare agent=d left= right=a",
            "a bare token": "compare agent=d left=a right",
            "its keys in another order": "compare right=a agent=d left=a",
            "an unknown key before an empty value": (
                "compare agent=d side=a left= right=a"
            ),
            "a bad value before a duplicate key": (
                "fit agent=d games=a alphabet=0,x games=a"
            ),
        }.items()
    },
    "bad rational in a branch": "game g\n  branch reward=1/0 weight=1\n",
    "bad rational in a check": (
        "game a\n  branch reward=0 weight=1\n"
        "game b\n  branch reward=1 weight=1\n"
        "agent d kind=dtbr\n"
        "check continuity agent=d left=b right=a alphabet=0,1.5 deltas=1/2 "
        "samples=1 seed=0\n"
    ),
    "fit check with and without its optional key": (
        "game a\n  branch reward=0 weight=1\n"
        "game b\n  branch reward=1 weight=1\n"
        "agent d kind=dtbr\n"
        "check fit agent=d games=a,b alphabet=0,1\n"
        "check fit agent=d games=a,b alphabet=0,1 anchors=0,1\n"
        "check fit anchors=1,0 alphabet=1,0 games=b,a agent=d\n"
    ),
}


@pytest.mark.parametrize("name", PINNED)
def test_pinned_files_parse_as_if_every_line_were_new(name):
    assert_same_outcome(PINNED[name])


def test_pinned_outcomes():
    """A few of the pinned outcomes, so both sides cannot drift together."""
    assert assert_same_outcome(PINNED["known branch after a scenario line"]) == (
        ParseError,
        "branch outside a game block",
        4,
        None,
    )
    after_arm = assert_same_outcome(PINNED["known branch after an arm line"])
    assert after_arm[2:] == (7, None)
    assert assert_same_outcome(PINNED["bad branch line that recurs"]) == (
        ParseError,
        "weight 3/2 outside [0, 1]",
        3,
        19,
    )
    assert assert_same_outcome(PINNED["bad branch line after its good twin"]) == (
        ParseError,
        "duplicate key 'weight'",
        4,
        28,
    )
    assert assert_same_outcome(PINNED["known lines summing past one"]) == (
        ParseError,
        "game 'b': weights sum to 3/2, expected 1",
        4,
        None,
    )
    assert assert_same_outcome(
        PINNED["error column after comments and line endings"]
    ) == (ParseError, "unknown key 'wieght'", 6, 19)
    assert assert_same_outcome(PINNED["error column after a tab and a form feed"]) == (
        ParseError,
        "duplicate key 'weight'",
        4,
        27,
    )
    shared = PINNED["shared across games and within one game"]
    games, _, _, checks = assert_same_outcome(shared)
    assert [name for name, _ in games] == ["a", "b", "c"]
    assert [line for _, line in checks] == [11, 12]
    assert assert_same_outcome(
        PINNED["duplicate game right after its open block"]
    ) == (DuplicateNameError, "duplicate game name 'g'", 3, 6)
    assert assert_same_outcome(PINNED["invalid game name"]) == (
        ParseError,
        "invalid game name '9z'",
        1,
        6,
    )
    assert assert_same_outcome(PINNED["game line with a token after the name"]) == (
        ParseError,
        "expected key=value, got 'extra'",
        1,
        8,
    )
    assert assert_same_outcome(PINNED["game line whose block before fails"]) == (
        ParseError,
        "game 'g': weights sum to 1/2, expected 1",
        1,
        None,
    )
    check_errors = {
        "compare with a duplicate key": ("duplicate key 'agent'", 30),
        "compare with an unknown key": ("unknown key 'side'", 38),
        "compare with a missing key": ("missing required key left=...", None),
        "compare with an empty value": ("empty value for 'left'", 23),
        "compare with a bare token": ("expected key=value, got 'right'", 30),
        "compare with an unknown key before an empty value": (
            "unknown key 'side'",
            23,
        ),
        "fit with a bad value before a duplicate key": (
            "expected a rational like 3 or 1/2, got 'x'",
            27,
        ),
    }
    for case, (message, column) in check_errors.items():
        got = assert_same_outcome(PINNED[f"check {case}"])
        assert got == (ParseError, message, 4, column), case
    assert assert_same_outcome(PINNED["bad rational in a branch"]) == (
        ParseError,
        "zero denominator in '1/0'",
        2,
        10,
    )
    assert assert_same_outcome(PINNED["bad rational in a check"]) == (
        ParseError,
        "expected a rational like 3 or 1/2, got '1.5'",
        6,
        41,
    )
    _, _, _, checks = assert_same_outcome(
        PINNED["check compare with its keys in another order"]
    )
    assert [check for check, _ in checks] == [cli.CompareCheck("d", "a", "a")]
    _, _, _, checks = assert_same_outcome(
        PINNED["fit check with and without its optional key"]
    )
    assert [check.anchors for check, _ in checks] == [None, (0, 1), (1, 0)]


def test_a_bad_line_fails_on_every_parse():
    text = PINNED["bad branch line that recurs"]
    assert outcome(parse, text) == outcome(parse, text) == (
        ParseError,
        "weight 3/2 outside [0, 1]",
        3,
        19,
    )


# -- random files ----------------------------------------------------------
#
# A file keeps one indent and one separator on most lines and at most two
# reward literals, and its games draw their weights from a few splits, so
# branch lines recur.  Half the files are clean: every literal, split and
# name in them is valid, so they parse and reach their checks unless a
# branch line strays out of its game block.  The rest may also hold bad
# literals, splits, keys, names, game lines, check lines and agent lines,
# and scenarios, their root key now and then missing or repeated, and
# mostly fail.

_INDENTS = st.sampled_from(["", "  ", "  ", "\t", "\f"])
_SEPARATORS = st.sampled_from([" ", " ", " ", "  ", "\t", "\f"])
_ENDINGS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])
_COMMENTS = st.sampled_from(["", "", "", " # note", "#", "# branch reward=1"])
_REWARDS = ["0", "1", "-2", "1/2", "2/4", "3"]
_BAD_REWARDS = ["1.5", "1/0"]
_SPLITS = [("1",), ("1/2", "1/2"), ("1/2", "2/4"), ("1/3", "2/3"), ("0", "1")]
_BAD_SPLITS = [("1/2",), ("3/2", "-1/2"), ()]
_AGENT_KEYS = [("kind=optimist",), ("kind=stoic", "max_reward=5")]
_BAD_AGENT_KEYS = [
    ("kind=nobody",),
    ("kind=dtbr", "max_reward=5"),  # Agent's own error, without a column
    ("max_reward=1/0", "kind=stoic"),
    ("kind=optimist", "kind=optimist"),
    ("kind=",),
    ("kind=stoic", "mood=1"),
    ("kind",),
    ("max_reward=1",),
]


def _pick(draw, good, bad, clean):
    """An element of ``good``, or now and then of ``bad`` unless ``clean``."""
    return draw(st.sampled_from(good if clean else good * 4 + bad))


@st.composite
def _line(draw, style, *words):
    indent, separator = style
    if draw(st.integers(0, 7)) == 0:
        indent, separator = draw(_INDENTS), draw(_SEPARATORS)
    return indent + separator.join(words) + draw(_COMMENTS)


@st.composite
def _branch_line(draw, style, rewards, weight, clean):
    keys = [f"reward={draw(st.sampled_from(rewards))}", f"weight={weight}"]
    shape = _pick(draw, ["plain"] * 9 + ["swapped"], ["short", "extra"], clean)
    if shape == "swapped":
        keys.reverse()
    elif shape == "short":
        keys.pop()
    elif shape == "extra":
        keys.append(draw(st.sampled_from(["weight=1", "odds=2", "reward"])))
    return draw(_line(style, "branch", *keys))


_FAULTS = ["short", "repeated", "unknown", "empty", "bare"]


@st.composite
def _check_line(draw, style, names, clean):
    """A compare or fit check, its keys now and then reordered or malformed.

    A malformed line has one fault or two, each at a drawn place, so the
    first bad token in line order need not be the last fault made.
    """
    if draw(st.booleans()):
        games = [draw(st.sampled_from(names)) for _ in range(2)]
        keys = ["agent=a", f"games={','.join(games)}", "alphabet=0,1"]
        keys += draw(st.sampled_from([[], ["anchors=0,1"]]))
        words = ["check", "fit"]
    else:
        left, right = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        keys = ["agent=a", f"left={left}", f"right={right}"]
        words = ["check", "compare"]
    shape = _pick(draw, ["plain"] * 5 + ["shuffled"], _FAULTS, clean)
    if shape == "shuffled":
        keys = draw(st.permutations(keys))
    elif shape in _FAULTS:
        for fault in [shape, *draw(st.lists(st.sampled_from(_FAULTS), max_size=1))]:
            index = draw(st.integers(0, len(keys) - 1))
            place = draw(st.integers(0, len(keys)))
            if fault == "short":
                keys.pop(index)
            elif fault == "empty":
                keys[index] = keys[index].partition("=")[0] + "="
            elif fault == "repeated":
                keys.insert(place, keys[index])
            else:
                keys.insert(place, "side=a" if fault == "unknown" else "agent")
    return draw(_line(style, *words, *keys))


@st.composite
def files(draw):
    clean = draw(st.booleans())
    style = (draw(_INDENTS), draw(_SEPARATORS))
    rewards = [_pick(draw, _REWARDS, _BAD_REWARDS, clean) for _ in range(2)]
    lines = ["agent a kind=dtbr"] if clean or draw(st.booleans()) else []
    games, branches = [], []
    for index in range(draw(st.integers(0, 8))):
        kinds = ["game"] * 6 + ["check"] * 2 + ["agent", "blank", "stray"]
        kind = draw(st.sampled_from(kinds if clean else kinds + ["scenario", "stray"]))
        if clean and not games and kind == "check":
            kind = "blank"
        names = games or ["g0"]
        if kind == "game":
            name = _pick(draw, [f"g{index}"], ["g0", "9z"], clean)
            extra = _pick(draw, [[]], [["extra"], ["x=1"]], clean)
            weights = _pick(draw, _SPLITS, _BAD_SPLITS, clean)
            games.append(name)
            lines.append(draw(_line(style, "game", name, *extra)))
            block = [draw(_branch_line(style, rewards, w, clean)) for w in weights]
            branches += block
            lines += block
        elif kind == "check":
            lines.append(draw(_check_line(style, names, clean)))
        elif kind == "scenario":
            root, first, second = (draw(st.sampled_from(names)) for _ in range(3))
            keys = _pick(draw, [[f"root={root}"]], [[], [f"root={root}"] * 2], clean)
            lines.append(draw(_line(style, "scenario", f"s{index}", *keys)))
            arm = draw(_line(style, "arm", first, "vs", second))
            lines += [arm] * draw(st.integers(0, 2))
        elif kind == "agent":
            keys = _pick(draw, _AGENT_KEYS, _BAD_AGENT_KEYS, clean)
            lines.append(draw(_line(style, "agent", f"a{index}", *keys)))
        elif kind == "stray":
            # A branch line after the game block closed: mostly one seen
            # before, which the table holds.
            lines.append(draw(_line(style, "agent", f"a{index}", "kind=stoic")))
            if branches and draw(st.integers(0, 3)):
                lines.append(draw(st.sampled_from(branches)))
            else:
                lines.append(draw(_branch_line(style, rewards, "1", clean)))
        else:
            lines.append(draw(_COMMENTS))
    return "".join(line + draw(_ENDINGS) for line in lines)


@given(files())
def test_random_files_parse_as_if_every_line_were_new(text):
    assert_same_outcome(text)


@given(
    st.tuples(_INDENTS, _SEPARATORS).flatmap(
        lambda style: _check_line(style, ["g0", "g1", "g9"], False)
    )
)
def test_random_check_lines_parse_as_in_the_reference(line):
    """One check line after clean declarations, so its own outcome shows."""
    games = "game g0\n  branch reward=0 weight=1\ngame g1\n  branch reward=1 weight=1\n"
    assert_same_outcome(games + "agent a kind=dtbr\n" + line + "\n")


# -- search terms ----------------------------------------------------------

_SEARCH_TERMS = {
    "agent": ["dtbr", "optimist", "nobody"],
    "rewards": ["0,1,2", "0,x", "1,,2"],
    "weights": ["1/2,1", "1/0"],
    "root_branches": ["2", "0", "two"],
    "option_branches": ["1", "-1"],
}


@st.composite
def search_terms(draw):
    """The terms of ``branchgames search diachronic``, now and then malformed."""
    terms = [
        f"{key}={draw(st.sampled_from(values[:1] * 6 + values))}"
        for key, values in _SEARCH_TERMS.items()
    ]
    terms = list(draw(st.permutations(terms)))
    shape = draw(st.sampled_from(["plain"] * 4 + ["short", "repeated", "empty"]))
    if shape == "short":
        terms.pop(draw(st.integers(0, len(terms) - 1)))
    elif shape == "repeated":
        terms.append(draw(st.sampled_from(terms)))
    elif shape == "empty":
        index = draw(st.integers(0, len(terms) - 1))
        terms[index] = terms[index].partition("=")[0] + "="
    return ["diachronic", *terms]


def search_outcome(parser, terms):
    try:
        sf = parser(terms)
    except ParseError as exc:
        return type(exc), exc.message, exc.line, exc.column
    return sf


PINNED_TERMS = {
    "a bad rational": (
        ["diachronic", "agent=dtbr", "rewards=0,x", "weights=1", "root_branches=1"]
        + ["option_branches=1"],
        "term 'rewards=0,x': expected a rational like 3 or 1/2, got 'x'",
    ),
    "a duplicate key": (
        ["diachronic", "agent=dtbr", "agent=dtbr"],
        "term 'agent=dtbr': duplicate key 'agent'",
    ),
    "a missing key": (
        ["diachronic", "agent=dtbr", "rewards=0,1", "weights=1", "root_branches=1"],
        "missing required key option_branches=...",
    ),
}


@pytest.mark.parametrize("name", PINNED_TERMS)
def test_pinned_search_terms_fail_as_in_the_reference(name):
    terms, message = PINNED_TERMS[name]
    got = search_outcome(cli._parse_search_terms, terms)
    assert got == search_outcome(reference_parse_search_terms, terms)
    assert got == (ParseError, message, None, None)


@given(search_terms())
def test_random_search_terms_parse_as_in_the_reference(terms):
    got = search_outcome(cli._parse_search_terms, terms)
    assert got == search_outcome(reference_parse_search_terms, terms)
