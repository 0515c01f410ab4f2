"""``cli.parse`` with its branch-line table against a parse with every line new.

``cli.parse`` keeps, for one call, a table from the text of each branch
line that parsed (before any comment) to its ``Branch``; a line found there
inside an open game block is not split or parsed again.  The reference
below parses the same file with a distinct run of spaces after the last
token of each line, before any comment.  Tokens and columns stay the same,
but no line's text repeats, so every lookup misses and every line takes
the path the table skips.  Both parses must give equal games, agents,
scenarios and checks, or raise the same ``ParseError`` class with the same
message, line and column.
"""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from branchgames.cli import ParseError, parse

# The line endings of cli.parse, kept by split() as separate parts.
_LINE_END = re.compile(r"(\r\n|\r|\n)")


def reference_text(text: str) -> str:
    """The file with line i's text before any comment ending in i spaces."""
    parts = _LINE_END.split(text)
    for index in range(0, len(parts), 2):
        content, hash_mark, comment = parts[index].partition("#")
        padding = " " * (index // 2 + 1)
        parts[index] = content.rstrip() + padding + hash_mark + comment
    return "".join(parts)


def outcome(text: str):
    """What parse makes of the text: the file's parts, or the error's."""
    try:
        sf = parse(text)
    except ParseError as exc:
        return type(exc), exc.message, exc.line, exc.column
    return (
        list(sf.games.items()),
        list(sf.agents.items()),
        list(sf.scenarios.items()),
        [(check, check.line) for check in sf.checks],
    )


def assert_same_outcome(text: str):
    reference = reference_text(text)
    contents = [
        line.partition("#")[0]
        for line in reference.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    ]
    assert len(set(contents)) == len(contents)
    got = outcome(text)
    assert got == outcome(reference)
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


def test_a_bad_line_fails_on_every_parse():
    text = PINNED["bad branch line that recurs"]
    assert outcome(text) == outcome(text) == (
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
# literals, splits, keys and names and scenarios, and mostly fail.

_INDENTS = st.sampled_from(["", "  ", "  ", "\t", "\f"])
_SEPARATORS = st.sampled_from([" ", " ", " ", "  ", "\t", "\f"])
_ENDINGS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])
_COMMENTS = st.sampled_from(["", "", "", " # note", "#", "# branch reward=1"])
_REWARDS = ["0", "1", "-2", "1/2", "2/4", "3"]
_BAD_REWARDS = ["1.5", "1/0"]
_SPLITS = [("1",), ("1/2", "1/2"), ("1/2", "2/4"), ("1/3", "2/3"), ("0", "1")]
_BAD_SPLITS = [("1/2",), ("3/2", "-1/2"), ()]


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
            weights = _pick(draw, _SPLITS, _BAD_SPLITS, clean)
            games.append(name)
            lines.append(draw(_line(style, "game", name)))
            block = [draw(_branch_line(style, rewards, w, clean)) for w in weights]
            branches += block
            lines += block
        elif kind == "check":
            left, right = draw(st.sampled_from(names)), draw(st.sampled_from(names))
            words = ("check", "compare", "agent=a", f"left={left}", f"right={right}")
            lines.append(draw(_line(style, *words)))
        elif kind == "scenario":
            root, first, second = (draw(st.sampled_from(names)) for _ in range(3))
            lines.append(draw(_line(style, "scenario", f"s{index}", f"root={root}")))
            arm = draw(_line(style, "arm", first, "vs", second))
            lines += [arm] * draw(st.integers(0, 2))
        elif kind == "agent":
            lines.append(draw(_line(style, "agent", f"a{index}", "kind=optimist")))
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
