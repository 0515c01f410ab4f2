"""``branchgames run --machine`` against records built as first written.

``run_file`` turns each distinct ``Branch`` object into its ``{"reward",
"weight"}`` dict once per call (``cli._GameJson``), so the records of one
run share those dicts; a compare record's values are written from the
integers of each game's ``terms``; and ``emit`` encodes without the
circular-reference check.  The reference below builds every record with a
fresh dict per branch, replaces each compare record's values with ones
read from ``agents.summary``, a ``Fraction`` subtraction and ``str()``, and
encodes each record with ``json.dumps(record, sort_keys=True)``.  The
command's stdout must be byte-identical to the reference on seeded files
that reach every check kind and each verdict whose witness holds games of
its own, on the gallery and on the shipped scenario files.  Hypothesis
checks the integer text and the integer pass on their own.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from branchgames import AGENT_KINDS, Agent, Branch, Game, Preference, compare
from branchgames import cli
from branchgames.agents import summary
from conftest import REWARD_POOL, games

F = Fraction

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.game"))
STRICT_KINDS = ("dtbr", "egalitarian", "optimist")
# Small weight denominators, so branch lines recur within a file.
DENOMINATORS = (2, 3, 4, 6)


class ReferenceGameJson(cli._GameJson):
    """The record form of a game with a fresh dict per branch."""

    def __call__(self, game):
        if game is None:
            return None
        return {
            "name": game.name,
            "branches": [
                {"reward": str(b.reward), "weight": str(b.weight)}
                for b in game.branches
            ],
        }


def reference_compare_values(left: Game, right: Game) -> dict:
    """A compare record's values, from ``summary``, as first written."""
    left_value, left_low, left_high = summary(left)
    right_value, right_low, right_high = summary(right)
    return {
        "left_expected_value": str(left_value),
        "right_expected_value": str(right_value),
        "left_largest_reward": str(left_high),
        "right_largest_reward": str(right_high),
        "left_reward_range": str(left_high - left_low),
        "right_reward_range": str(right_high - right_low),
    }


def reference_emit(sf: cli.ScenarioFile, monkeypatch) -> str:
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_GameJson", ReferenceGameJson)
        outcomes = cli.run_file(sf)
    for check, outcome in zip(sf.checks, outcomes):
        assert not _shared_dicts([outcome.record])
        if isinstance(check, cli.CompareCheck):
            left, right = sf.games[check.left], sf.games[check.right]
            outcome.record["values"] = reference_compare_values(left, right)
    return "".join(json.dumps(o.record, sort_keys=True) + "\n" for o in outcomes)


def _dicts(value, found: list) -> list:
    """Every dict in a record tree, once per path that reaches it."""
    if isinstance(value, dict):
        found.append(value)
        for item in value.values():
            _dicts(item, found)
    elif isinstance(value, list):
        for item in value:
            _dicts(item, found)
    return found


def _shared_dicts(records) -> int:
    """How many times the records reach a dict they reached before."""
    found = _dicts(list(records), [])
    return len(found) - len({id(d) for d in found})


def _split(rng, parts: int, denominator: int) -> list[Fraction]:
    """``parts`` weights summing to 1 over ``denominator``, each positive."""
    cuts = sorted(rng.sample(range(1, denominator), parts - 1))
    bounds = [0, *cuts, denominator]
    return [F(b - a, denominator) for a, b in zip(bounds, bounds[1:])]


class _SeededFile:
    """A scenario file over rewards -3..5 that runs every check kind."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.lines = [f"agent {kind} kind={kind}" for kind in AGENT_KINDS]
        self.games: dict[str, Game] = {}

    def game(self, rewards=range(6), parts=(1, 3), weights=None) -> str:
        rng = self.rng
        free = weights is None
        if free:
            count = rng.randint(*parts)
            denominator = rng.choice([d for d in DENOMINATORS if d >= count])
            weights = _split(rng, count, denominator)
        pairs = [(F(rng.choice(rewards)), w) for w in weights]
        if free and rng.random() < 0.2:
            pairs.insert(rng.randint(0, len(pairs)), (F(rng.choice(rewards)), F(0)))
        name = f"g{len(self.games)}"
        self.games[name] = Game.of(name, *pairs)
        self.lines.append(f"game {name}")
        self.lines += [f"  branch reward={r} weight={w}" for r, w in pairs]
        return name

    def strict_pair(self, kind: str) -> tuple[str, str]:
        agent = Agent.of(kind, kind)
        while True:
            left, right = self.game(parts=(1, 2)), self.game(parts=(1, 2))
            verdict = compare(agent, self.games[left], self.games[right])
            if verdict is Preference.PrefersLeft:
                return left, right
            if verdict is Preference.PrefersRight:
                return right, left

    def build(self) -> str:
        rng = self.rng
        for kind in AGENT_KINDS:
            for _ in range(2):
                left, right = self.game(), self.game()
                self.lines.append(
                    f"check compare agent={kind} left={left} right={right}"
                )
        for number in range(8):
            kind = AGENT_KINDS[number % 4]
            weights = _split(rng, rng.randint(2, 3), 6)
            root = self.game(weights=weights)
            arms = [(self.game(), self.game()) for _ in weights]
            self.lines.append(f"scenario s{number} root={root}")
            self.lines += [f"  arm {first} vs {second}" for first, second in arms]
            self.lines.append(f"check diachronic agent={kind} scenario=s{number}")
        for number in range(8):
            weights = _split(rng, rng.randint(2, 3), 6)
            names = [
                self.game(rewards=range(-3, 4), weights=weights)
                for _ in range(rng.randint(2, 3))
            ]
            kind = AGENT_KINDS[number % 4]
            self.lines.append(f"check dutchbook agent={kind} games={','.join(names)}")
        for kind in STRICT_KINDS:
            left, right = self.strict_pair(kind)
            both = self.games[left].branches + self.games[right].branches
            alphabet = ",".join(str(r) for r in sorted({b.reward for b in both}))
            self.lines.append(
                f"check continuity agent={kind} left={left} right={right} "
                f"alphabet={alphabet} deltas=1,1/2,1/8 samples=2 "
                f"seed={rng.randrange(99)}"
            )
        for kind in AGENT_KINDS:
            rewards = sorted(rng.sample(range(6), 3))
            names = [self.game(rewards=rewards, parts=(1, 2)) for _ in range(4)]
            alphabet = ",".join(map(str, rewards))
            self.lines.append(
                f"check fit agent={kind} games={','.join(names)} alphabet={alphabet} "
                f"anchors={rewards[0]},{rewards[-1]}"
            )
        self.lines.append(
            "search diachronic agent=optimist rewards=0,1,2 weights=1/2,1 "
            "root_branches=2 option_branches=2"
        )
        return "\n".join(self.lines) + "\n"


SEEDS = range(6)


@pytest.fixture(scope="module")
def seeded_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("seeded")
    paths = []
    for seed in SEEDS:
        path = folder / f"seed{seed}.game"
        path.write_text(_SeededFile(seed).build(), encoding="utf-8")
        paths.append(path)
    return paths


def _machine_output(path: Path, capsys) -> bytes:
    capsys.readouterr()
    assert cli.main(["run", str(path), "--machine"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out.encode("utf-8")


def test_seeded_files_match_the_reference(seeded_files, capsys, monkeypatch):
    verdicts = set()
    for path in seeded_files:
        sf = cli.parse(path.read_text(encoding="utf-8"))
        expected = reference_emit(sf, monkeypatch).encode("utf-8")
        assert _machine_output(path, capsys) == expected, path.name
        for line in expected.decode("utf-8").splitlines():
            record = json.loads(line)
            verdicts.add((record["check_kind"], record["verdict"]))
            if record["check_kind"] == "continuity":
                levels = record["witness"]["levels"]
                if any(level["preference"] is not None for level in levels):
                    verdicts.add(("continuity", "falsified radius"))
            if record["check_kind"] == "dutchbook" and record["values"]["sure_loss"]:
                verdicts.add(("dutchbook", "sure loss"))
    # The files reach every kind of check, and the verdicts whose witness
    # games differ from the inputs.  No built-in agent is strictly exposed
    # to a Dutch book (tests/test_axioms.py), so a sure-loss package, which
    # the indifferent stoic accepts, stands in for an exposed one.
    for reached in [
        ("diachronic", "violated"),
        ("dutchbook", "sure loss"),
        ("continuity", "falsified radius"),
        ("fit", "infeasible"),
        ("search", "found"),
    ]:
        assert reached in verdicts
    assert {kind for kind, _ in verdicts} == {k.name for k in cli._CHECK_KINDS}


def test_gallery_matches_the_reference(capsys, monkeypatch):
    expected = reference_emit(cli.parse(cli.gallery_source()), monkeypatch)
    capsys.readouterr()
    assert cli.main(["gallery", "--machine"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == expected.encode("utf-8")


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
def test_shipped_scenarios_match_the_reference(path, capsys, monkeypatch):
    sf = cli.parse(path.read_text(encoding="utf-8"))
    expected = reference_emit(sf, monkeypatch).encode("utf-8")
    assert _machine_output(path, capsys) == expected


def test_records_share_branch_dicts_within_a_run_only(seeded_files, capsys):
    path = seeded_files[0]
    # Twice in one process: the same bytes.
    assert _machine_output(path, capsys) == _machine_output(path, capsys)
    # Two runs over one parse hold the same Branch objects, so a table that
    # outlived a run would hand the second run the first run's dicts.
    sf = cli.parse(path.read_text(encoding="utf-8"))
    first = [o.record for o in cli.run_file(sf)]
    second = [o.record for o in cli.run_file(sf)]
    assert first == second
    # Within a run, records reach each branch's dict from every game that
    # holds it.
    assert _shared_dicts(first) > 0
    # Both runs stay alive here, so no id is reused between them.
    first_ids = {id(d) for d in _dicts(first, [])}
    assert not first_ids & {id(d) for d in _dicts(second, [])}


# -- the integer pass and its text ------------------------------------------

_PAIRS = st.tuples(
    st.integers(-(10**9), 10**9), st.integers(1, 10**6), st.integers(1, 50)
)


@given(_PAIRS)
def test_integer_pair_text_is_the_fraction_text(pair):
    numerator, denominator, factor = pair
    for top, bottom in [
        (numerator, denominator),
        (numerator * factor, denominator * factor),
        (numerator * denominator, denominator),
        (0, denominator * factor),
    ]:
        assert cli._rational_text(top, bottom) == str(Fraction(top, bottom))


@pytest.mark.parametrize(
    "pair, text",
    [((-6, 4), "-3/2"), ((0, 7), "0"), ((-12, 3), "-4"), ((10, 5), "2"), ((3, 1), "3")],
)
def test_pinned_integer_pair_texts(pair, text):
    assert cli._rational_text(*pair) == text == str(Fraction(*pair))


@given(
    games(),
    st.sampled_from(REWARD_POOL),
    st.sampled_from(REWARD_POOL),
    st.booleans(),
    st.booleans(),
)
def test_the_integer_pass_equals_summary(game, before, after, lead, trail):
    """Zero-weight branches at either end of the support change nothing."""
    branches = (
        (Branch(before, Fraction(0)),) * lead
        + game.branches
        + (Branch(after, Fraction(0)),) * trail
    )
    game = Game("g", branches)
    numerator, denominator, low, high = game.terms
    support = [b.reward for b in branches if b.weight > 0]
    mean = sum((b.weight * b.reward for b in branches), Fraction(0))
    assert (Fraction(numerator, denominator), low, high) == summary(game)
    assert summary(game) == (mean, min(support), max(support))
    assert cli._compare_values(game) == (
        str(mean),
        str(max(support)),
        str(max(support) - min(support)),
    )
