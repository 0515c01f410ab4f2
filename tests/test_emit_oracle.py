"""``branchgames run --machine`` against records built as dicts.

``run_file`` writes each record's ``--machine`` line as JSON text while
its check runs (``cli._GameJson`` writes each distinct ``Branch`` object's
text once per call), a compare record's values are written from the
integers of each game's ``terms``, and ``emit`` only joins the lines.
``reference_records`` below builds every record as a dict instead, as
the command first did: a fresh dict per branch, the check's keys read
from its kind's entry in ``cli._CHECK_KINDS``, each kind's values and
witness filled in from the same library calls, and each compare record's
values read from ``agents.summary``, a ``Fraction`` subtraction and
``str()``.  Each record is encoded with ``json.dumps(record,
sort_keys=True)``.  The command's stdout must be byte-identical to the
reference on seeded files that reach every check kind and each verdict
whose witness holds games of its own, on the gallery and on the shipped
scenario files; hypothesis checks names that need escaping, which only
the Python API can give, and the integer text and the integer pass on
their own.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from branchgames import (
    AGENT_KINDS,
    Agent,
    Branch,
    DiachronicScenario,
    Game,
    GridSpec,
    Preference,
    RewardAlphabet,
    analyze_dutch_book,
    build_instance,
    check_continuity,
    check_diachronic,
    compare,
    find_violation,
    fit_utility,
    normalize_fit,
    scenario_count,
)
from branchgames import cli
from branchgames.agents import summary
from branchgames.representation import DegenerateNormalizationError
from conftest import REWARD_POOL, games

F = Fraction

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.game"))
STRICT_KINDS = ("dtbr", "egalitarian", "optimist")
# Small weight denominators, so branch lines recur within a file.
DENOMINATORS = (2, 3, 4, 6)


# -- the reference: records as dicts ------------------------------------------


class ReferenceGameJson:
    """The record form of games, with a fresh dict per branch."""

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

    def scenario(self, scenario):
        return {
            "root": self(scenario.root),
            "options": [
                [self(first), self(second)] for first, second in scenario.options
            ],
        }

    def witness(self, witness):
        return {
            "clause": witness.clause,
            "descendant_preferences": [
                p.value for p in witness.descendant_preferences
            ],
            "strict_branches": list(witness.strict_branches),
            "left_compound": self(witness.left_compound),
            "right_compound": self(witness.right_compound),
            "compound_preference": witness.compound_preference.value,
        }


def reference_inputs(check, sf, game_json) -> dict:
    """The check's keys for its record: games in full, rationals as strings."""
    inputs = {}
    for key in cli._KIND_OF[type(check)].keys.values():
        value = getattr(check, key.name)
        if key.ref == "game":
            value = game_json(sf.games[value])
        elif key.ref == "games":
            value = [game_json(sf.games[name]) for name in value]
        elif isinstance(value, tuple):
            value = [str(v) for v in value]
        inputs[key.name] = value
    return inputs


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


def _fill_compare(check, sf, record, game_json):
    agent = sf.agents[check.agent]
    left, right = sf.games[check.left], sf.games[check.right]
    record["inputs"]["kind"] = agent.kind
    record["verdict"] = compare(agent, left, right).value
    record["values"] = reference_compare_values(left, right)


def _fill_diachronic(check, sf, record, game_json):
    scenario = sf.scenarios[check.scenario]
    report = check_diachronic(sf.agents[check.agent], scenario)
    record["inputs"].update(game_json.scenario(scenario))
    record["verdict"] = report.verdict.value
    if report.witness is not None:
        record["witness"] = game_json.witness(report.witness)


def _fill_continuity(check, sf, record, game_json):
    report = check_continuity(
        sf.agents[check.agent],
        sf.games[check.left],
        sf.games[check.right],
        RewardAlphabet.of(check.alphabet),
        check.deltas,
    )
    record["verdict"] = report.verdict.value
    record["witness"] = {
        "levels": [
            {
                "delta": str(level.delta),
                "left": game_json(level.left_perturbed),
                "right": game_json(level.right_perturbed),
                "preference": level.preference.value if level.falsified else None,
            }
            for level in report.witness.levels
        ]
    }


def _fill_dutchbook(check, sf, record, game_json):
    report = analyze_dutch_book(
        sf.agents[check.agent], [sf.games[name] for name in check.games]
    )
    record["verdict"] = "exposed" if report.exposure else "not_exposed"
    record["witness"] = {
        "combined": game_json(report.combined),
        "null": game_json(report.null),
    }
    record["values"] = {
        "individual_preferences": [p.value for p in report.individual_preferences],
        "combined_preference": report.combined_preference.value,
        "sure_loss": report.sure_loss,
        "exposure": report.exposure,
        "weak_exposure": report.weak_exposure,
    }


def _fill_fit(check, sf, record, game_json):
    alphabet = RewardAlphabet.of(check.alphabet)
    instance = build_instance(
        sf.agents[check.agent], [sf.games[name] for name in check.games], alphabet
    )
    fit = fit_utility(instance)
    record["verdict"] = fit.verdict
    values = record["values"] = {
        "u": None,
        "unique": fit.unique,
        "normalized_u": None,
        "normalization_error": None,
    }
    if fit.certificate is not None:
        record["witness"] = {
            "certificate": [
                {
                    "left": instance.games[c.left].name,
                    "right": instance.games[c.right].name,
                    "preference": c.preference.value,
                }
                for c in fit.certificate
            ]
        }
    if fit.u is not None:
        values["u"] = {str(r): str(fit.u[r]) for r in alphabet}
    if check.anchors is not None and fit.feasible:
        try:
            normalized = normalize_fit(fit, *check.anchors)
        except DegenerateNormalizationError:
            values["normalization_error"] = "DegenerateNormalization"
        else:
            values["normalized_u"] = {str(r): str(normalized.u[r]) for r in alphabet}


def _fill_search(check, sf, record, game_json):
    agent = sf.agents[check.agent]
    spec = GridSpec(
        check.rewards, check.weights, check.root_branches, check.option_branches
    )
    hit = find_violation(agent, spec)
    record["inputs"]["kind"] = agent.kind
    record["values"] = {"scenario_count": scenario_count(spec)}
    record["verdict"] = "none" if hit is None else "found"
    if hit is not None:
        record["witness"] = {
            "index": hit.index,
            "scenario": game_json.scenario(hit.scenario),
            "report": game_json.witness(hit.report.witness),
        }


REFERENCE_FILLS = {
    "compare": _fill_compare,
    "diachronic": _fill_diachronic,
    "continuity": _fill_continuity,
    "dutchbook": _fill_dutchbook,
    "fit": _fill_fit,
    "search": _fill_search,
}


def reference_records(sf: cli.ScenarioFile) -> list[dict]:
    """Every check's record as a dict, built as the command first built it."""
    game_json = ReferenceGameJson()
    records = []
    for check in sf.checks:
        kind = cli._KIND_OF[type(check)]
        record = {
            "check_kind": kind.name,
            "inputs": reference_inputs(check, sf, game_json),
            "verdict": None,
            "witness": None,
            "values": {},
        }
        REFERENCE_FILLS[kind.name](check, sf, record, game_json)
        records.append(record)
    return records


def reference_emit(sf: cli.ScenarioFile) -> str:
    return "".join(
        json.dumps(record, sort_keys=True) + "\n" for record in reference_records(sf)
    )


# -- seeded files -----------------------------------------------------------


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


def test_seeded_files_match_the_reference(seeded_files, capsys):
    verdicts = set()
    for path in seeded_files:
        sf = cli.parse(path.read_text(encoding="utf-8"))
        expected = reference_emit(sf).encode("utf-8")
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


def test_gallery_matches_the_reference(capsys):
    expected = reference_emit(cli.parse(cli.gallery_source()))
    capsys.readouterr()
    assert cli.main(["gallery", "--machine"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == expected.encode("utf-8")


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
def test_shipped_scenarios_match_the_reference(path, capsys):
    sf = cli.parse(path.read_text(encoding="utf-8"))
    expected = reference_emit(sf).encode("utf-8")
    assert _machine_output(path, capsys) == expected


# Every verdict a record can hold, and whether --fail-on-violation counts it.
VERDICTS = {
    **{p.value: False for p in Preference},
    "satisfied": False,
    "violated": True,
    "no_violation_found": False,
    "exposed": True,
    "not_exposed": False,
    "feasible": False,
    "infeasible": False,
    "found": True,
    "none": False,
}


def test_violation_agrees_with_the_record_verdict(seeded_files):
    sources = [path.read_text(encoding="utf-8") for path in seeded_files]
    files = [cli.parse(text) for text in [*sources, cli.gallery_source()]]
    files.append(
        cli._parse_search_terms(
            "diachronic agent=dtbr rewards=0,1 weights=1/2,1 "
            "root_branches=1 option_branches=1".split()
        )
    )
    outcomes = [o for sf in files for o in cli.run_file(sf)]
    # No built-in agent is exposed to a Dutch book, so that outcome is
    # built by hand.
    exposed = json.dumps({"check_kind": "dutchbook", "verdict": "exposed"})
    outcomes.append(cli.CheckOutcome(exposed, "", "exposed"))
    for outcome in outcomes:
        assert outcome.verdict == json.loads(outcome.line)["verdict"]
        assert outcome.violation is VERDICTS[outcome.verdict]
    assert {o.verdict for o in outcomes} == set(VERDICTS)


def test_two_runs_over_one_parse_give_identical_lines(seeded_files, capsys):
    path = seeded_files[0]
    # Twice in one process: the same bytes.
    assert _machine_output(path, capsys) == _machine_output(path, capsys)
    # Two runs over one parse hold the same Branch objects, so a branch
    # table that outlived a run would be read by the next one.
    sf = cli.parse(path.read_text(encoding="utf-8"))
    first = [o.line for o in cli.run_file(sf)]
    assert [o.line for o in cli.run_file(sf)] == first


# -- names that need escaping -------------------------------------------------

# Text that JSON escapes, or that ASCII-only JSON writes as \u escapes,
# besides any other code point.
_AWKWARD = ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\xe9", "\u2028"]
# Lone surrogates, and a code point outside the BMP, which ASCII-only JSON
# writes as a surrogate pair.
_AWKWARD += ["\ud800", "\udfff", "\U0001f600"]
_NAMES = st.text(
    st.one_of(st.sampled_from(_AWKWARD), st.characters(exclude_categories=())),
    max_size=6,
)
_EVENT = (F(1, 3), F(2, 3))


@given(st.data())
def test_names_needing_escapes_match_the_reference(data):
    """Files cannot name a game this way: their names are identifiers."""

    def name():
        return data.draw(_NAMES)

    def game(branches=None):
        if branches is None:
            branches = data.draw(games(max_branches=3)).branches
        return Game(name(), branches)

    def on_event():
        pool = st.sampled_from(REWARD_POOL)
        rewards = data.draw(st.lists(pool, min_size=2, max_size=2))
        return game(tuple(Branch(r, w) for r, w in zip(rewards, _EVENT)))

    agent, scenario = name(), name()
    kind = data.draw(st.sampled_from(AGENT_KINDS))
    checked = [game(), game(), on_event(), on_event()]
    root, options = on_event(), ((game(), game()), (game(), game()))
    sf = cli.ScenarioFile(
        games={f"g{i}": g for i, g in enumerate(checked)},
        agents={agent: Agent(agent, kind)},
        scenarios={scenario: DiachronicScenario(root, options)},
        checks=(
            cli.CompareCheck(agent, "g0", "g1"),
            cli.DutchBookCheck(agent, ("g2", "g3")),
            cli.DiachronicCheck(agent, scenario),
        ),
    )
    assert cli.emit(cli.run_file(sf), machine=True) == reference_emit(sf)


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
