"""scenario_file: seeded scenario files run through ``cli.main(["run", file, "--machine"])``.

One round is one file, written before the timed call.  A file declares
distinct games over rewards 0..5 and runs compare checks for all four
kinds, diachronic checks on explicit scenarios, Dutch-book packages,
continuity checks (four radii, 4 samples) and small fits.  Games are drawn
from a space of millions, so a game seldom recurs within a run and nothing
the program might remember between calls gets reused.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from pathlib import Path
from typing import Iterator

import harness
import oracle

NAME = "scenario_file"
NOMINAL_ROUND_S = 0.3

KINDS = ("dtbr", "egalitarian", "optimist", "stoic")
STRICT_KINDS = ("dtbr", "egalitarian", "optimist")
DELTAS = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16))
# Weight denominators: wide enough that a run almost never draws a game twice
# (``agents.compare.repeat_frac`` in the traced run says how often it does).
DENOMINATORS = (4, 5, 6, 8, 10, 12, 15, 20, 24, 30, 60)

# Checks per file: compare (per kind), diachronic, dutchbook, continuity, fit.
MIX = {"compare": 250, "diachronic": 96, "dutchbook": 48, "continuity": 4, "fit": 6}
TINY_MIX = {"compare": 3, "diachronic": 4, "dutchbook": 4, "continuity": 3, "fit": 4}


class _File:
    """Scenario-file text plus, per check, the oracle for its record."""

    def __init__(self, rng) -> None:
        self.rng = rng
        self.lines = [f"agent {k} kind={k}" for k in KINDS]
        self.games: dict[str, tuple] = {}
        self.checks: list = []

    def game(self, rewards=range(6), branches=(2, 3), weights=None) -> str:
        """Declare a new game; fixed ``weights`` put it on a shared event."""
        if weights is None:
            game = harness.random_game(self.rng, list(rewards), branches, DENOMINATORS)
            unused = [r for r in rewards if all(r != g for g, _ in game)]
            if unused and self.rng.random() < 0.125:
                game += ((Fraction(self.rng.choice(unused)), Fraction(0)),)
        else:
            game = tuple((Fraction(self.rng.choice(rewards)), w) for w in weights)
        name = f"g{len(self.games)}"
        self.games[name] = game
        self.lines.append(oracle.game_text(name, game))
        return name

    def check(self, line: str, kind: str, judge) -> None:
        self.lines.append(line)
        self.checks.append((kind, judge))

    def compare(self, kind: str) -> None:
        left, right = self.game(), self.game()
        g = self.games
        self.check(
            f"check compare agent={kind} left={left} right={right}",
            "compare",
            lambda r: oracle.check_compare(kind, g[left], g[right], r),
        )

    def diachronic(self, kind: str, number: int) -> None:
        branches = self.rng.randint(2, 3)
        root = self.game(weights=_composition(self.rng, branches))
        arms = [(self.game(), self.game()) for _ in range(branches)]
        self.lines.append(f"scenario s{number} root={root}")
        self.lines += [f"  arm {a} vs {b}" for a, b in arms]
        g = self.games
        self.check(
            f"check diachronic agent={kind} scenario=s{number}",
            "diachronic",
            lambda r: oracle.check_diachronic(
                kind, g[root], [(g[a], g[b]) for a, b in arms], r
            ),
        )

    def dutchbook(self, kind: str) -> None:
        weights = _composition(self.rng, self.rng.randint(2, 3))
        names = [
            self.game(rewards=range(-3, 4), weights=weights)
            for _ in range(self.rng.randint(2, 3))
        ]
        g = self.games
        self.check(
            f"check dutchbook agent={kind} games={','.join(names)}",
            "dutchbook",
            lambda r: oracle.check_dutchbook(kind, [g[n] for n in names], r),
        )

    def continuity(self, kind: str) -> None:
        g = self.games
        while True:
            left, right = self.game(branches=(1, 2)), self.game(branches=(1, 2))
            order = oracle.prefer(kind, g[left], g[right])
            if order != oracle.TIE:
                break
        if order == oracle.RIGHT:
            left, right = right, left
        alphabet = tuple(sorted({r for r, _ in g[left] + g[right]}))
        seed = self.rng.randrange(1000)
        self.check(
            f"check continuity agent={kind} left={left} right={right} "
            f"alphabet={','.join(map(str, alphabet))} "
            f"deltas={','.join(map(str, DELTAS))} samples=4 seed={seed}",
            "continuity",
            lambda r: oracle.check_continuity(kind, g[left], g[right], alphabet, DELTAS, r),
        )

    def fit(self, kind: str) -> None:
        alphabet = tuple(Fraction(r) for r in sorted(self.rng.sample(range(6), 3)))
        names = [self.game(rewards=alphabet, branches=(1, 2)) for _ in range(4)]
        g = self.games
        self.check(
            f"check fit agent={kind} games={','.join(names)} "
            f"alphabet={','.join(map(str, alphabet))} anchors={alphabet[0]},{alphabet[-1]}",
            "fit",
            lambda r: _check_fit_record(kind, [g[n] for n in names], names, alphabet, r),
        )


def _composition(rng, parts: int) -> tuple:
    """Positive weights summing to 1, in twelfths."""
    cuts = sorted(rng.sample(range(1, 12), parts - 1))
    return tuple(Fraction(b - a, 12) for a, b in zip([0] + cuts, cuts + [12]))


def _check_fit_record(kind, games, names, alphabet, record) -> list[str]:
    values = record["values"]
    u = values["u"] and {Fraction(r): Fraction(v) for r, v in values["u"].items()}
    normalized = values["normalized_u"] and {
        Fraction(r): Fraction(v) for r, v in values["normalized_u"].items()
    }
    certificate = None
    if record["witness"] is not None:
        index = {n: i for i, n in enumerate(names)}
        certificate = [
            (index.get(c["left"], -1), index.get(c["right"], -1), c["preference"])
            for c in record["witness"]["certificate"]
        ]
    return oracle.check_fit(
        kind,
        games,
        alphabet,
        record["verdict"],
        u,
        certificate,
        normalized=normalized,
        degenerate=values["normalization_error"] == "DegenerateNormalization",
        anchors=(alphabet[0], alphabet[-1]),
    )


def build_file(rng, mix: dict) -> _File:
    f = _File(rng)
    for n in range(mix["compare"]):
        for kind in KINDS:
            f.compare(kind)
    for n in range(mix["diachronic"]):
        f.diachronic(KINDS[n % 4], n)
    for n in range(mix["dutchbook"]):
        f.dutchbook(KINDS[n % 4])
    for n in range(mix["continuity"]):
        f.continuity(STRICT_KINDS[n % 3])
    for n in range(mix["fit"]):
        f.fit(KINDS[n % 4])
    return f


def verify(checks: list, output) -> tuple[int, int, list[str]]:
    code, out, err = output
    if code != 0:
        return 0, len(checks), [f"exit code {code}: {err.strip()!r}"]
    records = [json.loads(line) for line in out.splitlines()]
    if len(records) != len(checks):
        return 0, len(checks), [f"{len(records)} records for {len(checks)} checks"]
    failed, errors = 0, []
    for number, ((kind, judge), record) in enumerate(zip(checks, records)):
        problems = [f"record is {record['check_kind']}"] if record["check_kind"] != kind else []
        problems = problems or judge(record)
        if problems:
            failed += 1
            errors += [f"check {number} ({kind}): {p}" for p in problems]
    return len(checks), failed, errors


def rounds(seed: int, workdir: Path, tiny: bool = False) -> Iterator[list[harness.Request]]:
    for index in itertools.count():
        f = build_file(harness.rng_for(seed, NAME, index), TINY_MIX if tiny else MIX)
        path = workdir / f"{NAME}-{seed}-{index}.game"
        path.write_text("\n".join(f.lines) + "\n", encoding="utf-8")
        checks = f.checks
        yield [
            harness.Request(
                label=path.name,
                call=lambda: harness.invoke_cli(["run", str(path), "--machine"]),
                verify=lambda output: verify(checks, output),
                attempts=len(checks),
            )
        ]
        path.unlink()
