"""fit_ladder: ``build_instance``, ``fit_utility`` and ``normalize_fit`` on seeded instances.

One round fits one instance of each shape: 4 rewards x 12 games for all
four kinds, then 5 rewards x 8 games for dtbr and optimist.  Each game is a
sure reward or an even split between two rewards.  Richer instances are left
out: with weights in thirds or quarters, or with three branches, and with
shapes of 5 x 12 and up, the cost of Fourier-Motzkin elimination has
seed-dependent tails of seconds to minutes, so runs on different seeds would
not agree and some would not finish.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from pathlib import Path
from typing import Iterator

import harness
import oracle

NAME = "fit_ladder"
NOMINAL_ROUND_S = 0.25

SHAPES = (
    ("dtbr", 4, 12),
    ("egalitarian", 4, 12),
    ("stoic", 4, 12),
    ("optimist", 4, 12),
    ("dtbr", 5, 8),
    ("optimist", 5, 8),
)
TINY_SHAPES = (("dtbr", 3, 4), ("egalitarian", 3, 4), ("stoic", 3, 4), ("optimist", 4, 12))


def fit(agent, games, alphabet):
    """The timed call: one fit, normalized at the alphabet ends when unique."""
    from branchgames import representation

    instance = representation.build_instance(agent, games, alphabet)
    result = representation.fit_utility(instance)
    normalized, degenerate = None, False
    if result.feasible and result.unique:
        try:
            normalized = representation.normalize_fit(
                result, alphabet.rewards[0], alphabet.rewards[-1]
            )
        except representation.DegenerateNormalizationError:
            degenerate = True
    return instance, result, normalized, degenerate


def verify(kind: str, games: list, alphabet: tuple, output) -> list[str]:
    instance, result, normalized, degenerate = output
    want = oracle.matrix(kind, games)
    if [[p.value for p in row] for row in instance.comparisons] != want:
        return ["instance comparison matrix differs from the bench-side matrix"]
    certificate = None
    if result.certificate is not None:
        certificate = [(c.left, c.right, c.preference.value) for c in result.certificate]
    return oracle.check_fit(
        kind,
        games,
        alphabet,
        result.verdict,
        result.u,
        certificate,
        normalized=None if normalized is None else normalized.u,
        degenerate=degenerate,
        anchors=(alphabet[0], alphabet[-1]) if result.feasible and result.unique else None,
    )


def rounds(seed: int, workdir: Path, tiny: bool = False) -> Iterator[list[harness.Request]]:
    for index in itertools.count():
        yield _round(harness.rng_for(seed, NAME, index), tiny)


def _round(rng, tiny: bool) -> list[harness.Request]:
    from branchgames import agents, core

    requests = []
    for kind, size, count in TINY_SHAPES if tiny else SHAPES:
        rewards = sorted(rng.sample(range(10), size))
        games = [harness.random_game(rng, rewards, (1, 2), (2,)) for _ in range(count)]
        alphabet = tuple(Fraction(r) for r in rewards)
        args = (
            agents.Agent(kind, kind),
            [harness.to_game(f"g{i}", g) for i, g in enumerate(games)],
            core.RewardAlphabet(alphabet),
        )

        def check(output, kind=kind, games=games, alphabet=alphabet):
            errors = verify(kind, games, alphabet, output)
            return 1, int(bool(errors)), errors

        requests.append(
            harness.Request(
                label=f"fit {kind} {size}x{count}",
                call=lambda args=args: fit(*args),
                verify=check,
            )
        )
    return requests
