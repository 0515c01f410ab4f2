"""grid_scan: ``branchgames search diachronic ...`` requests through ``cli.main``.

One round holds fourteen requests of fixed shape; the seed picks the reward
menus.  Full clean scans (dtbr and stoic, which never violate) cover 2- and
3-reward menus.  First-hit scans use menus whose hit index is fixed by
their shape: optimist ranks by the largest reward only, so any increasing
menu of a size hits at the same index, and egalitarian menus are positive
affine images of a template, which keep every expected-value tie and so the
hit.  The over-cap request asks for a 10-value weight menu with 5 root
branches and must exit 2 before scanning.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from pathlib import Path
from typing import Iterator

import harness
import oracle

NAME = "grid_scan"
# Round time of the full-size round on the reference machine (see CHANGES.md).
NOMINAL_ROUND_S = 12.0

HALF_AND_ONE = (Fraction(1, 2), Fraction(1))
EGALITARIAN_TEMPLATES = ((0, 1, 2), (0, 3, 4, 6))
OVERCAP_WEIGHTS = tuple(Fraction(k, 12) for k in range(1, 13))


def _menu(rng, size: int) -> tuple:
    return tuple(Fraction(r) for r in sorted(rng.sample(range(10), size)))


def _affine(rng, template: tuple) -> tuple:
    offset, scale = rng.randint(0, 4), rng.randint(1, 3)
    return tuple(Fraction(offset + scale * t) for t in template)


def _search(kind, rewards, weights, roots=2, options=2, expect=None, cap=harness.DEFAULT_CAP):
    return {
        "kind": kind,
        "rewards": rewards,
        "weights": weights,
        "roots": roots,
        "options": options,
        "expect": expect or ("none" if kind in ("dtbr", "stoic") else "found"),
        "cap": cap,
    }


def _shapes(rng, tiny: bool) -> list[dict]:
    if tiny:
        # The over-cap path under a lowered cap, so it costs milliseconds.
        return [
            _search("dtbr", _menu(rng, 2), HALF_AND_ONE),
            _search("stoic", _menu(rng, 2), HALF_AND_ONE),
            _search("optimist", _menu(rng, 2), HALF_AND_ONE),
            _search("egalitarian", _affine(rng, EGALITARIAN_TEMPLATES[0]), HALF_AND_ONE),
            _search("dtbr", _menu(rng, 2), HALF_AND_ONE, expect="overcap", cap=100),
        ]
    weights = tuple(sorted(rng.sample(OVERCAP_WEIGHTS, 10)))
    return [
        _search("dtbr", _menu(rng, 2), HALF_AND_ONE),
        _search("stoic", _menu(rng, 2), HALF_AND_ONE),
        _search("optimist", _menu(rng, 3), HALF_AND_ONE),
        _search("dtbr", _menu(rng, 2), HALF_AND_ONE),
        _search("stoic", _menu(rng, 2), HALF_AND_ONE),
        _search("egalitarian", _affine(rng, EGALITARIAN_TEMPLATES[0]), HALF_AND_ONE),
        _search("dtbr", _menu(rng, 3), HALF_AND_ONE),
        _search("optimist", _menu(rng, 4), HALF_AND_ONE),
        _search("dtbr", _menu(rng, 2), HALF_AND_ONE),
        _search("stoic", _menu(rng, 2), HALF_AND_ONE),
        _search("egalitarian", _affine(rng, EGALITARIAN_TEMPLATES[1]), HALF_AND_ONE),
        _search("stoic", _menu(rng, 3), HALF_AND_ONE),
        _search("optimist", _menu(rng, 3), HALF_AND_ONE),
        _search("dtbr", _menu(rng, 2), weights, roots=5, expect="overcap"),
    ]


def _argv(request: dict) -> list[str]:
    return [
        "search",
        "diachronic",
        f"agent={request['kind']}",
        "rewards=" + ",".join(str(r) for r in request["rewards"]),
        "weights=" + ",".join(str(w) for w in request["weights"]),
        f"root_branches={request['roots']}",
        f"option_branches={request['options']}",
        "--machine",
    ]


def rounds(seed: int, workdir: Path, tiny: bool = False) -> Iterator[list[harness.Request]]:
    for index in itertools.count():
        yield _round(harness.rng_for(seed, NAME, index), tiny)


def _round(rng, tiny: bool) -> list[harness.Request]:
    requests = []
    for shape in _shapes(rng, tiny):
        argv = _argv(shape)

        def verify(output, shape=shape):
            ops, errors = oracle.check_search(shape, *output)
            return ops, int(bool(errors)), errors

        requests.append(
            harness.Request(
                label=" ".join(argv[2:6]),
                call=lambda argv=argv, cap=shape["cap"]: harness.invoke_cli(argv, cap),
                verify=verify,
            )
        )
    return requests
