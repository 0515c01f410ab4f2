"""Golden output: the gallery, the shipped scenario files and four grid
searches, byte for byte.

Each ``.txt`` or ``.jsonl`` file under ``tests/golden/`` is the stdout of
one command, recorded from the command line as

    branchgames gallery [--machine]           > tests/golden/gallery.{txt,jsonl}
    branchgames run scenarios/<name>.game [--machine]
                                              > tests/golden/<name>.{txt,jsonl}
    [BRANCHGAMES_SCENARIO_CAP=<CAPS[name]>] branchgames search <SEARCHES[name]> [--machine]
                                              > tests/golden/<name>.{txt,jsonl}

and each ``.game`` file is ``render(parse(...))`` of the gallery source or
of ``scenarios/<name>.game``.  A solver, parser or renderer change that
alters any fitted utility, certificate, verdict or formatting shows up
here as a byte difference.
"""

from pathlib import Path

import pytest

from branchgames import cli
from branchgames.search import CAP_ENV_VAR

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SCENARIOS = sorted(path.stem for path in (ROOT / "scenarios").glob("*.game"))

SEARCHES = {
    # the README grid: the egalitarian's first violation
    "search_found": [
        "diachronic", "agent=egalitarian", "rewards=0,3,4,5", "weights=1/2,1",
        "root_branches=2", "option_branches=2",
    ],
    # the expected-value agent never violates: the whole grid is scanned
    "search_none": [
        "diachronic", "agent=dtbr", "rewards=0,1,2", "weights=1/2,1",
        "root_branches=2", "option_branches=2",
    ],
    # a clean scan over three root branches: 1,020,100 scenarios, no hit
    "search_three_roots": [
        "diachronic", "agent=dtbr", "rewards=0,1", "weights=1/3,2/3,1",
        "root_branches=3", "option_branches=2",
    ],
    # the egalitarian's first hit on a grid past the default cap: its index,
    # root and option names follow the pool order and the product order
    "search_quarters_found": [
        "diachronic", "agent=egalitarian", "rewards=0,1,2", "weights=1/4,1/2,3/4,1",
        "root_branches=3", "option_branches=2",
    ],
}
# Searches run with BRANCHGAMES_SCENARIO_CAP raised to their projected count.
CAPS = {"search_quarters_found": 2_189_430_900}

CASES = [
    (stem, machine)
    for stem in ("gallery", *SCENARIOS, *SEARCHES)
    for machine in (False, True)
]
RENDERED = ("gallery", *SCENARIOS)


def _argv(stem: str, machine: bool) -> list[str]:
    if stem == "gallery":
        argv = ["gallery"]
    elif stem in SEARCHES:
        argv = ["search", *SEARCHES[stem]]
    else:
        argv = ["run", str(ROOT / "scenarios" / f"{stem}.game")]
    return argv + (["--machine"] if machine else [])


def _source(stem: str) -> str:
    if stem == "gallery":
        return cli.gallery_source()
    return (ROOT / "scenarios" / f"{stem}.game").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "stem,machine",
    CASES,
    ids=[f"{s}{'-machine' if m else ''}" for s, m in CASES],
)
def test_output_matches_the_golden_file(capsys, monkeypatch, stem, machine):
    if stem in CAPS:
        monkeypatch.setenv(CAP_ENV_VAR, str(CAPS[stem]))
    assert cli.main(_argv(stem, machine)) == 0
    out = capsys.readouterr().out.encode("utf-8")
    golden = GOLDEN / f"{stem}.{'jsonl' if machine else 'txt'}"
    assert out == golden.read_bytes()


@pytest.mark.parametrize("stem", RENDERED)
def test_rendering_matches_the_golden_file(stem):
    rendered = cli.render(cli.parse(_source(stem))).encode("utf-8")
    assert rendered == (GOLDEN / f"{stem}.game").read_bytes()


def test_every_golden_file_is_checked():
    checked = {f"{s}.{'jsonl' if m else 'txt'}" for s, m in CASES}
    checked |= {f"{stem}.game" for stem in RENDERED}
    assert {path.name for path in GOLDEN.iterdir()} == checked
