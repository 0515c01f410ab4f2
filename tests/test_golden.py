"""Golden output: the gallery and the shipped scenario files, byte for byte.

Each file under ``tests/golden/`` is the stdout of one command, recorded
from the command line as

    branchgames gallery [--machine]           > tests/golden/gallery.{txt,jsonl}
    branchgames run scenarios/<name>.game [--machine]
                                              > tests/golden/<name>.{txt,jsonl}

A solver or renderer change that alters any fitted utility, certificate,
verdict or formatting shows up here as a byte difference.
"""

from pathlib import Path

import pytest

from branchgames import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

CASES = [
    (stem, machine)
    for stem in ("gallery", "egalitarian_pair", "optimist_axioms")
    for machine in (False, True)
]


def _argv(stem: str, machine: bool) -> list[str]:
    argv = ["gallery"] if stem == "gallery" else [
        "run", str(ROOT / "scenarios" / f"{stem}.game")
    ]
    return argv + (["--machine"] if machine else [])


@pytest.mark.parametrize(
    "stem,machine",
    CASES,
    ids=[f"{s}{'-machine' if m else ''}" for s, m in CASES],
)
def test_output_matches_the_golden_file(capsys, stem, machine):
    assert cli.main(_argv(stem, machine)) == 0
    out = capsys.readouterr().out.encode("utf-8")
    golden = GOLDEN / f"{stem}.{'jsonl' if machine else 'txt'}"
    assert out == golden.read_bytes()
