"""Shared generators: random valid games built from exact rational parts.

Weights are produced as integer parts normalized by their sum, so they
always sum to exactly 1; optional zero-weight branches exercise the rule
that such branches are kept but excluded from support statistics.
"""

import os
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

from branchgames import Branch, Game

REWARD_POOL = tuple(
    Fraction(v) for v in (-3, -2, -1, 0, 1, 2, 3, 5)
) + (Fraction(1, 2), Fraction(-3, 4))

SOURCE_DIR = Path(__file__).resolve().parent.parent / "src"


def child_env():
    """The environment with this checkout's sources first on PYTHONPATH."""
    paths = (str(SOURCE_DIR), os.environ.get("PYTHONPATH"))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


@st.composite
def games(draw, name="g", max_branches=4, rewards=REWARD_POOL, allow_zero_weight=True):
    count = draw(st.integers(1, max_branches))
    parts = draw(st.lists(st.integers(1, 6), min_size=count, max_size=count))
    total = sum(parts)
    branches = [
        Branch(draw(st.sampled_from(rewards)), Fraction(part, total))
        for part in parts
    ]
    if allow_zero_weight and draw(st.booleans()):
        position = draw(st.integers(0, len(branches)))
        branches.insert(
            position, Branch(draw(st.sampled_from(rewards)), Fraction(0))
        )
    return Game(name, tuple(branches))


@st.composite
def compounds(draw, max_branches=3):
    """A root game and one continuation per root branch, as ``flatten`` takes them."""
    root = draw(games(name="root", max_branches=max_branches))
    continuations = tuple(
        draw(games(name=f"cont{i}", max_branches=max_branches))
        for i in range(len(root.branches))
    )
    return root, continuations
