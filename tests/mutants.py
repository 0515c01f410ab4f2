"""Mutation checks: each mutant of the package must fail the tests named for it.

An entry of ``MUTANTS`` names a module under ``src/branchgames``, an exact
source snippet, the text that replaces it, and the pytest node ids of
which at least one must fail.  For each entry the runner copies ``src/``
to a temporary directory, applies that one replacement, and runs the ids
with pytest in a subprocess, with the copy first on ``PYTHONPATH``.  A
mutant is killed when pytest reports a failed test (exit code 1); any
other exit code, such as a node id that no longer exists, is an error.
Tests that run the package in a child process through
``conftest.child_env`` put this checkout's ``src`` first, so they see no
mutant and must not be listed.

Before the mutants, the runner checks on an unmutated copy that the
copy is the package the tests import and that every listed id passes,
so no mutant is counted as killed by a test that fails anyway.  It
exits non-zero if a mutant survives, if a snippet does not occur exactly
once in its module, or on any error.  Run from the repository root::

    python3 tests/mutants.py

``NOT_RUN`` lists mutations checked once and not kept here, each with
the reason.  Only the standard library is used; pytest and hypothesis
must be installed, as for the tests themselves.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str
    snippet: str
    replacement: str
    ids: tuple[str, ...]


CORE = "tests/test_core.py"
ORACLE = "tests/test_search_oracle.py"
FIRST_HIT = f"{ORACLE}::test_first_hit_matches_the_reference"
CLASS_WALK = f"{ORACLE}::test_the_class_walk_agrees_on_every_fixed_grid"
STORED = f"{CORE}::TestStoredTerms"
PARSE = "tests/test_parse_oracle.py"
PAUSE = "tests/test_cli.py::TestCollectorPause"
RANK = "tests/test_rank_oracle.py"
EMIT = "tests/test_emit_oracle.py"
GOLDEN = "tests/test_golden.py::test_output_matches_the_golden_file"

MUTANTS = (
    # The one walk over a game's branches, in core.validate_game.
    Mutant(
        "zero-weight branches join the support",
        "core.py",
        "        if not share:\n            continue\n",
        "",
        (
            f"{CORE}::TestSupportBounds::test_pinned_bounds",
            f"{STORED}::test_terms_are_the_reference_walk",
        ),
    ),
    Mutant(
        "the last equal support min is kept instead of the first",
        "core.py",
        "elif top * least[1] < least[0] * scale:",
        "elif top * least[1] <= least[0] * scale:",
        (
            f"{CORE}::TestSupportBounds::test_equal_values_give_the_first_branch_holding_them",
            f"{STORED}::test_terms_are_the_reference_walk",
        ),
    ),
    Mutant(
        "the shared-denominator expected-value step is dropped",
        "core.py",
        "        if denominator % step:\n"
        "            numerator = numerator * step + share * top * denominator\n"
        "            denominator *= step\n"
        "        else:\n"
        "            numerator += share * top * (denominator // step)\n",
        "        numerator = numerator * step + share * top * denominator\n"
        "        denominator *= step\n",
        (f"{STORED}::test_long_game_keeps_its_weight_denominator",),
    ),
    Mutant(
        "support rewards are compared as Fractions",
        "core.py",
        "elif top * least[1] < least[0] * scale:",
        "elif b.reward < low:",
        (f"{CORE}::TestSupportBounds::test_statistics_build_and_compare_no_fraction",),
    ),
    Mutant(
        "a weight of exactly 1 is out of range",
        "core.py",
        "if share < 0 or share > bottom:",
        "if share < 0 or share >= bottom:",
        ("tests/test_validate_oracle.py",),
    ),
    # The fold of arm classes in the grid search.
    Mutant(
        "fold strictness is taken from the second state only",
        "search.py",
        "state[0] if state[0] is Preference.PrefersLeft else other[0],",
        "other[0],",
        (CLASS_WALK, FIRST_HIT),
    ),
    Mutant(
        "classes strict in expected value are kept",
        "search.py",
        "                if left_fields[0] > right_fields[0]:\n"
        "                    continue\n",
        "",
        (CLASS_WALK, FIRST_HIT),
    ),
    Mutant(
        "tails are read one slot short",
        "search.py",
        "tails = reach[min(rest, len(reach) - 1)]",
        "tails = reach[min(max(rest - 1, 0), len(reach) - 1)]",
        (CLASS_WALK, FIRST_HIT),
    ),
    Mutant(
        "the prefix is never advanced",
        "search.py",
        "        prefix = state\n",
        "",
        (CLASS_WALK, FIRST_HIT),
    ),
    Mutant(
        "the first option's support min is folded by max",
        "search.py",
        "        min(state[1], other[1]),",
        "        max(state[1], other[1]),",
        (CLASS_WALK, FIRST_HIT),
    ),
    Mutant(
        "the last class of each fold state is kept",
        "search.py",
        "            classes.setdefault(\n"
        "                state, (left * len(pool) + right, (pool[left], pool[right]), state)\n"
        "            )\n",
        "            classes[state] = (left * len(pool) + right, (pool[left], pool[right]), state)\n",
        (
            f"{FIRST_HIT}[thirds_negative-egalitarian-13781]",
            f"{CLASS_WALK}[egalitarian-thirds_negative]",
        ),
    ),
    # The integer weight vectors and the preorder check of a fit.
    Mutant(
        "the extra denominators are left out of D",
        "core.py",
        "        *denominators, *(b.weight.denominator for g in games for b in g.branches)",
        "        *(b.weight.denominator for g in games for b in g.branches)",
        (f"{CORE}::test_weight_vectors_are_the_reference_times_d",),
    ),
    Mutant(
        "D is read off the first game's branches only",
        "core.py",
        "*(b.weight.denominator for g in games for b in g.branches)",
        "*(b.weight.denominator for b in games[0].branches)",
        (f"{CORE}::test_weight_vectors_are_the_reference_times_d",),
    ),
    Mutant(
        "win-count levels are ordered ascending",
        "representation.py",
        "distinct = sorted(set(ranks), reverse=True)",
        "distinct = sorted(set(ranks))",
        ("tests/test_representation.py",),
    ),
    Mutant(
        "axioms binds a local copy of weight_vector",
        "axioms.py",
        "    weight_vector,  # noqa: F401 - unused here; perfbench/tracing.py wraps it\n"
        "    weight_vectors,\n"
        ")\n",
        "    weight_vectors,\n"
        ")\n"
        "from .core import weight_vector as _weight_vector\n"
        "weight_vector = lambda game, alphabet: _weight_vector(game, alphabet)\n",
        ("tests/test_tracing_bindings.py",),
    ),
    # The one key reader of the scenario-file parser.
    Mutant(
        "the last bad token is reported instead of the first",
        "cli.py",
        "            raise line.error(str(exc), index) from None\n"
        "    for name, key in keys.items():\n",
        "            given[None] = line.error(str(exc), index)\n"
        "    if None in given:\n"
        "        raise given[None]\n"
        "    for name, key in keys.items():\n",
        (
            f"{PARSE}::test_pinned_outcomes",
            f"{PARSE}::test_random_check_lines_parse_as_in_the_reference",
        ),
    ),
    Mutant(
        "a missing key is raised before the tokens are read",
        "cli.py",
        "    given = {}\n    for index, token in enumerate(line.tokens[start:], start):\n",
        "    named = {token.partition(\"=\")[0] for token in line.tokens[start:]}\n"
        "    for name, key in keys.items():\n"
        "        if key.required and name not in named:\n"
        "            raise ParseError(f\"missing required key {name}=...\", line.number)\n"
        "    given = {}\n    for index, token in enumerate(line.tokens[start:], start):\n",
        (PARSE,),
    ),
    Mutant(
        "an absent optional key reads ()",
        "cli.py",
        "    return [given.get(name) for name in keys]",
        "    return [given.get(name, ()) for name in keys]",
        (PARSE,),
    ),
    # The grid and the rules it is searched under.
    Mutant(
        "the option pool's weight and prefix loops are swapped",
        "search.py",
        "            for weights, total in prefixes\n"
        "            for weight, step in menu\n",
        "            for weight, step in menu\n"
        "            for weights, total in prefixes\n",
        (f"{ORACLE}::test_weight_tuples_match_the_filtered_product",),
    ),
    Mutant(
        "the longest tuple length is left out",
        "search.py",
        "min(limit + 1, len(spec.tuple_counts)))",
        "min(limit + 1, len(spec.tuple_counts) - 1))",
        ("tests/test_search.py::TestEnumeration::test_single_cell_grid", FIRST_HIT),
    ),
    Mutant(
        "the grid counts tuples only up to its root limit",
        "search.py",
        "max(self.max_root_branches, self.max_option_branches)",
        "self.max_root_branches",
        (
            "tests/test_search.py::TestTupleCounts"
            "::test_option_games_longer_than_the_roots_are_counted_in_full",
            f"{FIRST_HIT}[three_branch_pool-optimist-4113]",
        ),
    ),
    Mutant(
        "root lengths without a root tuple are kept",
        "search.py",
        "roots = filter(counts.__getitem__, _lengths(self, self.max_root_branches))",
        "roots = _lengths(self, self.max_root_branches)",
        (
            "tests/test_search.py::TestTupleCounts::test_the_spec_lists_its_root_lengths_once",
            f"{FIRST_HIT}[three_branch_roots-optimist-15]",
        ),
    ),
    Mutant(
        "option lengths without a tuple are raised to their power",
        "search.py",
        "for size in filter(tuples.__getitem__, _lengths(spec, spec.max_option_branches))",
        "for size in _lengths(spec, spec.max_option_branches)",
        (
            "tests/test_search.py::TestTupleCounts"
            "::test_the_count_raises_rewards_only_to_option_lengths_with_a_tuple",
        ),
    ),
    # The collector pause around cli.main.
    Mutant(
        "the collector is never re-enabled",
        "cli.py",
        "        if enabled:\n            gc.enable()\n",
        "        pass\n",
        (f"{PAUSE}::test_main_restores_the_callers_setting",),
    ),
    Mutant(
        "the collector is enabled even when the caller had it disabled",
        "cli.py",
        "        if enabled:\n            gc.enable()\n",
        "        gc.enable()\n",
        (f"{PAUSE}::test_main_restores_the_callers_setting",),
    ),
    Mutant(
        "the pause is removed",
        "cli.py",
        "    gc.disable()\n",
        "",
        (f"{PAUSE}::test_no_collection_starts_during_parse_run_or_emit",),
    ),
    # The --machine lines that run_file writes as text.
    Mutant(
        "a game name is written without the encoder",
        "cli.py",
        '"name": {_encode(game.name)}}}',
        '"name": "{game.name}"}}',
        (f"{EMIT}::test_names_needing_escapes_match_the_reference",),
    ),
    Mutant(
        "inputs (and witness) keys are written in field order instead of sorted",
        "cli.py",
        "for key in sorted(members)]",
        "for key in members]",
        (
            f"{EMIT}::test_seeded_files_match_the_reference",
            f"{EMIT}::test_gallery_matches_the_reference",
        ),
    ),
    Mutant(
        "an exposed Dutch book is not counted as a violation",
        "cli.py",
        '_VIOLATIONS = frozenset({"violated", "exposed", "found"})',
        '_VIOLATIONS = frozenset({"violated", "found"})',
        (f"{EMIT}::test_violation_agrees_with_the_record_verdict",),
    ),
    Mutant(
        "a satisfied diachronic check writes its witness as {} instead of null",
        "cli.py",
        'return verdict, "{}", "null", text',
        'return verdict, "{}", "{}", text',
        (f"{GOLDEN}[verdict_tour-machine]",),
    ),
    Mutant(
        "a search without a hit writes its values as {}",
        "cli.py",
        'return "none", values, "null", text',
        'return "none", "{}", "null", text',
        (f"{GOLDEN}[search_none-machine]",),
    ),
    # A scenario file read by the command line.
    Mutant(
        "a byte-order mark at the start of a file is kept",
        "cli.py",
        'encoding="utf-8-sig"',
        'encoding="utf-8"',
        (
            "tests/test_cli.py::TestCommandLine"
            "::test_a_byte_order_mark_at_the_start_is_dropped",
        ),
    ),
    # Ranking and record texts on integers.
    Mutant(
        "compare scales each expected value by its own denominator",
        "agents.py",
        "return rule((a * d, left_low, left_high), (c * b, right_low, right_high))",
        "return rule((a * b, left_low, left_high), (c * d, right_low, right_high))",
        (f"{RANK}::test_compare_matches_the_reference_on_every_grid_pair",),
    ),
    Mutant(
        "a branch's pairs hold the reward before the weight",
        "core.py",
        "(weight.numerator, weight.denominator, reward.numerator, reward.denominator)",
        "(reward.numerator, reward.denominator, weight.numerator, weight.denominator)",
        # Every module that builds a game at import fails to collect, which
        # counts as an error, not a kill; this one builds games in its tests.
        ("tests/test_validate_oracle.py::test_every_game_of_up_to_three_branches_on_the_grid",),
    ),
    Mutant(
        "scaled_statistics scales the support min and max by separate multipliers",
        "agents.py",
        "    bounds = _over_lcm([t[i + 1].as_integer_ratio() for i in fields if i for t in terms])\n",
        "    bounds = [\n"
        "        n for i in fields if i\n"
        "        for n in _over_lcm([t[i + 1].as_integer_ratio() for t in terms])\n"
        "    ]\n",
        (f"{RANK}::test_scaled_statistics_match_the_reference_on_the_grid",),
    ),
    Mutant(
        "a branch's integer reward is written as n/1",
        "cli.py",
        'reward = top if scale == 1 else f"{top}/{scale}"',
        'reward = f"{top}/{scale}"',
        (f"{RANK}::test_compare_values_and_branch_texts_on_the_grid",),
    ),
    Mutant(
        "the egalitarian prefers the wider spread",
        "agents.py",
        '"egalitarian": (_VALUE, lambda s: s[1] - s[2]),',
        '"egalitarian": (_VALUE, lambda s: s[2] - s[1]),',
        ("tests/test_agents.py",),
    ),
)

NOT_RUN = (
    (
        "the running support bounds are not rescaled",
        "retired: the walk keeps each bound as its reward's own integer pair "
        "and compares by cross-multiplying, so there is no running scale",
    ),
    (
        "a min()/max() rewrite of support_bounds",
        "retired: support_bounds reads the stored terms; the same fault in "
        "the walk is the 'compared as Fractions' mutant",
    ),
    (
        "the parser's values parsed in key order after every token is checked",
        "not a one-snippet change: the loop must keep raw values and the "
        "return must parse them; the two random parse-oracle tests caught it",
    ),
    (
        "the parser's unknown-key and duplicate-key checks swapped",
        "equivalent: an unknown key is never stored, so no input tells the "
        "two orders apart",
    ),
)


def _env(copy: Path) -> dict:
    paths = (str(copy), os.environ.get("PYTHONPATH"))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def _copy_source(into: Path) -> Path:
    copy = into / "src"
    shutil.copytree(
        ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info")
    )
    return copy


def _pytest(copy: Path, ids: tuple[str, ...], first_failure: bool) -> int:
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    if first_failure:
        command.append("-x")
    result = subprocess.run(
        [*command, *ids], cwd=ROOT, env=_env(copy), capture_output=True, text=True
    )
    if result.returncode not in (0, 1):
        sys.stdout.write(result.stdout[-2000:] + result.stderr[-2000:])
    return result.returncode


def _baseline() -> bool:
    """Whether an unmutated copy is what the tests import, and passes every id."""
    with tempfile.TemporaryDirectory() as scratch:
        copy = _copy_source(Path(scratch))
        found = subprocess.run(
            [sys.executable, "-c", "import branchgames; print(branchgames.__file__)"],
            env=_env(copy),
            capture_output=True,
            text=True,
        ).stdout.strip()
        if not Path(found).is_relative_to(copy):
            print(f"baseline: the tests import {found!r}, not the copy")
            return False
        ids = tuple(dict.fromkeys(i for m in MUTANTS for i in m.ids))
        code = _pytest(copy, ids, first_failure=False)
    if code != 0:
        print(f"baseline: the listed ids do not all pass (pytest exit {code})")
    return code == 0


def _run(mutant: Mutant) -> str:
    """``killed``, ``SURVIVED`` or an error, for one mutant."""
    with tempfile.TemporaryDirectory() as scratch:
        copy = _copy_source(Path(scratch))
        path = copy / "branchgames" / mutant.module
        text = path.read_text()
        count = text.count(mutant.snippet)
        if count != 1:
            return f"ERROR: the snippet occurs {count} times in {mutant.module}"
        path.write_text(text.replace(mutant.snippet, mutant.replacement))
        code = _pytest(copy, mutant.ids, first_failure=True)
    if code == 1:
        return "killed"
    if code == 0:
        return "SURVIVED"
    return f"ERROR: pytest exit {code}"


def main() -> int:
    start = time.perf_counter()
    if not _baseline():
        return 1
    failed = 0
    for mutant in MUTANTS:
        began = time.perf_counter()
        verdict = _run(mutant)
        failed += verdict != "killed"
        print(f"{verdict:8} {time.perf_counter() - began:6.1f} s  {mutant.name}")
    for name, reason in NOT_RUN:
        print(f"not run  {name}: {reason}")
    total = time.perf_counter() - start
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} killed in {total:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
