"""The per-layer tracer's bindings exist in the package.

``perfbench/tracing.py`` wraps names as the package's modules bind them,
some of which package code no longer calls.  A binding deleted from the
package would otherwise surface only when a traced benchmark run starts.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import branchgames.agents as agents
import branchgames.axioms as axioms
import branchgames.cli as cli
import branchgames.core as core
import branchgames.representation as representation

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_exists():
    missing = [
        f"branchgames.{module}.{attribute}"
        for module, attribute, _ in _tracing().TARGETS
        if not hasattr(importlib.import_module(f"branchgames.{module}"), attribute)
    ]
    assert missing == []


def test_cli_compare_is_the_agents_compare():
    # The tracer counts cli.compare as agents.compare.
    assert cli.compare is agents.compare


@pytest.mark.parametrize(
    "module, name, origin",
    [
        (axioms, "weight_vector", core),
        (axioms, "game_distance", core),
        (representation, "weight_vector", core),
        (representation, "compare", agents),
    ],
)
def test_tracer_only_bindings_are_the_objects_they_name(module, name, origin):
    # Package code does not call these; a stale local copy would still
    # pass test_every_traced_binding_exists but trace the wrong function.
    assert getattr(module, name) is getattr(origin, name)
