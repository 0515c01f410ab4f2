"""Smoke runs of every workload at tiny size, and a self-check of the oracles.

Run from the repository root:

    python3 -m unittest discover -s perfbench -t perfbench

The self-check corrupts a verdict, a fitted ``u``, a certificate or a hit
index on its way out of the program and asserts that the workload then
reports failures.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import fit_ladder  # noqa: E402
import grid_scan  # noqa: E402
import harness  # noqa: E402
import oracle  # noqa: E402
import scenario_file  # noqa: E402
import tracing  # noqa: E402
from branchgames import agents, axioms, cli, representation, search  # noqa: E402

WORKLOADS = (grid_scan, fit_ladder, scenario_file)


def run_tiny(workload, tracer=None, probe=None) -> harness.Tally:
    with tempfile.TemporaryDirectory() as tmp:
        return harness.run_rounds(workload, 3, 1, Path(tmp), tracer, tiny=True, probe=probe)


class Patched:
    """Replace a module attribute for the duration of a ``with`` block."""

    def __init__(self, module, name, replace) -> None:
        self.module, self.name = module, name
        self.original = getattr(module, name)
        self.replacement = replace(self.original)

    def __enter__(self):
        setattr(self.module, self.name, self.replacement)

    def __exit__(self, *exc):
        setattr(self.module, self.name, self.original)


class BenchmarkSpecTest(unittest.TestCase):
    def test_json_names_the_metrics_and_workloads_the_code_reports(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]}, harness.END_TO_END
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]}, tracing.PER_LAYER
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], [w.NAME for w in WORKLOADS])


class SmokeTest(unittest.TestCase):
    def test_every_workload_runs_clean(self):
        for workload in WORKLOADS:
            with self.subTest(workload.NAME):
                probe = harness.SpeedProbe()
                tally = run_tiny(workload, probe=probe)
                self.assertEqual(tally.errors, [])
                self.assertGreater(tally.attempted, 0)
                self.assertGreater(tally.ops, 0)
                self.assertEqual(len(probe.scale(tally)), len(tally.latencies))

    def test_traced_run_reports_every_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload.NAME):
                tracer = tracing.Tracer(span_limit=100)
                tracer.install()
                try:
                    tally = run_tiny(workload, tracer)
                finally:
                    tracer.uninstall()
                self.assertEqual(tally.errors, [])
                metrics = tracer.metrics(0.0, len(tally.latencies))
                self.assertEqual(set(metrics), set(tracing.PER_LAYER))
                self.assertLessEqual(len(tracer.spans), 100)
                self.assertEqual(tracer.stack, [])
        self.assertIs(cli.compare, agents.compare)

    def test_same_seed_same_inputs(self):
        def labels(workload):
            with tempfile.TemporaryDirectory() as tmp:
                plan = workload.rounds(5, Path(tmp), tiny=True)
                return [r.label for r in next(plan)]

        for workload in (grid_scan, fit_ladder):
            self.assertEqual(labels(workload), labels(workload))

    def test_tail_keeps_ten_requests_beyond(self):
        value, percentile = harness.tail([float(i) for i in range(40)])
        self.assertEqual(value, 29.0)
        self.assertEqual(percentile, 75.0)


def _flip(pref):
    return pref.flipped() if pref is not agents.Preference.Indifferent else agents.Preference.PrefersLeft


class OracleSelfCheck(unittest.TestCase):
    """Corrupt the program's output; the workload must count failures."""

    def assertFails(self, workload):
        tally = run_tiny(workload)
        self.assertGreater(tally.failed / tally.attempted, 0, workload.NAME)

    def test_wrong_compare_verdict(self):
        with Patched(cli, "compare", lambda f: lambda *a: _flip(f(*a))):
            self.assertFails(scenario_file)

    def test_wrong_scan_verdict(self):
        def corrupt(f):
            def check(agent, scenario):
                report = f(agent, scenario)
                if agent.kind == "dtbr":
                    return axioms.AxiomReport("diachronic", axioms.Verdict.VIOLATED, report.witness)
                return report

            return check

        with Patched(search, "check_diachronic", corrupt):
            self.assertFails(grid_scan)

    def test_wrong_hit_index(self):
        def corrupt(f):
            def find(agent, spec):
                hit = f(agent, spec)
                return hit and dataclasses.replace(hit, index=hit.index + 1)

            return find

        with Patched(cli, "find_violation", corrupt):
            self.assertFails(grid_scan)

    def test_missing_cap_rejection(self):
        with Patched(search, "scenario_count", lambda f: lambda spec: 1):
            self.assertFails(grid_scan)

    def test_wrong_fitted_u(self):
        def corrupt(f):
            def fit(instance):
                result = f(instance)
                if result.u is None:
                    return result
                lo, hi = min(result.u), max(result.u)
                u = dict(result.u)
                u[lo], u[hi] = result.u[hi] + 1, result.u[lo]
                return dataclasses.replace(result, u=u)

            return fit

        with Patched(representation, "fit_utility", corrupt):
            self.assertFails(fit_ladder)
        with Patched(cli, "fit_utility", corrupt):
            self.assertFails(scenario_file)

    def test_wrong_certificate(self):
        def corrupt(f):
            def fit(instance):
                result = f(instance)
                if result.certificate is None:
                    return result
                bad = tuple(
                    dataclasses.replace(c, preference=_flip(c.preference))
                    for c in result.certificate
                )
                return dataclasses.replace(result, certificate=bad)

            return fit

        with Patched(representation, "fit_utility", corrupt):
            self.assertFails(fit_ladder)

    def test_certificate_must_name_instance_comparisons(self):
        games = [((Fraction(1), Fraction(1)),), ((Fraction(0), Fraction(1)),)]
        alphabet = (Fraction(0), Fraction(1))
        self.assertEqual(
            oracle.check_fit("optimist", games, alphabet, "infeasible", None, [(0, 1, "PrefersLeft")]),
            [],
        )
        for bad in ([], [(1, 0, "PrefersRight")], [(0, 1, "Indifferent")], [(0, 2, "PrefersLeft")]):
            self.assertNotEqual(
                oracle.check_fit("optimist", games, alphabet, "infeasible", None, bad), []
            )

    def test_continuity_falsifier_outside_radius(self):
        def corrupt(f):
            def check(agent, left, right, alphabet, deltas, samples, seed):
                report = f(agent, left, right, alphabet, deltas, samples, seed)
                levels = tuple(
                    dataclasses.replace(level, left_perturbed=right, right_perturbed=left)
                    if level.falsified
                    else level
                    for level in report.witness.levels
                )
                return dataclasses.replace(report, witness=axioms.ContinuityWitness(levels))

            return check

        with Patched(cli, "check_continuity", corrupt):
            self.assertFails(scenario_file)

    def test_grid_arithmetic_matches_the_documented_order(self):
        rewards, weights = (Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(1))
        spec = search.GridSpec(rewards, weights, 2, 2)
        self.assertEqual(oracle.grid_count(rewards, weights, 2, 2), search.scenario_count(spec))
        for index, scenario in enumerate(search.enumerate_scenarios(spec)):
            if index % 97:
                continue
            root, options = oracle.scenario_at(rewards, weights, 2, 2, index)
            self.assertEqual(root, tuple((b.reward, b.weight) for b in scenario.root.branches))
            self.assertEqual(
                options,
                [
                    tuple(tuple((b.reward, b.weight) for b in g.branches) for g in pair)
                    for pair in scenario.options
                ],
            )


if __name__ == "__main__":
    unittest.main()
