"""branchgames benchmark: one command, three seeded workloads, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload grid_scan --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload fit_ladder --seed 1 --trace 1
    python3 perfbench/run.py --workload scenario_file --repeat 5

One process, one closed-loop client, no threads.  ``--seconds`` sizes the
run: it executes ``max(1, round(seconds / nominal round time))`` rounds, a
count fixed by the arguments, so every commit does the same work.

``--trace 0`` prints the end-to-end metrics.  Each time is scaled to a
reference host speed measured by ``harness.SpeedProbe`` just before and
after it; the raw figures are printed beside them.  ``--trace 1`` first runs a
third of the rounds untraced, then the same rounds again with spans around
every public function the modules call, and prints the per-layer metrics
plus ``trace.overhead_s`` (traced minus untraced wall time).  ``--repeat N``
runs the workload N times on seeds seed..seed+N-1 and prints, per metric,
the median, the quartiles and the spread against the bound in
``BENCHMARK.json``.

Every output is checked by bench-side arithmetic (``oracle.py``).  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import fit_ladder
import grid_scan
import harness
import scenario_file
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = ROOT / ".perfbench"


def _load_package() -> None:
    """Import ``branchgames`` from this checkout's ``src`` or exit 2."""
    if not (SRC / "branchgames" / "__init__.py").is_file():
        sys.exit(f"error: no branchgames package under {SRC}")
    sys.path.insert(0, str(SRC))
    import branchgames

    if Path(branchgames.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: imported branchgames from {branchgames.__file__}, not {SRC}")


WORKLOADS = {m.NAME: m for m in (grid_scan, fit_ladder, scenario_file)}
OPS_UNIT = {"grid_scan": "scenarios", "fit_ladder": "fits", "scenario_file": "checks"}


def _result(tally, metrics: dict, units: dict) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def run_once(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    BENCH_DIR.mkdir(exist_ok=True)
    info = harness.provenance(ROOT)
    print(f"# {name} seed={seed} " + " ".join(f"{k}={v}" for k, v in info.items()))
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
        workdir = Path(tmp)
        if not trace:
            setup_raw, setup_scaled = harness.setup_seconds(SRC)
            probe = harness.SpeedProbe()
            rounds = harness.rounds_for(seconds, workload.NOMINAL_ROUND_S)
            tally = harness.run_rounds(workload, seed, rounds, workdir, probe=probe)
            probe.sample(2)
            raw = harness.end_to_end(tally.latencies, tally.ops, setup_raw)
            metrics = harness.end_to_end(probe.scale(tally), tally.ops, setup_scaled)
            units = harness.END_TO_END
            print(
                f"# times at reference speed: raw x {metrics['wall_s'] / raw['wall_s']:.4f} "
                f"overall; reference probe {harness.PROBE_REFERENCE_S * 1000:.1f} ms, "
                f"{len(probe.samples)} probes in this run"
            )
            _print_e2e(name, rounds, tally, metrics, raw)
        else:
            rounds = harness.rounds_for(seconds / 3, workload.NOMINAL_ROUND_S)
            plain = harness.run_rounds(workload, seed, rounds, workdir)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                tally = harness.run_rounds(workload, seed, rounds, workdir, tracer)
            finally:
                tracer.uninstall()
            tally.attempted += plain.attempted
            tally.failed += plain.failed
            tally.errors += plain.errors
            overhead_s = sum(tally.latencies) - sum(plain.latencies)
            metrics = tracer.metrics(overhead_s, len(tally.latencies))
            units = tracing.PER_LAYER
            spans = BENCH_DIR / f"trace-{name}-{seed}.jsonl"
            tracer.write(spans)
            print(f"# {len(tracer.spans)} of {tracer.next_id} spans written to {spans}")
            for key, unit in units.items():
                print(f"{name} {key} {metrics[key]:.6g} {unit}")
    for error in tally.errors[:20]:
        print(f"FAILED {error}", file=sys.stderr)
    return _result(tally, metrics, units)


def _print_e2e(name: str, rounds: int, tally, metrics: dict, raw: dict) -> None:
    _, percentile = harness.tail(tally.latencies)
    notes = {
        "req_p50_ms": f"median of {len(tally.latencies)} requests",
        "req_tail_ms": f"p{percentile:.1f} of {len(tally.latencies)} requests",
        "ops_per_s": f"{tally.ops} {OPS_UNIT[name]} in {rounds} rounds",
    }
    for key, unit in harness.END_TO_END.items():
        note = f"raw {raw[key]:.6g}" + (f", {notes[key]}" if key in notes else "")
        print(f"{name} {key} {metrics[key]:.6g} {unit} ({note})")
    frac = tally.failed / tally.attempted
    print(f"{name} failed_frac {frac:.6g} ratio ({tally.failed} of {tally.attempted})")



def repeat(args) -> None:
    """Run one workload on N seeds and report each metric's spread against its bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values: dict[str, list[float]] = {}
    for seed in range(args.seed, args.seed + args.repeat):
        done = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", args.workload,
                "--seed", str(seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            capture_output=True,
            text=True,
            check=True,
        )
        result = json.loads(done.stdout.splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: {result['failed']} of {result['attempted']} failed")
        for key, metric in result["metrics"].items():
            values.setdefault(key, []).append(metric["value"])
        print(f"# seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
    for key, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(key)
        verdict = "" if bound is None else f" bound {bound} {'ok' if spread <= bound / 3 else 'WIDE'}"
        print(f"{args.workload} {key} median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3f}{verdict}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="steadiness report over N seeds")
    args = parser.parse_args()
    _load_package()
    if args.repeat:
        repeat(args)
        return
    print(json.dumps(run_once(args.workload, args.seed, args.seconds, bool(args.trace))))


if __name__ == "__main__":
    main()
