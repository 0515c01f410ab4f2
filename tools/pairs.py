"""Alternating parent/change pairs of benchmark workloads, per metric.

Run from the repository root:

    python3 tools/pairs.py --parent HEAD~1 --change HEAD \\
        --workload scenario_file --seeds 1-10 --out BENCH_<n>.json

``--workload`` takes one workload or several, comma-separated.  Both
revisions are checked out as detached ``git worktree``s under the
gitignored ``.perfbench/``.  For each workload and seed,
``perfbench/run.py --trace 0`` runs once in each checkout, in its own
process: the parent first on the first seed, the change first on the
next, and so on.  The worktrees are removed when the runs end, whether or
not they succeed.

The output file holds, per workload, every run's end-to-end metrics and,
per metric of ``BENCHMARK.json``'s ``end_to_end`` list:
- q1, median and q3 of each side (``statistics.quantiles(n=4)``, as
  ``perfbench/run.py --repeat`` computes them);
- the change's wins out of n pairs, a win being a pair whose change value
  is strictly better in the metric's ``better`` direction;
- whether the change's median lies beyond the parent's interquartile
  range on the better side;
- whether that makes a gain under the perf gate: at least 10 pairs, the
  change winning at least 9 in 10 of them, and its median beyond the
  parent's IQR;
- whether the change's median is worse than the parent's by more than
  the metric's ``bound``, as a share of the parent's median.

Exits 1 if any run reports a failed operation, after writing the file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
MIN_PAIRS = 10
WIN_SHARE = 0.9
SIDES = ("parent", "change")


def seed_range(text: str) -> range:
    """The seeds ``A-B``, both ends included; at least two."""
    first, dash, last = text.partition("-")
    if not dash or not first.isdigit() or not last.isdigit() or int(last) <= int(first):
        raise argparse.ArgumentTypeError(f"expected seeds A-B with A < B, got {text!r}")
    return range(int(first), int(last) + 1)


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def summarize(
    parent: list[float], change: list[float], better: str, bound: float
) -> dict:
    """One metric over n pairs: quartiles per side, wins and the verdicts."""
    sign = 1 if better == "higher" else -1
    n = len(parent)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    before, after = quartiles(parent), quartiles(change)
    if better == "higher":
        beyond = after["median"] > before["q3"]
    else:
        beyond = after["median"] < before["q1"]
    shift = (after["median"] - before["median"]) / before["median"]
    return {
        "better": better,
        "parent": before,
        "change": after,
        "median_shift": shift,
        "wins": wins,
        "n": n,
        "beyond_parent_iqr": beyond,
        "gain": n >= MIN_PAIRS and wins >= WIN_SHARE * n and beyond,
        "bound": bound,
        "worse_beyond_bound": -sign * shift > bound,
    }


def _git(*args: str, check: bool = True) -> str:
    done = subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=check
    )
    return done.stdout.strip()


def _bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run in ``tree``: its last output line, parsed."""
    done = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    if done.returncode:
        sys.exit(f"{workload} seed {seed} in {tree.name}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def run_pairs(args: argparse.Namespace) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    commits = {
        side: _git("rev-parse", "--verify", f"{getattr(args, side)}^{{commit}}")
        for side in SIDES
    }
    WORK.mkdir(exist_ok=True)
    trees = {side: WORK / f"pairs-{os.getpid()}-{side}" for side in SIDES}
    runs: dict[str, list] = {workload: [] for workload in args.workload}
    try:
        for side in SIDES:
            _git("worktree", "add", "--detach", str(trees[side]), commits[side])
        for workload in args.workload:
            for index, seed in enumerate(args.seeds):
                order = SIDES if index % 2 == 0 else SIDES[::-1]
                results = {}
                for side in order:
                    results[side] = _bench(trees[side], workload, seed, args.seconds)
                    line = json.dumps(results[side])
                    print(f"# {workload} seed {seed} {side}: {line}", flush=True)
                runs[workload].append({"seed": seed, "first": order[0], **results})
    finally:
        for tree in trees.values():
            _git("worktree", "remove", "--force", str(tree), check=False)
        _git("worktree", "prune", check=False)
    workloads = {}
    for workload, pairs in runs.items():
        summaries = {
            m["name"]: summarize(
                [run["parent"]["metrics"][m["name"]]["value"] for run in pairs],
                [run["change"]["metrics"][m["name"]]["value"] for run in pairs],
                m["better"],
                m["bound"],
            )
            for m in metrics
        }
        workloads[workload] = {"metrics": summaries, "runs": pairs}
    return {
        "seconds": args.seconds,
        "seeds": [args.seeds.start, args.seeds.stop - 1],
        "revisions": {
            side: {"rev": getattr(args, side), "commit": commits[side]} for side in SIDES
        },
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "gate": f"gain: at least {MIN_PAIRS} pairs, the change better in at least "
        f"{WIN_SHARE:.0%} of them, and its median beyond the parent's IQR",
        "workloads": workloads,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the baseline revision")
    parser.add_argument("--change", required=True, help="the revision under test")
    parser.add_argument("--workload", required=True, type=lambda t: t.split(","))
    parser.add_argument("--seeds", required=True, type=seed_range, help="A-B")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    report = run_pairs(args)
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    failed = []
    for workload, result in report["workloads"].items():
        for name, metric in result["metrics"].items():
            before, after = metric["parent"], metric["change"]
            print(
                f"{workload} {name}: parent median {before['median']:.6g} "
                f"(IQR {before['q1']:.6g}-{before['q3']:.6g}), "
                f"change median {after['median']:.6g}, "
                f"wins {metric['wins']}/{metric['n']}, gain {metric['gain']}, "
                f"worse beyond bound {metric['worse_beyond_bound']}"
            )
        failed += [
            f"{workload} seed {run['seed']} {side}"
            for run in result["runs"]
            for side in SIDES
            if not run[side]["correct"]
        ]
    if failed:
        print("runs with failed operations: " + ", ".join(failed), file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
