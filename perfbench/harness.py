"""Closed-loop round runner, latency statistics, set-up timing and provenance.

A workload module supplies ``NOMINAL_ROUND_S`` and ``rounds(seed, workdir,
tiny)``, an endless generator of rounds; each round is a list of requests
built from the seed alone, so the same seed replays the same rounds.
One client runs the requests in order, each after the previous one has
finished.  Only the entry-point call is timed; building inputs and checking
outputs happen outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

CAP_ENV_VAR = "BRANCHGAMES_SCENARIO_CAP"
DEFAULT_CAP = 2_000_000
SETUP_REPEATS = 11
TAIL_BEYOND = 10
# Median of ``SpeedProbe.probe()`` on the reference host (2 cores, x86-64 Linux,
# Python 3.11.7), and the least time between two probes in a run.
PROBE_REFERENCE_S = 0.009
PROBE_INTERVAL_S = 0.25

# The end-to-end metrics, in print order: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "req_p50_ms": "ms",
    "req_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Request:
    """One entry-point call and the oracle that judges its output.

    ``verify(output)`` returns ``(ops, failed, errors)``: the operations the
    call completed, how many of its ``attempts`` were wrong, and why.
    """

    label: str
    call: Callable[[], object]
    verify: Callable[[object], tuple[int, int, list[str]]]
    attempts: int = 1


@dataclass
class Tally:
    latencies: list[float] = field(default_factory=list)
    # Per request, the index of the last speed probe taken before it.
    marks: list[int] = field(default_factory=list)
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


def rounds_for(seconds: float, nominal_round_s: float) -> int:
    """Rounds that fill ``seconds`` at the nominal round time, at least one.

    The count depends on the arguments only, so every commit runs the same
    work and a faster program shows as a shorter ``wall_s``.
    """
    return max(1, round(seconds / nominal_round_s))


class SpeedProbe:
    """How fast this host runs Python during a run, sampled between requests.

    Other tenants of a shared host slow every process on it, by up to half,
    in spells of seconds to minutes, which no amount of work in one run
    averages out.  ``factor(first, last)`` is the reference probe time over
    the median of probes ``first`` to ``last``.  A time multiplied by the
    factor of the probes taken just before and after it is a time at
    reference speed, so the drift cancels.  A probe mixes exact arithmetic
    with a walk over a prebuilt table and JSON encoding, like the program's
    own work, but never calls the program, so a faster program leaves it
    unchanged.  Building the table once keeps probes from raising
    ``peak_rss_mb`` above a constant offset.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = float("-inf")
        self.table = {str(i * 7919 % 100003): i for i in range(20000)}
        self.keys = sorted(self.table, key=hash)

    def probe(self) -> float:
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 1000):
            f = Fraction(i % 7 + 1, i % 5 + 2)
            total += f * f
        count = 0
        for key in self.keys:
            count += self.table[key]
        json.dumps(self.keys)
        return time.perf_counter() - start

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.samples.append(self.probe())
        self.last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= PROBE_INTERVAL_S:
            self.sample()

    def factor(self, first: int, last: int) -> float:
        near = self.samples[max(0, first) : last + 1]
        return PROBE_REFERENCE_S / statistics.median(near)

    def scale(self, tally: Tally) -> list[float]:
        """Each request's latency at reference speed, from the probes around it."""
        return [
            t * self.factor(mark - 1, mark + 1)
            for t, mark in zip(tally.latencies, tally.marks)
        ]


def run_rounds(
    workload, seed: int, rounds: int, workdir: Path, tracer=None, tiny=False, probe=None
) -> Tally:
    tally = Tally()
    plan = itertools.islice(workload.rounds(seed, workdir, tiny), rounds)
    for index, requests in enumerate(plan):
        for number, request in enumerate(requests):
            if probe is not None:
                probe.maybe_sample()
                tally.marks.append(len(probe.samples) - 1)
            if tracer is not None:
                tracer.request = f"{index}.{number}"
            output = error = None
            start = time.perf_counter()
            try:
                output = request.call()
            except Exception:
                error = traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - start
            tally.latencies.append(elapsed)
            tally.attempted += request.attempts
            if error is None:
                try:
                    ops, failed, errors = request.verify(output)
                except Exception:
                    ops, failed, errors = 0, request.attempts, [traceback.format_exc(limit=3)]
            else:
                ops, failed, errors = 0, request.attempts, [f"unexpected exception: {error}"]
            tally.ops += ops
            tally.failed += failed
            tally.errors += [f"{request.label}: {e}" for e in errors]
    if tracer is not None:
        tracer.request = None
    return tally


def invoke_cli(argv: list[str], cap: int = DEFAULT_CAP) -> tuple[int, str, str]:
    """Run ``branchgames.cli.main`` in-process with stdout and stderr captured."""
    from branchgames import cli

    os.environ[CAP_ENV_VAR] = str(cap)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten requests beyond it.

    Returns ``(value, percentile)``; with fewer than eleven requests it is
    the maximum, reported as percentile 100.
    """
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_BEYOND - 1
    if rank < 0:
        return ordered[-1], 100.0
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def end_to_end(latencies: list[float], ops: int, setup_s: float) -> dict[str, float]:
    wall = sum(latencies)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "ops_per_s": ops / wall,
        "req_p50_ms": 1000 * statistics.median(latencies),
        "req_tail_ms": 1000 * tail(latencies)[0],
        "peak_rss_mb": peak_rss_mb(),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import branchgames, branchgames.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import harness\n"
    "probe = harness.SpeedProbe()\n"
    "probe.sample(3)\n"
    "print(elapsed, elapsed * probe.factor(0, 2))\n"
)


def setup_seconds(src: Path, repeats: int = SETUP_REPEATS) -> tuple[float, float]:
    """Median import time of ``branchgames`` and ``branchgames.cli`` in fresh interpreters.

    Returns the raw median and the median at reference speed; each child
    probes its own speed right after importing, since it may run on
    another core than this process.  One untimed import first writes the
    bytecode cache, as an installed package would already have it.
    """
    samples = []
    for attempt in range(repeats + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", _IMPORT_PROBE, str(src), str(Path(__file__).parent)],
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        if attempt:
            samples.append(tuple(float(x) for x in done.stdout.split()))
    raw, scaled = zip(*samples)
    return statistics.median(raw), statistics.median(scaled)


def git_revision(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: Path) -> dict[str, str]:
    return {
        "python": platform.python_version(),
        "nproc": str(len(os.sched_getaffinity(0))),
        "revision": git_revision(root),
    }


# -- seeded inputs ------------------------------------------------------------


def rng_for(seed: int, workload: str, index: int) -> random.Random:
    # String seeds hash stably across processes.
    return random.Random(f"{workload}:{seed}:{index}")


def random_game(
    rng: random.Random, rewards: list, branches=(1, 2), denominators=(2, 3, 4)
) -> tuple:
    """A valid game as ``(reward, weight)`` pairs over distinct menu rewards.

    ``branches`` bounds the branch count; every weight is positive.
    """
    size = rng.randint(branches[0], min(branches[1], len(rewards)))
    denominator = rng.choice([d for d in denominators if d >= size])
    cuts = sorted(rng.sample(range(1, denominator), size - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [denominator])]
    chosen = rng.sample(rewards, size)
    return tuple(
        (Fraction(r), Fraction(p, denominator)) for r, p in zip(chosen, parts)
    )


def to_game(name: str, game: tuple):
    """The package's ``Game`` for a bench-side tuple (built without validation)."""
    from branchgames import core

    return core.Game(name, tuple(core.Branch(r, w) for r, w in game))
