"""Per-module spans around the package's public functions, from outside the package.

``Tracer.install()`` replaces the public names each module calls with
wrappers (for example ``compare`` as bound in ``branchgames.axioms`` and in
``branchgames.representation``) and ``uninstall()`` puts them back.  Each
span records its name, start, end, parent span and request id.  Spans are
kept in memory, up to ``span_limit`` of them, and written out at the end;
per-name call counts, total and self time cover every span.  Self time is
a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from pathlib import Path

perf_counter = time.perf_counter

# (module, attribute, span name) for every binding the workloads reach.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "parse", "cli.parse"),
    ("cli", "run_file", "cli.run_file"),
    ("cli", "emit", "cli.emit"),
    ("cli", "compare", "agents.compare"),
    ("cli", "check_diachronic", "axioms.check_diachronic"),
    ("cli", "check_continuity", "axioms.check_continuity"),
    ("cli", "analyze_dutch_book", "axioms.analyze_dutch_book"),
    ("cli", "build_instance", "representation.build_instance"),
    ("cli", "fit_utility", "representation.fit_utility"),
    ("cli", "normalize_fit", "representation.normalize_fit"),
    ("cli", "find_violation", "search.find_violation"),
    ("cli", "scenario_count", "search.scenario_count"),
    ("cli", "validate_game", "core.validate_game"),
    ("search", "scenario_count", "search.scenario_count"),
    ("search", "enumerate_scenarios", "search.enumerate"),
    ("search", "check_diachronic", "axioms.check_diachronic"),
    ("axioms", "compare", "agents.compare"),
    ("axioms", "validate_game", "core.validate_game"),
    ("axioms", "flatten", "core.flatten"),
    ("axioms", "game_distance", "core.game_distance"),
    ("axioms", "weight_vector", "core.weight_vector"),
    ("representation", "compare", "agents.compare"),
    ("representation", "validate_game", "core.validate_game"),
    ("representation", "weight_vector", "core.weight_vector"),
    ("representation", "build_instance", "representation.build_instance"),
    ("representation", "fit_utility", "representation.fit_utility"),
    ("representation", "normalize_fit", "representation.normalize_fit"),
    ("core", "validate_game", "core.validate_game"),
    ("core", "weight_vector", "core.weight_vector"),
)

# Spans whose callees are counted separately for the derived ratios.
CONTEXTS = ("search.find_violation", "axioms.check_continuity")

KINDS = ("dtbr", "egalitarian", "optimist", "stoic")
TIMED = (
    "search.enumerate",
    "search.find_violation",
    "search.scenario_count",
    "axioms.check_diachronic",
    "axioms.check_continuity",
    "axioms.analyze_dutch_book",
    "core.validate_game",
    "core.flatten",
    "core.game_distance",
    "core.weight_vector",
    "agents.compare",
    "representation.build_instance",
    "representation.fit_utility.feasible",
    "representation.fit_utility.infeasible",
    "representation.normalize_fit",
    "cli.main",
    "cli.parse",
    "cli.run_file",
    "cli.emit",
)

# The per-layer metrics, in print order: name -> unit.
PER_LAYER = {"trace.overhead_s": "s", "trace.requests": "count", "search.scenarios": "count"}
for _name in TIMED:
    PER_LAYER[f"{_name}.calls"] = "count"
    PER_LAYER[f"{_name}.self_s"] = "s"
PER_LAYER.update(
    {
        "search.scenarios_per_s": "1/s",
        "core.validate_game.per_scenario": "ratio",
        "core.game_distance.per_compare": "ratio",
        "agents.compare.repeat_frac": "ratio",
        "representation.constraints": "count",
        "representation.certificate_size": "count",
        "cli.emit.bytes": "bytes",
    }
)
for _kind in KINDS:
    PER_LAYER[f"agents.compare.calls.{_kind}"] = "count"


class Tracer:
    def __init__(self, span_limit: int = 200_000) -> None:
        self.span_limit = span_limit
        self.request: str | None = None
        self.stack: list[list] = []  # [name, start, child time, span id]
        self.stats: dict[str, list] = {}  # name -> [calls, total, self]
        self.spans: list[tuple] = []
        self.next_id = 0
        self.counters: Counter = Counter()
        self.inside: Counter = Counter()
        self.operands: set[int] = set()
        self._saved: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> list:
        frame = [name, 0.0, 0.0, self.next_id]
        self.next_id += 1
        self.stack.append(frame)
        if name in CONTEXTS:
            self.inside[name] += 1
        frame[1] = perf_counter()
        return frame

    def close(self, frame: list, name: str) -> None:
        end = perf_counter()
        self.stack.pop()
        duration = end - frame[1]
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - frame[2]
        if frame[0] in CONTEXTS:
            self.inside[frame[0]] -= 1
        if len(self.spans) < self.span_limit:
            self.spans.append(
                (frame[3], parent[3] if parent else None, self.request, name, frame[1], end)
            )

    def wrap(self, fn, name: str):
        observe = _OBSERVERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(frame, name)
                raise
            if name == "representation.fit_utility":
                tracer.close(frame, f"{name}.{result.verdict}")
            else:
                tracer.close(frame, name)
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    def wrap_iter(self, fn, name: str):
        """Time each step of a generator as its own span."""
        tracer = self

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                frame = tracer.open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    tracer.close(frame, name)
                    return
                except BaseException:
                    tracer.close(frame, name)
                    raise
                tracer.close(frame, name)
                tracer.counters["search.scenarios"] += 1
                if tracer.inside["search.find_violation"]:
                    tracer.counters["scan.scenarios"] += 1
                yield item

        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        for module_name, attribute, name in TARGETS:
            module = importlib.import_module(f"branchgames.{module_name}")
            original = getattr(module, attribute)
            self._saved.append((module, attribute, original))
            wrap = self.wrap_iter if name == "search.enumerate" else self.wrap
            setattr(module, attribute, wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attribute, original = self._saved.pop()
            setattr(module, attribute, original)

    # -- results -----------------------------------------------------------------

    def metrics(self, overhead_s: float, requests: int) -> dict[str, float]:
        out: dict[str, float] = {"trace.overhead_s": overhead_s, "trace.requests": requests}
        for name in TIMED:
            calls, _, self_s = self.stats.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        c = self.counters
        scan_s = self.stats.get("search.find_violation", (0, 0.0, 0.0))[1]
        out["search.scenarios"] = c["search.scenarios"]
        out["search.scenarios_per_s"] = _ratio(c["scan.scenarios"], scan_s)
        out["core.validate_game.per_scenario"] = _ratio(c["scan.validate"], c["scan.scenarios"])
        out["core.game_distance.per_compare"] = _ratio(
            c["continuity.distance"], c["continuity.compare"]
        )
        out["agents.compare.repeat_frac"] = _ratio(c["compare.repeats"], c["compare.operands"])
        out["representation.constraints"] = c["representation.constraints"]
        out["representation.certificate_size"] = c["representation.certificate_size"]
        out["cli.emit.bytes"] = c["cli.emit.bytes"]
        for kind in KINDS:
            out[f"agents.compare.calls.{kind}"] = c[f"compare.{kind}"]
        return out

    def write(self, path: Path) -> None:
        """Write the kept spans as JSON lines."""
        with path.open("w", encoding="utf-8") as handle:
            for span_id, parent, request, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "request": request,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )


def _ratio(top: float, bottom: float) -> float:
    return top / bottom if bottom else 0.0


def _observe_compare(tracer: Tracer, args, result) -> None:
    agent, left, right = args[:3]
    c = tracer.counters
    c[f"compare.{agent.kind}"] += 1
    c["compare.operands"] += 2
    for game in (left, right):
        key = hash(game.branches)
        if key in tracer.operands:
            c["compare.repeats"] += 1
        else:
            tracer.operands.add(key)
    if tracer.inside["axioms.check_continuity"]:
        c["continuity.compare"] += 1


def _observe_validate(tracer: Tracer, args, result) -> None:
    if tracer.inside["search.find_violation"]:
        tracer.counters["scan.validate"] += 1


def _observe_distance(tracer: Tracer, args, result) -> None:
    if tracer.inside["axioms.check_continuity"]:
        tracer.counters["continuity.distance"] += 1


def _observe_build(tracer: Tracer, args, result) -> None:
    n = len(result.games)
    tracer.counters["representation.constraints"] += n * (n - 1) // 2


def _observe_fit(tracer: Tracer, args, result) -> None:
    if result.certificate is not None:
        tracer.counters["representation.certificate_size"] += len(result.certificate)


def _observe_emit(tracer: Tracer, args, result) -> None:
    tracer.counters["cli.emit.bytes"] += len(result.encode("utf-8"))


_OBSERVERS = {
    "agents.compare": _observe_compare,
    "core.validate_game": _observe_validate,
    "core.game_distance": _observe_distance,
    "representation.build_instance": _observe_build,
    "representation.fit_utility": _observe_fit,
    "cli.emit": _observe_emit,
}
