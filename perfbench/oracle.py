"""Bench-side arithmetic that re-derives every verdict the benchmark checks.

Nothing here imports ``branchgames``: a game is a tuple of ``(reward,
weight)`` Fraction pairs, and every statistic, compound, preference and
count is recomputed from the definitions in the README.  Each ``check_*``
function takes what the program printed or returned and gives back a list
of error strings; an empty list means the output is correct.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

LEFT = "PrefersLeft"
RIGHT = "PrefersRight"
TIE = "Indifferent"

ZERO = Fraction(0)


# -- games as plain tuples --------------------------------------------------


def game_from_json(obj: dict) -> tuple:
    return tuple((Fraction(b["reward"]), Fraction(b["weight"])) for b in obj["branches"])


def game_text(name: str, game: tuple) -> str:
    lines = [f"game {name}"]
    lines += [f"  branch reward={r} weight={w}" for r, w in game]
    return "\n".join(lines)


def is_valid(game: tuple) -> bool:
    return (
        bool(game)
        and all(0 <= w <= 1 for _, w in game)
        and sum((w for _, w in game), ZERO) == 1
    )


def expected(game: tuple) -> Fraction:
    return sum((r * w for r, w in game), ZERO)


def support_max(game: tuple) -> Fraction:
    return max(r for r, w in game if w > 0)


def support_spread(game: tuple) -> Fraction:
    rewards = [r for r, w in game if w > 0]
    return max(rewards) - min(rewards)


def _sign(x: Fraction) -> str:
    return LEFT if x > 0 else RIGHT if x < 0 else TIE


def prefer(kind: str, left: tuple, right: tuple) -> str:
    if kind == "dtbr":
        return _sign(expected(left) - expected(right))
    if kind == "egalitarian":
        by_value = _sign(expected(left) - expected(right))
        if by_value != TIE:
            return by_value
        return _sign(support_spread(right) - support_spread(left))
    if kind == "optimist":
        return _sign(support_max(left) - support_max(right))
    if kind == "stoic":
        return TIE
    raise ValueError(f"unknown kind {kind!r}")


def compound(root: tuple, continuations: list) -> tuple:
    """Rewards add and weights multiply along each root-then-continuation path."""
    return tuple(
        (rr + r, rw * w)
        for (rr, rw), cont in zip(root, continuations)
        for r, w in cont
    )


def weight_vector(game: tuple, alphabet: tuple) -> tuple:
    totals = dict.fromkeys(alphabet, ZERO)
    for r, w in game:
        totals[r] += w
    return tuple(totals[r] for r in alphabet)


def distance(first: tuple, second: tuple, alphabet: tuple) -> Fraction:
    v = weight_vector(first, alphabet)
    w = weight_vector(second, alphabet)
    return max(abs(a - b) for a, b in zip(v, w))


def diachronic(kind: str, root: tuple, options: list) -> dict:
    """Replay the diachronic clauses; the dict mirrors the machine witness."""
    descendants = [prefer(kind, first, second) for first, second in options]
    left = compound(root, [first for first, _ in options])
    right = compound(root, [second for _, second in options])
    strict = [i for i, p in enumerate(descendants) if p == LEFT]
    none_second = all(p != RIGHT for p in descendants)
    forward = prefer(kind, left, right)
    clause_i = none_second and prefer(kind, right, left) == LEFT
    clause_ii = none_second and bool(strict) and forward != LEFT
    return {
        "violated": clause_i or clause_ii,
        "clause": "i" if clause_i else "ii",
        "descendant_preferences": descendants,
        "strict_branches": strict,
        "left_compound": left,
        "right_compound": right,
        "compound_preference": forward,
    }


def _witness_errors(expect: dict, witness: dict) -> list[str]:
    errors = []
    for key in ("clause", "descendant_preferences", "strict_branches", "compound_preference"):
        if witness.get(key) != expect[key]:
            errors.append(f"witness {key} {witness.get(key)!r} != {expect[key]!r}")
    for key in ("left_compound", "right_compound"):
        if game_from_json(witness[key]) != expect[key]:
            errors.append(f"witness {key} differs from the replayed compound")
    return errors


# -- grid arithmetic --------------------------------------------------------


def weight_tuple_count(weights: tuple, length: int) -> int:
    """Tuples over the menu of the given length summing to 1, by partial-sum DP."""
    sums = {ZERO: 1}
    for _ in range(length):
        nxt: dict = {}
        for total, ways in sums.items():
            for w in weights:
                if total + w <= 1:
                    nxt[total + w] = nxt.get(total + w, 0) + ways
        sums = nxt
    return sums.get(Fraction(1), 0)


def grid_count(rewards: tuple, weights: tuple, roots: int, options: int) -> int:
    pool = sum(
        weight_tuple_count(weights, size) * len(rewards) ** size
        for size in range(1, options + 1)
    )
    return sum(
        weight_tuple_count(weights, size) * pool ** (2 * size)
        for size in range(1, roots + 1)
    )


def _weight_tuples(weights: tuple, length: int) -> list:
    return [c for c in itertools.product(weights, repeat=length) if sum(c) == 1]


def scenario_at(rewards: tuple, weights: tuple, roots: int, options: int, index: int):
    """Decode a stream index into (root, option pairs) by the documented order."""
    pool = [
        tuple(zip(rs, ws))
        for size in range(1, options + 1)
        for ws in _weight_tuples(weights, size)
        for rs in itertools.product(rewards, repeat=size)
    ]
    for size in range(1, roots + 1):
        for ws in _weight_tuples(weights, size):
            block = len(pool) ** (2 * size)
            if index >= block:
                index -= block
                continue
            digits = []
            for _ in range(2 * size):
                index, digit = divmod(index, len(pool))
                digits.append(digit)
            slots = [pool[d] for d in reversed(digits)]
            root = tuple((ZERO, w) for w in ws)
            return root, [(slots[2 * i], slots[2 * i + 1]) for i in range(size)]
    raise IndexError("index beyond the grid")


# -- output checks -----------------------------------------------------------


def cap_message(count: int, cap: int) -> str:
    return f"grid projects {count} scenarios, over the cap of {cap}"


def check_search(request: dict, code: int, out: str, err: str) -> tuple[int, list[str]]:
    """Check one ``search diachronic`` result; returns (scenarios checked, errors)."""
    spec = (request["rewards"], request["weights"], request["roots"], request["options"])
    count = grid_count(*spec)
    if request["expect"] == "overcap":
        errors = []
        if code != 2:
            errors.append(f"over-cap request exited {code}, expected 2")
        if out:
            errors.append("over-cap request printed a result")
        if cap_message(count, request["cap"]) not in err:
            errors.append(f"over-cap message missing: {err.strip()!r}")
        return 0, errors
    if code != 0:
        return 0, [f"exit code {code}: {err.strip()!r}"]
    lines = out.splitlines()
    if len(lines) != 1:
        return 0, [f"expected one record, got {len(lines)}"]
    record = json.loads(lines[0])
    errors = []
    if record["values"].get("scenario_count") != count:
        errors.append(f"scenario_count {record['values'].get('scenario_count')} != {count}")
    verdict = record["verdict"]
    if verdict != request["expect"]:
        errors.append(f"verdict {verdict!r}, expected {request['expect']!r}")
    if verdict == "none":
        return count, errors
    witness = record["witness"]
    index = witness["index"]
    if not 0 <= index < count:
        return 0, errors + [f"hit index {index} outside the grid of {count}"]
    root, options = scenario_at(*spec, index)
    scenario = witness["scenario"]
    if game_from_json(scenario["root"]) != root or [
        (game_from_json(a), game_from_json(b)) for a, b in scenario["options"]
    ] != options:
        errors.append(f"hit scenario is not scenario {index} of the documented order")
    replay = diachronic(request["kind"], root, options)
    if not replay["violated"]:
        errors.append(f"scenario {index} does not violate diachronic consistency")
    else:
        errors += _witness_errors(replay, witness["report"])
    return index + 1, errors


def matrix(kind: str, games: list) -> list:
    return [[prefer(kind, g, h) for h in games] for g in games]


def check_fit(
    kind: str,
    games: list,
    alphabet: tuple,
    verdict: str,
    u: dict | None,
    certificate: list | None,
    normalized: dict | None = None,
    degenerate: bool = False,
    anchors: tuple | None = None,
) -> list[str]:
    """Check a fit against the bench-side comparison matrix.

    ``certificate`` holds ``(i, j, preference)`` triples by game index.  When
    ``anchors`` is given and the fit is feasible, ``normalized`` (or
    ``degenerate``) is checked as the positive affine rescaling of ``u``.
    """
    m = matrix(kind, games)
    errors = []
    if verdict == "feasible":
        if u is None or set(u) != set(alphabet):
            return [f"fitted u {u!r} does not cover the alphabet"]
        utility = [sum((w * u[r] for r, w in g), ZERO) for g in games]
        for i in range(len(games)):
            for j in range(i + 1, len(games)):
                if _sign(utility[i] - utility[j]) != m[i][j]:
                    errors.append(f"u misorders games {i} and {j}")
        if anchors is not None:
            lo, hi = u[anchors[0]], u[anchors[1]]
            if lo < hi:
                want = {r: (v - lo) / (hi - lo) for r, v in u.items()}
                if degenerate or normalized != want:
                    errors.append(f"normalized u {normalized!r} != {want!r}")
            elif not degenerate:
                errors.append("normalization of a non-increasing fit did not fail")
    elif verdict == "infeasible":
        if kind in ("dtbr", "stoic"):
            errors.append(f"{kind} fit reported infeasible")
        if not certificate:
            errors.append("infeasible fit without a certificate")
        seen = set()
        for i, j, pref in certificate or ():
            if not 0 <= i < j < len(games) or (i, j) in seen:
                errors.append(f"certificate names no distinct comparison ({i}, {j})")
            elif m[i][j] != pref:
                errors.append(f"certificate ({i}, {j}) says {pref}, matrix says {m[i][j]}")
            seen.add((i, j))
    else:
        errors.append(f"unknown fit verdict {verdict!r}")
    return errors


def check_compare(kind: str, left: tuple, right: tuple, record: dict) -> list[str]:
    errors = []
    if record["verdict"] != prefer(kind, left, right):
        errors.append(f"compare verdict {record['verdict']} != {prefer(kind, left, right)}")
    want = {
        "left_expected_value": expected(left),
        "right_expected_value": expected(right),
        "left_largest_reward": support_max(left),
        "right_largest_reward": support_max(right),
        "left_reward_range": support_spread(left),
        "right_reward_range": support_spread(right),
    }
    for key, value in want.items():
        if Fraction(record["values"][key]) != value:
            errors.append(f"compare {key} {record['values'][key]} != {value}")
    return errors


def check_diachronic(kind: str, root: tuple, options: list, record: dict) -> list[str]:
    replay = diachronic(kind, root, options)
    verdict = "violated" if replay["violated"] else "satisfied"
    if record["verdict"] != verdict:
        return [f"diachronic verdict {record['verdict']} != {verdict}"]
    if replay["violated"]:
        return _witness_errors(replay, record["witness"])
    return []


def check_dutchbook(kind: str, games: list, record: dict) -> list[str]:
    weights = [w for _, w in games[0]]
    combined = tuple(
        (sum((g[i][0] for g in games), ZERO), w) for i, w in enumerate(weights)
    )
    null = tuple((ZERO, w) for w in weights)
    individual = [prefer(kind, g, null) for g in games]
    combined_pref = prefer(kind, combined, null)
    sure_loss = all(r < 0 for r, w in combined if w > 0)
    accepts_package = combined_pref != RIGHT
    exposure = all(p == LEFT for p in individual) and accepts_package and sure_loss
    weak = all(p != RIGHT for p in individual) and accepts_package and sure_loss
    errors = []
    if record["verdict"] != ("exposed" if exposure else "not_exposed"):
        errors.append(f"dutchbook verdict {record['verdict']} (exposure={exposure})")
    if game_from_json(record["witness"]["combined"]) != combined:
        errors.append("dutchbook combined game differs")
    values = record["values"]
    want = {
        "individual_preferences": individual,
        "combined_preference": combined_pref,
        "sure_loss": sure_loss,
        "exposure": exposure,
        "weak_exposure": weak,
    }
    for key, value in want.items():
        if values.get(key) != value:
            errors.append(f"dutchbook {key} {values.get(key)!r} != {value!r}")
    return errors


def check_continuity(
    kind: str, left: tuple, right: tuple, alphabet: tuple, deltas: list, record: dict
) -> list[str]:
    """Every falsifier must be a valid game within its radius that breaks the strict order."""
    errors = []
    levels = record["witness"]["levels"]
    if [Fraction(level["delta"]) for level in levels] != list(deltas):
        return ["continuity levels do not match the radii"]
    for level in levels:
        if level["left"] is None:
            continue
        delta = Fraction(level["delta"])
        lp = game_from_json(level["left"])
        rp = game_from_json(level["right"])
        if not (is_valid(lp) and is_valid(rp)):
            errors.append(f"falsifier at {delta} is not a valid game pair")
            continue
        if not all(r in alphabet for r, _ in lp + rp):
            errors.append(f"falsifier at {delta} leaves the alphabet")
            continue
        if distance(left, lp, alphabet) > delta or distance(right, rp, alphabet) > delta:
            errors.append(f"falsifier at {delta} lies outside its radius")
        pref = prefer(kind, lp, rp)
        if pref == LEFT or level["preference"] != pref:
            errors.append(f"falsifier at {delta} does not break the strict order")
    falsified = all(level["left"] is not None for level in levels)
    verdict = "violated" if falsified else "no_violation_found"
    if record["verdict"] != verdict:
        errors.append(f"continuity verdict {record['verdict']} != {verdict}")
    return errors
