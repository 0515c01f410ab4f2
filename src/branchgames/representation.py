"""Expected-utility representability of finite preference instances.

Given an agent's full comparison matrix over a finite set of games, decide
whether some utility function u on the reward alphabet reproduces every
comparison through expected utility: the agent prefers g to h exactly when
E_u(g) > E_u(h), where E_u weights u(reward) by branch weight.

Strict comparisons become gap constraints E_u(winner) - E_u(loser) >= 1
rather than open inequalities: feasible utilities are closed under positive
scaling, so the unit gap loses nothing and keeps the system solvable by
exact variable elimination.  Indifference becomes equality.  Rows are
integers from the start: ``core.weight_vectors`` gives D, the least
common multiple of the instance's branch-weight denominators, and each
game's vector, in which a branch of weight w adds w*D at its reward's
alphabet index.  An indifference then reads +-diff.u <= 0 and a strict
comparison's unit gap reads -diff.u <= -D.  Any other common denominator,
such as the least one of the merged per-reward weight totals, scales every
vector and the gap by one positive factor, and each row is divided by the
gcd of its entries before it is used, so the rows, and with them ``u``, the
certificate and the uniqueness flag, do not depend on which one is taken.
The comparison matrix is ranked on integer statistics
(``agents.scaled_statistics``) with one sort of the games by the agent's
rule, which splits them into tie levels; each level's row is then one
tuple of verdicts at the other games' levels.  A matrix handed to the fit
is checked a row at a time against the same table, built from the levels
its strict win counts imply.  Reward positions come from the alphabet's
table keyed by integer (numerator, denominator) pairs.  On infeasible
instances the solver returns an irreducible certificate: a subset of the
recorded comparisons that is itself unsatisfiable and stays unsatisfiable
under no further deletion.

Three reductions keep the elimination small without changing any output:

- Chain reduction.  The matrix is a total preorder, so sorting the games
  by strict wins orders them, and the at most n - 1 comparisons between
  games adjacent in that order describe the same polytope as all
  n(n-1)/2 of them.  Only those rows are eliminated, read straight off
  the matrix.
- Equality substitution.  A variable that an equality (a row and its
  negation) mentions is substituted out through it instead of pairing
  upper with lower rows, which is still an exact projection.
- History sets (Imbert 1993).  Each row carries the comparisons it was
  derived from, so a contradiction names an infeasible subset, the core.
  The backward deletion filter (Chinneck & Dravnieks 1991) still scans
  every comparison, but deleting one outside the core cannot restore
  feasibility, so only core members cost a solve, and a comparison's
  rows are built only when a solve first includes it.

Back substitution takes the lexicographic midpoint of the feasible set,
which depends on that set alone, so the witness utility is the same
rationals that elimination over every pairwise row would give.  It runs
in integers too, over one common denominator of the values assigned so
far, and builds a ``Fraction`` per variable only at the end.

Uniqueness is meant up to positive affine rescaling.  The fit is flagged
unique exactly when the indifference equations pin the solution space down
to that rescaling freedom: rank |alphabet| - 2 with strict comparisons
present (free scale and shift around a non-constant solution), or rank
|alphabet| - 1 without (constants only).  That rank is the number of
variables the elimination substitutes through an equality: an equality
it meets sums with its negation to bound 0, and strict rows have
negative bounds, so it is built from indifference rows alone.  Each
substitution takes one dimension off their span, pairing rows takes
none, and every variable is eliminated, so the count is exactly that rank.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Mapping, Optional, Sequence

from .agents import RULES, Agent, Preference, scaled_statistics
from .core import Game, GameError, RewardAlphabet, validate_game, weight_vectors

# Unused here; perfbench/tracing.py wraps these bindings by name.
from .agents import compare  # noqa: F401
from .core import weight_vector  # noqa: F401

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"

_ZERO = Fraction(0)


class InconsistentPreorderError(GameError):
    """The comparison matrix is not a total preorder."""


class DegenerateNormalizationError(GameError):
    """The fitted utility cannot be rescaled to 0/1 at the requested anchors."""


@dataclass(frozen=True)
class ComparisonConstraint:
    """One recorded comparison, by game index into the instance."""

    left: int
    right: int
    preference: Preference


@dataclass(frozen=True)
class PreferenceInstance:
    """An alphabet, games over it, and the full pairwise comparison matrix."""

    alphabet: RewardAlphabet
    games: tuple[Game, ...]
    comparisons: tuple[tuple[Preference, ...], ...]

    def constraint_list(self) -> tuple[ComparisonConstraint, ...]:
        """All unordered-pair comparisons, in (i, j) index order with i < j."""
        out = []
        for i in range(len(self.games)):
            for j in range(i + 1, len(self.games)):
                out.append(ComparisonConstraint(i, j, self.comparisons[i][j]))
        return tuple(out)


@dataclass(frozen=True)
class UtilityFit:
    verdict: str
    u: Optional[dict[Fraction, Fraction]]
    certificate: Optional[tuple[ComparisonConstraint, ...]]
    unique: Optional[bool]

    @property
    def feasible(self) -> bool:
        return self.verdict == FEASIBLE


# The sort key's comparison: the preferred game sorts first.
_RANK = {
    Preference.PrefersLeft: -1,
    Preference.Indifferent: 0,
    Preference.PrefersRight: 1,
}


def build_instance(
    agent: Agent, games: Sequence[Game], alphabet: RewardAlphabet
) -> PreferenceInstance:
    """Fill the comparison matrix from one sort of the games by the agent's rule.

    Each game is validated and then checked against the alphabet, zero-weight
    branches included, before the next game is looked at.  Every ``RULES``
    entry is a total preorder, so one sort with it orders the games best
    first, and ranking each game against the next one in that order
    (n - 1 more rule calls) splits them into tie levels, numbered from 0
    at the top.  :func:`_level_matrix` reads the matrix off those levels:
    the one that ranking every pair would give, from O(n log n) rule calls
    instead of n^2.
    """
    games = tuple(games)
    for g in games:
        validate_game(g)
        for b in g.branches:
            alphabet.index(b.reward)  # raises AlphabetMismatchError if outside
    statistics = scaled_statistics(agent.kind, games)
    rule = RULES[agent.kind]
    order = sorted(
        range(len(games)),
        key=cmp_to_key(lambda i, j: _RANK[rule(statistics[i], statistics[j])]),
    )
    levels = [0] * len(games)
    level = 0
    for above, below in zip(order, order[1:]):
        if rule(statistics[above], statistics[below]) is not Preference.Indifferent:
            level += 1
        levels[below] = level
    return PreferenceInstance(alphabet, games, _level_matrix(levels, level))


def _level_matrix(levels: list[int], top: int) -> tuple[tuple[Preference, ...], ...]:
    """The comparison matrix of games at these tie levels, 0 the best.

    ``top`` is the worst level.  A game at level k prefers every game at a
    greater level, is indifferent to its own and is beaten by every lesser
    one, so all rows of a level are one shared tuple.
    """
    # Entry w of line[top - k:] is the verdict at level k against level w.
    line = (
        (Preference.PrefersRight,) * top
        + (Preference.Indifferent,)
        + (Preference.PrefersLeft,) * top
    )
    rows = [tuple(map(line[top - k :].__getitem__, levels)) for k in range(top + 1)]
    return tuple(map(rows.__getitem__, levels))


def _check_preorder(instance: PreferenceInstance) -> list[int]:
    """Prove the matrix is a total preorder; return the game indices best first.

    In a total preorder a game strictly beats more games than any game
    below it and exactly as many as every game tied with it, so every
    entry ranks its two games by their strict win counts.  Conversely a
    matrix whose every entry does so is the order of those counts, which
    is total and transitive.  So the distinct counts, largest first, are
    taken as tie levels, and each row is compared, as one tuple, with its
    row of the matrix those levels imply (:func:`_level_matrix`, as
    :func:`build_instance` uses).  Only a row that disagrees is scanned
    entry by entry, to report its first disagreeing entry, which is then
    the first in row-major order.
    """
    games = instance.games
    m = instance.comparisons
    n = len(games)
    if len(m) != n or any(len(row) != n for row in m):
        raise InconsistentPreorderError("comparison matrix is not square")
    wins = [row.count(Preference.PrefersLeft) for row in m]
    counts = sorted(set(wins), reverse=True)
    level = {count: k for k, count in enumerate(counts)}
    matrix = _level_matrix([level[w] for w in wins], len(counts) - 1)
    for i, (row, implied) in enumerate(zip(m, matrix)):
        if tuple(row) != implied:
            for j, verdict in enumerate(row):
                if verdict is not implied[j]:
                    raise InconsistentPreorderError(
                        f"{games[i].name!r} vs {games[j].name!r} reads "
                        f"{verdict.value}, but their strict win counts "
                        f"{wins[i]} and {wins[j]} call for {implied[j].value}"
                    )
    return sorted(range(n), key=lambda i: -wins[i])


# An integer row (coeffs . u <= bound) and its history: a bitmask of the
# constraint_list() positions it was derived from.
_Tracked = tuple[tuple[int, ...], int, int]
_Vectors = Sequence[Sequence[int]]


class _Infeasible(Exception):
    """A derived row reads 0 <= negative; ``core`` names its comparisons."""

    def __init__(self, core: int) -> None:
        super().__init__(core)
        self.core = core


def _clean(rows: list[_Tracked]) -> list[_Tracked]:
    """Reduce, deduplicate and drop trivial rows; raise on a contradiction.

    Dividing a row by the gcd of its entries gives one form per positive
    rescaling.  Of two equal rows, the one with the smaller history stays.
    """
    seen: dict[tuple[tuple[int, ...], int], int] = {}
    for coeffs, bound, history in rows:
        if not any(coeffs):
            if bound < 0:
                raise _Infeasible(history)
            continue
        g = math.gcd(*coeffs, bound)
        if g != 1:
            coeffs = tuple(x // g for x in coeffs)
            bound //= g
        old = seen.get((coeffs, bound))
        if old is None or history.bit_count() < old.bit_count():
            seen[coeffs, bound] = history
    return [(coeffs, bound, history) for (coeffs, bound), history in seen.items()]


def _eliminate(rows: list[_Tracked], var: int) -> tuple[list[_Tracked], bool]:
    """Project variable ``var`` out of clean rows, exactly.

    When an equality (a row and its negation) mentions ``var``, the
    variable is substituted through it, and the flag returned is True.
    Otherwise every upper row is combined with every lower row
    (Fourier-Motzkin).
    """
    present = {(coeffs, bound) for coeffs, bound, _ in rows}
    for pcoeffs, pbound, phistory in rows:
        a = pcoeffs[var]
        if a and (tuple(-x for x in pcoeffs), -pbound) in present:
            scale, sign = abs(a), (1 if a > 0 else -1)
            out = []
            for coeffs, bound, history in rows:
                f = coeffs[var] * sign
                if f:
                    coeffs = tuple(x * scale - f * y for x, y in zip(coeffs, pcoeffs))
                    bound = bound * scale - f * pbound
                    history = history | phistory
                out.append((coeffs, bound, history))
            return out, True
    upper = []
    lower = []
    kept = []
    for row in rows:
        c = row[0][var]
        if c > 0:
            upper.append(row)
        elif c < 0:
            lower.append(row)
        else:
            kept.append(row)
    for ucoeffs, ubound, uhistory in upper:
        a = ucoeffs[var]
        for lcoeffs, lbound, lhistory in lower:
            b = -lcoeffs[var]
            coeffs = tuple(u * b + l * a for u, l in zip(ucoeffs, lcoeffs))
            kept.append((coeffs, ubound * b + lbound * a, uhistory | lhistory))
    return kept, False


def _project(rows: list[_Tracked], nvars: int) -> tuple[list[list[_Tracked]], int]:
    """Eliminate variables from the highest index down; raise if infeasible.

    Entry ``k`` of the snapshots, kept just before variable ``k`` is
    eliminated, is the exact projection of the system onto variables
    ``0..k``.  The count returned with them is how many variables were
    substituted through an equality.
    """
    current = _clean(rows)
    snapshots = [current] * nvars
    substitutions = 0
    for k in range(nvars - 1, -1, -1):
        snapshots[k] = current
        current, substituted = _eliminate(current, k)
        current = _clean(current)
        substitutions += substituted
    return snapshots, substitutions


def _back_substitute(snapshots: list[list[_Tracked]]) -> list[Fraction]:
    """Assign variables in ascending order from the projections, in integers.

    Midpoint when boxed between bounds, the single bound when one-sided,
    0 when free.  Every projection is exact, so the point depends only on
    the feasible set, not on the rows that describe it.  The assigned
    values are integer numerators over one common denominator ``den``, so
    a row's limit on u_k is the integer pair (p, q), q > 0, standing for
    p / q; limits are compared by cross-multiplication, and each value
    becomes a ``Fraction`` only at the end.
    """
    nums: list[int] = []
    den = 1
    for k, rows_k in enumerate(snapshots):
        low = None
        high = None
        for coeffs, bound, _ in rows_k:
            c = coeffs[k]
            if c == 0:
                continue
            # map stops at the k values assigned so far
            p = bound * den - sum(map(operator.mul, coeffs, nums))
            if c > 0:
                q = c * den
                if high is None or p * high[1] < high[0] * q:
                    high = (p, q)
            else:
                p, q = -p, -c * den
                if low is None or p * low[1] > low[0] * q:
                    low = (p, q)
        if low is not None and high is not None:
            p, q = low[0] * high[1] + high[0] * low[1], 2 * low[1] * high[1]
        else:
            p, q = low or high or (0, 1)  # the single bound, or 0 when free
        g = math.gcd(p, q)
        p, q = p // g, q // g
        scale = q // math.gcd(den, q)
        if scale != 1:
            nums = [x * scale for x in nums]
            den *= scale
        nums.append(p * (den // q))
    return [Fraction(x, den) for x in nums]


def _tracked_rows(
    vectors: _Vectors,
    gap: int,
    left: int,
    right: int,
    preference: Preference,
    position: int,
) -> list[_Tracked]:
    """The integer rows of one comparison, with history bit ``position`` set."""
    diff = tuple(map(operator.sub, vectors[left], vectors[right]))
    negated = tuple(map(operator.neg, diff))
    history = 1 << position
    if preference is Preference.Indifferent:
        return [(diff, 0, history), (negated, 0, history)]
    if preference is Preference.PrefersLeft:
        return [(negated, -gap, history)]
    return [(diff, -gap, history)]


def _irreducible_certificate(
    vectors: _Vectors,
    gap: int,
    comparisons: Sequence[tuple[int, int, Preference]],
    core: int,
    nvars: int,
) -> tuple[ComparisonConstraint, ...]:
    """Shrink an infeasible comparison set until every member is load-bearing.

    ``comparisons`` holds ``(left, right, preference)`` in
    ``constraint_list()`` order.  The deletion scan runs from the most
    recently declared comparison backward, so the surviving certificate
    favors the earliest declarations.  ``core`` names an infeasible subset
    of the kept comparisons.  Deleting a candidate outside it leaves the
    core in place, so that trial is infeasible without a solve.  Only
    candidates inside the core are solved for, and each infeasible trial
    hands back a new core.  A comparison's rows are built the first time a
    trial includes it, so positions above the first solved candidate never
    are.  Every position below the candidate is still kept, which makes
    the candidate's index in ``kept`` its own position.
    """
    rows: list[Optional[list[_Tracked]]] = [None] * len(comparisons)
    kept = list(range(len(comparisons)))
    for candidate in reversed(range(len(comparisons))):
        if core >> candidate & 1:
            trial: list[_Tracked] = []
            for i in kept:
                if i != candidate:
                    if rows[i] is None:
                        rows[i] = _tracked_rows(vectors, gap, *comparisons[i], i)
                    trial += rows[i]
            try:
                _project(trial, nvars)
                continue
            except _Infeasible as exc:
                core = exc.core
        del kept[candidate]
    return tuple(ComparisonConstraint(*comparisons[i]) for i in kept)


def fit_utility(instance: PreferenceInstance) -> UtilityFit:
    """Decide representability; return a witness utility or a certificate."""
    order = _check_preorder(instance)
    alphabet = instance.alphabet
    games = instance.games
    m = instance.comparisons
    nvars = len(alphabet)
    n = len(games)
    # Every weight vector and the unit gap, over one common denominator D.
    gap, vectors = weight_vectors(games, alphabet)
    # Comparisons between games adjacent in the order imply all the others;
    # pair (i, j) with i < j sits at this position in constraint_list().
    chain = [(i, j, m[i][j]) for i, j in map(sorted, zip(order, order[1:]))]
    rows = [
        row
        for i, j, preference in chain
        for row in _tracked_rows(
            vectors, gap, i, j, preference, i * n - i * (i + 1) // 2 + j - i - 1
        )
    ]
    try:
        snapshots, rank = _project(rows, nvars)
    except _Infeasible as exc:
        return UtilityFit(
            verdict=INFEASIBLE,
            u=None,
            certificate=_irreducible_certificate(
                vectors,
                gap,
                [(i, j, m[i][j]) for i in range(n) for j in range(i + 1, n)],
                exc.core,
                nvars,
            ),
            unique=None,
        )
    solution = _back_substitute(snapshots)
    u = {r: solution[i] for i, r in enumerate(alphabet.rewards)}
    has_strict = any(p is not Preference.Indifferent for _, _, p in chain)
    unique = rank == (nvars - 2 if has_strict else nvars - 1)
    return UtilityFit(verdict=FEASIBLE, u=u, certificate=None, unique=unique)


def verify_fit(
    instance: PreferenceInstance, u: Mapping[Fraction, Fraction]
) -> bool:
    """Independently confirm that u reproduces every recorded comparison."""
    for r in instance.alphabet:
        if r not in u:
            return False

    def eu(game: Game) -> Fraction:
        total = _ZERO
        for b in game.branches:
            total += b.weight * u[b.reward]
        return total

    for i, g in enumerate(instance.games):
        for j, h in enumerate(instance.games):
            gap = eu(g) - eu(h)
            recorded = instance.comparisons[i][j]
            if gap > 0 and recorded is not Preference.PrefersLeft:
                return False
            if gap < 0 and recorded is not Preference.PrefersRight:
                return False
            if gap == 0 and recorded is not Preference.Indifferent:
                return False
    return True


def normalize_fit(
    fit: UtilityFit, r_lo: Fraction, r_hi: Fraction
) -> UtilityFit:
    """Rescale a feasible fit so u(r_lo) = 0 and u(r_hi) = 1.

    Only positive affine rescalings preserve a fit, so the anchors must
    already satisfy u(r_lo) < u(r_hi); a constant fit (the degenerate
    case) admits no such anchors.
    """
    if not fit.feasible or fit.u is None:
        raise ValueError("cannot normalize an infeasible fit")
    if r_lo not in fit.u or r_hi not in fit.u:
        raise ValueError("anchor rewards are outside the fitted alphabet")
    lo = fit.u[r_lo]
    hi = fit.u[r_hi]
    if hi <= lo:
        raise DegenerateNormalizationError(
            f"u({r_lo}) = {lo} and u({r_hi}) = {hi} admit no increasing rescaling"
        )
    scale = hi - lo
    rescaled = {r: (v - lo) / scale for r, v in fit.u.items()}
    return UtilityFit(
        verdict=fit.verdict,
        u=rescaled,
        certificate=fit.certificate,
        unique=fit.unique,
    )
