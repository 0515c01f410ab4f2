"""branchgames: an exact-arithmetic laboratory for branching decision games.

Games are finite branchings with rational rewards and branch weights;
agents are total preorders over games.  The package checks diachronic
consistency and solution continuity, analyzes Dutch-book packages, decides
expected-utility representability of finite preference instances, and
searches small scenario grids for axiom violations.  A line-oriented
scenario-file format and a ``branchgames`` command drive it all from text.
"""

from .agents import AGENT_KINDS, Agent, Preference, compare
from .axioms import (
    AxiomReport,
    ContinuityLevel,
    ContinuityWitness,
    DiachronicScenario,
    DiachronicWitness,
    DutchBookReport,
    NotStrictPreferenceError,
    ScenarioError,
    Verdict,
    analyze_dutch_book,
    check_continuity,
    check_diachronic,
)
from .core import (
    AlphabetMismatchError,
    Branch,
    EmptyGameError,
    EventMismatchError,
    Game,
    GameError,
    RewardAlphabet,
    WeightRangeError,
    WeightSumError,
    as_rational,
    expected_value,
    flatten,
    game_distance,
    largest_reward,
    support_bounds,
    validate_game,
    weight_vector,
)
from .representation import (
    ComparisonConstraint,
    DegenerateNormalizationError,
    FEASIBLE,
    INFEASIBLE,
    InconsistentPreorderError,
    PreferenceInstance,
    UtilityFit,
    build_instance,
    fit_utility,
    normalize_fit,
)
from .search import (
    GridSpec,
    GridTooLargeError,
    ViolationHit,
    enumerate_scenarios,
    find_violation,
    scenario_count,
)

__version__ = "0.1.0"

__all__ = [
    "AGENT_KINDS",
    "Agent",
    "AlphabetMismatchError",
    "AxiomReport",
    "Branch",
    "ComparisonConstraint",
    "ContinuityLevel",
    "ContinuityWitness",
    "DegenerateNormalizationError",
    "DiachronicScenario",
    "DiachronicWitness",
    "DutchBookReport",
    "EmptyGameError",
    "EventMismatchError",
    "FEASIBLE",
    "Game",
    "GameError",
    "GridSpec",
    "GridTooLargeError",
    "INFEASIBLE",
    "InconsistentPreorderError",
    "NotStrictPreferenceError",
    "PreferenceInstance",
    "Preference",
    "RewardAlphabet",
    "ScenarioError",
    "UtilityFit",
    "Verdict",
    "ViolationHit",
    "WeightRangeError",
    "WeightSumError",
    "analyze_dutch_book",
    "as_rational",
    "build_instance",
    "check_continuity",
    "check_diachronic",
    "compare",
    "enumerate_scenarios",
    "expected_value",
    "find_violation",
    "fit_utility",
    "flatten",
    "game_distance",
    "largest_reward",
    "normalize_fit",
    "scenario_count",
    "support_bounds",
    "validate_game",
    "weight_vector",
]
