"""README's "Library tour" runs as written and shows what its comments say."""

import ast
from pathlib import Path

from branchgames import Preference, Verdict

README = Path(__file__).resolve().parent.parent / "README.md"


def _tour() -> str:
    section = README.read_text().split("## Library tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_the_library_tour_runs_and_shows_its_commented_values():
    namespace: dict = {}
    shown = []
    # Run the block statement by statement, keeping each bare expression's
    # value: those are the lines the tour comments on.
    for statement in ast.parse(_tour()).body:
        if isinstance(statement, ast.Expr):
            code = compile(ast.Expression(statement.value), "README.md", "eval")
            shown.append(eval(code, namespace))
        else:
            module = ast.Module(body=[statement], type_ignores=[])
            exec(compile(module, "README.md", "exec"), namespace)
    preference, verdict, fit_verdict, certificate, (index, clause) = shown
    assert preference is Preference.PrefersLeft
    assert verdict is Verdict.VIOLATED
    assert fit_verdict == "infeasible"
    assert len(certificate) == 2
    assert (index, clause) == (20947, "ii")
