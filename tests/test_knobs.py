"""A guard on the number of defaulted parameters in the package."""

import ast
from pathlib import Path

import multising

# raise it only together with a caller that sets the new default
MOST_DEFAULTS = 9


def _count_defaults(source: str) -> int:
    """Default values of every function and lambda: positional and keyword-only."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
    return count


def test_count_defaults_sees_positional_keyword_and_lambda_defaults():
    source = "def f(a, b=1, *, c=2, d): pass\ng = lambda x=0: x\nclass C:\n    def m(self, y=3): pass\n"
    assert _count_defaults(source) == 4


def test_defaulted_parameters_stay_at_most_the_recorded_count():
    """Each defaulted parameter is a knob.  A change that removes one lowers
    MOST_DEFAULTS to the new count, so that it cannot come back unnoticed."""
    package = Path(multising.__file__).parent
    total = sum(_count_defaults(path.read_text()) for path in sorted(package.glob("*.py")))
    assert total <= MOST_DEFAULTS
