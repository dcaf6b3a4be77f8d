"""The README's python blocks run as written and show the values their comments state."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = [chunk.split("```", 1)[0] for chunk in README.read_text().split("```python\n")[1:]]
# a comment that opens with a number states the value of its line's expression
CLAIM = re.compile(r"\s*(-?\d+(?:\.(\d+))?)\b")


def _run(code):
    """Run one block statement by statement. Each expression whose comment opens
    with a number must print as that number at its digits. Returns the last
    expression's value and the numbers checked."""
    lines = code.splitlines()
    namespace, value, checked = {}, None, []
    for stmt in ast.parse(code).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), str(README), "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), str(README), "eval"), namespace)
        claim = CLAIM.match(lines[stmt.end_lineno - 1].partition("#")[2])
        if claim:
            text, decimals = claim.group(1), len(claim.group(2) or "")
            assert f"{value:.{decimals}f}" == text, f"{ast.unparse(stmt)} is {value!r}"
            checked.append(text)
    return value, checked


def test_quick_start_runs_and_classifies_a_conductor():
    assert "fillings" in ast.unparse(ast.parse(BLOCKS[0]).body[-1])
    label, _ = _run(BLOCKS[0])
    assert label == "conductor"


def test_later_blocks_run_and_show_their_commented_values():
    checked = [text for code in BLOCKS[1:] for text in _run(code)[1]]
    assert {"1.905", "16455"} <= set(checked)   # the UnitSystem block's energy and field
