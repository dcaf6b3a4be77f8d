"""The README quick start runs as written."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs_and_classifies_a_conductor():
    code = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    tree = ast.parse(code)
    last = tree.body.pop()
    assert isinstance(last, ast.Expr) and "classify" in ast.unparse(last)
    namespace = {}
    exec(compile(tree, str(README), "exec"), namespace)
    label = eval(compile(ast.Expression(last.value), str(README), "eval"), namespace)
    assert label == "conductor"
