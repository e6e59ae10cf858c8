"""The README's library tour, run as written."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_tour_runs_and_shows_what_it_claims():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library tour\s+```python\n(.*?)```", text,
                      re.S).group(1)
    namespace: dict = {}
    shown = {}
    for node in ast.parse(block).body:
        code = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            shown[code] = eval(code, namespace)
        else:
            exec(code, namespace)
    assert shown['H.contains("xyyX")'] is True
    assert shown["verify_realization(theta, recovered)"] is True
