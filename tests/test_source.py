import ast
from pathlib import Path

import spectral_pairs

SRC = Path(spectral_pairs.__file__).parent


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements, so no correctness check may be one
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(SRC.rglob("*.py"))) > 10
    assert found == []
