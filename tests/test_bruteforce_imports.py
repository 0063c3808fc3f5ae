"""tests/bruteforce.py shares no code with the package it checks."""

import ast
from pathlib import Path


def test_bruteforce_imports_nothing_from_sparselab():
    path = Path(__file__).parent / "bruteforce.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append(node.module or "")
    assert found, "no imports parsed"
    assert not [m for m in found if m.split(".")[0] == "sparselab"], found
