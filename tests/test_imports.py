"""Package layering: no module reaches into another module's private names."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "isqwave"


def test_no_relative_import_of_a_private_name():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [f"{path.name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_")
                          and not alias.name.startswith("__")]
    assert found == []
