"""Public surface census: every public top-level function and class of the
package has a program reference, or names the test that stands for one.

A program reference is a use of the name, or a string equal to it, in src/
(outside `__all__` and outside the definition itself), perfbench/ or tools/.
A public name with none must carry a `Test reference: tests/<file>::<name>`
line in its docstring, naming a test that exists and uses it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "isqwave"
PROGRAM_DIRS = (SRC, ROOT / "perfbench", ROOT / "tools")


def _names(node) -> set:
    """Names node uses: identifiers, attributes, imported names, strings."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def _is_all(stmt) -> bool:
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)


def public_definitions() -> dict:
    """(module file name, name) -> the def or class node."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) \
                    and not stmt.name.startswith("_"):
                out[path.name, stmt.name] = stmt
    return out


def program_references() -> set:
    """Names used by the program's top-level statements, bar `__all__`; a
    definition in src/ does not count as a use of its own name."""
    refs = set()
    for directory in PROGRAM_DIRS:
        for path in sorted(directory.rglob("*.py")):
            if path.name.startswith("test_"):
                continue
            for stmt in ast.parse(path.read_text(), str(path)).body:
                if not _is_all(stmt):
                    names = _names(stmt)
                    if path.parent == SRC:
                        names.discard(getattr(stmt, "name", None))
                    refs |= names
    return refs


def named_test(node):
    """(test file, test name) from a `Test reference:` docstring line."""
    for line in (ast.get_docstring(node) or "").splitlines():
        key, _, target = line.strip().partition("Test reference:")
        if not key and target:
            path, _, name = target.strip().rstrip(".").partition("::")
            return ROOT / path, name
    return None


def test_every_public_name_has_a_program_or_test_reference():
    defs = public_definitions()
    assert len(defs) > 50
    refs = program_references()
    missing, stale = [], []
    for (module, name), node in sorted(defs.items()):
        if name in refs:
            continue
        ref = named_test(node)
        if ref is None:
            missing.append(f"{module}: {name}")
            continue
        path, test = ref
        tree = ast.parse(path.read_text()) if path.is_file() else None
        if tree is None or test not in {getattr(s, "name", None)
                                        for s in tree.body} \
                or name not in _names(tree):
            stale.append(f"{module}: {name} -> {path.name}::{test}")
    assert missing == []
    assert stale == []
